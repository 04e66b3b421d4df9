"""Per-layer host-time attribution from outside the program.

:meth:`LayerTracer.install` replaces the public methods listed in
:data:`LAYERS` with timing wrappers, at class level, in the current
process only.  The program's code is untouched: the wrappers record one
span per call into a layer and keep a single span stack, so a layer's
*self* time is its spans' time minus the time of the wrapped spans
nested inside them.
Self times of all spans under a root span add up to the root's wall
time, which is what lets the benchmark check that the layers account
for the whole serve phase.

Layer names are the program's module names.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.builder import SystemBuilder
from repro.kernels.base import LoRAOperator
from repro.kernels.cost_model import GemmCostModel
from repro.models.costs import IterationCostModel
from repro.runtime.adapters import AdapterManager
from repro.runtime.cluster import MultiGPUServer
from repro.runtime.costcache import IterationCostCache, TransferCostCache
from repro.runtime.disagg import PhasePinnedPolicy
from repro.runtime.engine import ServingEngine
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.metrics import MetricsCollector
from repro.runtime.modes import ModeExecutor
from repro.runtime.placement import AdapterPlacement
from repro.runtime.scheduler import SchedulingPolicy
from repro.runtime.switcher import ModeSwitcher
from repro.workloads import RetrievalWorkload, VideoAnalyticsWorkload

#: layer -> (class, public methods timed).  A method overridden by a
#: subclass is wrapped there too, unless another entry names that
#: subclass (``PhasePinnedPolicy.schedule`` belongs to ``disagg``).
LAYERS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "workloads": [(VideoAnalyticsWorkload, ("generate",)),
                  (RetrievalWorkload, ("generate",))],
    "builder": [(SystemBuilder, ("build",)),
                (MultiGPUServer, ("replicate",))],
    "cluster": [(MultiGPUServer, ("submit", "run"))],
    "placement": [(AdapterPlacement, ("decide", "rebalance",
                                      "refresh_from_engines",
                                      "prefetch_plan"))],
    "disagg": [(TransferCostCache, ("seconds",)),
               (PhasePinnedPolicy, ("schedule",))],
    "engine": [(ServingEngine, ("submit", "run", "step"))],
    "scheduler": [(SchedulingPolicy, ("schedule", "refresh_credits"))],
    "switcher": [(ModeSwitcher, ("switch_seconds", "merge_seconds"))],
    "adapters": [(AdapterManager, ("try_ensure_resident", "make_resident",
                                   "demote"))],
    "kv_cache": [(PagedKVCache, ("can_allocate", "allocate", "append_token",
                                 "free", "evict_stale_prefixes"))],
    "costcache": [(IterationCostCache, ("lookup",))],
    "modes": [(ModeExecutor, ("mean_extra_seconds", "extra_seconds",
                              "extra_seconds_from_mean"))],
    "costs": [(IterationCostModel, ("prefill_seconds", "decode_seconds",
                                    "decode_seconds_stats",
                                    "head_seconds"))],
    "kernels": [(LoRAOperator, ("pair_seconds", "layer_seconds")),
                (GemmCostModel, ("grouped_seconds", "grouped_seconds_mnk"))],
    "metrics": [(MetricsCollector, ("complete", "record_abort", "merge_from",
                                    "summary"))],
}


#: Spans kept for the Chrome trace export (the earliest ones).
SPAN_CAP = 20_000


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _targets() -> Dict[Tuple[type, str], str]:
    """(class, method) -> layer, for every class that defines the method."""
    explicit = {(cls, m): layer
                for layer, entries in LAYERS.items()
                for cls, methods in entries for m in methods}
    targets = dict(explicit)
    for (cls, method), layer in explicit.items():
        for sub in _subclasses(cls):
            if method in vars(sub) and (sub, method) not in explicit:
                targets[(sub, method)] = layer
    return targets


class LayerTracer:
    """Span stack, per-layer call counts and self times, span samples."""

    def __init__(self):
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Self time of spans that ran while :attr:`serving` was set.
        self.serve_self_s = 0.0
        self.serving = False
        #: While set, spans are kept (up to :data:`SPAN_CAP`) for export.
        self.recording = False
        self.spans: List[Tuple[str, str, float, float]] = []
        self._stack: List[float] = []

    def install(self) -> None:
        """Wrap every target method; lasts for the life of the process."""
        for (cls, method), layer in _targets().items():
            raw = vars(cls)[method]
            name = f"{cls.__name__}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, name, raw.__func__))
            else:
                wrapped = self._wrap(layer, name, raw)
            setattr(cls, method, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own = duration - stack.pop()
                if stack:
                    stack[-1] += duration
                calls[layer] += 1
                self_s[layer] += own
                if self.serving:
                    self.serve_self_s += own
                if self.recording and len(self.spans) < SPAN_CAP:
                    self.spans.append((name, layer, start, duration))
        return span

    def write_chrome_trace(self, path) -> None:
        """Kept spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round(duration * 1e6, 3)}
            for name, layer, start, duration in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
