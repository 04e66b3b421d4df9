"""Serving metrics: average token latency, throughput, tail percentiles.

Metric definitions follow §6.1:

* **average token latency** — the sum of each request's end-to-end
  latency divided by the total number of tokens (input + output);
* **throughput** — completed requests per second of simulated time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.runtime.request import Request


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (``q`` in [0, 100]).

    The one percentile implementation shared by latency summaries,
    detection-latency reporting, and hedge-threshold tracking (linear
    interpolation, numpy semantics).  Raises on an empty sequence —
    callers decide what "no data" means.
    """
    if len(values) == 0:
        raise ValueError("no values to take a percentile of")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(values, q))


class StreamingQuantile:
    """Sliding-window quantile estimate over a stream of observations.

    Keeps the most recent ``window`` samples (deque, O(1) per
    observation) and answers :meth:`quantile` exactly over that window —
    deterministic and replayable, unlike sketch-based estimators.  Used
    for the hedge-threshold tracker, where "recent completions" is
    precisely the right population: old latencies from before a
    straggler appeared (or healed) age out of the window on their own.
    """

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buf: Deque[float] = deque(maxlen=window)

    def __len__(self) -> int:
        return len(self._buf)

    def observe(self, value: float) -> None:
        self._buf.append(value)

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile of the window; None when empty."""
        if not self._buf:
            return None
        return percentile(list(self._buf), q)


@dataclass(frozen=True, slots=True)
class AbortRecord:
    """Immutable record of one aborted request (graceful degradation)."""

    request_id: int
    adapter_id: str
    task_name: str
    arrival_time: float
    abort_time: float
    reason: str
    input_tokens: int
    output_tokens: int
    generated: int
    slo_s: Optional[float] = None

    @classmethod
    def from_request(cls, req: Request) -> "AbortRecord":
        if req.abort_time is None or req.abort_reason is None:
            raise ValueError(f"request {req.request_id} not aborted")
        return cls(
            request_id=req.request_id,
            adapter_id=req.adapter_id,
            task_name=req.task_name,
            arrival_time=req.arrival_time,
            abort_time=req.abort_time,
            reason=req.abort_reason.value,
            input_tokens=req.input_tokens,
            output_tokens=req.output_tokens,
            generated=req.generated,
            slo_s=req.slo_s,
        )


@dataclass(frozen=True, slots=True)
class ScaleEvent:
    """One replica-lifecycle transition in an autoscaled cluster.

    ``action`` is one of ``spawn`` (WARMING replica created),
    ``activate`` (warm-up finished, serving), ``drain`` (scale-down
    chosen, no new dispatch), ``retire`` (drained empty, released),
    ``drain_timeout`` (drain deadline hit, remainder re-homed) or
    ``fail`` (the replica's engine died).  ``num_members`` counts the
    cluster's live replicas (any non-DEAD state) *after* the event.
    """

    time: float
    action: str
    replica_id: str
    reason: str
    num_members: int

    def to_dict(self) -> Dict:
        return {
            "time": self.time,
            "action": self.action,
            "replica_id": self.replica_id,
            "reason": self.reason,
            "num_members": self.num_members,
        }


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Immutable completion record for one request."""

    request_id: int
    adapter_id: str
    task_name: str
    arrival_time: float
    first_token_time: float
    finish_time: float
    input_tokens: int
    output_tokens: int
    slo_s: Optional[float] = None

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token."""
        return self.first_token_time - self.arrival_time

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    @classmethod
    def from_request(cls, req: Request) -> "RequestRecord":
        if req.finish_time is None or req.first_token_time is None:
            raise ValueError(f"request {req.request_id} not finished")
        return cls(
            request_id=req.request_id,
            adapter_id=req.adapter_id,
            task_name=req.task_name,
            arrival_time=req.arrival_time,
            first_token_time=req.first_token_time,
            finish_time=req.finish_time,
            input_tokens=req.input_tokens,
            output_tokens=req.output_tokens,
            slo_s=req.slo_s,
        )


@dataclass
class MetricsCollector:
    """Accumulates completion records and derives §6.1's metrics."""

    records: List[RequestRecord] = field(default_factory=list)
    mode_iterations: Dict[str, int] = field(default_factory=dict)
    num_mode_switches: int = 0
    num_preemptions: int = 0
    switch_time_total: float = 0.0
    lora_extra_time_total: float = 0.0
    iterations: int = 0
    # -- resilience accounting (fault injection / graceful degradation) ----
    aborts: List[AbortRecord] = field(default_factory=list)
    # -- swap-traffic observability (adapter cache behavior) ---------------
    #: Adapter swap-ins actually performed (cache misses that landed).
    swap_ins: int = 0
    #: Engine stall seconds paid on the swap path (incl. failed attempts).
    swap_in_seconds: float = 0.0
    #: Batch-adapter residency checks that found the adapter on GPU.
    adapter_cache_hits: int = 0
    #: ... and that did not (each miss pays a swap or a swap failure).
    adapter_cache_misses: int = 0
    swap_retries: int = 0
    adapters_quarantined: int = 0
    mode_fallbacks: int = 0
    shed_events: int = 0
    kv_stall_iters: int = 0
    failover_events: int = 0
    engine_failures: int = 0
    # -- overload protection (admission / brownout / breakers) -------------
    admission_rejections: int = 0
    brownout_sheds: int = 0
    brownout_truncations: int = 0
    brownout_forced_merges: int = 0
    brownout_transitions: int = 0
    brownout_time_s: float = 0.0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    requeue_limit_aborts: int = 0
    # -- cost-cache accounting (memoized iteration-cost layer) -------------
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    # -- replica lifecycle (autoscaled clusters; all zero when static) -----
    scale_events: List[ScaleEvent] = field(default_factory=list)
    scale_up_events: int = 0
    scale_down_events: int = 0
    replicas_spawned: int = 0
    replicas_retired: int = 0
    scale_stalls: int = 0
    drain_timeouts: int = 0
    drain_requeues: int = 0
    warming_time_s: float = 0.0
    draining_time_s: float = 0.0
    #: Replica-seconds paid (spawn to death), the bench's cost metric.
    gpu_seconds_total: float = 0.0
    # -- gray-failure detection (runtime/failure_detection.py) -------------
    #: ALIVE → SUSPECTED transitions (replica drained, not killed).
    suspicions: int = 0
    #: SUSPECTED → ALIVE healings (the silence was a gray failure).
    false_suspicions: int = 0
    #: Stale completions discarded by lease fencing (zombie replays).
    fenced_completions: int = 0
    #: NETWORK_PARTITION windows that closed with the replica still live.
    partition_heals: int = 0
    #: Per confirmed-dead replica: seconds from actual death to the
    #: detector's CONFIRMED_DEAD verdict (false confirmations excluded —
    #: a partitioned-but-alive replica has no death to measure from).
    detection_latencies: List[float] = field(default_factory=list)
    # -- tail-tolerant dispatch (runtime/hedging.py) -----------------------
    #: Speculative duplicate dispatches fired past the hedge threshold.
    hedges_fired: int = 0
    #: Hedged requests whose *speculative copy* finished first.
    hedge_wins: int = 0
    #: Late terminals of hedged requests fenced after the winner landed
    #: (duplicate work, never a duplicate terminal).
    hedge_losses: int = 0
    #: Retries/hedges denied because the retry budget ran dry.
    retry_budget_exhausted: int = 0
    # -- adapter-locality placement (runtime/placement.py) -----------------
    #: Requests routed off their overloaded home onto a replica already
    #: holding the adapter (locality kept, load respected).
    placement_spills: int = 0
    #: Hot adapters promoted to k-replica service (watermark crossings).
    placement_replications: int = 0
    #: Cold adapters demoted out of GPU slots fleet-wide.
    placement_demotions: int = 0
    #: Hot adapters prefetched onto freshly spawned replicas at warm-up.
    adapters_prefetched: int = 0
    # -- disaggregated prefill/decode serving (runtime/disagg.py) ----------
    #: Finished prefills handed off to a decode-pool replica.
    kv_transfers: int = 0
    #: Total modeled wire time of those KV moves (charged like swap-ins).
    kv_transfer_seconds: float = 0.0
    #: Total KV bytes moved across the pool boundary.
    kv_transfer_bytes: int = 0
    #: Hand-offs abandoned because the decode pool was permanently gone
    #: (the requests abort — there is nowhere left to decode).
    kv_transfer_aborts: int = 0

    def complete(self, req: Request) -> None:
        self.records.append(RequestRecord.from_request(req))

    def record_abort(self, req: Request) -> None:
        self.aborts.append(AbortRecord.from_request(req))

    def record_scale_event(self, event: ScaleEvent) -> None:
        self.scale_events.append(event)
        if event.action == "spawn":
            self.scale_up_events += 1
            self.replicas_spawned += 1
        elif event.action == "drain":
            self.scale_down_events += 1
        elif event.action == "retire":
            self.replicas_retired += 1
        elif event.action == "drain_timeout":
            self.drain_timeouts += 1

    def count_mode(self, mode_name: str) -> None:
        self.mode_iterations[mode_name] = (
            self.mode_iterations.get(mode_name, 0) + 1
        )

    # -- headline metrics -----------------------------------------------------

    @property
    def num_completed(self) -> int:
        return len(self.records)

    @property
    def num_aborted(self) -> int:
        return len(self.aborts)

    def abort_counts(self) -> Dict[str, int]:
        """Abort counts keyed by :class:`AbortReason` value."""
        out: Dict[str, int] = {}
        for a in self.aborts:
            out[a.reason] = out.get(a.reason, 0) + 1
        return out

    def goodput_rps(self, duration: Optional[float] = None) -> float:
        """Completed requests per second, charging aborted requests.

        Unlike :meth:`throughput_rps` the window spans every arrival
        (including aborted ones) to the last terminal event, so shedding
        load does not inflate the number.  0.0 when nothing completed.
        """
        if not self.records:
            return 0.0
        if duration is None:
            events = self.records + self.aborts
            start = min(r.arrival_time for r in events)
            end = max(
                [r.finish_time for r in self.records]
                + [a.abort_time for a in self.aborts]
            )
            duration = max(end - start, 1e-9)
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        return len(self.records) / duration

    def avg_token_latency(self) -> float:
        """Sum of request latencies over total tokens (seconds/token)."""
        if not self.records:
            raise ValueError("no completed requests")
        total_latency = sum(r.latency for r in self.records)
        total_tokens = sum(r.total_tokens for r in self.records)
        return total_latency / total_tokens

    def throughput_rps(self, duration: Optional[float] = None) -> float:
        """Completed requests per second over ``duration`` (defaults to
        the span from first arrival to last completion)."""
        if not self.records:
            raise ValueError("no completed requests")
        if duration is None:
            start = min(r.arrival_time for r in self.records)
            end = max(r.finish_time for r in self.records)
            duration = max(end - start, 1e-9)
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        return len(self.records) / duration

    def mean_latency(self) -> float:
        if not self.records:
            raise ValueError("no completed requests")
        return float(np.mean([r.latency for r in self.records]))

    def latency_percentile(self, q: float) -> float:
        """Latency percentile, ``q`` in [0, 100]."""
        if not self.records:
            raise ValueError("no completed requests")
        return percentile([r.latency for r in self.records], q)

    def ttft_percentile(self, q: float) -> float:
        """Time-to-first-token percentile, ``q`` in [0, 100]."""
        if not self.records:
            raise ValueError("no completed requests")
        return percentile([r.ttft for r in self.records], q)

    def mean_ttft(self) -> float:
        if not self.records:
            raise ValueError("no completed requests")
        return float(np.mean([r.ttft for r in self.records]))

    def slo_attainment(self) -> Optional[float]:
        """Fraction of SLO-carrying requests that met their SLO.

        Aborted SLO-carrying requests count as misses (they never
        produced an answer).  ``None`` when no terminal request carried
        an SLO.
        """
        with_slo = [r for r in self.records if r.slo_s is not None]
        aborted_slo = sum(1 for a in self.aborts if a.slo_s is not None)
        total = len(with_slo) + aborted_slo
        if not total:
            return None
        met = sum(1 for r in with_slo if r.latency <= r.slo_s)
        return met / total

    # -- breakdowns ----------------------------------------------------------------

    def by_task(self) -> Dict[str, List[RequestRecord]]:
        out: Dict[str, List[RequestRecord]] = {}
        for r in self.records:
            out.setdefault(r.task_name, []).append(r)
        return out

    def by_adapter(self) -> Dict[str, List[RequestRecord]]:
        out: Dict[str, List[RequestRecord]] = {}
        for r in self.records:
            out.setdefault(r.adapter_id, []).append(r)
        return out

    def merge_from(self, other: "MetricsCollector") -> None:
        """Fold another collector (e.g. one replica's) into this one.

        Every field folds by its type: lists extend, dicts sum per key,
        numbers add.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, f.name, mine + theirs)

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers (for bench JSON dumps).

        Latency keys appear only when at least one request completed
        (an all-aborted run still summarizes without raising).
        """
        out: Dict[str, float] = {
            "completed": float(self.num_completed),
            "aborted": float(self.num_aborted),
            "goodput_rps": self.goodput_rps(),
            "mode_switches": float(self.num_mode_switches),
            "preemptions": float(self.num_preemptions),
            "switch_time_total_s": self.switch_time_total,
            "iterations": float(self.iterations),
        }
        if self.records:
            out.update({
                "avg_token_latency_ms": self.avg_token_latency() * 1e3,
                "throughput_rps": self.throughput_rps(),
                "mean_latency_s": self.mean_latency(),
                "p50_latency_s": self.latency_percentile(50),
                "p90_latency_s": self.latency_percentile(90),
                "p99_latency_s": self.latency_percentile(99),
                "mean_ttft_s": self.mean_ttft(),
            })
        for reason, count in sorted(self.abort_counts().items()):
            out[f"aborted_{reason}"] = float(count)
        for key in _GATED_SUMMARY_KEYS:
            value = getattr(self, key)
            if value:
                out[key] = float(value)
        # Swap-traffic keys appear only once a swap (or failed swap) was
        # actually paid: an all-resident run — the common small-registry
        # case — keeps its summary unchanged.
        if self.swap_ins or self.adapter_cache_misses:
            out["swap_ins"] = float(self.swap_ins)
            out["swap_in_seconds"] = self.swap_in_seconds
            lookups = self.adapter_cache_hits + self.adapter_cache_misses
            out["adapter_cache_hit_ratio"] = (
                self.adapter_cache_hits / lookups if lookups else 1.0
            )
        if self.detection_latencies:
            out["detection_latency_p50_s"] = percentile(
                self.detection_latencies, 50)
            out["detection_latency_p99_s"] = percentile(
                self.detection_latencies, 99)
        if self.slo_attainment() is not None:
            out["slo_attainment"] = self.slo_attainment()
        return out


#: Counters :meth:`MetricsCollector.summary` reports another way (as
#: headline keys, or folded into the swap-traffic ratio) or not at all.
_SUMMARY_REPORTED_ELSEWHERE = frozenset({
    "num_mode_switches", "num_preemptions", "switch_time_total",
    "lora_extra_time_total", "iterations", "swap_ins", "swap_in_seconds",
    "adapter_cache_hits", "adapter_cache_misses",
})

#: Every other numeric counter appears in the summary once nonzero, in
#: declaration order.
_GATED_SUMMARY_KEYS = tuple(
    f.name for f in fields(MetricsCollector)
    if f.type in ("int", "float")
    and f.name not in _SUMMARY_REPORTED_ELSEWHERE
)
