"""The composed phase-executor engine is the old monolithic loop, bit for bit.

The engine's iteration loop was refactored from one monolithic body
into :class:`PrefillExecutor` / :class:`DecodeExecutor` behind the
:class:`PhaseExecutor` protocol (and the disaggregated runtime builds
on that seam).  The contract is *bit-identity*: every float evaluated
in the same order, every rng draw at the same point, so the composed
engine reproduces the pre-refactor engine exactly.

``MonolithicEngine`` below carries the pre-refactor ``_execute_uncached``
/ ``_finalize`` bodies **verbatim** (recovered from git history) and
prices every iteration through that uncached body, cache on or off; a
hypothesis property drives both engines over arbitrary bounded
workloads — systems x seeds x fault menus x cache on/off — and compares
full digests.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import FaultInjector, reset_request_ids
from repro.runtime.engine import ServingEngine
from repro.runtime.failure_detection import Completion
from repro.runtime.metrics import RequestRecord
from repro.runtime.modes import InferenceMode
from repro.runtime.request import Request, RequestStatus
from repro.workloads import RetrievalWorkload

from typing import Dict, List, Optional, Sequence


class MonolithicEngine(ServingEngine):
    """The pre-refactor engine: one body per concern, no executors.

    ``_execute_uncached`` and ``_finalize`` below are copied verbatim
    from the last monolithic revision of ``repro/runtime/engine.py``;
    do not "clean them up" — their value is being the historical
    reference.
    """

    def _execute_cached(self, batch: Sequence[Request],
                        mode: InferenceMode,
                        merged: Optional[str]) -> float:
        # The historical memo table this body used to fill is gone;
        # with the cache on, the composed engine's memoized path is
        # compared against the historical cost tower below.
        return self._execute_uncached(batch, mode, merged)

    def _execute_uncached(self, batch: Sequence[Request],
                          mode: InferenceMode,
                          merged: Optional[str]) -> float:
        prefills = [r for r in batch if not r.prefilled]
        decodes = [r for r in batch if r.prefilled]
        t = 0.0
        adapter_tokens: Dict[str, int] = {}

        if prefills:
            effective = [
                max(r.context_len - self._reused_tokens.get(r.request_id, 0), 1)
                for r in prefills
            ]
            num_images = sum(r.num_images for r in prefills)
            if self.config.batch_prefills:
                t += self.iter_costs.prefill_seconds(effective, num_images)
            else:
                # Per-request prefill: each pays its own iteration.
                for r, tok in zip(prefills, effective):
                    t += self.iter_costs.prefill_seconds([tok], r.num_images)
            for r, tok in zip(prefills, effective):
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + tok
                )

        if decodes:
            contexts = [r.context_len for r in decodes]
            lm = any(not r.use_task_head for r in decodes)
            head_classes = max(
                (self.adapters.spec(r.adapter_id).task_head_classes or 101
                 for r in decodes if r.use_task_head),
                default=0,
            )
            t += self.iter_costs.decode_seconds(
                contexts, lm_head=lm, task_head_classes=head_classes
            )
            for r in decodes:
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + 1
                )

        if adapter_tokens:
            ranks = {
                a: self.adapters.spec(a).rank for a in adapter_tokens
            }
            if merged is not None:
                ranks.setdefault(merged, self.adapters.spec(merged).rank)
            extra = self.mode_exec.extra_seconds(
                mode, adapter_tokens, ranks,
                merged_adapter=merged,
                rng=self._rng,
            )
            t += extra
            self.metrics.lora_extra_time_total += extra
        return t

    def _finalize(self, batch: Sequence[Request]) -> None:
        now = self.clock.now
        cap = self._brownout.decode_cap if self._brownout is not None else None
        finished: List[Request] = []
        for r in batch:
            if not r.prefilled:
                r.prefilled = True
                r.status = RequestStatus.RUNNING
            self.kv.append_token(r.request_id)
            r.generated += 1
            if r.first_token_time is None:
                r.first_token_time = now
            if r.is_finished or (cap is not None and r.generated >= cap):
                if not r.is_finished:
                    self.metrics.brownout_truncations += 1
                r.finish_time = now
                r.status = RequestStatus.FINISHED
                finished.append(r)
        for r in finished:
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            if self._fencing:
                self.completion_outbox.append(Completion(
                    request=r, token=r.lease, kind="finish",
                    record=RequestRecord.from_request(r), time=now,
                ))
            else:
                self.metrics.complete(r)


FAULT_MENUS = (
    None,
    dict(swap_fail_rate=0.6, swap_slow_rate=0.4),
    dict(kv_pressure_rate=0.5, engine_slow_rate=0.4),
    dict(swap_fail_rate=0.5, swap_slow_rate=0.4,
         kv_pressure_rate=0.4, engine_slow_rate=0.3),
)


def _digest(metrics):
    """Comparable form of a run, without the two cost-cache counters.

    The monolithic engine prices every iteration through the uncached
    cost tower, so it never counts a memo hit or miss; with the cache on
    the composed engine does.  Every cost, record and abort must still
    agree bit for bit.
    """
    summary = dict(metrics.summary())
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    records = sorted(
        (dataclasses.astuple(r) for r in metrics.records),
        key=lambda t: t[0],
    )
    aborts = sorted(
        (dataclasses.astuple(a) for a in metrics.aborts),
        key=lambda t: t[0],
    )
    return summary, records, aborts


def _run(system, engine_cls, *, seed, rate, task_heads, cache, fault_menu):
    injector = None
    if fault_menu is not None:
        injector = FaultInjector.random(
            horizon_s=30.0,
            seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(4)],
            engine_ids=("engine-0",),
            **fault_menu,
        )
    builder = SystemBuilder(
        num_adapters=4, gpu_adapter_slots=2, max_batch_size=8,
        fault_injector=injector, enable_cost_cache=cache,
        deadline_slo_factor=4.0,
    )
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=rate, duration_s=10.0, seed=seed,
        use_task_heads=task_heads, slo_s=2.0,
    ).generate()
    engine = builder.build(system, engine_cls=engine_cls)
    engine.submit(requests)
    return _digest(engine.run())


@pytest.mark.property
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    system=st.sampled_from(["v-lora", "s-lora", "punica", "dlora",
                            "merge-only", "unmerge-only"]),
    rate=st.sampled_from([4.0, 10.0, 16.0]),
    task_heads=st.booleans(),
    cache=st.booleans(),
    fault_menu=st.sampled_from(FAULT_MENUS),
)
def test_composed_equals_monolithic(seed, system, rate, task_heads,
                                    cache, fault_menu):
    kw = dict(seed=seed, rate=rate, task_heads=task_heads, cache=cache,
              fault_menu=fault_menu)
    composed = _run(system, None, **kw)
    monolithic = _run(system, MonolithicEngine, **kw)
    assert composed == monolithic


def test_executors_compose_the_engine():
    """The seam the disaggregated runtime relies on actually exists."""
    engine = SystemBuilder(num_adapters=2).build("v-lora")
    prefill, decode = engine.phase_executors
    assert prefill.phase == "prefill"
    assert decode.phase == "decode"
    assert prefill is engine.prefill_exec
    assert decode is engine.decode_exec
