"""The engine's contract with every scheduling policy.

``ServingEngine.step`` hands the policy its candidates in FCFS order,
``(arrival_time, request_id)`` ascending, together with
``ctx.adapter_counts`` equal to their per-adapter counts (see
``SchedulingContext``).  The policies have one code path that relies on
both, so the contract must hold in the two cases where the engine's
active set is not that view already:

* a failover requeue admits a request older than ones already admitted,
  so admission order stops being FCFS order;
* swap backoff filters requests out of the candidate set, so the live
  per-adapter counts over-count it.
"""

from __future__ import annotations

from collections import Counter

from repro.core import SystemBuilder
from repro.runtime import (
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
    Request,
    RequestStatus,
)
from repro.runtime.scheduler import SchedulingPolicy
from repro.workloads import RetrievalWorkload

ADAPTER_IDS = [f"lora-{i}" for i in range(4)]


def _fcfs_key(r):
    return (r.arrival_time, r.request_id)


class ContractRecorder(SchedulingPolicy):
    """Wraps an engine's policy and checks every ``schedule`` call."""

    def __init__(self, engine):
        self.base = engine.policy
        self.engine = engine
        self.name = self.base.name
        #: Calls made while the engine's active set was not FCFS-ordered.
        self.unordered = 0
        #: Calls whose candidates were a strict subset of the active set.
        self.filtered = 0
        engine.policy = self

    def schedule(self, candidates, ctx):
        keys = [_fcfs_key(r) for r in candidates]
        assert keys == sorted(keys), "candidates not in FCFS order"
        assert ctx.adapter_counts == Counter(
            r.adapter_id for r in candidates
        ), "adapter_counts do not match the candidates"
        active = [_fcfs_key(r) for r in self.engine._active.values()]
        self.unordered += active != sorted(active)
        self.filtered += len(candidates) < len(active)
        return self.base.schedule(candidates, ctx)

    def refresh_credits(self, requests, ctx):
        self.base.refresh_credits(requests, ctx)


def test_contract_holds_after_failover_requeues():
    injector = FaultInjector([
        FaultSpec(FaultKind.ENGINE_FAIL, 1.0, target="gpu-0"),
    ])
    builder = SystemBuilder(num_adapters=4, max_batch_size=8,
                            fault_injector=injector)
    recorders = []

    def factory():
        engine = builder.build("v-lora")
        recorders.append(ContractRecorder(engine))
        return engine

    # The detector-driven loop runs replicas epoch by epoch, so orphans
    # stamped with the dead engine's clock reach a survivor that has
    # already admitted younger requests.
    server = MultiGPUServer.replicate(
        factory, 2, detector=FailureDetector(FailureDetectorConfig()),
    )
    reqs = RetrievalWorkload(
        adapter_ids=ADAPTER_IDS, rate_rps=20.0, duration_s=3.0,
        use_task_heads=False, seed=0,
    ).generate()
    server.submit(reqs)
    metrics = server.run()
    assert metrics.failover_events > 0
    assert all(r.is_terminal for r in reqs)
    # The requeues really left the survivor's active set out of order.
    assert sum(rec.unordered for rec in recorders) > 0


def test_contract_holds_while_swap_backoff_filters():
    # Two slots for four adapters: the swaps of the two non-resident
    # ones fail for the first second and back off.
    injector = FaultInjector([
        FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, 1.0),
    ])
    builder = SystemBuilder(num_adapters=4, gpu_adapter_slots=2,
                            max_batch_size=8, fault_injector=injector)
    engine = builder.build("v-lora")
    recorder = ContractRecorder(engine)
    reqs = [
        Request(adapter_id=ADAPTER_IDS[i % 4], arrival_time=0.0,
                input_tokens=64, output_tokens=64)
        for i in range(24)
    ]
    engine.submit(reqs)
    metrics = engine.run()
    assert metrics.swap_retries > 0
    assert all(r.status is RequestStatus.FINISHED for r in reqs)
    # Backoff really dropped requests from some candidate sets.
    assert recorder.filtered > 0
