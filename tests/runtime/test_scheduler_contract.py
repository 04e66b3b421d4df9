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

``SchedulingPolicy.repeats`` is the other half of the contract: while
its answer says the decision stands -- for good when True, or wherever
its horizon returns True for the clock and the iteration estimate --
``schedule`` keeps returning the same decision while the candidates
only decode, so the engine may repeat the batch without asking again.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import (
    DLoRAPolicy,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    InferenceMode,
    MergedOnlyPolicy,
    MultiGPUServer,
    Request,
    RequestStatus,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.disagg import PhasePinnedPolicy
from repro.runtime.scheduler import SchedulingContext, SchedulingPolicy
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


# -- repeats(): a steady decision stands while only decodes advance ---------

#: Prices the lone-tenant merge test the way a real engine does.
PRICING = SystemBuilder(num_adapters=4).build("v-lora")


#: Iteration estimates either side of where a starving request stops
#: starving under the default theta (0.5 s).
ITERATION_ESTIMATES = st.sampled_from([1e-4, 1e-3, 0.03, 0.2, 0.45, 1.0])


@st.composite
def decoding_queues(draw):
    """FCFS-ordered decoding requests (none finished), a context, and
    how their decodes advance between later ``schedule`` calls."""
    now = draw(st.floats(0.0, 5.0))
    reqs = []
    for i in range(draw(st.integers(1, 12))):
        output = draw(st.integers(2, 64))
        age = draw(st.floats(0.0, 1.0))
        r = Request(adapter_id=draw(st.sampled_from(ADAPTER_IDS[:2])),
                    arrival_time=max(0.0, now - age),
                    input_tokens=draw(st.integers(1, 256)),
                    output_tokens=output, request_id=i)
        r.prefilled = True
        r.status = RequestStatus.RUNNING
        r.generated = draw(st.integers(1, output - 1))
        reqs.append(r)
    reqs.sort(key=_fcfs_key)
    mode, merged = draw(st.sampled_from([
        (InferenceMode.UNMERGED, None),
        (InferenceMode.MERGED, "lora-0"),
        (InferenceMode.MIXTURE, "lora-1"),
    ]))
    ctx = dict(now=now, current_mode=mode, current_merged=merged,
               max_batch_size=draw(st.sampled_from([2, 4, 8, 16])),
               est_iteration_seconds=draw(ITERATION_ESTIMATES),
               est_switch_seconds=PRICING._estimate_switch()
               * draw(st.sampled_from([0.5, 1.0, 4.0, 16.0])))
    later = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.01, 0.3, 5.0]),
                  ITERATION_ESTIMATES,
                  st.lists(st.sampled_from([0, 1, 2, 16]), min_size=len(reqs),
                           max_size=len(reqs))),
        min_size=1, max_size=3))
    return reqs, ctx, later


def _context(reqs, **fields):
    return SchedulingContext(
        adapter_counts=Counter(r.adapter_id for r in reqs),
        unmerged_extra_seconds=PRICING._unmerged_extra_seconds,
        **fields)


def _decision_key(decision):
    return ([r.request_id for r in decision.batch], decision.mode,
            decision.merged_adapter)


@pytest.mark.property
@settings(max_examples=500, deadline=None)
@given(data=decoding_queues(),
       make=st.sampled_from([VLoRAPolicy, UnmergedOnlyPolicy,
                             lambda: PhasePinnedPolicy(VLoRAPolicy())]))
def test_repeated_decision_stands_while_decodes_advance(data, make):
    """Wherever ``repeats``' answer says the decision stands (always
    when True, else where its horizon returns True), a later
    ``schedule`` (any later clock, any positive iteration estimate,
    decodes advanced short of a finish, the engine now in the
    decision's mode) returns the same batch ids in the same order, mode
    and merged adapter."""
    reqs, fields, later = data
    policy = make()
    ctx = _context(reqs, **fields)
    decision = policy.schedule(reqs, ctx)
    horizon = policy.repeats(decision, reqs, ctx)
    if not horizon:
        return
    expected = _decision_key(decision)
    now = fields["now"]
    for wait, est_iteration, steps in later:
        for r, step in zip(reqs, steps):
            r.generated = min(r.generated + step, r.output_tokens - 1)
        now += wait
        if horizon is not True and not horizon(now, est_iteration):
            continue
        ctx = _context(reqs, **dict(
            fields, now=now, est_iteration_seconds=est_iteration,
            current_mode=decision.mode,
            current_merged=decision.merged_adapter))
        assert _decision_key(policy.schedule(reqs, ctx)) == expected


@pytest.mark.property
@settings(max_examples=60, deadline=None)
@given(data=decoding_queues(),
       make=st.sampled_from([
           DLoRAPolicy, MergedOnlyPolicy,
           lambda: ContractRecorder(SystemBuilder(num_adapters=4)
                                    .build("s-lora")),
       ]))
def test_time_dependent_and_wrapping_policies_never_repeat(data, make):
    """dLoRA's starvation test reads the clock, merged-only re-picks
    its adapter, and a wrapper cannot vouch for what it wraps."""
    reqs, fields, _ = data
    policy = make()
    ctx = _context(reqs, **fields)
    assert not policy.repeats(policy.schedule(reqs, ctx), reqs, ctx)


def _decoding(adapter_id, arrival_time, request_id):
    r = Request(adapter_id=adapter_id, arrival_time=arrival_time,
                input_tokens=16, output_tokens=60, request_id=request_id)
    r.prefilled = True
    r.status = RequestStatus.RUNNING
    r.generated = 1
    return r


def test_starving_lone_tenant_repeats_only_while_it_starves():
    """A lone tenant that starves now runs unmerged.  A shorter
    iteration estimate later ends its starvation, and the lone-tenant
    merge test then merges it, so the horizon of the unmerged decision
    must refuse that estimate while its unmerged price exceeds the
    merge."""
    r = _decoding("lora-0", 4.7, 0)
    fields = dict(now=5.0, current_mode=InferenceMode.UNMERGED,
                  current_merged=None, max_batch_size=8,
                  est_iteration_seconds=0.45,
                  est_switch_seconds=PRICING._estimate_switch())
    policy = VLoRAPolicy()
    ctx = _context([r], **fields)
    decision = policy.schedule([r], ctx)
    assert decision.mode is InferenceMode.UNMERGED
    shorter = _context([r], **dict(fields, est_iteration_seconds=1e-4))
    assert policy.schedule([r], shorter).mode is InferenceMode.MERGED
    horizon = policy.repeats(decision, [r], ctx)
    assert callable(horizon)
    assert horizon(5.0, 0.45) and horizon(6.0, 1e-4)
    assert not horizon(5.0, 1e-4)


def _horizon_closes_at_first_change(reqs, fields, expected_mode):
    """Walk the clock past the head request's starvation: the horizon
    must stand at exactly the later calls that repeat the decision, up
    to and including the first call whose decision differs."""
    policy = VLoRAPolicy()
    ctx = _context(reqs, **fields)
    decision = policy.schedule(reqs, ctx)
    assert decision.mode is expected_mode
    horizon = policy.repeats(decision, reqs, ctx)
    assert callable(horizon)
    expected = _decision_key(decision)
    est = fields["est_iteration_seconds"]
    stood = 0
    for step in range(1, 100):
        now = fields["now"] + 0.01 * step
        later = _context(reqs, **dict(
            fields, now=now, current_mode=decision.mode,
            current_merged=decision.merged_adapter))
        same = _decision_key(policy.schedule(reqs, later)) == expected
        assert horizon(now, est) == same
        if not same:
            break
        stood += 1
    else:
        pytest.fail("the decision never changed")
    assert stood > 0


def test_mixture_horizon_closes_when_its_foreigner_starts_to_starve():
    """A hot adapter's five requests plus one older foreigner run
    MIXTURE with the foreigner last.  Once it starves it leads the
    batch, so the decision changes exactly when the prefix grows."""
    reqs = [_decoding("lora-1", 0.0, 0)]
    reqs += [_decoding("lora-0", 0.1 + 0.01 * i, 1 + i) for i in range(5)]
    fields = dict(now=0.2, current_mode=InferenceMode.UNMERGED,
                  current_merged=None, max_batch_size=8,
                  est_iteration_seconds=0.03, est_switch_seconds=0.05)
    _horizon_closes_at_first_change(reqs, fields, InferenceMode.MIXTURE)


def test_merged_horizon_closes_when_the_head_starts_to_starve():
    """A merged lone tenant stays MERGED until its head request starves;
    the starving prefix then turns the batch into MIXTURE."""
    reqs = [_decoding("lora-0", 0.1 * i, i) for i in range(3)]
    fields = dict(now=0.2, current_mode=InferenceMode.MERGED,
                  current_merged="lora-0", max_batch_size=8,
                  est_iteration_seconds=0.03, est_switch_seconds=0.05)
    _horizon_closes_at_first_change(reqs, fields, InferenceMode.MERGED)
