"""Property-based tests over the scheduling policies.

For arbitrary live-request sets and contexts, every policy's decision
must satisfy structural invariants: batch bounded by MaxBS, merged-mode
purity, starving requests never left behind when capacity allows, and
batch membership drawn from the candidates.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    DLoRAPolicy,
    InferenceMode,
    MergedOnlyPolicy,
    Request,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.scheduler import SchedulingContext

pytestmark = pytest.mark.property

ADAPTERS = ["a", "b", "c", "d"]


@st.composite
def request_sets(draw):
    n = draw(st.integers(1, 24))
    now = draw(st.floats(1.0, 50.0))
    reqs = []
    for _ in range(n):
        arrival = draw(st.floats(0.0, now))
        reqs.append(Request(
            adapter_id=draw(st.sampled_from(ADAPTERS)),
            arrival_time=arrival,
            input_tokens=draw(st.integers(1, 512)),
            output_tokens=draw(st.integers(1, 64)),
        ))
    ctx = SchedulingContext(
        now=now,
        current_mode=draw(st.sampled_from(list(InferenceMode))),
        current_merged=draw(st.sampled_from([None, *ADAPTERS])),
        max_batch_size=draw(st.integers(1, 16)),
        est_iteration_seconds=draw(st.floats(0.001, 0.1)),
        est_switch_seconds=draw(st.floats(0.0, 0.05)),
        adapter_counts={},
    )
    return reqs, ctx


def engine_view(reqs, ctx):
    """What the engine hands a policy: the requests in FCFS order, with
    ``ctx.adapter_counts`` set to their per-adapter counts."""
    reqs = sorted(reqs, key=lambda r: (r.arrival_time, r.request_id))
    ctx.adapter_counts = dict(Counter(r.adapter_id for r in reqs))
    return reqs, ctx


POLICIES = [
    VLoRAPolicy(theta=0.5),
    UnmergedOnlyPolicy(),
    MergedOnlyPolicy(),
    DLoRAPolicy(),
]


@settings(max_examples=120, deadline=None)
@given(data=request_sets(), policy_idx=st.integers(0, len(POLICIES) - 1))
def test_decision_invariants(data, policy_idx):
    reqs, ctx = engine_view(*data)
    policy = POLICIES[policy_idx]
    decision = policy.schedule(reqs, ctx)
    assert decision is not None  # non-empty candidates always yield work
    # Batch bounded and drawn from candidates, no duplicates.
    assert 1 <= len(decision.batch) <= ctx.max_batch_size
    ids = [r.request_id for r in decision.batch]
    assert len(set(ids)) == len(ids)
    candidate_ids = {r.request_id for r in reqs}
    assert set(ids) <= candidate_ids
    # Mode/adapter consistency (also enforced by SchedulerDecision, but
    # assert the semantic bits beyond construction).
    if decision.mode is InferenceMode.MERGED:
        assert decision.merged_adapter is not None
        assert all(r.adapter_id == decision.merged_adapter
                   for r in decision.batch)
    if decision.mode is InferenceMode.MIXTURE:
        assert decision.merged_adapter is not None


@settings(max_examples=80, deadline=None)
@given(data=request_sets())
def test_vlora_starving_first(data):
    """Every starving request fits in the batch before any fresh one,
    up to capacity."""
    reqs, ctx = engine_view(*data)
    policy = VLoRAPolicy(theta=0.5)
    decision = policy.schedule(reqs, ctx)
    policy.refresh_credits(reqs, ctx)
    starving = [r for r in reqs if r.credit > policy.theta]
    batch_ids = {r.request_id for r in decision.batch}
    if decision.mode is InferenceMode.UNMERGED:
        expected = min(len(starving), ctx.max_batch_size)
        included = sum(1 for r in starving if r.request_id in batch_ids)
        assert included == expected


@settings(max_examples=80, deadline=None)
@given(data=request_sets())
def test_vlora_single_tenant_goes_merged(data):
    """When all requests want one adapter and nothing starves, the
    policy serves merged (principle 1)."""
    reqs, ctx = data
    for r in reqs:
        r.adapter_id = "a"
        r.arrival_time = ctx.now  # fresh: zero waiting time
    reqs, ctx = engine_view(reqs, ctx)  # counts of the rewritten ids
    policy = VLoRAPolicy(theta=10.0 + ctx.est_iteration_seconds
                         + ctx.est_switch_seconds)
    decision = policy.schedule(reqs, ctx)
    assert decision.mode is InferenceMode.MERGED
    assert decision.merged_adapter == "a"


@settings(max_examples=80, deadline=None)
@given(data=request_sets())
def test_deterministic_decisions(data):
    """Same inputs, same decision (no hidden randomness)."""
    reqs, ctx = engine_view(*data)
    a = VLoRAPolicy(theta=0.5).schedule(reqs, ctx)
    b = VLoRAPolicy(theta=0.5).schedule(reqs, ctx)
    assert a.mode == b.mode
    assert a.merged_adapter == b.merged_adapter
    assert [r.request_id for r in a.batch] == [r.request_id for r in b.batch]
