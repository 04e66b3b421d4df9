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
        unmerged_extra_seconds=PricingStub(draw(st.floats(0.0, 0.1))),
    )
    return reqs, ctx


class PricingStub:
    """``unmerged_extra_seconds`` returning a fixed price; records calls."""

    def __init__(self, price):
        self.price = price
        self.calls = []

    def __call__(self, adapter_id, requests):
        self.calls.append((adapter_id, list(requests)))
        return self.price


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


@settings(max_examples=120, deadline=None)
@given(data=request_sets())
def test_vlora_merges_only_when_paid_for(data):
    """With at most half a batch starving, V-LoRA merges the popular
    adapter when (a) it is already merged, (b) it holds more than half a
    batch, or (c) it is the only tenant, nothing starves, and its queued
    work prices above one merge; otherwise it runs unmerged.  Under (a)
    or (b) the batch runs mixture when anything starves or a foreigner
    fills a spare slot."""
    reqs, ctx = engine_view(*data)
    policy = VLoRAPolicy(theta=0.5)
    decision = policy.schedule(reqs, ctx)
    policy.refresh_credits(reqs, ctx)
    num_starve = sum(1 for r in reqs if r.credit > policy.theta)
    counts = ctx.adapter_counts
    top = min(counts, key=lambda a: (-counts[a], a))
    max_bs = ctx.max_batch_size
    already = (ctx.current_merged == top
               and ctx.current_mode in (InferenceMode.MERGED,
                                        InferenceMode.MIXTURE))  # (a)
    majority = counts[top] / max_bs > 0.5  # (b)
    stub = ctx.unmerged_extra_seconds
    lone = not num_starve and counts[top] == len(reqs)
    worth_it = lone and stub.price > ctx.est_switch_seconds  # (c)
    if num_starve / max_bs > 0.5:
        expected = InferenceMode.UNMERGED
    elif already or majority:
        rest = reqs[num_starve:]
        num_rest_top = sum(1 for r in rest if r.adapter_id == top)
        foreign_fits = (num_starve + num_rest_top < max_bs
                        and num_rest_top < len(rest))
        expected = (InferenceMode.MIXTURE if num_starve or foreign_fits
                    else InferenceMode.MERGED)
    elif worth_it:
        expected = InferenceMode.MERGED
    else:
        expected = InferenceMode.UNMERGED
    assert decision.mode is expected
    if expected is not InferenceMode.UNMERGED:
        assert decision.merged_adapter == top
    # Clause (c) is the only one that prices, and it prices exactly the
    # batch it would merge.
    for adapter_id, priced in stub.calls:
        assert lone and not (already or majority)
        assert adapter_id == top
        assert priced == reqs[:max_bs]


@settings(max_examples=120, deadline=None)
@given(data=request_sets(),
       mode=st.sampled_from([InferenceMode.MERGED, InferenceMode.MIXTURE]),
       pick=st.data())
def test_vlora_paid_merge_fills_spare_slots(data, mode, pick):
    """With at most half a batch starving and the merge paid for, the
    batch holds ``min(max_bs, n)`` requests: the starving prefix, then
    the popular adapter's requests, then the foreigners, each in FCFS
    order."""
    reqs, ctx = data
    # Only the first ``old`` requests may starve; the rest arrive now,
    # and their credit (at most 0.15 s) stays under theta.
    old = pick.draw(st.integers(0, ctx.max_batch_size // 2))
    for r in reqs[old:]:
        r.arrival_time = ctx.now
    reqs, ctx = engine_view(reqs, ctx)
    counts = ctx.adapter_counts
    top = min(counts, key=lambda a: (-counts[a], a))
    ctx.current_mode, ctx.current_merged = mode, top  # clause (a)
    policy = VLoRAPolicy(theta=0.5)
    decision = policy.schedule(reqs, ctx)
    policy.refresh_credits(reqs, ctx)
    num_starve = sum(1 for r in reqs if r.credit > policy.theta)
    max_bs = ctx.max_batch_size
    rest = reqs[num_starve:]
    expected = (reqs[:num_starve]
                + [r for r in rest if r.adapter_id == top]
                + [r for r in rest if r.adapter_id != top])[:max_bs]
    assert len(decision.batch) == min(max_bs, len(reqs))
    assert ([r.request_id for r in decision.batch]
            == [r.request_id for r in expected])
    assert decision.merged_adapter == top
    pure = not num_starve and all(r.adapter_id == top for r in expected)
    assert decision.mode is (InferenceMode.MERGED if pure
                             else InferenceMode.MIXTURE)


@settings(max_examples=80, deadline=None)
@given(data=request_sets(), price=st.floats(0.0, 0.1))
def test_vlora_single_tenant_merges_when_merge_pays(data, price):
    """A lone, non-starving tenant with no merge already paid for goes
    merged exactly when its unmerged extra exceeds the switch cost."""
    reqs, ctx = data
    for r in reqs:
        r.adapter_id = "a"
        r.arrival_time = ctx.now  # fresh: zero waiting time
    reqs, ctx = engine_view(reqs, ctx)  # counts of the rewritten ids
    ctx.current_mode = InferenceMode.UNMERGED
    ctx.current_merged = None
    ctx.max_batch_size = max(ctx.max_batch_size, 2 * len(reqs))  # not (b)
    ctx.unmerged_extra_seconds = PricingStub(price)
    policy = VLoRAPolicy(theta=10.0 + ctx.est_iteration_seconds
                         + ctx.est_switch_seconds)
    decision = policy.schedule(reqs, ctx)
    if price > ctx.est_switch_seconds:
        assert decision.mode is InferenceMode.MERGED
        assert decision.merged_adapter == "a"
    else:
        assert decision.mode is InferenceMode.UNMERGED
    assert [r.request_id for r in decision.batch] == \
        [r.request_id for r in reqs]


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
