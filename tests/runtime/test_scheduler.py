"""Tests for Algorithm 1 and the baseline scheduling policies.

Policies are fed what the engine hands them: candidates in FCFS order
with their per-adapter counts (see ``SchedulingContext``).
"""

from collections import Counter

import pytest

from repro.runtime import (
    DLoRAPolicy,
    InferenceMode,
    MergedOnlyPolicy,
    Request,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.scheduler import SchedulerDecision, SchedulingContext

M = InferenceMode


def make_requests(adapters, arrival=0.0):
    return [
        Request(adapter_id=a, arrival_time=arrival, input_tokens=64,
                output_tokens=8)
        for a in adapters
    ]


def ctx(now=0.0, mode=M.UNMERGED, merged=None, max_bs=8,
        iter_s=0.02, switch_s=0.005):
    return SchedulingContext(
        now=now, current_mode=mode, current_merged=merged,
        max_batch_size=max_bs, est_iteration_seconds=iter_s,
        est_switch_seconds=switch_s, adapter_counts={},
    )


def schedule(policy, reqs, context):
    """Run ``policy`` on ``reqs`` as the engine would: FCFS-ordered,
    with ``context.adapter_counts`` set to their per-adapter counts."""
    candidates = sorted(reqs, key=lambda r: (r.arrival_time, r.request_id))
    context.adapter_counts = dict(Counter(r.adapter_id for r in candidates))
    return policy.schedule(candidates, context)


class TestDecisionValidation:
    def test_needs_batch(self):
        with pytest.raises(ValueError):
            SchedulerDecision(batch=[], mode=M.UNMERGED)

    def test_merged_needs_adapter(self):
        reqs = make_requests(["a"])
        with pytest.raises(ValueError):
            SchedulerDecision(batch=reqs, mode=M.MERGED)

    def test_merged_rejects_foreign(self):
        reqs = make_requests(["a", "b"])
        with pytest.raises(ValueError, match="foreign"):
            SchedulerDecision(batch=reqs, mode=M.MERGED, merged_adapter="a")


class TestVLoRAPolicy:
    def test_empty_returns_none(self):
        assert schedule(VLoRAPolicy(), [], ctx()) is None

    def test_merge_when_majority_and_no_starvation(self):
        """Alg. 1 lines 6-8."""
        reqs = make_requests(["a"] * 6 + ["b"] * 2)
        decision = schedule(VLoRAPolicy(theta=10.0), reqs, ctx())
        assert decision.mode is M.MERGED
        assert decision.merged_adapter == "a"
        assert all(r.adapter_id == "a" for r in decision.batch)

    def test_mixture_when_minority_starves(self):
        """Alg. 1 lines 9-12: starving minority rides the deLoRA branch."""
        reqs = make_requests(["a"] * 6)
        starving = make_requests(["b"], arrival=0.0)
        now = 5.0
        for r in reqs:
            r.arrival_time = now  # fresh
        decision = schedule(VLoRAPolicy(theta=1.0), reqs + starving,
                            ctx(now=now))
        assert decision.mode is M.MIXTURE
        assert decision.merged_adapter == "a"
        assert starving[0] in decision.batch

    def test_unmerge_when_starvation_widespread(self):
        """Alg. 1 lines 13-15."""
        reqs = make_requests(["a", "b", "c", "d", "e", "f"], arrival=0.0)
        decision = schedule(VLoRAPolicy(theta=1.0), reqs, ctx(now=10.0))
        assert decision.mode is M.UNMERGED

    def test_unmerge_when_no_majority(self):
        reqs = make_requests(["a", "b", "c", "d"])
        decision = schedule(VLoRAPolicy(theta=10.0), reqs, ctx())
        assert decision.mode is M.UNMERGED

    def test_starving_requests_scheduled_first(self):
        old = make_requests(["b"], arrival=0.0)
        fresh = make_requests(["a"] * 10, arrival=9.9)
        decision = schedule(
            VLoRAPolicy(theta=1.0), fresh + old, ctx(now=10.0, max_bs=4)
        )
        assert old[0] in decision.batch

    def test_credit_includes_exec_and_switch(self):
        reqs = make_requests(["a"], arrival=0.0)
        policy = VLoRAPolicy(theta=99.0)
        context = ctx(now=1.0, iter_s=0.5, switch_s=0.25)
        schedule(policy, reqs, context)
        policy.refresh_credits(reqs, context)
        assert reqs[0].credit == pytest.approx(1.0 + 0.5 + 0.25)

    def test_batch_respects_max_bs(self):
        reqs = make_requests(["a"] * 20)
        decision = schedule(VLoRAPolicy(theta=10.0), reqs, ctx(max_bs=8))
        assert len(decision.batch) == 8

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            VLoRAPolicy(theta=0.0)


class TestUnmergedOnly:
    def test_fcfs_order(self):
        late = make_requests(["a"], arrival=5.0)
        early = make_requests(["b"], arrival=1.0)
        decision = schedule(UnmergedOnlyPolicy(), late + early,
                            ctx(now=6.0))
        assert decision.mode is M.UNMERGED
        assert decision.batch[0] is early[0]

    def test_empty(self):
        assert schedule(UnmergedOnlyPolicy(), [], ctx()) is None


class TestMergedOnly:
    def test_sticks_with_current_adapter(self):
        reqs = make_requests(["a", "b", "b"])
        decision = schedule(MergedOnlyPolicy(), reqs, ctx(merged="a"))
        assert decision.merged_adapter == "a"

    def test_moves_to_oldest_waiting_adapter(self):
        a = make_requests(["a"], arrival=3.0)
        b = make_requests(["b"], arrival=1.0)
        decision = schedule(MergedOnlyPolicy(), a + b,
                            ctx(merged="zz", now=5.0))
        assert decision.merged_adapter == "b"
        assert decision.mode is M.MERGED


class TestDLoRAPolicy:
    def test_merges_dominant_adapter(self):
        reqs = make_requests(["a"] * 7 + ["b"], arrival=0.0)
        decision = schedule(DLoRAPolicy(), reqs, ctx(now=0.1))
        assert decision.mode is M.MERGED
        assert decision.merged_adapter == "a"

    def test_unmerges_when_balanced(self):
        reqs = make_requests(["a", "b", "a", "b"])
        decision = schedule(DLoRAPolicy(), reqs, ctx())
        assert decision.mode is M.UNMERGED

    def test_starvation_forces_unmerge(self):
        reqs = make_requests(["a"] * 7, arrival=10.0)
        starved = make_requests(["b"], arrival=0.0)
        decision = schedule(
            DLoRAPolicy(starvation_s=1.0), reqs + starved, ctx(now=10.0)
        )
        assert decision.mode is M.UNMERGED

    def test_share_validation(self):
        with pytest.raises(ValueError):
            DLoRAPolicy(merge_share=1.0)
