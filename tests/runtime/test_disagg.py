"""Disaggregated pools: per-role mode pricing and the KV hand-off target.

A prefill-pool engine hands every request off after its prefill, so it
prices a merge against the prefill alone and runs its base policy's own
cost-gated choice; a decode-pool engine still never runs MERGED; and
one transfer pass spreads a burst of hand-offs over the decode pool by
projected KV occupancy.
"""

import pytest

from repro.core import SystemBuilder
from repro.runtime import (
    DisaggConfig,
    InferenceMode,
    MultiGPUServer,
    Request,
    reset_request_ids,
)
from repro.runtime.disagg import DECODE_POOL, PREFILL_POOL, apply_pool_role
from repro.runtime.scheduler import SchedulerDecision, SchedulingPolicy


@pytest.fixture
def builder():
    reset_request_ids()
    return SystemBuilder(num_adapters=2, max_batch_size=8)


def lone_tenant(n=4, input_tokens=256, output_tokens=64):
    return [Request(adapter_id="lora-0", arrival_time=0.001 * i,
                    input_tokens=input_tokens, output_tokens=output_tokens)
            for i in range(n)]


def unmerged_extra(engine, adapter_tokens):
    ranks = {a: engine.adapters.spec(a).rank for a in adapter_tokens}
    return engine.mode_exec.mean_extra_seconds(
        InferenceMode.UNMERGED, adapter_tokens, ranks)


class TestPrefillPoolPricing:
    def test_prefill_engine_prices_the_prefill_alone(self, builder):
        reqs = lone_tenant()
        prefill = unmerged_extra(
            builder.build("v-lora"),
            {"lora-0": sum(r.input_tokens for r in reqs)})
        decode_round = unmerged_extra(builder.build("v-lora"),
                                      {"lora-0": len(reqs)})
        rounds = max(r.output_tokens for r in reqs) - 1

        colocated = builder.build("v-lora")
        assert (colocated._unmerged_extra_seconds("lora-0", reqs)
                == prefill + rounds * decode_round)

        engine = builder.build("v-lora")
        apply_pool_role(engine, PREFILL_POOL)
        assert engine._unmerged_extra_seconds("lora-0", reqs) == prefill

    def test_cheap_lone_tenant_prefill_runs_unmerged(self, builder):
        engine = builder.build("v-lora")
        apply_pool_role(engine, PREFILL_POOL)
        reqs = lone_tenant()
        # The decode rounds would pay for the merge; the prefill does not.
        engine.handoff_after_prefill = False
        assert (engine._unmerged_extra_seconds("lora-0", reqs)
                > engine._estimate_switch())
        engine.handoff_after_prefill = True
        assert (engine._unmerged_extra_seconds("lora-0", reqs)
                < engine._estimate_switch())

        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_mode_switches == 0
        assert set(metrics.mode_iterations) == {"unmerged"}
        assert engine.current_mode is InferenceMode.UNMERGED
        assert sorted(r.request_id for r in engine.handoff_outbox) == sorted(
            r.request_id for r in reqs)


class _AlwaysMerged(SchedulingPolicy):
    name = "always-merged"

    def schedule(self, candidates, ctx):
        return SchedulerDecision(batch=list(candidates),
                                 mode=InferenceMode.MERGED,
                                 merged_adapter=candidates[0].adapter_id)


def test_decode_pool_rewrites_merged_to_unmerged(builder):
    engine = builder.build("v-lora")
    engine.policy = _AlwaysMerged()
    apply_pool_role(engine, DECODE_POOL)
    reqs = lone_tenant(n=2)
    decision = engine.policy.schedule(reqs, ctx=None)
    assert decision.mode is InferenceMode.UNMERGED
    assert decision.merged_adapter is None
    assert decision.batch == reqs


def test_one_transfer_pass_spreads_a_burst_over_the_decode_pool(builder):
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 3,
        disagg=DisaggConfig(prefill_replicas=1, decode_replicas=2))
    prefill, busy, idle = server.engines
    # The busy replica holds a few blocks; one hand-off weighs more.
    busy.kv.allocate(-1, 4 * busy.kv.block_size)

    reqs = [Request(adapter_id=f"lora-{i % 2}", arrival_time=0.0,
                    input_tokens=256, output_tokens=8) for i in range(8)]
    prefill.submit(reqs)
    prefill.run()
    assert len(prefill.handoff_outbox) == len(reqs)

    server._transfer_pass(prefill.clock.now)
    assert not prefill.handoff_outbox
    got = {e.engine_id: len(e.pending_requests) for e in (busy, idle)}
    assert sum(got.values()) == len(reqs)
    assert min(got.values()) >= len(reqs) // 2 - 1, got
    assert busy.projected_kv_blocks() == (
        4 + sum(busy.kv.blocks_for(r.context_len)
                for r in busy.pending_requests))
