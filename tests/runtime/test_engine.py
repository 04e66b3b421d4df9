"""Integration tests for the serving engine and multi-GPU cluster."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import (
    InferenceMode,
    MultiGPUServer,
    Request,
    RequestStatus,
    reset_request_ids,
)
from repro.runtime.engine import PREFILL_TOKEN_BUDGET
from repro.runtime.scheduler import SchedulerDecision, SchedulingPolicy
from repro.workloads import RetrievalWorkload, VideoAnalyticsWorkload


@pytest.fixture(scope="module")
def builder():
    return SystemBuilder(num_adapters=4, max_batch_size=16)


def burst(adapters, n=6, input_tokens=128, output_tokens=4, arrival=0.0):
    return [
        Request(adapter_id=adapters[i % len(adapters)],
                arrival_time=arrival + 0.001 * i,
                input_tokens=input_tokens, output_tokens=output_tokens)
        for i in range(n)
    ]


class TestEngineBasics:
    def test_single_request_completes(self, builder):
        engine = builder.build("v-lora")
        req = Request(adapter_id="lora-0", arrival_time=0.0,
                      input_tokens=128, output_tokens=4)
        engine.submit([req])
        metrics = engine.run()
        assert metrics.num_completed == 1
        assert req.is_finished
        assert req.finish_time > req.arrival_time
        # 4 decode rounds at tens of ms each, plus prefill.
        assert 0.005 < req.latency() < 2.0

    def test_unknown_adapter_rejected_at_submit(self, builder):
        engine = builder.build("v-lora")
        with pytest.raises(KeyError):
            engine.submit([Request(adapter_id="nope", arrival_time=0.0,
                                   input_tokens=8, output_tokens=1)])

    def test_all_requests_complete(self, builder):
        engine = builder.build("v-lora")
        reqs = burst(builder.adapter_ids, n=20)
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_completed == 20
        assert all(r.is_finished for r in reqs)

    def test_clock_jumps_over_idle_gaps(self, builder):
        engine = builder.build("v-lora")
        engine.submit(burst(["lora-0"], n=1, arrival=100.0))
        engine.run()
        assert engine.clock.now >= 100.0

    def test_kv_released_after_completion(self, builder):
        engine = builder.build("v-lora")
        engine.submit(burst(builder.adapter_ids, n=10))
        engine.run()
        engine.kv.evict_stale_prefixes(float("inf"))
        assert engine.kv.free_blocks == engine.kv.num_blocks

    def test_run_until_stops_early(self, builder):
        engine = builder.build("v-lora")
        engine.submit(burst(["lora-0"], n=4, output_tokens=400))
        engine.run(until=0.5)
        assert engine.clock.now >= 0.5
        assert engine.num_live > 0

    def test_idle_run_until_stops_before_a_later_arrival(self, builder):
        """An idle engine stops once its next arrival is due at or after
        ``until``: it neither jumps its clock past ``until`` nor serves
        the arrival early.  A later run serves it on time."""
        engine = builder.build("v-lora")
        req = Request(adapter_id="lora-0", arrival_time=5.0,
                      input_tokens=128, output_tokens=4)
        engine.submit([req])
        engine.run(until=1.0)
        assert engine.clock.now < 1.0
        assert req.first_token_time is None
        engine.run(until=5.0)
        assert req.first_token_time is None
        engine.run()
        assert req.is_finished and req.first_token_time > 5.0

    def test_step_runs_one_iteration(self, builder):
        """``step()`` runs exactly one iteration, steady batch or not:
        only ``run()`` repeats a steady batch."""
        engine = builder.build("s-lora")
        engine.submit(burst(["lora-0", "lora-1"], n=4, output_tokens=40))
        engine.step()  # admits the burst and prefills it
        for _ in range(20):
            before = engine.metrics.iterations
            engine.step()
            assert engine.metrics.iterations == before + 1

    def test_max_iterations_bounds_decode_runs(self, builder):
        """``max_iterations`` bounds simulated iterations, not loop
        turns: a decode run stops at the budget the turns left it."""
        engine = builder.build("s-lora")
        engine.submit([
            Request(adapter_id="lora-0", arrival_time=0.0,
                    input_tokens=64, output_tokens=200)
            for _ in range(4)
        ])
        with pytest.raises(RuntimeError, match="exceeded 50 iterations"):
            engine.run(max_iterations=50)
        assert engine.metrics.iterations == 50

    def test_fcfs_latency_ordering_same_adapter(self, builder):
        engine = builder.build("s-lora")
        reqs = burst(["lora-0"], n=5)
        engine.submit(reqs)
        engine.run()
        finishes = [r.finish_time for r in reqs]
        assert finishes == sorted(finishes)


class TestModeBehaviour:
    def test_vlora_merges_under_skew(self, builder):
        engine = builder.build("v-lora")
        # One dominant adapter, deep queue -> Algorithm 1 goes merged.
        engine.submit(burst(["lora-0"], n=40, output_tokens=16))
        metrics = engine.run()
        assert metrics.mode_iterations.get(InferenceMode.MERGED.value, 0) > 0
        assert metrics.num_mode_switches >= 1

    def test_interleaved_camera_streams_rarely_switch(self):
        """Eight cameras, one adapter each, take turns in the queue.
        None holds half a batch, so V-LoRA runs them unmerged instead
        of re-merging whichever camera is alone (which switched on
        most iterations)."""
        cams = SystemBuilder(num_adapters=8)
        engine = cams.build("v-lora")
        engine.submit(VideoAnalyticsWorkload(
            cams.adapter_ids, num_streams=8, duration_s=20.0,
            detection_frames=4, chunk_period_s=40 / 12.0, seed=0,
        ).generate())
        metrics = engine.run()
        assert metrics.num_completed == 240
        assert metrics.num_mode_switches * 10 < metrics.iterations

    def test_light_single_adapter_lm_phase_goes_merged(self):
        """A lone LM-head application at 0.5 req/s never fills half a
        batch, yet its decodes cost more LoRA extra unmerged than one
        merge: the lone-tenant merge test still merges it."""
        engine = SystemBuilder(num_adapters=8).build("v-lora")
        engine.submit(RetrievalWorkload(
            ["lora-0"], rate_rps=0.5, duration_s=60.0,
            use_task_heads=False, seed=0,
        ).generate())
        metrics = engine.run()
        assert metrics.mode_iterations.get(InferenceMode.MERGED.value, 0) > 0
        assert InferenceMode.UNMERGED.value not in metrics.mode_iterations

    def test_foreign_request_rides_spare_merged_slots(self, builder):
        """Ten lora-0 decodes hold the merge with six of sixteen slots
        free; a lora-2 request arriving mid-decode rides one of them
        via deLoRA at once instead of waiting out theta."""
        engine = builder.build("v-lora")
        busy = [Request(adapter_id="lora-0", arrival_time=0.001 * i,
                        input_tokens=128, output_tokens=64)
                for i in range(10)]
        busy.append(Request(adapter_id="lora-1", arrival_time=0.01,
                            input_tokens=128, output_tokens=64))
        third = Request(adapter_id="lora-2", arrival_time=0.3,
                        input_tokens=128, output_tokens=8)
        engine.submit(busy + [third])
        engine.run()
        ttft = third.first_token_time - third.arrival_time
        assert ttft < engine.policy.theta / 4

    def test_unmerged_only_never_switches(self, builder):
        engine = builder.build("s-lora")
        engine.submit(burst(["lora-0"], n=40, output_tokens=16))
        engine.run()
        assert engine.metrics.num_mode_switches == 0
        assert engine.current_mode is InferenceMode.UNMERGED

    def test_merge_only_serves_every_adapter_eventually(self, builder):
        engine = builder.build("merge-only")
        reqs = burst(builder.adapter_ids, n=12, output_tokens=8)
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_completed == 12
        assert metrics.num_mode_switches >= len(builder.adapter_ids) - 1

    def test_hot_adapter_batches_repeat_without_rescheduling(self):
        """A hot adapter keeps V-LoRA MERGED or MIXTURE, and ``run()``
        repeats those batches while their starving prefix holds: the
        43-request trace runs 893 iterations on 110 ``schedule()``
        calls.  Re-scheduling every MERGED or MIXTURE iteration would
        take at least one call per such iteration."""
        builder = SystemBuilder(num_adapters=4)
        engine = builder.build("v-lora")
        calls = []
        schedule = engine.policy.schedule
        engine.policy.schedule = lambda c, ctx: (
            calls.append(1) or schedule(c, ctx))
        reset_request_ids()
        engine.submit(RetrievalWorkload(
            builder.adapter_ids, rate_rps=4.0, duration_s=10.0,
            top_adapter_share=0.9, use_task_heads=False, seed=0,
        ).generate())
        metrics = engine.run()
        assert metrics.num_completed == 43
        assert len(calls) <= 200
        paid = (metrics.mode_iterations.get(InferenceMode.MERGED.value, 0)
                + metrics.mode_iterations.get(InferenceMode.MIXTURE.value,
                                              0))
        assert paid > len(calls)

    def test_task_head_requests_finish_in_one_round(self, builder):
        engine = builder.build("v-lora")
        head_req = Request(adapter_id="lora-0", arrival_time=0.0,
                           input_tokens=256, output_tokens=1,
                           use_task_head=True)
        lm_req = Request(adapter_id="lora-0", arrival_time=0.0,
                         input_tokens=256, output_tokens=50)
        engine.submit([head_req, lm_req])
        engine.run()
        assert head_req.finish_time < lm_req.finish_time


class ScriptedPolicy(SchedulingPolicy):
    """Plays back one ``(mode, merged adapter)`` state per iteration."""

    def __init__(self, states):
        self.states = list(states)

    def schedule(self, candidates, ctx):
        mode, merged = self.states.pop(0)
        batch = [r for r in candidates
                 if mode is not InferenceMode.MERGED
                 or r.adapter_id == merged]
        return SchedulerDecision(batch=batch[:ctx.max_batch_size],
                                 mode=mode, merged_adapter=merged)


class TestSwitchCounters:
    def test_counters_follow_merge_and_unmerge_work(self, builder):
        """``num_mode_switches`` counts transitions that change the
        folded-in adapter; ``switch_time_total`` sums their cost."""
        M = InferenceMode
        engine = builder.build("v-lora")
        engine.policy = ScriptedPolicy([
            (M.MIXTURE, "lora-0"),  # UNMERGED -> MIXTURE(X): one merge
            (M.MERGED, "lora-0"),   # MIXTURE(X) -> MERGED(X): free
            (M.MIXTURE, "lora-0"),  # MERGED(X) -> MIXTURE(X): free
            (M.MERGED, "lora-0"),
            (M.MERGED, "lora-1"),   # MERGED(X) -> MERGED(Y): un-merge + merge
        ])
        engine.submit(burst(["lora-0", "lora-1"], n=4, output_tokens=50))
        merge = {a: engine.switcher.merge_seconds(engine.adapters.spec(a))
                 for a in ("lora-0", "lora-1")}
        unmerge_0 = engine.switcher.unmerge_seconds(
            engine.adapters.spec("lora-0"))
        expected = [
            (1, merge["lora-0"]),
            (0, 0.0),
            (0, 0.0),
            (0, 0.0),
            (1, unmerge_0 + merge["lora-1"]),
        ]
        for switches, seconds in expected:
            before = (engine.metrics.num_mode_switches,
                      engine.metrics.switch_time_total)
            engine.step()
            assert engine.metrics.num_mode_switches - before[0] == switches
            assert engine.metrics.switch_time_total - before[1] == \
                pytest.approx(seconds)


class TestPrefixReuse:
    def test_shared_image_reuses_kv(self, builder):
        engine = builder.build("v-lora")
        common = dict(adapter_id="lora-0", input_tokens=300,
                      output_tokens=2, prefix_key="img-1",
                      prefix_tokens=256)
        r1 = Request(arrival_time=0.0, **common)
        r2 = Request(arrival_time=5.0, **common)
        engine.submit([r1, r2])
        engine.run()
        assert engine.kv.has_prefix("img-1")
        # Second request re-used the 256-token prefix.
        assert engine._reused_tokens == {} or True  # cleared on finish
        assert r2.latency() < r1.latency()

    def test_reuse_disabled_for_baselines(self, builder):
        engine = builder.build("s-lora")
        r1 = Request(adapter_id="lora-0", arrival_time=0.0,
                     input_tokens=300, output_tokens=2,
                     prefix_key="img-1", prefix_tokens=256)
        engine.submit([r1])
        engine.run()
        assert not engine.kv.has_prefix("img-1")


class TestPreemption:
    def test_kv_pressure_triggers_preemption_not_crash(self):
        builder = SystemBuilder(num_adapters=2, max_batch_size=8)
        engine = builder.build("v-lora")
        # Shrink the cache drastically to force preemption.
        from repro.runtime.kv_cache import PagedKVCache
        engine.kv = PagedKVCache(num_blocks=160, block_size=16)
        reqs = burst(builder.adapter_ids, n=10, input_tokens=256,
                     output_tokens=64)
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_completed == 10
        assert metrics.num_preemptions > 0


class TestPrefillTokenBudget:
    """One iteration prefills at most ``PREFILL_TOKEN_BUDGET`` prompt
    tokens, except that the first prefill in policy order always runs."""

    def _fcfs_engine(self, builder, iterations):
        engine = builder.build("v-lora")
        engine.policy = ScriptedPolicy(
            [(InferenceMode.UNMERGED, None)] * iterations
        )
        return engine

    def _queue_behind_decoders(self, builder, engine):
        """Two decoding requests, then prefills of 0.6, 0.6 and 0.3
        budgets queued behind them in that order."""
        decoders = [Request(adapter_id=a, arrival_time=0.0,
                            input_tokens=64, output_tokens=20)
                    for a in builder.adapter_ids[:2]]
        engine.submit(decoders)
        engine.step()
        assert all(r.prefilled for r in decoders)
        big, blocked, small = (
            Request(adapter_id=builder.adapter_ids[i % 2],
                    arrival_time=engine.clock.now,
                    input_tokens=int(share * PREFILL_TOKEN_BUDGET),
                    output_tokens=4)
            for i, share in enumerate((0.6, 0.6, 0.3))
        )
        engine.submit([big, blocked, small])
        return decoders, big, blocked, small

    def test_prompt_over_budget_prefills_alone_in_one_iteration(
            self, builder):
        engine = self._fcfs_engine(builder, 2)
        huge = Request(adapter_id="lora-0", arrival_time=0.0,
                       input_tokens=PREFILL_TOKEN_BUDGET + 500,
                       output_tokens=4)
        short = Request(adapter_id="lora-1", arrival_time=0.0,
                        input_tokens=64, output_tokens=4)
        engine.submit([huge, short])
        engine.step()
        assert engine.metrics.iterations == 1
        assert huge.prefilled and huge.first_token_time is not None
        assert not short.prefilled
        engine.step()
        assert short.prefilled

    def test_only_fitting_prefills_run_and_smaller_one_backfills(self, builder):
        engine = self._fcfs_engine(builder, 2)
        decoders, big, blocked, small = self._queue_behind_decoders(
            builder, engine)
        generated = [r.generated for r in decoders]
        engine.step()
        assert big.prefilled and small.prefilled
        assert not blocked.prefilled
        assert [r.generated for r in decoders] == [g + 1 for g in generated]

    def test_deferred_prefill_holds_no_kv_then_finishes_once(self, builder):
        engine = self._fcfs_engine(builder, 64)
        _, _, blocked, _ = self._queue_behind_decoders(builder, engine)
        engine.step()
        assert blocked.status is RequestStatus.WAITING
        assert not engine.kv.has_sequence(blocked.request_id)
        metrics = engine.run()
        ids = [rec.request_id for rec in metrics.records]
        assert ids.count(blocked.request_id) == 1
        assert len(ids) == len(set(ids)) == 5


def _retrieval_trace(builder, seed):
    reset_request_ids()
    return RetrievalWorkload(builder.adapter_ids, rate_rps=12.0,
                             duration_s=8.0, slo_s=1.0, seed=seed).generate()


def _outcome(metrics):
    records = [(r.request_id, r.first_token_time, r.finish_time)
               for r in metrics.records]
    return records, list(metrics.aborts), metrics.summary()


@pytest.mark.property
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), chunk=st.integers(1, 120))
def test_chunked_submission_matches_upfront(seed, chunk):
    """Submitting a trace chunk by chunk, each run up to the next
    chunk's first arrival, is indistinguishable from one upfront
    ``submit`` + ``run()`` — what lets long traces stream through the
    engine with bounded live objects."""
    kw = dict(num_adapters=4, deadline_slo_factor=1.5)
    builder = SystemBuilder(**kw)
    engine = builder.build("v-lora")
    engine.submit(_retrieval_trace(builder, seed))
    upfront = _outcome(engine.run())

    builder = SystemBuilder(**kw)
    engine = builder.build("v-lora")
    trace = _retrieval_trace(builder, seed)
    chunks = [trace[i:i + chunk] for i in range(0, len(trace), chunk)]
    for part, following in zip(chunks, chunks[1:] + [None]):
        engine.submit(part)
        engine.run(until=(following[0].arrival_time
                          if following is not None else None))
    assert _outcome(engine.metrics) == upfront


class TestWorkloadIntegration:
    def test_retrieval_workload_end_to_end(self, builder):
        engine = builder.build("v-lora")
        wl = RetrievalWorkload(builder.adapter_ids, rate_rps=3.0,
                               duration_s=10.0, seed=3)
        reqs = wl.generate()
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_completed == len(reqs)
        assert metrics.avg_token_latency() > 0

    def test_video_workload_end_to_end(self, builder):
        engine = builder.build("v-lora")
        wl = VideoAnalyticsWorkload(builder.adapter_ids, num_streams=2,
                                    duration_s=5.0)
        reqs = wl.generate()
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_completed == len(reqs)


class TestCluster:
    def test_replication_and_dispatch(self, builder):
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2
        )
        reqs = burst(builder.adapter_ids, n=16, output_tokens=8)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.num_completed == 16
        # Both engines got work.
        assert all(e.metrics.num_completed > 0 for e in server.engines)

    def test_more_gpus_more_throughput(self, builder):
        def saturating():
            wl = RetrievalWorkload(builder.adapter_ids, rate_rps=20.0,
                                   duration_s=10.0, seed=5)
            return wl.generate()

        results = {}
        for n in (1, 2):
            server = MultiGPUServer.replicate(
                lambda: builder.build("v-lora"), num_gpus=n
            )
            server.submit(saturating())
            m = server.run()
            results[n] = m.mean_latency()
        assert results[2] < results[1]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            MultiGPUServer([])
