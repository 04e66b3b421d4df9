"""Tests for per-iteration engine tracing."""

import dataclasses

import pytest

from repro.core import SystemBuilder
from repro.hardware.gpu import A100_80GB
from repro.runtime import Request, reset_request_ids
from repro.runtime.tracing import EngineTracer, IterationEvent
from repro.workloads import RetrievalWorkload


def event(index=0, start=0.0, duration=0.01, mode="unmerged",
          switch=0.0, **kw):
    defaults = dict(
        index=index, start=start, duration=duration, mode=mode,
        merged_adapter=None, batch_size=1, prefill_tokens=10,
        decode_tokens=5, adapters=("a",), switch_seconds=switch,
        swap_stall_seconds=0.0, preemptions=0,
    )
    defaults.update(kw)
    return IterationEvent(**defaults)


class TestTracerUnit:
    def test_time_by_mode_accumulates(self):
        t = EngineTracer()
        t.record(event(mode="merged", duration=0.2))
        t.record(event(mode="merged", duration=0.3))
        t.record(event(mode="unmerged", duration=0.1))
        assert t.time_by_mode() == pytest.approx(
            {"merged": 0.5, "unmerged": 0.1}
        )

    def test_switch_accounting(self):
        t = EngineTracer()
        t.record(event(switch=0.05))
        t.record(event(switch=0.0))
        assert len(t.switch_events()) == 1
        assert t.total_switch_time() == pytest.approx(0.05)

    def test_mode_segments_merge_contiguous(self):
        t = EngineTracer()
        t.record(event(start=0.0, duration=0.1, mode="merged"))
        t.record(event(start=0.1, duration=0.1, mode="merged"))
        t.record(event(start=0.2, duration=0.1, mode="unmerged"))
        segments = t.mode_segments()
        assert len(segments) == 2
        assert segments[0] == ("merged", 0.0, pytest.approx(0.2))

    def test_bounded_events(self):
        t = EngineTracer(max_events=2)
        for i in range(5):
            t.record(event(index=i))
        assert len(t.events) == 2
        assert t.num_dropped == 3

    def test_render_requires_events(self):
        with pytest.raises(ValueError):
            EngineTracer().render_timeline()

    def test_event_derived_fields(self):
        e = event(start=1.0, duration=0.5, prefill_tokens=3, decode_tokens=4)
        assert e.end == pytest.approx(1.5)
        assert e.total_tokens == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineTracer(max_events=0)


class TestTracerIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        builder = SystemBuilder(num_adapters=4, max_batch_size=16)
        engine = builder.build("v-lora")
        tracer = engine.attach_tracer()
        wl = RetrievalWorkload(builder.adapter_ids, rate_rps=8.0,
                               duration_s=10.0, top_adapter_share=0.7,
                               seed=3)
        engine.submit(wl.generate())
        metrics = engine.run()
        return engine, tracer, metrics

    def test_one_event_per_iteration(self, traced_run):
        _, tracer, metrics = traced_run
        assert len(tracer.events) == metrics.iterations

    def test_mode_time_matches_metrics_counts(self, traced_run):
        _, tracer, metrics = traced_run
        by_mode = {}
        for e in tracer.events:
            by_mode[e.mode] = by_mode.get(e.mode, 0) + 1
        assert by_mode == metrics.mode_iterations

    def test_switch_time_matches_metrics(self, traced_run):
        _, tracer, metrics = traced_run
        assert tracer.total_switch_time() == pytest.approx(
            metrics.switch_time_total
        )

    def test_timeline_renders(self, traced_run):
        _, tracer, _ = traced_run
        out = tracer.render_timeline(width=40)
        assert "U" in out or "M" in out or "X" in out

    def test_events_monotone_in_time(self, traced_run):
        _, tracer, _ = traced_run
        starts = [e.start for e in tracer.events]
        assert starts == sorted(starts)

    def test_traced_steady_decodes_record_every_iteration(self):
        """Untraced, ``run()`` repeats steady decode batches without
        re-scheduling them; traced, every iteration is still one event,
        and the run is the same."""
        def serve(traced):
            engine = SystemBuilder(num_adapters=4).build("s-lora")
            tracer = engine.attach_tracer() if traced else None
            calls = []
            schedule = engine.policy.schedule
            engine.policy.schedule = lambda c, ctx: (
                calls.append(1) or schedule(c, ctx))
            engine.submit(RetrievalWorkload(
                ["lora-0", "lora-1"], rate_rps=2.0, duration_s=10.0,
                use_task_heads=False, seed=1).generate())
            return engine.run(), tracer, len(calls)

        metrics, tracer, traced_calls = serve(traced=True)
        untraced, _, untraced_calls = serve(traced=False)
        assert len(tracer.events) == metrics.iterations
        assert traced_calls == metrics.iterations
        assert untraced_calls < metrics.iterations / 2
        assert untraced.summary() == metrics.summary()

    def test_tracer_attached_between_runs_sees_every_later_iteration(self):
        """A steady batch outlives ``run()`` calls, but not a tracer
        attached between them: every later iteration is one event."""
        engine = SystemBuilder(num_adapters=2).build("s-lora")
        engine.submit([Request(adapter_id=f"lora-{i % 2}", arrival_time=0.0,
                               input_tokens=64, output_tokens=120)
                       for i in range(3)])
        engine.run(until=0.5)
        assert engine._steady is not None
        before = engine.metrics.iterations
        tracer = engine.attach_tracer()
        metrics = engine.run()
        assert len(tracer.events) == metrics.iterations - before > 0

    def test_untraced_engine_records_nothing(self):
        builder = SystemBuilder(num_adapters=2)
        engine = builder.build("v-lora")
        engine.submit([Request(adapter_id="lora-0", arrival_time=0.0,
                               input_tokens=32, output_tokens=2)])
        engine.run()
        assert engine.tracer is None


#: Small enough that the KV pool starves and requests are preempted,
#: so some re-prefill with tokens already generated.
SMALL_GPU = dataclasses.replace(A100_80GB, name="A100-21GB",
                                hbm_capacity_gb=21.0)


def _log_priced_tokens(engine):
    """Per iteration, ``[prompt tokens, decode tokens]`` as ``_execute``
    hands them to the cost cache to price."""
    lookup = engine.cost_cache.lookup
    log = []

    def logged_lookup(mode, merged, launches, decode, groups):
        log.append([sum(sum(tokens) for tokens, _ in launches),
                    decode[0] if decode is not None else 0])
        return lookup(mode, merged, launches, decode, groups)

    engine.cost_cache.lookup = logged_lookup
    return log


@pytest.mark.parametrize("gpu, rate, seed", [
    (A100_80GB, 8.0, 3),
    (SMALL_GPU, 16.0, 7),
], ids=["prefix-reuse", "preemption"])
def test_events_count_the_priced_tokens(gpu, rate, seed):
    """An event's ``prefill_tokens`` are the prompt tokens its iteration
    priced (after prefix reuse) and its ``decode_tokens`` the batch
    members already prefilled, even for a request that finishes or
    re-prefills in that iteration."""
    builder = SystemBuilder(num_adapters=4, max_batch_size=16, gpu=gpu)
    reset_request_ids()
    engine = builder.build("v-lora")
    tracer = engine.attach_tracer()
    priced = _log_priced_tokens(engine)
    engine.submit(RetrievalWorkload(
        builder.adapter_ids, rate_rps=rate, duration_s=10.0,
        top_adapter_share=0.7, seed=seed).generate())
    metrics = engine.run()

    assert len(tracer.events) == len(priced) == metrics.iterations
    assert ([[e.prefill_tokens, e.decode_tokens] for e in tracer.events]
            == priced)
    if gpu is SMALL_GPU:
        assert metrics.num_preemptions > 0
