"""Tests for metrics accounting, including SLO attainment."""

import dataclasses

import pytest

from repro.runtime import MetricsCollector, Request, RequestRecord


def finished_request(arrival=0.0, first=0.5, finish=1.0, slo=None,
                     adapter="a", task="visual_qa",
                     input_tokens=100, output_tokens=10):
    req = Request(adapter_id=adapter, arrival_time=arrival,
                  input_tokens=input_tokens, output_tokens=output_tokens,
                  task_name=task, slo_s=slo)
    req.first_token_time = first
    req.finish_time = finish
    req.generated = output_tokens
    return req


class TestRequestRecord:
    def test_derives_latency_and_ttft(self):
        rec = RequestRecord.from_request(finished_request())
        assert rec.latency == pytest.approx(1.0)
        assert rec.ttft == pytest.approx(0.5)
        assert rec.total_tokens == 110

    def test_unfinished_rejected(self):
        req = Request(adapter_id="a", arrival_time=0.0,
                      input_tokens=1, output_tokens=1)
        with pytest.raises(ValueError):
            RequestRecord.from_request(req)


class TestCollector:
    @pytest.fixture()
    def metrics(self):
        m = MetricsCollector()
        m.complete(finished_request(arrival=0.0, finish=1.0))
        m.complete(finished_request(arrival=1.0, finish=4.0, adapter="b",
                                    task="image_caption"))
        return m

    def test_avg_token_latency_definition(self, metrics):
        """Sum of latencies over total tokens (§6.1)."""
        expected = (1.0 + 3.0) / (110 + 110)
        assert metrics.avg_token_latency() == pytest.approx(expected)

    def test_throughput_spans_arrival_to_finish(self, metrics):
        assert metrics.throughput_rps() == pytest.approx(2 / 4.0)
        assert metrics.throughput_rps(duration=10.0) == pytest.approx(0.2)

    def test_percentiles_ordered(self, metrics):
        assert metrics.latency_percentile(50) <= metrics.latency_percentile(99)

    def test_breakdowns(self, metrics):
        assert set(metrics.by_adapter()) == {"a", "b"}
        assert set(metrics.by_task()) == {"visual_qa", "image_caption"}

    def test_empty_collector_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().avg_token_latency()
        with pytest.raises(ValueError):
            MetricsCollector().throughput_rps()

    def test_summary_keys(self, metrics):
        summary = metrics.summary()
        for key in ("completed", "avg_token_latency_ms", "throughput_rps",
                    "p99_latency_s", "mode_switches", "preemptions"):
            assert key in summary

    def test_mode_counting(self):
        m = MetricsCollector()
        m.count_mode("merged")
        m.count_mode("merged")
        m.count_mode("mixture")
        assert m.mode_iterations == {"merged": 2, "mixture": 1}

    def test_merge_keeps_every_field(self):
        """Every declared field survives a merge: a counter added to the
        dataclass cannot be silently dropped from cluster totals."""
        src = MetricsCollector()
        for i, f in enumerate(dataclasses.fields(src), start=1):
            value = getattr(src, f.name)
            if isinstance(value, list):
                setattr(src, f.name, [f"{f.name}-{i}"])
            elif isinstance(value, dict):
                setattr(src, f.name, {f.name: i})
            else:
                setattr(src, f.name, type(value)(i))
        merged = MetricsCollector()
        merged.merge_from(src)
        merged.merge_from(src)
        for i, f in enumerate(dataclasses.fields(src), start=1):
            got = getattr(merged, f.name)
            value = getattr(src, f.name)
            if isinstance(value, list):
                assert got == value * 2, f.name
            elif isinstance(value, dict):
                assert got == {f.name: 2 * i}, f.name
            else:
                assert got == 2 * i, f.name


class TestSLOAttainment:
    def test_none_without_slos(self):
        m = MetricsCollector()
        m.complete(finished_request())
        assert m.slo_attainment() is None
        assert "slo_attainment" not in m.summary()

    def test_attainment_fraction(self):
        m = MetricsCollector()
        m.complete(finished_request(finish=1.0, slo=2.0))   # met
        m.complete(finished_request(finish=1.0, slo=0.5))   # missed
        m.complete(finished_request(finish=1.0))            # no SLO
        assert m.slo_attainment() == pytest.approx(0.5)
        assert m.summary()["slo_attainment"] == pytest.approx(0.5)

    def test_request_met_slo_helper(self):
        met = finished_request(finish=1.0, slo=2.0)
        missed = finished_request(finish=1.0, slo=0.5)
        plain = finished_request(finish=1.0)
        assert met.met_slo() is True
        assert missed.met_slo() is False
        assert plain.met_slo() is None

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            Request(adapter_id="a", arrival_time=0.0, input_tokens=1,
                    output_tokens=1, slo_s=0.0)

    def test_engine_reports_attainment(self):
        from repro.core import SystemBuilder
        builder = SystemBuilder(num_adapters=2)
        engine = builder.build("v-lora")
        reqs = [
            Request(adapter_id="lora-0", arrival_time=0.01 * i,
                    input_tokens=64, output_tokens=2, slo_s=30.0)
            for i in range(5)
        ]
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.slo_attainment() == 1.0
