"""Tests for trace save/load/replay."""

import pytest

from repro.runtime import Request
from repro.workloads import RetrievalWorkload
from repro.workloads.replay import (
    load_trace,
    record_to_request,
    request_to_record,
    save_trace,
    trace_stats,
)


def sample_requests():
    return [
        Request(adapter_id="lora-0", arrival_time=0.5, input_tokens=100,
                output_tokens=10, task_name="visual_qa", num_images=1,
                prefix_key="img-1", prefix_tokens=64),
        Request(adapter_id="lora-1", arrival_time=0.1, input_tokens=200,
                output_tokens=1, task_name="object_detection",
                use_task_head=True, slo_s=1.0, priority=2),
    ]


class TestRoundtrip:
    def test_record_roundtrip_preserves_fields(self):
        req = sample_requests()[0]
        clone = record_to_request(request_to_record(req))
        for name in ("arrival_time", "adapter_id", "input_tokens",
                     "output_tokens", "task_name", "num_images",
                     "use_task_head", "prefix_key", "prefix_tokens",
                     "slo_s", "priority"):
            assert getattr(clone, name) == getattr(req, name), name
        # Fresh identity and progress state.
        assert clone.request_id != req.request_id
        assert not clone.prefilled

    def test_file_roundtrip_sorted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = save_trace(path, sample_requests())
        assert count == 2
        loaded = load_trace(path)
        assert len(loaded) == 2
        # Saved sorted by arrival.
        assert loaded[0].arrival_time <= loaded[1].arrival_time

    def test_generated_workload_replays_identically(self, tmp_path):
        wl = RetrievalWorkload([f"lora-{i}" for i in range(3)],
                               rate_rps=5.0, duration_s=10.0, seed=4)
        original = wl.generate()
        path = tmp_path / "wl.jsonl"
        save_trace(path, original)
        replayed = load_trace(path)
        assert len(replayed) == len(original)
        orig_sorted = sorted(original, key=lambda r: (r.arrival_time,
                                                      r.request_id))
        for a, b in zip(orig_sorted, replayed):
            assert a.arrival_time == b.arrival_time
            assert a.adapter_id == b.adapter_id
            assert a.input_tokens == b.input_tokens
            assert a.output_tokens == b.output_tokens

    def test_replayed_trace_serves_identically(self, tmp_path):
        """Replay determinism: same trace -> same simulated metrics."""
        from repro.core import SystemBuilder
        builder = SystemBuilder(num_adapters=3)
        wl = RetrievalWorkload(builder.adapter_ids, rate_rps=4.0,
                               duration_s=8.0, seed=9)
        path = tmp_path / "t.jsonl"
        save_trace(path, wl.generate())

        def run():
            engine = builder.build("v-lora")
            engine.submit(load_trace(path))
            return engine.run().avg_token_latency()

        assert run() == pytest.approx(run())


class TestPriority:
    """Priority classes must survive the trace round trip (regression:
    ``_FIELDS`` used to omit ``priority``, silently flattening every
    replayed trace to PRIORITY_NORMAL and bypassing per-priority
    admission and hedging behavior)."""

    def test_priority_survives_roundtrip(self, tmp_path):
        from repro.runtime.request import (
            PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL)
        reqs = [
            Request(adapter_id="lora-0", arrival_time=0.0, input_tokens=8,
                    output_tokens=2, priority=p)
            for p in (PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH)
        ]
        path = tmp_path / "prio.jsonl"
        save_trace(path, reqs)
        loaded = load_trace(path)
        assert sorted(r.priority for r in loaded) == sorted(
            r.priority for r in reqs)

    def test_record_includes_priority(self):
        rec = request_to_record(sample_requests()[1])
        assert rec["priority"] == 2

    def test_old_trace_without_priority_loads_with_default(self):
        """Traces written before the field existed still load."""
        from repro.runtime.request import PRIORITY_NORMAL
        clone = record_to_request({"arrival_time": 0.2, "adapter_id": "a",
                                   "input_tokens": 4, "output_tokens": 1})
        assert clone.priority == PRIORITY_NORMAL


class TestValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown trace fields"):
            record_to_request({"arrival_time": 0, "adapter_id": "a",
                               "input_tokens": 1, "output_tokens": 1,
                               "bogus": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            record_to_request({"arrival_time": 0})

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"arrival_time": 0, "adapter_id": "a", '
                        '"input_tokens": 1, "output_tokens": 1}\n'
                        "not json\n")
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('\n{"arrival_time": 0, "adapter_id": "a", '
                        '"input_tokens": 1, "output_tokens": 1}\n\n')
        assert len(load_trace(path)) == 1


class TestStats:
    def test_stats_fields(self):
        wl = RetrievalWorkload([f"lora-{i}" for i in range(4)],
                               rate_rps=8.0, duration_s=20.0,
                               top_adapter_share=0.7, seed=1)
        stats = trace_stats(wl.generate())
        assert stats["requests"] > 50
        assert stats["rate_rps"] == pytest.approx(8.0, rel=0.3)
        assert stats["top_adapter_share"] == pytest.approx(0.7, abs=0.1)
        assert set(stats["tasks"]) <= {
            "visual_qa", "image_caption", "referring_expression",
        }

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_stats([])
