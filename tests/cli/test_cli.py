"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestInfoCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("v-lora", "s-lora", "punica", "dlora"):
            assert name in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Qwen-VL-7B" in out and "LLaVA-1.5-13B" in out


class TestServe:
    def test_serve_prints_summary(self, capsys):
        rc = main(["serve", "--system", "v-lora", "--rate", "3",
                   "--duration", "6", "--adapters", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg_token_latency_ms" in out

    def test_serve_json_output(self, capsys):
        rc = main(["serve", "--rate", "2", "--duration", "5",
                   "--adapters", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0

    def test_serve_video_workload(self, capsys):
        rc = main(["serve", "--workload", "video", "--rate", "2",
                   "--duration", "5", "--adapters", "2"])
        assert rc == 0
        assert "avg_token_latency_ms" in capsys.readouterr().out

    def test_serve_trace_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["serve", "--rate", "2", "--duration", "5",
                   "--adapters", "2", "--trace-out", str(trace)])
        assert rc == 0
        assert trace.exists()
        capsys.readouterr()
        rc = main(["serve", "--rate", "2", "--duration", "5",
                   "--adapters", "2", "--trace-in", str(trace)])
        assert rc == 0
        assert "avg_token_latency_ms" in capsys.readouterr().out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--system", "vllm"])

    def test_missing_trace_file_is_an_error_not_a_traceback(self, capsys):
        rc = main(["serve", "--trace-in", "/nonexistent/trace.jsonl"])
        assert rc == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_malformed_trace_is_an_error_not_a_traceback(self, tmp_path,
                                                         capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"adapter_id": "lora-0"}\n')  # missing fields
        rc = main(["serve", "--trace-in", str(trace)])
        assert rc == 2
        assert "malformed trace" in capsys.readouterr().err

    FAULT_RATE_FLAGS = [
        "--swap-fail-rate", "--swap-slow-rate", "--kv-pressure-rate",
        "--engine-slow-rate", "--burst-rate", "--scale-stall-rate",
        "--partition-rate", "--heartbeat-loss-rate", "--host-fail-rate"]

    def test_negative_fault_rate_rejected(self, capsys):
        for flag in self.FAULT_RATE_FLAGS:
            rc = main(["serve", "--rate", "2", "--duration", "4", flag, "-1"])
            assert rc == 2, flag
            err = capsys.readouterr().err
            assert err.startswith(flag), err
            assert "fault rates" in err, err

    def test_bad_deadline_factor_rejected(self, capsys):
        rc = main(["serve", "--deadline-factor", "0"])
        assert rc == 2
        assert "deadline-factor" in capsys.readouterr().err


class TestServeWithFaults:
    def test_serve_under_faults_reports_degradation(self, capsys):
        rc = main(["serve", "--rate", "4", "--duration", "5",
                   "--adapters", "4", "--json",
                   "--swap-fail-rate", "0.5",
                   "--kv-pressure-rate", "0.3",
                   "--engine-slow-rate", "0.2",
                   "--fault-seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] + payload["aborted"] > 0
        assert "goodput_rps" in payload

    def test_fault_runs_are_seed_reproducible(self, capsys):
        argv = ["serve", "--rate", "3", "--duration", "4", "--adapters", "3",
                "--json", "--swap-fail-rate", "1.0", "--fault-seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestServeTailTolerance:
    def test_give_up_after_aborts_on_a_single_engine(self, capsys):
        rc = main(["serve", "--rate", "8", "--duration", "10", "--json",
                   "--give-up-after", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.get("aborted_deadline_exceeded", 0) > 0
        assert payload["p99_latency_s"] < 1.0

    def test_give_up_after_zero_rejected(self, capsys):
        rc = main(["serve", "--give-up-after", "0"])
        assert rc == 2
        assert "--give-up-after must be positive" in capsys.readouterr().err

    def test_hedge_after_alone_turns_hedging_on(self, capsys):
        rc = main(["serve", "--rate", "8", "--duration", "4", "--json",
                   "--num-gpus", "2", "--hedge-after", "0.05"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["hedges_fired"] > 0


class TestServeDisagg:
    @pytest.mark.parametrize("flags", [[], ["--disagg"], ["--autoscale"]])
    def test_kv_target_needs_disagg_and_autoscale(self, flags, capsys):
        rc = main(["serve", "--duration", "2", *flags,
                   "--disagg-kv-target", "5"])
        assert rc == 2
        assert ("--disagg-kv-target requires --disagg and --autoscale"
                in capsys.readouterr().err)

    def test_kv_target_out_of_range_rejected(self, capsys):
        rc = main(["serve", "--duration", "2", "--disagg", "--autoscale",
                   "--disagg-kv-target", "5"])
        assert rc == 2
        assert "bad --disagg-kv-target" in capsys.readouterr().err


class TestFuse:
    def test_fusion_plan(self, capsys):
        rc = main(["fuse", "--items",
                   "image_classification:4:0.9,video_classification:2:0.9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 adapters" in out

    def test_bad_spec_exit_code(self, capsys):
        assert main(["fuse", "--items", "garbage"]) == 2
        assert "bad item spec" in capsys.readouterr().err


class TestCompare:
    def test_compare_renders_chart_and_summary(self, capsys):
        rc = main(["compare", "--rates", "3,6", "--duration", "6",
                   "--adapters", "3", "--systems", "v-lora,dlora"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "V-LoRA reduction" in out
        assert "dlora" in out

    @pytest.mark.parametrize("rates", ["3,oops", "", "4;8", "2,-4", "0"])
    def test_malformed_rates_rejected(self, rates, capsys):
        rc = main(["compare", "--rates", rates, "--duration", "4"])
        assert rc == 2
        assert "malformed --rates" in capsys.readouterr().err

    def test_unknown_systems_rejected(self, capsys):
        rc = main(["compare", "--rates", "4", "--systems", "v-lora,vllm"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "vllm" in err
        assert "v-lora" in err  # lists the valid names


class TestWorkloadFlags:
    """serve, compare and trace generate reject a workload they cannot
    generate with exit 2 and a message naming the flag."""

    CASES = [
        (["serve", "--workload", "video", "--rate", "-3"], "--rate"),
        (["serve", "--workload", "video", "--rate", "0"], "--rate"),
        (["serve", "--workload", "video", "--rate", "2.7"], "--rate"),
        (["compare", "--workload", "video", "--rates", "0.5,1"], "--rates"),
        (["serve", "--rate", "0"], "--rate"),
        (["serve", "--duration", "0"], "--duration"),
        (["serve", "--adapters", "-1"], "--adapters"),
        (["serve", "--skew", "1.5"], "--skew"),
        (["compare", "--duration", "0"], "--duration"),
        (["trace", "generate", "--workload", "video", "--rate", "0"],
         "--rate"),
        (["serve", "--workload", "diurnal", "--trough", "-1"], "--trough"),
        (["serve", "--workload", "diurnal", "--rate", "6", "--trough", "7"],
         "--trough"),
        (["serve", "--workload", "diurnal", "--period", "0"], "--period"),
        (["compare", "--workload", "diurnal", "--rates", "4,8",
          "--trough", "5"], "--trough"),
        (["compare", "--workload", "diurnal", "--period", "-2"],
         "--period"),
        (["trace", "generate", "--workload", "diurnal", "--trough", "-1"],
         "--trough"),
        (["trace", "generate", "--workload", "diurnal", "--period", "inf"],
         "--period"),
    ]

    @pytest.mark.parametrize("argv, flag", CASES,
                             ids=[" ".join(argv) for argv, _ in CASES])
    def test_bad_flag_rejected(self, argv, flag, tmp_path, capsys):
        if argv[0] == "trace":
            argv = argv + ["--out", str(tmp_path / "t.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(flag)
        assert not (tmp_path / "t.jsonl").exists()


class TestTilingSearchCommand:
    def test_summary_printed(self, capsys):
        rc = main(["tiling-search", "--dim", "4096", "--rank", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winners=" in out
        assert "m=16" in out


class TestTraceCommands:
    def test_generate_then_stats(self, tmp_path, capsys):
        trace = tmp_path / "wl.jsonl"
        rc = main(["trace", "generate", "--out", str(trace),
                   "--rate", "4", "--duration", "8", "--adapters", "3"])
        assert rc == 0
        rc = main(["trace", "stats", "--path", str(trace)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.split("wrote")[-1]
                           .split("\n", 1)[-1])
        assert stats["requests"] > 0
        assert "top_adapter_share" in stats

    def test_stats_on_missing_file_is_an_error(self, capsys):
        rc = main(["trace", "stats", "--path", "/nonexistent/wl.jsonl"])
        assert rc == 2
        assert "trace file not found" in capsys.readouterr().err
