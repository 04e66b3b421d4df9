"""Parallel sweep runner: identical results, speed-up, table() indexing."""

from __future__ import annotations

import time

import pytest

import repro.analysis.sweep as sweep_mod
from repro.analysis.sweep import SweepCell, SweepResult, SweepRunner
from repro.core.builder import SystemBuilder
from repro.runtime.metrics import MetricsCollector
from repro.runtime.request import reset_request_ids
from repro.workloads.retrieval import RetrievalWorkload


def _factory(value, system):
    builder = SystemBuilder(num_adapters=4)
    return RetrievalWorkload(
        builder.adapter_ids, rate_rps=float(value), duration_s=8.0,
        use_task_heads=(system == "v-lora"), seed=9,
    ).generate()


def _snapshot(result):
    return [
        (c.axis_value, c.system, c.metrics.summary(),
         sorted((r.request_id, r.first_token_time, r.finish_time)
                for r in c.metrics.records))
        for c in result.cells
    ]


class TestParallelSweep:
    def test_parallel_equals_serial_cell_for_cell(self):
        builder = SystemBuilder(num_adapters=4)
        runner = SweepRunner(builder, systems=("v-lora", "s-lora"))
        reset_request_ids()
        serial = runner.run("rate", [3.0, 6.0], _factory)
        reset_request_ids()
        parallel = runner.run("rate", [3.0, 6.0], _factory, parallel=2)
        assert _snapshot(serial) == _snapshot(parallel)

    def test_parallel_one_is_serial(self):
        builder = SystemBuilder(num_adapters=4)
        runner = SweepRunner(builder, systems=("v-lora",))
        reset_request_ids()
        a = runner.run("rate", [3.0], _factory, parallel=1)
        reset_request_ids()
        b = runner.run("rate", [3.0], _factory)
        assert _snapshot(a) == _snapshot(b)

    def test_fallback_on_broken_pool(self, monkeypatch):
        class BrokenPool:
            def __init__(self, *a, **k):
                raise OSError("no processes in this sandbox")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", BrokenPool)
        # Force past auto-degrade so the broken pool is actually tried.
        monkeypatch.setattr(sweep_mod, "_effective_cpu_count", lambda: 4)
        builder = SystemBuilder(num_adapters=4)
        runner = SweepRunner(builder, systems=("v-lora",))
        reset_request_ids()
        fell_back = runner.run("rate", [3.0, 4.0, 5.0, 6.0], _factory,
                               parallel=4)
        assert fell_back.metadata["mode"] == "serial-fallback"
        monkeypatch.undo()
        reset_request_ids()
        serial = runner.run("rate", [3.0, 4.0, 5.0, 6.0], _factory)
        assert _snapshot(fell_back) == _snapshot(serial)

    def test_empty_workload_still_rejected(self):
        runner = SweepRunner(SystemBuilder(num_adapters=4),
                             systems=("v-lora",))
        with pytest.raises(ValueError, match="no requests"):
            runner.run("rate", [3.0], lambda v, s: [], parallel=2)


@pytest.mark.slow
def test_parallel_sweep_speedup_floor():
    """The Fig 14 grid (4 systems x 4 rates, 150 s cells) runs at least
    3x faster on ``parallel=4`` than serially, given 4 cores."""
    cpus = sweep_mod._effective_cpu_count()
    if cpus < 4:
        pytest.skip(f"only {cpus} CPU(s): the 3x parallel-sweep floor "
                    f"needs >= 4 cores")
    builder = SystemBuilder(num_adapters=8)
    runner = SweepRunner(builder,
                         systems=("v-lora", "s-lora", "punica", "dlora"))

    def factory(rate, system):
        return RetrievalWorkload(
            builder.adapter_ids, rate_rps=float(rate), duration_s=150.0,
            use_task_heads=(system == "v-lora"), seed=14,
        ).generate()

    walls = {}
    for parallel in (None, 4):
        reset_request_ids()
        start = time.perf_counter()
        result = runner.run("rate_rps", (2.0, 6.0, 10.0, 14.0), factory,
                            parallel=parallel)
        walls[parallel] = time.perf_counter() - start
    assert result.metadata["mode"] == "parallel"
    speedup = walls[None] / walls[4]
    assert speedup >= 3.0, f"sweep speedup {speedup:.2f}x below the 3x floor"


class TestAutoDegrade:
    """parallel=N quietly runs serial when a pool cannot win."""

    def _runner(self):
        return SweepRunner(SystemBuilder(num_adapters=4),
                           systems=("v-lora", "s-lora"))

    def test_single_cpu_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_effective_cpu_count", lambda: 1)

        def no_pool(*a, **k):
            raise AssertionError("pool must not be created on 1 CPU")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", no_pool)
        reset_request_ids()
        result = self._runner().run("rate", [3.0, 6.0], _factory, parallel=4)
        assert result.metadata["mode"] == "serial-degraded"
        assert result.metadata["degrade_reason"] == "cpu_count=1"
        assert result.metadata["requested_parallel"] == 4
        assert len(result.cells) == 4

    def test_tiny_grid_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_effective_cpu_count", lambda: 8)

        def no_pool(*a, **k):
            raise AssertionError("pool must not be created for a tiny grid")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", no_pool)
        reset_request_ids()
        result = self._runner().run("rate", [3.0], _factory, parallel=4)
        assert result.metadata["mode"] == "serial-degraded"
        assert "num_cells=2" in result.metadata["degrade_reason"]

    def test_degraded_results_equal_serial(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_effective_cpu_count", lambda: 1)
        reset_request_ids()
        degraded = self._runner().run("rate", [3.0, 6.0], _factory,
                                      parallel=4)
        reset_request_ids()
        serial = self._runner().run("rate", [3.0, 6.0], _factory)
        assert serial.metadata["mode"] == "serial"
        assert _snapshot(degraded) == _snapshot(serial)

    def test_serial_run_records_metadata(self):
        reset_request_ids()
        result = self._runner().run("rate", [3.0], _factory)
        assert result.metadata["mode"] == "serial"
        assert result.metadata["requested_parallel"] is None
        assert result.metadata["cpu_count"] >= 1


class TestTableIndex:
    def _result(self):
        result = SweepResult(axis_name="x", systems=["a", "b"])
        for value in (1, 2, 3):
            for system in ("a", "b"):
                m = MetricsCollector()
                m.iterations = value * (10 if system == "a" else 100)
                result.cells.append(SweepCell(value, system, m))
        return result

    def test_table_values(self):
        rows = self._result().table("iterations")
        assert rows == [[1, 10, 100], [2, 20, 200], [3, 30, 300]]

    def test_missing_cell_is_none(self):
        result = self._result()
        del result.cells[0]
        assert result.table("iterations")[0] == [1, None, 100]

    def test_duplicate_cell_first_wins(self):
        result = self._result()
        dup = MetricsCollector()
        dup.iterations = 999
        result.cells.append(SweepCell(1, "a", dup))
        assert result.table("iterations")[0] == [1, 10, 100]
