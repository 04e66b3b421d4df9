"""Declarative parameter sweeps over (system, workload) grids.

The evaluation section is a pile of sweeps: rate x system, skew x
system, adapters x system, GPUs x rate.  :class:`SweepRunner` runs one
axis of workload variation against a set of systems with fresh engines
per cell and returns a tidy result table.

``SweepRunner.run(..., parallel=N)`` fans the grid out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Results are identical
to the serial path cell-for-cell: every cell's workload is generated in
the main process in serial order (so global request ids match), each
worker builds its own engine from the pickled builder with the same
deterministic seeds, and any parallel failure falls back to running the
pre-generated cells serially.

Parallelism only pays when there are cores to spread over and enough
cells to amortize worker startup: on a single-CPU machine the pool
*loses* to serial (0.66x, measured at ``cpu_count: 1``), so ``run``
auto-degrades to the serial path when the machine has one effective
CPU or the grid is tiny, and records the mode it actually used in
:attr:`SweepResult.metadata`.  The >= 3x floor of ``parallel=4`` on
the Fig 14 grid is a ``slow`` test in
``tests/analysis/test_sweep_parallel.py``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Grids smaller than this run serially even when ``parallel`` asks for a
#: pool — worker spawn + pickling costs more than the cells themselves.
MIN_PARALLEL_CELLS = 4

from repro.core.builder import SystemBuilder
from repro.runtime.metrics import MetricsCollector
from repro.runtime.request import Request

#: A workload factory: axis value -> request list.  It runs once per
#: (axis value, system) cell so each system sees identical requests
#: (fresh Request objects, same content).
WorkloadFactory = Callable[[object, str], Sequence[Request]]


@dataclass
class SweepCell:
    """One (axis value, system) measurement."""

    axis_value: object
    system: str
    metrics: MetricsCollector

    def value(self, metric: str) -> float:
        summary = self.metrics.summary()
        if metric not in summary:
            raise KeyError(
                f"unknown metric {metric!r}; available: {sorted(summary)}"
            )
        return summary[metric]


@dataclass
class SweepResult:
    """All cells of one sweep, queryable by metric."""

    axis_name: str
    systems: List[str]
    cells: List[SweepCell] = field(default_factory=list)
    #: Execution provenance: ``requested_parallel``, ``cpu_count``, the
    #: ``mode`` actually used ("serial", "parallel", "serial-degraded",
    #: "serial-fallback"), and ``degrade_reason`` when auto-degraded.
    metadata: Dict[str, object] = field(default_factory=dict)

    def series(self, system: str, metric: str) -> Dict[object, float]:
        """metric values along the axis for one system."""
        if system not in self.systems:
            raise KeyError(f"system {system!r} not in sweep {self.systems}")
        return {
            c.axis_value: c.value(metric)
            for c in self.cells if c.system == system
        }

    def table(self, metric: str) -> List[List[object]]:
        """Rows of [axis value, metric per system...] for printing."""
        axis_values = sorted({c.axis_value for c in self.cells},
                             key=lambda v: (str(type(v)), v))
        # Index once by (axis value, system) — the seed's per-row scans
        # made this O(cells^2).  First cell wins on duplicates, matching
        # the scan's ``match[0]``.
        index: Dict[Tuple[object, str], SweepCell] = {}
        for c in self.cells:
            index.setdefault((c.axis_value, c.system), c)
        rows = []
        for value in axis_values:
            row: List[object] = [value]
            for system in self.systems:
                cell = index.get((value, system))
                row.append(
                    round(cell.value(metric), 4) if cell is not None else None
                )
            rows.append(row)
        return rows


def _effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _run_sweep_cell(payload: Tuple[SystemBuilder, str, List[Request],
                                   Optional[float]]) -> MetricsCollector:
    """Process-pool worker: build one engine and run one cell.

    Module-level so it pickles under any multiprocessing start method.
    The requests arrive as pickled copies, so worker-side mutation never
    leaks back into the parent's objects (which the serial fallback
    reuses).
    """
    builder, system, requests, until = payload
    engine = builder.build(system)
    engine.submit(requests)
    return engine.run(until=until)


class SweepRunner:
    """Runs a one-axis sweep across systems."""

    def __init__(self, builder: SystemBuilder,
                 systems: Sequence[str] = ("v-lora", "s-lora", "punica",
                                           "dlora")):
        if not systems:
            raise ValueError("need at least one system")
        self.builder = builder
        self.systems = list(systems)

    def run(
        self,
        axis_name: str,
        axis_values: Sequence[object],
        workload_factory: WorkloadFactory,
        until: Optional[float] = None,
        parallel: Optional[int] = None,
    ) -> SweepResult:
        """Execute the grid; every cell gets a fresh engine.

        ``parallel=N`` (N > 1) runs cells on a process pool.  Workloads
        are still generated in the main process, in the same
        ``(axis value, system)`` nesting order as the serial path, so the
        global request-id sequence — and therefore every cell's metrics —
        is identical to ``parallel=None`` down to the last float.  If the
        pool cannot be used (sandboxed interpreter, pickling failure,
        worker crash) the pre-generated cells run serially instead.

        A pool is only actually spun up when it can win: with one
        effective CPU or fewer than ``MIN_PARALLEL_CELLS`` cells the
        request degrades to the serial path (the results are identical
        either way).  ``result.metadata`` records what happened.
        """
        if not axis_values:
            raise ValueError("need at least one axis value")
        result = SweepResult(axis_name=axis_name, systems=self.systems)
        cpu_count = _effective_cpu_count()
        result.metadata = {
            "requested_parallel": parallel,
            "cpu_count": cpu_count,
            "mode": "serial",
        }
        if parallel is not None and parallel > 1:
            num_cells = len(axis_values) * len(self.systems)
            degrade_reason = None
            if cpu_count <= 1:
                degrade_reason = f"cpu_count={cpu_count}"
            elif num_cells < MIN_PARALLEL_CELLS:
                degrade_reason = (
                    f"num_cells={num_cells} < {MIN_PARALLEL_CELLS}"
                )
            if degrade_reason is None:
                cells = self._generate_cells(axis_name, axis_values,
                                             workload_factory)
                metrics_list, used_pool = self._run_cells_parallel(
                    cells, until, parallel
                )
                result.metadata["mode"] = (
                    "parallel" if used_pool else "serial-fallback"
                )
                for (value, system, _), metrics in zip(cells, metrics_list):
                    result.cells.append(SweepCell(value, system, metrics))
                return result
            result.metadata["mode"] = "serial-degraded"
            result.metadata["degrade_reason"] = degrade_reason
        for value in axis_values:
            for system in self.systems:
                engine = self.builder.build(system)
                requests = self._generate_workload(
                    axis_name, value, system, workload_factory
                )
                engine.submit(requests)
                metrics = engine.run(until=until)
                result.cells.append(SweepCell(value, system, metrics))
        return result

    # -- helpers ---------------------------------------------------------------

    def _generate_workload(self, axis_name: str, value: object, system: str,
                           workload_factory: WorkloadFactory,
                           ) -> List[Request]:
        requests = list(workload_factory(value, system))
        if not requests:
            raise ValueError(
                f"workload factory produced no requests for "
                f"{axis_name}={value!r}, system={system!r}"
            )
        return requests

    def _generate_cells(self, axis_name: str, axis_values: Sequence[object],
                        workload_factory: WorkloadFactory,
                        ) -> List[Tuple[object, str, List[Request]]]:
        """Materialise every cell's workload upfront, in serial order."""
        return [
            (value, system,
             self._generate_workload(axis_name, value, system,
                                     workload_factory))
            for value in axis_values
            for system in self.systems
        ]

    def _run_cells_parallel(
        self,
        cells: List[Tuple[object, str, List[Request]]],
        until: Optional[float],
        parallel: int,
    ) -> Tuple[List[MetricsCollector], bool]:
        """Run pre-generated cells on a pool; returns (metrics, used_pool)."""
        payloads = [(self.builder, system, requests, until)
                    for _, system, requests in cells]
        try:
            with ProcessPoolExecutor(max_workers=parallel) as pool:
                return list(pool.map(_run_sweep_cell, payloads)), True
        except Exception:
            # Identical results guaranteed: same requests (workers only
            # saw pickled copies), same builder, fresh engine per cell.
            return [_run_sweep_cell(payload) for payload in payloads], False
