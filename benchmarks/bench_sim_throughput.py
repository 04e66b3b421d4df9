"""Simulator scale-out bench: memoized engine + parallel sweeps.

Not a paper figure — this measures the simulator itself, in simulated
requests per wall-clock second, so the evaluation suite can scale to
million-request traces:

* **engine**: one 50k-request Azure-shaped retrieval trace (bursty
  arrivals at ~1.5x capacity, so the backlog deepens the way long
  traces do) served by the engine in a spawned process, so its
  ``peak_rss_mb`` is its own footprint.  This leg has no speed floor:
  host-speed regressions are the repo benchmark's ``sim_rps`` bound
  (``BENCHMARK.json``), the simulated behaviour is pinned by the golden
  snapshots in ``tests/runtime/golden/``, and that the engine's fast
  paths leave it unchanged is the differential oracle's property
  (``tests/runtime/test_oracle.py``).
* **sweep**: the Fig 14 retrieval grid (4 systems x 4 rates) run
  serially and with ``SweepRunner(parallel=4)``.  Cell metrics must be
  identical; the parallel run must be >= 3x faster.
* **engine_stream**: a task-head trace drawn from
  :meth:`AzureTraceGenerator.event_blocks` streamed through the engine
  one chunk at a time: build the chunk's ``Request`` objects,
  ``submit`` them, ``run(until=<next chunk's first arrival>)``, copy
  the chunk's terminal records into numpy columns and clear them.
  Live request and record objects stay bounded by a chunk, so the same
  code scales to ``--ten-million`` / ``BENCH_SIM_10M=1``, which raise
  the leg from ``num_requests`` to 10M requests (recorded as
  ``engine_10m``).

Results land in ``BENCH_sim_throughput.json`` at the repo root (plus
``results/sim_throughput.json`` when run under pytest).  Scale knobs:

* script: ``python benchmarks/bench_sim_throughput.py [num_requests]``
  (default 50000 — the acceptance configuration);
* pytest / CI smoke: ``BENCH_SIM_REQUESTS`` env var (default 4000 so
  the suite stays quick); the sweep's speedup floor is only asserted
  at full scale.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import resource
import sys
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.sweep import SweepRunner
from repro.core.builder import SystemBuilder
from repro.runtime.request import Request, reset_request_ids
from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator
from repro.workloads.retrieval import RetrievalWorkload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_sim_throughput.json"

FULL_SCALE_REQUESTS = 50_000
TEN_MILLION = 10_000_000
#: ~1.5x the 8-adapter v-lora capacity (~8 rps): the backlog grows for
#: the whole arrival window, which is what makes long traces expensive.
ENGINE_RATE_RPS = 12.0
SWEEP_RATES = (2.0, 6.0, 10.0, 14.0)
SWEEP_SYSTEMS = ("v-lora", "s-lora", "punica", "dlora")
SWEEP_DURATION_S = 40.0
SWEEP_PARALLEL = 4
SEED = 14
#: Requests built, submitted and drained per step of the streamed leg.
STREAM_CHUNK = 2_000


def _comparable_summary(metrics) -> Dict[str, float]:
    """Metrics summary minus the cache's own observability counters."""
    summary = metrics.summary()
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    return summary


def _generate_trace(builder: SystemBuilder, num_requests: int,
                    ) -> List[Request]:
    """A deterministic Azure-shaped trace of exactly ``num_requests``."""
    duration_s = num_requests / ENGINE_RATE_RPS * 1.1
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=ENGINE_RATE_RPS,
        duration_s=duration_s, use_task_heads=True, seed=SEED,
    ).generate()
    if len(requests) < num_requests:
        raise RuntimeError(
            f"trace too short: {len(requests)} < {num_requests}"
        )
    return requests[:num_requests]


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _in_child(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` in a fresh spawned process.

    ``ru_maxrss`` is a process-lifetime high-water mark, so a leg run
    after another would report the larger of the two footprints; a
    one-shot child reports its own.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args, kwargs)


def _run_engine(num_requests: int) -> Tuple[float, Dict[str, float], float]:
    """(wall seconds, comparable summary, peak RSS MiB) of the engine."""
    builder = SystemBuilder(num_adapters=8)
    requests = _generate_trace(builder, num_requests)
    engine = builder.build("v-lora")
    engine.submit(requests)
    start = time.perf_counter()
    metrics = engine.run()
    wall = time.perf_counter() - start
    return wall, _comparable_summary(metrics), _peak_rss_mb()


def run_engine_bench(num_requests: int) -> Dict[str, object]:
    wall, summary, rss = _in_child(_run_engine, num_requests)
    return {
        "num_requests": num_requests,
        "rate_rps": ENGINE_RATE_RPS,
        "wall_seconds": {"optimized": round(wall, 3)},
        "sim_requests_per_sec": {
            "optimized": round(num_requests / wall, 1)
        },
        "peak_rss_mb": {"optimized": round(rss, 1)},
        "completed": summary["completed"],
    }


def _sweep_factory(builder: SystemBuilder, duration_s: float):
    def factory(rate: float, system: str) -> List[Request]:
        return RetrievalWorkload(
            builder.adapter_ids, rate_rps=float(rate),
            duration_s=duration_s,
            use_task_heads=(system == "v-lora"), seed=SEED,
        ).generate()
    return factory


def _sweep_cells(result) -> List[Tuple[object, str, Dict[str, float]]]:
    return [(c.axis_value, c.system, _comparable_summary(c.metrics))
            for c in result.cells]


def run_sweep_bench(duration_s: float = SWEEP_DURATION_S,
                    ) -> Dict[str, object]:
    builder = SystemBuilder(num_adapters=8)
    runner = SweepRunner(builder, systems=SWEEP_SYSTEMS)
    factory = _sweep_factory(builder, duration_s)

    reset_request_ids()
    start = time.perf_counter()
    serial = runner.run("rate_rps", SWEEP_RATES, factory)
    serial_wall = time.perf_counter() - start

    reset_request_ids()
    start = time.perf_counter()
    parallel = runner.run("rate_rps", SWEEP_RATES, factory,
                          parallel=SWEEP_PARALLEL)
    parallel_wall = time.perf_counter() - start

    if _sweep_cells(serial) != _sweep_cells(parallel):
        raise AssertionError("parallel sweep diverged from serial sweep")
    mode = parallel.metadata.get("mode")
    payload = {
        "cells": len(serial.cells),
        "systems": list(SWEEP_SYSTEMS),
        "rates": list(SWEEP_RATES),
        "duration_s": duration_s,
        "parallel": SWEEP_PARALLEL,
        "wall_seconds": {
            "serial": round(serial_wall, 3),
            "parallel": round(parallel_wall, 3),
        },
        "cells_identical": True,
        # What the parallel=N request actually did (the runner
        # auto-degrades to serial on single-CPU hosts / tiny grids).
        "mode": mode,
        "degrade_reason": parallel.metadata.get("degrade_reason"),
    }
    # A serial-degraded "parallel" run is two serial runs; the ratio is
    # timing noise, not a speedup — don't report one.
    if mode == "parallel":
        payload["speedup"] = round(serial_wall / parallel_wall, 2)
    return payload


def _request_chunks(adapter_ids: List[str], num_requests: int,
                    ) -> Iterator[List[Request]]:
    """The streamed leg's trace, ``STREAM_CHUNK`` requests at a time.

    Arrivals and prompt lengths come from the Azure generator's numpy
    blocks with one uniform adapter draw per block.  Every request is
    answered by a task head (one decode round), which keeps the
    workload classification-shaped like the paper's vision tasks; the
    trace's output lengths would make this a multi-hour generation
    bench instead.
    """
    trace = AzureTraceGenerator(AzureTraceConfig(
        rate_rps=ENGINE_RATE_RPS, seed=SEED))
    rng = np.random.default_rng(SEED)
    for block in trace.event_blocks(num_requests):
        n = block["arrival"].size
        adapters = rng.integers(0, len(adapter_ids), size=n)
        for lo in range(0, n, STREAM_CHUNK):
            part = slice(lo, lo + STREAM_CHUNK)
            yield [
                Request(adapter_id=adapter_ids[a], arrival_time=t,
                        input_tokens=i, output_tokens=1,
                        use_task_head=True)
                for a, t, i in zip(adapters[part].tolist(),
                                   block["arrival"][part].tolist(),
                                   block["input_tokens"][part].tolist())
            ]


def _drain_records(metrics, columns: Dict[str, List[np.ndarray]]) -> None:
    """Move the terminal records emitted so far into numpy columns."""
    records, aborts = metrics.records, metrics.aborts
    for name, values in (
        ("arrival", [r.arrival_time for r in records]),
        ("first_token", [r.first_token_time for r in records]),
        ("finish", [r.finish_time for r in records]),
        ("tokens", [r.input_tokens + r.output_tokens for r in records]),
        ("abort_arrival", [a.arrival_time for a in aborts]),
        ("abort_time", [a.abort_time for a in aborts]),
    ):
        columns[name].append(np.asarray(values, dtype=np.float64))
    records.clear()
    aborts.clear()


def _stream_summary(metrics, columns: Dict[str, List[np.ndarray]],
                    ) -> Dict[str, float]:
    """Headline numbers from the streamed columns.

    Float sums use numpy's pairwise accumulation, so values can differ
    from :meth:`MetricsCollector.summary` in the last ulps; counters
    are exact.
    """
    col = {}
    for name, chunks in columns.items():
        col[name] = np.concatenate(chunks)
        chunks.clear()
    out: Dict[str, float] = {
        "completed": float(col["finish"].size),
        "aborted": float(col["abort_time"].size),
        "iterations": float(metrics.iterations),
        "mode_switches": float(metrics.num_mode_switches),
        "preemptions": float(metrics.num_preemptions),
        "switch_time_total_s": metrics.switch_time_total,
    }
    if col["finish"].size:
        latency = col["finish"] - col["arrival"]
        out["avg_token_latency_ms"] = float(
            latency.sum() / col["tokens"].sum()) * 1e3
        events_start = min(col["arrival"].min(),
                           col["abort_arrival"].min(initial=np.inf))
        events_end = max(col["finish"].max(),
                         col["abort_time"].max(initial=-np.inf))
        out["goodput_rps"] = latency.size / max(
            float(events_end - events_start), 1e-9)
        out["throughput_rps"] = latency.size / max(
            float(col["finish"].max() - col["arrival"].min()), 1e-9)
        out["mean_latency_s"] = float(latency.mean())
        out["p50_latency_s"] = float(np.percentile(latency, 50))
        out["p99_latency_s"] = float(np.percentile(latency, 99))
        out["mean_ttft_s"] = float(
            (col["first_token"] - col["arrival"]).mean())
    return out


def run_stream_bench(num_requests: int) -> Dict[str, object]:
    """Stream ``num_requests`` task-head requests through the engine.

    Each chunk is submitted and run up to the next chunk's first
    arrival, so nothing the engine sees differs from one upfront
    ``submit`` (tests/runtime/test_engine.py checks that equivalence);
    only the live object count is bounded.
    """
    builder = SystemBuilder(num_adapters=8)
    engine = builder.build("v-lora")
    reset_request_ids()
    columns: Dict[str, List[np.ndarray]] = defaultdict(list)
    start = time.perf_counter()
    chunks = _request_chunks(builder.adapter_ids, num_requests)
    chunk = next(chunks, None)
    while chunk is not None:
        following = next(chunks, None)
        engine.submit(chunk)
        engine.run(until=(following[0].arrival_time
                          if following is not None else None))
        _drain_records(engine.metrics, columns)
        chunk = following
    summary = _stream_summary(engine.metrics, columns)
    wall = time.perf_counter() - start
    if summary["completed"] + summary["aborted"] != num_requests:
        raise AssertionError(
            f"streamed leg lost requests: {summary['completed']:.0f} "
            f"completed + {summary['aborted']:.0f} aborted "
            f"!= {num_requests}"
        )
    return {
        "num_requests": num_requests,
        "rate_rps": ENGINE_RATE_RPS,
        "chunk": STREAM_CHUNK,
        "wall_seconds": round(wall, 3),
        "sim_requests_per_sec": round(num_requests / wall, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        **summary,
    }


def run_bench(num_requests: int,
              ten_million: bool = False) -> Dict[str, object]:
    full_scale = num_requests >= FULL_SCALE_REQUESTS
    # The parallel sweep only expresses a wall-clock win when the host
    # actually has cores to fan out over; the cell-for-cell identity
    # check holds regardless.
    cpu_count = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)
    payload = {
        "bench": "sim_throughput",
        "full_scale": full_scale,
        "cpu_count": cpu_count,
        "engine": run_engine_bench(num_requests),
        "sweep": run_sweep_bench(
            duration_s=150.0 if full_scale else SWEEP_DURATION_S
        ),
    }
    stream = _in_child(run_stream_bench,
                       TEN_MILLION if ten_million else num_requests)
    if ten_million:
        payload["engine_10m"] = stream
    else:
        payload["engine_stream"] = stream
        if OUT_PATH.exists():
            # Keep the last recorded 10M leg: it's opt-in (a quarter
            # hour) and dropping it on every small rerun would lose the
            # record.
            try:
                prior = json.loads(OUT_PATH.read_text())
                if "engine_10m" in prior:
                    payload["engine_10m"] = prior["engine_10m"]
            except (ValueError, OSError):
                pass
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _print_payload(payload: Dict[str, object]) -> None:
    engine = payload["engine"]
    sweep = payload["sweep"]
    print(f"engine trace: {engine['num_requests']} requests @ "
          f"{engine['rate_rps']} rps")
    for name, wall in engine["wall_seconds"].items():
        rps = engine["sim_requests_per_sec"][name]
        mb = engine["peak_rss_mb"][name]
        print(f"  {name:<16} {wall:>8.2f}s  {rps:>9.1f} sim req/s"
              f"  (rss <= {mb:.0f} MiB)")
    print(f"sweep grid: {sweep['cells']} cells, parallel={sweep['parallel']} "
          f"(mode: {sweep['mode']})")
    print(f"  serial   {sweep['wall_seconds']['serial']:>8.2f}s")
    print(f"  parallel {sweep['wall_seconds']['parallel']:>8.2f}s")
    if "speedup" in sweep:
        print(f"  speedup: {sweep['speedup']}x "
              f"(cells identical: {sweep['cells_identical']})")
    else:
        print(f"  (serial-degraded: no speedup reported; "
              f"cells identical: {sweep['cells_identical']})")
    for key in ("engine_stream", "engine_10m"):
        leg = payload.get(key)
        if leg:
            print(f"streamed leg ({key}): {leg['num_requests']} requests "
                  f"in {leg['wall_seconds']:.1f}s, "
                  f"{leg['sim_requests_per_sec']:.0f} sim req/s, "
                  f"rss <= {leg['peak_rss_mb']:.0f} MiB, "
                  f"{leg['iterations']:.0f} iterations")
    print(f"wrote {OUT_PATH}")


def _assert_floors(payload: Dict[str, object]) -> None:
    sweep_speedup = payload["sweep"].get("speedup")
    if not payload["full_scale"]:
        print(f"(small trace: sweep speedup floor not asserted; "
              f"sweep {sweep_speedup})")
        return
    if payload["cpu_count"] >= SWEEP_PARALLEL:
        assert payload["sweep"]["mode"] == "parallel", (
            "sweep degraded to serial on a multi-core host"
        )
        assert sweep_speedup >= 3.0, (
            f"sweep speedup {sweep_speedup}x below the 3x floor"
        )
    else:
        print(f"(only {payload['cpu_count']} CPU(s): the 3x parallel-sweep "
              f"floor needs >= {SWEEP_PARALLEL} cores; "
              f"identity still asserted)")


def test_sim_throughput(benchmark, results):
    num_requests = int(os.environ.get("BENCH_SIM_REQUESTS", "4000"))
    payload = run_bench(
        num_requests, ten_million=bool(os.environ.get("BENCH_SIM_10M")))
    _print_payload(payload)
    _assert_floors(payload)
    results.print_table(
        "Simulator throughput (sim requests / wall second)",
        ["variant", "wall (s)", "sim req/s"],
        [[name, wall, payload["engine"]["sim_requests_per_sec"][name]]
         for name, wall in payload["engine"]["wall_seconds"].items()],
    )
    results.save("sim_throughput", payload)

    def one_iteration():
        builder = SystemBuilder(num_adapters=4)
        engine = builder.build("v-lora")
        wl = RetrievalWorkload(builder.adapter_ids, rate_rps=4.0,
                               duration_s=1.0, seed=0)
        engine.submit(wl.generate())
        engine.step()

    benchmark.pedantic(one_iteration, rounds=3, iterations=1)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ten_million = "--ten-million" in argv
    if ten_million:
        argv.remove("--ten-million")
    if os.environ.get("BENCH_SIM_10M"):
        ten_million = True
    num_requests = int(argv[0]) if argv else FULL_SCALE_REQUESTS
    payload = run_bench(num_requests, ten_million=ten_million)
    _print_payload(payload)
    _assert_floors(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
