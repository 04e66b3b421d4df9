"""Kernel-search bench: vectorized ATMM tiling search + persistent store.

Not a paper figure — this measures the repro's stand-in for the paper's
CUTLASS-profiler sweep (§4.3.2, Algorithm 2) and its ahead-of-time
kernel store (§5), at the exact configuration ``default_table()`` uses
in every serving engine (A100-80GB, hidden dim 4096, ranks
{16, 32, 64, 128}, M up to 16384, coarse space):

* **search**: full table build via the seed's scalar ``shapes x
  configs`` double loop vs the batched-numpy path with ε-dominance
  pruning.  Winners, latencies, and the fallback must be identical
  entry-for-entry (``winners_identical``); the vectorized build must be
  >= 10x faster end to end (construction + sweep).
* **store**: cold save + warm load of the searched table through
  :class:`~repro.kernels.store.KernelTableStore`.  The warm load must
  beat *any* search — including the vectorized one — by >= 50x.
* **lookup**: the runtime O(1) path (bit-trick ``bucket_m`` + memo),
  reported as ns/lookup.

Any divergence raises, so the perf-smoke CI job fails if the vectorized
winners ever drift from the scalar reference.  Run it with
``pytest --benchmark-disable benchmarks/bench_kernel_search.py``; the
result lands in ``results/kernel_search.json``.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict

from repro.hardware.gpu import get_gpu
from repro.kernels.search import OptimalTilingTable, TilingSearch
from repro.kernels.shapes import GemmShape
from repro.kernels.store import KernelTableStore, table_fingerprint

#: The exact ``default_table()`` configuration.
GPU_NAME = "A100-80GB"
HIDDEN_DIMS = (4096,)
RANKS = (16, 32, 64, 128)
MAX_M = 16384
COARSE = True

SEARCH_REPEATS = 3
LOAD_REPEATS = 5
SPEEDUP_FLOOR = 10.0
WARM_LOAD_FLOOR = 50.0


def _build_table(gpu, vectorize: bool):
    """One end-to-end table build (construction + sweep), timed."""
    start = time.perf_counter()
    search = TilingSearch(gpu, coarse=COARSE)
    pairs = search.kn_pairs_for_model(HIDDEN_DIMS, RANKS)
    extra = [GemmShape(d, r, d) for d in HIDDEN_DIMS for r in RANKS]
    table, report = search.search(pairs, max_m=MAX_M, extra_shapes=extra,
                                  vectorize=vectorize)
    wall = time.perf_counter() - start
    return wall, table, report


def _tables_identical(a: OptimalTilingTable, b: OptimalTilingTable) -> bool:
    return (a._table == b._table and a._latency == b._latency
            and a.fallback == b.fallback)


def run_search_bench(gpu) -> Dict[str, object]:
    # Warm numpy (first ufunc dispatch pays one-time import costs that
    # would otherwise be billed to whichever variant runs first).
    _build_table(gpu, vectorize=True)

    walls = {"scalar": [], "vectorized": []}
    tables = {}
    report = None
    for _ in range(SEARCH_REPEATS):
        wall, table, _ = _build_table(gpu, vectorize=False)
        walls["scalar"].append(wall)
        tables["scalar"] = table
        wall, table, report = _build_table(gpu, vectorize=True)
        walls["vectorized"].append(wall)
        tables["vectorized"] = table

    identical = _tables_identical(tables["scalar"], tables["vectorized"])
    if not identical:
        diverged = [
            key for key in tables["scalar"]._table
            if tables["scalar"]._table.get(key)
            != tables["vectorized"]._table.get(key)
            or tables["scalar"]._latency.get(key)
            != tables["vectorized"]._latency.get(key)
        ]
        raise AssertionError(
            f"vectorized winners diverged from scalar for "
            f"{len(diverged)} of {len(tables['scalar']._table)} shapes: "
            f"{diverged[:5]}"
        )
    scalar = min(walls["scalar"])
    vectorized = min(walls["vectorized"])
    return {
        "num_shapes": report.num_shapes,
        "num_configs": report.num_configs,
        "num_profiles": report.num_profiles,
        "num_evals": report.num_evals,
        "pruned_configs": report.pruned_configs,
        "entries": len(tables["vectorized"]),
        "wall_seconds": {
            "scalar": round(scalar, 4),
            "vectorized": round(vectorized, 4),
        },
        "speedup": round(scalar / vectorized, 1),
        "winners_identical": True,
    }, tables["vectorized"], min(scalar, vectorized)


def run_store_bench(gpu, table: OptimalTilingTable,
                    min_search_s: float) -> Dict[str, object]:
    fingerprint = table_fingerprint(gpu, HIDDEN_DIMS, RANKS, MAX_M, COARSE)
    with tempfile.TemporaryDirectory(prefix="kernel-store-") as tmp:
        store = KernelTableStore(tmp)
        start = time.perf_counter()
        path = store.save(fingerprint, table, meta={"gpu": gpu.name})
        cold_save = time.perf_counter() - start
        size = path.stat().st_size

        loads = []
        loaded = None
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            loaded = store.load(fingerprint)
            loads.append(time.perf_counter() - start)
        warm_load = min(loads)
        if loaded is None or not _tables_identical(loaded, table):
            raise AssertionError("store round-trip changed the table")
    return {
        "file_bytes": size,
        "cold_save_ms": round(cold_save * 1e3, 3),
        "warm_load_ms": round(warm_load * 1e3, 3),
        "load_speedup_vs_search": round(min_search_s / warm_load, 1),
        "roundtrip_identical": True,
    }


def run_lookup_bench(table: OptimalTilingTable,
                     iters: int = 20_000) -> Dict[str, object]:
    shapes = [(m, 4096, r) for m in (1, 17, 300, 4096) for r in RANKS]
    start = time.perf_counter()
    for i in range(iters):
        m, k, n = shapes[i % len(shapes)]
        table.lookup(m, k, n)
    wall = time.perf_counter() - start
    return {
        "iterations": iters,
        "ns_per_lookup": round(wall / iters * 1e9, 1),
    }


def run_bench() -> Dict[str, object]:
    gpu = get_gpu(GPU_NAME)
    search_payload, table, min_search_s = run_search_bench(gpu)
    return {
        "bench": "kernel_search",
        "gpu": GPU_NAME,
        "hidden_dims": list(HIDDEN_DIMS),
        "ranks": list(RANKS),
        "max_m": MAX_M,
        "coarse": COARSE,
        "search": search_payload,
        "store": run_store_bench(gpu, table, min_search_s),
        "lookup": run_lookup_bench(table),
    }


def _print_payload(payload: Dict[str, object]) -> None:
    search = payload["search"]
    store = payload["store"]
    lookup = payload["lookup"]
    print(f"search grid: {search['num_shapes']} shapes x "
          f"{search['num_configs']} configs "
          f"({search['num_evals']} of {search['num_profiles']} cells "
          f"evaluated after pruning)")
    print(f"  scalar     {search['wall_seconds']['scalar'] * 1e3:>9.1f} ms")
    print(f"  vectorized {search['wall_seconds']['vectorized'] * 1e3:>9.1f} ms")
    print(f"  speedup: {search['speedup']}x "
          f"(winners identical: {search['winners_identical']})")
    print(f"store: {store['file_bytes']}B file, "
          f"save {store['cold_save_ms']} ms, "
          f"warm load {store['warm_load_ms']} ms "
          f"({store['load_speedup_vs_search']}x faster than any search)")
    print(f"lookup: {lookup['ns_per_lookup']} ns")


def _assert_floors(payload: Dict[str, object]) -> None:
    speedup = payload["search"]["speedup"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized search speedup {speedup}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    load_speedup = payload["store"]["load_speedup_vs_search"]
    assert load_speedup >= WARM_LOAD_FLOOR, (
        f"warm store load only {load_speedup}x faster than search; "
        f"floor is {WARM_LOAD_FLOOR}x"
    )


def test_kernel_search(benchmark, results):
    payload = run_bench()
    _print_payload(payload)
    _assert_floors(payload)
    results.print_table(
        "ATMM tiling search (full default_table build)",
        ["path", "wall (ms)"],
        [["scalar", payload["search"]["wall_seconds"]["scalar"] * 1e3],
         ["vectorized", payload["search"]["wall_seconds"]["vectorized"] * 1e3],
         ["store warm load", payload["store"]["warm_load_ms"]]],
    )
    results.save("kernel_search", payload)

    gpu = get_gpu(GPU_NAME)
    search = TilingSearch(gpu, coarse=COARSE)
    pairs = search.kn_pairs_for_model(HIDDEN_DIMS, RANKS)
    table, _ = search.search(pairs, max_m=MAX_M)
    benchmark.pedantic(lambda: table.lookup(300, 4096, 64),
                       rounds=3, iterations=1000)
