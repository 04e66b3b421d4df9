"""Adapter-locality fleet routing — cache-state-aware placement at scale.

At S-LoRA scale (a thousand registered adapters, a few dozen GPU slots
per replica) the dominant dispatch cost is the adapter swap a
cache-miss dispatch forces, not queue depth.  This bench drives one
Zipf-skewed trace (1024 adapters, 8 replicas, 32 slots each — the hot
working set exceeds any single replica's slots but fits the fleet's)
through the three cluster dispatch policies:

* ``least-loaded`` — residency-blind: every replica's working set
  becomes the whole registry, so the fleet swaps constantly;
* ``adapter-affinity`` — crc32 hash pinning: perfect locality, but
  blind to load, so the Zipf head melts its home replicas' tails;
* ``locality`` — the fleet placement registry: consistent-hash homes
  with load-aware spill to adapter-resident replicas, hot-adapter
  replication, and load-bounded miss routing.

The contract: locality cuts total swap-ins to <= 0.6x least-loaded
(>= 40% less swap traffic) AND p99 TTFT to <= 0.8x least-loaded
(>= 20% better tail), while affinity's tail shows why locality without
load-awareness is not enough.  Terminals stay exactly-once under every
policy.

The headline rows run the synchronous-swap baseline engine (``s-lora``)
where the full wire time of every swap stalls the pipeline — the regime
where routing decides the tail.  A secondary table repeats the trace on
``v-lora`` engines (asynchronous overlapped swap) to show the swap-cut
carries over even when overlap already hides most of the stall.

Run it with ``pytest --benchmark-disable benchmarks/bench_locality.py``;
the result lands in ``results/adapter_locality_routing.json``.
"""

from _common import duplicate_terminals

from repro.core import SystemBuilder
from repro.runtime import AdapterPlacement, MultiGPUServer, reset_request_ids
from repro.workloads import RetrievalWorkload
from repro.workloads.skew import zipf_shares

NUM_ADAPTERS = 1024
NUM_GPUS = 8
GPU_SLOTS = 32
ADAPTER_RANK = 384
ZIPF_ALPHA = 1.0
ADAPTER_BURST = 4
RATE_RPS = 46.0
DURATION_S = 25.0
SEED = 0

#: Acceptance gates (the ISSUE's contract), vs least-loaded on the
#: synchronous-swap headline.
SWAP_GATE = 0.6         # locality swap-ins <= gate * least-loaded's
P99_GATE = 0.8          # locality p99 TTFT <= gate * least-loaded's

POLICIES = ("least-loaded", "adapter-affinity", "locality")


def _workload(adapter_ids, seed=SEED):
    """One Zipf-skewed retrieval trace shared by every policy run.

    ``zipf_shares`` puts the hot head on the low-index adapters; bursts
    of ``ADAPTER_BURST`` consecutive same-adapter requests model the
    per-stream locality real video workloads have (§6.1).
    """
    return RetrievalWorkload(
        adapter_ids,
        rate_rps=RATE_RPS,
        duration_s=DURATION_S,
        adapter_shares=zipf_shares(NUM_ADAPTERS, ZIPF_ALPHA),
        adapter_burst=ADAPTER_BURST,
        seed=seed,
    ).generate()


def _run(dispatch, system):
    """One policy over the trace; identical control loop for all three.

    Every run gets an :class:`AdapterPlacement` attached — for the
    baselines it is inert (their dispatch never consults it) but it
    forces the same epoched control loop locality runs under, so the
    A/B isolates the routing decision itself.
    """
    reset_request_ids()
    builder = SystemBuilder(
        num_adapters=NUM_ADAPTERS,
        gpu_adapter_slots=GPU_SLOTS,
        adapter_rank=ADAPTER_RANK,
        max_batch_size=32,
    )
    server = MultiGPUServer.replicate(
        lambda: builder.build(system), NUM_GPUS,
        dispatch=dispatch, placement=AdapterPlacement(),
    )
    requests = _workload(builder.adapter_ids)
    server.submit(requests)
    metrics = server.run()
    summary = metrics.summary()
    dupes, lost = duplicate_terminals(requests, metrics)
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "swap_ins": int(summary.get("swap_ins", 0)),
        "swap_in_seconds": round(summary.get("swap_in_seconds", 0.0), 3),
        "adapter_cache_hit_ratio": round(
            summary.get("adapter_cache_hit_ratio", 1.0), 4),
        "placement_spills": int(summary.get("placement_spills", 0)),
        "placement_replications": int(
            summary.get("placement_replications", 0)),
        "p50_ttft_s": round(metrics.ttft_percentile(50.0), 4),
        "p99_ttft_s": round(metrics.ttft_percentile(99.0), 4),
        "p99_latency_s": round(metrics.latency_percentile(99.0), 4),
        "iterations": metrics.iterations,
        "duplicate_terminals": dupes,
        "lost_requests": lost,
    }


def run_locality_bench():
    data = {
        "headline": {d: _run(d, "s-lora") for d in POLICIES},
        "async_swap": {d: _run(d, "v-lora") for d in POLICIES},
        "gates": {"swap_gate": SWAP_GATE, "p99_gate": P99_GATE},
        "scale": {
            "num_adapters": NUM_ADAPTERS,
            "num_gpus": NUM_GPUS,
            "gpu_adapter_slots": GPU_SLOTS,
            "adapter_rank": ADAPTER_RANK,
            "zipf_alpha": ZIPF_ALPHA,
            "adapter_burst": ADAPTER_BURST,
            "rate_rps": RATE_RPS,
            "duration_s": DURATION_S,
        },
        "seed": SEED,
    }
    return data


def _check(data):
    for table in ("headline", "async_swap"):
        for name, row in data[table].items():
            assert row["duplicate_terminals"] == 0, (table, name, row)
            assert row["lost_requests"] == 0, (table, name, row)
            assert (row["completed"] + row["aborted"]
                    == row["submitted"]), (table, name, row)

    head = data["headline"]
    ll, loc = head["least-loaded"], head["locality"]
    swap_ratio = loc["swap_ins"] / max(ll["swap_ins"], 1)
    p99_ratio = loc["p99_ttft_s"] / max(ll["p99_ttft_s"], 1e-9)
    assert swap_ratio <= SWAP_GATE, (
        f"locality swap-ins {loc['swap_ins']} vs least-loaded "
        f"{ll['swap_ins']}: ratio {swap_ratio:.2f} > gate {SWAP_GATE}")
    assert p99_ratio <= P99_GATE, (
        f"locality p99 TTFT {loc['p99_ttft_s']}s vs least-loaded "
        f"{ll['p99_ttft_s']}s: ratio {p99_ratio:.2f} > gate {P99_GATE}")
    # Locality must beat blind hashing's tail: load-awareness is the
    # half affinity is missing.
    aff = head["adapter-affinity"]
    assert loc["p99_ttft_s"] < aff["p99_ttft_s"], (loc, aff)

    # The swap cut carries over to the async-overlap engine too.
    a_ll = data["async_swap"]["least-loaded"]
    a_loc = data["async_swap"]["locality"]
    assert a_loc["swap_ins"] < a_ll["swap_ins"], (a_loc, a_ll)


def _rows(table):
    return [
        [name, r["completed"], r["swap_ins"], r["swap_in_seconds"],
         r["adapter_cache_hit_ratio"], r["placement_spills"],
         r["p50_ttft_s"], r["p99_ttft_s"]]
        for name, r in table.items()
    ]


def test_adapter_locality_routing(results):
    data = run_locality_bench()
    _check(data)
    headers = ["policy", "done", "swaps", "stall_s", "hit", "spills",
               "p50_ttft", "p99_ttft"]
    results.print_table(
        f"adapter-locality routing: {NUM_ADAPTERS} adapters, "
        f"{NUM_GPUS}x{GPU_SLOTS} slots, Zipf a={ZIPF_ALPHA}, "
        f"{RATE_RPS:.0f} rps (sync swap)",
        headers, _rows(data["headline"]),
    )
    results.print_table(
        "same trace, async overlapped swap (v-lora)",
        headers, _rows(data["async_swap"]),
    )
    results.save("adapter_locality_routing", data)
