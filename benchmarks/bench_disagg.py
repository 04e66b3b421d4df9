"""Disaggregated prefill/decode serving vs colocated, at equal GPU count.

A colocated continuous-batching fleet interleaves prefills and decodes
on every replica: a fresh arrival's first token waits behind whole
decode iterations (head-of-line blocking), and the blocking compounds
with load.  Disaggregation (docs/DISAGGREGATION.md) splits the same
GPU count into a prefill pool and a decode pool with a priced KV
hand-off: arrivals only ever queue behind other *prefills*, so TTFT
decouples from decode residency — at the cost of one size-proportional
KV transfer per request, which this simulator charges on the wire like
an adapter swap-in.

The A/B: the same trace through

* ``colocated``  — N replicas, least-loaded dispatch (the baseline);
* ``disagg``     — N/2 prefill + N/2 decode replicas (equal GPU count).

Contract (CI-gated): disagg p99 TTFT <= 0.9x colocated at equal GPU
count at every swept rate, terminals stay exactly-once on both sides
of the boundary, and every request that finished on the disagg fleet
paid exactly one KV transfer (conservation of hand-offs).

Run it with ``pytest --benchmark-disable benchmarks/bench_disagg.py``;
the result lands in ``results/disagg_vs_colocated.json``.
"""

from _common import duplicate_terminals

from repro.core import SystemBuilder
from repro.runtime import DisaggConfig, MultiGPUServer, reset_request_ids
from repro.workloads import RetrievalWorkload

NUM_ADAPTERS = 8
NUM_GPUS = 4
DURATION_S = 20.0
RATES_RPS = (20.0, 40.0)
SEED = 0

#: Acceptance gate (the ISSUE's contract): disagg decode-path p99 TTFT
#: at most 0.9x the colocated fleet's, same GPU count, every rate.
P99_TTFT_GATE = 0.9


def _workload(adapter_ids, rate_rps, seed=SEED):
    """Decode-heavy retrieval trace (LM-head output, no task heads):
    the regime where colocated prefills queue behind decode batches."""
    return RetrievalWorkload(
        adapter_ids,
        rate_rps=rate_rps,
        duration_s=DURATION_S,
        use_task_heads=False,
        seed=seed,
    ).generate()


def _run(mode, rate_rps):
    reset_request_ids()
    builder = SystemBuilder(num_adapters=NUM_ADAPTERS, max_batch_size=8)
    disagg = None
    if mode == "disagg":
        disagg = DisaggConfig(prefill_replicas=NUM_GPUS // 2,
                              decode_replicas=NUM_GPUS // 2)
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), NUM_GPUS, disagg=disagg,
    )
    requests = _workload(builder.adapter_ids, rate_rps)
    server.submit(requests)
    metrics = server.run()
    summary = metrics.summary()
    dupes, lost = duplicate_terminals(requests, metrics)
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "p50_ttft_s": round(metrics.ttft_percentile(50.0), 4),
        "p99_ttft_s": round(metrics.ttft_percentile(99.0), 4),
        "p99_latency_s": round(metrics.latency_percentile(99.0), 4),
        "kv_transfers": int(summary.get("kv_transfers", 0)),
        "kv_transfer_seconds": round(
            summary.get("kv_transfer_seconds", 0.0), 4),
        "kv_transfer_gb": round(
            summary.get("kv_transfer_bytes", 0.0) / 2**30, 3),
        "mode_switches": int(summary.get("mode_switches", 0)),
        "duplicate_terminals": dupes,
        "lost_requests": lost,
    }


def run_disagg_bench():
    return {
        "rates": {
            f"{rate:g}": {mode: _run(mode, rate)
                          for mode in ("colocated", "disagg")}
            for rate in RATES_RPS
        },
        "gates": {"p99_ttft_gate": P99_TTFT_GATE},
        "scale": {
            "num_adapters": NUM_ADAPTERS,
            "num_gpus": NUM_GPUS,
            "prefill_replicas": NUM_GPUS // 2,
            "decode_replicas": NUM_GPUS // 2,
            "duration_s": DURATION_S,
            "rates_rps": list(RATES_RPS),
        },
        "seed": SEED,
    }


def _check(data):
    for rate, pair in data["rates"].items():
        for mode, row in pair.items():
            assert row["duplicate_terminals"] == 0, (rate, mode, row)
            assert row["lost_requests"] == 0, (rate, mode, row)
            assert (row["completed"] + row["aborted"]
                    == row["submitted"]), (rate, mode, row)
        coloc, dis = pair["colocated"], pair["disagg"]
        # Equal GPU count, equal trace: disagg must not lose work.
        assert dis["completed"] == coloc["completed"], (rate, pair)
        # Every request that crossed the boundary paid exactly one
        # transfer; nothing crossed twice for free.
        assert dis["kv_transfers"] >= dis["completed"], (rate, dis)
        assert coloc["kv_transfers"] == 0, (rate, coloc)
        ratio = dis["p99_ttft_s"] / max(coloc["p99_ttft_s"], 1e-9)
        assert ratio <= P99_TTFT_GATE, (
            f"rate {rate}: disagg p99 TTFT {dis['p99_ttft_s']}s vs "
            f"colocated {coloc['p99_ttft_s']}s: ratio {ratio:.3f} > "
            f"gate {P99_TTFT_GATE}")


def _rows(data):
    rows = []
    for rate, pair in sorted(data["rates"].items(), key=lambda kv: float(kv[0])):
        for mode, r in pair.items():
            rows.append([rate, mode, r["completed"], r["p50_ttft_s"],
                         r["p99_ttft_s"], r["p99_latency_s"],
                         r["kv_transfers"], r["kv_transfer_seconds"]])
    return rows


def test_disagg_vs_colocated(results):
    data = run_disagg_bench()
    _check(data)
    results.print_table(
        f"disaggregated prefill/decode vs colocated "
        f"({NUM_GPUS} GPUs either way, {DURATION_S:.0f}s trace)",
        ["rps", "fleet", "done", "p50_ttft", "p99_ttft", "p99_lat",
         "kv_xfers", "wire_s"],
        _rows(data),
    )
    results.save("disagg_vs_colocated", data)
