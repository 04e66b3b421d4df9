"""Serve one workload's rate ladder in this (fresh) process.

    python bench/child.py --workload NAME --seed N --part K [--trace]

``bench/run.py`` starts this script once per part of a measurement,
with ``PYTHONPATH`` pointing at the checkout's ``src``.  Part ``K``
serves the ladder on traces derived from ``(seed, K)``.  The script
prints one JSON object: per rung, the raw TTFT, TPOT and latency
samples the parent pools across parts, the host times, the simulated
counters and the output checks that failed; a sha256 digest of every
request's ``(request_id, first_token_time, finish_time)`` over the
ladder; and, with ``--trace``, the per-layer attribution of host time.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
import repro  # noqa: E402  (timed: the program's import is set-up time)
import layers  # noqa: E402
import suite  # noqa: E402
from repro.runtime import reset_request_ids  # noqa: E402
IMPORT_S = time.perf_counter() - _T0

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _counters(metrics):
    """Simulated-system counters the per-layer table reports."""
    return {
        "iterations": metrics.iterations,
        "merged_iterations": metrics.mode_iterations.get("merged", 0),
        "mixture_iterations": metrics.mode_iterations.get("mixture", 0),
        "switches": metrics.num_mode_switches,
        "switch_s": metrics.switch_time_total,
        "swap_ins": metrics.swap_ins,
        "swap_stall_s": metrics.swap_in_seconds,
        "adapter_hits": metrics.adapter_cache_hits,
        "adapter_misses": metrics.adapter_cache_misses,
        "preemptions": metrics.num_preemptions,
        "kv_stall_iters": metrics.kv_stall_iters,
        "cost_hits": metrics.cost_cache_hits,
        "cost_misses": metrics.cost_cache_misses,
        "lora_extra_s": metrics.lora_extra_time_total,
        "spills": metrics.placement_spills,
        "replications": metrics.placement_replications,
        "kv_transfers": metrics.kv_transfers,
        "wire_s": metrics.kv_transfer_seconds,
    }


def _check(system, requests, arrival, metrics):
    """Output checks of one rung; returns the failures."""
    records, aborts = metrics.records, metrics.aborts
    terminal = [r.request_id for r in records] + [a.request_id for a in aborts]
    errors = []
    if len(arrival) != len(requests):
        errors.append("request ids repeat in the generated trace")
    if len(records) + len(aborts) != len(requests):
        errors.append(f"{len(records)} completed + {len(aborts)} failed "
                      f"!= {len(requests)} sent")
    if len(set(terminal)) != len(terminal):
        errors.append("a request id terminated more than once")
    if set(terminal) != set(arrival):
        errors.append("terminal request ids differ from the ids sent")
    # Disaggregated serving: each completed request crossed from the
    # prefill pool to the decode pool exactly once.
    if (getattr(system, "disagg", None) is not None
            and metrics.kv_transfers != len(records)):
        errors.append(f"{metrics.kv_transfers} KV transfers for "
                      f"{len(records)} completed requests")
    return errors


def serve_rung(workload, part, rung, seed, scale, digest, tracer=None):
    """Build, generate, submit and serve one rung; check its outputs."""
    rate = workload.rates()[rung]
    count = workload.rung_count(rung, scale)
    if tracer is not None:
        tracer.recording = rung == suite.HEADLINE
    start = time.perf_counter()
    reset_request_ids()
    system, adapter_ids = workload.make_system()
    requests = workload.make_requests(
        adapter_ids, rate, count, workload.rung_seed(seed, part, rung))
    # TTFT and latency count from the scheduled arrival.
    arrival = {r.request_id: r.arrival_time for r in requests}
    system.submit(requests)
    submitted = time.perf_counter()
    if tracer is not None:
        tracer.serving = True
    metrics = system.run()
    served = time.perf_counter()
    if tracer is not None:
        tracer.serving = tracer.recording = False

    records, aborts = metrics.records, metrics.aborts
    for r in sorted(records, key=lambda r: r.request_id):
        digest.update(f"{rung} {r.request_id} {r.first_token_time!r} "
                      f"{r.finish_time!r}\n".encode())
    for a in sorted(aborts, key=lambda a: a.request_id):
        digest.update(f"{rung} {a.request_id} abort {a.abort_time!r}\n"
                      .encode())

    ttft = [r.first_token_time - arrival[r.request_id] for r in records]
    tpot = [(r.finish_time - r.first_token_time) / (r.output_tokens - 1)
            if r.output_tokens >= 2 else None for r in records]
    good = sum(
        1 for t, p in zip(ttft, tpot)
        if t <= workload.ttft_limit_s and (
            workload.tpot_limit_s is None or p is None
            or p <= workload.tpot_limit_s))
    ends = [r.finish_time for r in records] + [a.abort_time for a in aborts]
    return {
        "rate_rps": rate,
        "sent": len(requests),
        "failed": len(requests) - len(records),
        "setup_s": submitted - start,
        "serve_s": served - submitted,
        "ttft": ttft,
        "tpot": [p for p in tpot if p is not None],
        "e2e": [r.finish_time - arrival[r.request_id] for r in records],
        "good": good,
        "drain_s": max(ends, default=0.0) - max(arrival.values()),
        "counters": _counters(metrics),
        "is_cluster": hasattr(system, "replicas"),
        "errors": _check(system, requests, arrival, metrics),
    }


def per_layer(tracer, rungs):
    """Per-layer host time plus the simulated counters of each layer."""
    total = {key: sum(r["counters"][key] for r in rungs)
             for key in rungs[0]["counters"]}
    sent = sum(r["sent"] for r in rungs)
    top = rungs[-1]

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in tracer.calls:
        out[f"{layer}.calls"] = (tracer.calls[layer], "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    out.update({
        "cluster.sim_drain_s": (top["drain_s"] if top["is_cluster"] else 0.0,
                                "s"),
        "placement.sim_spills": (total["spills"], "count"),
        "placement.sim_replications": (total["replications"], "count"),
        "disagg.sim_kv_transfers": (total["kv_transfers"], "count"),
        "disagg.sim_wire_s": (total["wire_s"], "s"),
        "engine.sim_iters_per_req": (share(total["iterations"], sent),
                                     "iter/req"),
        "scheduler.sim_merged_share": (
            share(total["merged_iterations"], total["iterations"]),
            "fraction"),
        "scheduler.sim_mixture_share": (
            share(total["mixture_iterations"], total["iterations"]),
            "fraction"),
        "switcher.sim_switches": (total["switches"], "count"),
        "switcher.sim_switch_s": (total["switch_s"], "s"),
        "adapters.sim_swap_ins": (total["swap_ins"], "count"),
        "adapters.sim_swap_stall_s": (total["swap_stall_s"], "s"),
        "adapters.sim_hit_ratio": (
            share(total["adapter_hits"],
                  total["adapter_hits"] + total["adapter_misses"]),
            "fraction"),
        "kv_cache.sim_preemptions": (total["preemptions"], "count"),
        "kv_cache.sim_stall_iters": (total["kv_stall_iters"], "count"),
        "costcache.hit_ratio": (
            share(total["cost_hits"],
                  total["cost_hits"] + total["cost_misses"]),
            "fraction"),
        "modes.sim_lora_extra_s": (total["lora_extra_s"], "s"),
        "trace.unattributed_s": (
            sum(r["serve_s"] for r in rungs) - tracer.serve_self_s, "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def run(workload_name, seed, part=0, trace=False, scale=1.0, trace_out=None):
    """Serve the whole ladder once; returns the JSON-ready result."""
    workload = suite.WORKLOADS[workload_name]
    tracer = None
    if trace:
        tracer = layers.LayerTracer()
        tracer.install()
    digest = hashlib.sha256()
    rungs = [serve_rung(workload, part, i, seed, scale, digest, tracer)
             for i in range(len(suite.LADDER))]
    result = {
        "workload": workload_name,
        "seed": seed,
        "part": part,
        "digest": digest.hexdigest(),
        "import_s": IMPORT_S,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ttft_limit_s": workload.ttft_limit_s,
        "tpot_limit_s": workload.tpot_limit_s,
        "drain_limit_s": suite.DRAIN_LIMIT_S,
        "headline": suite.HEADLINE,
        "rungs": rungs,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, rungs)
        result["serve_self_s"] = tracer.serve_self_s
        if trace_out is not None:
            tracer.write_chrome_trace(trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    source = Path(repro.__file__).resolve().parent.parent
    if source != SRC_DIR:
        print(f"repro was imported from {source}, not from {SRC_DIR}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.part, args.trace,
                         args.scale, args.trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
