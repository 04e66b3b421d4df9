"""Tail-tolerant dispatch — hedged requests vs the straggler tail.

Interactive vision applications live and die by p99 TTFT (§6.1): one
straggling replica (slow GPU, swap-stalled adapter) drags the tail even
when the rest of the fleet is idle.  This bench drives one fixed chaos
scenario — an 8x straggler plus adapter-swap slowdowns on an 8-replica
cluster — through three experiments:

* **hedged vs unhedged**: identical epoched control loops, hedging the
  only difference.  The contract: hedging cuts p99 TTFT to <= 0.8x the
  unhedged tail while adding <= 10% duplicate work (iterations), and
  the lease fence holds exactly-once terminals throughout;
* **threshold frontier**: the hedge percentile (p90/p95/p99) trades
  spawned twins against tail latency — lower percentiles hedge more;
* **retry storm**: an aggressive fixed hedge threshold wants to hedge
  nearly everything; the per-class retry budget must cap the
  amplification (and count the denials) instead of doubling load.

Standalone mode (``python benchmarks/bench_tail.py``) writes
``BENCH_tail.json`` and exits non-zero on any contract break (CI chaos
smoke; the full scenario runs in seconds, so there is no reduced
``--small`` variant — at half scale the fleet diverts around the
straggler and no tail forms to cut).
"""

from _common import ResultSink  # noqa: F401  (fixture lives in conftest)

from repro.core import SystemBuilder
from repro.runtime import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    HedgeConfig,
    MultiGPUServer,
    RetryBudget,
    RetryBudgetConfig,
    reset_request_ids,
)
from repro.workloads import RetrievalWorkload

ADAPTERS = 4
RATE_RPS = 20.0
DURATION_S = 6.0
NUM_GPUS = 8
SEED = 0

#: Swept hedge percentiles (the frontier's x-axis); 95 is the default.
PERCENTILES = (90.0, 95.0, 99.0)
DEFAULT_PERCENTILE = 95.0

#: Acceptance gates (the ISSUE's contract).
P99_GATE = 0.8          # hedged p99 TTFT <= gate * unhedged p99 TTFT
OVERHEAD_GATE = 0.10    # duplicate work (iterations) <= 10% extra

#: A window never reached: the same epoched+fenced control loop as the
#: hedged runs, with hedging armed but permanently disarmed — so the
#: unhedged baseline differs by exactly one thing, the hedges.
_NEVER = HedgeConfig(min_observations=1_000_000, window=1_000_000)


def _chaos(scale=1.0):
    """One straggler plus swap slowdowns (the tail, not a death).

    The straggler starts *after* the hedge tracker has observed a
    window of healthy completions — the realistic gray-failure shape
    (a replica degrades mid-run), and the shape percentile-tracked
    hedging is built for: the threshold reflects the healthy fleet, so
    the straggler's requests cross it quickly instead of teaching the
    tracker that 15s is normal.
    """
    return FaultInjector([
        FaultSpec(FaultKind.ENGINE_SLOW, start=2.0 * scale,
                  duration=30.0 * scale, magnitude=8.0, target="gpu-0"),
        FaultSpec(FaultKind.ADAPTER_SWAP_SLOW, start=2.5 * scale,
                  duration=4.0 * scale, magnitude=8.0, target="lora-0"),
        FaultSpec(FaultKind.ADAPTER_SWAP_SLOW, start=4.0 * scale,
                  duration=3.0 * scale, magnitude=8.0, target="lora-2"),
    ])


def _ten_percent_budget():
    """Google SRE's 10% rule as a token bucket: no seed tokens, one
    token banked per ten fresh dispatches."""
    return RetryBudget(RetryBudgetConfig(ratio=0.1, burst=15.0,
                                         initial=0.0))


def _workload(scale=1.0, seed=SEED):
    return RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
        rate_rps=RATE_RPS,
        duration_s=DURATION_S * scale,
        use_task_heads=False,
        slo_s=None,
        seed=seed,
    ).generate()


def _duplicate_terminals(requests, metrics):
    """Count of exactly-once violations (0 is the contract)."""
    rec_ids = [r.request_id for r in metrics.records]
    abort_ids = [a.request_id for a in metrics.aborts]
    dupes = (len(rec_ids) - len(set(rec_ids))
             + len(abort_ids) - len(set(abort_ids))
             + len(set(rec_ids) & set(abort_ids)))
    missing = {r.request_id for r in requests} - set(rec_ids) - set(abort_ids)
    return dupes, len(missing)


def _run(scale, seed, *, hedge, retry_budget=None):
    reset_request_ids()
    builder = SystemBuilder(num_adapters=ADAPTERS, max_batch_size=8,
                            fault_injector=_chaos(scale))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), NUM_GPUS, hedge=hedge,
        retry_budget=retry_budget, max_requeues=4,
    )
    requests = _workload(scale=scale, seed=seed)
    server.submit(requests)
    metrics = server.run()
    dupes, lost = _duplicate_terminals(requests, metrics)
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "p50_ttft_s": round(metrics.ttft_percentile(50.0), 4),
        "p99_ttft_s": round(metrics.ttft_percentile(99.0), 4),
        "p99_latency_s": round(metrics.latency_percentile(99.0), 4),
        "iterations": metrics.iterations,
        "hedges_fired": metrics.hedges_fired,
        "hedge_wins": metrics.hedge_wins,
        "hedge_losses": metrics.hedge_losses,
        "retry_budget_exhausted": metrics.retry_budget_exhausted,
        "duplicate_terminals": dupes,
        "lost_requests": lost,
    }


def run_tail_bench(scale=1.0, seed=SEED):
    # -- hedged vs unhedged (the headline A/B) ---------------------------
    unhedged = _run(scale, seed, hedge=_NEVER)
    # The budget IS the <= 10% rule: with ratio 0.1 and no seed
    # tokens, at most one request in ten can ever be duplicated — the
    # duplicate-work gate holds by construction, not by luck.
    hedged = _run(
        scale, seed,
        hedge=HedgeConfig(percentile=DEFAULT_PERCENTILE,
                          min_observations=12, window=256),
        retry_budget=_ten_percent_budget(),
    )
    # Duplicate work: the fraction of submitted requests that were run
    # twice (every fired hedge ends as exactly one fenced loser), plus
    # the raw engine-iteration ratio for the work-not-requests view.
    overhead = hedged["hedge_losses"] / max(hedged["submitted"], 1)
    headline = {
        "unhedged": unhedged,
        "hedged": hedged,
        "p99_ttft_ratio": round(
            hedged["p99_ttft_s"] / max(unhedged["p99_ttft_s"], 1e-9), 4),
        "duplicate_work_overhead": round(overhead, 4),
        "iteration_ratio": round(
            hedged["iterations"] / max(unhedged["iterations"], 1), 4),
    }

    # -- hedge-threshold frontier ----------------------------------------
    frontier = []
    for pct in PERCENTILES:
        row = _run(
            scale, seed,
            hedge=HedgeConfig(percentile=pct, min_observations=12,
                              window=256),
            retry_budget=_ten_percent_budget(),
        )
        row["percentile"] = pct
        frontier.append(row)

    # -- retry storm: the budget caps amplification ----------------------
    # A 0.05s fixed threshold wants to hedge nearly every request.
    storm_hedge = HedgeConfig(after_s=0.05)
    uncapped = _run(scale, seed, hedge=storm_hedge)
    capped = _run(
        scale, seed, hedge=storm_hedge,
        retry_budget=RetryBudget(RetryBudgetConfig(
            ratio=0.05, burst=5.0, initial=2.0)),
    )
    storm = {"uncapped": uncapped, "capped": capped}

    return {
        "headline": headline,
        "frontier": frontier,
        "storm": storm,
        "gates": {"p99_gate": P99_GATE, "overhead_gate": OVERHEAD_GATE},
        "scale": scale,
        "seed": seed,
    }


def _check(data):
    """The acceptance criteria; raises AssertionError on regression."""
    headline = data["headline"]
    rows = ([headline["unhedged"], headline["hedged"]]
            + data["frontier"]
            + [data["storm"]["uncapped"], data["storm"]["capped"]])
    # Exactly-once is unconditional: every run, zero duplicates.
    for row in rows:
        assert row["duplicate_terminals"] == 0, row
        assert row["lost_requests"] == 0, row
    # Hedging is actually off in the baseline and on everywhere else.
    assert headline["unhedged"]["hedges_fired"] == 0
    assert headline["hedged"]["hedges_fired"] > 0
    assert headline["hedged"]["hedge_wins"] > 0
    # Every fired hedge resolves to exactly one fenced loser.
    for row in rows:
        assert row["hedge_losses"] == row["hedges_fired"], row
    # The headline gates: tail cut, bounded duplicate work.
    assert headline["p99_ttft_ratio"] <= data["gates"]["p99_gate"], headline
    assert (headline["duplicate_work_overhead"]
            <= data["gates"]["overhead_gate"]), headline
    # The frontier hedges somewhere at every percentile.
    for row in data["frontier"]:
        assert row["hedges_fired"] > 0, row
    # The retry budget visibly caps the storm and counts its denials.
    storm = data["storm"]
    assert storm["uncapped"]["hedges_fired"] > 0
    assert (storm["capped"]["hedges_fired"]
            < storm["uncapped"]["hedges_fired"] / 2), storm
    assert storm["capped"]["retry_budget_exhausted"] > 0, storm


def test_tail_tolerant_dispatch(results):
    data = run_tail_bench()
    _check(data)
    headline = data["headline"]
    results.print_table(
        f"tail-tolerant dispatch: {NUM_GPUS} replicas, 8x straggler + "
        f"swap-slow chaos, {RATE_RPS:.0f} rps",
        ["mode", "done", "p50_ttft", "p99_ttft", "iters", "hedges",
         "wins", "dupes"],
        [[name, r["completed"], r["p50_ttft_s"], r["p99_ttft_s"],
          r["iterations"], r["hedges_fired"], r["hedge_wins"],
          r["duplicate_terminals"]]
         for name, r in (("unhedged", headline["unhedged"]),
                         ("hedged", headline["hedged"]))],
    )
    results.print_table(
        "hedge-threshold frontier (retry budget 10%)",
        ["pct", "p99_ttft", "hedges", "wins", "exhausted"],
        [[r["percentile"], r["p99_ttft_s"], r["hedges_fired"],
          r["hedge_wins"], r["retry_budget_exhausted"]]
         for r in data["frontier"]],
    )
    results.save("tail_tolerant_dispatch", data)


def main() -> int:
    """Standalone entry for CI: dump results, fail on contract breaks."""
    import json
    import sys

    payload = run_tail_bench()
    with open("BENCH_tail.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(json.dumps(payload, indent=1, sort_keys=True))
    print("wrote BENCH_tail.json")
    try:
        _check(payload)
    except AssertionError as exc:
        print(f"acceptance check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
