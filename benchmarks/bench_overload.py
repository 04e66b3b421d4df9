"""Overload protection — goodput through a traffic burst (robustness).

Drives a v-lora engine through three traffic phases: steady pre-burst
load, a ``LOAD_BURST`` window that time-compresses arrivals to >= 5x the
sustainable rate, and a drain phase.  Two engines see the identical
workload:

* **unprotected** — the plain engine (deadline aborts only); the burst
  floods the queue, prefills are wasted on requests that then blow their
  deadlines, and tail TTFT explodes;
* **protected** — SLO-aware admission control plus brownout tiers; the
  burst is turned away at the door, the queue stays near its watermark,
  and the requests that *are* accepted finish at pre-burst goodput.

A second experiment exercises the adapter circuit breaker: an adapter
whose swap-ins fail for a fixed window is opened (fail fast), half-open
probed after the cooldown, and must serve traffic again afterwards —
the legacy permanent quarantine would strand it forever.

Run it with ``pytest --benchmark-disable benchmarks/bench_overload.py``;
the results land in ``results/overload_{burst,breaker}.json``.
"""

import numpy as np

from repro.core import SystemBuilder
from repro.runtime import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
)
from repro.workloads import RetrievalWorkload, apply_load_bursts

ADAPTERS = 4
BASE_RATE_RPS = 4.0
SLO_S = 2.0
DEADLINE_FACTOR = 3.0
# Phase boundaries (seconds): steady load, then every arrival of
# [PRE_S, PRE_S + BURST_SPAN_S) lands inside a BURST_FACTOR-x denser
# spike at the start of the window (~160 requests — several times the
# batch capacity — arriving in ~5 s against a ~10 rps saturated rate,
# so the unprotected queue's drain time dwarfs the 6 s deadline).
PRE_S = 6.0
BURST_SPAN_S = 40.0
BURST_FACTOR = 8.0
DURATION_S = PRE_S + BURST_SPAN_S


def _workload(seed=0):
    requests = RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
        rate_rps=BASE_RATE_RPS,
        duration_s=DURATION_S,
        top_adapter_share=0.5,
        use_task_heads=False,
        slo_s=SLO_S,
        seed=seed,
    ).generate()
    window = FaultSpec(FaultKind.LOAD_BURST, PRE_S, BURST_SPAN_S,
                       magnitude=BURST_FACTOR)
    return apply_load_bursts(requests, [window]), window


def _protection():
    # Queue watermark sized so the drain time of an admitted request
    # stays inside the SLO at the engine's saturated rate; brownout's
    # watermark sits below it so the burst also engages decode caps.
    return dict(
        admission=AdmissionConfig(
            max_queue_depth=24,
            slo_reject=True,
        ),
        brownout=BrownoutConfig(queue_high=16, decode_cap=24),
    )


def _run(protected, seed=0):
    requests, window = _workload(seed=seed)
    builder = SystemBuilder(
        num_adapters=ADAPTERS,
        deadline_slo_factor=DEADLINE_FACTOR,
        **(_protection() if protected else {}),
    )
    engine = builder.build("v-lora")
    engine.submit(requests)
    metrics = engine.run()
    assert metrics.num_completed + metrics.num_aborted == len(requests)

    def goodput(t0, t1):
        done = [r for r in metrics.records if t0 <= r.finish_time < t1]
        return len(done) / max(t1 - t0, 1e-9)

    pre_end = window.start
    # The burst phase runs from the spike to the drain's end.
    drain_end = max(
        [r.finish_time for r in metrics.records]
        + [a.abort_time for a in metrics.aborts]
    )
    ttfts = [r.ttft for r in metrics.records]
    slo = metrics.slo_attainment()
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "abort_reasons": metrics.abort_counts(),
        "goodput_pre_rps": round(goodput(1.0, pre_end), 3),
        "goodput_burst_rps": round(goodput(pre_end, drain_end), 3),
        "p99_ttft_s": round(float(np.percentile(ttfts, 99)), 3),
        "slo_attainment": round(slo, 3) if slo is not None else None,
        "admission_rejections": metrics.admission_rejections,
        "brownout_sheds": metrics.brownout_sheds,
        "brownout_truncations": metrics.brownout_truncations,
        "drain_end_s": round(drain_end, 3),
    }


def run_burst():
    return {
        "unprotected": _run(False),
        "protected": _run(True),
    }


def run_breaker_recovery():
    """Swap faults open the breaker; cooldown re-admits the adapter."""
    horizon = 10.0
    # The window must cover the scheduler's *first* lora-3 swap attempt
    # (Algorithm 1 batches by adapter group, so lora-3 is served well
    # after its first arrival) — 60% of the horizon does.
    fault_end = 6.0
    injector = FaultInjector([
        FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, fault_end,
                  target="lora-3"),
    ])
    builder = SystemBuilder(
        num_adapters=ADAPTERS,
        gpu_adapter_slots=2,
        fault_injector=injector,
        breaker=BreakerConfig(failure_threshold=2, cooldown_s=0.5),
    )
    engine = builder.build("v-lora")
    requests = RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
        rate_rps=BASE_RATE_RPS,
        duration_s=horizon,
        top_adapter_share=0.4,
        use_task_heads=False,
        seed=2,
    ).generate()
    engine.submit(requests)
    metrics = engine.run()
    recovered = [
        r for r in metrics.records
        if r.adapter_id == "lora-3" and r.arrival_time > fault_end
    ]
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "breaker_opens": metrics.breaker_opens,
        "breaker_half_opens": metrics.breaker_half_opens,
        "breaker_closes": metrics.breaker_closes,
        "post_recovery_completions": len(recovered),
    }


def _check_burst(data):
    """The acceptance criteria; raises AssertionError on regression."""
    prot, unprot = data["protected"], data["unprotected"]
    assert prot["goodput_pre_rps"] > 0
    # Protected: graceful degradation through the burst.
    assert prot["goodput_burst_rps"] >= 0.7 * prot["goodput_pre_rps"], data
    assert prot["p99_ttft_s"] <= SLO_S, data
    assert prot["admission_rejections"] > 0, data
    # Unprotected: the same burst measurably collapses service quality.
    assert unprot["p99_ttft_s"] >= 2.0 * prot["p99_ttft_s"], data
    assert unprot["slo_attainment"] < prot["slo_attainment"], data


def _check_breaker(data):
    assert data["breaker_opens"] >= 1, data
    assert data["breaker_closes"] >= 1, data
    assert data["post_recovery_completions"] > 0, data


def test_burst_protection(results):
    data = run_burst()
    _check_burst(data)
    rows = [
        [name, row["completed"], row["aborted"],
         row["goodput_pre_rps"], row["goodput_burst_rps"],
         row["p99_ttft_s"], row["slo_attainment"],
         row["admission_rejections"], row["brownout_sheds"]]
        for name, row in data.items()
    ]
    results.print_table(
        f"overload: {BURST_FACTOR:.0f}x burst at t={PRE_S}s "
        f"({BASE_RATE_RPS:.0f} rps base, SLO {SLO_S}s)",
        ["engine", "done", "aborted", "pre_rps", "burst_rps",
         "p99_ttft", "slo_att", "adm_rej", "sheds"],
        rows,
    )
    results.save("overload_burst", data)


def test_breaker_recovery(results):
    data = run_breaker_recovery()
    _check_breaker(data)
    results.print_table(
        "overload: adapter circuit breaker (swap faults 0-6s, "
        "cooldown 0.5s)",
        ["opens", "half_opens", "closes", "recovered", "done"],
        [[data["breaker_opens"], data["breaker_half_opens"],
          data["breaker_closes"], data["post_recovery_completions"],
          data["completed"]]],
    )
    results.save("overload_breaker", data)
