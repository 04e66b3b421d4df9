"""Fault recovery — goodput under rising fault intensity (robustness).

Sweeps a fault-intensity multiplier over the full injector surface
(adapter-swap failures/slowdowns, transient KV pressure, GPU
stragglers) and measures how goodput and SLO attainment degrade.  A
resilient runtime degrades *gracefully*: goodput shrinks with the fault
rate but never falls off a cliff, and every lost request is accounted
for by a typed abort reason rather than a crash.

A second experiment kills one replica of a 2-GPU cluster mid-run and
measures failover: the orphaned requests must be requeued and finish on
the survivor.

Run it with ``pytest --benchmark-disable benchmarks/bench_fault_recovery.py``;
the results land in ``results/fault_recovery_{sweep,failover}.json``.
"""


from repro.core import SystemBuilder
from repro.runtime import FaultInjector, FaultKind, FaultSpec, MultiGPUServer
from repro.workloads import RetrievalWorkload

BASE_RATES = {
    "swap_fail_rate": 0.8,
    "swap_slow_rate": 0.5,
    "kv_pressure_rate": 0.4,
    "engine_slow_rate": 0.1,
}
INTENSITIES = [0.0, 0.5, 1.0, 2.0, 3.0]
ADAPTERS = 8  # over 2 GPU slots + flat skew -> constant swap churn
RATE_RPS = 12.0
DURATION_S = 8.0
SLO_S = 2.5


def _workload(seed=0):
    return RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
        rate_rps=RATE_RPS,
        duration_s=DURATION_S,
        top_adapter_share=0.3,
        use_task_heads=False,
        slo_s=SLO_S,
        seed=seed,
    ).generate()


def _engine(intensity, seed=0):
    injector = None
    if intensity > 0:
        injector = FaultInjector.random(
            horizon_s=DURATION_S * 6,
            seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
            engine_ids=("engine-0",),
            swap_window_s=1.0,
            **{k: v * intensity for k, v in BASE_RATES.items()},
        )
    builder = SystemBuilder(
        num_adapters=ADAPTERS,
        gpu_adapter_slots=2,
        fault_injector=injector,
        deadline_slo_factor=4.0,
    )
    return builder.build("v-lora")


def run_sweep():
    out = {}
    for intensity in INTENSITIES:
        engine = _engine(intensity)
        requests = _workload()
        engine.submit(requests)
        metrics = engine.run()
        assert metrics.num_completed + metrics.num_aborted == len(requests)
        slo = metrics.slo_attainment()
        out[intensity] = {
            "submitted": len(requests),
            "completed": metrics.num_completed,
            "aborted": metrics.num_aborted,
            "abort_reasons": metrics.abort_counts(),
            "goodput_rps": round(metrics.goodput_rps(), 3),
            "slo_attainment": round(slo, 3) if slo is not None else None,
            "swap_retries": metrics.swap_retries,
            "adapters_quarantined": metrics.adapters_quarantined,
            "mode_fallbacks": metrics.mode_fallbacks,
            "shed_events": metrics.shed_events,
            "kv_stall_iters": metrics.kv_stall_iters,
        }
    return out


def run_failover():
    injector = FaultInjector(
        [FaultSpec(FaultKind.ENGINE_FAIL, DURATION_S / 4, target="gpu-0")]
    )
    builder = SystemBuilder(
        num_adapters=ADAPTERS, fault_injector=injector,
        deadline_slo_factor=None,
    )
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), num_gpus=2,
    )
    requests = _workload(seed=1)
    server.submit(requests)
    metrics = server.run()
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "failover_events": metrics.failover_events,
        "engine_failures": metrics.engine_failures,
        "goodput_rps": round(metrics.goodput_rps(), 3),
    }


def test_fault_recovery_degrades_gracefully(benchmark, results):
    sweep = run_sweep()

    # One representative unit under the timer: a full faulted run.
    def unit():
        engine = _engine(1.0)
        engine.submit(_workload())
        return engine.run()

    benchmark.pedantic(unit, rounds=1, iterations=1)

    baseline = sweep[0.0]["goodput_rps"]
    assert baseline > 0
    for intensity, row in sweep.items():
        # Graceful degradation: goodput shrinks but never cliffs to
        # (near) zero, and the engine never crashed to get here.
        assert row["goodput_rps"] > 0.25 * baseline, (intensity, row)
        assert row["completed"] + row["aborted"] == row["submitted"]
    # Faults actually bit: the degraded runs record retries or stalls.
    worst = sweep[max(INTENSITIES)]
    assert worst["swap_retries"] + worst["kv_stall_iters"] > 0

    rows = [
        [
            intensity, row["completed"], row["aborted"],
            row["goodput_rps"], row["slo_attainment"],
            row["swap_retries"], row["shed_events"],
            "; ".join(f"{k}={v}" for k, v in
                      sorted(row["abort_reasons"].items())) or "-",
        ]
        for intensity, row in sweep.items()
    ]
    results.print_table(
        "fault recovery: goodput vs fault intensity (v-lora, "
        f"{RATE_RPS:.0f} rps, SLO {SLO_S}s)",
        ["intensity", "done", "aborted", "goodput_rps", "slo_att",
         "retries", "shed", "abort reasons"],
        rows,
    )
    results.save("fault_recovery_sweep", {
        "workload": {"rate_rps": RATE_RPS, "duration_s": DURATION_S,
                     "adapters": ADAPTERS, "slo_s": SLO_S},
        "base_rates": BASE_RATES,
        "sweep": {str(k): v for k, v in sweep.items()},
    })


def test_fault_recovery_failover(results):
    data = run_failover()
    assert data["engine_failures"] == 1
    assert data["failover_events"] > 0
    assert data["completed"] + data["aborted"] == data["submitted"]
    # The survivor absorbs the orphans: the run still mostly completes.
    assert data["completed"] >= 0.9 * data["submitted"]
    results.print_table(
        "fault recovery: 2-GPU failover (gpu-0 killed mid-run)",
        ["submitted", "completed", "aborted", "failovers", "goodput_rps"],
        [[data["submitted"], data["completed"], data["aborted"],
          data["failover_events"], data["goodput_rps"]]],
    )
    results.save("fault_recovery_failover", data)
