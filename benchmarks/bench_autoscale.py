"""Elastic autoscaling — GPU-seconds vs SLO under diurnal + burst load.

Drives the same diurnal trace (trough-to-peak sinusoid with a
``LOAD_BURST`` spike near the first peak) through two clusters built
from identical engines:

* **static** — peak-provisioned: ``PEAK_REPLICAS`` replicas alive for
  the whole run, the capacity you must pre-buy to survive the peak;
* **autoscaled** — starts at one replica and lets the
  :class:`~repro.runtime.autoscaler.Autoscaler` grow toward
  ``PEAK_REPLICAS`` when the EWMA queue depth or the SLO-attainment
  floor demands it, then drain back down through the trough.

The contract under test: the autoscaled cluster spends **at most 80 %**
of the static cluster's GPU-seconds while matching its SLO attainment.
GPU-seconds for the static cluster are ``replicas × makespan`` (every
replica is up the whole run); the autoscaled cluster reports its exact
per-replica spawn-to-retire lifetimes via ``gpu_seconds_total``.

Standalone mode (``python benchmarks/bench_autoscale.py [--small]``)
writes ``BENCH_autoscale.json`` and exits non-zero when the efficiency
or SLO contract breaks (CI perf smoke).
"""

from _common import ResultSink  # noqa: F401  (fixture lives in conftest)

from repro.core import SystemBuilder
from repro.runtime import (
    AutoscaleConfig,
    Autoscaler,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
)
from repro.workloads import diurnal_burst_trace

ADAPTERS = 4
PEAK_RPS = 32.0
TROUGH_RPS = 2.0
PERIOD_S = 40.0
DURATION_S = 80.0
#: Peaky diurnal shape — busy hours are a small fraction of the day, so
#: peak provisioning wastes most of its GPU-seconds in the trough.
SHARPNESS = 3.0
SLO_S = 6.0
PEAK_REPLICAS = 4
#: Arrival-compression spike riding the first diurnal peak (t=20s) —
#: the autoscaler must absorb it on top of the sinusoid.
BURST = FaultSpec(FaultKind.LOAD_BURST, 18.0, 6.0, magnitude=3.0)


def _workload(scale=1.0, seed=0):
    return diurnal_burst_trace(
        [f"lora-{i}" for i in range(ADAPTERS)],
        peak_rps=PEAK_RPS,
        trough_rps=TROUGH_RPS,
        period_s=PERIOD_S * scale,
        duration_s=DURATION_S * scale,
        top_adapter_share=0.5,
        use_task_heads=False,
        slo_s=SLO_S,
        sharpness=SHARPNESS,
        seed=seed,
        injector=FaultInjector([FaultSpec(
            BURST.kind, BURST.start * scale, BURST.duration * scale,
            magnitude=BURST.magnitude,
        )]),
    )


def _autoscaler(scale=1.0):
    return Autoscaler(AutoscaleConfig(
        min_replicas=1,
        max_replicas=PEAK_REPLICAS,
        target_queue_per_replica=4.0,
        down_fraction=0.7,
        slo_floor=0.9,
        ewma_alpha=0.5,
        down_cooldown_s=3.0 * scale,
        spinup_s=0.5,
        drain_timeout_s=20.0,
    ))


def _makespan(metrics):
    return max(
        [r.finish_time for r in metrics.records]
        + [a.abort_time for a in metrics.aborts]
    )


def _summarize(metrics, requests, gpu_seconds):
    slo = metrics.slo_attainment()
    return {
        "submitted": len(requests),
        "completed": metrics.num_completed,
        "aborted": metrics.num_aborted,
        "slo_attainment": round(slo, 4) if slo is not None else None,
        "gpu_seconds": round(gpu_seconds, 2),
        "makespan_s": round(_makespan(metrics), 2),
        "scale_up_events": metrics.scale_up_events,
        "scale_down_events": metrics.scale_down_events,
        "replicas_spawned": metrics.replicas_spawned,
        "replicas_retired": metrics.replicas_retired,
        "drain_requeues": metrics.drain_requeues,
    }


def run_autoscale_vs_static(scale=1.0, seed=0):
    builder = SystemBuilder(num_adapters=ADAPTERS, max_batch_size=16)
    factory = lambda: builder.build("v-lora")  # noqa: E731

    requests = _workload(scale=scale, seed=seed)
    static = MultiGPUServer.replicate(factory, PEAK_REPLICAS)
    static.submit([r for r in requests])
    static_metrics = static.run()
    assert (static_metrics.num_completed + static_metrics.num_aborted
            == len(requests))
    # Peak provisioning keeps every replica alive for the whole run.
    static_gpu_s = PEAK_REPLICAS * _makespan(static_metrics)

    requests2 = _workload(scale=scale, seed=seed)
    auto = MultiGPUServer.replicate(
        factory, 1, autoscaler=_autoscaler(scale=scale)
    )
    auto.submit(requests2)
    auto_metrics = auto.run()
    assert (auto_metrics.num_completed + auto_metrics.num_aborted
            == len(requests2))

    static_row = _summarize(static_metrics, requests, static_gpu_s)
    auto_row = _summarize(auto_metrics, requests2,
                          auto_metrics.gpu_seconds_total)
    return {
        "static": static_row,
        "autoscaled": auto_row,
        "gpu_seconds_ratio": round(
            auto_row["gpu_seconds"] / max(static_row["gpu_seconds"], 1e-9), 4
        ),
        "scale_events": [
            ev.to_dict() for ev in auto_metrics.scale_events
        ],
    }


def _check(data):
    """The acceptance criteria; raises AssertionError on regression."""
    static, auto = data["static"], data["autoscaled"]
    # Elasticity must save real money: <= 80% of peak-provisioned cost.
    assert data["gpu_seconds_ratio"] <= 0.8, data["gpu_seconds_ratio"]
    # ... at equal-or-better service quality.
    assert auto["slo_attainment"] is not None
    assert auto["slo_attainment"] >= static["slo_attainment"], (
        auto["slo_attainment"], static["slo_attainment"])
    # The run actually exercised the lifecycle, not a degenerate config.
    assert auto["scale_up_events"] >= 1, data
    assert auto["scale_down_events"] >= 1, data
    assert auto["replicas_retired"] >= 1, data


def test_autoscale_vs_static(results):
    data = run_autoscale_vs_static()
    _check(data)
    rows = [
        [name, row["completed"], row["aborted"], row["slo_attainment"],
         row["gpu_seconds"], row["scale_up_events"],
         row["scale_down_events"]]
        for name, row in (("static", data["static"]),
                          ("autoscaled", data["autoscaled"]))
    ]
    results.print_table(
        f"autoscale: diurnal {TROUGH_RPS:.0f}-{PEAK_RPS:.0f} rps + "
        f"{BURST.magnitude:.0f}x burst, SLO {SLO_S}s "
        f"(gpu-s ratio {data['gpu_seconds_ratio']})",
        ["cluster", "done", "aborted", "slo_att", "gpu_s", "ups", "downs"],
        rows,
    )
    results.save("autoscale_vs_static", {
        k: v for k, v in data.items() if k != "scale_events"
    })


def main() -> int:
    """Standalone entry for CI: dump results, fail on contract breaks."""
    import json
    import sys

    scale = 0.5 if "--small" in sys.argv[1:] else 1.0
    payload = run_autoscale_vs_static(scale=scale)
    with open("BENCH_autoscale.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(json.dumps({k: v for k, v in payload.items()
                      if k != "scale_events"}, indent=1, sort_keys=True))
    print("wrote BENCH_autoscale.json")
    failures = []
    if scale >= 1.0:
        try:
            _check(payload)
        except AssertionError as exc:
            failures.append(f"acceptance check failed: {exc}")
    else:
        # Small mode still requires conservation and *some* savings.
        if payload["gpu_seconds_ratio"] >= 1.0:
            failures.append("autoscaling saved no GPU-seconds")
    if failures:
        print("; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
