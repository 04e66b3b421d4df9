"""Ablation — sensitivity of Algorithm 1 to the starvation tolerance θ.

θ gates when starving requests force the scheduler out of merged mode
(§4.4.3).  Too small: constant mixture/unmerged execution (overhead like
unmerge-only).  Too large: minority-adapter requests starve behind the
merged majority.  The sweep shows a broad healthy middle — the design
choice DESIGN.md calls out.
"""

import numpy as np

from _common import ms

from repro.core import SystemBuilder
from repro.workloads import RetrievalWorkload

THETAS = (0.05, 0.2, 0.5, 1.0, 3.0, 10.0)


def run_experiment():
    out = {}
    for theta in THETAS:
        builder = SystemBuilder(num_adapters=8, theta=theta)
        engine = builder.build("v-lora")
        wl = RetrievalWorkload(
            builder.adapter_ids, rate_rps=12.0, duration_s=25.0,
            top_adapter_share=0.7, use_task_heads=False, seed=7,
        )
        engine.submit(wl.generate())
        metrics = engine.run()
        by_adapter = metrics.by_adapter()
        minority = [
            r.latency for a, recs in by_adapter.items()
            if a != "lora-0" for r in recs
        ]
        out[theta] = {
            "mean_latency_s": round(metrics.mean_latency(), 4),
            "p99_latency_s": round(metrics.latency_percentile(99), 4),
            "p99_ttft_s": round(metrics.ttft_percentile(99), 4),
            "minority_mean_latency_s": round(float(np.mean(minority)), 4),
            "mode_switches": metrics.num_mode_switches,
        }
    return out


def test_ablation_theta(benchmark, results):
    data = run_experiment()

    from collections import Counter
    from repro.runtime.scheduler import SchedulingContext, VLoRAPolicy
    from repro.runtime import InferenceMode, Request
    policy = VLoRAPolicy(theta=0.5)
    # Created in id order at one arrival time: already FCFS-ordered.
    reqs = [Request(adapter_id=f"a{i % 3}", arrival_time=0.0,
                    input_tokens=64, output_tokens=4) for i in range(32)]
    ctx = SchedulingContext(
        now=1.0, current_mode=InferenceMode.UNMERGED, current_merged=None,
        max_batch_size=16, est_iteration_seconds=0.02,
        est_switch_seconds=0.005,
        adapter_counts=dict(Counter(r.adapter_id for r in reqs)),
        unmerged_extra_seconds=lambda adapter_id, requests: 0.0,
    )
    benchmark(policy.schedule, reqs, ctx)

    rows = [
        [theta, d["mean_latency_s"], d["p99_latency_s"], d["p99_ttft_s"],
         d["minority_mean_latency_s"], d["mode_switches"]]
        for theta, d in data.items()
    ]
    results.print_table(
        "Algorithm 1 θ sensitivity (70% skew, 12 rps)",
        ["theta (s)", "mean lat", "p99 lat", "p99 TTFT",
         "minority mean lat", "switches"],
        rows,
    )
    results.save("ablation_theta", {str(k): v for k, v in data.items()})

    # The default (0.5) sits in the healthy region: within 15% of the
    # best mean latency over the sweep.
    best = min(d["mean_latency_s"] for d in data.values())
    assert data[0.5]["mean_latency_s"] < 1.15 * best
    # A huge θ lets the minority starve relative to a moderate one.
    assert data[10.0]["minority_mean_latency_s"] >= \
        data[0.5]["minority_mean_latency_s"] * 0.9
    # ... and the tail shows it: a minority request that rides no spare
    # slot waits up to θ for its first token.
    assert data[10.0]["p99_ttft_s"] >= data[0.5]["p99_ttft_s"]
