"""Determinism: the simulator is a pure function of (config, seed).

Two runs with the same seed must be **bit-identical** — not "close":
the same floats in every summary statistic and the same per-request
event trace, across single engines, static clusters, seeded chaos, and
autoscaled lifecycle churn.  A golden snapshot pins seed 0 so that
accidental nondeterminism (dict-order iteration, id()-keyed tie-breaks,
hidden RNG draws) shows up as a diff against a checked-in file, not
just against a re-run in the same process.

A second snapshot pins what the repo benchmark (``bench/``) simulates:
for each of its workloads and parts 0-2, the per-part digest and each
rung's sent/failed/good counts and simulated counters at the self-test
scale, taken from ``bench/child.py`` run the way ``bench/test_bench.py``
runs it.

Regenerate both snapshots after an *intentional* behaviour change
with::

    PYTHONPATH=src python tests/runtime/test_determinism.py --regen

It prints one line per moved value and writes nothing if any benchmark
child reports a failed output check.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import SystemBuilder
from repro.runtime import (
    AutoscaleConfig,
    Autoscaler,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
    reset_request_ids,
)
from repro.workloads import RetrievalWorkload, diurnal_burst_trace

pytestmark = pytest.mark.property

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "determinism.json")
BENCH_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                 "bench.json")
ROOT = Path(__file__).resolve().parents[2]
BENCH_WORKLOADS = sorted(
    w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"])
BENCH_PARTS = (0, 1, 2)
REGEN = "PYTHONPATH=src python tests/runtime/test_determinism.py --regen"
ADAPTER_IDS = [f"lora-{i}" for i in range(4)]


def _trace_digest(metrics) -> str:
    """SHA-256 over the full per-request event trace (order-free)."""
    rows = sorted(
        [("done", r.request_id, r.adapter_id, r.arrival_time,
          r.first_token_time, r.finish_time) for r in metrics.records]
        + [("abort", a.request_id, a.adapter_id, a.arrival_time,
            a.abort_time, a.reason) for a in metrics.aborts]
    )
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _fingerprint(metrics) -> dict:
    fp = dict(metrics.summary())
    fp["trace_digest"] = _trace_digest(metrics)
    return fp


def _retrieval(seed, rate_rps=14.0, duration_s=2.0, slo_s=4.0):
    return RetrievalWorkload(
        adapter_ids=ADAPTER_IDS, rate_rps=rate_rps, duration_s=duration_s,
        use_task_heads=False, slo_s=slo_s, seed=seed,
    ).generate()


def _run_engine(seed):
    builder = SystemBuilder(num_adapters=4, max_batch_size=8)
    engine = builder.build("v-lora")
    engine.submit(_retrieval(seed))
    return _fingerprint(engine.run())


def _run_cluster(seed):
    builder = SystemBuilder(num_adapters=4, max_batch_size=8)
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 3, dispatch="least-loaded",
        health_aware=True,
    )
    server.submit(_retrieval(seed, rate_rps=20.0))
    return _fingerprint(server.run())


def _run_chaos(seed):
    injector = FaultInjector.random(
        horizon_s=10.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1"),
        swap_fail_rate=0.5, swap_slow_rate=0.3, kv_pressure_rate=0.3,
        engine_slow_rate=0.2, engine_fail_rate=0.1,
    )
    builder = SystemBuilder(
        num_adapters=4, max_batch_size=8, fault_injector=injector,
        deadline_slo_factor=4.0,
    )
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, max_requeues=3,
    )
    server.submit(_retrieval(seed, rate_rps=20.0))
    return _fingerprint(server.run())


def _run_autoscaled(seed):
    builder = SystemBuilder(num_adapters=4, max_batch_size=8)
    requests = diurnal_burst_trace(
        ADAPTER_IDS, peak_rps=20.0, trough_rps=2.0, period_s=8.0,
        duration_s=12.0, top_adapter_share=0.5, use_task_heads=False,
        slo_s=4.0, seed=seed,
        injector=FaultInjector([
            FaultSpec(FaultKind.LOAD_BURST, start=3.0, duration=2.0,
                      magnitude=2.0),
        ]),
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=3,
        target_queue_per_replica=4.0, down_fraction=0.6,
        down_cooldown_s=1.0, spinup_s=0.25, drain_timeout_s=10.0,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 1, autoscaler=scaler,
    )
    server.submit(requests)
    metrics = server.run()
    fp = _fingerprint(metrics)
    fp["scale_actions"] = ",".join(ev.action for ev in metrics.scale_events)
    return fp


def _run_partition_chaos(seed):
    """Gray-failure chaos: partitions, heartbeat loss, correlated host
    deaths, true engine deaths — under an aggressive φ-accrual detector
    with lease fencing.  Pins heartbeat scheduling, withheld-delivery
    ordering, lease-epoch bumps, and zombie fencing to the golden."""
    injector = FaultInjector.random(
        horizon_s=10.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        host_ids=("host-0", "host-1"),
        partition_rate=0.25, heartbeat_loss_rate=0.15,
        engine_fail_rate=0.1, host_fail_rate=0.05,
    )
    builder = SystemBuilder(
        num_adapters=4, max_batch_size=8, fault_injector=injector,
        deadline_slo_factor=4.0,
    )
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1.0, phi_confirm=3.0))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 3, max_requeues=3,
        detector=detector, num_hosts=2,
    )
    server.submit(_retrieval(seed, rate_rps=20.0))
    return _fingerprint(server.run())


def _run_disagg(seed):
    """Disaggregated prefill/decode pools with a priced KV hand-off.

    Pins the transfer pass end to end: outbox drain order, target
    choice by projected KV occupancy, wire-cost floats from the memoized transfer
    cache, and the not-before admission floor on the decode side."""
    from repro.runtime import DisaggConfig

    builder = SystemBuilder(num_adapters=4, max_batch_size=8)
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 3,
        disagg=DisaggConfig(prefill_replicas=1, decode_replicas=2),
    )
    server.submit(_retrieval(seed, rate_rps=20.0, duration_s=3.0))
    return _fingerprint(server.run())


SCENARIOS = {
    "engine": _run_engine,
    "cluster": _run_cluster,
    "chaos": _run_chaos,
    "autoscaled": _run_autoscaled,
    "partition_chaos": _run_partition_chaos,
    "disagg": _run_disagg,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [0, 7])
def test_same_seed_bit_identical(name, seed):
    runs = []
    for _ in range(2):
        reset_request_ids()
        runs.append(SCENARIOS[name](seed))
    # Exact dict equality: every float bit-identical, every digest equal.
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_different_seeds_differ(name):
    """The seed actually reaches the workload (guards against a scenario
    silently ignoring it, which would make the golden test vacuous)."""
    reset_request_ids()
    a = SCENARIOS[name](0)
    reset_request_ids()
    b = SCENARIOS[name](7)
    assert a["trace_digest"] != b["trace_digest"]


def _golden_payload():
    payload = {}
    for name in sorted(SCENARIOS):
        reset_request_ids()
        payload[name] = SCENARIOS[name](0)
    return payload


def _golden_diff(old: dict, new: dict) -> list:
    """One line per scenario key whose value differs between snapshots
    (``<absent>`` marks a key only one side has)."""
    missing = "<absent>"
    lines = []
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name, {}), new.get(name, {})
        for key in sorted(set(before) | set(after)):
            a, b = before.get(key, missing), after.get(key, missing)
            if a != b:
                lines.append(f"{name}.{key}: {a} -> {b}")
    return lines or ["no key changed"]


def _bench_child(workload: str, part: int) -> dict:
    """One ``bench/child.py`` part at the self-test scale, seed 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"),
         "--workload", workload, "--seed", "0", "--part", str(part),
         "--scale", "0.02"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _bench_pins(result: dict) -> dict:
    """Flat pins of one child part; refuses a part whose checks failed."""
    part = f"part{result['part']}"
    errors = [e for rung in result["rungs"] for e in rung["errors"]]
    if errors:
        raise ValueError(f"{result['workload']} {part} failed its output "
                         f"checks: {errors}")
    pins = {f"{part}.digest": result["digest"]}
    for i, rung in enumerate(result["rungs"]):
        values = {k: rung[k] for k in ("sent", "failed", "good")}
        values.update(rung["counters"])
        pins.update({f"{part}.rung{i}.{k}": v for k, v in values.items()})
    return pins


def _bench_workload_pins(workload: str) -> dict:
    pins = {}
    for part in BENCH_PARTS:
        pins.update(_bench_pins(_bench_child(workload, part)))
    return pins


def test_golden_diff_lists_changed_keys():
    old = {"engine": {"iterations": 5.0, "cost_cache_misses": 9.0}}
    new = {"engine": {"iterations": 5.0, "cost_cache_hits": 3.0,
                      "cost_cache_misses": 6.0}}
    assert _golden_diff(old, new) == [
        "engine.cost_cache_hits: <absent> -> 3.0",
        "engine.cost_cache_misses: 9.0 -> 6.0",
    ]
    assert _golden_diff(new, new) == ["no key changed"]
    bench_old = {"video-heads": {"part0.digest": "ab",
                                 "part1.rung2.swap_ins": 4,
                                 "part1.rung2.sent": 80}}
    bench_new = {"video-heads": {"part0.digest": "cd",
                                 "part1.rung2.swap_ins": 5,
                                 "part1.rung2.sent": 80}}
    assert _golden_diff(bench_old, bench_new) == [
        "video-heads.part0.digest: ab -> cd",
        "video-heads.part1.rung2.swap_ins: 4 -> 5",
    ]


def test_bench_pins_refuse_a_part_with_failed_checks():
    rung = {"sent": 2, "failed": 0, "good": 2, "counters": {"swap_ins": 1},
            "errors": []}
    result = {"workload": "video-heads", "part": 1, "digest": "ab",
              "rungs": [rung]}
    assert _bench_pins(result) == {
        "part1.digest": "ab", "part1.rung0.sent": 2, "part1.rung0.failed": 0,
        "part1.rung0.good": 2, "part1.rung0.swap_ins": 1,
    }
    rung["errors"] = ["a request id terminated more than once"]
    with pytest.raises(ValueError, match="terminated more than once"):
        _bench_pins(result)


def test_golden_seed_snapshot():
    """Seed-0 results must match the checked-in snapshot exactly.

    JSON round-trips Python floats losslessly (repr is shortest
    round-trip), so == here means bit-identical."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    fresh = json.loads(json.dumps(_golden_payload()))
    assert fresh == golden, (
        "simulator output diverged from the golden seed-0 snapshot; if "
        f"the change is intentional, regenerate with: {REGEN}"
    )


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_bench_workloads_match_pins(workload):
    """What ``bench/`` simulates must match the checked-in pins exactly."""
    with open(BENCH_GOLDEN_PATH) as fh:
        pinned = json.load(fh)[workload]
    fresh = _bench_workload_pins(workload)
    moved = _golden_diff({workload: pinned}, {workload: fresh})
    assert fresh == pinned, (
        f"{workload} diverged from its bench pins:\n" + "\n".join(moved)
        + f"\nif the change is intentional, regenerate with: {REGEN}"
    )


def _load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/runtime/test_determinism.py --regen")
    # Run everything before writing anything: a bench part that fails
    # its output checks raises here and leaves both files untouched.
    payloads = {
        GOLDEN_PATH: json.loads(json.dumps(_golden_payload())),
        BENCH_GOLDEN_PATH: {w: _bench_workload_pins(w)
                            for w in BENCH_WORKLOADS},
    }
    for path, payload in payloads.items():
        print(f"== {os.path.basename(path)}")
        for line in _golden_diff(_load(path), payload):
            print(line)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
