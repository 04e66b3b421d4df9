"""Gray-failure detection — the φ frontier under partition storms.

The φ-accrual detector trades **detection latency** against **duplicate
work**: a low ``phi_confirm`` seizes a silent replica's lease quickly
(real deaths detected fast) but confirms transient partitions as dead —
their in-flight work is re-dispatched and the partitioned replica's
late results arrive as fenced duplicates.  A high ``phi_confirm`` waits
out the partitions but leaves a truly dead replica's work stranded for
seconds.

This bench drives one fixed storm — two transient partitions, one
heartbeat-loss window, and one true engine death — through the same
3-replica cluster at several ``phi_confirm`` thresholds and charts the
frontier: confirmed-death latency vs fenced (zombie) completions and
false suspicions.  At every point on the frontier the lease fence must
hold **exactly-once delivery**: no request may ever reach two terminal
states, no matter how aggressively the detector confirms.

Run it with ``pytest --benchmark-disable benchmarks/bench_partition.py``;
the result lands in ``results/partition_phi_frontier.json``.
"""

from _common import duplicate_terminals

from repro.core import SystemBuilder
from repro.runtime import (
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
    reset_request_ids,
)
from repro.workloads import RetrievalWorkload

ADAPTERS = 4
RATE_RPS = 16.0
DURATION_S = 6.0
NUM_GPUS = 3
NUM_HOSTS = 2
SEED = 0

#: Swept confirmation thresholds (the frontier's x-axis).  8.0 is the
#: runtime default; ``phi_suspect`` stays strictly below each point.
PHI_CONFIRMS = (2.0, 4.0, 8.0)
DEFAULT_PHI_CONFIRM = 8.0


def _storm():
    """One fixed gray-failure storm.

    gpu-1 partitions long enough that aggressive thresholds confirm it
    dead while it keeps computing (zombie replay); gpu-2's partition is
    short (false suspicion that heals); gpu-0 drops heartbeats for a
    while (monitoring-path loss only) and then *actually* dies — the
    one event whose detection latency the frontier measures.
    """
    return FaultInjector([
        FaultSpec(FaultKind.NETWORK_PARTITION, 1.0, 2.5, target="gpu-1"),
        FaultSpec(FaultKind.NETWORK_PARTITION, 4.0, 0.8, target="gpu-2"),
        FaultSpec(FaultKind.HEARTBEAT_LOSS, 2.0, 1.0, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, 5.0, target="gpu-0"),
    ])


def _workload(seed=SEED):
    return RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(ADAPTERS)],
        rate_rps=RATE_RPS,
        duration_s=DURATION_S,
        use_task_heads=False,
        slo_s=None,
        seed=seed,
    ).generate()


def run_phi_sweep(seed=SEED):
    rows = []
    for phi_confirm in PHI_CONFIRMS:
        reset_request_ids()
        builder = SystemBuilder(num_adapters=ADAPTERS, max_batch_size=8,
                                fault_injector=_storm())
        detector = FailureDetector(FailureDetectorConfig(
            phi_suspect=min(2.0, phi_confirm / 2.0),
            phi_confirm=phi_confirm,
        ))
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), NUM_GPUS,
            detector=detector, num_hosts=NUM_HOSTS, max_requeues=4,
        )
        requests = _workload(seed=seed)
        server.submit(requests)
        metrics = server.run()
        dupes, lost = duplicate_terminals(requests, metrics)
        lat = metrics.detection_latencies
        rows.append({
            "phi_confirm": phi_confirm,
            "submitted": len(requests),
            "completed": metrics.num_completed,
            "aborted": metrics.num_aborted,
            "suspicions": metrics.suspicions,
            "false_suspicions": metrics.false_suspicions,
            "confirmed_dead": len(lat),
            "detection_latency_s": round(min(lat), 4) if lat else None,
            "fenced_completions": metrics.fenced_completions,
            "partition_heals": metrics.partition_heals,
            "failover_events": metrics.failover_events,
            "duplicate_terminals": dupes,
            "lost_requests": lost,
        })
    return {"rows": rows, "seed": seed,
            "default_phi_confirm": DEFAULT_PHI_CONFIRM}


def _check(data):
    """The acceptance criteria; raises AssertionError on regression."""
    rows = data["rows"]
    assert len(rows) >= 3, "frontier needs >= 3 swept thresholds"
    # Exactly-once is unconditional: every threshold, zero duplicates.
    for row in rows:
        assert row["duplicate_terminals"] == 0, row
        assert row["lost_requests"] == 0, row
    # The true death is detected at every threshold...
    for row in rows:
        assert row["confirmed_dead"] >= 1, row
    # ...and detecting it costs more latency as phi_confirm rises.
    lats = [row["detection_latency_s"] for row in rows]
    assert lats == sorted(lats), lats
    # Aggressive confirmation of the long partition produces zombie
    # replay, and all of it is fenced.
    assert rows[0]["fenced_completions"] > 0, rows[0]
    # The default threshold rides out the monitoring-path faults.
    default = next(r for r in rows
                   if r["phi_confirm"] == data["default_phi_confirm"])
    assert default["duplicate_terminals"] == 0, default


def test_partition_phi_frontier(results):
    data = run_phi_sweep()
    _check(data)
    results.print_table(
        f"gray-failure frontier: {NUM_GPUS} replicas / {NUM_HOSTS} hosts, "
        f"partition storm + 1 true death, {RATE_RPS:.0f} rps",
        ["phi_conf", "done", "aborted", "susp", "false", "det_lat_s",
         "fenced", "dupes"],
        [[r["phi_confirm"], r["completed"], r["aborted"], r["suspicions"],
          r["false_suspicions"], r["detection_latency_s"],
          r["fenced_completions"], r["duplicate_terminals"]]
         for r in data["rows"]],
    )
    results.save("partition_phi_frontier", data)
