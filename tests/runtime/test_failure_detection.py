"""φ-accrual failure detection and lease-fenced exactly-once dispatch."""

import math

import pytest

from repro.core import SystemBuilder
from repro.runtime import (
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
    PhiAccrualDetector,
    Request,
    RequestStatus,
    SuspicionState,
)

HB = 0.25  # default heartbeat cadence used throughout


def burst(adapters, n=6, input_tokens=128, output_tokens=4, arrival=0.0,
          **kwargs):
    return [
        Request(adapter_id=adapters[i % len(adapters)],
                arrival_time=arrival + 0.001 * i,
                input_tokens=input_tokens, output_tokens=output_tokens,
                **kwargs)
        for i in range(n)
    ]


def assert_exactly_once(requests, metrics):
    """Every request reached exactly one terminal state, none twice."""
    assert all(r.is_terminal for r in requests)
    rec_ids = [r.request_id for r in metrics.records]
    abort_ids = [r.request_id for r in metrics.aborts]
    assert len(rec_ids) == len(set(rec_ids))
    assert len(abort_ids) == len(set(abort_ids))
    assert not set(rec_ids) & set(abort_ids)
    assert set(rec_ids) | set(abort_ids) == {r.request_id for r in requests}


class TestFailureDetectorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureDetectorConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ValueError):
            FailureDetectorConfig(phi_suspect=-1.0)
        with pytest.raises(ValueError):
            FailureDetectorConfig(phi_suspect=4.0, phi_confirm=4.0)


class TestPhiAccrual:
    def test_phi_grows_with_silence(self):
        det = PhiAccrualDetector(FailureDetectorConfig(), registered_at=0.0)
        det.heartbeat(HB)
        assert det.phi(HB) == 0.0
        assert det.phi(HB + 0.5) > 0.0
        assert det.phi(HB + 2.0) > det.phi(HB + 0.5)

    def test_phi_is_silence_in_decades_of_mean_gap(self):
        det = PhiAccrualDetector(FailureDetectorConfig(), registered_at=0.0)
        # Warm-up mean is the configured cadence; one decade of it -> φ=1.
        assert det.phi(HB * math.log(10.0)) == pytest.approx(1.0)

    def test_mean_warms_up_from_configured_cadence(self):
        cfg = FailureDetectorConfig()
        det = PhiAccrualDetector(cfg, registered_at=0.0)
        det.heartbeat(1.0)
        det.heartbeat(2.0)
        assert det.mean_interval() == cfg.heartbeat_interval_s
        det.heartbeat(3.0)  # third sample: switch to the observed mean
        assert det.mean_interval() == pytest.approx(1.0)

    def test_stale_heartbeats_ignored(self):
        det = PhiAccrualDetector(FailureDetectorConfig(), registered_at=0.0)
        det.heartbeat(1.0)
        det.heartbeat(0.5)   # late duplicate from before the last beat
        det.heartbeat(1.0)   # exact duplicate
        assert det.last_heartbeat == 1.0
        assert len(det._intervals) == 1

    def test_late_in_order_delivery_reconstructs_history(self):
        # Withheld-then-healed heartbeats arrive with their original
        # timestamps; delivering them in order must not leave one giant
        # interval in the window.
        det = PhiAccrualDetector(FailureDetectorConfig(), registered_at=0.0)
        for t in (HB, 2 * HB, 3 * HB, 4 * HB):
            det.heartbeat(t)
        assert det.mean_interval() == pytest.approx(HB)


class TestFailureDetector:
    def _det(self, suspect=2.0, confirm=8.0):
        det = FailureDetector(FailureDetectorConfig(
            phi_suspect=suspect, phi_confirm=confirm))
        det.register("gpu-0", 0.0)
        return det

    def test_register_duplicate_raises(self):
        det = self._det()
        with pytest.raises(ValueError):
            det.register("gpu-0", 1.0)

    def test_unknown_replica_defaults_alive(self):
        det = self._det()
        assert det.state_of("nope") is SuspicionState.ALIVE
        det.heartbeat("nope", 1.0)  # ignored, no crash

    def test_suspect_then_confirm(self):
        det = self._det()
        suspect_at = 2.0 * HB * math.log(10.0)
        confirm_at = 8.0 * HB * math.log(10.0)
        assert det.evaluate(suspect_at / 2) == []
        trans = det.evaluate(suspect_at + 1e-9)
        assert trans == [("gpu-0", SuspicionState.ALIVE,
                          SuspicionState.SUSPECTED)]
        trans = det.evaluate(confirm_at + 1e-9)
        assert trans == [("gpu-0", SuspicionState.SUSPECTED,
                          SuspicionState.CONFIRMED_DEAD)]

    def test_false_suspicion_heals(self):
        det = self._det()
        det.evaluate(2.0)  # silence -> SUSPECTED
        assert det.state_of("gpu-0") is SuspicionState.SUSPECTED
        det.heartbeat("gpu-0", 2.1)
        trans = det.evaluate(2.2)
        assert trans == [("gpu-0", SuspicionState.SUSPECTED,
                          SuspicionState.ALIVE)]

    def test_confirmed_dead_is_sticky(self):
        det = self._det()
        det.evaluate(100.0)
        assert det.state_of("gpu-0") is SuspicionState.CONFIRMED_DEAD
        det.heartbeat("gpu-0", 100.1)  # zombie beat: ignored
        assert det.evaluate(100.2) == []
        assert det.state_of("gpu-0") is SuspicionState.CONFIRMED_DEAD

    def test_evaluate_is_sorted_and_deterministic(self):
        det = FailureDetector(FailureDetectorConfig())
        for rid in ("gpu-2", "gpu-0", "gpu-1"):
            det.register(rid, 0.0)
        trans = det.evaluate(100.0)
        assert [t[0] for t in trans] == ["gpu-0", "gpu-1", "gpu-2"]
        assert all(new is SuspicionState.CONFIRMED_DEAD
                   for _, _, new in trans)


class TestClusterDetection:
    """End-to-end: detector replaces the oracle in the cluster loop."""

    def _cluster(self, inj, num_gpus=2, num_hosts=0, suspect=1.0,
                 confirm=3.0, **kwargs):
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        det = FailureDetector(FailureDetectorConfig(
            phi_suspect=suspect, phi_confirm=confirm))
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=num_gpus,
            dispatch="round-robin", detector=det, num_hosts=num_hosts,
            **kwargs)
        return builder, server

    def test_no_faults_no_detector_noise(self):
        builder, server = self._cluster(None)
        reqs = burst(builder.adapter_ids, n=8, output_tokens=32)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.num_completed == 8
        assert metrics.suspicions == 0
        assert metrics.false_suspicions == 0
        assert metrics.fenced_completions == 0
        assert_exactly_once(reqs, metrics)

    def test_engine_fail_detected_and_failed_over(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.3, target="gpu-0"),
        ])
        builder, server = self._cluster(inj)
        reqs = burst(builder.adapter_ids, n=10, output_tokens=64)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.suspicions >= 1
        assert metrics.failover_events > 0
        assert len(metrics.detection_latencies) == 1
        # Confirmation takes phi_confirm decades of the heartbeat gap.
        assert metrics.detection_latencies[0] >= 3.0 * HB * math.log(10.0) / 2
        assert_exactly_once(reqs, metrics)

    def test_heartbeat_loss_is_false_suspicion_not_death(self):
        # Monitoring-path loss only: work is unaffected, so the replica
        # must be suspected (drained) and then healed, never confirmed.
        inj = FaultInjector([
            FaultSpec(FaultKind.HEARTBEAT_LOSS, 0.5, 1.0, target="gpu-0"),
        ])
        builder, server = self._cluster(inj, suspect=1.0, confirm=20.0)
        reqs = burst(builder.adapter_ids, n=10, output_tokens=200)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.suspicions >= 1
        assert metrics.false_suspicions >= 1
        assert metrics.engine_failures == 0
        assert metrics.fenced_completions == 0
        assert metrics.num_completed == 10
        assert_exactly_once(reqs, metrics)

    def test_partition_zombie_completions_are_fenced(self):
        # A long partition: the replica keeps computing, gets confirmed
        # dead, its work is re-dispatched; its own results must arrive
        # as fenced duplicates, never double-terminating a request.
        inj = FaultInjector([
            FaultSpec(FaultKind.NETWORK_PARTITION, 0.5, 60.0,
                      target="gpu-0"),
        ])
        builder, server = self._cluster(inj)
        reqs = burst(builder.adapter_ids, n=10, output_tokens=64)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.suspicions >= 1
        assert metrics.fenced_completions > 0
        assert metrics.failover_events > 0
        assert_exactly_once(reqs, metrics)

    def test_partition_heal_readmits_replica(self):
        # Short partition, generous confirm threshold: the replica is
        # suspected, the partition heals, withheld heartbeats+results
        # are delivered, and the replica returns to ALIVE.
        inj = FaultInjector([
            FaultSpec(FaultKind.NETWORK_PARTITION, 0.5, 1.0,
                      target="gpu-0"),
        ])
        builder, server = self._cluster(inj, suspect=1.0, confirm=30.0)
        reqs = burst(builder.adapter_ids, n=10, output_tokens=200)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.partition_heals == 1
        assert metrics.false_suspicions >= 1
        assert metrics.fenced_completions == 0
        assert metrics.num_completed == 10
        assert_exactly_once(reqs, metrics)

    def test_host_fail_kills_the_whole_domain(self):
        # 3 replicas over 2 hosts: gpu-0,gpu-2 -> host-0; gpu-1 -> host-1.
        inj = FaultInjector([
            FaultSpec(FaultKind.HOST_FAIL, 0.3, target="host-0"),
        ])
        builder, server = self._cluster(inj, num_gpus=3, num_hosts=2)
        hosts = {rep.replica_id: rep.engine.host for rep in server.replicas}
        assert hosts == {"gpu-0": "host-0", "gpu-1": "host-1",
                         "gpu-2": "host-0"}
        reqs = burst(builder.adapter_ids, n=12, output_tokens=64)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.engine_failures == 2
        assert len(metrics.detection_latencies) == 2
        assert server.detector.state_of("gpu-1") is SuspicionState.ALIVE
        assert_exactly_once(reqs, metrics)

    def test_summary_surfaces_detector_counters(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.NETWORK_PARTITION, 0.5, 60.0,
                      target="gpu-0"),
            FaultSpec(FaultKind.ENGINE_FAIL, 0.5, target="gpu-1"),
        ])
        builder, server = self._cluster(inj, num_gpus=3)
        server.submit(burst(builder.adapter_ids, n=10, output_tokens=64))
        summary = server.run().summary()
        assert summary["suspicions"] >= 1
        assert summary["fenced_completions"] >= 1
        assert "detection_latency_p50_s" in summary
        assert "detection_latency_p99_s" in summary

    def test_detector_off_summary_has_no_detector_keys(self):
        builder = SystemBuilder(num_adapters=2)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2)
        server.submit(burst(builder.adapter_ids, n=6))
        summary = server.run().summary()
        for key in ("suspicions", "false_suspicions", "fenced_completions",
                    "partition_heals", "detection_latency_p50_s"):
            assert key not in summary
