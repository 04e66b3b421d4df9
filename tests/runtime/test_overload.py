"""Overload protection: admission control, brownout, circuit breakers,
health-aware cluster dispatch, and bounded failover requeue."""

import math

import pytest

from repro.core import SystemBuilder
from repro.runtime import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AbortReason,
    AdapterBreaker,
    AdmissionConfig,
    AdmissionController,
    AdmissionVerdict,
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    FailureDetector,
    FaultInjector,
    FaultKind,
    FaultSpec,
    HedgeConfig,
    MultiGPUServer,
    ReplicaHealth,
    Request,
    RequestStatus,
)
from repro.workloads import RetrievalWorkload
from repro.workloads.burst import apply_load_bursts


def burst(adapters, n=6, input_tokens=128, output_tokens=4, arrival=0.0,
          spacing=0.001, **kwargs):
    return [
        Request(adapter_id=adapters[i % len(adapters)],
                arrival_time=arrival + spacing * i,
                input_tokens=input_tokens, output_tokens=output_tokens,
                **kwargs)
        for i in range(n)
    ]


def req(total=100, priority=PRIORITY_NORMAL, slo=None):
    return Request(adapter_id="lora-0", arrival_time=0.0,
                   input_tokens=total - 1, output_tokens=1,
                   priority=priority, slo_s=slo)


# ---------------------------------------------------------------------------
# Admission control (unit)
# ---------------------------------------------------------------------------

class TestAdmissionController:
    def evaluate(self, ctl, r, now=0.0, queue=0, kv=1.0, it=0.05,
                 batch=32, deadline=None):
        return ctl.evaluate(r, now, queue_depth=queue, kv_free_frac=kv,
                            est_iteration_s=it, max_batch_size=batch,
                            deadline_s=deadline)

    def test_token_bucket_rejects_then_refills(self):
        ctl = AdmissionController(AdmissionConfig(rate_tokens_per_s=100.0))
        # Bucket starts at one second of refill (100 tokens).
        assert self.evaluate(ctl, req(total=100)) is None
        assert (self.evaluate(ctl, req(total=100))
                is AdmissionVerdict.RATE_LIMITED)
        # Half a second refills 50 tokens: a 50-token request fits.
        assert self.evaluate(ctl, req(total=50), now=0.5) is None

    def test_rejected_request_is_not_charged(self):
        ctl = AdmissionController(AdmissionConfig(rate_tokens_per_s=100.0))
        assert (self.evaluate(ctl, req(total=500))
                is AdmissionVerdict.RATE_LIMITED)
        # The failed oversized attempt must not have drained the bucket.
        assert self.evaluate(ctl, req(total=100)) is None

    def test_queue_watermark(self):
        ctl = AdmissionController(AdmissionConfig(max_queue_depth=8))
        assert self.evaluate(ctl, req(), queue=7) is None
        assert (self.evaluate(ctl, req(), queue=8)
                is AdmissionVerdict.QUEUE_FULL)

    def test_low_priority_gets_a_lower_watermark(self):
        ctl = AdmissionController(AdmissionConfig(
            max_queue_depth=8, low_priority_factor=0.5,
        ))
        low = req(priority=PRIORITY_LOW)
        assert (self.evaluate(ctl, low, queue=4)
                is AdmissionVerdict.QUEUE_FULL)
        assert self.evaluate(ctl, req(), queue=4) is None

    def test_kv_headroom_floor(self):
        ctl = AdmissionController(AdmissionConfig(min_kv_headroom=0.1))
        assert self.evaluate(ctl, req(), kv=0.2) is None
        assert (self.evaluate(ctl, req(), kv=0.05)
                is AdmissionVerdict.KV_PRESSURE)

    def test_slo_reject_uses_queue_lower_bound(self):
        ctl = AdmissionController(AdmissionConfig(slo_reject=True))
        # 96 queued / batch 32 = 3 rounds x 0.05 s > 0.1 s deadline.
        assert (self.evaluate(ctl, req(slo=0.1), queue=96, deadline=0.1)
                is AdmissionVerdict.DEADLINE_UNMEETABLE)
        assert self.evaluate(ctl, req(slo=1.0), queue=96,
                             deadline=1.0) is None

    def test_high_priority_bypasses_bucket_but_not_deadline(self):
        ctl = AdmissionController(AdmissionConfig(
            rate_tokens_per_s=10.0, max_queue_depth=2, slo_reject=True,
        ))
        hi = req(total=1000, priority=PRIORITY_HIGH, slo=0.1)
        assert self.evaluate(ctl, hi, queue=50) is None
        assert (self.evaluate(ctl, hi, queue=96, deadline=0.1)
                is AdmissionVerdict.DEADLINE_UNMEETABLE)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(rate_tokens_per_s=-1.0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionConfig(min_kv_headroom=1.0)
        with pytest.raises(ValueError):
            AdmissionConfig(low_priority_factor=0.0)


# ---------------------------------------------------------------------------
# Brownout (unit)
# ---------------------------------------------------------------------------

class TestBrownoutController:
    def test_escalates_and_recovers_with_hysteresis(self):
        ctl = BrownoutController(BrownoutConfig(
            queue_high=10, dwell_s=0.1, ewma_alpha=1.0,
        ))
        assert ctl.observe(0.0, 30, 1.0) == 1
        # Dwell time not elapsed: no second escalation yet.
        assert ctl.observe(0.05, 30, 1.0) == 1
        assert ctl.observe(0.2, 30, 1.0) == 2
        # Pressure between exit (0.6) and enter (1.0): level holds.
        assert ctl.observe(0.4, 8, 1.0) == 2
        assert ctl.observe(0.6, 2, 1.0) == 1
        assert ctl.observe(0.8, 2, 1.0) == 0
        assert ctl.transitions == 4
        assert ctl.time_degraded > 0

    def test_kv_scarcity_adds_pressure(self):
        ctl = BrownoutController(BrownoutConfig(
            queue_high=100, kv_low=0.1, ewma_alpha=1.0, dwell_s=0.0,
        ))
        # Queue alone is negligible, but KV is nearly exhausted.
        assert ctl.observe(0.0, 1, 0.01) >= 1

    def test_level1_sheds_only_below_priority_floor(self):
        ctl = BrownoutController(BrownoutConfig(queue_high=1))
        ctl.level = 1
        waiting = [req(priority=PRIORITY_LOW),
                   req(priority=PRIORITY_NORMAL),
                   req(priority=PRIORITY_HIGH)]
        victims = ctl.shed_victims(waiting, excess=3)
        assert [v.priority for v in victims] == [PRIORITY_LOW]

    def test_deeper_levels_shed_lowest_priority_first(self):
        ctl = BrownoutController(BrownoutConfig(queue_high=1))
        ctl.level = 2
        waiting = [req(priority=PRIORITY_HIGH),
                   req(priority=PRIORITY_LOW),
                   req(priority=PRIORITY_NORMAL)]
        victims = ctl.shed_victims(waiting, excess=2)
        assert [v.priority for v in victims] == [PRIORITY_LOW,
                                                PRIORITY_NORMAL]

    def test_tier_properties(self):
        ctl = BrownoutController(BrownoutConfig(decode_cap=16))
        assert ctl.decode_cap is None and not ctl.force_merged
        ctl.level = 2
        assert ctl.decode_cap == 16 and not ctl.force_merged
        ctl.level = 3
        assert ctl.decode_cap == 16 and ctl.force_merged

    def test_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            BrownoutConfig(enter_pressure=0.5, exit_pressure=0.5)
        with pytest.raises(ValueError):
            BrownoutConfig(max_level=4)


# ---------------------------------------------------------------------------
# Circuit breakers (unit)
# ---------------------------------------------------------------------------

class TestAdapterBreaker:
    def test_opens_after_threshold(self):
        b = AdapterBreaker("lora-0", BreakerConfig(failure_threshold=2,
                                                   cooldown_s=1.0))
        assert not b.record_failure(0.0)
        assert not b.record_failure(0.1)
        assert b.record_failure(0.2)  # third consecutive failure opens
        assert b.state is BreakerState.OPEN
        assert not b.admit_allowed(0.3)

    def test_permanent_mode_matches_legacy_quarantine(self):
        b = AdapterBreaker("lora-0", BreakerConfig(failure_threshold=1,
                                                   cooldown_s=None))
        b.record_failure(0.0)
        assert b.record_failure(0.1)
        assert not b.admit_allowed(1e9)  # never half-opens

    def test_half_open_probe_then_close(self):
        b = AdapterBreaker("lora-0", BreakerConfig(failure_threshold=1,
                                                   cooldown_s=0.5))
        b.record_failure(0.0)
        b.record_failure(0.1)  # opens at 0.1
        assert not b.admit_allowed(0.2)
        assert b.admit_allowed(0.7)  # cooldown elapsed -> half-open
        assert b.state is BreakerState.HALF_OPEN
        assert b.record_success(0.8)  # probe succeeded -> closed
        assert b.state is BreakerState.CLOSED

    def test_failed_probe_reopens_with_escalated_cooldown(self):
        b = AdapterBreaker("lora-0", BreakerConfig(
            failure_threshold=1, cooldown_s=0.5, cooldown_multiplier=2.0,
        ))
        b.record_failure(0.0)
        b.record_failure(0.1)      # open #1 at 0.1 (cooldown 0.5)
        assert b.admit_allowed(0.7)
        assert b.record_failure(0.8)  # failed probe -> open #2
        # Second cooldown doubles to 1.0 s: still open at 0.8 + 0.9.
        assert not b.admit_allowed(1.7)
        assert b.admit_allowed(1.9)

    def test_success_resets_consecutive_failures(self):
        b = AdapterBreaker("lora-0", BreakerConfig(failure_threshold=2))
        b.record_failure(0.0)
        b.record_failure(0.1)
        b.record_success(0.2)
        assert b.consecutive_failures == 0
        assert not b.record_failure(0.3)


# ---------------------------------------------------------------------------
# Replica health (unit)
# ---------------------------------------------------------------------------

class TestReplicaHealth:
    def test_dead_scores_zero(self):
        h = ReplicaHealth(dead=True, queue_depth=0, iter_ewma=0.01)
        assert h.score(0.01) == 0.0

    def test_slowdown_and_queue_decay_score(self):
        idle = ReplicaHealth(dead=False, queue_depth=0, iter_ewma=0.01)
        slow = ReplicaHealth(dead=False, queue_depth=0, iter_ewma=0.04)
        busy = ReplicaHealth(dead=False, queue_depth=64, iter_ewma=0.01)
        assert idle.score(0.01) == 1.0
        assert slow.score(0.01) < idle.score(0.01)
        assert busy.score(0.01, queue_norm=64) < idle.score(0.01)

    def test_no_peer_data_is_neutral(self):
        h = ReplicaHealth(dead=False, queue_depth=0, iter_ewma=None)
        assert h.score(None) == 1.0


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

class TestEngineAdmission:
    def test_queue_limit_rejects_overflow(self):
        builder = SystemBuilder(
            num_adapters=2,
            admission=AdmissionConfig(max_queue_depth=8),
        )
        engine = builder.build("v-lora")
        reqs = burst(builder.adapter_ids, n=40, output_tokens=64)
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.admission_rejections > 0
        assert metrics.num_completed + metrics.num_aborted == 40
        rejected = [r for r in reqs
                    if r.abort_reason is AbortReason.ADMISSION_REJECTED]
        assert len(rejected) == metrics.admission_rejections
        assert "admission_rejections" in metrics.summary()

    def test_high_priority_survives_queue_limit(self):
        builder = SystemBuilder(
            num_adapters=2,
            admission=AdmissionConfig(max_queue_depth=4),
        )
        engine = builder.build("v-lora")
        normal = burst(builder.adapter_ids, n=30, output_tokens=64)
        vip = burst(builder.adapter_ids, n=4, output_tokens=64,
                    arrival=0.05, priority=PRIORITY_HIGH)
        engine.submit(normal + vip)
        engine.run()
        assert all(r.status is RequestStatus.FINISHED for r in vip)

    def test_admission_off_by_default(self):
        builder = SystemBuilder(num_adapters=2)
        engine = builder.build("v-lora")
        engine.submit(burst(builder.adapter_ids, n=40, output_tokens=64))
        metrics = engine.run()
        assert metrics.admission_rejections == 0
        assert metrics.num_completed == 40
        assert "admission_rejections" not in metrics.summary()


class TestEngineBrownout:
    def _flood(self, brownout, n=80, **req_kwargs):
        builder = SystemBuilder(num_adapters=4, brownout=brownout)
        engine = builder.build("v-lora")
        reqs = burst(builder.adapter_ids, n=n, output_tokens=64,
                     **req_kwargs)
        engine.submit(reqs)
        return reqs, engine.run()

    def test_level1_sheds_low_priority(self):
        reqs, metrics = self._flood(
            BrownoutConfig(queue_high=8, dwell_s=10.0, max_level=1),
            priority=PRIORITY_LOW,
        )
        assert metrics.brownout_sheds > 0
        shed = [r for r in reqs
                if r.abort_reason is AbortReason.BROWNOUT_SHED]
        assert len(shed) == metrics.brownout_sheds
        assert all(r.priority == PRIORITY_LOW for r in shed)
        assert metrics.num_completed + metrics.num_aborted == len(reqs)

    def test_level1_spares_normal_priority(self):
        _, metrics = self._flood(
            BrownoutConfig(queue_high=8, dwell_s=10.0, max_level=1),
        )
        assert metrics.brownout_sheds == 0
        assert metrics.brownout_transitions > 0

    def test_level2_caps_decode_lengths(self):
        reqs, metrics = self._flood(
            BrownoutConfig(queue_high=8, dwell_s=0.01, max_level=2,
                           decode_cap=4),
        )
        assert metrics.brownout_truncations > 0
        truncated = [r for r in reqs if r.status is RequestStatus.FINISHED
                     and r.generated < r.output_tokens]
        assert truncated

    def test_level3_forces_merged_mode(self):
        # unmerge-only's policy never picks MERGED itself, so any merged
        # iteration under flood must come from the brownout override.
        builder = SystemBuilder(
            num_adapters=4,
            brownout=BrownoutConfig(queue_high=8, dwell_s=0.01,
                                    max_level=3, decode_cap=4),
        )
        engine = builder.build("unmerge-only")
        engine.submit(burst(builder.adapter_ids, n=80, output_tokens=64))
        metrics = engine.run()
        assert metrics.brownout_forced_merges > 0
        assert metrics.mode_iterations.get("merged", 0) > 0

    def test_brownout_off_by_default(self):
        builder = SystemBuilder(num_adapters=4)
        engine = builder.build("v-lora")
        engine.submit(burst(builder.adapter_ids, n=80, output_tokens=64,
                            priority=PRIORITY_LOW))
        metrics = engine.run()
        assert metrics.brownout_sheds == 0
        assert metrics.brownout_transitions == 0


class TestEngineBreakers:
    def test_breaker_reopens_adapter_after_cooldown(self):
        # lora-3's swaps fail only during [0, 0.4); with a cooldown the
        # breaker must re-probe and serve lora-3 again afterwards.
        inj = FaultInjector([
            FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, 0.4,
                      target="lora-3"),
        ])
        builder = SystemBuilder(
            num_adapters=4, gpu_adapter_slots=2, fault_injector=inj,
            breaker=BreakerConfig(failure_threshold=2, cooldown_s=0.3),
        )
        engine = builder.build("v-lora")
        early = burst(["lora-3"], n=4, output_tokens=4)
        late = burst(["lora-3"], n=4, arrival=2.0, spacing=0.2,
                     output_tokens=4)
        filler = burst(["lora-0", "lora-1"], n=8, spacing=0.25,
                       output_tokens=16)
        engine.submit(early + late + filler)
        metrics = engine.run()
        assert metrics.breaker_opens >= 1
        assert metrics.breaker_half_opens >= 1
        assert metrics.breaker_closes >= 1
        # Post-recovery lora-3 traffic completed: the adapter came back.
        assert any(r.status is RequestStatus.FINISHED for r in late)

    def test_permanent_quarantine_still_the_default(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, math.inf,
                      target="lora-3"),
        ])
        builder = SystemBuilder(num_adapters=4, gpu_adapter_slots=2,
                                fault_injector=inj)
        engine = builder.build("v-lora")
        engine.submit(burst(builder.adapter_ids, n=8, output_tokens=4)
                      + burst(["lora-3"], n=1, arrival=30.0))
        metrics = engine.run()
        assert metrics.adapters_quarantined == 1
        assert metrics.breaker_opens == 1
        assert metrics.breaker_half_opens == 0
        assert metrics.breaker_closes == 0


# ---------------------------------------------------------------------------
# Load-burst shaping
# ---------------------------------------------------------------------------

class TestLoadBursts:
    def test_compression_densifies_window(self):
        reqs = burst(["lora-0"], n=40, spacing=0.1)  # 10 rps over 4 s
        window = FaultSpec(FaultKind.LOAD_BURST, 1.0, 2.0, magnitude=4.0)
        out = apply_load_bursts(reqs, [window])
        assert len(out) == 40
        inside = [r for r in out if 1.0 <= r.arrival_time < 3.0]
        # The window's arrivals compress into its first quarter.
        assert inside and all(r.arrival_time < 1.5 + 1e-9 for r in inside)
        arrivals = [r.arrival_time for r in out]
        assert arrivals == sorted(arrivals)

    def test_no_windows_is_identity(self):
        reqs = burst(["lora-0"], n=10, spacing=0.1)
        before = [r.arrival_time for r in reqs]
        out = apply_load_bursts(reqs, FaultInjector([]))
        assert [r.arrival_time for r in out] == before

    def test_injector_source_and_magnitude_validation(self):
        inj = FaultInjector.random(horizon_s=10.0, seed=3,
                                   load_burst_rate=0.5)
        assert inj.load_burst_windows()
        assert inj.load_burst_factor(1e9) == 1.0 or True  # pure query
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LOAD_BURST, 0.0, magnitude=0.5)


# ---------------------------------------------------------------------------
# Cluster: dead-replica avoidance, health, bounded requeue
# ---------------------------------------------------------------------------

class TestClusterDispatchAvoidsDead:
    @pytest.mark.parametrize("dispatch", ["least-loaded", "round-robin",
                                          "adapter-affinity"])
    def test_prestart_dead_replica_gets_no_traffic(self, dispatch):
        # gpu-0 is dead before any arrival; dispatch must not use it, so
        # the run needs no failover at all.
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.0, target="gpu-0"),
        ])
        builder = SystemBuilder(num_adapters=4, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2, dispatch=dispatch,
        )
        reqs = burst(builder.adapter_ids, n=12, output_tokens=16)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.num_completed == 12
        assert metrics.failover_events == 0
        assert server.per_engine_completed()[0] == 0

    def test_all_dead_still_terminates(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.0, target="gpu-0"),
            FaultSpec(FaultKind.ENGINE_FAIL, 0.0, target="gpu-1"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2,
        )
        reqs = burst(builder.adapter_ids, n=6, output_tokens=16)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.num_completed + metrics.num_aborted == 6
        assert all(r.is_terminal for r in reqs)


class TestClusterMetricsMerge:
    def test_run_summary_includes_cluster_events(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.2, target="gpu-0"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2,
        )
        reqs = burst(builder.adapter_ids, n=12, output_tokens=64)
        server.submit(reqs)
        merged = server.run()
        assert server.cluster_metrics.failover_events > 0
        # The collector returned by run() folds cluster-level events in
        # with per-replica metrics: nothing is reported on the side.
        assert merged.failover_events == server.cluster_metrics.failover_events
        assert merged.num_completed == sum(server.per_engine_completed())
        assert merged.summary()["failover_events"] == float(
            merged.failover_events
        )

    def test_per_engine_completed_keeps_retired_replicas(self):
        """Regression: a replica retired after failing mid-run keeps the
        completions it made before it died."""
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 1.5, target="gpu-0"),
        ])
        builder = SystemBuilder(num_adapters=4, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=3,
            dispatch="locality",
        )
        server.submit(burst(builder.adapter_ids, n=54, output_tokens=32,
                            spacing=0.05))
        merged = server.run()
        counts = server.per_engine_completed()
        assert len(counts) == 3
        assert counts[0] > 0
        assert sum(counts) == merged.num_completed

    @pytest.mark.parametrize("fence", ["hedge", "detector"])
    def test_per_engine_completed_on_fenced_cluster(self, fence):
        """Regression: with hedging or a detector, terminals arrive
        through the lease fence and still count for the replica that
        produced them."""
        builder = SystemBuilder(num_adapters=4)
        kwargs = ({"hedge": HedgeConfig()} if fence == "hedge"
                  else {"detector": FailureDetector()})
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), 2, **kwargs)
        server.submit(RetrievalWorkload(
            builder.adapter_ids, rate_rps=10.0, duration_s=3.0,
            seed=0).generate())
        merged = server.run()
        counts = server.per_engine_completed()
        assert merged.num_completed > 0
        assert all(c > 0 for c in counts)
        assert sum(counts) == merged.num_completed


class TestCascadingFailover:
    def _cascade(self, **server_kwargs):
        # gpu-0 dies early; gpu-1 finishes its own work, inherits some
        # of gpu-0's orphans, then dies at 4.0 s while still chewing on
        # them — those requests are orphaned twice before gpu-2 gets
        # them.
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.1, target="gpu-0"),
            FaultSpec(FaultKind.ENGINE_FAIL, 4.0, target="gpu-1"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=3,
            dispatch="round-robin", **server_kwargs,
        )
        reqs = burst(builder.adapter_ids, n=18, output_tokens=200)
        server.submit(reqs)
        return reqs, server, server.run()

    def test_two_cascade_conserves_requests(self):
        reqs, server, metrics = self._cascade()
        assert metrics.num_completed + metrics.num_aborted == 18
        assert all(r.is_terminal for r in reqs)
        # No double counting: each request appears exactly once across
        # completion and abort records.
        ids = ([r.request_id for r in metrics.records]
               + [a.request_id for a in metrics.aborts])
        assert len(ids) == len(set(ids)) == 18
        assert metrics.engine_failures == 2
        assert any(r.requeues >= 2 for r in reqs)

    def test_requeue_budget_aborts_repeat_orphans(self):
        reqs, server, metrics = self._cascade(max_requeues=1)
        assert metrics.requeue_limit_aborts > 0
        capped = [r for r in reqs if r.requeues > 1]
        assert capped
        assert all(r.abort_reason is AbortReason.ENGINE_FAILED
                   for r in capped)
        assert metrics.num_completed + metrics.num_aborted == 18

    def test_requeue_backoff_delays_rehomed_arrivals(self):
        reqs, server, metrics = self._cascade(requeue_backoff_s=0.5)
        assert metrics.num_completed + metrics.num_aborted == 18
        rehomed = [r for r in reqs if r.requeues >= 1 and
                   r.status is RequestStatus.FINISHED]
        assert rehomed
        # Backoff pushed every re-homed arrival past the first failure.
        assert all(r.arrival_time >= 0.5 for r in rehomed)


class TestHealthAwareDispatch:
    def test_health_scores_rank_straggler_below_peer(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_SLOW, 0.0, math.inf, magnitude=6.0,
                      target="gpu-0"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2,
        )
        server.submit(burst(builder.adapter_ids, n=16, output_tokens=32))
        server.run()
        scores = server.health_scores()
        assert scores[0] < scores[1]

    def test_failover_prefers_healthy_survivor(self):
        # gpu-0 dies; gpu-1 is a 10x straggler.  Health-aware failover
        # must push the orphans to gpu-2.
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.2, target="gpu-0"),
            FaultSpec(FaultKind.ENGINE_SLOW, 0.0, math.inf,
                      magnitude=10.0, target="gpu-1"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)

        def orphan_split(health_aware):
            server = MultiGPUServer.replicate(
                lambda: builder.build("v-lora"), num_gpus=3,
                dispatch="round-robin", health_aware=health_aware,
            )
            reqs = burst(builder.adapter_ids, n=18, output_tokens=200)
            server.submit(reqs)
            metrics = server.run()
            assert metrics.num_completed + metrics.num_aborted == 18
            rehomed = [r for r in reqs if r.requeues >= 1]
            assert rehomed
            on_straggler = sum(
                1 for r in rehomed
                if r.request_id in {
                    rec.request_id
                    for rec in server.replicas[1].engine.metrics.records
                }
            )
            return on_straggler, len(rehomed)

        aware_straggler, aware_total = orphan_split(True)
        assert aware_straggler < aware_total  # gpu-2 took orphans

    def test_constructor_validation(self):
        builder = SystemBuilder(num_adapters=2)
        engine = builder.build("v-lora")
        with pytest.raises(ValueError, match="health_floor"):
            MultiGPUServer([engine], health_floor=1.5)
        with pytest.raises(ValueError, match="max_requeues"):
            MultiGPUServer([engine], max_requeues=0)
