"""Request-conservation properties under randomized traces and faults.

The cluster's master invariant: **every submitted request reaches exactly
one terminal state** (FINISHED or ABORTED) — never lost, never double
counted — regardless of dispatch policy, injected faults, or replica
lifecycle churn (spawn / drain / fail mid-drain).

Hypothesis drives randomized traces through every dispatch policy ×
fault menu combination (200+ cases per full run); deterministic tests
pin down the lifecycle corners randomness can't reliably reach
(mid-drain failover, drain-requeue accounting vs. the failover budget).
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import autoscaler, placement as placement_mod
from repro.runtime import (
    AutoscaleConfig,
    Autoscaler,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    MultiGPUServer,
    Request,
    RequestStatus,
    reset_request_ids,
)

pytestmark = pytest.mark.property

ADAPTER_IDS = [f"lora-{i}" for i in range(3)]
DISPATCH_POLICIES = ("least-loaded", "round-robin", "adapter-affinity")

#: Named fault schedules the randomized traces run under.  ``chaos`` is
#: degraded-but-alive; ``one-dead`` forces failover; ``all-dead`` forces
#: the abort path (conservation must hold even when nothing can run).
FAULT_MENUS = {
    "none": (),
    "chaos": (
        FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, start=0.0, duration=2.0,
                  target=ADAPTER_IDS[0]),
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.5, duration=2.0,
                  magnitude=3.0, target="gpu-0"),
        FaultSpec(FaultKind.KV_PRESSURE, start=1.0, duration=1.5,
                  magnitude=0.4),
    ),
    "one-dead": (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.75, target="gpu-1"),
    ),
    "all-dead": (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.5, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.9, target="gpu-1"),
    ),
}

_BUILDER = SystemBuilder(num_adapters=len(ADAPTER_IDS), max_batch_size=8,
                         deadline_slo_factor=4.0)


@st.composite
def traces(draw):
    """A bounded random request trace (1..14 requests over ~3s)."""
    n = draw(st.integers(1, 14))
    reqs = []
    for _ in range(n):
        reqs.append(Request(
            adapter_id=draw(st.sampled_from(ADAPTER_IDS)),
            arrival_time=draw(st.floats(0.0, 3.0)),
            input_tokens=draw(st.integers(1, 256)),
            output_tokens=draw(st.integers(1, 16)),
            use_task_head=False,
            slo_s=draw(st.sampled_from([None, 2.0, 8.0])),
        ))
    return reqs


def assert_exactly_once_terminal(requests, metrics):
    """Every request terminal exactly once; metrics agree with statuses."""
    finished = [r for r in requests if r.status is RequestStatus.FINISHED]
    aborted = [r for r in requests if r.status is RequestStatus.ABORTED]
    # Terminal, and no request in both camps (statuses are exclusive).
    assert len(finished) + len(aborted) == len(requests)
    # Metrics saw each terminal exactly once.
    assert metrics.num_completed == len(finished)
    assert metrics.num_aborted == len(aborted)
    rec_ids = [rec.request_id for rec in metrics.records]
    abort_ids = [ab.request_id for ab in metrics.aborts]
    assert len(set(rec_ids)) == len(rec_ids), "double-completed request"
    assert len(set(abort_ids)) == len(abort_ids), "double-aborted request"
    assert not set(rec_ids) & set(abort_ids), "completed AND aborted"
    assert set(rec_ids) | set(abort_ids) == {r.request_id for r in requests}
    # Latency sanity on the completions.
    for rec in metrics.records:
        assert rec.finish_time >= rec.arrival_time
        assert math.isfinite(rec.latency) and rec.latency >= 0.0
    # No request aborts before it arrives.
    for ab in metrics.aborts:
        assert ab.abort_time >= ab.arrival_time, ab


def _fresh_cluster(dispatch, faults, num_gpus=2, **kwargs):
    injector = FaultInjector(list(faults)) if faults else None
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    return MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), num_gpus, dispatch=dispatch,
        **kwargs,
    )


@pytest.mark.parametrize("dispatch", DISPATCH_POLICIES)
@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=18, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_static_cluster_exactly_once(dispatch, menu, requests):
    """3 policies × 4 fault menus × 18 examples = 216 randomized cases."""
    reset_request_ids()
    server = _fresh_cluster(dispatch, FAULT_MENUS[menu], max_requeues=4)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    # Nothing may be left in flight on any surviving engine.
    assert all(e.num_live == 0 for e in server.engines)


@pytest.mark.parametrize("num_gpus", [2, 4])
def test_feature_free_cluster_accounts_gpu_seconds(num_gpus):
    """No component sets a control interval, so the run is unbounded
    epochs; every replica is still charged from t=0 to the run's end."""
    reset_request_ids()
    server = _fresh_cluster("least-loaded", (), num_gpus=num_gpus)
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=0.1 * i, input_tokens=64, output_tokens=32,
                use_task_head=False)
        for i in range(16)
    ]
    server.submit(requests)
    metrics = server.run()
    assert metrics.num_completed == len(requests)
    end = max(rec.finish_time for rec in metrics.records)
    assert metrics.gpu_seconds_total == pytest.approx(num_gpus * end)


@pytest.mark.parametrize("dispatch", DISPATCH_POLICIES)
def test_no_survivor_aborts_not_backdated(dispatch):
    """Once every replica is dead, the orphans abort when the cluster
    finds no survivor — never before their engine died."""
    reset_request_ids()
    server = _fresh_cluster(dispatch, FAULT_MENUS["all-dead"])
    requests = _long_requests(12)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    failed_at = [rep.engine.failed_at for rep in server.replicas]
    assert None not in failed_at
    orphaned = [ab for ab in metrics.aborts if ab.reason == "engine_failed"]
    assert orphaned
    assert metrics.failover_events >= len(orphaned)
    for ab in orphaned:
        assert ab.abort_time >= max(failed_at)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_autoscaled_cluster_exactly_once_under_chaos(requests, seed):
    """Randomized faults (incl. engine deaths and scale stalls) during
    lifecycle churn must never lose or duplicate a request."""
    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        swap_fail_rate=0.3, engine_slow_rate=0.2,
        engine_fail_rate=0.05, scale_stall_rate=0.2,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=3,
        target_queue_per_replica=2.0, down_fraction=0.7,
        down_cooldown_s=0.5,
        spinup_s=0.1, drain_timeout_s=2.0,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 1, autoscaler=scaler,
    )
    server.submit(requests)
    with mock.patch.object(autoscaler, "UP_COOLDOWN_S", 0.25):
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    # GPU-seconds accounting covers every replica that ever existed:
    # one initial replica plus every spawn, each with a finite lifetime.
    assert metrics.replicas_spawned == len(server.replicas) - 1
    assert metrics.gpu_seconds_total > 0.0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_detector_cluster_exactly_once_under_partition_storm(requests, seed):
    """Gray failures everywhere — partitions, heartbeat loss, correlated
    host deaths, true engine deaths — with an aggressive detector that
    confirms quickly (maximizing false confirmations and zombie replay).
    Exactly-once must survive: every stale completion a zombie replays
    is fenced, never double-terminating a request."""
    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1"), host_ids=("host-0", "host-1"),
        partition_rate=0.3, heartbeat_loss_rate=0.2,
        engine_fail_rate=0.05, host_fail_rate=0.03, engine_slow_rate=0.1,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1.0, phi_confirm=3.0))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, detector=detector,
        num_hosts=2, max_requeues=4,
    )
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    # Zombie outboxes were fully reconciled: every withheld result was
    # either accepted once or fenced, never left pending.
    for rep in server.replicas:
        assert rep.engine.completion_outbox == []
    assert not server._zombie_mail


def _long_requests(n, output_tokens=192, arrival=0.0):
    return [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=arrival, input_tokens=64,
                output_tokens=output_tokens, use_task_head=False)
        for i in range(n)
    ]


def test_mid_drain_failover_exactly_once():
    """A replica that dies *while draining* must hand its in-flight work
    back through failover, and the cluster must heal and finish it."""
    faults = (
        FaultSpec(FaultKind.ENGINE_FAIL, start=2.0, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, start=2.0, target="gpu-1"),
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        fault_injector=FaultInjector(list(faults)),
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=2,
        # Huge target: the controller immediately wants to scale down,
        # so one of the two initial replicas starts draining while its
        # long-running batch is still in flight.
        target_queue_per_replica=100.0, down_fraction=0.9,
        down_cooldown_s=0.25, spinup_s=0.1, drain_timeout_s=30.0,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, autoscaler=scaler,
    )
    requests = _long_requests(12)
    server.submit(requests)
    metrics = server.run()

    assert_exactly_once_terminal(requests, metrics)
    # The scenario actually happened: a drain began, then both initial
    # replicas (including the draining one) died and work was re-homed.
    assert metrics.scale_down_events >= 1, "no drain ever started"
    actions = [ev.action for ev in metrics.scale_events]
    assert "fail" in actions, "no replica failed"
    # The cluster healed: fresh replicas finished the orphaned work.
    assert metrics.num_completed > 0
    assert metrics.replicas_spawned >= 1


def test_drain_requeue_does_not_consume_failover_budget():
    """Regression: re-homing during a drain timeout is bookkept as a
    ``drain_hop``, never as a failover ``requeue`` — so it must not
    burn the ``max_requeues`` budget."""
    builder = SystemBuilder(num_adapters=len(ADAPTER_IDS), max_batch_size=8)
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=2,
        target_queue_per_replica=100.0, down_fraction=0.9,
        down_cooldown_s=0.25, spinup_s=0.1,
        # Tiny timeout: the drain cannot finish its long batch in time,
        # so the orphans are forcibly re-homed through the requeue path.
        drain_timeout_s=0.5,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, autoscaler=scaler,
        # Tightest allowed failover budget: any accidental use of the
        # failover accounting for drain re-homing shows up as nonzero
        # ``requeues`` (and aborts on a second hop).
        max_requeues=1,
    )
    requests = _long_requests(12)
    server.submit(requests)
    metrics = server.run()

    assert_exactly_once_terminal(requests, metrics)
    assert metrics.drain_timeouts >= 1, "drain never timed out"
    assert metrics.drain_requeues >= 1, "nothing was re-homed"
    # Nothing aborted: the zero failover budget was never touched.
    assert metrics.num_aborted == 0
    rehomed = [r for r in requests if r.drain_hops > 0]
    assert rehomed, "no request recorded a drain hop"
    for r in rehomed:
        assert r.requeues == 0, "drain re-home consumed failover budget"


# -- tail-tolerant dispatch (hedging) -----------------------------------------


@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_hedged_cluster_exactly_once(menu, requests):
    """Exactly-once must survive hedged dispatch under every fault menu:
    two live copies race to a terminal, and the loser is always fenced —
    never a duplicate, never a lost request."""
    from repro.runtime import HedgeConfig

    reset_request_ids()
    server = _fresh_cluster(
        "least-loaded", FAULT_MENUS[menu], max_requeues=4,
        hedge=HedgeConfig(min_observations=4, window=32, after_s=0.25),
    )
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    # Every race that was started has exactly one fenced loser.
    assert metrics.hedge_losses == metrics.hedges_fired
    assert metrics.hedge_wins <= metrics.hedges_fired
    assert server._undispatched == []


def test_hedge_during_partition_heal_fenced_exactly_once():
    """A hedge fired against a partitioned straggler: the twin wins, the
    partition heals, and the original's late terminal must fence as a
    hedge loss — exactly once, never a duplicate terminal."""
    from repro.runtime import HedgeConfig

    reset_request_ids()
    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=10.0, target="gpu-0"),
        # The straggler is also partitioned: its completions buffer in
        # the outbox until the window closes.
        FaultSpec(FaultKind.NETWORK_PARTITION, start=0.2, duration=2.0,
                  target="gpu-0"),
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        fault_injector=FaultInjector(list(faults)),
    )
    # Detector thresholds far out of reach: the partitioned replica is
    # never suspected, so its work is hedged rather than seized.
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1e6, phi_confirm=1e7))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, detector=detector,
        hedge=HedgeConfig(min_observations=4, window=32, after_s=0.3),
    )
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.01, input_tokens=64, output_tokens=8)
        for i in range(16)
    ]
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.hedges_fired >= 1, "no hedge fired at the straggler"
    assert metrics.hedge_wins >= 1, "no twin beat the partitioned host"
    assert metrics.hedge_losses == metrics.hedges_fired
    # The partition healed and every buffered terminal was reconciled.
    for rep in server.replicas:
        assert rep.engine.completion_outbox == []
    assert not server._zombie_mail


@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_locality_cluster_exactly_once(menu, requests):
    """Exactly-once must survive cache-state-aware placement under every
    fault menu: spills, replication pins, prefetches, and stale registry
    entries (a decision made on a dead replica's behalf re-homes through
    the ordinary failover machinery, never losing a request)."""
    from repro.runtime import AdapterPlacement, PlacementConfig

    reset_request_ids()
    placement = AdapterPlacement(PlacementConfig(
        hot_watermark=0.2, hot_copies=2,
    ))
    server = _fresh_cluster("locality", FAULT_MENUS[menu],
                            max_requeues=4, placement=placement)
    server.submit(requests)
    with mock.patch.object(placement_mod, "SPILL_LOAD_FACTOR", 1.0), \
            mock.patch.object(placement_mod, "SPILL_SLACK_ROUNDS", 2.0):
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_locality_autoscaled_exactly_once_under_chaos(requests, seed):
    """Locality placement + lifecycle churn + randomized faults: replica
    registration/deregistration, warm-up prefetch, and drain bias must
    never lose or duplicate a request."""
    from repro.runtime import AdapterPlacement, PlacementConfig

    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        swap_fail_rate=0.3, engine_slow_rate=0.2,
        engine_fail_rate=0.05, scale_stall_rate=0.2,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=3,
        target_queue_per_replica=2.0, down_fraction=0.7,
        down_cooldown_s=0.5,
        spinup_s=0.1, drain_timeout_s=2.0,
    ))
    placement = AdapterPlacement(PlacementConfig(
        hot_watermark=0.2, hot_copies=2,
        prefetch_top_k=2,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 1, dispatch="locality",
        autoscaler=scaler, placement=placement,
    )
    server.submit(requests)
    with mock.patch.object(autoscaler, "UP_COOLDOWN_S", 0.25):
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    assert metrics.replicas_spawned == len(server.replicas) - 1


# -- disaggregated prefill/decode serving (docs/DISAGGREGATION.md) ------------


def _disagg_cluster(faults=(), prefill=1, decode=1, **kwargs):
    from repro.runtime import DisaggConfig

    injector = FaultInjector(list(faults)) if faults else None
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    disagg = DisaggConfig(prefill_replicas=prefill, decode_replicas=decode)
    return MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), prefill + decode,
        disagg=disagg, **kwargs,
    )


@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_disagg_cluster_exactly_once(menu, requests):
    """Exactly-once must survive the pool boundary under every fault
    menu — gpu-0 is the prefill pool and gpu-1 the decode pool, so
    ``one-dead`` kills the decode side (transferred requests rewind and
    re-prefill) and ``all-dead`` forces the abort path."""
    reset_request_ids()
    server = _disagg_cluster(FAULT_MENUS[menu], max_requeues=4)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    for rep in server.replicas:
        assert rep.engine.handoff_outbox == []
        assert rep.engine.num_live == 0 or rep.engine.failed


def test_disagg_prefill_death_mid_transfer_exactly_once():
    """The prefill replica dies with hand-offs still in its outbox: its
    KV died with it, so the outbox rewinds through failover — and with
    no prefill pool left and nothing to spawn, the survivors abort the
    rest.  Exactly one terminal either way."""
    faults = (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.15, target="gpu-0"),
    )
    reset_request_ids()
    server = _disagg_cluster(faults, max_requeues=4)
    # Staggered arrivals keep the prefill replica busy past its death
    # time, so it dies with finished prefills still in its outbox
    # (transfers only leave at epoch boundaries).
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.04, input_tokens=64,
                output_tokens=64, use_task_head=False)
        for i in range(10)
    ]
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    # The death actually happened, with the outbox rewound through
    # failover; with no prefill pool left and nothing to spawn, the
    # survivors aborted whatever could no longer prefill.
    assert metrics.engine_failures >= 1
    assert metrics.num_aborted >= 1
    assert server._undispatched == []


def test_disagg_decode_death_mid_transfer_rehomes_exactly_once():
    """The decode replica dies while transferred requests are in flight
    toward it (and resident on it): they rewind to un-prefilled, rejoin
    the queue, and — with no decode pool left — run to completion on the
    prefill replica's local decode path, exactly once."""
    faults = (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.2, target="gpu-1"),
    )
    reset_request_ids()
    server = _disagg_cluster(faults, max_requeues=4)
    requests = _long_requests(10, output_tokens=64)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    # The boundary was actually exercised before the death.
    assert server.cluster_metrics.kv_transfers >= 1


def test_disagg_partition_during_handoff_waits_for_heal():
    """A partitioned prefill replica's outbox must *wait* — the KV is
    intact, the pool just cannot reach it — and deliver on heal, never
    duplicating the hand-off."""
    faults = (
        FaultSpec(FaultKind.NETWORK_PARTITION, start=0.0, duration=1.5,
                  target="gpu-0"),
    )
    reset_request_ids()
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1e6, phi_confirm=1e7))
    server = _disagg_cluster(faults, detector=detector, max_requeues=4)
    requests = _long_requests(8, output_tokens=32)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.num_aborted == 0, "heal should rescue every hand-off"
    assert server.cluster_metrics.kv_transfers >= 1
    for rep in server.replicas:
        assert rep.engine.handoff_outbox == []


def test_disagg_hedged_twin_racing_transfer_exactly_once():
    """A hedge fired while the original crosses the pool boundary: the
    twin re-enters through the prefill pool, both copies race through
    prefill -> transfer -> decode, and exactly one terminal survives."""
    from repro.runtime import HedgeConfig

    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=8.0, target="gpu-1"),
    )
    reset_request_ids()
    server = _disagg_cluster(
        faults, prefill=1, decode=2,
        hedge=HedgeConfig(min_observations=4, window=32, after_s=0.2),
    )
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.01, input_tokens=64, output_tokens=12)
        for i in range(16)
    ]
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.hedges_fired >= 1, "no hedge fired at the straggler"
    assert metrics.hedge_losses == metrics.hedges_fired
    assert server.cluster_metrics.kv_transfers >= len(requests)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_disagg_autoscaled_exactly_once_under_chaos(requests, seed):
    """Per-pool autoscaling (queue-depth prefill, KV-residency decode)
    plus randomized faults: lifecycle churn on either side of the
    boundary must never lose or duplicate a request."""
    from repro.runtime import DisaggConfig

    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        swap_fail_rate=0.3, engine_slow_rate=0.2,
        engine_fail_rate=0.05, scale_stall_rate=0.2,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    scale = AutoscaleConfig(
        min_replicas=1, max_replicas=2,
        target_queue_per_replica=2.0, down_fraction=0.7,
        down_cooldown_s=0.5,
        spinup_s=0.1, drain_timeout_s=2.0,
    )
    import dataclasses as _dc
    disagg = DisaggConfig(
        prefill_replicas=1, decode_replicas=1,
        prefill_autoscale=scale,
        decode_autoscale=_dc.replace(scale, target_utilization=0.6),
    )
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, disagg=disagg,
    )
    server.submit(requests)
    with mock.patch.object(autoscaler, "UP_COOLDOWN_S", 0.25):
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
