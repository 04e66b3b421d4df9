"""Elastic replica autoscaling for the multi-GPU cluster.

V-LoRA's multi-GPU experiments (§6.4) assume a fixed replica set; the
production target — diurnal traffic from millions of users — does not.
This module adds the missing control plane: replicas move through an
explicit lifecycle

    WARMING -> ACTIVE -> DRAINING -> DEAD

and an :class:`Autoscaler` policy decides, once per control interval,
whether the cluster should grow or shrink:

* **Scale up** when the EWMA queue depth per provisioned replica climbs
  above ``target_queue_per_replica``, or when recent SLO attainment
  drops under ``slo_floor``.  A new replica is *not* instantly useful:
  it pays a modeled cold start (engine spin-up plus synchronous adapter
  prefetch over the swap path, plus one warm merge of the resident
  adapter — see :func:`estimate_cold_start_s`) before it turns ACTIVE,
  and a ``FaultKind.SCALE_STALL`` window can stretch that warm-up.
* **Scale down** when the smoothed queue depth falls below
  ``down_fraction`` of the target.  The victim replica is quiesced
  (:meth:`~repro.runtime.engine.ServingEngine.quiesce`): dispatch routes
  around it, its in-flight requests finish, and only then is it retired.
  A drain that outlives ``drain_timeout_s`` re-homes the remainder
  through the cluster's requeue machinery — *without* charging the
  requests' failover budget (their host never failed).

Both signals reuse the overload layer's smoothing primitive
(:class:`~repro.runtime.overload.EwmaSignal`) and respect per-direction
cooldowns so the cluster does not flap.  Everything is pure simulation
state driven by the cluster's control clock: deterministic, replayable,
and entirely absent (bit-identical metrics) when no autoscaler is
attached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.runtime.overload import EwmaSignal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import ServingEngine

__all__ = [
    "AutoscaleConfig",
    "Autoscaler",
    "Replica",
    "ReplicaState",
    "estimate_cold_start_s",
]


class ReplicaState(enum.Enum):
    """Where a replica is in its lifecycle."""

    WARMING = "warming"     # spawned; paying cold start, no dispatch yet
    ACTIVE = "active"       # serving traffic
    DRAINING = "draining"   # no new dispatch; in-flight work finishing
    DEAD = "dead"           # failed or retired; engine kept for metrics


@dataclass
class Replica:
    """One engine plus its lifecycle bookkeeping.

    Transitions are methods so illegal moves fail loudly instead of
    silently corrupting the cluster's accounting.
    """

    engine: "ServingEngine"
    state: ReplicaState
    spawned_at: float
    warm_until: float = 0.0
    activated_at: Optional[float] = None
    drain_started_at: Optional[float] = None
    dead_at: Optional[float] = None

    @property
    def replica_id(self) -> str:
        return self.engine.engine_id

    def activate(self, now: float) -> None:
        if self.state is not ReplicaState.WARMING:
            raise RuntimeError(
                f"replica {self.replica_id} cannot activate from {self.state}"
            )
        self.state = ReplicaState.ACTIVE
        self.activated_at = now

    def start_drain(self, now: float) -> None:
        if self.state is not ReplicaState.ACTIVE:
            raise RuntimeError(
                f"replica {self.replica_id} cannot drain from {self.state}"
            )
        self.state = ReplicaState.DRAINING
        self.drain_started_at = now
        self.engine.quiesce()

    def die(self, now: float) -> None:
        if self.state is ReplicaState.DEAD:
            raise RuntimeError(f"replica {self.replica_id} is already dead")
        self.state = ReplicaState.DEAD
        self.dead_at = now


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs for :class:`Autoscaler`.

    ``target_queue_per_replica`` is the operating point: the EWMA of
    live requests per provisioned (ACTIVE + WARMING) replica the policy
    tries to hold.  Crossing it scales up; falling under
    ``down_fraction`` of it scales down.  ``slo_floor`` additionally
    scales up whenever smoothed SLO attainment over recently finished
    requests drops below the floor (``None`` disables the SLO signal).
    ``spinup_s`` is the engine-provisioning part of the cold start; the
    adapter-prefetch part is derived from the replica's own swap path
    (:func:`estimate_cold_start_s`).  ``spawn_budget`` bounds the total
    number of replicas ever spawned in one run — the self-healing loop's
    backstop against a fault schedule that kills every newcomer.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    target_queue_per_replica: float = 8.0
    #: When set, scale on a caller-supplied utilization fraction (e.g.
    #: the decode pool's fleet KV residency in disaggregated serving)
    #: instead of queue depth: up above the target, down below
    #: ``down_fraction`` of it.  ``None`` keeps the queue-depth signal.
    target_utilization: Optional[float] = None
    down_fraction: float = 0.25
    slo_floor: Optional[float] = None
    ewma_alpha: float = 0.4
    up_cooldown_s: float = 1.0
    down_cooldown_s: float = 5.0
    spinup_s: float = 0.5
    drain_timeout_s: float = 30.0
    spawn_budget: int = 64

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.target_queue_per_replica <= 0:
            raise ValueError("target_queue_per_replica must be positive")
        if (self.target_utilization is not None
                and not 0.0 < self.target_utilization <= 1.0):
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0.0 < self.down_fraction < 1.0:
            raise ValueError("down_fraction must be in (0, 1)")
        if self.slo_floor is not None and not 0.0 < self.slo_floor <= 1.0:
            raise ValueError("slo_floor must be in (0, 1]")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.up_cooldown_s < 0 or self.down_cooldown_s < 0:
            raise ValueError("cooldowns must be >= 0")
        if self.spinup_s < 0:
            raise ValueError("spinup_s must be >= 0")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        if self.spawn_budget < 1:
            raise ValueError("spawn_budget must be >= 1")


class Autoscaler:
    """Decides, once per control interval, how the replica set changes.

    The policy is deliberately simple and fully deterministic: two EWMA
    signals (queue depth per provisioned replica; SLO attainment of
    recently finished requests), threshold crossings with per-direction
    cooldowns, and a min-replica floor that doubles as self-healing —
    a cluster whose replicas all died immediately re-provisions back to
    ``min_replicas``.
    """

    def __init__(self, config: AutoscaleConfig = AutoscaleConfig()):
        self.config = config
        self.queue_signal = EwmaSignal(config.ewma_alpha)
        self.util_signal = EwmaSignal(config.ewma_alpha)
        self.slo_signal = EwmaSignal(config.ewma_alpha, initial=1.0)
        self._last_up = float("-inf")
        self._last_down = float("-inf")
        self.decisions = 0

    def observe(
        self,
        now: float,
        *,
        queue_depth: int,
        num_active: int,
        num_warming: int,
        num_draining: int = 0,
        num_suspected: int = 0,
        slo_sample: Optional[float] = None,
        utilization: Optional[float] = None,
    ) -> int:
        """Fold one control-interval sample in; returns the replica delta.

        Positive: spawn that many replicas.  Negative: drain one.
        ``queue_depth`` should count every live request the cluster
        knows about (queued on engines plus overdue undispatched);
        ``slo_sample`` is the attainment fraction among requests that
        reached a terminal state since the last call (``None`` when none
        did — the smoothed value simply carries over).
        ``num_suspected`` counts ACTIVE replicas the failure detector
        currently suspects: they still hold membership (no drain/spawn
        flap while the detector decides) but their capacity is treated
        as unavailable, so a suspected-heavy cluster scales up instead
        of queueing behind maybe-dead replicas.

        With :attr:`AutoscaleConfig.target_utilization` set *and* a
        ``utilization`` sample supplied, the up/down pressure is judged
        on the smoothed utilization fraction instead of queue depth —
        the decode pool of a disaggregated cluster scales on its fleet
        KV residency this way.  The min-replica self-healing floor and
        the SLO signal are unchanged either way.
        """
        cfg = self.config
        self.decisions += 1
        provisioned = num_active - num_suspected + num_warming
        per_replica = queue_depth / max(1, provisioned)
        smoothed_q = self.queue_signal.observe(per_replica)
        if utilization is not None and cfg.target_utilization is not None:
            smoothed_u = self.util_signal.observe(utilization)
            up_pressure = smoothed_u > cfg.target_utilization
            down_room = smoothed_u < (cfg.target_utilization
                                      * cfg.down_fraction)
        else:
            up_pressure = smoothed_q > cfg.target_queue_per_replica
            down_room = smoothed_q < (cfg.target_queue_per_replica
                                      * cfg.down_fraction)
        if slo_sample is not None:
            self.slo_signal.observe(slo_sample)
        smoothed_slo = self.slo_signal.value

        # Self-healing floor: dominates cooldowns and thresholds.
        if provisioned < cfg.min_replicas:
            self._last_up = now
            return cfg.min_replicas - provisioned

        # Membership (the max_replicas bound) counts suspected replicas:
        # they still occupy GPUs even though their capacity is excluded
        # from the queue-pressure arithmetic above.
        members = num_active + num_warming + num_draining
        slo_pressure = (cfg.slo_floor is not None
                        and smoothed_slo < cfg.slo_floor)
        if (members < cfg.max_replicas
                and now - self._last_up >= cfg.up_cooldown_s
                and (up_pressure or slo_pressure)):
            self._last_up = now
            # Scaling up also re-arms the down cooldown so the policy
            # cannot immediately retire the replica it just paid to warm.
            self._last_down = now
            return 1

        if (num_active - num_suspected > cfg.min_replicas
                and num_warming == 0
                and now - self._last_down >= cfg.down_cooldown_s
                and down_room
                and not slo_pressure):
            self._last_down = now
            return -1
        return 0


def estimate_cold_start_s(engine: "ServingEngine",
                          config: AutoscaleConfig,
                          prefetch_ids: Optional[Sequence[str]] = None,
                          ) -> float:
    """Model a fresh replica's cold start from its own parts.

    Three components, all derived from state the engine already carries:

    * ``config.spinup_s`` — provisioning + weight loading (flat);
    * adapter prefetch — the warm-start adapters
      (:attr:`~repro.runtime.adapters.AdapterManager.resident_ids`) must
      actually be copied to the GPU before serving; unlike steady-state
      swaps nothing overlaps (there is no compute to hide behind), so
      each pays the full synchronous swap over the transfer model;
    * one warm merge — V-LoRA replicas come online with the first
      resident adapter's ΔW folded in (the switcher's merge cost), so
      the first merged-mode batch does not eat the switch.

    ``prefetch_ids`` extends the prefetch bill with extra adapters the
    fleet placement layer wants resident before serving (the registry's
    current hot set, see
    :meth:`~repro.runtime.placement.AdapterPlacement.prefetch_plan`);
    ids already in the warm-start set are not double-charged.
    """
    adapters = engine.adapters
    to_load = list(adapters.resident_ids)
    if prefetch_ids:
        seen = set(to_load)
        to_load += [a for a in prefetch_ids if a not in seen]
    prefetch = 0.0
    for adapter_id in to_load:
        prefetch += adapters.transfer.swap_seconds(
            adapters.spec(adapter_id).ab_bytes,
            async_overlap=0.0,
            software_overhead_s=adapters.swap_software_overhead_s,
        )
    warm_merge = 0.0
    if adapters.resident_ids:
        warm_merge = engine.switcher.merge_seconds(
            adapters.spec(adapters.resident_ids[0])
        )
    return config.spinup_s + prefetch + warm_merge
