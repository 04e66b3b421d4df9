"""Multi-GPU serving (Table 3) with pluggable inter-GPU dispatch.

V-LoRA scales across GPUs by replicating the engine (base model +
adapter pool) per device; §6.4's Table 3 measures the simple
data-parallel deployment.  Inter-GPU scheduling (dLoRA-style) is the
paper's future work — four dispatch policies are provided here:

* ``least-loaded`` — send each request to the replica with the fewest
  queued decode rounds (Table 3's configuration);
* ``round-robin`` — cycle replicas;
* ``adapter-affinity`` — pin each adapter's requests to a home replica
  (hashed), making every replica's workload maximally merge-friendly for
  Algorithm 1 at the cost of load imbalance under skew;
* ``locality`` — cache-state-aware placement through the fleet adapter
  registry (:class:`~repro.runtime.placement.AdapterPlacement`):
  consistent-hash homes, load-aware spill to adapter-resident replicas,
  hot-adapter replication and cold demotion.  The policy builds a
  default registry when none is attached; the registry is rebalanced
  once per control epoch.

All three policies route around *dead* replicas (an engine whose fault
schedule has already killed it receives no fresh traffic — it would all
come straight back as failover orphans), and, with ``health_aware=True``,
also around *unhealthy* ones: each replica carries a health score
(:meth:`~repro.runtime.engine.ServingEngine.health_snapshot` — death,
EWMA iteration slowdown vs the median peer, queue depth) and dispatch
avoids replicas scoring below ``health_floor``.

Every cluster runs one epoched control loop
(:meth:`MultiGPUServer.run`): requests wait in a cluster-level queue,
are dispatched in their arrival epoch, and a failed replica's orphans
re-enter that queue.  The epoch length follows from what is attached
(:meth:`MultiGPUServer.epoch_s`); a cluster with no control component
(the Table 3 deployment) runs each epoch unbounded — every replica to
completion.
The replica set itself can be **elastic**: attach an
:class:`~repro.runtime.autoscaler.Autoscaler` (plus an
``engine_factory``) and replicas move through the WARMING → ACTIVE →
DRAINING → DEAD lifecycle, new replicas pay a modeled cold start before
serving, and scale-downs drain gracefully through the requeue
machinery.

Attach a :class:`~repro.runtime.failure_detection.FailureDetector` and
the omniscient failure oracle is replaced by *observed* health: the
cluster only learns a replica died through missed heartbeats (φ-accrual
suspicion), SUSPECTED replicas are drained-not-killed and heal back on
resumed heartbeats, CONFIRMED_DEAD replicas have their lease seized and
their work re-dispatched, and every terminal completion is fenced by a
``(replica id, lease epoch)`` token so a zombie replica's late results
are counted and discarded instead of double-terminating requests.
Without a detector, none of this machinery runs (bit-identical).
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.autoscaler import (
    Autoscaler,
    Replica,
    ReplicaState,
    estimate_cold_start_s,
)
from repro.runtime.costcache import TransferCostCache
from repro.runtime.disagg import (
    DECODE_POOL,
    PREFILL_POOL,
    DisaggConfig,
    apply_pool_role,
    kv_transfer_bytes,
    pool_of_index,
)
from repro.runtime.engine import ServingEngine
from repro.runtime.failure_detection import (
    Completion,
    FailureDetector,
    SuspicionState,
)
from repro.runtime.hedging import (
    HedgeConfig,
    HedgeTracker,
    RetryBudget,
    capped_exponential_backoff,
)
from repro.runtime.metrics import MetricsCollector, ScaleEvent
from repro.runtime.overload import ReplicaHealth
from repro.runtime.placement import AdapterPlacement
from repro.runtime.request import AbortReason, Request, RequestStatus

DISPATCH_POLICIES = ("least-loaded", "round-robin", "adapter-affinity",
                     "locality")


class MultiGPUServer:
    """Dispatches requests over independent per-GPU engines.

    When a :class:`~repro.runtime.faults.FaultInjector` kills an engine
    mid-run, :meth:`run` requeues its in-flight requests and the
    configured dispatch policy re-homes them on surviving engines
    (failover); once no replica survives (and none can be spawned) the
    orphans abort with ``AbortReason.ENGINE_FAILED`` at that moment.

    Failover requeue is *bounded*: ``max_requeues`` caps how many hosts
    one request may lose before the cluster gives up on it
    (``None`` = only bounded by the engine count, the legacy behavior),
    and ``requeue_backoff_s`` spaces repeated requeues of the same
    request out with capped exponential backoff so a cascading failure
    does not instantly pile every orphan onto the next victim.  Only
    *failover* hops burn that budget — voluntary drain re-homing during
    scale-down charges the request's ``drain_hops`` instead.

    :meth:`submit` parks requests in a cluster-level queue and
    :meth:`run` dispatches them epoch by epoch to whatever replicas are
    ACTIVE at that moment; with ``autoscaler`` set (requires
    ``engine_factory``), that replica set is elastic.
    """

    #: Epoch-count backstop for the control loop.
    _MAX_EPOCHS = 1_000_000

    def __init__(self, engines: Sequence[ServingEngine],
                 dispatch: str = "least-loaded", *,
                 health_aware: bool = False,
                 health_floor: float = 0.25,
                 max_requeues: Optional[int] = None,
                 requeue_backoff_s: float = 0.0,
                 requeue_backoff_cap_s: float = 5.0,
                 autoscaler: Optional[Autoscaler] = None,
                 engine_factory: Optional[
                     Callable[[], ServingEngine]] = None,
                 detector: Optional[FailureDetector] = None,
                 num_hosts: int = 0,
                 hedge: Optional[HedgeConfig] = None,
                 retry_budget: Optional[RetryBudget] = None,
                 placement: Optional[AdapterPlacement] = None,
                 disagg: Optional[DisaggConfig] = None):
        engines = list(engines)
        if not engines:
            raise ValueError("need at least one engine")
        if disagg is not None:
            expected = disagg.prefill_replicas + disagg.decode_replicas
            if len(engines) != expected:
                raise ValueError(
                    f"disaggregation wants {disagg.prefill_replicas} prefill "
                    f"+ {disagg.decode_replicas} decode replicas = "
                    f"{expected} engines, got {len(engines)}"
                )
            if autoscaler is not None:
                raise ValueError(
                    "a disaggregated cluster scales its pools "
                    "independently; use DisaggConfig.prefill_autoscale / "
                    "decode_autoscale instead of a cluster-wide autoscaler"
                )
            if ((disagg.prefill_autoscale is not None
                 or disagg.decode_autoscale is not None)
                    and engine_factory is None):
                raise ValueError(
                    "pool autoscaling needs an engine_factory to spawn "
                    "replicas"
                )
        if num_hosts < 0:
            raise ValueError(f"num_hosts must be >= 0, got {num_hosts}")
        if dispatch not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch {dispatch!r}; expected one of "
                f"{DISPATCH_POLICIES}"
            )
        if not 0.0 <= health_floor < 1.0:
            raise ValueError(f"health_floor must be in [0, 1), got {health_floor}")
        if max_requeues is not None and max_requeues < 1:
            raise ValueError(f"max_requeues must be >= 1, got {max_requeues}")
        if requeue_backoff_s < 0 or requeue_backoff_cap_s <= 0:
            raise ValueError("requeue backoff times must be >= 0 / positive")
        if autoscaler is not None and engine_factory is None:
            raise ValueError(
                "autoscaling needs an engine_factory to spawn replicas"
            )
        self.dispatch = dispatch
        self.health_aware = health_aware
        self.health_floor = health_floor
        self.max_requeues = max_requeues
        self.requeue_backoff_s = requeue_backoff_s
        self.requeue_backoff_cap_s = requeue_backoff_cap_s
        self.engine_factory = engine_factory
        self.detector = detector
        self.hedge = hedge
        self.retry_budget = retry_budget
        #: Fleet-level adapter registry (runtime/placement.py).  The
        #: ``locality`` policy requires it (a default registry is built
        #: when none is passed); any other policy may still attach one
        #: for observability, drain bias, and warm-up prefetch.
        if dispatch == "locality" and placement is None:
            placement = AdapterPlacement()
        self.placement = placement
        #: Disaggregated prefill/decode serving (runtime/disagg.py).
        #: ``None`` keeps every replica colocated (bit-identical legacy
        #: behavior); set, it splits the fleet into pools, routes fresh
        #: dispatch to the prefill pool only, and runs the per-epoch
        #: KV-transfer pass.
        self.disagg = disagg
        #: replica_id -> pool role ("prefill"/"decode"); empty when
        #: colocated, so every ``.get(...) != DECODE_POOL`` check is a
        #: no-op filter.
        self._pool_of: Dict[str, str] = {}
        self._transfer_costs = (
            TransferCostCache(
                async_overlap=disagg.transfer_overlap,
                software_overhead_s=disagg.transfer_overhead_s,
            ) if disagg is not None else None
        )
        #: (pool, scaler) pairs driving scale/drain passes.  A legacy
        #: cluster-wide autoscaler is the single ``(None, scaler)``
        #: entry; a disaggregated cluster carries one entry per pool
        #: that opted into autoscaling.
        self._scalers: List[Tuple[Optional[str], Autoscaler]] = []
        if autoscaler is not None:
            self._scalers.append((None, autoscaler))
        if disagg is not None:
            if disagg.prefill_autoscale is not None:
                self._scalers.append(
                    (PREFILL_POOL, Autoscaler(disagg.prefill_autoscale)))
            if disagg.decode_autoscale is not None:
                self._scalers.append(
                    (DECODE_POOL, Autoscaler(disagg.decode_autoscale)))
        #: Lease fencing is on whenever terminals must be deduplicated:
        #: with a detector (zombie replays) or with hedging (two live
        #: copies racing to the same terminal).
        self._fenced = detector is not None or hedge is not None
        self._hedge_tracker = (
            HedgeTracker(hedge) if hedge is not None else None
        )
        #: Request ids that have had their one hedge fired.
        self._hedged_rids: set = set()
        self._num_hosts = num_hosts
        self._host_seq = 0
        self._rr_next = 0
        #: Cluster-level events (failover, no-survivor aborts, scale
        #: events) that do not belong to any single replica's collector.
        #: A terminal accepted through the lease fence is recorded on the
        #: collector of the replica that produced it, not here.
        self.cluster_metrics = MetricsCollector()
        # Give replicas distinct identities so engine-targeted fault
        # specs (ENGINE_FAIL / ENGINE_SLOW) can name them, unless the
        # caller already assigned ids.
        if len({e.engine_id for e in engines}) != len(engines):
            for i, engine in enumerate(engines):
                engine.engine_id = f"gpu-{i}"
        #: Every replica ever part of the cluster, append-only; the
        #: initial set starts ACTIVE at t=0 (no cold start — they are
        #: the provisioned baseline).
        self.replicas: List[Replica] = [
            Replica(engine=e, state=ReplicaState.ACTIVE,
                    spawned_at=0.0, activated_at=0.0)
            for e in engines
        ]
        self._replica_of = {rep.replica_id: rep for rep in self.replicas}
        self._next_replica_idx = len(self.replicas)
        #: Spawns consumed per pool (``None`` = the cluster-wide pool),
        #: each bounded by its own scaler's ``spawn_budget``.
        self._spawns_used: Dict[Optional[str], int] = {}
        #: Requests accepted but not yet placed on a replica
        #: (epoched mode only), ordered by (arrival, id).  The sequence
        #: counter breaks (arrival, id) ties: a hedge twin shares its
        #: primary's id, and both can be requeued at the same instant.
        self._undispatched: List[Tuple[float, int, int, Request]] = []
        self._undispatched_seq = itertools.count()
        # Per-collector (records, aborts) read cursors for incremental
        # SLO-attainment sampling between scale decisions.
        self._slo_cursor = {}
        # -- failure-detection state (all unused when detector is None) ----
        #: Next scheduled heartbeat emission per registered replica.
        self._hb_next: Dict[str, float] = {}
        #: Heartbeats emitted while partitioned, delivered on heal.
        self._withheld_hb: Dict[str, List[float]] = {}
        #: Replicas observed partitioned last epoch (heal accounting).
        self._was_partitioned: Dict[str, bool] = {}
        #: Undelivered completions seized from confirmed-dead replicas;
        #: delivered (and fenced) if/when the zombie becomes reachable.
        self._zombie_mail: Dict[str, List[Completion]] = {}
        #: Accepted terminal per request id (the winning completion);
        #: presence of the id is the fence, the completion itself lets a
        #: hedge loser's request object mirror the winning outcome.
        self._accepted: Dict[int, Completion] = {}
        for i, rep in enumerate(self.replicas):
            self._enroll(rep.engine, pool_of_index(i, disagg)
                         if disagg is not None else None)
            if detector is not None:
                detector.register(rep.replica_id, 0.0)
                self._hb_next[rep.replica_id] = 0.0
            if placement is not None:
                placement.register_replica(rep.engine)

    def _enroll(self, engine: ServingEngine, pool: Optional[str]) -> None:
        """Give a new replica's engine its pool role, host, fencing and
        retry budget (``pool`` is ``None`` on a colocated cluster)."""
        if pool is not None:
            self._pool_of[engine.engine_id] = pool
            apply_pool_role(engine, pool, self.disagg)
        if self._num_hosts:
            engine.host = f"host-{self._host_seq % self._num_hosts}"
            self._host_seq += 1
        if self._fenced:
            engine.enable_fencing()
        engine.retry_budget = self.retry_budget

    @property
    def engines(self) -> List[ServingEngine]:
        """Engines of every non-DEAD replica, in spawn order.

        A failed or drained replica leaves this list once the control
        loop retires it; :attr:`replicas` keeps every replica ever run.
        """
        return [rep.engine for rep in self.replicas
                if rep.state is not ReplicaState.DEAD]

    @property
    def num_gpus(self) -> int:
        return len(self.engines)

    def _members(self, *states: ReplicaState) -> List[Replica]:
        return [rep for rep in self.replicas if rep.state in states]

    def _pool_members(self, pool: Optional[str],
                      *states: ReplicaState) -> List[Replica]:
        """Members of one pool (``None`` = every replica, legacy)."""
        members = self._members(*states)
        if pool is None:
            return members
        return [rep for rep in members
                if self._pool_of.get(rep.replica_id) == pool]

    def _takes_fresh_dispatch(self, engine: ServingEngine) -> bool:
        """Decode-pool replicas never take fresh (unprefilled) traffic —
        requests reach them only through the KV-transfer pass."""
        return (self.disagg is None
                or self._pool_of.get(engine.engine_id) != DECODE_POOL)

    # -- health ------------------------------------------------------------------

    def _snapshots(self, engines: Sequence[ServingEngine]
                   ) -> List[ReplicaHealth]:
        """Health snapshots — oracle-based, or detector-based.

        Without a detector this is the legacy omniscient view
        (:meth:`~repro.runtime.engine.ServingEngine.health_snapshot`:
        the fault schedule is consulted directly).  With one, the
        cluster only knows what heartbeats told it: ``dead`` means
        CONFIRMED_DEAD, and a SUSPECTED replica is flagged so scoring
        discounts it and routing avoids it.
        """
        if self.detector is None:
            return [e.health_snapshot() for e in engines]
        out = []
        for e in engines:
            state = self.detector.state_of(e.engine_id)
            out.append(ReplicaHealth(
                dead=state is SuspicionState.CONFIRMED_DEAD,
                queue_depth=e.num_live,
                iter_ewma=e.iter_time_ewma,
                suspected=state is SuspicionState.SUSPECTED,
            ))
        return out

    @staticmethod
    def _scores(snaps: Sequence[ReplicaHealth],
                engines: Sequence[ServingEngine]) -> List[float]:
        ewmas = sorted(
            s.iter_ewma for s in snaps if s.iter_ewma is not None
        )
        peer = None
        if ewmas:
            mid = len(ewmas) // 2
            peer = (ewmas[mid] if len(ewmas) % 2
                    else (ewmas[mid - 1] + ewmas[mid]) / 2.0)
        queue_norm = max(4 * e.config.max_batch_size for e in engines)
        return [s.score(peer, queue_norm=queue_norm) for s in snaps]

    def health_scores(self,
                      engines: Optional[Sequence[ServingEngine]] = None,
                      ) -> List[float]:
        """Health score per replica in [0, 1] (0 = dead).

        Slowdown is judged against the median peer EWMA so one straggler
        cannot drag the whole cluster's reference point down with it.
        """
        engines = self.engines if engines is None else list(engines)
        if not engines:
            return []
        return self._scores(self._snapshots(engines), engines)

    # -- dispatch ----------------------------------------------------------------

    def _accepts_dispatch(self, engine: ServingEngine) -> bool:
        """Lifecycle gate: only ACTIVE replicas take fresh traffic."""
        rep = self._replica_of.get(engine.engine_id)
        return rep is None or rep.state is ReplicaState.ACTIVE

    def _routable(self, engines: Sequence[ServingEngine]):
        """(allowed indices, scores) for dispatch over ``engines``.

        Dead replicas are always excluded (their fault schedule already
        killed them), as are replicas outside the ACTIVE lifecycle state
        (WARMING replicas are not ready; DRAINING ones refuse new work);
        ``health_aware`` additionally drops replicas below
        ``health_floor``.  With a failure detector, SUSPECTED replicas
        are excluded the same way dead ones are (drained, not killed:
        their in-flight work keeps running, but no fresh traffic lands
        on a replica that may be gone).  If exclusion would leave
        nothing routable the widest lifecycle-eligible set is
        returned — dispatch must place every request somewhere, and
        failover / no-survivor abort handles the rest.
        """
        snaps = self._snapshots(engines)
        scores = self._scores(snaps, engines) if engines else []
        allowed = [i for i in range(len(engines))
                   if not snaps[i].dead and not snaps[i].suspected
                   and self._accepts_dispatch(engines[i])]
        if self.health_aware:
            healthy = [i for i in allowed if scores[i] >= self.health_floor]
            if healthy:
                allowed = healthy
        if not allowed:
            eligible = [i for i in range(len(engines))
                        if self._accepts_dispatch(engines[i])]
            allowed = eligible or list(range(len(engines)))
        return allowed, scores

    def submit(self, requests: Sequence[Request]) -> None:
        """Accept requests into the cluster-level dispatch queue.

        Nothing is placed on a replica here: :meth:`run` dispatches each
        request in its arrival epoch, per the configured policy, to the
        replicas that can take it at that moment.  (An autoscaled
        cluster could not place it sooner — the replica it should land
        on may not exist yet — and a detector-driven one must not: the
        replica it would pick may already be silently dead.)
        """
        if self.retry_budget is not None:
            # First-time dispatches fund the budget that hedges, swap
            # retries, and failover requeues later spend.
            for r in requests:
                self.retry_budget.deposit(r.priority)
        self._requeue(requests)

    def _dispatch(self, requests: Sequence[Request],
                  engines: Sequence[ServingEngine]) -> None:
        """Place ``requests`` across ``engines`` per the policy."""
        ordered = sorted(requests, key=lambda q: (q.arrival_time,
                                                  q.request_id))
        allowed, scores = self._routable(engines)
        if self.dispatch == "least-loaded":
            self._submit_least_loaded(ordered, engines, allowed, scores)
        elif self.dispatch == "round-robin":
            self._submit_round_robin(ordered, engines, allowed)
        elif self.dispatch == "locality":
            self._submit_locality(ordered, engines, allowed, scores)
        else:
            self._submit_affinity(ordered, engines, allowed)

    def _submit_least_loaded(self, requests: Sequence[Request],
                             engines: Sequence[ServingEngine],
                             allowed: List[int],
                             scores: List[float]) -> None:
        # Load measured in queued decode rounds (a better proxy than
        # request count when tasks differ in output length); with
        # health_aware, load is inflated by 1/score so a straggling
        # replica must be *much* emptier before it wins a request.
        loads = {
            i: sum(req.remaining for req in engines[i].pending_requests)
            for i in allowed
        }
        for r in requests:
            if self.health_aware:
                i = min(allowed,
                        key=lambda j: (loads[j] / max(scores[j], 1e-6), j))
            else:
                i = min(allowed, key=lambda j: (loads[j], j))
            engines[i].submit([r])
            loads[i] += r.remaining

    def _submit_round_robin(self, requests: Sequence[Request],
                            engines: Sequence[ServingEngine],
                            allowed: List[int]) -> None:
        n = len(engines)
        allowed_set = set(allowed)
        for r in requests:
            # Advance the cursor past excluded replicas; bounded by one
            # full cycle since ``allowed`` is never empty.
            for _ in range(n):
                if self._rr_next % n in allowed_set:
                    break
                self._rr_next += 1
            engines[self._rr_next % n].submit([r])
            self._rr_next += 1

    def _submit_affinity(self, requests: Sequence[Request],
                         engines: Sequence[ServingEngine],
                         allowed: List[int]) -> None:
        n = len(engines)
        allowed_set = set(allowed)
        for r in requests:
            key = r.adapter_id.encode("utf-8")
            home = zlib.crc32(key) % n
            if home not in allowed_set:
                # Probe with a per-adapter stride (double hashing), not
                # linearly: a linear probe funnels every adapter homed
                # on a contiguous run of excluded replicas onto the one
                # replica at the run's end, so a single down replica's
                # traffic all lands on its right-hand neighbor.  The
                # stride spreads re-homed adapters across survivors
                # while still keeping each adapter's own re-homed
                # traffic together on one fallback replica.
                stride = 1
                if n > 1:
                    stride = 1 + zlib.crc32(b"stride:" + key) % (n - 1)
                for i in range(1, n):
                    cand = (home + i * stride) % n
                    if cand in allowed_set:
                        home = cand
                        break
                else:
                    # A non-coprime stride can cycle without covering
                    # every slot; fall back to the ring-order scan.
                    h = home
                    home = min(allowed_set,
                               key=lambda j: ((j - h) % n, j))
            engines[home].submit([r])

    def _submit_locality(self, requests: Sequence[Request],
                         engines: Sequence[ServingEngine],
                         allowed: List[int],
                         scores: List[float]) -> None:
        """Cache-state-aware placement via the fleet adapter registry.

        Each request asks :meth:`AdapterPlacement.decide` for a replica:
        consistent-hash home when it holds the adapter and is not
        overloaded, else the least-loaded replica *already holding* the
        adapter (spill — a queue hop is cheaper than a cold swap), else
        the home (paying the swap where future requests will find it),
        else least-loaded.  Load is queued decode rounds, inflated by
        1/score when ``health_aware`` so stragglers repel traffic the
        same way they do under ``least-loaded``.
        """
        placement = self.placement
        by_id = {engines[i].engine_id: i for i in allowed}
        loads = {}
        for i in allowed:
            load = sum(req.remaining
                       for req in engines[i].pending_requests)
            if self.health_aware:
                load /= max(scores[i], 1e-6)
            loads[engines[i].engine_id] = load
        for r in requests:
            rid, why = placement.decide(r.adapter_id, loads)
            i = by_id[rid]
            engines[i].submit([r])
            inc = r.remaining
            if self.health_aware:
                inc /= max(scores[i], 1e-6)
            loads[rid] += inc
            if why == "spill-hit":
                self.cluster_metrics.placement_spills += 1

    # -- execution ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> MetricsCollector:
        """Run the epoched control loop; returns the merged metrics.

        Control time advances in steps of :meth:`epoch_s`.  Each epoch:
        replicas whose warm-up finished turn ACTIVE; due requests are
        dispatched to ACTIVE replicas; ACTIVE and DRAINING engines run
        to the epoch boundary on their own sim clocks.  Then, without a
        detector, the failure oracle retires failed replicas and requeues
        their orphans.  With one, the cluster instead processes what it
        *observed*: reachable replicas deliver their completion outboxes
        (fenced), heartbeats are emitted/dropped/withheld per the fault
        schedule, and the φ detector's transitions drive suspicion,
        healing, and confirmed-death seizure.  Empty (or timed-out) DRAINING replicas
        retire; finally the autoscaler — when present — observes queue
        depth and SLO attainment and may spawn or drain a replica.

        With no control component attached (the §6.4 Table 3
        data-parallel deployment), each epoch is unbounded: every
        replica runs to completion and the epoch ends at the latest
        replica clock, so a failover costs one more epoch.  The loop
        ends when no undispatched, in-flight, or undelivered work
        remains (or at ``until``).  The returned collector folds
        cluster-level events (failover requeues, requeue-limit and
        no-survivor aborts, scale events, fenced completions) in with
        every replica's metrics, so ``summary()`` accounts for every
        submitted request.
        """
        interval = self.epoch_s()
        now = 0.0
        for _ in range(self._MAX_EPOCHS):
            t_next = now + interval
            if until is not None:
                t_next = min(t_next, until)
            self._activate_warm(now)
            self._dispatch_due(t_next)
            running = self._members(ReplicaState.ACTIVE,
                                    ReplicaState.DRAINING)
            for rep in running:
                rep.engine.run(until=t_next)
            if t_next == math.inf:
                # An unbounded epoch ends when its last replica stops.
                t_next = max([now] + [rep.engine.clock.now
                                      for rep in running])
            if self.disagg is not None:
                self._transfer_pass(t_next)
            if self.detector is not None:
                self._deliver_pass(t_next)
                self._heartbeat_pass(t_next)
                self._detector_pass(t_next)
            else:
                if self._fenced:
                    self._outbox_pass()
                self._failover_pass(t_next)
            if self.hedge is not None:
                self._hedge_pass(t_next)
            if self.placement is not None:
                self._placement_pass()
            if self._scalers:
                self._drain_pass(t_next)
            now = t_next
            if until is not None and now >= until:
                break
            if self._quiescent():
                break
            if self._scalers:
                self._scale_pass(now)
            self._abort_unplaceable(now)
        else:
            raise RuntimeError(
                f"epoched cluster did not converge within "
                f"{self._MAX_EPOCHS} control epochs (t={now:.1f}s)"
            )
        self._finalize_lifetimes(now)
        if self._fenced:
            self._flush_zombie_mail()
        return self._merged_metrics()

    def epoch_s(self) -> float:
        """Control-epoch length, worked out from what is attached.

        0.25 s when a failure detector or hedging is attached and no
        autoscaler is (cluster-wide or per pool): fault handling and
        hedging react at the default heartbeat cadence.  0.5 s when any
        other control component is attached (an autoscaler, placement
        or disaggregation).  Unbounded when none is.
        """
        if self._scalers:
            return 0.5
        if self._fenced:
            return 0.25
        if self.placement is not None or self.disagg is not None:
            return 0.5
        return math.inf

    def _merged_metrics(self) -> MetricsCollector:
        merged = MetricsCollector()
        merged.merge_from(self.cluster_metrics)
        for rep in self.replicas:
            merged.merge_from(rep.engine.metrics)
        return merged

    def _record_event(self, now: float, action: str, rep: Replica,
                      reason: str) -> None:
        self.cluster_metrics.record_scale_event(ScaleEvent(
            time=now, action=action, replica_id=rep.replica_id,
            reason=reason,
            num_members=len(self._members(ReplicaState.WARMING,
                                          ReplicaState.ACTIVE,
                                          ReplicaState.DRAINING)),
        ))

    def _activate_warm(self, now: float) -> None:
        for rep in self._members(ReplicaState.WARMING):
            if rep.warm_until <= now:
                rep.activate(rep.warm_until)
                # Align the fresh engine's sim clock with the moment it
                # came online so its iteration timeline starts here.
                rep.engine.clock.advance_to(rep.warm_until)
                self.cluster_metrics.warming_time_s += (
                    rep.warm_until - rep.spawned_at
                )
                if (self.detector is not None
                        and rep.replica_id not in self._hb_next):
                    # Watch from activation, not spawn — a warming
                    # replica beats no heartbeats and must not be
                    # suspected for it.
                    self.detector.register(rep.replica_id, rep.warm_until)
                    self._hb_next[rep.replica_id] = rep.warm_until
                self._record_event(rep.warm_until, "activate", rep,
                                   "warm-up complete")

    def _dispatch_due(self, t_next: float) -> None:
        if not self._undispatched:
            return
        # Disaggregated: fresh requests always need a prefill first, so
        # only the prefill pool receives dispatch.
        active = [rep.engine for rep in self._members(ReplicaState.ACTIVE)
                  if self._believed_alive(rep)
                  and self._takes_fresh_dispatch(rep.engine)]
        if not active:
            return  # hold the queue; warming/healing will provide capacity
        due: List[Request] = []
        while self._undispatched and self._undispatched[0][0] <= t_next:
            r = heapq.heappop(self._undispatched)[-1]
            # A requeued copy of a hedged pair whose other copy already
            # won: dropping it here saves a full re-run.
            if not self._drop_settled(r):
                due.append(r)
        if due:
            self._dispatch(due, active)

    def _believed_alive(self, rep: Replica) -> bool:
        """Whether the cluster believes ``rep`` is up.

        Without a detector this is the failure oracle.  With one it is
        what heartbeats said: a silently-dead replica still ALIVE in the
        detector keeps receiving traffic — realistically stranding it
        until confirmation seizes it.
        """
        if self.detector is None:
            return not rep.engine.failed
        return (self.detector.state_of(rep.replica_id)
                is SuspicionState.ALIVE)

    def _requeue(self, orphans: Sequence[Request]) -> None:
        for r in orphans:
            heapq.heappush(
                self._undispatched,
                (r.arrival_time, r.request_id,
                 next(self._undispatched_seq), r),
            )

    def _failover_pass(self, t_next: float) -> None:
        """Retire failed replicas; their orphans rejoin the queue.

        Orphans do not go straight to a survivor: they re-enter the
        shared undispatched queue and the next epoch's dispatch places
        them with the configured policy — which also means a replica
        spawned *because of* the failure can pick them up once warm.
        """
        for rep in self._members(ReplicaState.WARMING, ReplicaState.ACTIVE,
                                 ReplicaState.DRAINING):
            e = rep.engine
            if not e.failed:
                continue
            if self._fenced:
                # Terminals the engine recorded before dying were real
                # results; deliver them through the fence (mirrors the
                # unfenced path, where they were already in metrics).
                self._deliver_outbox(e)
            self._fail_over(rep, e.drain_orphans(), t_next, "engine failed")

    def _fail_over(self, rep: Replica, orphans: List[Request],
                   t_next: float, reason: str) -> None:
        """Requeue a failed replica's vetted orphans, then retire it."""
        orphans = self._vet_orphans(orphans)
        self._apply_requeue_backoff(orphans)
        self.cluster_metrics.failover_events += len(orphans)
        self._requeue(orphans)
        self._retire(rep, max(t_next, rep.engine.clock.now), "fail", reason)

    # -- tail-tolerant dispatch (runtime/hedging.py) -------------------------------

    def _outbox_pass(self) -> None:
        """Deliver live replicas' completion outboxes through the fence.

        The hedging-without-detector loop: fencing is on (two copies of
        a hedged request race to a terminal) but there is no partition/
        heartbeat machinery — every live replica's outbox is reachable
        at the epoch boundary, exactly like the unfenced oracle path
        where terminals landed in metrics immediately.
        """
        for rep in self._members(ReplicaState.WARMING, ReplicaState.ACTIVE,
                                 ReplicaState.DRAINING):
            self._deliver_outbox(rep.engine)

    def _hedge_eligible_engines(self) -> List[ServingEngine]:
        """ACTIVE replicas a hedge may be placed on (or fired from)."""
        return [rep.engine for rep in self._members(ReplicaState.ACTIVE)
                if not rep.engine.failed and self._believed_alive(rep)]

    def _hedge_pass(self, t_next: float) -> None:
        """Fire speculative duplicates for requests stuck past the
        hedge threshold (percentile-tracked per priority class).

        First completion wins through the lease fence; the loser's
        terminal is counted as a ``hedge_loss``.  One hedge per request,
        budget-gated, and disabled entirely while any replica is in a
        brownout tier (L1+) — a degraded fleet sheds load, it does not
        double it.
        """
        engines = self._hedge_eligible_engines()
        if len(engines) < 2:
            return
        for e in engines:
            if e._brownout is not None and not e._brownout.hedging_allowed:
                return
        allowed, scores = self._routable(engines)
        if len(allowed) < 2:
            return
        loads = {i: engines[i].num_live for i in allowed}
        allowed_set = set(allowed)
        # Most-stuck first: when the retry budget cannot cover every
        # candidate, the tokens go to the requests deepest past the
        # threshold — the ones actually shaping p99 — not to whichever
        # replica happens to be scanned first.
        candidates: List[Tuple[int, float, int, int, Request]] = []
        for i, e in enumerate(engines):
            for r in list(e._active.values()) + e.pending_requests:
                rid = r.request_id
                if (r.is_hedge or rid in self._hedged_rids
                        or rid in self._accepted or r.is_terminal):
                    continue
                threshold = self._hedge_tracker.threshold(r.priority)
                if threshold is None:
                    continue
                # Requests still waiting for a first token hedge at the
                # threshold and win the budget race: those are the ones
                # a hedge can rescue from the TTFT tail.  A request
                # already streaming tokens just past the threshold is
                # usually about to finish — racing a fresh twin against
                # it loses and burns budget — so started requests only
                # qualify once they are twice the threshold deep (a
                # genuinely stuck decode, e.g. a slow replica).
                started = 0 if r.first_token_time is None else 1
                if t_next - r.arrival_time <= threshold * (1 + started):
                    continue
                candidates.append((started, r.arrival_time, rid, i, r))
        candidates.sort(key=lambda c: c[:3])
        for _, _, rid, i, r in candidates:
            # A hedge twin starts unprefilled, so in a disaggregated
            # cluster it must race in through the prefill pool — even
            # when its stuck primary sits on a decode replica.
            targets = [j for j in allowed_set if j != i
                       and self._takes_fresh_dispatch(engines[j])]
            if not targets:
                continue
            if (self.retry_budget is not None
                    and not self.retry_budget.try_spend(r.priority)):
                self.cluster_metrics.retry_budget_exhausted += 1
                continue
            pool = targets
            if self.placement is not None:
                # A hedge races the stuck primary; landing the twin on
                # a replica that must first cold-swap the adapter gives
                # the race away.  Prefer adapter-resident targets.
                resident = [
                    k for k in targets
                    if engines[k].adapters.is_resident(r.adapter_id)
                ]
                pool = resident or targets
            j = min(pool, key=lambda k: (loads[k], k))
            twin = r.clone_for_hedge()
            engines[j].submit([twin])
            loads[j] += 1
            self._hedged_rids.add(rid)
            self.cluster_metrics.hedges_fired += 1

    # -- adapter placement (runtime/placement.py) ----------------------------------

    def _placement_pass(self) -> None:
        """Re-sync the fleet adapter registry and rebalance hot/cold.

        Runs once per control epoch: the registry's residency model is
        refreshed from each live engine's ground truth (engines evict on
        their own during the epoch), then hot adapters above the
        watermark get replicated (soft-pinned on ``hot_copies`` ring
        homes) and cold ones demoted off non-home replicas.  Counter
        deltas land in cluster metrics.
        """
        self.placement.refresh_from_engines()
        stats = self.placement.rebalance()
        self.cluster_metrics.placement_replications += stats["replications"]
        self.cluster_metrics.placement_demotions += stats["demotions"]

    # -- disaggregated KV transfer (runtime/disagg.py) -----------------------------

    def _transfer_targets(self) -> List[ServingEngine]:
        """Decode replicas a hand-off may be delivered to right now
        (routed by believed health, exactly like dispatch)."""
        return [rep.engine for rep in self._pool_members(
                    DECODE_POOL, ReplicaState.ACTIVE)
                if self._believed_alive(rep)]

    @staticmethod
    def _transfer_target_key(engine: ServingEngine):
        """Most free KV first; ties break to the emptiest, then id."""
        kv = engine.kv
        used = (kv.num_blocks - kv.free_blocks) / max(1, kv.num_blocks)
        return (used, engine.num_live, engine.engine_id)

    def _transfer_pass(self, t_next: float) -> None:
        """Hand finished prefills across the pool boundary.

        Every reachable prefill replica's ``handoff_outbox`` drains to
        the decode replica with the most free KV; each move is charged
        a size-proportional wire cost (the same transfer model that
        prices adapter swap-ins) by flooring the request's admission at
        ``t_next + wire_seconds`` — its arrival time (TTFT, deadline)
        is untouched, and :meth:`ServingEngine.submit` re-stamps its
        lease so fencing keeps working across the boundary.

        Unreachable sources keep their outboxes: a dead prefill
        replica's hand-offs rewind through the failover machinery
        (``drain_orphans`` covers the outbox — exactly-once), and a
        partitioned one simply waits for heal or confirmation.  With no
        live decode target, hand-offs wait while the decode pool warms
        or can still spawn; once it is permanently gone they abort —
        there is nowhere left to decode.
        """
        sources = [
            rep for rep in self._members(ReplicaState.ACTIVE,
                                         ReplicaState.DRAINING)
            if self._pool_of.get(rep.replica_id) == PREFILL_POOL
            and rep.engine.handoff_outbox
        ]
        if not sources:
            return
        targets = self._transfer_targets()
        decode_alive = bool(self._pool_members(
            DECODE_POOL, ReplicaState.WARMING, ReplicaState.ACTIVE,
            ReplicaState.DRAINING))
        for rep in sources:
            e = rep.engine
            if e.failed:
                # Failed for real (scheduled deaths materialize lazily,
                # when the engine runs past them — same convention as
                # dispatch): failover/confirmation rewinds the outbox.
                continue
            if (self.detector is not None and e.faults is not None
                    and e.faults.partitioned(e.engine_id, t_next,
                                             host=e.host)):
                continue  # partition during hand-off: wait for heal
            if not targets:
                if decode_alive or self._can_spawn(DECODE_POOL):
                    continue  # decode capacity is (or may be) coming
                outbox, e.handoff_outbox = e.handoff_outbox, []
                for r in outbox:
                    if self._drop_settled(r) or self._drop_orphaned_twin(r):
                        continue
                    self.cluster_metrics.kv_transfer_aborts += 1
                    self._cluster_abort(r, max(r.arrival_time, t_next))
                continue
            outbox, e.handoff_outbox = e.handoff_outbox, []
            for r in sorted(outbox, key=lambda q: (q.arrival_time,
                                                   q.request_id)):
                if self._drop_settled(r):
                    continue
                dst = min(targets, key=self._transfer_target_key)
                nbytes = kv_transfer_bytes(r, dst.model)
                wire_s = self._transfer_costs.seconds(
                    dst.adapters.transfer, nbytes)
                self.cluster_metrics.kv_transfers += 1
                self.cluster_metrics.kv_transfer_seconds += wire_s
                self.cluster_metrics.kv_transfer_bytes += nbytes
                dst.submit([r], not_before=t_next + wire_s)

    # -- failure-detection passes (detector mode only) -----------------------------

    def _death_time(self, engine: ServingEngine) -> Optional[float]:
        """When the engine actually stopped (observed or scheduled).

        The fault schedule's death time precedes the engine's own
        ``failed_at`` whenever the engine was idle at death (it only
        notices on its next step) — heartbeats must stop at the real
        instant, and detection latency is measured from it.
        """
        times = []
        if engine.failed_at is not None:
            times.append(engine.failed_at)
        if engine.faults is not None:
            scheduled = engine.faults.engine_failure_time(
                engine.engine_id, host=engine.host)
            if scheduled is not None:
                times.append(scheduled)
        return min(times) if times else None

    def _accept(self, comp: Completion) -> None:
        """Deliver one completion through the lease fence.

        Accepted only when the token it was stamped with still equals
        the request's current lease *and* no terminal was accepted for
        the request before — otherwise it is a stale zombie replay,
        counted and discarded.  ``token is None`` (never leased) cannot
        happen for engine-terminal requests but is fenced defensively.
        """
        req = comp.request
        rid = req.request_id
        if (comp.token is None or comp.token != req.lease
                or rid in self._accepted):
            if rid in self._hedged_rids:
                # The other copy of a hedged pair already won: duplicate
                # *work*, never a duplicate terminal.  If the loser is
                # the original request object, mirror the winning
                # outcome onto it so its status agrees with the records.
                self.cluster_metrics.hedge_losses += 1
                if not req.is_hedge:
                    self._mirror_outcome(req)
            else:
                self.cluster_metrics.fenced_completions += 1
            return
        self._accepted[rid] = comp
        if rid in self._hedged_rids and req.is_hedge:
            self.cluster_metrics.hedge_wins += 1
        if self._hedge_tracker is not None and comp.kind == "finish":
            self._hedge_tracker.observe(req.priority, comp.record.latency)
        metrics = self._replica_of[comp.token[0]].engine.metrics
        if comp.kind == "finish":
            metrics.records.append(comp.record)
        else:
            metrics.aborts.append(comp.record)

    def _deliver_outbox(self, engine: ServingEngine) -> None:
        """Deliver (and clear) one engine's completion outbox."""
        outbox, engine.completion_outbox = engine.completion_outbox, []
        for comp in outbox:
            self._accept(comp)

    def _drop_settled(self, r: Request) -> bool:
        """Drop a copy whose request id already has an accepted terminal.

        The other copy of a hedged pair won: count the loss and, when
        ``r`` is the original request object, mirror the winning outcome
        onto it.  False (nothing done) when the id is still unsettled.
        """
        if r.request_id not in self._accepted:
            return False
        self.cluster_metrics.hedge_losses += 1
        if not r.is_hedge:
            self._mirror_outcome(r)
        return True

    def _drop_orphaned_twin(self, r: Request) -> bool:
        """Drop a hedge twin cut off from its replica: a lost race.

        The primary still carries the request, so the twin is not
        re-homed; its id leaves ``_hedged_rids`` so the primary may be
        hedged again.  False when ``r`` is not a twin.
        """
        if not r.is_hedge:
            return False
        self._hedged_rids.discard(r.request_id)
        self.cluster_metrics.hedge_losses += 1
        return True

    def _mirror_outcome(self, req: Request) -> None:
        """Copy the accepted terminal outcome onto a hedge loser.

        Called only once the loser has left its engine (its own terminal
        was fenced, or it was dropped from the queue/orphans), so the
        mutation cannot race the engine's lifecycle checks.  Keeps the
        request *object* consistent with the metrics: exactly one
        terminal, the winner's.
        """
        comp = self._accepted.get(req.request_id)
        if comp is None or comp.request is req:
            return
        rec = comp.record
        if comp.kind == "finish":
            req.status = RequestStatus.FINISHED
            req.first_token_time = rec.first_token_time
            req.finish_time = rec.finish_time
            req.abort_time = None
            req.abort_reason = None
        else:
            req.status = RequestStatus.ABORTED
            req.finish_time = None
            req.abort_time = rec.abort_time
            req.abort_reason = AbortReason(rec.reason)

    def _deliver_pass(self, t_next: float) -> None:
        """Drain reachable replicas' outboxes; deliver healed zombies'.

        A partitioned replica's outbox simply stays put (nothing it
        emits reaches the cluster); when the partition heals, the
        backlog — completions and withheld heartbeats alike — arrives
        at the next epoch boundary.
        """
        for rep in self._members(ReplicaState.WARMING, ReplicaState.ACTIVE,
                                 ReplicaState.DRAINING):
            e = rep.engine
            rid = e.engine_id
            if (e.faults is not None
                    and e.faults.partitioned(rid, t_next, host=e.host)):
                self._was_partitioned[rid] = True
                continue
            if self._was_partitioned.pop(rid, False):
                self.cluster_metrics.partition_heals += 1
                self._record_event(t_next, "partition_heal", rep,
                                   "backlog delivered")
            for t in self._withheld_hb.pop(rid, []):
                self.detector.heartbeat(rid, t)
            self._deliver_outbox(e)
        # Confirmed-dead replicas whose partition healed deliver their
        # seized mail late; every entry carries a pre-seizure token, so
        # all of it fences.
        for rid in sorted(self._zombie_mail):
            rep = self._replica_of.get(rid)
            e = rep.engine
            if (e.faults is not None
                    and e.faults.partitioned(rid, t_next, host=e.host)):
                continue
            for comp in self._zombie_mail.pop(rid):
                self._accept(comp)

    def _heartbeat_pass(self, t_next: float) -> None:
        """Emit scheduled heartbeats up to the epoch boundary.

        Per emission instant: a dead engine beats no more; a
        ``HEARTBEAT_LOSS`` window drops the beat forever; a
        ``NETWORK_PARTITION`` window withholds it for delivery on heal;
        otherwise it reaches the detector immediately.
        """
        interval = self.detector.config.heartbeat_interval_s
        for rep in self._members(ReplicaState.ACTIVE,
                                 ReplicaState.DRAINING):
            e = rep.engine
            rid = e.engine_id
            if rid not in self._hb_next:
                continue
            death = self._death_time(e)
            t = self._hb_next[rid]
            while t <= t_next:
                if death is not None and t >= death:
                    break
                if e.faults is None:
                    self.detector.heartbeat(rid, t)
                elif e.faults.heartbeat_dropped(rid, t, host=e.host):
                    pass
                elif e.faults.partitioned(rid, t, host=e.host):
                    self._withheld_hb.setdefault(rid, []).append(t)
                else:
                    self.detector.heartbeat(rid, t)
                t += interval
            self._hb_next[rid] = t

    def _detector_pass(self, t_next: float) -> None:
        """Apply the detector's state transitions at the epoch boundary.

        SUSPECTED drains-without-killing (dispatch routes around, work
        keeps running); SUSPECTED → ALIVE is a false suspicion healed
        (the replica is re-admitted to dispatch automatically — routing
        reads detector state live); CONFIRMED_DEAD seizes the lease.
        """
        cfg = self.detector.config
        for rid, old, new in self.detector.evaluate(t_next):
            rep = self._replica_of.get(rid)
            if rep is None or rep.state is ReplicaState.DEAD:
                continue
            if new is SuspicionState.SUSPECTED:
                self.cluster_metrics.suspicions += 1
                self._record_event(
                    t_next, "suspect", rep,
                    f"phi >= {cfg.phi_suspect:g}")
            elif new is SuspicionState.ALIVE:
                self.cluster_metrics.false_suspicions += 1
                self._record_event(t_next, "unsuspect", rep,
                                   "heartbeats resumed")
            else:
                self._confirm_dead(rep, t_next)

    def _confirm_dead(self, rep: Replica, t_next: float) -> None:
        """Seize a confirmed-dead replica's lease and re-home its work.

        Bumping ``lease_epoch`` first makes every result the replica
        produced (or will yet produce, if it is a live zombie) stale by
        construction.  Undelivered outbox entries become zombie mail —
        their requests rewind and rejoin the queue; in-flight and
        pending work drains as ordinary failover orphans.  Duplicate
        *work* is the accepted cost; duplicate *terminals* are fenced.
        """
        e = rep.engine
        rid = e.engine_id
        e.lease_epoch += 1
        self._withheld_hb.pop(rid, None)
        self._was_partitioned.pop(rid, None)
        death = self._death_time(e)
        if death is not None and death <= t_next:
            self.cluster_metrics.detection_latencies.append(t_next - death)
        rewound: List[Request] = []
        if e.completion_outbox:
            outbox, e.completion_outbox = e.completion_outbox, []
            for comp in outbox:
                comp.request.reset_for_requeue(t_next)
                rewound.append(comp.request)
            self._zombie_mail.setdefault(rid, []).extend(outbox)
        self._fail_over(rep, e.drain_orphans() + rewound, t_next,
                        "confirmed dead")

    def _flush_zombie_mail(self) -> None:
        """End of run: fence whatever never became deliverable.

        Zombie mail still undelivered (the partition never healed) and
        outboxes stranded on live-but-unreachable replicas go through
        the fence so ``fenced_completions`` accounts for every deferred
        terminal — nothing is silently dropped.
        """
        for rid in sorted(self._zombie_mail):
            for comp in self._zombie_mail[rid]:
                self._accept(comp)
        self._zombie_mail.clear()
        for rep in self.replicas:
            self._deliver_outbox(rep.engine)

    def _drain_pass(self, t_next: float) -> None:
        """Retire empty DRAINING replicas; time out stuck drains.

        A drain that outlives ``drain_timeout_s`` re-homes its
        remaining work through the queue *without* charging the
        requests' failover budget or backoff (their host never failed —
        the cluster chose to retire it), so scale-down churn can never
        abort a healthy request via ``max_requeues``.
        """
        for rep in self._members(ReplicaState.DRAINING):
            drain_timeout = self._scaler_of(rep).config.drain_timeout_s
            e = rep.engine
            if e.num_live == 0:
                self._retire(rep, max(t_next, e.clock.now), "retire",
                             "drained empty")
            elif t_next - rep.drain_started_at >= drain_timeout:
                orphans = e.drain_orphans(count_hop=False)
                self.cluster_metrics.drain_requeues += len(orphans)
                self._requeue(orphans)
                self._record_event(
                    t_next, "drain_timeout", rep,
                    f"re-homed {len(orphans)} in-flight requests"
                )
                self._retire(rep, max(t_next, e.clock.now), "retire",
                             "drain timed out")

    def _retire(self, rep: Replica, now: float, action: str,
                reason: str) -> None:
        """DEAD transition plus lifetime accounting, any prior state."""
        self._charge_lifetime(rep, now)
        rep.die(now)
        if self.placement is not None:
            self.placement.deregister_replica(rep.replica_id)
        self._record_event(now, action, rep, reason)

    def _charge_lifetime(self, rep: Replica, end: float) -> None:
        """Charge one replica's drain time and GPU-seconds up to ``end``."""
        if rep.state is ReplicaState.DRAINING:
            self.cluster_metrics.draining_time_s += end - rep.drain_started_at
        self.cluster_metrics.gpu_seconds_total += max(
            0.0, end - rep.spawned_at)

    def _scaler_of(self, rep: Replica) -> Autoscaler:
        """The scaler owning one replica's pool (only scalers drain)."""
        pool = self._pool_of.get(rep.replica_id)
        return next(s for p, s in self._scalers if p == pool)

    def _scale_pass(self, now: float) -> None:
        slo_sample = self._slo_sample()
        for pool, scaler in self._scalers:
            active = self._pool_members(pool, ReplicaState.ACTIVE)
            warming = self._pool_members(pool, ReplicaState.WARMING)
            draining = self._pool_members(pool, ReplicaState.DRAINING)
            queue_depth = sum(rep.engine.num_live
                              for rep in active + warming + draining)
            if pool != DECODE_POOL:
                # Overdue undispatched requests are prefill-pool
                # pressure: fresh traffic only ever dispatches there.
                queue_depth += sum(
                    1 for arrival, _, _, _ in self._undispatched
                    if arrival <= now
                )
            utilization = None
            if scaler.config.target_utilization is not None:
                blocks = used = 0
                for rep in active:
                    kv = rep.engine.kv
                    blocks += kv.num_blocks
                    used += kv.num_blocks - kv.free_blocks
                utilization = used / blocks if blocks else 1.0
            num_suspected = 0
            if self.detector is not None:
                num_suspected = sum(
                    1 for rep in active
                    if self.detector.state_of(rep.replica_id)
                    is SuspicionState.SUSPECTED
                )
            delta = scaler.observe(
                now,
                queue_depth=queue_depth,
                num_active=len(active),
                num_warming=len(warming),
                num_draining=len(draining),
                num_suspected=num_suspected,
                slo_sample=slo_sample,
                utilization=utilization,
            )
            if delta > 0:
                for _ in range(delta):
                    if not self._spawn_replica(now, pool, scaler):
                        break
            elif delta < 0:
                self._drain_one(now, pool, scaler)

    def _slo_sample(self) -> Optional[float]:
        """SLO attainment among requests turned terminal since last call.

        Incremental (per-collector cursors into the append-only records
        and aborts lists), so the control loop stays linear in the trace
        size.  ``None`` when no SLO-carrying request finished or aborted
        this epoch.
        """
        met = 0
        total = 0
        collectors = [self.cluster_metrics] + [
            rep.engine.metrics for rep in self.replicas
        ]
        for m in collectors:
            rec_i, ab_i = self._slo_cursor.get(id(m), (0, 0))
            for rec in m.records[rec_i:]:
                if rec.slo_s is not None:
                    total += 1
                    if rec.latency <= rec.slo_s:
                        met += 1
            for ab in m.aborts[ab_i:]:
                if ab.slo_s is not None:
                    total += 1
            self._slo_cursor[id(m)] = (len(m.records), len(m.aborts))
        if total == 0:
            return None
        return met / total

    def _can_spawn(self, pool: Optional[str]) -> bool:
        """Whether ``pool`` (``None``: any pool) has a scaler with spawn
        budget and replica headroom left.  Clusters without a scaler have
        a fixed replica set."""
        return self.engine_factory is not None and any(
            self._spawns_used.get(p, 0) < s.config.spawn_budget
            and len(self._pool_members(
                p, ReplicaState.WARMING, ReplicaState.ACTIVE,
                ReplicaState.DRAINING)) < s.config.max_replicas
            for p, s in self._scalers if pool is None or p == pool)

    def _fresh_replica_id(self) -> str:
        while True:
            rid = f"gpu-{self._next_replica_idx}"
            self._next_replica_idx += 1
            if rid not in self._replica_of:
                return rid

    def _spawn_replica(self, now: float, pool: Optional[str],
                       scaler: Autoscaler) -> bool:
        """Provision one WARMING replica; False when spawning is capped."""
        if not self._can_spawn(pool):
            return False
        engine = self.engine_factory()
        engine.engine_id = self._fresh_replica_id()
        self._enroll(engine, pool)
        self._spawns_used[pool] = self._spawns_used.get(pool, 0) + 1
        prefetch_ids: List[str] = []
        if self.placement is not None:
            # Warm up with the fleet's current hot set: the cold start
            # grows (each prefetched adapter pays a synchronous swap)
            # but the replica comes online useful instead of cold.
            prefetch_ids = self.placement.prefetch_plan(engine)
        cold = estimate_cold_start_s(engine, scaler.config,
                                     prefetch_ids=prefetch_ids or None)
        stall = 1.0
        if engine.faults is not None:
            stall = engine.faults.scale_stall_factor(engine.engine_id, now)
        if stall > 1.0:
            self.cluster_metrics.scale_stalls += 1
        rep = Replica(engine=engine, state=ReplicaState.WARMING,
                      spawned_at=now, warm_until=now + cold * stall)
        self.replicas.append(rep)
        self._replica_of[rep.replica_id] = rep
        if self.placement is not None:
            self.placement.apply_prefetch(engine, prefetch_ids, now)
            self.placement.register_replica(engine)
            self.cluster_metrics.adapters_prefetched += len(prefetch_ids)
        pool_tag = f" [{pool}]" if pool is not None else ""
        self._record_event(now, "spawn", rep,
                           f"cold start {cold * stall:.3f}s{pool_tag}")
        return True

    def _drain_one(self, now: float, pool: Optional[str],
                   scaler: Autoscaler) -> None:
        """Quiesce the scale-down victim: worst health, then emptiest."""
        cfg = scaler.config
        candidates = [rep for rep in self._pool_members(
                          pool, ReplicaState.ACTIVE)
                      if not rep.engine.failed]
        if len(candidates) <= cfg.min_replicas:
            return
        scores = self.health_scores([rep.engine for rep in candidates])
        if self.placement is not None:
            # Among equal-health candidates, retire the cache-coldest
            # replica: the one whose resident adapters would cost the
            # least swap traffic to rebuild on the survivors.
            def _key(cs):
                return (cs[1],
                        self.placement.replica_cache_value(
                            cs[0].replica_id),
                        cs[0].engine.num_live, cs[0].replica_id)
        else:
            def _key(cs):
                return (cs[1], cs[0].engine.num_live, cs[0].replica_id)
        rep, score = min(zip(candidates, scores), key=_key)
        rep.start_drain(now)
        self._record_event(now, "drain", rep,
                           f"scale down (health {score:.3f})")

    def _abort_unplaceable(self, now: float) -> None:
        """No live replicas and no way to spawn any: fail the queue.

        Every queued request aborts at ``now``, the moment the cluster
        found no survivor (or at its arrival, when a requeue backoff
        put that later).  An autoscaled cluster gets here only once
        the spawn budget is exhausted or the factory is gone, since
        min-replica healing otherwise re-provisions.
        """
        if not self._undispatched:
            return
        # Disaggregated: the queue can only ever drain through the
        # prefill pool, so decode-only survivors do not count.
        pool = PREFILL_POOL if self.disagg is not None else None
        if self._pool_members(pool, ReplicaState.WARMING,
                              ReplicaState.ACTIVE, ReplicaState.DRAINING):
            return
        if self._can_spawn(pool):
            return
        while self._undispatched:
            r = heapq.heappop(self._undispatched)[-1]
            if self._drop_settled(r) or self._drop_orphaned_twin(r):
                continue
            self._cluster_abort(r, max(r.arrival_time, now))

    def _quiescent(self) -> bool:
        if self._undispatched:
            return False
        # Undelivered completions on a live (possibly partitioned)
        # replica block quiescence: the loop keeps epoching until the
        # partition heals and delivers, or confirmation seizes them.
        # Zombie mail never blocks — it only ever fences.
        return all(
            rep.engine.num_live == 0 and not rep.engine.completion_outbox
            for rep in self._members(ReplicaState.WARMING,
                                     ReplicaState.ACTIVE,
                                     ReplicaState.DRAINING)
        )

    def _finalize_lifetimes(self, end: float) -> None:
        """Charge still-live replicas' GPU seconds up to the run's end."""
        for rep in self._members(ReplicaState.WARMING, ReplicaState.ACTIVE,
                                 ReplicaState.DRAINING):
            self._charge_lifetime(rep, max(end, rep.engine.clock.now))

    # -- failover helpers ------------------------------------------------------------

    def _cluster_abort(self, r: Request, now: float,
                       reason: AbortReason = AbortReason.ENGINE_FAILED
                       ) -> None:
        """Terminalize a request the cluster itself gave up on."""
        r.abort(now, reason)
        self.cluster_metrics.record_abort(r)

    def _vet_orphans(self, orphans: List[Request]) -> List[Request]:
        """Filter failover orphans before they rejoin the queue.

        Hedge housekeeping first: a twin orphaned off a dead host is
        simply a lost race (its primary still carries the request), and
        an original whose id already has an accepted terminal — the twin
        won while the primary's host was failing — mirrors the winner's
        outcome instead of re-homing.  Of the real survivors, those past
        the failover budget abort (``requeue_limit_aborts``); when a
        retry budget is attached, each remaining requeue must also buy a
        token, so correlated failures degrade into aborts instead of an
        unbounded retry storm.
        """
        kept: List[Request] = []
        for r in orphans:
            if self._drop_settled(r) or self._drop_orphaned_twin(r):
                continue
            if (self.max_requeues is not None
                    and r.requeues > self.max_requeues):
                self._cluster_abort(r, r.arrival_time)
                self.cluster_metrics.requeue_limit_aborts += 1
                continue
            if (self.retry_budget is not None
                    and not self.retry_budget.try_spend(r.priority)):
                self.cluster_metrics.retry_budget_exhausted += 1
                self._cluster_abort(r, r.arrival_time)
                continue
            kept.append(r)
        return kept

    def _apply_requeue_backoff(self, orphans: Sequence[Request]) -> None:
        """Space repeated requeues out with capped exponential backoff.

        The curve runs over ``requeue_backoff_s``/``requeue_backoff_cap_s``;
        a request carrying a deadline never backs off longer than its
        ``deadline_s`` — backing off past a deadline only converts a
        retry into a guaranteed deadline abort.
        """
        if self.requeue_backoff_s <= 0:
            return
        for r in orphans:
            cap = self.requeue_backoff_cap_s
            if r.deadline_s is not None:
                cap = min(cap, r.deadline_s)
            r.arrival_time += capped_exponential_backoff(
                self.requeue_backoff_s, r.requeues, cap)

    def per_engine_completed(self) -> List[int]:
        """Completed request count per replica, in spawn order.

        Covers every replica ever in the cluster, retired ones included
        — a replica that failed mid-run keeps the completions it made.
        """
        return [rep.engine.metrics.num_completed for rep in self.replicas]

    @classmethod
    def replicate(cls, factory: Callable[[], ServingEngine],
                  num_gpus: int, dispatch: str = "least-loaded",
                  **kwargs) -> "MultiGPUServer":
        """Build ``num_gpus`` identical engines from a factory.

        The factory is kept as the cluster's ``engine_factory`` so an
        attached autoscaler can spawn more replicas from the same mold.
        """
        if num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive, got {num_gpus}")
        kwargs.setdefault("engine_factory", factory)
        return cls([factory() for _ in range(num_gpus)], dispatch=dispatch,
                   **kwargs)
