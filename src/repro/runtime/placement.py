"""Fleet-level adapter placement: cache-state-aware routing at scale.

At S-LoRA scale (thousands of registered adapters, a handful of GPU
slots per replica) the dominant dispatch cost is no longer queue depth —
it is the adapter swap a cache-miss dispatch forces (§5 "LoRA adapter
swap").  The cluster's legacy policies are blind to residency:
``least-loaded`` sprays every adapter across every replica (each
replica's working set becomes the whole registry), and
``adapter-affinity`` hashes blindly without asking *which adapters are
actually resident where*.

:class:`AdapterPlacement` is the missing fleet-level registry.  It
tracks, per replica, a model of the GPU-resident adapter set (seeded
from each engine's :class:`~repro.runtime.adapters.AdapterManager` and
refreshed from ground truth every cluster control epoch — 0.5 s unless
a detector or hedging without an autoscaler shortens it to 0.25 s, see
:meth:`~repro.runtime.cluster.MultiGPUServer.epoch_s`), a per-adapter
popularity EWMA, and the per-adapter swap cost, and exposes one
placement decision to cluster dispatch:

* **consistent-hash home** — every adapter has a stable home replica on
  a virtual-node hash ring, so each replica's steady-state working set
  is ``~registry/replicas`` instead of the whole registry, and replica
  churn (autoscaling) only re-homes the ring arcs adjacent to the
  change;
* **load-aware spill** — when the home is overloaded, spill to the
  least-loaded replica *already holding the adapter* before paying a
  cold swap anywhere;
* **hot-adapter replication** — adapters whose popularity EWMA crosses
  ``hot_watermark`` are served from ``hot_copies`` ring homes (and
  soft-pinned in those replicas' GPU slots), trading slots for
  load-spread on the head of the Zipf curve.

Cold adapters are left to each engine's LRU eviction: a slot is freed
when an adapter that earns it swaps in, not before.

The registry also informs the rest of the control plane: hedged twins
prefer a replica with the adapter resident, the autoscaler's scale-down
victim choice prefers the cache-coldest replica, and a newly spawned
replica prefetches the registry's current top-k hot set during warm-up
(extending :func:`~repro.runtime.autoscaler.estimate_cold_start_s`).

Everything here is deterministic (crc32 hashing, sorted iteration) and
default-off: a cluster with no placement attached behaves bit-identically
to the pre-placement code.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["PlacementConfig", "AdapterPlacement"]

#: Per-observation decay of the popularity EWMA (each dispatched
#: request is one observation).
POPULARITY_EWMA_ALPHA = 0.02
#: The *spill* bar: a home whose queued decode rounds exceed
#: ``SPILL_LOAD_FACTOR * fleet_min + SPILL_SLACK_ROUNDS`` is overloaded
#: and spills to the least-loaded replica already holding the adapter.
#: The slack is in decode rounds, the unit dispatch uses for load, so
#: it corresponds to one-or-two typical in-flight requests.
SPILL_LOAD_FACTOR = 1.1
SPILL_SLACK_ROUNDS = 96.0
#: The (deliberately looser than spill) bar for the *miss* path: a
#: cache-miss request keeps routing to its hash home — building
#: locality — until the home's queued decode rounds exceed
#: ``MISS_LOAD_FACTOR * fleet_min + MISS_SLACK_ROUNDS``; then balance
#: wins and the miss goes to the fleet's least-loaded replica instead.
MISS_LOAD_FACTOR = 1.5
MISS_SLACK_ROUNDS = 448.0
#: Share of a replica's slot budget that replication may soft-pin.
MAX_PINS_FRACTION = 0.5
#: Virtual nodes per replica on the consistent-hash ring.
RING_VNODES = 64


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs for :class:`AdapterPlacement`.

    Popularity is each adapter's share of recent traffic, an EWMA with
    per-observation decay ``POPULARITY_EWMA_ALPHA`` (summing to ~1
    across adapters once warm).  ``hot_watermark`` / ``hot_copies``
    control replication: an adapter whose share crosses the watermark
    is served from that many ring homes.  A home is overloaded for the
    spill decision past the ``SPILL_LOAD_FACTOR`` /
    ``SPILL_SLACK_ROUNDS`` bar; a cache miss follows the looser
    ``MISS_LOAD_FACTOR`` / ``MISS_SLACK_ROUNDS`` bar instead.
    ``prefetch_top_k`` bounds the hot set a newly spawned replica
    prefetches during warm-up.
    """

    hot_watermark: float = 0.03
    hot_copies: int = 2
    prefetch_top_k: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_watermark <= 1.0:
            raise ValueError("hot_watermark must be in (0, 1]")
        if self.hot_copies < 1:
            raise ValueError("hot_copies must be >= 1")
        if self.prefetch_top_k < 0:
            raise ValueError("prefetch_top_k must be >= 0")


def _hash32(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class AdapterPlacement:
    """The fleet-level adapter registry and placement decision.

    The registry keeps a *model* of each replica's resident set: updated
    optimistically when dispatch assigns an adapter somewhere (an LRU of
    ``gpu_slots`` entries, mirroring the engine-side eviction policy)
    and re-synchronized from each engine's ground-truth
    :attr:`~repro.runtime.adapters.AdapterManager.resident_ids` at every
    control epoch (:meth:`refresh_from_engines`).  The manager keeps its
    resident set as it changes, so a refresh costs O(slots) per replica,
    not O(catalog).  Between refreshes the
    model can be slightly stale — exactly like a production placement
    service whose view lags the data plane — and every decision made on
    a stale entry degrades to one extra swap, never to an error.
    """

    def __init__(self, config: Optional[PlacementConfig] = None):
        self.config = config or PlacementConfig()
        #: replica_id -> engine (insertion-ordered; the live fleet).
        self._engines: Dict[str, object] = {}
        #: replica_id -> LRU model of GPU-resident adapters
        #: (adapter_id -> monotone use sequence).
        self._resident: Dict[str, Dict[str, int]] = {}
        #: Raw (scaled) popularity weights; true share is raw * _scale.
        self._pop_raw: Dict[str, float] = {}
        self._pop_scale: float = 1.0
        self._observations: int = 0
        self._use_seq: int = 0
        #: Adapters currently replicated (popularity above watermark).
        self._replicated: set = set()
        #: replica_id -> adapter ids this registry soft-pinned there.
        self._pins: Dict[str, set] = {}
        # Hash-ring cache, rebuilt on membership change.
        self._ring: Optional[List[Tuple[int, str]]] = None
        # -- lifetime stats (mirrored into cluster metrics by the caller) --
        self.spills = 0
        self.replications = 0
        self.prefetches = 0

    # -- membership ---------------------------------------------------------

    def register_replica(self, engine) -> None:
        """Track ``engine``; seed its resident-set model from truth."""
        rid = engine.engine_id
        self._engines[rid] = engine
        self._pins.setdefault(rid, set())
        self._resident[rid] = {}
        for adapter_id in engine.adapters.resident_ids:
            self._use_seq += 1
            self._resident[rid][adapter_id] = self._use_seq
        self._ring = None

    def deregister_replica(self, replica_id: str) -> None:
        """Forget a retired/dead replica; its ring arcs re-home."""
        self._engines.pop(replica_id, None)
        self._resident.pop(replica_id, None)
        self._pins.pop(replica_id, None)
        self._ring = None

    # -- popularity ---------------------------------------------------------

    def observe(self, adapter_id: str) -> None:
        """Fold one dispatched request into the popularity EWMA.

        Implemented with a lazy global scale so one observation is O(1)
        over thousands of adapters: every existing weight decays by
        ``(1 - alpha)`` implicitly (the scale shrinks) and the observed
        adapter gains ``alpha`` of the new total.
        """
        alpha = POPULARITY_EWMA_ALPHA
        self._pop_scale *= (1.0 - alpha)
        self._observations += 1
        self._pop_raw[adapter_id] = (
            self._pop_raw.get(adapter_id, 0.0) + alpha / self._pop_scale
        )
        if self._pop_scale < 1e-12:
            # Renormalize before the raw weights overflow.
            for a in self._pop_raw:
                self._pop_raw[a] *= self._pop_scale
            self._pop_scale = 1.0

    def popularity(self, adapter_id: str) -> float:
        """The adapter's EWMA share of recent traffic (0 when unseen)."""
        return self._pop_raw.get(adapter_id, 0.0) * self._pop_scale

    def top_hot(self, k: int) -> List[str]:
        """The ``k`` most popular adapters (share desc, id asc)."""
        if k <= 0 or not self._pop_raw:
            return []
        ranked = sorted(self._pop_raw.items(),
                        key=lambda it: (-it[1], it[0]))
        return [a for a, _ in ranked[:k]]

    def hot_set(self) -> List[str]:
        """Adapters above the replication watermark (share desc)."""
        wm = self.config.hot_watermark
        hot = [(self.popularity(a), a) for a in self._pop_raw
               if self.popularity(a) >= wm]
        hot.sort(key=lambda it: (-it[0], it[1]))
        return [a for _, a in hot]

    # -- consistent-hash ring -----------------------------------------------

    def _ring_points(self) -> List[Tuple[int, str]]:
        if self._ring is None:
            points = []
            for rid in self._engines:
                for v in range(RING_VNODES):
                    points.append((_hash32(f"{rid}#{v}"), rid))
            points.sort()
            self._ring = points
        return self._ring

    def homes(self, adapter_id: str, k: int = 1) -> List[str]:
        """The adapter's first ``k`` distinct ring homes, in ring order.

        Stable under membership change: removing a replica only re-homes
        the arcs it owned; every other adapter keeps its home (the
        property the crc32-mod-n policy lacks).
        """
        ring = self._ring_points()
        if not ring:
            return []
        out: List[str] = []
        start = bisect_right(ring, (_hash32(adapter_id), "￿"))
        for step in range(len(ring)):
            rid = ring[(start + step) % len(ring)][1]
            if rid not in out:
                out.append(rid)
                if len(out) >= k:
                    break
        return out

    # -- resident-set model ---------------------------------------------------

    def holders(self, adapter_id: str) -> List[str]:
        """Replicas modeled as holding the adapter GPU-resident."""
        return [rid for rid, res in self._resident.items()
                if adapter_id in res]

    def note_assignment(self, adapter_id: str, replica_id: str) -> None:
        """Update the resident model for a dispatch onto ``replica_id``.

        Mirrors the engine-side LRU: inserting into a full model evicts
        the least-recently-assigned *unpinned* adapter.
        """
        res = self._resident.get(replica_id)
        engine = self._engines.get(replica_id)
        if res is None or engine is None:
            return
        self._use_seq += 1
        if adapter_id in res:
            res[adapter_id] = self._use_seq
            return
        slots = engine.adapters.gpu_slots
        if len(res) >= slots:
            pinned = self._pins.get(replica_id, set())
            victims = [(seq, a) for a, seq in res.items() if a not in pinned]
            if not victims:
                victims = [(seq, a) for a, seq in res.items()]
            victims.sort()
            del res[victims[0][1]]
        res[adapter_id] = self._use_seq

    def refresh_from_engines(self) -> None:
        """Re-sync the resident model from every engine's ground truth.

        Keeps the optimistic model honest once per control epoch; the
        LRU sequence of surviving entries is preserved so recency
        ordering does not reset on refresh.
        """
        for rid, engine in self._engines.items():
            model = self._resident.get(rid, {})
            # Built from the truth alone, so entries the engine has
            # since evicted drop out.
            fresh: Dict[str, int] = {}
            for adapter_id in engine.adapters.resident_ids:
                if adapter_id in model:
                    fresh[adapter_id] = model[adapter_id]
                else:
                    self._use_seq += 1
                    fresh[adapter_id] = self._use_seq
            self._resident[rid] = fresh

    def replica_cache_value(self, replica_id: str) -> float:
        """Σ popularity of the replica's modeled resident set.

        The autoscaler's scale-down pass uses this to prefer retiring
        the cache-coldest replica: the one whose resident set would cost
        the least swap traffic to rebuild elsewhere.
        """
        res = self._resident.get(replica_id)
        if not res:
            return 0.0
        return sum(self.popularity(a) for a in res)

    # -- the placement decision -----------------------------------------------

    def decide(self, adapter_id: str,
               loads: Dict[str, float]) -> Tuple[str, str]:
        """Choose a replica for one request; returns ``(replica_id, why)``.

        ``loads`` maps each *routable* replica to its current load
        (queued decode rounds, health-inflated by the caller when
        health-aware).  Decision ladder:

        1. the consistent-hash home (first routable of ``hot_copies``
           homes for replicated adapters) when it already holds the
           adapter and is not overloaded — ``home-hit``;
        2. else the least-loaded routable replica already holding the
           adapter, if one exists under the spill bar — ``spill-hit``
           (a *spill*: locality kept, load respected);
        3. else the least-loaded routable home, if it is under the
           (looser) miss bar — ``home-miss`` (pay the cold swap where
           future requests will hash);
        4. else the least-loaded routable replica — ``fallback-miss``.
           A miss costs the same swap wherever it lands, so once every
           home is severely overloaded, balance wins over locality:
           piling misses onto a hot home is how affinity routing melts
           its tail.  The new residency is recorded at the fallback
           replica, so repeat requests still find it via spill-hit.

        Every path records the intended residency so back-to-back
        requests for one adapter see the first decision's effect.
        """
        if not loads:
            raise ValueError("no routable replicas to decide over")
        self.observe(adapter_id)
        k = (self.config.hot_copies
             if adapter_id in self._replicated else 1)
        homes = [rid for rid in self.homes(adapter_id, k) if rid in loads]
        fleet_min = min(loads.values())
        bar = SPILL_LOAD_FACTOR * fleet_min + SPILL_SLACK_ROUNDS
        holders = sorted(
            (rid for rid in self.holders(adapter_id) if rid in loads),
            key=lambda rid: (loads[rid], rid),
        )
        chosen: Optional[str] = None
        why = "fallback-miss"
        home_hits = [rid for rid in homes
                     if adapter_id in self._resident.get(rid, {})
                     and loads[rid] <= bar]
        if home_hits:
            # Replicated adapters spread by load across their k homes.
            chosen = min(home_hits, key=lambda rid: (loads[rid], rid))
            why = "home-hit"
        if chosen is None and holders and loads[holders[0]] <= bar:
            chosen = holders[0]
            why = "home-hit" if chosen in homes else "spill-hit"
            if why == "spill-hit":
                self.spills += 1
        if chosen is None and homes:
            miss_bar = MISS_LOAD_FACTOR * fleet_min + MISS_SLACK_ROUNDS
            best_home = min(homes, key=lambda rid: (loads[rid], rid))
            if loads[best_home] <= miss_bar:
                chosen = best_home
                why = "home-miss"
        if chosen is None:
            chosen = min(loads, key=lambda rid: (loads[rid], rid))
            why = "fallback-miss"
        self.note_assignment(adapter_id, chosen)
        return chosen, why

    # -- replication (the epoched rebalance pass) -----------------------------

    def rebalance(self) -> int:
        """One control-epoch pass: promote hot adapters, retire cooled ones.

        Promotion adds an adapter to the replicated set (dispatch then
        spreads it over ``hot_copies`` ring homes) and soft-pins it in
        those homes' GPU slots; decay below the watermark reverses both.
        Returns the adapters promoted in this pass.
        """
        promoted = 0
        hot = set(self.hot_set())
        for adapter_id in sorted(hot - self._replicated):
            self._replicated.add(adapter_id)
            self.replications += 1
            promoted += 1
        for adapter_id in sorted(self._replicated - hot):
            self._replicated.discard(adapter_id)
        self._apply_pins()
        return promoted

    def _apply_pins(self) -> None:
        """Soft-pin replicated adapters in their ring homes' slots."""
        cfg = self.config
        want: Dict[str, set] = {rid: set() for rid in self._engines}
        for adapter_id in sorted(self._replicated):
            for rid in self.homes(adapter_id, cfg.hot_copies):
                engine = self._engines.get(rid)
                if engine is None:
                    continue
                cap = max(1, int(engine.adapters.gpu_slots
                                 * MAX_PINS_FRACTION))
                if len(want[rid]) < cap:
                    want[rid].add(adapter_id)
        for rid, engine in self._engines.items():
            have = self._pins.setdefault(rid, set())
            for adapter_id in sorted(have - want[rid]):
                engine.adapters.unpin(adapter_id)
                have.discard(adapter_id)
            for adapter_id in sorted(want[rid] - have):
                if engine.adapters.pin(adapter_id):
                    have.add(adapter_id)

    # -- autoscaler warm-up ------------------------------------------------------

    def prefetch_plan(self, engine) -> List[str]:
        """Hot adapters a fresh replica should prefetch during warm-up.

        The registry's current top-k hot set, minus whatever the
        engine's warm start already made resident, capped to the
        engine's slot budget.
        """
        k = self.config.prefetch_top_k
        if k <= 0:
            return []
        resident = set(engine.adapters.resident_ids)
        plan = [a for a in self.top_hot(k) if a not in resident]
        # Cap to the slot budget, not the *free* slots: a warm-started
        # engine boots with its slots full of the registry's first
        # adapters, and prefetch exists precisely to replace those with
        # the fleet's actual hot set (make_resident evicts LRU).
        return plan[:engine.adapters.gpu_slots]

    def apply_prefetch(self, engine, adapter_ids: Sequence[str],
                       now: float) -> None:
        """Make the warm-up plan actually resident on the new engine."""
        for adapter_id in adapter_ids:
            if engine.adapters.make_resident(adapter_id, now):
                self.prefetches += 1

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """A flat snapshot for bench dumps and debugging."""
        return {
            "replicas": float(len(self._engines)),
            "tracked_adapters": float(len(self._pop_raw)),
            "observations": float(self._observations),
            "replicated_adapters": float(len(self._replicated)),
            "spills": float(self.spills),
            "replications": float(self.replications),
            "prefetches": float(self.prefetches),
        }
