"""Deterministic fault injection for the serving runtime.

Production LoRA-serving stacks hit failure modes that the happy-path
simulator never exercises: adapter swaps that fail or crawl (host-side
page faults, PCIe contention), transient KV-memory pressure (co-located
tenants, fragmentation), and straggling or outright dead GPUs.  This
module schedules such faults against the *simulated* clock so that the
engine's degradation behavior is reproducible and testable.

Design points:

* **Deterministic** — every fault window is materialized up front from a
  seeded RNG (:meth:`FaultInjector.random`); query methods are pure
  functions of ``(kind, target, now)``, so two runs with the same seed
  and workload see byte-identical fault timelines regardless of how
  often the engine polls.
* **Window-based** — a :class:`FaultSpec` is a ``[start, start+duration)``
  interval with a magnitude (slowdown factor, reserved-KV fraction) and
  an optional target (adapter id or engine id; ``None`` hits everyone).
* **Engine failures are permanent** — an ``ENGINE_FAIL`` spec marks its
  target dead from ``start`` onward; the cluster layer requeues the
  dead engine's in-flight requests onto survivors.
* **Gray failures are windows, not deaths** — ``NETWORK_PARTITION``
  leaves the target alive and computing but withholds its heartbeats
  and completions until the window closes (delivered on heal);
  ``HEARTBEAT_LOSS`` silently drops heartbeats while work continues
  unaffected.  Both are only observable through the failure detector
  (:mod:`repro.runtime.failure_detection`), never through the legacy
  oracle.  ``HOST_FAIL`` is a correlated domain failure: it targets a
  *host* id and permanently kills every replica placed on that host.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


class FaultKind(enum.Enum):
    """The failure modes the runtime knows how to inject."""

    ADAPTER_SWAP_FAIL = "adapter_swap_fail"   # swap-in attempt fails
    ADAPTER_SWAP_SLOW = "adapter_swap_slow"   # swap-in takes magnitude× longer
    KV_PRESSURE = "kv_pressure"               # magnitude fraction of blocks unusable
    ENGINE_FAIL = "engine_fail"               # engine dies at `start` (permanent)
    ENGINE_SLOW = "engine_slow"               # straggler: iterations magnitude× slower
    LOAD_BURST = "load_burst"                 # arrivals magnitude× denser (overload)
    SCALE_STALL = "scale_stall"               # replica warm-up magnitude× slower
    NETWORK_PARTITION = "network_partition"   # alive, but heartbeats/results withheld
    HEARTBEAT_LOSS = "heartbeat_loss"         # heartbeats dropped, work unaffected
    HOST_FAIL = "host_fail"                   # whole host dies at `start` (permanent)


class FaultSpecError(ValueError):
    """A :class:`FaultSpec` was constructed with nonsense parameters.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` keep working; new code can catch the typed error.
    """


#: Kinds whose start marks a permanent death rather than a window.
_PERMANENT_KINDS = (FaultKind.ENGINE_FAIL, FaultKind.HOST_FAIL)

#: Kinds whose magnitude is a multiplicative slowdown (must be >= 1).
_FACTOR_KINDS = (FaultKind.ADAPTER_SWAP_SLOW, FaultKind.ENGINE_SLOW,
                 FaultKind.LOAD_BURST, FaultKind.SCALE_STALL)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault window.

    ``magnitude`` means: slowdown factor for ``*_SLOW`` kinds (>= 1),
    fraction of KV blocks made unusable for ``KV_PRESSURE`` (in [0, 1)),
    and is ignored for the on/off kinds (``ADAPTER_SWAP_FAIL``,
    ``ENGINE_FAIL``, ``HOST_FAIL``, ``NETWORK_PARTITION``,
    ``HEARTBEAT_LOSS``).  ``HOST_FAIL`` targets a *host* id; every
    other targeted kind names an adapter or engine id.
    """

    kind: FaultKind
    start: float
    duration: float = math.inf
    magnitude: float = 1.0
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if math.isnan(self.start) or self.start < 0:
            raise FaultSpecError(f"start must be >= 0, got {self.start}")
        if math.isnan(self.duration) or self.duration <= 0:
            raise FaultSpecError(
                f"duration must be positive, got {self.duration}")
        if math.isnan(self.magnitude):
            raise FaultSpecError("magnitude must not be NaN")
        if self.kind is FaultKind.KV_PRESSURE and not 0.0 <= self.magnitude < 1.0:
            raise FaultSpecError(
                f"KV_PRESSURE magnitude must be in [0, 1), got {self.magnitude}"
            )
        if self.kind in _FACTOR_KINDS and self.magnitude < 1.0:
            raise FaultSpecError(
                f"{self.kind.value} magnitude must be >= 1, got {self.magnitude}"
            )

    def active_at(self, now: float) -> bool:
        if self.kind in _PERMANENT_KINDS:
            return now >= self.start  # permanent
        return self.start <= now < self.start + self.duration

    def matches(self, target: Optional[str]) -> bool:
        return self.target is None or self.target == target

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind.value,
            "start": self.start,
            "duration": self.duration,
            "magnitude": self.magnitude,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultSpec":
        return cls(
            kind=FaultKind(payload["kind"]),
            start=float(payload["start"]),
            duration=float(payload.get("duration", math.inf)),
            magnitude=float(payload.get("magnitude", 1.0)),
            target=payload.get("target"),
        )


class FaultInjector:
    """Answers "is fault X active for target Y at sim-time T?".

    Hooked by :class:`~repro.runtime.engine.ServingEngine` (swap
    outcomes, KV pressure, straggler slowdown, engine death) and by
    :class:`~repro.runtime.cluster.MultiGPUServer` (failover).
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: List[FaultSpec] = sorted(
            specs, key=lambda s: (s.start, s.kind.value, s.target or "")
        )
        #: Every spec's start and end, sorted (:meth:`next_change`).
        self._changes = sorted({t for s in self.specs
                                for t in (s.start, s.start + s.duration)})

    # -- queries (pure) ------------------------------------------------------

    def _active(self, kind: FaultKind, now: float,
                target: Optional[str]) -> List[FaultSpec]:
        return [
            s for s in self.specs
            if s.kind is kind and s.active_at(now) and s.matches(target)
        ]

    def next_change(self, now: float) -> float:
        """The earliest spec start or end after ``now`` (``inf`` when
        there is none).  Every query gives the same answer at any time
        in ``[now, next_change(now))`` as at ``now``."""
        changes = self._changes
        i = bisect.bisect_right(changes, now)
        return changes[i] if i < len(changes) else math.inf

    def swap_should_fail(self, adapter_id: str, now: float) -> bool:
        """True when a swap-in of ``adapter_id`` started now would fail."""
        return bool(self._active(FaultKind.ADAPTER_SWAP_FAIL, now, adapter_id))

    def swap_slowdown(self, adapter_id: str, now: float) -> float:
        """Multiplicative swap-time factor (>= 1) for ``adapter_id``."""
        factor = 1.0
        for s in self._active(FaultKind.ADAPTER_SWAP_SLOW, now, adapter_id):
            factor *= s.magnitude
        return factor

    def kv_reserved_fraction(self, now: float) -> float:
        """Fraction of KV blocks currently unusable (worst active window)."""
        windows = self._active(FaultKind.KV_PRESSURE, now, None)
        if not windows:
            return 0.0
        return min(max(s.magnitude for s in windows), 0.999)

    def engine_failed(self, engine_id: str, now: float,
                      host: Optional[str] = None) -> bool:
        """Dead at ``now`` — individually or via its host's ``HOST_FAIL``."""
        if self._active(FaultKind.ENGINE_FAIL, now, engine_id):
            return True
        return host is not None and bool(
            self._active(FaultKind.HOST_FAIL, now, host))

    def engine_failure_time(self, engine_id: str,
                            host: Optional[str] = None) -> Optional[float]:
        """Scheduled death time of ``engine_id`` (earliest), or None.

        The heartbeat model needs the *actual* instant a replica stops
        beating — which precedes detection by exactly the latency the
        detector is being measured on.
        """
        times = [
            s.start for s in self.specs
            if (s.kind is FaultKind.ENGINE_FAIL and s.matches(engine_id))
            or (host is not None and s.kind is FaultKind.HOST_FAIL
                and s.matches(host))
        ]
        return min(times) if times else None

    def partitioned(self, engine_id: str, now: float,
                    host: Optional[str] = None) -> bool:
        """Inside a ``NETWORK_PARTITION`` window at ``now``?

        A partitioned replica is alive and computing, but nothing it
        emits (heartbeats, completions) reaches the cluster until the
        window closes.  A spec may target the engine id, the host id
        (correlated partition of a whole host), or everyone (None).
        """
        if self._active(FaultKind.NETWORK_PARTITION, now, engine_id):
            return True
        return host is not None and any(
            s.target == host
            for s in self._active(FaultKind.NETWORK_PARTITION, now, host)
        )

    def heartbeat_dropped(self, engine_id: str, now: float,
                          host: Optional[str] = None) -> bool:
        """Inside a ``HEARTBEAT_LOSS`` window at ``now``?

        Unlike a partition, dropped heartbeats are gone forever (the
        loss is on the monitoring path only; work and completions flow
        normally) — the purest gray failure: the detector may suspect a
        perfectly healthy replica.
        """
        if self._active(FaultKind.HEARTBEAT_LOSS, now, engine_id):
            return True
        return host is not None and any(
            s.target == host
            for s in self._active(FaultKind.HEARTBEAT_LOSS, now, host)
        )

    def engine_slowdown(self, engine_id: str, now: float) -> float:
        factor = 1.0
        for s in self._active(FaultKind.ENGINE_SLOW, now, engine_id):
            factor *= s.magnitude
        return factor

    def scale_stall_factor(self, engine_id: str, now: float) -> float:
        """Warm-up slowdown (>= 1) for a replica spawned at ``now``.

        A ``SCALE_STALL`` window models slow replica provisioning (image
        pulls, weight loading contention): the cold-start cost of any
        replica whose spin-up *begins* inside the window is multiplied.
        ``target=None`` hits every replica; a targeted spec only stalls
        the named engine id.
        """
        factor = 1.0
        for s in self._active(FaultKind.SCALE_STALL, now, engine_id):
            factor *= s.magnitude
        return factor

    def load_burst_factor(self, now: float) -> float:
        """Arrival-density multiplier at ``now`` (worst active burst)."""
        windows = self._active(FaultKind.LOAD_BURST, now, None)
        if not windows:
            return 1.0
        return max(s.magnitude for s in windows)

    def load_burst_windows(self) -> List[FaultSpec]:
        """The scheduled ``LOAD_BURST`` windows (for workload shaping).

        Load bursts are a *workload* fault: the injector schedules the
        windows deterministically, and workload generators (see
        :func:`repro.workloads.burst.apply_load_bursts`) densify the
        arrival process inside them.
        """
        return [s for s in self.specs if s.kind is FaultKind.LOAD_BURST]

    # -- introspection -------------------------------------------------------

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.specs:
            out[s.kind.value] = out.get(s.kind.value, 0) + 1
        return out

    def to_dicts(self) -> List[Dict]:
        return [s.to_dict() for s in self.specs]

    @classmethod
    def from_dicts(cls, payloads: Iterable[Dict]) -> "FaultInjector":
        return cls(FaultSpec.from_dict(p) for p in payloads)

    def __repr__(self) -> str:
        return f"FaultInjector({self.counts_by_kind()})"

    # -- schedule generation -------------------------------------------------

    @classmethod
    def random(
        cls,
        horizon_s: float,
        seed: int = 0,
        adapter_ids: Sequence[str] = (),
        engine_ids: Sequence[str] = ("engine-0",),
        swap_fail_rate: float = 0.0,
        swap_slow_rate: float = 0.0,
        kv_pressure_rate: float = 0.0,
        engine_slow_rate: float = 0.0,
        engine_fail_rate: float = 0.0,
        load_burst_rate: float = 0.0,
        scale_stall_rate: float = 0.0,
        partition_rate: float = 0.0,
        heartbeat_loss_rate: float = 0.0,
        host_fail_rate: float = 0.0,
        host_ids: Sequence[str] = (),
        swap_window_s: float = 0.25,
        kv_window_s: float = 1.0,
        straggler_window_s: float = 2.0,
        burst_window_s: float = 2.0,
        stall_window_s: float = 3.0,
        partition_window_s: float = 2.0,
        hb_loss_window_s: float = 1.0,
    ) -> "FaultInjector":
        """Poisson-schedule fault windows over ``[0, horizon_s)``.

        All ``*_rate`` parameters are events per simulated second.  At
        most one ``ENGINE_FAIL`` is drawn per engine (a GPU dies once);
        ``engine_fail_rate`` sets the per-engine probability via
        ``min(1, rate * horizon)``.  ``HOST_FAIL`` works the same way
        per host id.  The gray-failure draws (partition, heartbeat
        loss, host fail) come *after* every legacy draw, so schedules
        generated with the new rates at 0 are byte-identical to what
        older code produced for the same seed.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s}")
        rng = np.random.default_rng(seed)
        specs: List[FaultSpec] = []

        def windows(rate: float, mean_dur: float):
            count = rng.poisson(rate * horizon_s) if rate > 0 else 0
            for _ in range(count):
                start = float(rng.uniform(0.0, horizon_s))
                dur = float(max(rng.exponential(mean_dur), 1e-3))
                yield start, dur

        def pick(pool: Sequence[str]) -> Optional[str]:
            if not pool:
                return None
            return str(pool[int(rng.integers(len(pool)))])

        for start, dur in windows(swap_fail_rate, swap_window_s):
            specs.append(FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, start, dur,
                                   target=pick(adapter_ids)))
        for start, dur in windows(swap_slow_rate, swap_window_s):
            specs.append(FaultSpec(
                FaultKind.ADAPTER_SWAP_SLOW, start, dur,
                magnitude=float(rng.uniform(2.0, 8.0)),
                target=pick(adapter_ids),
            ))
        for start, dur in windows(kv_pressure_rate, kv_window_s):
            specs.append(FaultSpec(
                FaultKind.KV_PRESSURE, start, dur,
                magnitude=float(rng.uniform(0.3, 0.9)),
            ))
        for start, dur in windows(load_burst_rate, burst_window_s):
            specs.append(FaultSpec(
                FaultKind.LOAD_BURST, start, dur,
                magnitude=float(rng.uniform(3.0, 8.0)),
            ))
        for start, dur in windows(scale_stall_rate, stall_window_s):
            # Untargeted: replica ids spawned by an autoscaler do not
            # exist yet when the schedule is drawn.
            specs.append(FaultSpec(
                FaultKind.SCALE_STALL, start, dur,
                magnitude=float(rng.uniform(2.0, 6.0)),
            ))
        for engine_id in engine_ids:
            for start, dur in windows(engine_slow_rate, straggler_window_s):
                specs.append(FaultSpec(
                    FaultKind.ENGINE_SLOW, start, dur,
                    magnitude=float(rng.uniform(1.5, 4.0)),
                    target=engine_id,
                ))
            if engine_fail_rate > 0:
                p = min(engine_fail_rate * horizon_s, 1.0)
                if rng.uniform() < p:
                    specs.append(FaultSpec(
                        FaultKind.ENGINE_FAIL,
                        float(rng.uniform(0.0, horizon_s)),
                        target=engine_id,
                    ))
        # Gray-failure draws: strictly after all legacy draws (see
        # docstring — keeps old seeds byte-identical at zero rates).
        for engine_id in engine_ids:
            for start, dur in windows(partition_rate, partition_window_s):
                specs.append(FaultSpec(FaultKind.NETWORK_PARTITION, start,
                                       dur, target=engine_id))
            for start, dur in windows(heartbeat_loss_rate, hb_loss_window_s):
                specs.append(FaultSpec(FaultKind.HEARTBEAT_LOSS, start, dur,
                                       target=engine_id))
        for host_id in host_ids:
            if host_fail_rate > 0:
                p = min(host_fail_rate * horizon_s, 1.0)
                if rng.uniform() < p:
                    specs.append(FaultSpec(
                        FaultKind.HOST_FAIL,
                        float(rng.uniform(0.0, horizon_s)),
                        target=host_id,
                    ))
        return cls(specs)
