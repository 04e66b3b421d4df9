"""Heartbeat failure detection and lease-fenced exactly-once dispatch.

Every robustness layer before this one assumed an omniscient failure
oracle: the cluster routed around a replica the instant its fault
schedule said "dead", so detection was free and exactly-once delivery
was trivial.  Real fleets only observe *heartbeats* — a silent replica
might be dead, partitioned, or merely dropping heartbeats while it
keeps computing — and must trade detection latency against false
suspicion.  False suspicion creates duplicate in-flight work, which is
only safe if stale results can be told apart from live ones.

This module supplies both halves:

* **φ-accrual suspicion** (:class:`PhiAccrualDetector`,
  :class:`FailureDetector`).  Each replica emits heartbeats on the sim
  clock; the detector keeps a sliding window of observed inter-arrival
  times and scores the current silence as

      φ(now) = (now − last_heartbeat) / (mean_interval · ln 10)

  (the exponential-arrival form of Hayashibara et al.'s φ-accrual
  detector: φ = k means the silence is 10^k times the expected gap).
  Crossing ``phi_suspect`` moves a replica ALIVE → SUSPECTED (drained,
  not killed); crossing ``phi_confirm`` moves it to CONFIRMED_DEAD
  (permanent — zombies never rejoin).  Heartbeats that resume while
  only SUSPECTED heal the replica back to ALIVE (a *false suspicion*).
  The cluster delivers heartbeats and evaluates φ once per control
  epoch: 0.25 s, or 0.5 s when an autoscaler is attached
  (:meth:`~repro.runtime.cluster.MultiGPUServer.epoch_s`).

* **Lease fencing** (:class:`Completion`).  Every dispatched request is
  stamped with a fencing token ``(replica_id, lease_epoch)``.  A
  fencing-enabled engine defers terminal *recording* into a completion
  outbox; the cluster accepts an outbox entry only while its token
  still matches the request's current lease.  Confirming a replica
  dead bumps its lease epoch and re-dispatches its work, so any result
  the old replica later delivers (a "zombie" completion from a falsely
  suspected, partitioned replica) is stale by construction: it is
  counted in ``fenced_completions`` and discarded, never
  double-terminating the request.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.metrics import AbortRecord, RequestRecord
    from repro.runtime.request import Request

__all__ = [
    "Completion",
    "FailureDetector",
    "FailureDetectorConfig",
    "PhiAccrualDetector",
    "SuspicionState",
]

#: ln(10): φ is the silence measured in powers of ten of the mean gap.
_LN10 = math.log(10.0)
#: Inter-arrival gaps kept per replica (the sliding window φ is fit on).
HEARTBEAT_WINDOW = 32
#: Observed gaps needed before φ uses their mean; until then the mean
#: is the configured ``heartbeat_interval_s``.
MIN_HEARTBEAT_SAMPLES = 3


class SuspicionState(enum.Enum):
    """The detector's belief about one replica."""

    ALIVE = "alive"                   # heartbeats arriving on schedule
    SUSPECTED = "suspected"           # silent too long; drain, don't kill
    CONFIRMED_DEAD = "confirmed_dead"  # silence past phi_confirm; permanent


@dataclass(frozen=True)
class FailureDetectorConfig:
    """Knobs for :class:`FailureDetector`.

    ``phi_suspect`` / ``phi_confirm`` are the two φ thresholds: with the
    default heartbeat interval of 0.25 s, ``phi_suspect=2`` suspects a
    replica after ~1.2 s of silence and ``phi_confirm=8`` confirms it
    dead after ~4.6 s.  Lower ``phi_confirm`` detects real failures
    faster but confirms transient partitions as dead — their in-flight
    work is re-dispatched and the partitioned replica's late results
    arrive as fenced duplicates (the detection-latency vs duplicate-work
    frontier ``benchmarks/bench_partition.py`` charts).  Heartbeat
    delivery and φ evaluation happen at the cluster's control-epoch
    boundaries (:meth:`~repro.runtime.cluster.MultiGPUServer.epoch_s`).
    φ's mean gap is the cadence until ``MIN_HEARTBEAT_SAMPLES`` gaps
    are observed, then their mean over the last ``HEARTBEAT_WINDOW``.
    """

    heartbeat_interval_s: float = 0.25
    phi_suspect: float = 2.0
    phi_confirm: float = 8.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.phi_suspect <= 0:
            raise ValueError("phi_suspect must be positive")
        if self.phi_confirm <= self.phi_suspect:
            raise ValueError("phi_confirm must be > phi_suspect")


class PhiAccrualDetector:
    """φ-accrual suspicion level for one replica's heartbeat stream."""

    def __init__(self, config: FailureDetectorConfig, registered_at: float):
        self.config = config
        self.last_heartbeat = registered_at
        self._intervals: Deque[float] = deque(maxlen=HEARTBEAT_WINDOW)

    def heartbeat(self, t: float) -> None:
        """Fold one delivered heartbeat in (stale timestamps ignored).

        Heartbeats withheld by a partition are delivered late, on heal,
        with their *original* emission timestamps; delivering them in
        order reconstructs the true inter-arrival history, so a healed
        replica's window is not poisoned by one giant delivery gap.
        """
        if t <= self.last_heartbeat:
            return
        self._intervals.append(t - self.last_heartbeat)
        self.last_heartbeat = t

    def mean_interval(self) -> float:
        """Expected heartbeat gap (configured cadence until warmed up)."""
        if len(self._intervals) < MIN_HEARTBEAT_SAMPLES:
            return self.config.heartbeat_interval_s
        return sum(self._intervals) / len(self._intervals)

    def phi(self, now: float) -> float:
        """Suspicion level of the current silence (0 = heard just now)."""
        silence = now - self.last_heartbeat
        if silence <= 0:
            return 0.0
        return silence / (self.mean_interval() * _LN10)


class FailureDetector:
    """ALIVE / SUSPECTED / CONFIRMED_DEAD state machine over replicas.

    Pure bookkeeping on the sim clock: the cluster registers replicas,
    feeds delivered heartbeats in, and calls :meth:`evaluate` once per
    control epoch to learn which replicas changed state.  CONFIRMED_DEAD
    is sticky — once the cluster has seized a replica's lease, letting
    the old incumbent rejoin would put two writers behind one identity.
    """

    def __init__(self, config: FailureDetectorConfig = FailureDetectorConfig()):
        self.config = config
        self._detectors: Dict[str, PhiAccrualDetector] = {}
        self._states: Dict[str, SuspicionState] = {}

    def register(self, replica_id: str, now: float) -> None:
        """Start watching a replica; its first expected beat is ``now``."""
        if replica_id in self._states:
            raise ValueError(f"replica {replica_id} already registered")
        self._detectors[replica_id] = PhiAccrualDetector(self.config, now)
        self._states[replica_id] = SuspicionState.ALIVE

    def heartbeat(self, replica_id: str, t: float) -> None:
        """Deliver one heartbeat (ignored for confirmed-dead replicas)."""
        if self._states.get(replica_id) is SuspicionState.CONFIRMED_DEAD:
            return
        det = self._detectors.get(replica_id)
        if det is not None:
            det.heartbeat(t)

    def state_of(self, replica_id: str) -> SuspicionState:
        return self._states.get(replica_id, SuspicionState.ALIVE)

    def phi(self, replica_id: str, now: float) -> float:
        det = self._detectors.get(replica_id)
        return 0.0 if det is None else det.phi(now)

    def evaluate(
        self, now: float
    ) -> List[Tuple[str, SuspicionState, SuspicionState]]:
        """Re-score every replica; returns ``(id, old, new)`` transitions.

        Replicas are visited in sorted-id order so the transition list —
        and everything the cluster does with it — is deterministic.
        A replica whose φ blew past both thresholds within one epoch
        reports a single ALIVE → CONFIRMED_DEAD transition.
        """
        transitions: List[Tuple[str, SuspicionState, SuspicionState]] = []
        for rid in sorted(self._states):
            old = self._states[rid]
            if old is SuspicionState.CONFIRMED_DEAD:
                continue
            phi = self._detectors[rid].phi(now)
            if phi >= self.config.phi_confirm:
                new = SuspicionState.CONFIRMED_DEAD
            elif phi >= self.config.phi_suspect:
                new = SuspicionState.SUSPECTED
            else:
                new = SuspicionState.ALIVE
            if new is not old:
                self._states[rid] = new
                transitions.append((rid, old, new))
        return transitions


@dataclass
class Completion:
    """One terminal result awaiting fenced delivery to the cluster.

    The engine snapshots the immutable metrics record at terminal time,
    so the record stays truthful even if the request object is later
    rewound (``reset_for_requeue``) and re-run elsewhere.  ``token`` is
    the fencing token the request carried when this engine worked on
    it; the cluster accepts the completion only while that token still
    equals ``request.lease``.
    """

    request: "Request"
    token: Optional[Tuple[str, int]]
    kind: str  # "finish" | "abort"
    record: "Union[RequestRecord, AbortRecord]" = field(repr=False)
    time: float = 0.0
