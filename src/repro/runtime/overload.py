"""Overload protection: admission control, circuit breakers, replica health.

PR 1 made the runtime survive injected faults *reactively* (stall, shed,
quarantine, failover).  This module protects the system *before* it is
in trouble, the way production multi-tenant LoRA stacks do (S-LoRA's
early-abort admission control, circuit breakers around flaky
dependencies):

* :class:`AdmissionController` — token-bucket rate limiting plus
  queue-depth / KV-headroom watermarks and SLO-aware early rejection,
  applied the moment a request crosses into the engine's queue
  (``AbortReason.ADMISSION_REJECTED``).  Rejecting at the door is far
  cheaper than aborting after prefill: no KV was allocated, no batch
  slot wasted.
* :class:`AdapterBreaker` — a closed → open → half-open circuit breaker
  per adapter, replacing the engine's permanent quarantine set.  An
  adapter whose swap-ins keep failing is opened (fail fast, abort its
  traffic), then re-probed after a cooldown; a successful probe closes
  the breaker and the adapter serves again.
* :class:`ReplicaHealth` — a per-replica health score (death, EWMA
  iteration slowdown, queue depth) the cluster dispatcher uses to route
  around stragglers and dead replicas.

Every controller is pure simulation state driven by the caller's clock:
deterministic, replayable, and off by default (``None`` config knobs in
:class:`~repro.runtime.engine.EngineConfig` keep the engine bit-identical
to the unprotected runtime).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.runtime.request import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    Request,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionVerdict",
    "BreakerConfig",
    "BreakerState",
    "AdapterBreaker",
    "EwmaSignal",
    "ReplicaHealth",
]

#: Requests below ``PRIORITY_NORMAL`` are turned away at this fraction
#: of the admission queue-depth watermark.
LOW_PRIORITY_DEPTH_FACTOR = 0.5
#: Upper bound on a breaker's escalating cooldown, in seconds.
MAX_BREAKER_COOLDOWN_S = 60.0


# ---------------------------------------------------------------------------
# Smoothed pressure signals
# ---------------------------------------------------------------------------

class EwmaSignal:
    """An exponentially-weighted moving average of a pressure signal.

    The smoothing primitive behind the autoscaler's queue-depth and
    utilization signals: one sample per controller step,
    ``value += alpha * (raw - value)``.  Deterministic and clock-free —
    the caller decides the sampling cadence.
    """

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = 0.0

    def observe(self, raw: float) -> float:
        """Fold one sample in; returns the smoothed value."""
        self.value += self.alpha * (raw - self.value)
        return self.value


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class AdmissionVerdict(enum.Enum):
    """Why the admission controller turned a request away."""

    RATE_LIMITED = "rate_limited"          # token bucket empty
    QUEUE_FULL = "queue_full"              # queue-depth watermark hit
    KV_PRESSURE = "kv_pressure"            # KV headroom below watermark
    DEADLINE_UNMEETABLE = "deadline_unmeetable"  # SLO-aware early reject


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for :class:`AdmissionController` (all checks optional).

    ``rate_tokens_per_s`` meters admission in *tokens* (input + output),
    not requests, so one long generation costs as much as many short
    classifications.  ``burst_tokens`` is the bucket capacity (defaults
    to one second of refill).  ``max_queue_depth`` bounds the live
    request count; requests below ``PRIORITY_NORMAL`` are turned away at
    half of it (``LOW_PRIORITY_DEPTH_FACTOR``) so paid traffic keeps its
    headroom.  ``min_kv_headroom`` rejects arrivals while the free-block
    fraction of the KV cache is below the floor.  ``slo_reject`` aborts
    a deadline-carrying request at admission when the deadline is
    already unmeetable at the current queue depth (a lower bound: every
    ``max_batch_size`` requests ahead of it cost at least one
    iteration).  ``PRIORITY_HIGH`` requests bypass the bucket and
    queue watermarks (never the impossible-deadline check).
    """

    rate_tokens_per_s: Optional[float] = None
    burst_tokens: Optional[float] = None
    max_queue_depth: Optional[int] = None
    min_kv_headroom: Optional[float] = None
    slo_reject: bool = False

    def __post_init__(self) -> None:
        if self.rate_tokens_per_s is not None and self.rate_tokens_per_s <= 0:
            raise ValueError("rate_tokens_per_s must be positive")
        if self.burst_tokens is not None and self.burst_tokens <= 0:
            raise ValueError("burst_tokens must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if (self.min_kv_headroom is not None
                and not 0.0 <= self.min_kv_headroom < 1.0):
            raise ValueError("min_kv_headroom must be in [0, 1)")


class AdmissionController:
    """Stateful gatekeeper evaluated once per arriving request."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        cap = config.burst_tokens
        if cap is None and config.rate_tokens_per_s is not None:
            cap = config.rate_tokens_per_s
        self._bucket_capacity = cap
        self._tokens = cap if cap is not None else 0.0
        self._last_refill = 0.0

    # -- token bucket --------------------------------------------------------

    def _refill(self, now: float) -> None:
        rate = self.config.rate_tokens_per_s
        if rate is None:
            return
        if now > self._last_refill:
            self._tokens = min(
                self._bucket_capacity,
                self._tokens + (now - self._last_refill) * rate,
            )
        self._last_refill = max(self._last_refill, now)

    # -- the decision --------------------------------------------------------

    def evaluate(
        self,
        req: Request,
        now: float,
        *,
        queue_depth: int,
        kv_free_frac: float,
        est_iteration_s: float,
        max_batch_size: int,
        deadline_s: Optional[float] = None,
    ) -> Optional[AdmissionVerdict]:
        """``None`` to admit, or the verdict that rejected ``req``.

        An admitted request is charged against the token bucket in full;
        a rejected one is not (it consumed no capacity).  A request
        larger than the bucket is admitted once the bucket is full, and
        leaves the balance negative until refill repays it.
        """
        cfg = self.config
        self._refill(now)
        exempt = req.priority >= PRIORITY_HIGH
        if not exempt:
            depth_limit = cfg.max_queue_depth
            if depth_limit is not None:
                if req.priority < PRIORITY_NORMAL:
                    depth_limit = max(
                        1, int(depth_limit * LOW_PRIORITY_DEPTH_FACTOR)
                    )
                if queue_depth >= depth_limit:
                    return AdmissionVerdict.QUEUE_FULL
            if (cfg.min_kv_headroom is not None
                    and kv_free_frac < cfg.min_kv_headroom):
                return AdmissionVerdict.KV_PRESSURE
            if (cfg.rate_tokens_per_s is not None
                    and self._tokens < min(req.total_tokens,
                                           self._bucket_capacity)):
                return AdmissionVerdict.RATE_LIMITED
        if cfg.slo_reject and deadline_s is not None:
            # Lower bound on queueing delay: the requests already in the
            # system fill batches of at most ``max_batch_size``, and each
            # batch costs at least one iteration before this arrival can
            # even start.
            rounds_ahead = queue_depth // max(1, max_batch_size)
            wait_floor = rounds_ahead * max(est_iteration_s, 0.0)
            if wait_floor > deadline_s:
                return AdmissionVerdict.DEADLINE_UNMEETABLE
        if cfg.rate_tokens_per_s is not None and not exempt:
            self._tokens -= req.total_tokens
        return None


# ---------------------------------------------------------------------------
# Per-adapter circuit breakers
# ---------------------------------------------------------------------------

class BreakerState(enum.Enum):
    CLOSED = "closed"          # normal service
    OPEN = "open"              # failing fast; traffic aborted
    HALF_OPEN = "half_open"    # cooldown elapsed; probe traffic allowed


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs for :class:`AdapterBreaker`.

    The breaker opens on the swap failure after ``failure_threshold``
    consecutive ones (the engine's legacy quarantine count).
    ``cooldown_s=None`` keeps an opened breaker open forever — exactly
    the old permanent quarantine.  With a cooldown, the breaker
    re-probes (half-open) after ``cooldown_s``, doubling on every
    re-open up to ``MAX_BREAKER_COOLDOWN_S``; a single failed probe
    re-opens, a successful one closes.
    """

    failure_threshold: int = 5
    cooldown_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s is not None and self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")


class AdapterBreaker:
    """Circuit breaker guarding one adapter's swap path."""

    def __init__(self, adapter_id: str, config: BreakerConfig):
        self.adapter_id = adapter_id
        self.config = config
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.open_count = 0

    def _cooldown(self) -> Optional[float]:
        base = self.config.cooldown_s
        if base is None:
            return None
        scaled = base * 2.0 ** max(0, self.open_count - 1)
        return min(scaled, MAX_BREAKER_COOLDOWN_S)

    def _maybe_half_open(self, now: float) -> None:
        if self.state is not BreakerState.OPEN:
            return
        cooldown = self._cooldown()
        if cooldown is None or self.opened_at is None:
            return
        if now >= self.opened_at + cooldown:
            self.state = BreakerState.HALF_OPEN

    def admit_allowed(self, now: float) -> bool:
        """May a new request for this adapter enter the queue?"""
        self._maybe_half_open(now)
        return self.state is not BreakerState.OPEN

    def record_failure(self, now: float) -> bool:
        """Count one swap failure; True when this opened the breaker.

        A half-open probe trips straight back to open; a closed breaker
        opens on the failure after ``failure_threshold`` consecutive
        ones.
        """
        self._maybe_half_open(now)
        self.consecutive_failures += 1
        should_open = (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures > self.config.failure_threshold
        )
        if should_open and self.state is not BreakerState.OPEN:
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.open_count += 1
            return True
        return False

    def record_success(self, now: float) -> bool:
        """Count one swap success; True when this closed the breaker."""
        self._maybe_half_open(now)
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.opened_at = None
            return True
        return False


# ---------------------------------------------------------------------------
# Replica health (cluster dispatch)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaHealth:
    """One replica's health snapshot, scored in [0, 1].

    ``0.0`` means dead (never dispatch).  A live replica's score decays
    with its EWMA iteration slowdown relative to its peers and with its
    queue depth relative to ``queue_norm`` — both symptoms precede
    outright failure, which is the point of routing around them early.
    A ``suspected`` replica (failure detector past ``phi_suspect`` but
    not yet confirmed) keeps a nonzero score — it may well be alive —
    but is heavily discounted so dispatch prefers any unsuspected peer.
    """

    dead: bool
    queue_depth: int
    iter_ewma: Optional[float]
    suspected: bool = False

    def slowdown(self, peer_iter_ewma: Optional[float]) -> float:
        """EWMA iteration time over the peers' (>= 1; 1 when unknown)."""
        if (self.iter_ewma is not None and peer_iter_ewma is not None
                and peer_iter_ewma > 0):
            return max(1.0, self.iter_ewma / peer_iter_ewma)
        return 1.0

    def score(self, peer_iter_ewma: Optional[float],
              queue_norm: int = 64) -> float:
        if self.dead:
            return 0.0
        queue_penalty = 1.0 + self.queue_depth / max(1, queue_norm)
        score = 1.0 / (self.slowdown(peer_iter_ewma) * queue_penalty)
        if self.suspected:
            score *= 0.25
        return score
