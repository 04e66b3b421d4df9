"""Tail-tolerant dispatch: hedged requests, retry budgets, backoff curve.

Interactive vision applications are judged by p99 TTFT, not mean
throughput (§6.1) — and at S-LoRA adapter counts one swap-stalled or
straggling replica drags the tail even when the rest of the fleet is
healthy.  This module supplies the three classic tail-tolerance
primitives (Dean & Barroso, "The Tail at Scale"; Google SRE's retry
budgets), built on PR 6's lease-fenced exactly-once machinery:

* :func:`capped_exponential_backoff` — the one shared backoff curve
  behind the engine's swap retries and the cluster's failover requeues
  (previously duplicated ad hoc at both call sites);
* :class:`RetryBudget` — a per-priority-class token bucket that gates
  *every* speculative or repeated dispatch (hedges, swap retries,
  failover requeues) so correlated failures degrade to single-shot
  dispatch instead of amplifying load into a retry storm;
* :class:`HedgeConfig` / :class:`HedgeTracker` — percentile-tracked
  hedge thresholds: when a request's time in flight crosses the
  observed p95 (configurable) of recent completions in its priority
  class, the cluster dispatches a second copy to a different healthy
  replica; first completion wins and the loser is fenced
  (``hedge_losses``), never double-terminating the request.
  ``HedgeConfig.after_s`` replaces the tracked threshold with a fixed
  one.  The cluster looks for stuck requests once per control epoch
  (0.25 s unless an autoscaler is attached;
  :meth:`~repro.runtime.cluster.MultiGPUServer.epoch_s`).

Each timeout has exactly one home.  Swap retry backoff lives in
:class:`~repro.runtime.engine.EngineConfig`, failover-requeue backoff
in :class:`~repro.runtime.cluster.MultiGPUServer`'s kwargs, the breaker
cooldown in :class:`~repro.runtime.overload.BreakerConfig`, the drain
timeout in :class:`~repro.runtime.autoscaler.AutoscaleConfig`, the
fixed hedge threshold in ``HedgeConfig.after_s``, and a request's
give-up bound is its own ``Request.deadline_s``.

Everything here is plain simulation state driven by the caller's clock:
deterministic, replayable, and **off by default** — a cluster built
without a :class:`HedgeConfig` or :class:`RetryBudget` is bit-identical
to the pre-hedging runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime.metrics import StreamingQuantile

__all__ = [
    "capped_exponential_backoff",
    "RetryBudgetConfig",
    "RetryBudget",
    "HedgeConfig",
    "HedgeTracker",
]


def capped_exponential_backoff(base_s: float, attempt: int,
                               cap_s: float) -> float:
    """Delay before retry number ``attempt`` (1-based): min(base·2^(n-1), cap).

    The single backoff curve shared by the engine's adapter-swap retries
    (``attempt`` = consecutive swap failures) and the cluster's failover
    requeues (``attempt`` = requeue count).  ``attempt <= 1`` pays the
    base delay; the delay doubles per attempt and saturates at ``cap_s``.
    """
    if base_s < 0 or cap_s < 0:
        raise ValueError("backoff base and cap must be >= 0")
    if base_s == 0.0:
        return 0.0
    return min(base_s * 2.0 ** max(0, attempt - 1), cap_s)


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Knobs for :class:`RetryBudget`.

    ``ratio`` is the classic SRE rule ("retries may add at most 10% to
    traffic"): every first-time dispatch earns its priority class
    ``ratio`` tokens, every speculative or repeated dispatch (hedge,
    swap retry, failover requeue) spends one.  ``burst`` caps how many
    tokens a class can bank, so a long quiet period cannot fund an
    unbounded storm later; ``initial`` seeds each bucket so early
    failures are not starved before traffic has accrued credit.
    """

    ratio: float = 0.1
    burst: float = 20.0
    initial: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if not 0.0 <= self.initial <= self.burst:
            raise ValueError(
                f"initial must be in [0, burst], got {self.initial}"
            )


class RetryBudget:
    """Per-priority-class token bucket gating retries and hedges.

    One shared instance sits between the cluster and every replica
    engine, so *all* redundant work — hedged copies, swap retries,
    failover requeues — draws down the same budget.  Under isolated
    failures the bucket stays topped up and every retry is allowed;
    under correlated failure (mass requeue, every adapter failing) the
    bucket drains and the runtime degrades to single-shot dispatch
    instead of amplifying the overload.  ``exhausted`` counts denials
    (surfaced as the ``retry_budget_exhausted`` metric).
    """

    def __init__(self, config: Optional[RetryBudgetConfig] = None):
        self.config = config or RetryBudgetConfig()
        self._tokens: Dict[int, float] = {}
        self.exhausted = 0
        self.spent = 0

    def _bucket(self, priority: int) -> float:
        return self._tokens.setdefault(priority, self.config.initial)

    def tokens(self, priority: int) -> float:
        """Current balance of the class's bucket (for tests/benches)."""
        return self._bucket(priority)

    def deposit(self, priority: int) -> None:
        """Credit one first-time dispatch in ``priority``'s class."""
        self._tokens[priority] = min(
            self._bucket(priority) + self.config.ratio, self.config.burst
        )

    def try_spend(self, priority: int) -> bool:
        """Spend one token for a retry/hedge; False when exhausted."""
        balance = self._bucket(priority)
        if balance >= 1.0:
            self._tokens[priority] = balance - 1.0
            self.spent += 1
            return True
        self.exhausted += 1
        return False


@dataclass(frozen=True)
class HedgeConfig:
    """Knobs for cluster-level hedged dispatch.

    A request whose time in flight exceeds its priority class's
    ``percentile`` of recently observed completion latencies (window of
    ``window`` samples, armed only after ``min_observations``) is
    speculatively re-dispatched to a different healthy replica — at most
    once per request.  ``after_s``, when set, is a fixed threshold that
    bypasses the tracker: any request in flight longer than it is
    hedged.  The cluster looks for stuck requests once per control
    epoch (:meth:`~repro.runtime.cluster.MultiGPUServer.epoch_s`).
    """

    percentile: float = 95.0
    min_observations: int = 16
    window: int = 256
    after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile < 100.0:
            raise ValueError(
                f"percentile must be in (0, 100), got {self.percentile}"
            )
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if self.window < self.min_observations:
            raise ValueError("window must be >= min_observations")
        if self.after_s is not None and self.after_s <= 0:
            raise ValueError(f"after_s must be positive, got {self.after_s}")


class HedgeTracker:
    """Percentile-tracked hedge thresholds per priority class.

    Observes every accepted completion's end-to-end latency through a
    sliding-window :class:`~repro.runtime.metrics.StreamingQuantile`;
    :meth:`threshold` answers "how long is suspiciously long for this
    class right now?".  ``None`` until enough completions were seen —
    hedging stays disarmed while the system knows nothing (unless
    ``HedgeConfig.after_s`` fixes the threshold).
    """

    def __init__(self, config: HedgeConfig):
        self.config = config
        self._quantiles: Dict[int, StreamingQuantile] = {}

    def observe(self, priority: int, latency_s: float) -> None:
        q = self._quantiles.get(priority)
        if q is None:
            q = StreamingQuantile(window=self.config.window)
            self._quantiles[priority] = q
        q.observe(latency_s)

    def threshold(self, priority: int) -> Optional[float]:
        if self.config.after_s is not None:
            return self.config.after_s
        q = self._quantiles.get(priority)
        if q is None or len(q) < self.config.min_observations:
            return None
        return q.quantile(self.config.percentile)
