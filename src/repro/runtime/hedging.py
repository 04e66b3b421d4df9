"""Tail-tolerant dispatch: hedged requests and the swap-retry backoff curve.

Interactive vision applications are judged by p99 TTFT, not mean
throughput (§6.1) — and at S-LoRA adapter counts one swap-stalled or
straggling replica drags the tail even when the rest of the fleet is
healthy.  This module supplies two tail-tolerance primitives (Dean &
Barroso, "The Tail at Scale"), built on the cluster's lease-fenced
exactly-once machinery:

* :func:`capped_exponential_backoff` — the backoff curve behind the
  engine's adapter-swap retries;
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
``SWAP_RETRY_BASE_S`` / ``SWAP_RETRY_CAP_S`` (runtime/engine.py), the breaker
cooldown in :class:`~repro.runtime.overload.BreakerConfig`, the drain
timeout in :class:`~repro.runtime.autoscaler.AutoscaleConfig`, the
fixed hedge threshold in ``HedgeConfig.after_s``, and a request's
give-up bound is its own ``Request.deadline_s``.

Everything here is plain simulation state driven by the caller's clock:
deterministic, replayable, and **off by default** — a cluster built
without a :class:`HedgeConfig` is bit-identical to the pre-hedging
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime.metrics import StreamingQuantile

__all__ = [
    "capped_exponential_backoff",
    "HedgeConfig",
    "HedgeTracker",
]


def capped_exponential_backoff(base_s: float, attempt: int,
                               cap_s: float) -> float:
    """Delay before retry number ``attempt`` (1-based): min(base·2^(n-1), cap).

    The curve of the engine's adapter-swap retries (``attempt`` =
    consecutive swap failures).  ``attempt <= 1`` pays the base delay;
    the delay doubles per attempt and saturates at ``cap_s``.
    """
    if base_s < 0 or cap_s < 0:
        raise ValueError("backoff base and cap must be >= 0")
    if base_s == 0.0:
        return 0.0
    return min(base_s * 2.0 ** max(0, attempt - 1), cap_s)


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
