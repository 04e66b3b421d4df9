"""Scheduling policies: Algorithm 1 and the baselines it is compared to.

The orchestrator's greedy heuristic (§4.4.3):

1. run **merged** whenever possible — fastest, zero extra cost;
2. when starvation appears, prefer **mixture** (no merged->unmerged
   switch cost, extra compute only for the minority), then **unmerged**.

Starvation is tracked by a per-request *credit*: waiting time plus the
estimated execution time in the current mode plus the mode-switch
latency; a request whose credit exceeds the tolerance θ is starving.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.runtime.modes import InferenceMode
from repro.runtime.request import Request


@dataclass(slots=True)
class SchedulingContext:
    """What the engine tells the policy about the world.

    The engine's contract with every policy: ``candidates`` arrive in
    FCFS order, ``(arrival_time, request_id)`` ascending — a total
    order, since ids are unique — and ``adapter_counts`` equals
    ``Counter(r.adapter_id for r in candidates)``.  Policies rely on
    both and must treat the counts as read-only.
    """

    now: float
    current_mode: InferenceMode
    current_merged: Optional[str]
    max_batch_size: int
    est_iteration_seconds: float
    est_switch_seconds: float
    adapter_counts: Dict[str, int]


@dataclass(slots=True)
class SchedulerDecision:
    """What to run next."""

    batch: List[Request]
    mode: InferenceMode
    merged_adapter: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.batch:
            raise ValueError("a decision needs a non-empty batch")
        if self.mode in (InferenceMode.MERGED, InferenceMode.MIXTURE):
            if self.merged_adapter is None:
                raise ValueError(f"{self.mode} requires a merged adapter")
        if self.mode is InferenceMode.MERGED:
            foreign = {
                r.adapter_id for r in self.batch
            } - {self.merged_adapter}
            if foreign:
                raise ValueError(
                    f"merged batch contains foreign adapters {sorted(foreign)}"
                )


def pick_shed_victim(pool: Sequence[Request],
                     now: float) -> Optional[Request]:
    """The cheapest request to abort under overload.

    Lowest priority class goes first (overload protection's contract:
    background work is shed before interactive work), then lowest
    credit.  Credit is the anti-starvation currency (§4.4.3): a low
    credit means the request has waited least and loses least progress.
    Policies that do not maintain credits leave it at 0, so ties break
    toward the youngest arrival (shed the newest work first, like
    S-LoRA's early-abort admission control).  With every request at the
    default priority the pick reduces to the legacy credit-keyed one.
    """
    if not pool:
        return None
    return min(pool, key=lambda r: (r.priority, r.credit,
                                    -r.arrival_time, -r.request_id))


class SchedulingPolicy(abc.ABC):
    """Picks the next batch, mode, and merged adapter."""

    name: str = "abstract"

    @abc.abstractmethod
    def schedule(
        self, candidates: Sequence[Request], ctx: SchedulingContext
    ) -> Optional[SchedulerDecision]:
        """Return the next decision, or ``None`` when nothing to run."""

    def refresh_credits(self, requests: Sequence[Request],
                        ctx: SchedulingContext) -> None:
        """Write ``request.credit`` as of ``ctx``.

        :meth:`schedule` never writes credits — it only needs the
        starving prefix — so this is the one place they are set.
        Callers that *read* credits (shed-victim selection) invoke it
        first.  Policies without credits no-op.
        """

    @staticmethod
    def _first_matching(candidates: Sequence[Request], adapter_id: str,
                        limit: int, start: int = 0) -> List[Request]:
        """First ``limit`` requests of one adapter, preserving order."""
        out: List[Request] = []
        if limit <= 0:
            return out
        for i in range(start, len(candidates)):
            r = candidates[i]
            if r.adapter_id == adapter_id:
                out.append(r)
                if len(out) == limit:
                    break
        return out

    @staticmethod
    def _top_adapter(counts: Dict[str, int]) -> Optional[str]:
        """Adapter with the most live requests; ties go to the lowest id."""
        if not counts:
            return None
        return min(counts, key=lambda a: (-counts[a], a))


class VLoRAPolicy(SchedulingPolicy):
    """Algorithm 1: merged when possible, mixture then unmerged on starvation.

    Parameters
    ----------
    theta:
        Starvation tolerance in seconds of credit.
    """

    name = "V-LoRA"

    def __init__(self, theta: float = 0.5):
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        self.theta = theta

    def _credit(self, r, ctx):
        # One float expression shared by the starve bisection and
        # refresh_credits, so both see bit-identical credits.
        return (
            r.waiting_time(ctx.now)
            + ctx.est_iteration_seconds
            + ctx.est_switch_seconds
        )

    def refresh_credits(self, requests, ctx):
        for r in requests:
            r.credit = self._credit(r, ctx)

    def _starve_prefix_len(self, candidates, ctx) -> int:
        """Length of the starving prefix of FCFS-ordered candidates.

        Credit is ``max(0, now - arrival) + const`` — monotone
        non-increasing along FCFS order (floating-point subtraction,
        max, and addition are all monotone) — so ``credit > theta``
        holds on exactly a prefix, found by bisection.
        """
        lo, hi = 0, len(candidates)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._credit(candidates[mid], ctx) > self.theta:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def schedule(self, candidates, ctx):
        """One Algorithm 1 decision in O(log n + batch).

        The starve set is the bisected FCFS prefix, the popular
        adapter's tally comes from ``ctx.adapter_counts``, and every
        batch is assembled by an early-exit scan of the ordered queue.
        """
        if not candidates:
            return None
        max_bs = ctx.max_batch_size
        n = len(candidates)
        num_starve = self._starve_prefix_len(candidates, ctx)
        top = self._top_adapter(ctx.adapter_counts)
        num_merge_total = ctx.adapter_counts.get(top, 0)

        # Principle (1), §4.4.3: merged whenever possible.  When every
        # live request wants the same adapter and nothing starves,
        # merged execution strictly dominates regardless of queue depth
        # (Algorithm 1's |R_merge|/MaxBS > 0.5 test is a hysteresis
        # guard for mixed traffic, not a reason to idle in unmerged
        # mode on single-tenant phases).
        if not num_starve and num_merge_total == n:
            return SchedulerDecision(
                batch=list(candidates[:max_bs]),
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )

        def merged_decision():
            # Line 6-8: pure merged execution of the popular adapter.
            return SchedulerDecision(
                batch=self._first_matching(candidates, top, max_bs),
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )

        def mixture_decision():
            # Line 9-12: starving requests run via deLoRA alongside the
            # merged majority.  Non-starving merge requests all live
            # past the starve prefix, so the fill scan starts there.
            starve = list(candidates[:num_starve])
            fill = self._first_matching(
                candidates, top, max(0, max_bs - num_starve),
                start=num_starve,
            )
            return SchedulerDecision(
                batch=(starve + fill)[:max_bs],
                mode=InferenceMode.MIXTURE,
                merged_adapter=top,
            )

        # Principle (2) hysteresis: while the popular adapter is already
        # merged, leaving merged mode costs an un-merge; stay merged as
        # long as nothing starves, and rescue starving minorities via
        # mixture (whose switch from merged is free) before considering
        # unmerged mode.
        if (ctx.current_merged == top and num_merge_total
                and ctx.current_mode in (InferenceMode.MERGED,
                                         InferenceMode.MIXTURE)):
            if not num_starve:
                return merged_decision()
            if num_starve / max_bs <= 0.5:
                return mixture_decision()

        if (num_starve / max_bs <= 0.5
                and num_merge_total / max_bs > 0.5):
            if not num_starve:
                return merged_decision()
            return mixture_decision()
        # Line 13-15: unmerged — starving prefix first, then FCFS fill,
        # which for ordered candidates is simply the head of the queue.
        return SchedulerDecision(
            batch=list(candidates[:max_bs]),
            mode=InferenceMode.UNMERGED,
        )


class UnmergedOnlyPolicy(SchedulingPolicy):
    """S-LoRA / Punica: FCFS continuous batching, unmerged always."""

    name = "unmerged-only"

    def schedule(self, candidates, ctx):
        if not candidates:
            return None
        return SchedulerDecision(
            batch=list(candidates[: ctx.max_batch_size]),
            mode=InferenceMode.UNMERGED,
        )


class MergedOnlyPolicy(SchedulingPolicy):
    """Merged-only ablation (Fig. 19): serve one adapter at a time.

    Sticks with the current merged adapter while it has work, then moves
    to the adapter with the oldest waiting request (avoids permanent
    starvation but pays small batches and frequent switches).
    """

    name = "merged-only"

    def schedule(self, candidates, ctx):
        if not candidates:
            return None
        if ctx.current_merged in ctx.adapter_counts:
            target = ctx.current_merged
        else:
            # Adapter owning the oldest request goes next.
            target = candidates[0].adapter_id
        return SchedulerDecision(
            batch=self._first_matching(
                candidates, target, ctx.max_batch_size
            ),
            mode=InferenceMode.MERGED,
            merged_adapter=target,
        )


class DLoRAPolicy(SchedulingPolicy):
    """dLoRA-style dynamic merged/unmerged switching (no mixture mode).

    Merges the dominant adapter when its share of pending requests
    exceeds ``merge_share``; falls back to unmerged FCFS otherwise or
    when any request has waited past ``starvation_s``.
    """

    name = "dLoRA"

    def __init__(self, merge_share: float = 0.5, starvation_s: float = 1.0):
        if not 0.0 < merge_share < 1.0:
            raise ValueError(f"merge_share must be in (0,1), got {merge_share}")
        self.merge_share = merge_share
        self.starvation_s = starvation_s

    def schedule(self, candidates, ctx):
        """One dLoRA decision over FCFS-ordered candidates.

        The dominant-adapter share comes from ``ctx.adapter_counts``;
        the starvation probe touches only the oldest foreign request —
        FCFS order makes its waiting time the maximum over all of them,
        so one comparison decides whether any foreigner starves.
        """
        if not candidates:
            return None
        counts = ctx.adapter_counts
        top = self._top_adapter(counts)
        num_top = counts.get(top, 0)
        n = len(candidates)
        share = num_top / n
        others_starving = False
        if num_top < n:
            oldest_other = next(
                r for r in candidates if r.adapter_id != top
            )
            others_starving = (
                oldest_other.waiting_time(ctx.now) > self.starvation_s
            )
        if share > self.merge_share and not others_starving:
            return SchedulerDecision(
                batch=self._first_matching(
                    candidates, top, ctx.max_batch_size
                ),
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )
        return SchedulerDecision(
            batch=list(candidates[: ctx.max_batch_size]),
            mode=InferenceMode.UNMERGED,
        )
