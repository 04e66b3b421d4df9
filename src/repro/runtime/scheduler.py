"""Scheduling policies: Algorithm 1 and the baselines it is compared to.

The orchestrator's greedy heuristic (§4.4.3):

1. run **merged** whenever possible — fastest, zero extra cost;
2. when starvation appears, prefer **mixture** (no merged->unmerged
   switch cost, extra compute only for the minority), then **unmerged**.

"Whenever possible" is read as "whenever the merge pays for itself":
with at most half a batch starving, V-LoRA merges the popular adapter
when it is already merged (free), when it holds more than half a batch
(Algorithm 1 as printed), or when it is the only tenant and its queued
work would pay more LoRA extra unmerged than the merge costs.  Anything
else runs unmerged, so interleaved tenants never re-merge per
iteration.  Once the merge is paid for, the slots the popular adapter
leaves free carry other adapters' requests through deLoRA (mixture),
starving or not, so a minority request never waits out θ behind a
half-empty merged batch.

Starvation is tracked by a per-request *credit*: waiting time plus the
estimated execution time in the current mode plus the mode-switch
latency; a request whose credit exceeds the tolerance θ is starving.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

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

    ``unmerged_extra_seconds(adapter_id, requests)`` prices, without
    jitter, the LoRA extra that ``requests`` (all of ``adapter_id``)
    would pay to finish in unmerged mode: one prefill of their
    unprefilled prompts plus their longest remaining decode.  A
    disaggregated prefill replica prices the prefill alone, since it
    hands the decode off.
    """

    now: float
    current_mode: InferenceMode
    current_merged: Optional[str]
    max_batch_size: int
    est_iteration_seconds: float
    est_switch_seconds: float
    adapter_counts: Dict[str, int]
    unmerged_extra_seconds: Callable[[str, Sequence[Request]], float]


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


#: ``stands(now, est_iteration_seconds)``: whether a decision still
#: stands at a later clock and iteration estimate (see
#: :meth:`SchedulingPolicy.repeats`).
Horizon = Callable[[float, float], bool]


class SchedulingPolicy(abc.ABC):
    """Picks the next batch, mode, and merged adapter.

    :meth:`repeats` lets the engine skip re-scheduling a decision that
    cannot change: ``ServingEngine.run`` repeats a steady decode batch
    until a guard trips (an arrival or deadline comes due, the batch's
    KV appends no longer fit, a member finishes, or the decision's
    horizon closes) and only then calls :meth:`schedule` again.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def schedule(
        self, candidates: Sequence[Request], ctx: SchedulingContext
    ) -> Optional[SchedulerDecision]:
        """Return the next decision, or ``None`` when nothing to run."""

    def repeats(self, decision: SchedulerDecision,
                candidates: Sequence[Request],
                ctx: SchedulingContext) -> Union[bool, Horizon]:
        """How long ``decision`` stands while only decodes advance.

        ``decision`` is what :meth:`schedule` returned for ``candidates``
        under ``ctx``, and the engine now runs in its mode and merged
        adapter.  A later :meth:`schedule` over the same candidates,
        with the candidates only decoding and none finishing, must then
        return the same batch in the same order, the same mode and the
        same merged adapter:

        * ``True``: whatever ``ctx.now`` and
          ``ctx.est_iteration_seconds`` become;
        * a :data:`Horizon` ``stands``: at every later ``(now,
          est_iteration_seconds)`` for which ``stands`` returns True
          (``ctx``'s other fields stay as they are);
        * falsy, the default, is always safe: the engine then
          re-schedules every iteration.
        """
        return False

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
                        limit: int) -> List[Request]:
        """First ``limit`` requests of one adapter, preserving order."""
        out: List[Request] = []
        if limit <= 0:
            return out
        for r in candidates:
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

    @staticmethod
    def _credit_at(r, now, est_iteration, est_switch):
        # One float expression shared by the starve bisection,
        # refresh_credits and the horizons of repeats(), so all three
        # see bit-identical credits.
        return r.waiting_time(now) + est_iteration + est_switch

    def _credit(self, r, ctx):
        return self._credit_at(r, ctx.now, ctx.est_iteration_seconds,
                               ctx.est_switch_seconds)

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

    @staticmethod
    def _paid_merge(candidates, max_bs, num_starve, top, num_top):
        """The batch and mode once the merge of ``top`` is paid for.

        The starving prefix rides first, then ``top``'s requests in
        FCFS order, then any slots still free go FCFS to the other
        non-starving candidates.  Foreigners run via deLoRA beside the
        merged adapter (Line 9-12), so the batch runs MERGED only when
        nothing starves and no foreigner rides.

        ``num_top`` (``top``'s exact count) says how many of its
        requests lie past the prefix, so the scan from ``num_starve``
        caps foreigners at the room ``top`` leaves and stops once it
        holds both.  When ``top`` fills the room it stops where the
        ``_first_matching`` scan it replaces did; otherwise that scan
        read the whole queue.  So it is never longer, and it reads
        nothing past the last request it takes unless the batch comes
        out short of ``max_bs``.
        """
        prefix = candidates[:num_starve]
        room = max_bs - num_starve
        want_top = min(room,
                       num_top - sum(r.adapter_id == top for r in prefix))
        want_foreign = room - want_top
        tops: List[Request] = []
        foreign: List[Request] = []
        for i in range(num_starve, len(candidates)):
            if len(tops) == want_top and len(foreign) == want_foreign:
                break
            r = candidates[i]
            if r.adapter_id == top:
                tops.append(r)
            elif len(foreign) < want_foreign:
                foreign.append(r)
        mixture = bool(num_starve or foreign)
        return SchedulerDecision(
            batch=list(prefix) + tops + foreign,
            mode=InferenceMode.MIXTURE if mixture else InferenceMode.MERGED,
            merged_adapter=top,
        )

    def schedule(self, candidates, ctx):
        """One Algorithm 1 decision in O(log n + scan).

        The starve set is the bisected FCFS prefix, the popular
        adapter's tally comes from ``ctx.adapter_counts``, and every
        batch is assembled by an early-exit scan of the ordered queue:
        the head of the queue when unmerged, and otherwise
        :meth:`_paid_merge`'s scan, which stops at the last request it
        takes unless the batch comes out short of ``max_bs``.
        """
        if not candidates:
            return None
        max_bs = ctx.max_batch_size
        n = len(candidates)
        num_starve = self._starve_prefix_len(candidates, ctx)
        top = self._top_adapter(ctx.adapter_counts)
        num_merge_total = ctx.adapter_counts.get(top, 0)

        if num_starve / max_bs <= 0.5:
            # The merge is already paid for when (a) the popular adapter
            # is folded in, so keeping it is free, or (b) it holds more
            # than half a batch (Algorithm 1 as printed).
            if (
                ctx.current_merged == top
                and ctx.current_mode in (InferenceMode.MERGED,
                                         InferenceMode.MIXTURE)
            ) or num_merge_total / max_bs > 0.5:
                return self._paid_merge(candidates, max_bs, num_starve,
                                        top, num_merge_total)
            # (c) A lone tenant merges when nothing starves and its
            # queued work would pay more LoRA extra unmerged than the
            # merge costs.  It has no foreigners to fill with.
            if (not num_starve and num_merge_total == n
                    and ctx.unmerged_extra_seconds(top, candidates[:max_bs])
                    > ctx.est_switch_seconds):
                # Line 6-8: pure merged execution of the popular adapter.
                return SchedulerDecision(
                    batch=list(candidates[:max_bs]),
                    mode=InferenceMode.MERGED,
                    merged_adapter=top,
                )
        # Line 13-15: unmerged — starving prefix first, then FCFS fill,
        # which for ordered candidates is simply the head of the queue.
        return SchedulerDecision(
            batch=list(candidates[:max_bs]),
            mode=InferenceMode.UNMERGED,
        )

    def repeats(self, decision, candidates, ctx):
        """The horizon of ``decision``: while its starving prefix holds.

        On a repeat the engine runs ``(decision.mode, top)``, so clause
        (a) holds for a MERGED or MIXTURE decision, and
        :meth:`_paid_merge` returns it again exactly while the starving
        prefix length ``s`` is unchanged: ``candidates[s-1]`` still
        starves and ``candidates[s]`` still does not.  (A lone tenant's
        clause-(c) merge is the same batch as its paid merge.)

        Running UNMERGED keeps (a) shut, and every UNMERGED branch runs
        the head of the queue, so an UNMERGED decision stands while no
        merge clause can open.  More than half a batch starving shuts
        them all while ``candidates[half]`` still starves.  Otherwise a
        popular adapter holding at most half a batch keeps (b) shut for
        good, and (c) stays shut for good when two adapters are live,
        or when the lone tenant's unmerged price is already within the
        merge: that price only falls as decodes advance.  A lone tenant
        priced above the merge keeps (c) shut while ``candidates[0]``
        still starves.

        Starvation is re-read with :meth:`_credit_at`, the expression
        :meth:`schedule` bisects on, since ``est_iteration_seconds``
        may fall between iterations and end a starvation.
        """
        max_bs = ctx.max_batch_size
        half = max_bs // 2
        theta = self.theta
        est_switch = ctx.est_switch_seconds
        credit = self._credit_at

        def starves(r, now, est_iteration):
            return credit(r, now, est_iteration, est_switch) > theta

        s = self._starve_prefix_len(candidates, ctx)
        if decision.mode is not InferenceMode.UNMERGED:
            last = candidates[s - 1] if s else None
            first = candidates[s] if s < len(candidates) else None

            def stands(now, est_iteration):
                return ((last is None or starves(last, now, est_iteration))
                        and (first is None
                             or not starves(first, now, est_iteration)))
            return stands
        if s > half:
            pivot = candidates[half]
        else:
            counts = ctx.adapter_counts
            top = self._top_adapter(counts)
            if counts[top] / max_bs > 0.5:
                return False
            if (len(counts) > 1
                    or ctx.unmerged_extra_seconds(top, candidates[:max_bs])
                    <= est_switch):
                return True
            pivot = candidates[0]
        return lambda now, est_iteration: starves(pivot, now, est_iteration)


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

    def repeats(self, decision, candidates, ctx):
        return True


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
