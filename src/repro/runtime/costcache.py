"""Memoized per-iteration cost layer (:class:`IterationCostCache`).

The engine prices every iteration through ``modes.py`` -> ``atmm.py`` ->
``cost_model.py`` -> ``models/costs.py``, yet each part of that price is
a pure function of a little batch-shape information.  The cache keeps
two memos and prices an iteration as a few dict probes plus one
closed-form decode step:

* **prefill launch** ``((tokens...), images)`` -> base seconds;
* **extra mean** ``(mode, merged adapter, adapter-token groups)`` -> the
  deterministic mean of the LoRA operator's extra time.

The decode step is priced from its sufficient statistics ``(n, total
context, lm_head, head classes)`` on every lookup, without a memo: the
context total grows by ``n`` each iteration, so a decode key almost
never repeats, and the closed form costs less than the probe and store
it would save.  For the same reason there is no table keyed on the whole
batch.  The steady decode runs that make up most iterations do not call
:meth:`IterationCostCache.lookup` per iteration at all: the engine
prices a run with one lookup and one decode-step function
(:meth:`IterationCostModel.decode_step`).

The engine's other fast paths sit around this cache, and the test
suite's differential oracle (``tests/runtime/test_oracle.py``) checks
them all together:

* steady batches repeat without re-scheduling, within the horizon the
  policy vouches for (:meth:`SchedulingPolicy.repeats`);
* the repeats go as decode runs priced once, and a run ends with the
  first iteration in which a member finishes; the members that finish
  complete inside the run and the smaller batch is re-decided in place,
  so an exit costs no full step;
* steady batches outlive a ``run(until=...)`` call;
* the replicas of a fleet share one cost tower, whose ATMM operator
  memoizes each grouped-GEMM pair price on what the formula reads (the
  two tiling configs, the ranks and the per-group block counts);
* the bypass mean is memoized per ``(token counts, ranks)``
  (``ModeExecutor._mean_memo``);
* a single-round batch (every member a one-token prefill registering
  no prefix, whose full KV path provably fits the free blocks) answers
  without allocating, appending or freeing a KV sequence.

Losslessness
------------
The cache must never change simulated results, only wall-clock time:
the test suite's reference engine, which re-derives every cost through
the tower (``tests/runtime/test_oracle.py``), must end bit-identical.
Three properties make that hold:

* **Decode costs reduce to sufficient statistics.**  Per-request decode
  cost is affine in the context length (attention FLOPs and KV traffic
  are both linear in it) and every intermediate value is an exact
  integer-valued float far below ``2**53``, so ``(batch size, total
  context)`` reproduces :meth:`IterationCostModel.decode_seconds`
  exactly (see :meth:`IterationCostModel.decode_seconds_stats`, which
  evaluates the one decode formula, :meth:`~IterationCostModel.decode_step`).
  Prefill launches are keyed on their exact token tuple in batch order,
  and :meth:`IterationCostCache.lookup` adds the launches, then decode,
  in the order the reference engine does, so float rounding is unchanged.

* **Ranks are per-engine constants.**  An adapter's rank is fixed by its
  id, so the extra-mean key leaves ranks out; they are looked up only on
  a miss.

* **Jitter stays outside the cache.**  The LoRA operator's extra time is
  ``sample(mean, rng)``; only the deterministic mean is memoized
  (:meth:`ModeExecutor.mean_extra_seconds`) and the rng draw happens per
  iteration in the engine, consuming the jitter stream exactly as the
  reference engine does (zero means never sample in either).

Each :meth:`~IterationCostCache.lookup` counts one hit or miss on the
extra-mean memo, written straight into the engine's
:class:`MetricsCollector` (``cost_cache_hits`` / ``cost_cache_misses``);
a decode run of ``k`` iterations adds ``k - 1`` hits to its one lookup,
so ``hits + misses`` equals the iteration count.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.models.costs import IterationCostModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.modes import InferenceMode, ModeExecutor

#: One prefill kernel launch: the exact per-request token counts in
#: batch order plus the images entering with that launch.  Batched
#: prefill emits one launch per iteration; per-request prefill (Punica
#: style) emits one per request.
PrefillLaunch = Tuple[Tuple[int, ...], int]
#: Decode side of one iteration: ``(batch size, total context, lm_head,
#: task-head classes)``.
DecodeStats = Tuple[int, int, bool, int]
#: Flat per-hand-off software cost of a disaggregated KV transfer
#: (launch + transport setup), in seconds.
KV_TRANSFER_OVERHEAD_S = 0.5e-3


class IterationCostCache:
    """Prices one iteration as ``(base_seconds, extra_mean_seconds)``.

    Each memo is cleared wholesale when it reaches ``MAX_ENTRIES`` —
    memoization is an optimization, not state, so dropping it is always
    safe.
    """

    MAX_ENTRIES = 65536

    def __init__(
        self,
        iter_costs: IterationCostModel,
        mode_exec: ModeExecutor,
        rank_of: Callable[[str], int],
        metrics: Optional[MetricsCollector] = None,
    ):
        self.iter_costs = iter_costs
        self.mode_exec = mode_exec
        self.rank_of = rank_of
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._prefill: Dict[PrefillLaunch, float] = {}
        self._extra: Dict[tuple, float] = {}

    def lookup(
        self,
        mode: InferenceMode,
        merged: Optional[str],
        launches: Sequence[PrefillLaunch],
        decode: Optional[DecodeStats],
        groups: Tuple[Tuple[str, int], ...],
    ) -> Tuple[float, float]:
        """Return ``(base_seconds, extra_mean_seconds)`` of one iteration.

        ``groups`` are the adapter token counts in engine insertion
        order (prefills then decodes) — order matters because the ATMM
        config selection keys on the first group's rank.
        """
        # Accumulate in the exact order the reference engine adds costs
        # (each prefill launch, then the decode step) so float addition
        # order — and therefore rounding — is unchanged.
        base = 0.0
        for launch in launches:
            t = self._prefill.get(launch)
            if t is None:
                t = self.iter_costs.prefill_seconds(*launch)
                self._store(self._prefill, launch, t)
            base += t
        if decode is not None:
            n, total_context, lm_head, head_classes = decode
            base += self.iter_costs.decode_seconds_stats(
                n, total_context, lm_head=lm_head,
                task_head_classes=head_classes,
            )
        key = (mode, merged, groups)
        extra_mean = self._extra.get(key)
        if extra_mean is not None:
            self.metrics.cost_cache_hits += 1
            return base, extra_mean
        self.metrics.cost_cache_misses += 1
        extra_mean = 0.0
        if groups:
            ranks = {a: self.rank_of(a) for a, _ in groups}
            if merged is not None and merged not in ranks:
                ranks[merged] = self.rank_of(merged)
            extra_mean = self.mode_exec.mean_extra_seconds(
                mode, dict(groups), ranks, merged_adapter=merged,
            )
        self._store(self._extra, key, extra_mean)
        return base, extra_mean

    def _store(self, memo: dict, key, value: float) -> None:
        if len(memo) >= self.MAX_ENTRIES:
            memo.clear()
        memo[key] = value

    # -- introspection ------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.metrics.cost_cache_hits

    @property
    def misses(self) -> int:
        return self.metrics.cost_cache_misses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TransferCostCache:
    """Memoized KV-transfer pricing for disaggregated hand-offs.

    The cluster's transfer pass prices every prefill→decode hand-off as
    a synchronous move of ``context_len * kv_bytes_per_token`` bytes
    over the replica's :class:`~repro.hardware.memory.TransferModel`
    (the same model that prices adapter swap-ins).  Transfer sizes
    repeat heavily — context lengths cluster around the workload's
    prompt/output distribution — so the wire time is memoized per byte
    count.  Replicas are identical molds of one engine factory, so a
    single table serves the whole fleet.  No wire time is hidden behind
    compute, and every hand-off pays ``KV_TRANSFER_OVERHEAD_S``.
    """

    MAX_ENTRIES = 65536

    def __init__(self):
        self._memo: Dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def seconds(self, transfer, nbytes: int) -> float:
        """Wire seconds for one ``nbytes`` KV move over ``transfer``."""
        t = self._memo.get(nbytes)
        if t is None:
            self.misses += 1
            t = transfer.swap_seconds(
                nbytes, software_overhead_s=KV_TRANSFER_OVERHEAD_S)
            if len(self._memo) >= self.MAX_ENTRIES:
                self._memo.clear()
            self._memo[nbytes] = t
        else:
            self.hits += 1
        return t
