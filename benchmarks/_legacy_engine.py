"""Verbatim snapshot of the seed ``ServingEngine`` (pre-optimization).

This is the engine exactly as it stood before the cost-memoization and
incremental-state overhaul, kept so ``bench_sim_throughput.py`` can
measure the optimized engine against the real seed baseline instead of a
flag-degraded approximation.  Exposed as ``SeedServingEngine``; build one
with ``SystemBuilder.build(system, engine_cls=SeedServingEngine)``.

Do not edit this file when changing the live engine: it is the baseline.
The one exception is :func:`vlora_full_pass`: the seed's V-LoRA
decision, copied here when the live scheduler kept only its
FCFS-ordered single pass, so the baseline still pays the seed's
per-step cost.  It follows the live merge rule, priced through this
engine's own ``ModeExecutor``, so both engines make the same decisions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.kernels.base import LoRAOperator
from repro.models.config import ModelConfig
from repro.models.costs import IterationCostModel
from repro.runtime.adapters import AdapterManager
from repro.runtime.clock import SimClock
from repro.runtime.faults import FaultInjector
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.metrics import MetricsCollector
from repro.runtime.modes import InferenceMode, ModeExecutor
from repro.runtime.request import AbortReason, Request, RequestStatus
from repro.runtime.scheduler import (
    SchedulerDecision,
    SchedulingContext,
    SchedulingPolicy,
    pick_shed_victim,
)
from repro.runtime.switcher import ModeSwitcher


def _fcfs(requests):
    return sorted(requests, key=lambda r: (r.arrival_time, r.request_id))


def vlora_full_pass(candidates, ctx, theta):
    """The seed's Algorithm 1 pass over unordered candidates.

    Writes every candidate's credit, sorts the starve, merge and fill
    sets, and tallies the popular adapter with a fresh ``Counter`` —
    the same decisions as the live ``VLoRAPolicy.schedule`` at the
    seed's per-step cost.
    """
    if not candidates:
        return None
    max_bs = ctx.max_batch_size
    for r in candidates:
        r.credit = (
            r.waiting_time(ctx.now)
            + ctx.est_iteration_seconds
            + ctx.est_switch_seconds
        )
    starve = _fcfs([r for r in candidates if r.credit > theta])
    counts = Counter(r.adapter_id for r in candidates)
    top = min(counts, key=lambda a: (-counts[a], a))
    merge_reqs = _fcfs([r for r in candidates if r.adapter_id == top])
    slots_after_starve = max(0, max_bs - len(starve))

    if len(starve) / max_bs <= 0.5:
        paid = (
            ctx.current_merged == top
            and ctx.current_mode in (InferenceMode.MERGED,
                                     InferenceMode.MIXTURE)
        ) or len(merge_reqs) / max_bs > 0.5
        if starve and paid:
            starve_ids = {r.request_id for r in starve}
            fill = [
                r for r in merge_reqs if r.request_id not in starve_ids
            ][:slots_after_starve]
            return SchedulerDecision(
                batch=(starve + fill)[:max_bs],
                mode=InferenceMode.MIXTURE,
                merged_adapter=top,
            )
        if not starve and (paid or (
                len(merge_reqs) == len(candidates)
                and ctx.unmerged_extra_seconds(top, merge_reqs[:max_bs])
                > ctx.est_switch_seconds)):
            return SchedulerDecision(
                batch=merge_reqs[:max_bs],
                mode=InferenceMode.MERGED,
                merged_adapter=top,
            )
    starve_ids = {r.request_id for r in starve}
    rest = _fcfs([r for r in candidates if r.request_id not in starve_ids])
    batch = (starve + rest)[:max_bs]
    return SchedulerDecision(batch=batch, mode=InferenceMode.UNMERGED)


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs."""

    max_batch_size: int = 32
    num_projections: int = 2
    enable_prefix_reuse: bool = True
    jitter_seed: Optional[int] = 0
    prefix_ttl_s: float = 30.0
    #: Batch prefills of co-arriving requests into one iteration (vLLM
    #: style).  Punica's decode-centric runtime prefills per request.
    batch_prefills: bool = True
    #: Megatron-style tensor parallelism across this many GPUs (the
    #: engine then models one TP *group*, not one GPU).
    tensor_parallel: int = 1
    #: Abort a request once it has been in the system longer than
    #: ``deadline_slo_factor * slo_s`` (requests without an SLO are only
    #: bounded by their own ``deadline_s``).  ``None`` disables.
    deadline_slo_factor: Optional[float] = None
    #: Consecutive KV-starved iterations tolerated before shedding the
    #: lowest-credit waiting request (graceful degradation instead of
    #: the former hard ``RuntimeError``).
    kv_stall_limit: int = 8
    #: Capped exponential backoff for failed adapter swap-ins.
    swap_retry_base_s: float = 0.02
    swap_retry_cap_s: float = 1.0
    #: Swap failures tolerated per adapter before it is quarantined and
    #: its requests aborted (``AbortReason.ADAPTER_UNAVAILABLE``).
    max_swap_retries: int = 5

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        if self.deadline_slo_factor is not None and self.deadline_slo_factor <= 0:
            raise ValueError("deadline_slo_factor must be positive")
        if self.kv_stall_limit < 1:
            raise ValueError("kv_stall_limit must be >= 1")
        if self.swap_retry_base_s <= 0 or self.swap_retry_cap_s <= 0:
            raise ValueError("swap retry backoff times must be positive")
        if self.max_swap_retries < 1:
            raise ValueError("max_swap_retries must be >= 1")


#: The seed's fault-handling knobs.  The config handed in may be the
#: current runtime's ``EngineConfig``, which no longer carries them, so
#: they are always read from the seed defaults.
_SEED_DEFAULTS = EngineConfig()


class SeedServingEngine:
    """One GPU's serving loop over a simulated clock."""

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        operator: LoRAOperator,
        policy: SchedulingPolicy,
        switcher: ModeSwitcher,
        adapter_manager: AdapterManager,
        memory: Optional[UnifiedMemoryManager] = None,
        config: EngineConfig = EngineConfig(),
        fault_injector: Optional[FaultInjector] = None,
        engine_id: str = "engine-0",
    ):
        self.model = model
        self.gpu = gpu
        self.operator = operator
        self.policy = policy
        self.switcher = switcher
        self.adapters = adapter_manager
        self.config = config
        self.memory = memory or UnifiedMemoryManager(
            model, gpu, adapter_slots=adapter_manager.gpu_slots,
            tp_degree=config.tensor_parallel,
        )
        self.kv: PagedKVCache = self.memory.build_kv_cache()
        self.iter_costs = IterationCostModel(
            model, gpu, operator.cost_model,
            tp_degree=config.tensor_parallel,
        )
        self.mode_exec = ModeExecutor(
            model, operator, num_projections=config.num_projections
        )
        self.clock = SimClock()
        self.metrics = MetricsCollector()
        self._rng = (
            np.random.default_rng(config.jitter_seed)
            if config.jitter_seed is not None else None
        )
        self._pending: List[Request] = []     # future arrivals, sorted
        self._active: List[Request] = []      # arrived, not finished
        self._reused_tokens: Dict[int, int] = {}
        self.current_mode = InferenceMode.UNMERGED
        self.current_merged: Optional[str] = None
        self._last_iteration_s = 0.03
        self._switch_estimate: Optional[float] = None
        #: Optional per-iteration tracer (attach_tracer()).
        self.tracer = None
        # -- resilience state (fault injection / graceful degradation) -----
        self.faults = fault_injector
        self.engine_id = engine_id
        self.failed = False
        self.failed_at: Optional[float] = None
        self._kv_stalls = 0
        self._swap_failures: Dict[str, int] = {}
        self._swap_backoff_until: Dict[str, float] = {}
        self._quarantined: set = set()

    # -- submission ---------------------------------------------------------------

    def submit(self, requests: Sequence[Request]) -> None:
        """Queue requests for their arrival times (may be in the future)."""
        for r in requests:
            self.adapters.spec(r.adapter_id)  # validate adapter exists
            self._pending.append(r)
        self._pending.sort(key=lambda r: (r.arrival_time, r.request_id))

    @property
    def num_live(self) -> int:
        return len(self._pending) + len(self._active)

    def attach_tracer(self, tracer=None):
        """Attach (or create) an :class:`EngineTracer`; returns it."""
        from repro.runtime.tracing import EngineTracer

        self.tracer = tracer or EngineTracer()
        return self.tracer

    # -- main loop --------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_iterations: int = 2_000_000) -> MetricsCollector:
        """Run until all submitted work completes (or ``until`` sim-seconds).

        A fault-injected engine failure stops the loop early; the
        cluster layer can then :meth:`drain_orphans` onto survivors.
        """
        for _ in range(max_iterations):
            if self.failed:
                break
            if until is not None and self.clock.now >= until:
                break
            if not self._pending and not self._active:
                break
            self.step()
        else:
            raise RuntimeError(
                f"engine exceeded {max_iterations} iterations "
                f"(sim time {self.clock.now:.1f}s)"
            )
        return self.metrics

    def step(self) -> None:
        """One engine iteration (or a jump to the next arrival)."""
        if self.failed:
            return
        if (self.faults is not None
                and self.faults.engine_failed(self.engine_id, self.clock.now)):
            self._fail()
            return
        self._admit_arrivals()
        self._expire_deadlines()
        self._apply_kv_pressure()
        if not self._active:
            if self._pending:
                self.clock.advance_to(self._pending[0].arrival_time)
                self._admit_arrivals()
                self._expire_deadlines()
            else:
                return
        if not self._active:
            return

        schedulable = self._schedulable()
        if not schedulable:
            self._advance_past_backoff()
            return
        ctx = SchedulingContext(
            now=self.clock.now,
            current_mode=self.current_mode,
            current_merged=self.current_merged,
            max_batch_size=self.config.max_batch_size,
            est_iteration_seconds=self._last_iteration_s,
            est_switch_seconds=self._estimate_switch(),
            adapter_counts={},
            unmerged_extra_seconds=lambda adapter_id, requests: (
                self.mode_exec.unmerged_finish_seconds(
                    self.adapters.spec(adapter_id).rank, requests)),
        )
        decision = vlora_full_pass(schedulable, ctx, self.policy.theta)
        if decision is None:
            return

        mode, merged = decision.mode, decision.merged_adapter
        switch_s = self._apply_mode(mode, merged)
        batch = self._trim_to_adapter_slots(decision.batch, merged)
        batch = self._admit_to_kv(batch)
        if not batch:
            # KV exhausted: let running requests drain by retrying the
            # already-admitted subset next iteration after evicting
            # stale prefixes.
            self.kv.evict_stale_prefixes(
                self.clock.now - _SEED_DEFAULTS.prefix_ttl_s
            )
            batch = [r for r in decision.batch if r.prefilled]
            if not batch:
                # Nothing admitted and nothing running: degrade instead
                # of crashing — flush caches, stall briefly for transient
                # pressure, then shed the lowest-credit waiting request.
                self._handle_kv_starvation(decision.batch)
                return

        batch = self._ensure_decode_capacity(batch)
        if not batch:
            # Not even one decode step fits: same degradation path.
            self._handle_kv_starvation(decision.batch)
            return
        self._kv_stalls = 0

        needed = self._batch_adapters(batch, decision)
        stall, failed_swaps = self.adapters.try_ensure_resident(
            needed, self.clock.now, injector=self.faults
        )
        if stall:
            self.clock.advance(stall)
        for adapter_id in needed:
            if adapter_id not in failed_swaps:
                self._swap_failures.pop(adapter_id, None)
                self._swap_backoff_until.pop(adapter_id, None)
        if failed_swaps:
            batch, mode, merged = self._handle_swap_failures(
                batch, failed_swaps, mode, merged
            )
            if not batch:
                return

        preempt_before = self.metrics.num_preemptions
        start = self.clock.now
        iteration_s = self._execute(batch, mode, merged)
        if self.faults is not None:
            iteration_s *= max(
                1.0, self.faults.engine_slowdown(self.engine_id, start)
            )
        self.clock.advance(iteration_s)
        self._last_iteration_s = iteration_s
        self._finalize(batch)
        self.metrics.iterations += 1
        self.metrics.count_mode(mode.value)
        if self.tracer is not None:
            self._trace(mode, merged, batch, start, iteration_s, switch_s,
                        stall, preempt_before)

    # -- internals ----------------------------------------------------------------------

    def _admit_arrivals(self) -> None:
        now = self.clock.now
        while self._pending and self._pending[0].arrival_time <= now:
            req = self._pending.pop(0)
            if req.adapter_id in self._quarantined:
                req.abort(now, AbortReason.ADAPTER_UNAVAILABLE)
                self.metrics.record_abort(req)
                continue
            self._active.append(req)

    # -- resilience -------------------------------------------------------------------

    def _abort(self, req: Request, reason: AbortReason) -> None:
        """Abort one active request, releasing any KV it holds."""
        if self.kv.has_sequence(req.request_id):
            self.kv.free(req.request_id)
        self._reused_tokens.pop(req.request_id, None)
        req.abort(self.clock.now, reason)
        self._active = [
            r for r in self._active if r.request_id != req.request_id
        ]
        self.metrics.record_abort(req)

    def _effective_deadline(self, req: Request) -> Optional[float]:
        if req.deadline_s is not None:
            return req.deadline_s
        factor = self.config.deadline_slo_factor
        if factor is not None and req.slo_s is not None:
            return factor * req.slo_s
        return None

    def _expire_deadlines(self) -> None:
        now = self.clock.now
        for req in list(self._active):
            deadline = self._effective_deadline(req)
            if deadline is not None and now - req.arrival_time > deadline:
                self._abort(req, AbortReason.DEADLINE_EXCEEDED)

    def _apply_kv_pressure(self) -> None:
        if self.faults is None:
            return
        frac = self.faults.kv_reserved_fraction(self.clock.now)
        self.kv.set_reserved(int(frac * self.kv.num_blocks))

    def _handle_kv_starvation(self, candidates: Sequence[Request]) -> None:
        """Degrade gracefully when no batch fits in the KV cache.

        First flush every cached prefix (emergency eviction), then stall
        up to ``kv_stall_limit`` iterations so transient pressure (fault
        windows, draining requests) can pass; only then shed the
        lowest-credit waiting request.  Each path either advances the
        clock or removes a request, so the engine always makes progress.
        """
        self.kv.evict_stale_prefixes(float("inf"))
        self._kv_stalls += 1
        self.metrics.kv_stall_iters += 1
        if self._kv_stalls <= _SEED_DEFAULTS.kv_stall_limit:
            self.clock.advance(max(self._last_iteration_s, 1e-3))
            return
        self._kv_stalls = 0
        pool = [r for r in self._active if not r.prefilled] or list(self._active)
        victim = pick_shed_victim(pool, self.clock.now)
        if victim is not None:
            self._abort(victim, AbortReason.KV_EXHAUSTED)
            self.metrics.shed_events += 1

    def _handle_swap_failures(self, batch, failed, mode, merged):
        """Backoff/quarantine failed adapters; degrade the batch.

        Requests whose adapter failed to become resident leave the batch
        (their fresh KV allocations are rolled back) and retry after a
        capped exponential backoff; an adapter that keeps failing is
        quarantined and its requests aborted.  When the *merged* target
        itself failed, the surviving batch falls back to UNMERGED mode.
        """
        now = self.clock.now
        for adapter_id in failed:
            count = self._swap_failures.get(adapter_id, 0) + 1
            self._swap_failures[adapter_id] = count
            self.metrics.swap_retries += 1
            if count > _SEED_DEFAULTS.max_swap_retries:
                self._quarantine(adapter_id)
            else:
                backoff = min(
                    _SEED_DEFAULTS.swap_retry_base_s * 2 ** (count - 1),
                    _SEED_DEFAULTS.swap_retry_cap_s,
                )
                self._swap_backoff_until[adapter_id] = now + backoff
        failed_set = set(failed)
        kept = []
        for r in batch:
            if (r.adapter_id in failed_set
                    and not self.adapters.is_resident(r.adapter_id)):
                if not r.prefilled and self.kv.has_sequence(r.request_id):
                    self.kv.free(r.request_id)
                    self._reused_tokens.pop(r.request_id, None)
                continue
            kept.append(r)
        kept = [r for r in kept if not r.is_aborted]
        if merged in failed_set and not self.adapters.is_resident(merged):
            # The merge target never landed: run what remains unmerged.
            mode = InferenceMode.UNMERGED
            merged = None
            self.current_mode = InferenceMode.UNMERGED
            self.current_merged = None
            if kept:
                self.metrics.mode_fallbacks += 1
        return kept, mode, merged

    def _quarantine(self, adapter_id: str) -> None:
        if adapter_id in self._quarantined:
            return
        self._quarantined.add(adapter_id)
        self._swap_backoff_until.pop(adapter_id, None)
        self.metrics.adapters_quarantined += 1
        for r in [r for r in self._active if r.adapter_id == adapter_id]:
            self._abort(r, AbortReason.ADAPTER_UNAVAILABLE)
        still_pending = []
        for r in self._pending:
            if r.adapter_id == adapter_id:
                r.abort(self.clock.now, AbortReason.ADAPTER_UNAVAILABLE)
                self.metrics.record_abort(r)
            else:
                still_pending.append(r)
        self._pending = still_pending

    def _schedulable(self) -> List[Request]:
        """Active requests whose adapter is usable right now.

        A request sits out while its adapter is in swap backoff *and*
        not resident (resident adapters never need the failing swap).
        """
        now = self.clock.now
        if not self._swap_backoff_until:
            return self._active
        out = []
        for r in self._active:
            until = self._swap_backoff_until.get(r.adapter_id, 0.0)
            if until > now and not self.adapters.is_resident(r.adapter_id):
                continue
            out.append(r)
        return out

    def _advance_past_backoff(self) -> None:
        """Nothing schedulable: jump to the next backoff expiry/arrival."""
        horizons = [
            t for t in self._swap_backoff_until.values()
            if t > self.clock.now
        ]
        if self._pending:
            horizons.append(self._pending[0].arrival_time)
        if horizons:
            self.clock.advance_to(min(horizons))
        else:
            self.clock.advance(max(self._last_iteration_s, 1e-3))

    def _fail(self) -> None:
        """The injected GPU failure: stop serving, keep state for drain."""
        self.failed = True
        self.failed_at = self.clock.now
        self.metrics.engine_failures += 1

    def drain_orphans(self) -> List[Request]:
        """Hand over a failed engine's in-flight requests for requeue.

        KV state died with the GPU, so every request rewinds to WAITING
        and will re-prefill on whichever engine adopts it.
        """
        now = self.clock.now
        orphans: List[Request] = []
        for r in self._active:
            if self.kv.has_sequence(r.request_id):
                self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            r.reset_for_requeue(now)
            orphans.append(r)
        for r in self._pending:
            r.reset_for_requeue(now)
            orphans.append(r)
        self._active = []
        self._pending = []
        return orphans

    def _estimate_switch(self) -> float:
        if self._switch_estimate is None:
            any_spec = self.adapters.spec(self.adapters.resident_ids[0])
            self._switch_estimate = self.switcher.merge_seconds(any_spec)
        return self._switch_estimate

    def _apply_mode(self, mode: InferenceMode,
                    merged: Optional[str]) -> float:
        """Transition engine state; returns the switch cost paid."""
        if mode == self.current_mode and merged == self.current_merged:
            return 0.0
        from_spec = (
            self.adapters.spec(self.current_merged)
            if self.current_merged else None
        )
        to_spec = self.adapters.spec(merged) if merged else None
        cost = self.switcher.switch_seconds(
            self.current_mode, mode, from_spec, to_spec
        )
        if cost:
            self.clock.advance(cost)
            self.metrics.num_mode_switches += 1
            self.metrics.switch_time_total += cost
        self.current_mode = mode
        self.current_merged = merged
        return cost

    def _trace(self, mode, merged, batch, start, iteration_s, switch_s,
               swap_stall, preempt_before) -> None:
        from repro.runtime.tracing import IterationEvent

        prefill_tokens = sum(
            max(r.context_len - self._reused_tokens.get(r.request_id, 0), 1)
            for r in batch if r.generated == 1 and r.prefilled
            and r.first_token_time == self.clock.now
        )
        # Requests past their first round contributed one decode token.
        decode_tokens = sum(1 for r in batch if r.generated > 1)
        self.tracer.record(IterationEvent(
            index=self.metrics.iterations - 1,
            start=start,
            duration=iteration_s,
            mode=mode.value,
            merged_adapter=merged,
            batch_size=len(batch),
            prefill_tokens=prefill_tokens,
            decode_tokens=decode_tokens,
            adapters=tuple(sorted({r.adapter_id for r in batch})),
            switch_seconds=switch_s,
            swap_stall_seconds=swap_stall,
            preemptions=self.metrics.num_preemptions - preempt_before,
        ))

    def _admit_to_kv(self, batch: Sequence[Request]) -> List[Request]:
        admitted: List[Request] = []
        for r in batch:
            if r.prefilled:
                admitted.append(r)
                continue
            prefix_key = (
                r.prefix_key if self.config.enable_prefix_reuse else None
            )
            if not self.kv.can_allocate(r.context_len):
                self.kv.evict_stale_prefixes(
                    self.clock.now - _SEED_DEFAULTS.prefix_ttl_s
                )
            if not self.kv.can_allocate(r.context_len):
                continue  # stays waiting; retried next iteration
            # A preempted request re-prefills its prompt plus everything
            # it had already generated (recompute-style restart).
            reused = self.kv.allocate(
                r.request_id, r.context_len,
                prefix_key=prefix_key,
                prefix_tokens=r.prefix_tokens,
                now=self.clock.now,
            )
            self._reused_tokens[r.request_id] = reused
            admitted.append(r)
        return admitted

    def _ensure_decode_capacity(self, batch: Sequence[Request]) -> List[Request]:
        """Guarantee the decode appends of this iteration can allocate.

        When the cache cannot grow every decoding sequence by one token,
        the engine preempts the youngest running requests
        (recompute-style, like vLLM): their blocks are freed and they
        re-prefill later.  Preempted requests stay active and waiting.
        """
        batch = list(batch)
        while True:
            # Every batch member (prefill or decode) appends one token at
            # the end of the iteration; a sequence sitting exactly on a
            # block boundary needs one fresh block for it.
            needed = sum(
                1 for r in batch
                if self.kv.sequence_tokens(r.request_id)
                % self.kv.block_size == 0
            )
            if needed <= self.kv.free_blocks:
                return batch
            victim = self._pick_preemption_victim(batch)
            if victim is not None:
                self._preempt(victim)
                batch = [r for r in batch if r.request_id != victim.request_id]
                continue
            # Last resort: bounce a not-yet-prefilled admission back to
            # the waiting set.
            fresh = [r for r in batch if not r.prefilled]
            if len(batch) > 1 and fresh:
                bounced = fresh[-1]
                self.kv.free(bounced.request_id)
                self._reused_tokens.pop(bounced.request_id, None)
                batch = [r for r in batch if r.request_id != bounced.request_id]
                continue
            # Give up: roll back any fresh prefill allocations so the
            # requests can be re-admitted (or shed) cleanly later.
            for r in fresh:
                if self.kv.has_sequence(r.request_id):
                    self.kv.free(r.request_id)
                    self._reused_tokens.pop(r.request_id, None)
            return batch[:0]

    def _pick_preemption_victim(self, batch: Sequence[Request]):
        """Youngest prefilled request (in-batch last, else any active)."""
        prefilled_batch = [r for r in batch if r.prefilled]
        batch_ids = {r.request_id for r in batch}
        outside = [
            r for r in self._active
            if r.prefilled and r.request_id not in batch_ids
        ]
        pool = outside or prefilled_batch
        if len(pool) <= 1 and pool == prefilled_batch:
            return None  # never preempt the last runnable request
        return max(pool, key=lambda r: (r.arrival_time, r.request_id))

    def _preempt(self, req: Request) -> None:
        self.kv.free(req.request_id)
        self._reused_tokens.pop(req.request_id, None)
        req.prefilled = False
        req.status = RequestStatus.WAITING
        self.metrics.num_preemptions += 1

    def _trim_to_adapter_slots(self, batch: Sequence[Request],
                               merged: Optional[str]) -> List[Request]:
        """Keep at most ``gpu_slots`` distinct adapters in one batch.

        A batch can only execute against GPU-resident adapters; requests
        whose adapter would exceed the slot count stay waiting (their
        turn comes once earlier adapters drain).
        """
        allowed = set([merged] if merged else [])
        budget = self.adapters.gpu_slots
        kept: List[Request] = []
        for r in batch:
            if r.adapter_id not in allowed:
                if len(allowed) >= budget:
                    continue
                allowed.add(r.adapter_id)
            kept.append(r)
        return kept

    def _batch_adapters(self, batch: Sequence[Request],
                        decision) -> List[str]:
        ids = [r.adapter_id for r in batch]
        if decision.merged_adapter:
            ids.append(decision.merged_adapter)
        return list(dict.fromkeys(ids))

    def _execute(self, batch: Sequence[Request], mode: InferenceMode,
                 merged: Optional[str]) -> float:
        """Cost one iteration over ``batch`` and return its latency."""
        prefills = [r for r in batch if not r.prefilled]
        decodes = [r for r in batch if r.prefilled]
        t = 0.0
        adapter_tokens: Dict[str, int] = {}

        if prefills:
            effective = [
                max(r.context_len - self._reused_tokens.get(r.request_id, 0), 1)
                for r in prefills
            ]
            num_images = sum(r.num_images for r in prefills)
            if self.config.batch_prefills:
                t += self.iter_costs.prefill_seconds(effective, num_images)
            else:
                # Per-request prefill: each pays its own iteration.
                for r, tok in zip(prefills, effective):
                    t += self.iter_costs.prefill_seconds([tok], r.num_images)
            for r, tok in zip(prefills, effective):
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + tok
                )

        if decodes:
            contexts = [r.context_len for r in decodes]
            lm = any(not r.use_task_head for r in decodes)
            head_classes = max(
                (self.adapters.spec(r.adapter_id).task_head_classes or 101
                 for r in decodes if r.use_task_head),
                default=0,
            )
            t += self.iter_costs.decode_seconds(
                contexts, lm_head=lm, task_head_classes=head_classes
            )
            for r in decodes:
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + 1
                )

        if adapter_tokens:
            ranks = {
                a: self.adapters.spec(a).rank for a in adapter_tokens
            }
            if merged is not None:
                ranks.setdefault(merged, self.adapters.spec(merged).rank)
            extra = self.mode_exec.extra_seconds(
                mode, adapter_tokens, ranks,
                merged_adapter=merged,
                rng=self._rng,
            )
            t += extra
            self.metrics.lora_extra_time_total += extra
        return t

    def _finalize(self, batch: Sequence[Request]) -> None:
        now = self.clock.now
        finished: List[Request] = []
        for r in batch:
            if not r.prefilled:
                r.prefilled = True
                r.status = RequestStatus.RUNNING
            self.kv.append_token(r.request_id)
            r.generated += 1
            if r.first_token_time is None:
                r.first_token_time = now
            if r.is_finished:
                r.finish_time = now
                r.status = RequestStatus.FINISHED
                finished.append(r)
        for r in finished:
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._active.remove(r)
            self.metrics.complete(r)
