"""Iteration-level discrete-event serving engine.

One :class:`ServingEngine` models one GPU running one LMM with a set of
LoRA adapters.  Like vLLM/LightLLM (§5), scheduling is *iteration-level*:
every iteration the policy re-selects a batch from all live requests
(continuous batching), new requests prefill as they join, and each
running request decodes one token per iteration.

The engine advances a simulated clock by cost-model outputs:

* base-model prefill/decode time (:class:`IterationCostModel`);
* the LoRA operator's extra time for the chosen mode (:class:`ModeExecutor`);
* mode-switch costs (:class:`ModeSwitcher`);
* adapter swap-in stalls (:class:`AdapterManager`);
* KV allocation (with prefix reuse) gates admission.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.kernels.base import JitterStream, LoRAOperator
from repro.models.config import ModelConfig
from repro.models.costs import IterationCostModel
from repro.runtime.adapters import AdapterManager
from repro.runtime.clock import SimClock
from repro.runtime.costcache import IterationCostCache, PrefillLaunch
from repro.runtime.failure_detection import Completion
from repro.runtime.faults import FaultInjector
from repro.runtime.hedging import capped_exponential_backoff
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.metrics import AbortRecord, MetricsCollector, RequestRecord
from repro.runtime.modes import InferenceMode, ModeExecutor
from repro.runtime.overload import (
    AdapterBreaker,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    BreakerState,
    ReplicaHealth,
)
from repro.runtime.request import AbortReason, Request, RequestStatus
from repro.runtime.scheduler import (
    Horizon,
    SchedulerDecision,
    SchedulingContext,
    SchedulingPolicy,
    pick_shed_victim,
)
from repro.runtime.switcher import ModeSwitcher

#: Cached prefixes idle longer than this are evicted when KV runs short.
PREFIX_TTL_S = 30.0
#: Consecutive KV-starved iterations tolerated before shedding the
#: lowest-credit waiting request (graceful degradation instead of a
#: hard ``RuntimeError``).
KV_STALL_LIMIT = 8
#: Prompt tokens (pre-reuse ``context_len``) one iteration may prefill,
#: like LightLLM/S-LoRA's ``batch_max_tokens``: a short request no longer
#: waits for a long video prefill batched beside it.  The first prefill
#: in policy order always runs, however long, so nothing starves and no
#: prompt is chunked.
PREFILL_TOKEN_BUDGET = 1024
#: Capped exponential backoff for failed adapter swap-ins.
SWAP_RETRY_BASE_S = 0.02
SWAP_RETRY_CAP_S = 1.0


def _may_have_expired(expiry: float, now: float) -> bool:
    """Whether a deadline-heap key may have passed at ``now``, with the
    margin :meth:`ServingEngine._expire_deadlines` explains."""
    return expiry <= now + 1e-9 * (1.0 + abs(now))


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs."""

    max_batch_size: int = 32
    num_projections: int = 2
    enable_prefix_reuse: bool = True
    jitter_seed: Optional[int] = 0
    #: Batch an iteration's prefills (up to ``PREFILL_TOKEN_BUDGET``
    #: prompt tokens) into one launch.  Punica's decode-centric runtime
    #: prefills per request.
    batch_prefills: bool = True
    #: Megatron-style tensor parallelism across this many GPUs (the
    #: engine then models one TP *group*, not one GPU).
    tensor_parallel: int = 1
    #: Abort a request once it has been in the system longer than
    #: ``deadline_slo_factor * slo_s`` (requests without an SLO are only
    #: bounded by their own ``deadline_s``).  ``None`` disables.
    deadline_slo_factor: Optional[float] = None
    # -- overload protection (all default off; see runtime/overload.py) ----
    #: Admission control at the queue door: token-bucket rate limiting,
    #: queue-depth / KV-headroom watermarks, SLO-aware early rejection.
    #: ``None`` admits everything (legacy behavior).
    admission: Optional[AdmissionConfig] = None
    #: Circuit-breaker recovery for failing adapters.  ``None`` keeps
    #: the legacy permanent quarantine (a default :class:`BreakerConfig`:
    #: open on the swap failure after 5 consecutive ones, never
    #: half-open; its requests abort with
    #: ``AbortReason.ADAPTER_UNAVAILABLE``).
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        if self.deadline_slo_factor is not None and self.deadline_slo_factor <= 0:
            raise ValueError("deadline_slo_factor must be positive")


class ServingEngine:
    """One GPU's serving loop over a simulated clock."""

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        policy: SchedulingPolicy,
        switcher: ModeSwitcher,
        iter_costs: IterationCostModel,
        mode_exec: ModeExecutor,
        adapter_manager: AdapterManager,
        memory: Optional[UnifiedMemoryManager] = None,
        config: EngineConfig = EngineConfig(),
        fault_injector: Optional[FaultInjector] = None,
        engine_id: str = "engine-0",
    ):
        self.model = model
        self.gpu = gpu
        self.policy = policy
        #: The pure cost tower: ``switcher``, ``iter_costs`` and
        #: ``mode_exec`` hold memos only, never engine state, so the
        #: engines of one fleet may share them
        #: (:meth:`~repro.core.builder.SystemBuilder.engine_factory`).
        self.switcher = switcher
        self.iter_costs = iter_costs
        self.mode_exec = mode_exec
        self.operator: LoRAOperator = mode_exec.operator
        self.adapters = adapter_manager
        self.config = config
        self.memory = memory or UnifiedMemoryManager(
            model, gpu, adapter_slots=adapter_manager.gpu_slots,
            tp_degree=config.tensor_parallel,
        )
        self.kv: PagedKVCache = self.memory.build_kv_cache()
        self.clock = SimClock()
        self.metrics = MetricsCollector()
        #: Operator jitter, the only use of the engine's random stream.
        self._rng = (
            JitterStream(np.random.default_rng(config.jitter_seed))
            if config.jitter_seed is not None else None
        )
        #: Future arrivals as a min-heap of (arrival_time, request_id, req).
        self._pending: List[Tuple[float, int, Request]] = []
        #: Arrived, not finished; dict preserves admission order and
        #: makes membership updates O(1) (the seed's list paid an O(n)
        #: rebuild per abort/finish).
        self._active: Dict[int, Request] = {}
        self._reused_tokens: Dict[int, int] = {}
        # Incrementally maintained view of _active for the scheduler:
        # adapter -> live request count (zero-count keys are dropped so
        # the mapping always equals a fresh Counter over _active).
        self._adapter_counts: Dict[str, int] = {}
        # Admission-order tracking: while every admit key (arrival, id)
        # is non-decreasing, _active iteration order IS FCFS order and
        # step() need not sort the candidates.  Cluster failover
        # requeues (a requeued arrival is stamped by the dead engine's
        # clock) and KV hand-offs admitted after their wire delay can
        # break monotonicity, which flips this flag off until
        # drain_orphans() empties the engine.
        self._active_in_order = True
        self._last_admit_key: Tuple[float, int] = (float("-inf"), -1)
        # Earliest-deadline heap of (arrival + deadline, request_id);
        # entries for departed requests are dropped lazily on pop.
        self._deadline_heap: List[Tuple[float, int]] = []
        self.current_mode = InferenceMode.UNMERGED
        self.current_merged: Optional[str] = None
        self._last_iteration_s = 0.03
        self._switch_estimate: Optional[float] = None
        self._last_ctx: Optional[SchedulingContext] = None
        #: ``(batch, adapters, mode, merged, stands)`` of the last step
        #: when its decision stands until something it reads changes
        #: (see :meth:`run`); ``stands`` is the policy's horizon, or
        #: None when the decision stands for good.
        self._steady: Optional[Tuple[List[Request], List[str],
                                     InferenceMode, Optional[str],
                                     Optional[Horizon]]] = None
        #: Optional per-iteration tracer (attach_tracer()).
        self.tracer = None
        # -- resilience state (fault injection / graceful degradation) -----
        self.faults = fault_injector
        #: The straggler factor as a decode run last read the fault
        #: schedule, which stays unchanged until ``_faults_until``.
        self._slowdown = 1.0
        self._faults_until = float("-inf")
        self.engine_id = engine_id
        #: Failure-domain placement (``HOST_FAIL`` kills every engine on
        #: a host).  Assigned by the cluster; None = no correlated domain.
        self.host: Optional[str] = None
        self.failed = False
        self.failed_at: Optional[float] = None
        # -- lease fencing (runtime/failure_detection.py) ------------------
        #: Bumped by the cluster when it seizes this replica's lease
        #: (confirmed dead); completions stamped with an older epoch are
        #: fenced on delivery.
        self.lease_epoch = 0
        #: With fencing on, terminal metric recording is deferred: the
        #: engine appends a :class:`Completion` here and the cluster
        #: drains it at epoch boundaries (withheld while partitioned).
        self._fencing = False
        self.completion_outbox: List[Completion] = []
        #: Quiesced engines refuse new work (cluster drain; see
        #: :meth:`quiesce`) but keep running what they already hold.
        self.quiesced = False
        self._kv_stalls = 0
        #: Whether the batch :meth:`_admit_to_kv` last admitted takes the
        #: single-round pass (holds no KV; :meth:`_finalize` reads it).
        self._single_round = False
        self._swap_backoff_until: Dict[str, float] = {}
        # Latest backoff expiry ever armed: once the clock passes it,
        # _schedulable skips the per-request backoff filter entirely.
        self._backoff_horizon = float("-inf")
        # -- overload protection (runtime/overload.py) ---------------------
        # Per-adapter circuit breakers, created lazily on first swap
        # failure.  Without an explicit BreakerConfig an opened breaker
        # never half-opens: exactly the legacy permanent quarantine.  A
        # cooldown comes only from an explicit ``BreakerConfig.cooldown_s``.
        self._breaker_config = config.breaker or BreakerConfig()
        self._breakers: Dict[str, AdapterBreaker] = {}
        self._admission = (
            AdmissionController(config.admission)
            if config.admission is not None else None
        )
        #: EWMA of iteration wall time — the cluster's straggler signal.
        self.iter_time_ewma: Optional[float] = None
        # -- memoized cost layer -------------------------------------------
        self.cost_cache = IterationCostCache(
            self.iter_costs, self.mode_exec, self._rank_of,
            metrics=self.metrics)
        self._rank_cache: Dict[str, int] = {}
        self._task_class_cache: Dict[str, int] = {}
        # -- disaggregated serving hooks (runtime/disagg.py) ---------------
        #: Prefill-pool engines park finished prefills here instead of
        #: decoding them; the cluster's KV-transfer pass drains it,
        #: prices the move over the wire, and delivers the request to a
        #: decode replica.  Always empty in colocated serving.
        self.handoff_after_prefill = False
        self.handoff_outbox: List[Request] = []
        #: Decode-pool engines allocate local KV for transferred-in
        #: prefilled requests (their sequence lives on the prefill
        #: replica no more).  Off everywhere else so the colocated
        #: admission hot path is untouched.
        self.accepts_kv_transfers = False

    # -- submission ---------------------------------------------------------------

    def submit(self, requests: Sequence[Request],
               not_before: Optional[float] = None) -> None:
        """Queue requests for their arrival times (may be in the future).

        ``not_before`` floors the admission time without touching
        ``arrival_time`` (which anchors TTFT, latency, and deadline
        accounting): the disaggregated transfer pass delivers a
        handed-off request with ``not_before = now + wire_seconds`` so
        the KV move is charged on the wire while the request's
        end-to-end clock keeps running from its original arrival.
        """
        if self.quiesced and requests:
            raise RuntimeError(
                f"engine {self.engine_id} is quiesced (draining); "
                f"dispatching new work to it is a cluster bug"
            )
        for r in requests:
            self.adapters.spec(r.adapter_id)  # validate adapter exists
            if self._fencing:
                r.lease = (self.engine_id, self.lease_epoch)
            due = (r.arrival_time if not_before is None
                   else max(r.arrival_time, not_before))
            heapq.heappush(
                self._pending, (due, r.request_id, r)
            )

    def enable_fencing(self) -> None:
        """Switch terminal recording to the fenced completion outbox.

        The cluster enables this on every replica when a failure
        detector drives the run: dispatch stamps each request with this
        engine's ``(engine_id, lease_epoch)`` token, and terminal events
        go to :attr:`completion_outbox` instead of directly into
        :attr:`metrics` — the cluster accepts or fences them on
        delivery.  Never enabled for standalone engines (bit-identical
        legacy path).
        """
        self._fencing = True

    @property
    def num_live(self) -> int:
        # Finished prefills awaiting their KV transfer still belong to
        # this engine until the cluster's transfer pass collects them.
        return (len(self._pending) + len(self._active)
                + len(self.handoff_outbox))

    def projected_kv_blocks(self) -> int:
        """KV blocks this engine will hold once its queue is admitted.

        The blocks held now plus the blocks each queued request without
        a KV sequence claims on admission: a delivered hand-off waiting
        out its wire time or for free KV, or a preempted request.  The
        disaggregated transfer pass balances decode replicas on it,
        since blocks held alone read every just-delivered hand-off as
        free space.
        """
        kv = self.kv
        owed = sum(kv.blocks_for(entry[2].context_len)
                   for entry in self._pending)
        owed += sum(kv.blocks_for(r.context_len)
                    for r in self._active.values()
                    if not kv.has_sequence(r.request_id))
        return kv.used_blocks + owed

    # -- drain lifecycle (cluster scale-down) --------------------------------------

    def quiesce(self) -> None:
        """Stop accepting new work; in-flight requests keep running.

        The cluster's scale-down path quiesces a replica before draining
        it: dispatch routes around it, :meth:`submit` rejects stragglers
        (catching dispatch bugs loudly), and once it holds no live work
        (``num_live == 0``) the replica can be retired without losing a
        request.
        """
        self.quiesced = True

    @property
    def pending_requests(self) -> List[Request]:
        """Queued (not yet arrived) requests, in no particular order."""
        return [entry[2] for entry in self._pending]

    def attach_tracer(self, tracer=None):
        """Attach (or create) an :class:`EngineTracer`; returns it."""
        from repro.runtime.tracing import EngineTracer

        self.tracer = tracer or EngineTracer()
        self._steady = None  # traced iterations always step
        return self.tracer

    # -- main loop --------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_iterations: int = 2_000_000) -> MetricsCollector:
        """Run until all submitted work completes (or ``until`` sim-seconds).

        An idle engine stops once its next arrival is due at or after
        ``until``, without serving it.  A fault-injected engine failure
        stops the loop early; the cluster layer can then
        :meth:`drain_orphans` onto survivors.  ``max_iterations`` bounds
        the loop turns plus the extra iterations of decode runs; past
        it, the run raises ``RuntimeError``.

        Each iteration is one :meth:`step`, except that a steady batch
        repeats without re-scheduling.  :meth:`step` marks its batch
        steady, in whatever mode its decision ran, when it paid no
        switch and no swap stall or failure, the batch kept the policy's
        whole decision and the whole active set, no member finished or
        left, no tracer is attached, and
        :meth:`SchedulingPolicy.repeats` vouches that the decision
        stands while only decodes advance, for good or within a horizon.
        The batch then repeats in the decision's mode and merged adapter
        while the horizon holds, no arrival and no deadline is due, the
        fault schedule has not changed since the run began and its
        block-boundary appends fit the free KV blocks; otherwise the
        next iteration is a full :meth:`step`.  Breakers and swap
        backoff need no guard: the batch's own adapters swapped in
        successfully in the step that built it, and another adapter's
        state matters only to an arrival.  The repeats up to and
        including the one in which a member finishes go as one decode
        run (:meth:`_repeat_steady`).
        After that exit the policy re-decides over the smaller batch in
        place, and the batch stays steady when the decision keeps the
        mode, the merged adapter and the whole active set and
        ``repeats`` vouches for it again.  The run is bit-identical to
        calling :meth:`step` in a loop.

        A full step whose batch is single-round (every member an
        unprefilled request with one token left and no prefix to
        register, and the blocks the KV path would take fit the free
        blocks; :meth:`_fits_single_round`) answers it without a KV
        sequence: the allocations, the decode-capacity check, the
        appends and the frees would leave the cache as they found it.
        A batch of task-head requests without a prefix key takes this
        pass whenever the cache has room for it.

        A steady batch outlives the call, so a cluster that runs its
        replicas epoch by epoch (``until=``) keeps repeating it across
        epoch boundaries.  On entry it is kept only while the engine
        has not failed, the batch is still exactly the active set and
        every adapter of the batch is still resident
        (:meth:`~repro.runtime.adapters.AdapterManager.demote` may have
        evicted one between calls).  Work submitted between
        calls is caught by the arrival guard of :meth:`_repeat_steady`.
        """
        if self._steady is not None and not self._steady_holds():
            self._steady = None
        turns = 0
        while turns < max_iterations:
            if self.failed:
                break
            if until is not None and self.clock.now >= until:
                break
            if not self._active:
                if not self._pending:
                    break
                if until is not None and self._pending[0][0] >= until:
                    break
            ran = (0 if self._steady is None
                   else self._repeat_steady(until, max_iterations - turns))
            if not ran:
                self.step()
                ran = 1
            turns += ran
        else:
            raise RuntimeError(
                f"engine exceeded {max_iterations} iterations "
                f"(sim time {self.clock.now:.1f}s)"
            )
        return self.metrics

    def step(self) -> None:
        """One engine iteration (or a jump to the next arrival)."""
        self._steady = None
        if self.failed:
            return
        if (self.faults is not None
                and self.faults.engine_failed(self.engine_id, self.clock.now,
                                              host=self.host)):
            self._fail()
            return
        self._admit_arrivals()
        self._expire_deadlines()
        self._apply_kv_pressure()
        if not self._active:
            if not self._pending:
                return
            # An idle engine jumps to its next arrival, and reads the
            # fault schedule again there: it may have died or come
            # under KV pressure on the way.
            self.clock.advance_to(self._pending[0][0])
            if (self.faults is not None
                    and self.faults.engine_failed(
                        self.engine_id, self.clock.now, host=self.host)):
                self._fail()
                return
            self._apply_kv_pressure()
            self._admit_arrivals()
            self._expire_deadlines()
        if not self._active:
            return

        schedulable = self._schedulable()
        if not schedulable:
            self._advance_past_backoff()
            return
        ctx, decision = self._decide(schedulable)
        if decision is None:
            return

        mode, merged = decision.mode, decision.merged_adapter
        switch_s = self._apply_mode(mode, merged)
        batch = self._fit_batch(decision.batch, merged)
        batch = self._admit_to_kv(batch)
        # A steady batch needs fit and KV admission to keep the whole
        # decision, and the decision to cover the whole active set.
        whole = len(batch) == len(decision.batch) == len(self._active)
        if not batch:
            # Nothing admitted, so no member holds KV (a hand-off on a
            # decode-pool engine waits for its local copy): degrade
            # instead of crashing — flush caches, stall briefly for
            # transient pressure, then shed the lowest-credit waiting
            # request.
            self.kv.evict_stale_prefixes(
                self.clock.now - PREFIX_TTL_S
            )
            self._handle_kv_starvation(decision.batch)
            return

        if not self._single_round:
            batch = self._ensure_decode_capacity(batch)
            if not batch:
                # Not even one decode step fits: same degradation path.
                self._handle_kv_starvation(decision.batch)
                return
        self._kv_stalls = 0

        needed = self._batch_adapters(batch, decision)
        hits = sum(1 for a in needed if self.adapters.is_resident(a))
        stall, failed_swaps = self.adapters.try_ensure_resident(
            needed, self.clock.now, injector=self.faults
        )
        self.metrics.adapter_cache_hits += hits
        misses = len(needed) - hits
        if misses:
            self.metrics.adapter_cache_misses += misses
            self.metrics.swap_ins += misses - len(failed_swaps)
            self.metrics.swap_in_seconds += stall
        if stall:
            self.clock.advance(stall)
        if self._swap_backoff_until or self._breakers:
            for adapter_id in needed:
                if adapter_id not in failed_swaps:
                    self._swap_backoff_until.pop(adapter_id, None)
                    if self._breakers:
                        self._record_swap_success(adapter_id)
        if failed_swaps:
            batch, mode, merged = self._handle_swap_failures(
                batch, failed_swaps, mode, merged
            )
            if not batch:
                return

        preempt_before = self.metrics.num_preemptions
        # The split _execute prices, read before _finalize moves on.
        split = self._split(batch) if self.tracer is not None else None
        start, iteration_s = self._iterate(batch, mode, merged)
        if split is not None:
            self._trace(mode, merged, batch, split, start, iteration_s,
                        switch_s, stall, preempt_before)
        elif (whole and len(batch) == len(decision.batch) == len(self._active)
                and not (switch_s or stall or failed_swaps)):
            horizon = self.policy.repeats(decision, schedulable, ctx)
            if horizon:
                self._steady = (batch, needed, mode, merged,
                                None if horizon is True else horizon)

    def _decide(self, schedulable: List[Request]
                ) -> Tuple[SchedulingContext, Optional[SchedulerDecision]]:
        """The policy's decision over ``schedulable`` at the current
        clock; returns it with the context it was made under.

        The candidates are put in FCFS order and counted per adapter
        first, as the policy contract (:class:`SchedulingContext`)
        asks.
        """
        if not self._active_in_order:
            schedulable.sort(key=lambda r: (r.arrival_time, r.request_id))
        if len(schedulable) == len(self._active):
            counts = self._adapter_counts
        else:
            counts = {}
            for r in schedulable:
                counts[r.adapter_id] = counts.get(r.adapter_id, 0) + 1
        ctx = SchedulingContext(
            now=self.clock.now,
            current_mode=self.current_mode,
            current_merged=self.current_merged,
            max_batch_size=self.config.max_batch_size,
            est_iteration_seconds=self._last_iteration_s,
            est_switch_seconds=self._estimate_switch(),
            adapter_counts=counts,
            unmerged_extra_seconds=self._unmerged_extra_seconds,
        )
        self._last_ctx = ctx
        return ctx, self.policy.schedule(schedulable, ctx)

    def _iterate(self, batch: Sequence[Request], mode: InferenceMode,
                 merged: Optional[str]) -> Tuple[float, float]:
        """Execute ``batch``, advance the clock, finalize and count the
        iteration; returns its ``(start, seconds)``."""
        start = self.clock.now
        iteration_s = self._execute(batch, mode, merged)
        if self.faults is not None:
            iteration_s *= max(
                1.0, self.faults.engine_slowdown(self.engine_id, start)
            )
        self._advance(iteration_s)
        self._finalize(batch)
        self.metrics.iterations += 1
        self.metrics.count_mode(mode.value)
        return start, iteration_s

    def _advance(self, iteration_s: float) -> None:
        """Move the clock past one iteration and fold its length into
        the iteration estimate and the straggler EWMA."""
        self.clock.advance(iteration_s)
        self._last_iteration_s = iteration_s
        if self.iter_time_ewma is None:
            self.iter_time_ewma = iteration_s
        else:
            self.iter_time_ewma += 0.2 * (iteration_s - self.iter_time_ewma)

    def _steady_holds(self) -> bool:
        """Whether the steady batch survived what happened between two
        :meth:`run` calls: see there."""
        batch, adapters = self._steady[:2]
        active = self._active
        return (not self.failed and len(batch) == len(active)
                and all(active.get(r.request_id) is r for r in batch)
                and all(map(self.adapters.is_resident, adapters)))

    def _repeat_steady(self, until: Optional[float], budget: int) -> int:
        """Run the steady batch on, as :meth:`step` would; returns the
        iterations run (at most ``budget``).

        The repeats go as one :meth:`_decode_run`, which stops at
        ``until``, at the next arrival and at the fault schedule's next
        change, and whose last iteration is at the latest the first in
        which a member finishes.  The fault schedule is read as
        :meth:`step` reads it, at the first run after each of its
        changes: a dead engine runs nothing (the next :meth:`step` fails
        it), the KV reservation is brought up to date, and every
        iteration is slowed by the straggler factor.  All three stay
        fixed until the next change.  After an exit the smaller batch is
        re-decided in place (:meth:`_redecide`).
        """
        batch, adapters, mode, merged, stands = self._steady
        now = self.clock.now
        stop = until if until is not None else float("inf")
        if self._pending:
            stop = min(stop, self._pending[0][0])
        faults = self.faults
        if faults is not None:
            if now >= self._faults_until:
                if faults.engine_failed(self.engine_id, now, host=self.host):
                    return 0
                self._apply_kv_pressure()
                self._slowdown = max(
                    1.0, faults.engine_slowdown(self.engine_id, now))
                self._faults_until = faults.next_change(now)
            stop = min(stop, self._faults_until)
        shortest = min(r.output_tokens - r.generated for r in batch)
        ran = self._decode_run(batch, adapters, mode, merged, stands, stop,
                               self._slowdown, min(shortest, budget))
        if len(self._active) != len(batch):
            self._steady = self._redecide()
        return ran

    def _redecide(self):
        """The steady batch after members finished inside a decode run,
        or None.

        The policy decides over the remaining active set as the next
        :meth:`step` would, under a context built the same way
        (:meth:`_decide`).  The decision stays steady when it keeps the
        current mode and merged adapter, covers the whole active set and
        :meth:`SchedulingPolicy.repeats` gives it a horizon.  Otherwise
        the next :meth:`step` decides again, and the same way, since
        :meth:`SchedulingPolicy.schedule` writes no state.  No guard is
        added here: :meth:`_decode_run` checks arrivals, deadlines, the
        fault schedule, the horizon and the KV boundary before the
        decision's first iteration, and :meth:`_steady_holds` the
        residency across :meth:`run` calls.  Unlike :meth:`step`,
        ``repeats`` is asked before the decision's first iteration, not
        after it.
        """
        schedulable = self._schedulable()
        if not schedulable:
            return None
        ctx, decision = self._decide(schedulable)
        if (decision is None or decision.mode is not self.current_mode
                or decision.merged_adapter != self.current_merged
                or len(decision.batch) != len(self._active)):
            return None
        horizon = self.policy.repeats(decision, schedulable, ctx)
        if not horizon:
            return None
        return (decision.batch,
                self._batch_adapters(decision.batch, decision),
                decision.mode, decision.merged_adapter,
                None if horizon is True else horizon)

    def _decode_run(self, batch: Sequence[Request], adapters: List[str],
                    mode: InferenceMode, merged: Optional[str],
                    stands: Optional[Horizon], stop: float, slow: float,
                    limit: int) -> int:
        """Advance a steady all-decode batch by up to ``limit``
        iterations in one call; returns how many ran.

        ``limit`` is at most the shortest member's remaining tokens, so
        no member joins, leaves or finishes before the run's last
        iteration.  One guard runs before every iteration, the first
        included, and ends the run: the clock has reached ``stop``, the
        earliest deadline may have passed (the heap top is fixed for the
        run), the decision's horizon ``stands`` has closed at the clock
        and the last iteration's length, or the iteration's block-
        boundary appends exceed the free blocks the run has left.  A
        sequence of ``c`` tokens fills its last block in iteration ``j``
        when ``(c + j) % block == 0``, the rule of
        :meth:`_boundary_blocks`.

        The run is priced once, when its first iteration is admitted:
        one decode-step function of the total context
        (:meth:`IterationCostModel.decode_step`) and one extra-mean
        lookup in ``(mode, merged)``, counted as a hit for each later
        iteration.  Each iteration then draws its jitter, is slowed by
        ``slow`` and advances the clock, the LoRA extra total and the
        straggler EWMA as :meth:`_iterate` would, as left folds in
        locals written back once.  Request and KV state, the adapters'
        LRU touch (at the start of the last iteration, as the last
        repeat would leave it) and the integer counters are then updated
        once, for all ``k`` iterations.  The members that finished in
        the last iteration complete in batch order, as :meth:`_finalize`
        completes them (:meth:`_complete`).
        """
        block = self.kv.block_size
        due = [0] * block
        for r in batch:
            due[-r.context_len % block] += 1
        heap = self._deadline_heap
        deadline = heap[0][0] if heap else float("inf")
        free = self.kv.free_blocks
        now = self.clock.now
        dt = self._last_iteration_s
        metrics = self.metrics
        k = 0
        while (k < limit and now < stop
               and not _may_have_expired(deadline, now)
               and due[k % block] <= free
               and (stands is None or stands(now, dt))):
            if not k:
                _, (n, total, lm, head_classes), groups, _ = self._split(batch)
                price = self.iter_costs.decode_step(n, lm, head_classes)
                _, mean = self.cost_cache.lookup(mode, merged, (), None,
                                                 tuple(groups.items()))
                sample = self.mode_exec.operator.sample_seconds
                rng = self._rng
                lora_extra = metrics.lora_extra_time_total
                ewma = self.iter_time_ewma  # set: a steady batch has iterated
            start = now
            # Zero means never sample (ModeExecutor.extra_seconds_from_mean).
            extra = sample(mean, rng) if mean != 0.0 else 0.0
            lora_extra += extra
            dt = (price(total) + extra) * slow
            now += dt
            ewma += 0.2 * (dt - ewma)
            free -= due[k % block]
            k += 1
            total += n
        if not k:
            return 0
        self.clock.advance_to(now)
        self._last_iteration_s = dt
        self.iter_time_ewma = ewma
        metrics.lora_extra_time_total = lora_extra
        kv = self.kv
        finished: List[Request] = []
        for r in batch:
            kv.append_token(r.request_id, k)
            r.generated += k
            if r.generated >= r.output_tokens:
                finished.append(r)
        self.adapters.try_ensure_resident(adapters, start)
        metrics.adapter_cache_hits += k * len(adapters)
        metrics.cost_cache_hits += k - 1
        metrics.iterations += k
        counts = metrics.mode_iterations
        counts[mode.value] = counts.get(mode.value, 0) + k
        if finished:
            self._complete(finished, now)
        return k

    # -- internals ----------------------------------------------------------------------

    def _admit_arrivals(self) -> None:
        now = self.clock.now
        while self._pending and self._pending[0][0] <= now:
            _, _, req = heapq.heappop(self._pending)
            if self._breakers and not self._breaker_admits(req.adapter_id, now):
                req.abort(now, AbortReason.ADAPTER_UNAVAILABLE)
                self._record_terminal_abort(req)
                continue
            if self._admission is not None and self._reject_at_door(req, now):
                continue
            key = (req.arrival_time, req.request_id)
            if key < self._last_admit_key:
                self._active_in_order = False
            else:
                self._last_admit_key = key
            self._active[req.request_id] = req
            self._adapter_counts[req.adapter_id] = (
                self._adapter_counts.get(req.adapter_id, 0) + 1
            )
            deadline = self._effective_deadline(req)
            if deadline is not None:
                heapq.heappush(
                    self._deadline_heap,
                    (req.arrival_time + deadline, req.request_id),
                )

    def _drop_active(self, req: Request) -> None:
        """O(1) removal from the active set and its adapter-count view."""
        if self._active.pop(req.request_id, None) is None:
            return
        count = self._adapter_counts.get(req.adapter_id, 0) - 1
        if count > 0:
            self._adapter_counts[req.adapter_id] = count
        else:
            self._adapter_counts.pop(req.adapter_id, None)

    # -- overload protection ------------------------------------------------------

    def _breaker_admits(self, adapter_id: str, now: float) -> bool:
        """Gate one arrival through the adapter's circuit breaker."""
        breaker = self._breakers.get(adapter_id)
        if breaker is None:
            return True
        was_open = breaker.state is BreakerState.OPEN
        allowed = breaker.admit_allowed(now)
        if was_open and breaker.state is BreakerState.HALF_OPEN:
            self.metrics.breaker_half_opens += 1
        return allowed

    def _record_swap_success(self, adapter_id: str) -> None:
        breaker = self._breakers.get(adapter_id)
        if breaker is not None and breaker.record_success(self.clock.now):
            self.metrics.breaker_closes += 1

    def _reject_at_door(self, req: Request, now: float) -> bool:
        """Apply admission control to one arrival; True when rejected.

        Rejection happens before the request ever enters the active set:
        no KV, no batch slot, no credit accrual — the cheapest possible
        way to lose a request that was going to miss anyway.
        """
        verdict = self._admission.evaluate(
            req, now,
            queue_depth=len(self._active),
            kv_free_frac=self.kv.free_blocks / self.kv.num_blocks,
            est_iteration_s=self._last_iteration_s,
            max_batch_size=self.config.max_batch_size,
            deadline_s=self._effective_deadline(req),
        )
        if verdict is None:
            return False
        req.abort(now, AbortReason.ADMISSION_REJECTED)
        self._record_terminal_abort(req)
        self.metrics.admission_rejections += 1
        return True

    # -- resilience -------------------------------------------------------------------

    def _abort(self, req: Request, reason: AbortReason) -> None:
        """Abort one active request, releasing any KV it holds."""
        if self.kv.has_sequence(req.request_id):
            self.kv.free(req.request_id)
        self._reused_tokens.pop(req.request_id, None)
        req.abort(self.clock.now, reason)
        self._drop_active(req)
        self._record_terminal_abort(req)

    def _record_terminal_abort(self, req: Request) -> None:
        """Record one abort — directly, or deferred through the outbox.

        All terminal recording funnels through here and
        :meth:`_record_terminal_finish`, so that lease fencing covers
        every way a request can end on this engine, not just the happy
        path.
        """
        if self._fencing:
            self.completion_outbox.append(Completion(
                request=req, token=req.lease, kind="abort",
                record=AbortRecord.from_request(req), time=self.clock.now,
            ))
        else:
            self.metrics.record_abort(req)

    def _effective_deadline(self, req: Request) -> Optional[float]:
        if req.deadline_s is not None:
            return req.deadline_s
        factor = self.config.deadline_slo_factor
        if factor is not None and req.slo_s is not None:
            return factor * req.slo_s
        return None

    def _expire_deadlines(self) -> None:
        """Abort requests past their deadline, without scanning _active.

        The earliest-deadline heap is a watermark: when its top is in the
        future, nothing can have expired and the whole check is O(1) —
        the seed scanned every active request every step.  Heap keys are
        ``arrival + deadline``, which can round one ulp away from the
        authoritative ``now - arrival > deadline`` predicate, so pops use
        a generous margin and re-check the exact predicate; non-expired
        near-boundary entries are pushed back.
        """
        now = self.clock.now
        heap = self._deadline_heap
        pushback: List[Tuple[float, int]] = []
        while heap and _may_have_expired(heap[0][0], now):
            expiry, rid = heapq.heappop(heap)
            req = self._active.get(rid)
            if req is None:
                continue  # finished/aborted/drained; stale entry
            deadline = self._effective_deadline(req)
            if deadline is None:
                continue
            if now - req.arrival_time > deadline:
                self._abort(req, AbortReason.DEADLINE_EXCEEDED)
            else:
                pushback.append((expiry, rid))
        for item in pushback:
            heapq.heappush(heap, item)

    def _apply_kv_pressure(self) -> None:
        if self.faults is None:
            return
        frac = self.faults.kv_reserved_fraction(self.clock.now)
        self.kv.set_reserved(int(frac * self.kv.num_blocks))

    def _handle_kv_starvation(self, candidates: Sequence[Request]) -> None:
        """Degrade gracefully when no batch fits in the KV cache.

        First flush every cached prefix (emergency eviction), then stall
        up to ``KV_STALL_LIMIT`` iterations so transient pressure (fault
        windows, draining requests) can pass; only then shed the
        lowest-credit waiting request.  Each path either advances the
        clock or removes a request, so the engine always makes progress.
        """
        self.kv.evict_stale_prefixes(float("inf"))
        self._kv_stalls += 1
        self.metrics.kv_stall_iters += 1
        if self._kv_stalls <= KV_STALL_LIMIT:
            self.clock.advance(max(self._last_iteration_s, 1e-3))
            return
        self._kv_stalls = 0
        active = self._active.values()
        pool = [r for r in active if not r.prefilled] or list(active)
        # Policies write credits only on request: bring the pool's up
        # to this step's scheduling context before the credit-keyed
        # victim pick.
        if self._last_ctx is not None:
            self.policy.refresh_credits(pool, self._last_ctx)
        victim = pick_shed_victim(pool, self.clock.now)
        if victim is not None:
            self._abort(victim, AbortReason.KV_EXHAUSTED)
            self.metrics.shed_events += 1

    def _handle_swap_failures(self, batch, failed, mode, merged):
        """Backoff/quarantine failed adapters; degrade the batch.

        Requests whose adapter failed to become resident leave the batch
        (their fresh KV allocations are rolled back) and retry after a
        capped exponential backoff; an adapter that keeps failing trips
        its circuit breaker (open: traffic aborted, then optionally
        half-open probes after a cooldown — see runtime/overload.py).
        When the *merged* target itself failed, the surviving batch
        falls back to UNMERGED mode.
        """
        now = self.clock.now
        for adapter_id in failed:
            breaker = self._breakers.get(adapter_id)
            if breaker is None:
                breaker = AdapterBreaker(adapter_id, self._breaker_config)
                self._breakers[adapter_id] = breaker
            self.metrics.swap_retries += 1
            if breaker.record_failure(now):
                self._open_breaker(adapter_id)
            else:
                backoff = capped_exponential_backoff(
                    SWAP_RETRY_BASE_S, breaker.consecutive_failures,
                    SWAP_RETRY_CAP_S)
                self._swap_backoff_until[adapter_id] = now + backoff
                if now + backoff > self._backoff_horizon:
                    self._backoff_horizon = now + backoff
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

    def _open_breaker(self, adapter_id: str) -> None:
        """The adapter's breaker just opened: fail its traffic fast.

        Equivalent to the legacy quarantine (``adapters_quarantined``
        keeps counting open events), except an open breaker can
        half-open after its cooldown and serve again.  Requests that
        have not arrived yet stay queued: ``_breaker_admits`` gates each
        one when it arrives (aborting it while the breaker is open; the
        first arrival after a cooldown is the probe).
        """
        self._swap_backoff_until.pop(adapter_id, None)
        self.metrics.adapters_quarantined += 1
        self.metrics.breaker_opens += 1
        victims = [
            r for r in self._active.values() if r.adapter_id == adapter_id
        ]
        for r in victims:
            self._abort(r, AbortReason.ADAPTER_UNAVAILABLE)

    def _schedulable(self) -> List[Request]:
        """Active requests whose adapter is usable right now.

        A request sits out while its adapter is in swap backoff *and*
        not resident (resident adapters never need the failing swap).
        """
        now = self.clock.now
        # The horizon check makes expired-but-unpruned backoff entries
        # free: once the clock passes the latest expiry ever armed the
        # filter below cannot drop anything.
        if not self._swap_backoff_until or self._backoff_horizon <= now:
            return list(self._active.values())
        out = []
        for r in self._active.values():
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
            horizons.append(self._pending[0][0])
        if horizons:
            self.clock.advance_to(min(horizons))
        else:
            self.clock.advance(max(self._last_iteration_s, 1e-3))

    def _fail(self) -> None:
        """The injected GPU failure: stop serving, keep state for drain."""
        self.failed = True
        self.failed_at = self.clock.now
        self.metrics.engine_failures += 1

    def drain_orphans(self, count_hop: bool = True) -> List[Request]:
        """Hand over this engine's in-flight requests for requeue.

        KV state died with the GPU, so every request rewinds to WAITING
        and will re-prefill on whichever engine adopts it.  Failover
        passes ``count_hop=True`` (the default): each orphan burns one
        unit of its ``max_requeues`` failover budget.  The cluster's
        voluntary drain-timeout path passes ``count_hop=False`` — the
        host did not fail, so re-homing charges ``drain_hops`` instead.
        """
        now = self.clock.now
        orphans: List[Request] = []
        for r in self._active.values():
            if self.kv.has_sequence(r.request_id):
                self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            r.reset_for_requeue(now, count_hop=count_hop)
            orphans.append(r)
        for entry in self._pending:
            r = entry[2]
            r.reset_for_requeue(now, count_hop=count_hop)
            orphans.append(r)
        for r in self.handoff_outbox:
            # A finished prefill the cluster never collected: its KV
            # died with this GPU, so it re-prefills wherever it lands.
            r.reset_for_requeue(now, count_hop=count_hop)
            orphans.append(r)
        self._active = {}
        self._pending = []
        self.handoff_outbox = []
        self._adapter_counts = {}
        self._deadline_heap = []
        self._active_in_order = True
        self._last_admit_key = (float("-inf"), -1)
        return orphans

    def health_snapshot(self):
        """This replica's :class:`~repro.runtime.overload.ReplicaHealth`.

        Death counts both an observed failure (``failed``) and a fault
        schedule that has already killed the engine at its current clock
        (a pre-start ``ENGINE_FAIL``): dispatching to either loses the
        request until failover requeues it.
        """
        dead = self.failed or (
            self.faults is not None
            and self.faults.engine_failed(self.engine_id, self.clock.now,
                                          host=self.host)
        )
        return ReplicaHealth(
            dead=dead,
            queue_depth=self.num_live,
            iter_ewma=self.iter_time_ewma,
        )

    def _estimate_switch(self) -> float:
        if self._switch_estimate is None:
            any_spec = self.adapters.spec(self.adapters.resident_ids[0])
            self._switch_estimate = self.switcher.merge_seconds(any_spec)
        return self._switch_estimate

    def _unmerged_extra_seconds(self, adapter_id: str,
                                requests: Sequence[Request]) -> float:
        # A prefill-pool engine hands each request off after its
        # prefill, so the decode rounds are never its work to price.
        return self.mode_exec.unmerged_finish_seconds(
            self._rank_of(adapter_id), requests,
            decode=not self.handoff_after_prefill)

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

    def _trace(self, mode, merged, batch, split, start, iteration_s,
               switch_s, swap_stall, preempt_before) -> None:
        from repro.runtime.tracing import IterationEvent

        launches, _, _, decodes = split
        self.tracer.record(IterationEvent(
            index=self.metrics.iterations - 1,
            start=start,
            duration=iteration_s,
            mode=mode.value,
            merged_adapter=merged,
            batch_size=len(batch),
            prefill_tokens=sum(sum(tokens) for tokens, _ in launches),
            decode_tokens=len(decodes),
            adapters=tuple(sorted({r.adapter_id for r in batch})),
            switch_seconds=switch_s,
            swap_stall_seconds=swap_stall,
            preemptions=self.metrics.num_preemptions - preempt_before,
        ))

    def _admit_to_kv(self, batch: Sequence[Request]) -> List[Request]:
        """The batch members that hold KV, allocating it where missing.

        A fresh prefill allocates its prompt, plus everything it had
        already generated after a preemption (recompute-style restart),
        and may reuse a cached prefix.  A hand-off transferred in to a
        decode-pool engine left its KV on the prefill replica, so a
        local copy is seeded at its full context with no prefix key
        (the bytes just crossed the wire; the cluster already charged
        the move) and reuses nothing.  A sequence that does not fit,
        even after evicting stale prefixes, stays waiting and is
        retried next iteration.

        A batch that :meth:`_fits_single_round` allocates nothing: every
        member would allocate, append one token and free its sequence
        within this iteration, which leaves the cache as it found it.
        """
        self._single_round = self._fits_single_round(batch)
        if self._single_round:
            return list(batch)
        kv = self.kv
        now = self.clock.now
        admitted: List[Request] = []
        for r in batch:
            if r.prefilled:
                if (not self.accepts_kv_transfers
                        or kv.has_sequence(r.request_id)):
                    admitted.append(r)
                    continue
                prefix_key = None
            else:
                prefix_key = (
                    r.prefix_key if self.config.enable_prefix_reuse else None
                )
            if not kv.can_allocate(r.context_len):
                kv.evict_stale_prefixes(now - PREFIX_TTL_S)
                if not kv.can_allocate(r.context_len):
                    continue
            self._reused_tokens[r.request_id] = kv.allocate(
                r.request_id, r.context_len, prefix_key=prefix_key,
                prefix_tokens=r.prefix_tokens, now=now,
            )
            admitted.append(r)
        return admitted

    def _fits_single_round(self, batch: Sequence[Request]) -> bool:
        """Whether every member of ``batch`` answers in this iteration
        and the full KV path provably admits the whole batch.

        Every member is unprefilled with one token left (a task-head
        request, or a preempted one re-prefilling its last token) and
        registers no prefix, and the blocks the full path would take fit
        the free blocks: ``context_len // block + 1`` per member, which
        is its prompt's blocks plus the fresh block a block-boundary
        append needs.  On the full path every sequential
        ``can_allocate`` of :meth:`_admit_to_kv` would pass (so no stale
        prefix is evicted), :meth:`_ensure_decode_capacity` would
        preempt and bounce nothing, and :meth:`_finalize` would free
        every member's sequence again.
        """
        reuse = self.config.enable_prefix_reuse
        block = self.kv.block_size
        need = 0  # context_len inlined: this runs on every full step
        for r in batch:
            if (r.prefilled or r.output_tokens - r.generated != 1
                    or (reuse and r.prefix_key is not None)):
                return False
            need += (r.input_tokens + r.generated) // block + 1
        return need <= self.kv.free_blocks

    def _ensure_decode_capacity(self, batch: Sequence[Request]) -> List[Request]:
        """Guarantee the decode appends of this iteration can allocate.

        When the cache cannot grow every decoding sequence by one token,
        the engine preempts the youngest running requests
        (recompute-style, like vLLM): their blocks are freed and they
        re-prefill later.  Preempted requests stay active and waiting.
        """
        batch = list(batch)
        while True:
            if self._boundary_blocks(batch) <= self.kv.free_blocks:
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

    def _boundary_blocks(self, batch: Sequence[Request]) -> int:
        """Fresh KV blocks this iteration's appends need.

        Every batch member (prefill or decode) appends one token at the
        end of the iteration; a sequence sitting exactly on a block
        boundary needs one fresh block for it.  A batch member's KV
        sequence always holds exactly ``context_len`` tokens (allocate()
        seeds it there, append_token() tracks ``generated``), so no
        per-request cache lookups are needed.
        """
        block = self.kv.block_size
        return sum(1 for r in batch if r.context_len % block == 0)

    def _pick_preemption_victim(self, batch: Sequence[Request]):
        """Youngest prefilled request holding KV (in-batch last, else
        any active; a hand-off transferred in to a decode-pool engine
        holds none until it is admitted)."""
        prefilled_batch = [r for r in batch if r.prefilled]
        batch_ids = {r.request_id for r in batch}
        outside = [
            r for r in self._active.values()
            if r.prefilled and r.request_id not in batch_ids
            and self.kv.has_sequence(r.request_id)
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

    def _fit_batch(self, batch: Sequence[Request],
                   merged: Optional[str]) -> List[Request]:
        """Trim the policy's batch to what one iteration can run.

        In policy order: at most ``gpu_slots`` distinct adapters (a batch
        executes only against GPU-resident adapters), and prefills whose
        summed ``context_len`` fits ``PREFILL_TOKEN_BUDGET`` (the first
        prefill always runs; a later, smaller one may backfill).
        Decoding requests are exempt from the token budget.  Trimmed
        requests stay waiting and hold no KV; their turn comes in a
        later iteration.
        """
        allowed = set([merged] if merged else [])
        slots = self.adapters.gpu_slots
        prefill_tokens = 0
        kept: List[Request] = []
        for r in batch:
            tokens = prefill_tokens
            if not r.prefilled:
                tokens += r.context_len
                if prefill_tokens and tokens > PREFILL_TOKEN_BUDGET:
                    continue
            if r.adapter_id not in allowed:
                if len(allowed) >= slots:
                    continue
                allowed.add(r.adapter_id)
            prefill_tokens = tokens
            kept.append(r)
        return kept

    def _batch_adapters(self, batch: Sequence[Request],
                        decision) -> List[str]:
        ids = [r.adapter_id for r in batch]
        if decision.merged_adapter:
            ids.append(decision.merged_adapter)
        return list(dict.fromkeys(ids))

    def _rank_of(self, adapter_id: str) -> int:
        rank = self._rank_cache.get(adapter_id)
        if rank is None:
            rank = self.adapters.spec(adapter_id).rank
            self._rank_cache[adapter_id] = rank
        return rank

    def _task_classes_of(self, adapter_id: str) -> int:
        classes = self._task_class_cache.get(adapter_id)
        if classes is None:
            classes = self.adapters.spec(adapter_id).task_head_classes or 101
            self._task_class_cache[adapter_id] = classes
        return classes

    def _split(self, batch: Sequence[Request]):
        """The iteration's prefill/decode split, as it is priced.

        Returns ``(launches, decode, groups, decodes)``:

        * ``launches`` -- one ``((tokens...), images)`` per prefill
          kernel launch: the whole iteration's prefills batched into
          one, or one per request without ``batch_prefills`` (Punica).
          A prefill's tokens are its prompt after prefix reuse, floored
          at 1 (a fully reused prompt still pays one positional launch);
        * ``decode`` -- ``(n, total context, lm_head, head classes)`` of
          the decoding requests, or ``None`` without any;
        * ``groups`` -- per-adapter token counts in prefill-then-decode
          order, the insertion order the extra-mean memo and ATMM's
          config selection key on;
        * ``decodes`` -- the decoding requests themselves.

        One walk over the batch.  The prefills' groups and the decodes'
        are kept apart and joined after it, which keeps the
        prefill-then-decode insertion order.  The reuse map is probed
        only while it holds an entry: without one, every prompt is its
        ``context_len``, at least ``input_tokens`` and so at least 1.
        """
        reused = self._reused_tokens
        prefills: List[Request] = []
        prompt: List[int] = []
        images = 0
        decodes: List[Request] = []
        groups: Dict[str, int] = {}
        decode_groups: Dict[str, int] = {}
        total_context = 0
        lm = False
        head_classes = 0
        for r in batch:
            adapter_id = r.adapter_id
            # context_len inlined: this runs on every full step.
            if r.prefilled:
                decodes.append(r)
                total_context += r.input_tokens + r.generated
                decode_groups[adapter_id] = (
                    decode_groups.get(adapter_id, 0) + 1)
                if r.use_task_head:
                    classes = self._task_classes_of(adapter_id)
                    if classes > head_classes:
                        head_classes = classes
                else:
                    lm = True
                continue
            tok = r.input_tokens + r.generated
            if reused:
                tok = max(tok - reused.get(r.request_id, 0), 1)
            prefills.append(r)
            prompt.append(tok)
            images += r.num_images
            groups[adapter_id] = groups.get(adapter_id, 0) + tok
        launches: Tuple[PrefillLaunch, ...] = ()
        if prefills:
            if self.config.batch_prefills:
                launches = ((tuple(prompt), images),)
            else:
                launches = tuple(
                    ((tok,), r.num_images) for r, tok in zip(prefills, prompt)
                )
        decode = None
        if decodes:
            for adapter_id, count in decode_groups.items():
                groups[adapter_id] = groups.get(adapter_id, 0) + count
            decode = (len(decodes), total_context, lm, head_classes)
        return launches, decode, groups, decodes

    def _execute(self, batch: Sequence[Request], mode: InferenceMode,
                 merged: Optional[str]) -> float:
        """Cost one iteration over ``batch`` and return its latency.

        The cost cache prices the one :meth:`_split` as ``(base cost,
        extra-cost mean)``, adding each prefill launch, then the decode
        step, from memos and a closed form; only the LoRA operator's
        jitter sample runs per iteration.  The test suite's reference
        engine re-derives every cost through the model tower instead and
        must end bit-identical (``tests/runtime/test_oracle.py``).
        """
        launches, decode, groups, _ = self._split(batch)
        base, extra_mean = self.cost_cache.lookup(
            mode, merged, launches, decode, tuple(groups.items()),
        )
        if not groups:
            return base
        extra = self.mode_exec.extra_seconds_from_mean(extra_mean, self._rng)
        self.metrics.lora_extra_time_total += extra
        return base + extra

    def _complete(self, finished: Sequence[Request], now: float) -> None:
        """Finish ``finished`` at ``now``, in order: release its KV, then
        record every terminal in one call."""
        for r in finished:
            r.finish_time = now
            r.status = RequestStatus.FINISHED
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
        self._record_terminal_finish(finished, now)

    def _record_terminal_finish(self, finished: Sequence[Request],
                                now: float) -> None:
        """Record a batch's finishes in order, with one
        :meth:`MetricsCollector.complete` call — directly, or deferred
        through the outbox (see :meth:`_record_terminal_abort`)."""
        if self._fencing:
            self.completion_outbox.extend(
                Completion(request=r, token=r.lease, kind="finish",
                           record=RequestRecord.from_request(r), time=now)
                for r in finished)
        else:
            self.metrics.complete(*finished)

    def _finalize(self, batch: Sequence[Request]) -> None:
        now = self.clock.now
        if self._single_round:
            # Every member answers its one token now and holds no KV
            # (_admit_to_kv).  A preempted request keeps the first-token
            # time of its first prefill.
            for r in batch:
                r.prefilled = True
                r.generated += 1
                if r.first_token_time is None:
                    r.first_token_time = now
                r.finish_time = now
                r.status = RequestStatus.FINISHED
                self._drop_active(r)
            self._record_terminal_finish(batch, now)
            return
        finished: List[Request] = []
        handoffs: List[Request] = []
        for r in batch:
            # Every member appends one token: a prefill its first, a
            # decode its next.
            prefill = not r.prefilled
            if prefill:
                r.prefilled = True
                r.status = RequestStatus.RUNNING
            self.kv.append_token(r.request_id)
            r.generated += 1
            if r.first_token_time is None:
                r.first_token_time = now
            if r.is_finished:
                finished.append(r)
            elif prefill and self.handoff_after_prefill:
                handoffs.append(r)
        if finished:
            self._complete(finished, now)
        for r in handoffs:
            # Disaggregated prefill pool: the request's KV leaves with
            # it over the wire.  The local copy is released here; the
            # cluster's transfer pass prices the move and re-homes the
            # request on a decode replica.
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            self.handoff_outbox.append(r)
