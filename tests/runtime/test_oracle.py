"""One differential oracle for every fast path of the serving engine.

The engine reaches its simulated results through fast paths that must
leave those results bit for bit unchanged: the iteration cost cache,
steady batches that repeat within their decision's horizon, decode runs
that end with a member's exit and re-decide the smaller batch in place,
steady batches that outlive a ``run()`` call, the cost tower the
replicas of a fleet share, with ATMM's pair price memoized on its tile
block counts, and the single-round pass, which answers a batch of
one-token prefills that provably fits without a KV sequence.
``ReferenceEngine`` takes none of them:

* its ``_execute`` and ``_finalize`` are the historical monolithic
  bodies, recovered from git history, so every iteration is priced
  through the cost-model tower without the iteration cost cache
  (``_finalize`` also hands a prefill-pool engine's finished prefills
  off: the one deliberate extension);
* its ``_admit_to_kv`` is the engine's body from before the
  single-round pass, so every member allocates, appends and frees its
  KV sequence;
* its policy has no ``repeats``, so it re-schedules every iteration and
  never reaches ``_repeat_steady`` or ``_decode_run``;
* it prices each LoRA bypass straight from ``operator.layer_seconds``,
  with no ``_mean_memo``;
* each of its replicas is one ``SystemBuilder.build()`` with its own
  cost tower, where an optimized fleet shares one through
  ``SystemBuilder.engine_factory``.

One hypothesis strategy, :func:`scenarios`, draws the system, the
workload (task heads or LM head), adapter ranks, the fleet and engine
features, the fault menu and seed, how ``run(until=...)`` is chunked
and when a tracer attaches.  Faults, breakers and swap backoff take
the fast paths too; only a tracer keeps an engine off them.  The
property: the optimized system and the reference leave the same
:func:`digest`, and every request either finishes with its whole
answer or does not finish.  The cost-cache counters stay
out of it (the reference never looks a cost up), but the optimized side
must count one hit or miss per iteration.  A new fast path stays out of
``ReferenceEngine`` and brings an ``@example`` for each guard it adds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import SystemBuilder
from repro.models.config import QWEN_VL_7B
from repro.models.lora import LoRAAdapterSpec
from repro.runtime import (
    AdapterPlacement,
    AutoscaleConfig,
    Autoscaler,
    DisaggConfig,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    HedgeConfig,
    MultiGPUServer,
    PlacementConfig,
)
from repro.runtime.engine import PREFIX_TTL_S, ServingEngine
from repro.runtime.failure_detection import Completion
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.metrics import RequestRecord
from repro.runtime.modes import InferenceMode, ModeExecutor
from repro.runtime.overload import (
    AdmissionConfig,
    BreakerConfig,
)
from repro.runtime.request import Request, RequestStatus
from repro.runtime.scheduler import SchedulingPolicy


# -- the reference ------------------------------------------------------------


class Rescheduling(SchedulingPolicy):
    """A policy without :meth:`~SchedulingPolicy.repeats`: the engine
    re-schedules it every iteration, like a loop of ``step()`` calls."""

    def __init__(self, base):
        self.base = base
        self.name = base.name

    def schedule(self, candidates, ctx):
        return self.base.schedule(candidates, ctx)

    def refresh_credits(self, requests, ctx):
        self.base.refresh_credits(requests, ctx)


class LayerSecondsModes(ModeExecutor):
    """Prices every bypass straight from the operator, with no memo."""

    def _bypass_seconds(self, token_counts: tuple, ranks: tuple) -> float:
        return self.operator.layer_seconds(
            list(token_counts), list(ranks), self.model.hidden_dim,
            num_projections=self.num_projections,
        ) * self.model.num_layers


class ReferenceEngine(ServingEngine):
    """The historical engine: one body per concern, no fast path.

    ``_execute`` is copied verbatim from the last monolithic revision
    of ``repro/runtime/engine.py``, and so is ``_finalize`` but for one
    deliberate extension: the disaggregated hand-off of a prefill-pool
    engine (``handoff_after_prefill``), so that pool engines are checked
    against an independent body too.  ``_admit_to_kv`` is copied
    verbatim from the revision before the single-round pass.  Do not
    "clean them up": their value is being the historical reference.
    """

    def __init__(self, *, policy, mode_exec, **parts):
        super().__init__(
            policy=Rescheduling(policy),
            mode_exec=LayerSecondsModes(
                mode_exec.model, mode_exec.operator,
                num_projections=mode_exec.num_projections),
            **parts)

    def _execute(self, batch: Sequence[Request],
                 mode: InferenceMode,
                 merged: Optional[str]) -> float:
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

    def _admit_to_kv(self, batch: Sequence[Request]) -> List[Request]:
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

    def _finalize(self, batch: Sequence[Request]) -> None:
        now = self.clock.now
        finished: List[Request] = []
        handoffs: List[Request] = []
        for r in batch:
            prefill = not r.prefilled
            if prefill:
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
            elif prefill and self.handoff_after_prefill:
                handoffs.append(r)
        for r in finished:
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            if self._fencing:
                self.completion_outbox.append(Completion(
                    request=r, token=r.lease, kind="finish",
                    record=RequestRecord.from_request(r), time=now,
                ))
            else:
                self.metrics.complete(r)
        for r in handoffs:
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            self.handoff_outbox.append(r)


# -- the digest ---------------------------------------------------------------


#: Counters ``summary()`` leaves out or folds into a ratio.
COUNTERS = ("mode_iterations", "lora_extra_time_total",
            "adapter_cache_hits", "adapter_cache_misses")


def digest(metrics, tracers=()):
    """Everything a run leaves behind, in a comparable form: every
    terminal record and abort, the counters and ``summary()`` without
    the two cost-cache counters, and each tracer's events."""
    summary = metrics.summary()
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    return (
        [tuple(r) for r in metrics.records],
        [tuple(a) for a in metrics.aborts],
        {name: getattr(metrics, name) for name in COUNTERS},
        summary,
        [[dataclasses.astuple(e) for e in t.events] for t in tracers],
    )


# -- the generator ------------------------------------------------------------


SYSTEMS = ("v-lora", "s-lora", "punica", "dlora", "merge-only",
           "unmerge-only")
RANKS = (8, 16, 32, 64, 128)
FLEETS = ("placement", "disagg", "hedging", "detector", "autoscaler")
ENGINE_FEATURES = ("deadline", "admission", "breaker")
FAULT_MENUS = {
    "swap": dict(swap_fail_rate=0.6, swap_slow_rate=0.4),
    "kv-slow": dict(kv_pressure_rate=0.5, engine_slow_rate=0.4),
    "all": dict(swap_fail_rate=0.5, swap_slow_rate=0.4,
                kv_pressure_rate=0.4, engine_slow_rate=0.3),
    "gray": dict(partition_rate=0.3, heartbeat_loss_rate=0.2,
                 engine_fail_rate=0.05, engine_slow_rate=0.1),
}


@dataclass(frozen=True)
class Scenario:
    """One draw: a system, its workload and how it is served.

    ``ranks`` are the adapters' ranks (adapter ``i`` is ``lora-i``) and
    ``slots`` their GPU slots.  ``kv_slack`` shrinks each engine's KV
    pool to that many blocks over the largest request, so steady
    batches preempt as they grow.  ``fault_specs`` is an explicit fault
    schedule, used when no ``faults`` menu is drawn.  ``chunks`` are the
    ``run(until=...)`` calls a lone engine makes
    before its final ``run()``.  ``drain_after`` empties the engine
    after that chunk and resubmits its requests 0.3 s later;
    ``trace_after`` attaches a tracer before that chunk's call (the
    final ``run()`` is chunk ``len(chunks)``).  A fleet runs in its own
    epochs and traces from the start or not at all.
    """

    system: str
    specs: Tuple[dict, ...]
    ranks: Tuple[int, ...] = (64, 64, 64)
    slots: Optional[int] = None
    fleet: Optional[str] = None
    features: Tuple[str, ...] = ()
    faults: Optional[str] = None
    fault_specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    kv_slack: Optional[int] = None
    chunks: Tuple[float, ...] = ()
    drain_after: Optional[int] = None
    trace_after: Optional[int] = None


@st.composite
def scenarios(draw, fleets=(None,) + FLEETS,
              menus=(None,) + tuple(FAULT_MENUS)):
    ranks = tuple(draw(st.lists(st.sampled_from(RANKS), min_size=2,
                                max_size=6)))
    task_heads = draw(st.booleans())
    specs = []
    for _ in range(draw(st.integers(1, 5))):
        at = draw(st.floats(0.0, 3.0))
        for _ in range(draw(st.integers(1, 6))):
            # A task head answers in one round.
            head = task_heads and draw(st.booleans())
            specs.append(dict(
                request_id=len(specs),
                adapter_id=f"lora-{draw(st.integers(0, len(ranks) - 1))}",
                arrival_time=at + draw(st.floats(0.0, 0.2)),
                input_tokens=draw(st.integers(32, 160)
                                  | st.sampled_from([1024, 3072])),
                output_tokens=1 if head else draw(st.integers(1, 96)),
                num_images=draw(st.sampled_from([0, 1])),
                use_task_head=head,
                prefix_key=draw(st.sampled_from([None, "img-a"])),
                prefix_tokens=draw(st.sampled_from([0, 32])),
                slo_s=draw(st.sampled_from([None, 0.4, 2.0])),
            ))
    fleet = draw(st.sampled_from(fleets))
    chunks, drain_after = (), None
    if fleet is None:
        chunks = tuple(sorted(draw(st.lists(
            st.floats(0.05, 4.0), max_size=6, unique=True))))
        if chunks:
            drain_after = draw(st.none()
                               | st.integers(0, len(chunks) - 1))
    return Scenario(
        system=draw(st.sampled_from(SYSTEMS)),
        specs=tuple(specs),
        ranks=ranks,
        slots=draw(st.integers(2, len(ranks))),
        fleet=fleet,
        features=tuple(f for f in ENGINE_FEATURES if draw(st.booleans())),
        faults=draw(st.sampled_from(menus)),
        seed=draw(st.integers(0, 31)),
        kv_slack=draw(st.sampled_from([None, 4, 16])),
        chunks=chunks,
        drain_after=drain_after,
        trace_after=draw(st.none() | st.integers(0, len(chunks))),
    )


# -- serving a scenario -------------------------------------------------------


def _builder(s: Scenario) -> SystemBuilder:
    ids = [f"lora-{i}" for i in range(len(s.ranks))]
    faults = FaultInjector(s.fault_specs) if s.fault_specs else None
    if s.faults is not None:
        faults = FaultInjector.random(
            horizon_s=8.0, seed=s.seed, adapter_ids=ids,
            engine_ids=(("engine-0",) if s.fleet is None
                        else ("gpu-0", "gpu-1", "gpu-2")),
            host_ids=("host-0", "host-1"), **FAULT_MENUS[s.faults])
    on = set(s.features)
    return SystemBuilder(
        adapter_specs=[LoRAAdapterSpec(a, QWEN_VL_7B, rank=r)
                       for a, r in zip(ids, s.ranks)],
        gpu_adapter_slots=s.slots, max_batch_size=8, jitter_seed=s.seed,
        fault_injector=faults,
        deadline_slo_factor=1.5 if "deadline" in on else None,
        admission=(AdmissionConfig(max_queue_depth=8, slo_reject=True)
                   if "admission" in on else None),
        breaker=(BreakerConfig(failure_threshold=2, cooldown_s=0.5)
                 if "breaker" in on else None),
    )


HEDGE = HedgeConfig(min_observations=4, window=32, after_s=0.25)


def _fleet(s: Scenario, factory) -> MultiGPUServer:
    if s.fleet == "placement":
        placement = AdapterPlacement(PlacementConfig(
            hot_watermark=0.6, hot_copies=2))
        return MultiGPUServer.replicate(factory, 2, dispatch="locality",
                                        placement=placement)
    if s.fleet == "disagg":
        return MultiGPUServer.replicate(
            factory, 2,
            disagg=DisaggConfig(prefill_replicas=1, decode_replicas=1))
    if s.fleet == "hedging":
        return MultiGPUServer.replicate(factory, 2, hedge=HEDGE)
    if s.fleet == "detector":
        return MultiGPUServer.replicate(
            factory, 2, num_hosts=2, max_requeues=4,
            detector=FailureDetector(FailureDetectorConfig(
                phi_suspect=1.0, phi_confirm=3.0)))
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=3, target_queue_per_replica=2.0,
        down_fraction=0.7, down_cooldown_s=0.5, spinup_s=0.1,
        drain_timeout_s=2.0))
    return MultiGPUServer.replicate(factory, 1, dispatch="locality",
                                    autoscaler=scaler,
                                    placement=AdapterPlacement(),
                                    hedge=HEDGE)


def _check_kv(engine: ServingEngine) -> None:
    """Every held KV sequence is exactly its request's ``context_len``
    (what the block-boundary counts rely on), and no block leaked."""
    for r in engine._active.values():
        if engine.kv.has_sequence(r.request_id):
            assert engine.kv.sequence_tokens(r.request_id) == r.context_len
    engine.kv.check_invariants()


def check_host_work(metrics) -> None:
    """Host work, checked apart from the digest: one cost-cache hit or
    miss per iteration, decode runs included."""
    assert (metrics.cost_cache_hits + metrics.cost_cache_misses
            == metrics.iterations)


def check_full_answers(requests) -> None:
    """A finished request carries its whole answer: a truncated one
    would count as met by the SLO metrics."""
    for r in requests:
        if r.status is RequestStatus.FINISHED:
            assert r.generated == r.output_tokens, r


def serve(s: Scenario, engine_cls=None):
    """Serve ``s`` on the optimized system, or on ``engine_cls`` engines
    (one ``build()`` per replica) when given; return its :func:`digest`."""
    builder = _builder(s)
    requests = [Request(**spec) for spec in s.specs]
    largest = max(r.input_tokens + r.output_tokens for r in requests)

    def make(engine):
        if s.kv_slack is not None:
            engine.kv = PagedKVCache(
                num_blocks=largest // 16 + 1 + s.kv_slack, block_size=16)
        return engine

    if s.fleet is not None:
        if engine_cls is not None:
            def factory():
                return make(builder.build(s.system, engine_cls=engine_cls))
        else:
            shared = builder.engine_factory(s.system)

            def factory():
                return make(shared())
        server = _fleet(s, factory)
        tracers = ([e.attach_tracer() for e in server.engines]
                   if s.trace_after is not None else [])
        server.submit(requests)
        metrics = server.run()
        engines = server.engines
    else:
        engine = make(builder.build(s.system, engine_cls=engine_cls))
        engine.submit(requests)
        tracers = []
        for i, until in enumerate(s.chunks + (None,)):
            if i == s.trace_after:
                tracers.append(engine.attach_tracer())
            engine.run(until=until)
            _check_kv(engine)
            if i == s.drain_after:
                orphans = engine.drain_orphans(count_hop=False)
                engine.submit(orphans, not_before=engine.clock.now + 0.3)
        metrics = engine.metrics
        engines = [engine]
    for engine in engines:
        _check_kv(engine)
    check_full_answers(requests)
    if engine_cls is None:
        check_host_work(metrics)
    return digest(metrics, tracers)


def serve_engine(builder: SystemBuilder, system: str, requests,
                 engine_cls=None):
    """Serve ``requests`` on one engine of ``system``, optimized or of
    ``engine_cls``; return its final clock and :func:`digest`."""
    engine = builder.build(system, engine_cls=engine_cls)
    engine.submit(requests)
    metrics = engine.run()
    _check_kv(engine)
    if engine_cls is None:
        check_host_work(metrics)
    return engine.clock.now, digest(metrics)


# -- the explicit examples ----------------------------------------------------


def _decoding(request_id, adapter, arrival_time, input_tokens,
              output_tokens, slo_s=None):
    return dict(request_id=request_id, adapter_id=f"lora-{adapter}",
                arrival_time=arrival_time, input_tokens=input_tokens,
                output_tokens=output_tokens, slo_s=slo_s)


# A deadline that falls inside a decode run: request 0's 0.6 s deadline
# (1.5 x its 0.4 s SLO) expires while the four requests are decoding
# their 200 tokens as one steady batch.
DEADLINE_MID_RUN = tuple(
    _decoding(i, i % 3, 0.0, 64, 200, slo_s=0.4 if i == 0 else None)
    for i in range(4))

# Five requests of a hot adapter join an older foreigner, and the six
# run MIXTURE as a decode run with the foreigner last.  Mid-run the
# foreigner starts to starve and leads the batch, still MIXTURE; a
# decode run later the hot requests starve too and the batch falls to
# UNMERGED.
MIXTURE_PREFIX_GROWS = (_decoding(0, 1, 0.0, 64, 200),) + tuple(
    _decoding(i, 0, 0.1, 64, 200) for i in range(1, 6))

# A lone tenant runs MERGED until a 1,024-token prompt arrives.  That
# long prefill iteration is the next decision's iteration estimate, so
# request 0 starves and the batch runs MIXTURE; on the first repeat the
# estimate is one short decode again, request 0 stops starving, and
# the lone tenant merges back.
PREFIX_STOPS_STARVING = (_decoding(0, 0, 0.0, 64, 200),
                         _decoding(1, 0, 0.3, 1024, 100))

# Two long prompts of one adapter.  Each long prefill iteration is the
# estimate the next decisions read, so request 0 starves on it; once
# decode runs start, each check inside a run must read the iteration
# that just ended there, not the long one from before the run.
LONG_PROMPTS = (_decoding(0, 0, 0.0, 3072, 200),
                _decoding(1, 0, 0.2, 2048, 200))

# One adapter's three requests through a locality fleet of two
# replicas with two slots each: one request spills, and each replica
# keeps a steady batch across epoch boundaries.  No fleet control
# evicts a resident adapter, so the steady batch's residency clause is
# tested by demoting its adapter directly (test_engine_properties.py,
# test_steady_batch_dropped_when_its_adapter_is_demoted).
DEMOTED_BETWEEN_EPOCHS = (_decoding(0, 0, 0.0, 32, 5),
                          _decoding(1, 0, 0.1875, 32, 33),
                          _decoding(2, 0, 0.0, 32, 92))

# Two requests decode as a steady batch when the first chunk ends.  A
# drain after it empties the engine and the requests come back 0.3 s
# later, so the stale steady batch must not repeat; a tracer attached
# after it must see every later iteration.
TWO_DECODING = tuple(_decoding(i, 0, 0.0, 64, 120) for i in range(2))

# Short requests in three bursts through a 1 + 1 disaggregated fleet
# whose KV pools hold two blocks over the largest request.  A hand-off
# waiting on the decode replica for its local KV copy holds none, so it
# can be neither a preemption victim nor a member of a batch that runs.
HANDOFF_BURSTS = tuple(
    _decoding(i, 0, 0.05 * (i // 4), 32 + 16 * (i % 3), 2 + 30 * (i % 2))
    for i in range(12))

# Two adapters of different ranks take turns alone, so their batches
# have the same token counts: a bypass memo keyed without ranks prices
# the second adapter's like the first's.
MIXED_RANKS = tuple(_decoding(i, i % 2, 1.0 * i, 64, 20) for i in range(4))

# Four requests of staggered lengths in one batch: each exit ends a
# decode run, and the smaller batch is re-decided in place.  The third
# exit leaves a lone tenant, which merges.  Request 0 finishes at
# 0.14962 s (seed 0), in the iteration that crosses a 0.1496 s chunk
# boundary.
STAGGERED_EXITS = tuple(_decoding(i, i % 2, 0.0, 64, 12 + 9 * i)
                        for i in range(4))

# STAGGERED_EXITS and an arrival due at the instant request 0 finishes:
# the re-decision after that exit must not run past it.
ARRIVAL_AT_EXIT = STAGGERED_EXITS + (
    _decoding(4, 0, 0.14962134140672273, 64, 12),)

# The first exit leaves a lone V-LoRA tenant whose unmerged price
# exceeds the merge, so the re-decision flips the mode to MERGED.
LONE_TENANT_MERGES = (_decoding(0, 1, 0.0, 64, 6),) + tuple(
    _decoding(i, 0, 0.0, 64, 150) for i in range(1, 5))

# A hedged fleet with engine failures (the shrunk draw): a primary's
# replica dies while its twin runs on the other one.  Re-homed, the
# primary would land beside its twin: two copies of one request id on
# one engine.
HEDGED_FAILOVER = (
    tuple(_decoding(i, 0, 0.0, 32, 1) for i in range(4))
    + (_decoding(4, 0, 2.0, 32, 29), _decoding(5, 0, 2.0, 3072, 24),
       _decoding(6, 0, 2.0, 3072, 1),
       dict(_decoding(7, 0, 2.0, 3072, 1), num_images=1)))


# After four short requests, eleven arrive at 0.3 s on the autoscaler
# fleet's one replica: eight fill its batch, and three wait behind them
# until a hedge twin of each lands on gpu-1 at 1.5 s.  Both replicas
# drain, and engine-0's drain times out at 6.0 s while the twin of its
# request 14 still runs on gpu-1: re-homed, the primary could land
# beside its twin.  Once the primary is dropped, the twin is the last
# copy, and gpu-1's drain timeout re-homes it.
DRAIN_BESIDE_TWIN = (
    tuple(_decoding(i, 0, 0.0, 64, 5) for i in range(4))
    + tuple(_decoding(i, 0, 0.3, 64, 100) for i in range(4, 14))
    + (_decoding(14, 0, 0.3, 64, 600),))

# DEADLINE_MID_RUN's four requests decode as one run from 0.03 s to
# 2.45 s.  Each window below changes the fault schedule inside that
# run, which must stop there and read the schedule again.
SLOW_MID_RUN = (FaultSpec(FaultKind.ENGINE_SLOW, 0.8, 0.4, magnitude=2.0,
                          target="engine-0"),)
# At 99.6 % reserved the engine preempts down to one request, and the
# others re-prefill once the window closes.
KV_PRESSURE_MID_RUN = (FaultSpec(FaultKind.KV_PRESSURE, 0.5, 0.5,
                                 magnitude=0.996),)
FAIL_MID_RUN = (FaultSpec(FaultKind.ENGINE_FAIL, 1.2, target="engine-0"),)

# The single-round pass.  Two requests decode in a pool four blocks over
# the larger: at 96 generated tokens both cross a block boundary, the
# younger is preempted with one token left, and it re-prefills that
# token alone once the elder finishes.  Its first token came from its
# first prefill and must keep that time.
PREEMPTED_AT_LAST_TOKEN = (_decoding(0, 0, 0.0, 64, 200),
                           _decoding(1, 0, 0.0, 64, 97))

# Two task-head requests of block-multiple prompts in a pool one block
# short of what the full path takes (two prompts of four blocks and a
# boundary block each): the younger is bounced to the next iteration,
# so the pass must count each member's boundary block.
BOUNDARY_SHORT = tuple(
    dict(_decoding(i, 0, 0.0, 64, 1), use_task_head=True) for i in range(2))


@pytest.mark.property
@settings(max_examples=200, deadline=None)
@given(s=scenarios())
@example(s=Scenario("s-lora", DEADLINE_MID_RUN, features=("deadline",)))
@example(s=Scenario("s-lora", DEADLINE_MID_RUN, kv_slack=4))
@example(s=Scenario("v-lora", MIXTURE_PREFIX_GROWS, kv_slack=8))
@example(s=Scenario("v-lora", MIXTURE_PREFIX_GROWS))
@example(s=Scenario("v-lora", PREFIX_STOPS_STARVING))
@example(s=Scenario("v-lora", LONG_PROMPTS))
@example(s=Scenario("v-lora", DEMOTED_BETWEEN_EPOCHS, ranks=(64,) * 6,
                    slots=2, fleet="placement"))
@example(s=Scenario("s-lora", TWO_DECODING, ranks=(64, 64), chunks=(0.5,),
                    drain_after=0))
@example(s=Scenario("s-lora", TWO_DECODING, ranks=(64, 64), chunks=(0.5,),
                    trace_after=1))
@example(s=Scenario("s-lora", MIXED_RANKS, ranks=(8, 128)))
@example(s=Scenario("v-lora", MIXTURE_PREFIX_GROWS, ranks=(16, 128, 64),
                    fleet="disagg"))
@example(s=Scenario("v-lora", HANDOFF_BURSTS, ranks=(8, 8), fleet="disagg",
                    faults="all", kv_slack=2))
@example(s=Scenario("dlora", MIXTURE_PREFIX_GROWS, ranks=(128, 8, 32),
                    slots=2, faults="all", seed=5))
@example(s=Scenario("v-lora", LONE_TENANT_MERGES, ranks=(64, 64)))
@example(s=Scenario("v-lora", ARRIVAL_AT_EXIT, ranks=(64, 64)))
@example(s=Scenario("v-lora", STAGGERED_EXITS, ranks=(64, 64),
                    chunks=(0.1496,)))
@example(s=Scenario("v-lora", STAGGERED_EXITS, ranks=(64, 64),
                    fleet="disagg"))
@example(s=Scenario("s-lora", HEDGED_FAILOVER, ranks=(8, 8), slots=2,
                    fleet="hedging", faults="gray", seed=1))
@example(s=Scenario("s-lora", DEADLINE_MID_RUN, fault_specs=SLOW_MID_RUN))
@example(s=Scenario("s-lora", DEADLINE_MID_RUN,
                    fault_specs=KV_PRESSURE_MID_RUN))
@example(s=Scenario("s-lora", DEADLINE_MID_RUN, fault_specs=FAIL_MID_RUN))
@example(s=Scenario("s-lora", DRAIN_BESIDE_TWIN, ranks=(64, 64),
                    fleet="autoscaler"))
@example(s=Scenario("s-lora", PREEMPTED_AT_LAST_TOKEN, kv_slack=4))
@example(s=Scenario("s-lora", BOUNDARY_SHORT, kv_slack=4))
def test_optimized_matches_reference(s):
    """Every fast path together is invisible: the optimized system
    leaves the reference's digest, whatever is drawn."""
    assert serve(s) == serve(s, ReferenceEngine)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(s=st.one_of(scenarios(),
                   scenarios(fleets=FLEETS, menus=tuple(FAULT_MENUS))))
def test_optimized_matches_reference_deep(s):
    """The same property, run deep for CI's slow job: 2,000 draws, half
    of them fleets under a fault menu, where rare collisions live (two
    copies of one hedged request met on one engine about once in 1,500
    hedged draws under engine failures).  About two minutes on a 2-core
    VM."""
    assert serve(s) == serve(s, ReferenceEngine)
