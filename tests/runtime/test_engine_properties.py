"""Property-based tests over the serving engine.

For arbitrary (bounded) request mixes, the engine must conserve
requests, keep time monotone, and return every KV block — including
under forced KV pressure with preemptions — and keep every iteration's
prefills within the prefill token budget.  ``run()``, which repeats a
steady decode batch without re-scheduling it, must end exactly where a
loop of ``step()`` calls ends, on one engine and on fleets.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import (
    AdapterPlacement,
    AutoscaleConfig,
    Autoscaler,
    DisaggConfig,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    HedgeConfig,
    MultiGPUServer,
    PlacementConfig,
    Request,
)
from repro.runtime.engine import PREFILL_TOKEN_BUDGET, ServingEngine
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.scheduler import SchedulingPolicy

pytestmark = pytest.mark.property


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 16))
    reqs = []
    for i in range(n):
        reqs.append(Request(
            adapter_id=f"lora-{draw(st.integers(0, 2))}",
            arrival_time=draw(st.floats(0.0, 3.0)),
            input_tokens=draw(st.integers(1, 512)),
            output_tokens=draw(st.integers(1, 24)),
            use_task_head=False,
            prefix_key=draw(st.sampled_from([None, "img-a", "img-b"])),
            prefix_tokens=0,
        ))
    system = draw(st.sampled_from(["v-lora", "s-lora", "dlora"]))
    return reqs, system


@settings(max_examples=25, deadline=None)
@given(data=workloads())
def test_engine_conserves_requests_and_blocks(data):
    reqs, system = data
    builder = SystemBuilder(num_adapters=3, max_batch_size=8)
    engine = builder.build(system)
    engine.submit(reqs)
    metrics = engine.run()

    # Conservation: everything completes exactly once.
    assert metrics.num_completed == len(reqs)
    ids = [r.request_id for r in metrics.records]
    assert len(set(ids)) == len(ids)

    # Time sanity.
    for rec in metrics.records:
        assert rec.arrival_time <= rec.first_token_time <= rec.finish_time

    # All KV returns once cached prefixes are dropped.
    engine.kv.evict_stale_prefixes(float("inf"))
    engine.kv.check_invariants()
    assert engine.kv.free_blocks == engine.kv.num_blocks


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(4, 12),
    input_tokens=st.integers(200, 400),
    output_tokens=st.integers(32, 96),
)
def test_engine_survives_kv_pressure(n, input_tokens, output_tokens):
    """With a cache far too small for the workload, the engine preempts
    and recomputes but still finishes everything, and no block leaks."""
    builder = SystemBuilder(num_adapters=2, max_batch_size=8)
    engine = builder.build("v-lora")
    # Just enough blocks for ~2 requests at a time.
    engine.kv = PagedKVCache(
        num_blocks=2 * ((input_tokens + output_tokens) // 16 + 2),
        block_size=16,
    )
    reqs = [
        Request(adapter_id=f"lora-{i % 2}", arrival_time=0.01 * i,
                input_tokens=input_tokens, output_tokens=output_tokens)
        for i in range(n)
    ]
    engine.submit(reqs)
    metrics = engine.run()
    assert metrics.num_completed == n
    engine.kv.evict_stale_prefixes(float("inf"))
    engine.kv.check_invariants()
    assert engine.kv.free_blocks == engine.kv.num_blocks


@st.composite
def prefill_bursts(draw):
    """A few bursts of co-arriving requests with mixed prompt lengths,
    some alone over the prefill token budget."""
    reqs = []
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.floats(0.0, 2.0))
        for _ in range(draw(st.integers(1, 8))):
            reqs.append(Request(
                adapter_id=f"lora-{draw(st.integers(0, 2))}",
                arrival_time=at,
                input_tokens=draw(st.integers(16, 1600)),
                output_tokens=draw(st.integers(1, 12)),
                prefix_key=draw(st.sampled_from([None, "img-a"])),
                prefix_tokens=0,
            ))
    system = draw(st.sampled_from(["v-lora", "s-lora", "punica", "dlora"]))
    return reqs, system


@settings(max_examples=25, deadline=None)
@given(data=prefill_bursts())
def test_iteration_prefills_fit_the_token_budget(data):
    """An iteration's prefills sum (by pre-reuse ``context_len``) to at
    most ``PREFILL_TOKEN_BUDGET`` unless it prefills exactly one request;
    every request still terminates exactly once and no block leaks."""
    reqs, system = data
    engine = SystemBuilder(num_adapters=3, max_batch_size=8).build(system)
    prefills = []
    execute = engine._execute

    def spy(batch, mode, merged):
        prefills.append([r.context_len for r in batch if not r.prefilled])
        return execute(batch, mode, merged)

    decode_run = engine._decode_run

    def run_spy(*args):
        # A decode run prices its iterations without _execute; each
        # one prefills nothing.
        before = engine.metrics.iterations
        ran = decode_run(*args)
        prefills.extend([] for _ in range(engine.metrics.iterations - before))
        return ran

    engine._execute = spy
    engine._decode_run = run_spy
    engine.submit(reqs)
    metrics = engine.run()

    assert len(prefills) == metrics.iterations
    for tokens in prefills:
        assert len(tokens) == 1 or sum(tokens) <= PREFILL_TOKEN_BUDGET
    ids = sorted(rec.request_id for rec in metrics.records)
    assert ids == sorted(r.request_id for r in reqs)
    engine.kv.evict_stale_prefixes(float("inf"))
    engine.kv.check_invariants()
    assert engine.kv.free_blocks == engine.kv.num_blocks


# -- steady-batch repeats: run() against the one-step-at-a-time loop ---------


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


def rescheduling(engine):
    engine.policy = Rescheduling(engine.policy)
    return engine


COUNTERS = ("iterations", "mode_iterations", "num_mode_switches",
            "lora_extra_time_total", "adapter_cache_hits",
            "adapter_cache_misses", "cost_cache_hits", "cost_cache_misses",
            "num_preemptions")


def outcome(metrics):
    """Everything a run leaves behind, in a comparable form."""
    return (
        [(r.request_id, r.first_token_time, r.finish_time)
         for r in metrics.records],
        [(a.request_id, a.abort_time, a.reason) for a in metrics.aborts],
        {name: getattr(metrics, name) for name in COUNTERS},
        repr(sorted(metrics.summary().items())),
    )


@st.composite
def steady_traces(draw, adapters=3, bursts=4):
    """Bursts of decode-heavy requests, some sharing an image prefix,
    some with an SLO that a deadline factor turns into a deadline."""
    specs = []
    for _ in range(draw(st.integers(1, bursts))):
        at = draw(st.floats(0.0, 3.0))
        for _ in range(draw(st.integers(1, 6))):
            specs.append(dict(
                request_id=len(specs),
                adapter_id=f"lora-{draw(st.integers(0, adapters - 1))}",
                arrival_time=at + draw(st.floats(0.0, 0.2)),
                input_tokens=draw(st.integers(32, 160)),
                output_tokens=draw(st.integers(1, 96)),
                prefix_key=draw(st.sampled_from([None, "img-a"])),
                prefix_tokens=draw(st.sampled_from([0, 32])),
                slo_s=draw(st.sampled_from([None, 0.4, 2.0])),
            ))
    return specs


def requests(specs):
    return [Request(**spec) for spec in specs]


# A deadline that falls inside a decode run: request 0's 0.6 s deadline
# (1.5 x its 0.4 s SLO) expires while the four requests are decoding
# their 200 tokens as one steady batch.
DEADLINE_MID_RUN = [
    dict(request_id=i, adapter_id=f"lora-{i % 3}", arrival_time=0.0,
         input_tokens=64, output_tokens=200, prefix_key=None,
         prefix_tokens=0, slo_s=0.4 if i == 0 else None)
    for i in range(4)
]


def _decoding_spec(request_id, adapter, arrival_time, input_tokens,
                   output_tokens):
    return dict(request_id=request_id, adapter_id=f"lora-{adapter}",
                arrival_time=arrival_time, input_tokens=input_tokens,
                output_tokens=output_tokens, prefix_key=None,
                prefix_tokens=0, slo_s=None)


# Five requests of a hot adapter join an older foreigner, and the six
# run MIXTURE as a decode run with the foreigner last.  Mid-run the
# foreigner starts to starve and leads the batch, still MIXTURE; a
# decode run later the hot requests starve too and the batch falls to
# UNMERGED.
MIXTURE_PREFIX_GROWS = [_decoding_spec(0, 1, 0.0, 64, 200)] + [
    _decoding_spec(i, 0, 0.1, 64, 200) for i in range(1, 6)
]

# A lone tenant runs MERGED until a 1,024-token prompt arrives.  That
# long prefill iteration is the next decision's iteration estimate, so
# request 0 starves and the batch runs MIXTURE; on the first repeat the
# estimate is one short decode again, request 0 stops starving, and
# the lone tenant merges back.
PREFIX_STOPS_STARVING = [_decoding_spec(0, 0, 0.0, 64, 200),
                         _decoding_spec(1, 0, 0.3, 1024, 100)]


@settings(max_examples=40, deadline=None)
@given(
    specs=steady_traces(),
    system=st.sampled_from(["v-lora", "s-lora", "punica", "dlora"]),
    deadline_factor=st.sampled_from([None, 1.5]),
    kv_slack=st.sampled_from([None, 4, 16]),
    chunk_s=st.sampled_from([None, 0.37, 1.1]),
)
@example(specs=DEADLINE_MID_RUN, system="s-lora", deadline_factor=1.5,
         kv_slack=None, chunk_s=None)
@example(specs=MIXTURE_PREFIX_GROWS, system="v-lora", deadline_factor=None,
         kv_slack=None, chunk_s=None)
@example(specs=PREFIX_STOPS_STARVING, system="v-lora",
         deadline_factor=None, kv_slack=None, chunk_s=None)
def test_run_matches_one_step_at_a_time(specs, system, deadline_factor,
                                        kv_slack, chunk_s):
    """``run()`` repeats steady batches without re-scheduling them, yet
    ends exactly where ``step()`` in a loop ends: the same first-token
    and finish times, aborts and counters.  A chunked run compares
    ``run(until=...)`` calls against the same calls on a policy that
    never repeats, and checks after each call that every active
    request's KV sequence holds exactly its ``context_len`` tokens (the
    invariant the boundary-block counts rely on).  A KV pool
    ``kv_slack`` blocks over the largest request forces steady batches
    to preempt as they grow."""
    builder = SystemBuilder(num_adapters=3, max_batch_size=8,
                            deadline_slo_factor=deadline_factor)

    def serve(reference):
        engine = builder.build(system)
        if kv_slack is not None:
            largest = max(s["input_tokens"] + s["output_tokens"]
                          for s in specs)
            engine.kv = PagedKVCache(
                num_blocks=largest // 16 + 1 + kv_slack, block_size=16)
        engine.submit(requests(specs))
        if chunk_s is not None:
            if reference:
                rescheduling(engine)
            for i in range(1, 1 + int(4.0 / chunk_s)):
                engine.run(until=i * chunk_s)
                for r in engine._active.values():
                    if engine.kv.has_sequence(r.request_id):
                        assert (engine.kv.sequence_tokens(r.request_id)
                                == r.context_len)
            engine.run()
        elif reference:
            while engine._pending or engine._active:
                engine.step()
        else:
            engine.run()
        engine.kv.check_invariants()
        return outcome(engine.metrics)

    assert serve(reference=False) == serve(reference=True)


@pytest.mark.parametrize("system,specs", [("s-lora", DEADLINE_MID_RUN),
                                          ("v-lora", MIXTURE_PREFIX_GROWS)])
def test_horizon_sees_the_iteration_that_just_ended(system, specs):
    """Each time ``run()`` asks a horizon whether its decision stands at
    ``now``, inside a decode run as well as before one, the iteration
    estimate it passes is the length of the iteration that just ended
    at ``now``: an iteration end and length of a ``step()`` loop, which
    ``run()`` reproduces bit for bit."""
    builder = SystemBuilder(num_adapters=3, max_batch_size=8)
    engine, asked = builder.build(system), []
    repeats = engine.policy.repeats

    def recording(decision, candidates, ctx):
        horizon = repeats(decision, candidates, ctx)
        if not horizon:
            return horizon

        def stands(now, est_iteration):
            asked.append((now, est_iteration))
            return horizon is True or horizon(now, est_iteration)
        return stands

    engine.policy.repeats = recording
    engine.submit(requests(specs))
    engine.run()

    reference, ended = builder.build(system), set()
    advance = reference._advance

    def recorded(iteration_s):
        advance(iteration_s)
        ended.add((reference.clock.now, iteration_s))

    reference._advance = recorded
    reference.submit(requests(specs))
    while reference._pending or reference._active:
        reference.step()
    assert len(asked) > 100
    assert [pair for pair in asked if pair not in ended] == []


@settings(max_examples=12, deadline=None)
@given(specs=steady_traces(adapters=6, bursts=6),
       fleet=st.sampled_from(["locality", "disagg"]))
def test_cluster_run_matches_rescheduling_every_iteration(specs, fleet):
    """Fleets run engines in ``run(until=epoch)`` slices and move work
    between them; repeats must not change what they serve either."""
    builder = SystemBuilder(num_adapters=6, gpu_adapter_slots=3,
                            max_batch_size=8)

    def serve(reference):
        def factory():
            engine = builder.build("v-lora")
            return rescheduling(engine) if reference else engine

        if fleet == "locality":
            server = MultiGPUServer.replicate(factory, 2,
                                              dispatch="locality")
        else:
            server = MultiGPUServer.replicate(
                factory, 2,
                disagg=DisaggConfig(prefill_replicas=1, decode_replicas=1))
        server.submit(requests(specs))
        metrics = server.run()
        for engine in server.engines:
            engine.kv.check_invariants()
        return outcome(metrics)

    assert serve(reference=False) == serve(reference=True)


# -- steady batches across run(until=...) calls ------------------------------


_run = ServingEngine.run


def run_dropping_steady(engine, *args, **kwargs):
    """``ServingEngine.run`` as it was when the steady batch did not
    outlive the call: the reference of the properties below."""
    engine._steady = None
    return _run(engine, *args, **kwargs)


def _fleet(menu, factory):
    """A 2-replica fleet with the features of ``menu`` attached."""
    if menu == "placement":
        placement = AdapterPlacement(PlacementConfig(
            hot_watermark=0.6, hot_copies=2, cold_watermark=0.3))
        return MultiGPUServer.replicate(factory, 2, dispatch="locality",
                                        placement=placement)
    if menu == "disagg":
        return MultiGPUServer.replicate(
            factory, 2,
            disagg=DisaggConfig(prefill_replicas=1, decode_replicas=1))
    if menu == "hedging":
        return MultiGPUServer.replicate(
            factory, 2,
            hedge=HedgeConfig(min_observations=4, window=32, after_s=0.25))
    if menu.startswith("detector"):
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
                                    placement=AdapterPlacement())


STEADY_MENUS = ("placement", "disagg", "hedging", "detector",
                "detector-faults", "autoscaler")


# One adapter's three requests; under placement the fleet demotes that
# adapter on a replica between two epochs while its batch is steady.
DEMOTED_BETWEEN_EPOCHS = [_decoding_spec(0, 0, 0.0, 32, 5),
                          _decoding_spec(1, 0, 0.1875, 32, 33),
                          _decoding_spec(2, 0, 0.0, 32, 92)]


@pytest.mark.parametrize("menu", STEADY_MENUS)
@settings(max_examples=8, deadline=None)
@given(specs=steady_traces(adapters=6, bursts=6), seed=st.integers(0, 31))
@example(specs=DEMOTED_BETWEEN_EPOCHS, seed=0)
def test_steady_batch_outlives_run_calls(menu, specs, seed):
    """A cluster runs each replica epoch by epoch, and a steady batch
    repeats across those ``run(until=...)`` calls unless the engine
    failed, its active set changed or placement demoted one of its
    adapters in between.  Every fleet feature must end bit-identical to
    the same run that drops the steady batch at each call."""
    faults = None
    if menu == "detector-faults":
        faults = FaultInjector.random(
            horizon_s=8.0, seed=seed, adapter_ids=[f"lora-{i}"
                                                   for i in range(6)],
            engine_ids=("gpu-0", "gpu-1"), host_ids=("host-0", "host-1"),
            partition_rate=0.3, heartbeat_loss_rate=0.2,
            engine_fail_rate=0.05, engine_slow_rate=0.1)
    builder = SystemBuilder(num_adapters=6, gpu_adapter_slots=2,
                            max_batch_size=8, jitter_seed=seed,
                            fault_injector=faults)
    def serve(reference):
        server = _fleet(menu, builder.engine_factory("v-lora"))
        served = requests(specs)
        server.submit(served)
        with mock.patch.object(ServingEngine, "run",
                               run_dropping_steady if reference else _run):
            metrics = server.run()
        return ([(r.request_id, r.status, r.first_token_time, r.finish_time)
                 for r in served], outcome(metrics))

    assert serve(reference=False) == serve(reference=True)


def test_steady_batch_dropped_when_its_requests_leave():
    """A drain between two ``run()`` calls empties the active set (a
    drain-timeout or a seized lease re-homes the requests); the stale
    steady batch must not repeat when the requests come back later."""
    specs = [_decoding_spec(i, 0, 0.0, 64, 120) for i in range(2)]

    def serve(reference):
        engine = SystemBuilder(num_adapters=2).build("s-lora")
        engine.submit(requests(specs))
        with mock.patch.object(ServingEngine, "run",
                               run_dropping_steady if reference else _run):
            engine.run(until=0.5)
            assert reference or engine._steady is not None
            orphans = engine.drain_orphans(count_hop=False)
            engine.submit(orphans, not_before=engine.clock.now + 0.3)
            engine.run()
        return outcome(engine.metrics)

    assert serve(reference=False) == serve(reference=True)
