"""Property-based tests over the serving engine.

For arbitrary (bounded) request mixes, the engine must conserve
requests, keep time monotone, and return every KV block — including
under forced KV pressure with preemptions — and keep every iteration's
prefills within the prefill token budget.  That ``run()``'s fast paths
together end exactly where the reference engine ends is
``test_oracle.py``'s property; the differentials at the end of this
file turn one fast path off at a time, on the oracle's draws, so that a
divergence names its fast path.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import Request
from repro.runtime.engine import PREFILL_TOKEN_BUDGET, ServingEngine
from repro.runtime.kv_cache import PagedKVCache
from tests.runtime.test_oracle import (
    DEADLINE_MID_RUN,
    DEMOTED_BETWEEN_EPOCHS,
    FLEETS,
    MIXTURE_PREFIX_GROWS,
    PREFIX_STOPS_STARVING,
    TWO_DECODING,
    Rescheduling,
    Scenario,
    digest,
    scenarios,
    serve,
)

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


# -- one fast path off at a time ---------------------------------------------


class ReschedulingEngine(ServingEngine):
    """The optimized engine but for repeats: it re-schedules every
    iteration, like a loop of ``step()`` calls."""

    def __init__(self, *, policy, **parts):
        super().__init__(policy=Rescheduling(policy), **parts)


class SteadyDroppingEngine(ServingEngine):
    """The optimized engine but for steady batches across ``run()``
    calls: it drops its steady batch at each call, as ``run()`` did
    before the batch outlived the call."""

    def run(self, *args, **kwargs):
        self._steady = None
        return super().run(*args, **kwargs)


@settings(max_examples=40, deadline=None)
@given(s=scenarios(fleets=(None,)))
@example(s=Scenario("s-lora", DEADLINE_MID_RUN, features=("deadline",)))
@example(s=Scenario("v-lora", MIXTURE_PREFIX_GROWS))
@example(s=Scenario("v-lora", PREFIX_STOPS_STARVING))
def test_run_matches_one_step_at_a_time(s):
    """``run()`` repeats steady batches without re-scheduling them, yet
    ends exactly where re-scheduling every iteration ends, chunked into
    ``run(until=...)`` calls or not, KV-starved or not."""
    assert serve(s) == serve(s, ReschedulingEngine)


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
    engine.submit([Request(**spec) for spec in specs])
    engine.run()

    reference, ended = builder.build(system), set()
    advance = reference._advance

    def recorded(iteration_s):
        advance(iteration_s)
        ended.add((reference.clock.now, iteration_s))

    reference._advance = recorded
    reference.submit([Request(**spec) for spec in specs])
    while reference._pending or reference._active:
        reference.step()
    assert len(asked) > 100
    assert [pair for pair in asked if pair not in ended] == []


@settings(max_examples=12, deadline=None)
@given(s=scenarios(fleets=("placement", "disagg")))
def test_cluster_run_matches_rescheduling_every_iteration(s):
    """Fleets run engines in ``run(until=epoch)`` slices and move work
    between them; repeats must not change what they serve either."""
    assert serve(s) == serve(s, ReschedulingEngine)


@pytest.mark.parametrize("fleet,faults", [
    pytest.param(fleet, None, id=fleet) for fleet in FLEETS
] + [pytest.param("detector", "gray", id="detector-faults")])
@settings(max_examples=8, deadline=None)
@given(s=scenarios(fleets=FLEETS))
@example(s=Scenario("v-lora", DEMOTED_BETWEEN_EPOCHS, ranks=(64,) * 6,
                    slots=2, fleet="placement"))
def test_steady_batch_outlives_run_calls(fleet, faults, s):
    """A cluster runs each replica epoch by epoch, and a steady batch
    repeats across those ``run(until=...)`` calls unless the engine
    failed, its active set changed or one of its adapters left the GPU
    in between.  Every fleet feature must end bit-identical to the same
    run that drops the steady batch at each call."""
    s = dataclasses.replace(s, fleet=fleet, faults=faults)
    assert serve(s) == serve(s, SteadyDroppingEngine)


def test_steady_batch_dropped_when_its_requests_leave():
    """A drain between two ``run()`` calls empties the active set (a
    drain-timeout or a seized lease re-homes the requests); the stale
    steady batch must not repeat when the requests come back later."""
    s = Scenario("s-lora", TWO_DECODING, ranks=(64, 64), chunks=(0.5,),
                 drain_after=0)
    engine = SystemBuilder(num_adapters=2).build(s.system)
    engine.submit([Request(**spec) for spec in s.specs])
    engine.run(until=0.5)
    assert engine._steady is not None
    assert serve(s) == serve(s, SteadyDroppingEngine)


@pytest.mark.parametrize("system", ["s-lora", "v-lora"])
def test_steady_batch_dropped_when_its_adapter_is_demoted(system):
    """An adapter demoted between two ``run()`` calls
    (:meth:`AdapterManager.demote`) must not let its steady batch
    repeat: the next iteration is a full step that swaps it back in,
    bit-identical to dropping the steady batch at every call."""
    def demoted_mid_run(engine_cls=None):
        engine = SystemBuilder(num_adapters=2).build(
            system, engine_cls=engine_cls)
        engine.submit([Request(**spec) for spec in TWO_DECODING])
        engine.run(until=0.5)
        assert engine._steady is not None
        assert engine.adapters.demote("lora-0")
        metrics = engine.run()
        assert metrics.swap_ins == 1
        return digest(metrics)

    assert demoted_mid_run() == demoted_mid_run(SteadyDroppingEngine)
