"""Cost-memoization layer: unit behavior and exact decode pricing.

The cache's contract (see ``repro/runtime/costcache.py``) is that it may
only change wall-clock time, never simulated results.  The tests here
check each memo against the cost model it stands in for, and serve
retrieval traces on the optimized engine and on the reference engine of
``test_oracle.py``, which prices every iteration without the cache;
the oracle's property draws the request mixes by hand.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.builder import SystemBuilder
from repro.models.config import INTERNVL2_76B, LLAVA15_13B, QWEN_VL_7B
from repro.models.costs import IterationCostModel
from repro.hardware.gpu import A100_80GB
from repro.runtime.cluster import MultiGPUServer
from repro.runtime.costcache import IterationCostCache
from repro.runtime.disagg import DisaggConfig
from repro.runtime.faults import FaultInjector, FaultKind, FaultSpec
from repro.runtime.kv_cache import PagedKVCache
from repro.runtime.metrics import MetricsCollector
from repro.runtime.modes import InferenceMode
from repro.runtime.request import Request, reset_request_ids
from repro.runtime.scheduler import VLoRAPolicy
from repro.workloads.retrieval import RetrievalWorkload
from repro.workloads.video import VideoAnalyticsWorkload
from tests.runtime.test_oracle import (
    ReferenceEngine,
    check_host_work,
    digest,
    serve_engine,
)


@pytest.fixture(scope="module")
def engine():
    return SystemBuilder(num_adapters=2).build("v-lora")


def _cache(engine) -> IterationCostCache:
    return IterationCostCache(engine.iter_costs, engine.mode_exec,
                              engine._rank_of)


def _lookup(cache, mode=InferenceMode.UNMERGED, merged=None,
            launches=(((64, 32), 1),), decode=(3, 300, True, 0),
            groups=(("lora-0", 5),)):
    return cache.lookup(mode, merged, launches, decode, groups)


class TestIterationCostCache:
    def test_hit_and_miss_counters(self, engine):
        cache = _cache(engine)
        first = _lookup(cache)
        second = _lookup(cache)
        assert first == second
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.metrics.cost_cache_hits == 1
        assert cache.metrics.cost_cache_misses == 1
        assert cache.hit_rate() == 0.5

    def test_counts_on_extra_mean_key_only(self, engine):
        # Base-cost inputs are not part of the counted key: a new decode
        # context total or prefill launch still hits the extra-mean memo.
        cache = _cache(engine)
        _lookup(cache)
        _lookup(cache, decode=(3, 301, True, 0))
        _lookup(cache, launches=(((7,), 0), ((9,), 2)), decode=None)
        assert (cache.hits, cache.misses) == (2, 1)

    def test_distinct_extra_keys_miss(self, engine):
        cache = _cache(engine)
        _lookup(cache)
        _lookup(cache, mode=InferenceMode.MIXTURE, merged="lora-1")
        _lookup(cache, mode=InferenceMode.MIXTURE, merged="lora-0")
        _lookup(cache, groups=(("lora-0", 6),))
        _lookup(cache, groups=(("lora-0", 5), ("lora-1", 1)))
        _lookup(cache, groups=(("lora-1", 1), ("lora-0", 5)))
        assert (cache.hits, cache.misses) == (0, 6)

    def test_base_matches_direct_cost_model(self, engine):
        cache = _cache(engine)
        groups = (("lora-1", 4), ("lora-0", 9))
        base, extra_mean = _lookup(cache, mode=InferenceMode.MIXTURE,
                                   merged="lora-1", groups=groups)
        expected = cache.iter_costs.prefill_seconds((64, 32), 1)
        expected += cache.iter_costs.decode_seconds_stats(3, 300)
        assert base == expected
        ranks = {a: engine._rank_of(a) for a in ("lora-0", "lora-1")}
        assert extra_mean == cache.mode_exec.mean_extra_seconds(
            InferenceMode.MIXTURE, dict(groups), ranks,
            merged_adapter="lora-1",
        )
        assert _lookup(cache, groups=())[1] == 0.0

    def test_eviction_clears_but_stays_correct(self, engine, monkeypatch):
        monkeypatch.setattr(IterationCostCache, "MAX_ENTRIES", 2)
        cache = _cache(engine)
        keys = [(("lora-0", 5 + i),) for i in range(3)]
        values = [_lookup(cache, groups=g) for g in keys]
        # The third distinct key found the memo full and cleared it.
        assert list(cache._extra) == [(InferenceMode.UNMERGED, None,
                                       keys[2])]
        assert (cache.hits, cache.misses) == (0, 3)
        assert _lookup(cache, groups=keys[2]) == values[2]
        assert _lookup(cache, groups=keys[0]) == values[0]
        assert (cache.hits, cache.misses) == (1, 4)


_tokens = st.lists(st.integers(1, 2048), min_size=1, max_size=6)


@pytest.mark.property
@settings(max_examples=200, deadline=None)
@given(
    prefills=st.lists(st.tuples(_tokens, st.integers(0, 3)), max_size=3),
    contexts=st.lists(st.integers(1, 8192), max_size=16),
    lm_head=st.booleans(),
    head_classes=st.sampled_from([0, 2, 101, 365]),
)
def test_base_equals_cost_model_exactly(engine, prefills, contexts,
                                        lm_head, head_classes):
    """``base`` is the uncached sum: each launch, then the decode step."""
    iter_costs = engine.iter_costs
    expected = 0.0
    for tokens, images in prefills:
        expected += iter_costs.prefill_seconds(tokens, images)
    decode = None
    if contexts:
        expected += iter_costs.decode_seconds(
            contexts, lm_head=lm_head, task_head_classes=head_classes)
        decode = (len(contexts), sum(contexts), lm_head, head_classes)
    launches = tuple((tuple(t), i) for t, i in prefills)
    cache = _cache(engine)
    # Prefill launches miss, then hit their memo; decode has no memo.
    for _ in range(2):
        base, _ = _lookup(cache, launches=launches, decode=decode)
        assert base == expected


_COST_MODELS = {
    (model.name, tp): IterationCostModel(model, A100_80GB, tp_degree=tp)
    for model in (QWEN_VL_7B, LLAVA15_13B, INTERNVL2_76B)
    for tp in (1, 2, 4)
}


class TestDecodeStats:
    @pytest.mark.property
    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(sorted(_COST_MODELS)),
        lens=st.lists(st.integers(1, 32768), min_size=1, max_size=64),
        lm_head=st.booleans(),
        classes=st.sampled_from([0, 2, 101, 365]),
    )
    @example(key=("Qwen-VL-7B", 1), lens=[17], lm_head=True, classes=0)
    @example(key=("Qwen-VL-7B", 1), lens=[64, 64, 64], lm_head=False,
             classes=101)
    @example(key=("Qwen-VL-7B", 1), lens=[1, 2, 3, 4, 5], lm_head=True,
             classes=365)
    @example(key=("Qwen-VL-7B", 1), lens=[1000, 13, 512, 2048],
             lm_head=False, classes=101)
    def test_matches_per_request_decode(self, key, lens, lm_head, classes):
        """The decode-step function at ``sum(lens)``, the sufficient
        statistics and the per-request contexts price one step ``==``;
        ``tp_degree > 1`` adds the all-reduce term."""
        costs = _COST_MODELS[key]
        step = costs.decode_step(len(lens), lm_head, classes)
        stats = costs.decode_seconds_stats(
            len(lens), sum(lens), lm_head=lm_head, task_head_classes=classes)
        assert step(sum(lens)) == stats == costs.decode_seconds(
            lens, lm_head=lm_head, task_head_classes=classes)

    def test_decode_step_is_kept_per_batch_shape(self):
        costs = IterationCostModel(QWEN_VL_7B, A100_80GB)
        step = costs.decode_step(4, True, 0)
        assert costs.decode_step(4, True, 0) is step
        assert costs.decode_step(4, False, 101) is not step
        with pytest.raises(ValueError, match="batch"):
            costs.decode_step(0, True, 0)

    def test_uniform_cache_is_per_instance(self):
        a = IterationCostModel(QWEN_VL_7B, A100_80GB)
        b = IterationCostModel(QWEN_VL_7B, A100_80GB, tp_degree=2)
        a.decode_seconds_uniform(4, 128)
        # A class-level ``@lru_cache`` would share (and cross-pollute)
        # one table keyed without tp_degree; per-instance wrappers stay
        # independent.
        assert a.decode_seconds_uniform.cache_info().currsize == 1
        assert b.decode_seconds_uniform.cache_info().currsize == 0
        assert (a.decode_seconds_uniform(4, 128)
                != b.decode_seconds_uniform(4, 128))


def _trace(builder, seed, **kwargs):
    reset_request_ids()
    return RetrievalWorkload(builder.adapter_ids, seed=seed,
                             **kwargs).generate()


def _run_once(system: str, seed: int, with_faults: bool, engine_cls=None):
    injector = None
    if with_faults:
        injector = FaultInjector.random(
            horizon_s=120.0, seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(8)],
            swap_fail_rate=0.05, swap_slow_rate=0.05,
            kv_pressure_rate=0.02, engine_slow_rate=0.02,
        )
    builder = SystemBuilder(num_adapters=8, gpu_adapter_slots=4,
                            jitter_seed=seed, fault_injector=injector)
    requests = _trace(builder, seed, rate_rps=12.0, duration_s=25.0,
                      use_task_heads=(system == "v-lora"))
    return serve_engine(builder, system, requests, engine_cls)


def _run_disagg(engine_cls=None):
    """One prefill and one decode replica: the prefill engine prices
    merges with ``decode=False`` and the decode engine serves
    transferred-in KV."""
    builder = SystemBuilder(num_adapters=4, gpu_adapter_slots=2,
                            jitter_seed=3)
    if engine_cls is None:
        factory = builder.engine_factory("v-lora")
    else:
        def factory():
            return builder.build("v-lora", engine_cls=engine_cls)
    server = MultiGPUServer.replicate(
        factory, 2,
        disagg=DisaggConfig(prefill_replicas=1, decode_replicas=1))
    server.submit(_trace(builder, 3, rate_rps=12.0, duration_s=25.0))
    metrics = server.run()
    assert metrics.kv_transfers > 0
    if engine_cls is None:
        check_host_work(metrics)
    return tuple(e.clock.now for e in server.engines), digest(metrics)


class TestCacheEquivalence:
    """Memoized runs are bit-identical to the reference engine."""

    @pytest.mark.parametrize("system", ["v-lora", "s-lora", "punica",
                                        "dlora"])
    def test_systems(self, system):
        assert (_run_once(system, 3, False)
                == _run_once(system, 3, False, ReferenceEngine))

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_seeds(self, seed):
        assert (_run_once("v-lora", seed, False)
                == _run_once("v-lora", seed, False, ReferenceEngine))

    @pytest.mark.parametrize("system", ["v-lora", "dlora"])
    def test_fault_schedules(self, system):
        assert (_run_once(system, 5, True)
                == _run_once(system, 5, True, ReferenceEngine))

    def test_disaggregated_pools(self):
        assert _run_disagg() == _run_disagg(ReferenceEngine)

    def test_merged_and_mixture_repeats(self):
        """A hot adapter's MERGED and MIXTURE batches repeat as decode
        runs, and end bit-identical to the reference, which never
        repeats."""
        builder = SystemBuilder(num_adapters=4, jitter_seed=2)

        def requests():
            return _trace(builder, 2, rate_rps=4.0, duration_s=20.0,
                          top_adapter_share=0.9, use_task_heads=False)

        engine = builder.build("v-lora")
        repeats = Counter()
        repeat_steady = engine._repeat_steady

        def counted(until, budget):
            # A repeat pays no switch: it runs in the current mode.
            mode = engine.current_mode
            ran = repeat_steady(until, budget)
            repeats[mode] += ran
            return ran

        engine._repeat_steady = counted
        engine.submit(requests())
        metrics = engine.run()
        assert ((engine.clock.now, digest(metrics))
                == serve_engine(builder, "v-lora", requests(),
                                ReferenceEngine))
        assert repeats[InferenceMode.MERGED] > 0
        assert repeats[InferenceMode.MIXTURE] > 0
        assert metrics.cost_cache_hits > 0

    def test_cache_actually_engages(self):
        builder = SystemBuilder(num_adapters=4)
        reset_request_ids()
        requests = RetrievalWorkload(
            builder.adapter_ids, rate_rps=10.0, duration_s=20.0,
            use_task_heads=True, seed=1,
        ).generate()
        engine = builder.build("v-lora")
        engine.submit(requests)
        metrics = engine.run()
        assert metrics.cost_cache_misses > 0
        assert (metrics.cost_cache_hits + metrics.cost_cache_misses
                == metrics.iterations)


def test_decode_run_looks_up_once():
    """A decode run prices all its iterations with one cost-cache
    lookup: lookups are at most the ``_iterate`` iterations plus the
    runs, fewer than the iterations, and every iteration still counts
    one hit or miss."""
    builder = SystemBuilder(num_adapters=4)
    engine = builder.build("v-lora")
    calls = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    engine.cost_cache.lookup = spy("lookup", engine.cost_cache.lookup)
    engine._iterate = spy("iterate", engine._iterate)
    engine._decode_run = spy("run", engine._decode_run)
    reset_request_ids()
    engine.submit(RetrievalWorkload(
        builder.adapter_ids, rate_rps=4.0, duration_s=10.0,
        top_adapter_share=0.9, use_task_heads=False, seed=0,
    ).generate())
    metrics = engine.run()
    assert calls["run"] > 0
    assert calls["lookup"] <= calls["iterate"] + calls["run"]
    assert calls["lookup"] < metrics.iterations
    assert (metrics.cost_cache_hits + metrics.cost_cache_misses
            == metrics.iterations)


def test_exit_takes_no_step():
    """A member that finishes leaves inside its decode run, and the
    smaller batch is re-decided in place: ``step()`` runs once per
    arrival burst, not once per exit, and the run takes the
    reference's iterations."""
    builder = SystemBuilder(num_adapters=2, max_batch_size=16)

    def requests():
        reset_request_ids()
        return [
            Request(adapter_id=f"lora-{i % 2}", arrival_time=burst,
                    input_tokens=64, output_tokens=8 + 7 * i)
            for burst in (0.0, 0.4) for i in range(6)
        ]

    engine = builder.build("s-lora")
    steps = Counter()
    step = engine.step

    def counted():
        steps["step"] += 1
        step()

    engine.step = counted
    engine.submit(requests())
    metrics = engine.run()
    reference = builder.build("s-lora", engine_cls=ReferenceEngine)
    reference.submit(requests())
    reference.run()
    assert steps["step"] == 2
    assert metrics.iterations == reference.metrics.iterations
    assert ((engine.clock.now, digest(metrics))
            == (reference.clock.now, digest(reference.metrics)))
    assert metrics.num_completed == 12


def test_faulted_engine_repeats_like_bare():
    """Neither an attached fault injector with nothing scheduled, nor
    the breaker and swap backoff an early swap failure leaves behind,
    takes an engine off the steady path: over the same trace each makes
    as many ``step()`` calls as the bare engine, and the same records.

    The failure comes first and alone: a request whose adapter never
    swaps in retries until its 0.1 s deadline aborts it, with no
    iteration run, so the trace after it starts from the bare engine's
    state but for the breaker and the backoff entry."""

    def serve(faults=None, doomed=()):
        builder = SystemBuilder(num_adapters=4, gpu_adapter_slots=3,
                                fault_injector=faults)
        engine = builder.build("s-lora")
        engine.submit(doomed)
        engine.run(until=1.0)
        reset_request_ids()
        trace = RetrievalWorkload(
            builder.adapter_ids[:3], rate_rps=4.0, duration_s=10.0,
            use_task_heads=False, seed=0).generate()
        for r in trace:
            r.arrival_time += 1.0
        steps = Counter()
        step = engine.step

        def counted():
            steps["step"] += 1
            step()

        engine.step = counted
        engine.submit(trace)
        metrics = engine.run()
        return steps["step"], metrics.records, engine

    bare_steps, bare_records, bare = serve()
    assert bare_steps < bare.metrics.iterations
    idle_steps, idle_records, _ = serve(FaultInjector(()))
    assert (idle_steps, idle_records) == (bare_steps, bare_records)
    doomed = Request(request_id=10_000, adapter_id="lora-3",
                     arrival_time=0.0, input_tokens=64, output_tokens=8,
                     deadline_s=0.1)
    failed_steps, failed_records, engine = serve(
        FaultInjector([FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0,
                                 target="lora-3")]), [doomed])
    assert engine._breakers and engine._swap_backoff_until
    assert doomed.is_aborted
    assert (failed_steps, failed_records) == (bare_steps, bare_records)


def spy_calls(monkeypatch, counts: Counter, layer: str, cls, *names):
    """Count each call of ``cls.<name>`` as ``counts[layer.name]``."""
    for name in names:
        def counted(*args, _name=f"{layer}.{name}", _fn=getattr(cls, name),
                    **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)


def kv_work(monkeypatch, system: str, make_requests) -> Counter:
    """Serve ``make_requests(adapter_ids)`` on one ``system`` engine;
    return the calls
    ``PagedKVCache.allocate/append_token/free`` made, with the requests
    served and the preemptions, keyed like per-layer call counts."""
    counts = Counter()
    spy_calls(monkeypatch, counts, "kv_cache", PagedKVCache,
              "allocate", "append_token", "free")
    builder = SystemBuilder(num_adapters=4)
    engine = builder.build(system)
    engine.submit(make_requests(builder.adapter_ids))
    metrics = engine.run()
    counts["engine.completed"] = metrics.num_completed
    counts["kv_cache.sim_preemptions"] = metrics.num_preemptions
    return counts


def video_heads(adapter_ids):
    """120 task-head requests from four camera streams over 6 s."""
    reset_request_ids()
    trace = VideoAnalyticsWorkload(
        adapter_ids, num_streams=4, duration_s=6.0, seed=0).generate()
    assert len(trace) == 120 and all(r.use_task_head for r in trace)
    return trace


def test_single_round_batches_take_no_kv_sequence(monkeypatch):
    """A task-head trace answers every request in its prefill round
    without a KV sequence: the single-round pass makes no
    ``PagedKVCache`` call.  An LM-head trace still allocates and frees
    once per request.  A refactor that drops the pass leaves behaviour
    identical, so only these exact counts see it."""

    def retrieval(adapter_ids):
        reset_request_ids()
        trace = RetrievalWorkload(
            adapter_ids, rate_rps=4.0, duration_s=10.0,
            use_task_heads=False, seed=0).generate()
        assert len(trace) == 43
        return trace

    assert kv_work(monkeypatch, "v-lora", video_heads) == Counter({
        "engine.completed": 120})
    lm = kv_work(monkeypatch, "v-lora", retrieval)
    assert (lm["engine.completed"], lm["kv_cache.allocate"],
            lm["kv_cache.free"], lm["kv_cache.sim_preemptions"]) == (
        43, 43, 43, 0)
    assert lm["kv_cache.append_token"] >= 43


def test_single_round_steps_cost_per_batch(monkeypatch):
    """On the task-head trace every full step answers its whole batch,
    and the step costs per batch, not per request: one
    ``MetricsCollector.complete`` call per finishing batch (56 steps
    for 120 requests), and the starving prefix bisected only on the 20
    steps whose queue exceeds half a batch (none reaches a paid merge).
    Bisecting on every step or recording per request changes no
    behaviour, so only these exact counts see it."""
    counts = Counter()
    spy_calls(monkeypatch, counts, "scheduler", VLoRAPolicy,
              "schedule", "_starve_prefix_len")
    spy_calls(monkeypatch, counts, "metrics", MetricsCollector, "complete")
    builder = SystemBuilder(num_adapters=4)
    engine = builder.build("v-lora")
    engine.submit(video_heads(builder.adapter_ids))
    metrics = engine.run()
    assert (metrics.num_completed, metrics.iterations,
            metrics.mode_iterations) == (120, 56, {"unmerged": 56})
    assert counts == Counter({"scheduler.schedule": 56,
                              "scheduler._starve_prefix_len": 20,
                              "metrics.complete": 56})
