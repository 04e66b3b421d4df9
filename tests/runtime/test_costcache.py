"""Cost-memoization layer: unit behavior + bit-identical end-to-end runs.

The cache's contract (see ``repro/runtime/costcache.py``) is that it may
only change wall-clock time, never simulated results.  The property
tests here run the same workload through the memoized and reference cost
paths and require the final clock, every per-request timestamp, and the
whole metrics summary to match to full float precision — across
systems, seeds, and fault schedules.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import SystemBuilder
from repro.models.config import QWEN_VL_7B
from repro.models.costs import IterationCostModel
from repro.hardware.gpu import A100_80GB
from repro.runtime.costcache import IterationCostCache
from repro.runtime.faults import FaultInjector
from repro.runtime.modes import InferenceMode
from repro.runtime.request import reset_request_ids
from repro.workloads.retrieval import RetrievalWorkload


@pytest.fixture(scope="module")
def engine():
    return SystemBuilder(num_adapters=2).build("v-lora")


def _cache(engine, **kwargs) -> IterationCostCache:
    return IterationCostCache(engine.iter_costs, engine.mode_exec,
                              engine._rank_of, **kwargs)


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

    def test_eviction_clears_but_stays_correct(self, engine):
        cache = _cache(engine, max_entries=2)
        keys = [(("lora-0", 5 + i),) for i in range(3)]
        values = [_lookup(cache, groups=g) for g in keys]
        # The third distinct key found the memo full and cleared it.
        assert list(cache._extra) == [(InferenceMode.UNMERGED, None,
                                       keys[2])]
        assert (cache.hits, cache.misses) == (0, 3)
        assert _lookup(cache, groups=keys[2]) == values[2]
        assert _lookup(cache, groups=keys[0]) == values[0]
        assert (cache.hits, cache.misses) == (1, 4)

    def test_max_entries_validated(self, engine):
        with pytest.raises(ValueError, match="max_entries"):
            _cache(engine, max_entries=0)


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
    for _ in range(2):  # miss, then memo hit
        base, _ = _lookup(cache, launches=launches, decode=decode)
        assert base == expected


class TestDecodeStats:
    def test_matches_per_request_decode(self):
        costs = IterationCostModel(QWEN_VL_7B, A100_80GB)
        for lens in ((17,), (64, 64, 64), (1, 2, 3, 4, 5),
                     (1000, 13, 512, 2048)):
            for lm_head, classes in ((True, 0), (False, 101), (True, 365)):
                assert costs.decode_seconds_stats(
                    len(lens), sum(lens), lm_head=lm_head,
                    task_head_classes=classes,
                ) == costs.decode_seconds(
                    lens, lm_head=lm_head, task_head_classes=classes,
                )

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


def _run_once(system: str, seed: int, enable_cost_cache: bool,
              with_faults: bool):
    injector = None
    if with_faults:
        injector = FaultInjector.random(
            horizon_s=120.0, seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(8)],
            swap_fail_rate=0.05, swap_slow_rate=0.05,
            kv_pressure_rate=0.02, engine_slow_rate=0.02,
        )
    builder = SystemBuilder(num_adapters=8, gpu_adapter_slots=4,
                            jitter_seed=seed,
                            fault_injector=injector,
                            enable_cost_cache=enable_cost_cache)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=12.0, duration_s=25.0,
        use_task_heads=(system == "v-lora"), seed=seed,
    ).generate()
    engine = builder.build(system)
    engine.submit(requests)
    metrics = engine.run()
    summary = metrics.summary()
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    records = sorted(
        (r.request_id, r.arrival_time, r.first_token_time, r.finish_time)
        for r in metrics.records
    )
    return engine.clock.now, records, summary


class TestCacheEquivalence:
    """Memoized runs are bit-identical to the reference cost path."""

    @pytest.mark.parametrize("system", ["v-lora", "s-lora", "punica",
                                        "dlora"])
    def test_systems(self, system):
        assert (_run_once(system, seed=3, enable_cost_cache=True,
                          with_faults=False)
                == _run_once(system, seed=3, enable_cost_cache=False,
                             with_faults=False))

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_seeds(self, seed):
        assert (_run_once("v-lora", seed=seed, enable_cost_cache=True,
                          with_faults=False)
                == _run_once("v-lora", seed=seed, enable_cost_cache=False,
                             with_faults=False))

    @pytest.mark.parametrize("system", ["v-lora", "dlora"])
    def test_fault_schedules(self, system):
        cached = _run_once(system, seed=5, enable_cost_cache=True,
                           with_faults=True)
        assert cached == _run_once(system, seed=5, enable_cost_cache=False,
                                   with_faults=True)

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
