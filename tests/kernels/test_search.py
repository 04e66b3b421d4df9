"""Tests for the profile-based optimal tiling search (Algorithm 2)."""

import dataclasses
import threading

import pytest

from repro.hardware import A100_80GB
from repro.kernels import (
    ATMMOperator,
    GemmCostModel,
    GemmShape,
    OptimalTilingTable,
    TilingSearch,
    shape_key,
)
from repro.kernels.search import bucket_m, clear_table_cache, default_table
from repro.kernels.tiling import CONFIG_1


class TestBucketing:
    def test_power_of_two_buckets(self):
        assert bucket_m(1) == 16
        assert bucket_m(16) == 16
        assert bucket_m(17) == 32
        assert bucket_m(1000) == 1024

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_m(0)


class TestShapeKey:
    def test_distinct_shapes_distinct_keys(self):
        keys = {
            shape_key(m, k, n)
            for m in (16, 32) for k in (64, 4096) for n in (16, 64)
        }
        assert len(keys) == 8

    def test_packing_fields(self):
        key = shape_key(1, 2, 3)
        assert key == 1 | (2 << 32) | (3 << 64)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shape_key(0, 1, 1)
        with pytest.raises(ValueError):
            shape_key(1 << 33, 1, 1)


class TestTable:
    def test_lookup_miss_without_fallback_raises(self):
        table = OptimalTilingTable()
        with pytest.raises(KeyError):
            table.lookup(64, 4096, 64)

    def test_populated_table_without_fallback_raises_on_miss(self):
        table = OptimalTilingTable()
        table.insert(shape_key(16, 4096, 64), CONFIG_1, 1e-6)
        assert table.fallback is None
        assert table.lookup(16, 4096, 64) is CONFIG_1
        with pytest.raises(KeyError):
            table.lookup(16, 1, 1)

    def test_fallback_served_on_miss(self):
        table = OptimalTilingTable(fallback=CONFIG_1)
        assert table.lookup(64, 4096, 64) is CONFIG_1

    def test_insert_then_lookup_bucket(self):
        table = OptimalTilingTable()
        table.insert(shape_key(64, 4096, 64), CONFIG_1, 1e-5)
        # Any m in the (32, 64] bucket hits the same entry.
        assert table.lookup(50, 4096, 64) is CONFIG_1
        assert table.profiled_latency(50, 4096, 64) == 1e-5
        assert table.contains(64, 4096, 64)
        assert not table.contains(128, 4096, 64)


class TestSearch:
    @pytest.fixture(scope="class")
    def search(self):
        return TilingSearch(A100_80GB, coarse=True)

    def test_kn_pairs_cover_shrink_and_expand(self, search):
        pairs = search.kn_pairs_for_model([4096], [64])
        assert (4096, 64) in pairs and (64, 4096) in pairs

    def test_search_covers_all_buckets(self, search):
        table, report = search.search([(4096, 64)], max_m=1024)
        assert report.num_shapes == len(search.m_buckets(1024))
        assert len(table) == report.num_shapes
        assert table.fallback is not None

    def test_winner_is_argmin_over_configs(self, search):
        shape = GemmShape(256, 4096, 64)
        best_cfg, best_lat = search.profile_shape(shape)
        cm = search.cost_model
        assert all(
            cm.gemm_seconds(shape, c) >= best_lat for c in search.configs
        )
        assert cm.gemm_seconds(shape, best_cfg) == best_lat

    def test_adaptive_winners_differ_across_sizes(self, search):
        """The whole point of ATMM: different shapes want different tiles."""
        small_cfg, _ = search.profile_shape(GemmShape(16, 4096, 64))
        large_cfg, _ = search.profile_shape(GemmShape(8192, 4096, 4096))
        assert small_cfg != large_cfg
        # Small shapes want small/split tiles, large shapes big tiles.
        assert small_cfg.bm <= large_cfg.bm

    def test_extra_shapes_profiled(self, search):
        table, _ = search.search(
            [(4096, 64)], max_m=64,
            extra_shapes=[GemmShape(4096, 64, 4096)],
        )
        assert table.contains(4096, 64, 4096)

    def test_searched_table_drives_atmm(self, search):
        table, _ = search.search([(4096, 64), (64, 4096)], max_m=512)
        op = ATMMOperator(GemmCostModel(A100_80GB), table=table)
        assert op.table is table
        assert op.pair_seconds([128], [64], 4096) > 0


class TestDefaultTable:
    ARGS = dict(hidden_dims=(4096,), ranks=(16,), max_m=256)

    def test_cached_across_calls(self):
        t1 = default_table(A100_80GB, hidden_dims=(4096,), ranks=(64,), max_m=256)
        t2 = default_table(A100_80GB, hidden_dims=(4096,), ranks=(64,), max_m=256)
        assert t1 is t2

    def test_covers_lora_shapes(self):
        t = default_table(A100_80GB, hidden_dims=(4096,), ranks=(64,), max_m=256)
        assert t.contains(32, 4096, 64)    # shrink
        assert t.contains(32, 64, 4096)    # expand
        assert t.contains(4096, 64, 4096)  # delta-W

    @pytest.fixture
    def searches(self, monkeypatch):
        """Count ``TilingSearch.search`` calls on a cold table cache."""
        clear_table_cache()
        calls = []
        real_search = TilingSearch.search

        def counting_search(self, *a, **k):
            calls.append(1)
            return real_search(self, *a, **k)

        monkeypatch.setattr(TilingSearch, "search", counting_search)
        yield calls
        clear_table_cache()

    def test_input_order_irrelevant(self, searches):
        a = default_table(A100_80GB, hidden_dims=(4096, 2048),
                          ranks=(16, 64), max_m=256)
        b = default_table(A100_80GB, hidden_dims=(2048, 4096),
                          ranks=(64, 16), max_m=256)
        assert a is b
        assert len(searches) == 1

    def test_custom_spec_with_registry_name_searches_again(self, searches):
        clone = dataclasses.replace(A100_80GB, num_sms=64)
        assert clone.name == A100_80GB.name
        registry = default_table(A100_80GB, **self.ARGS)
        custom = default_table(clone, **self.ARGS)
        assert custom is not registry
        assert len(searches) == 2

    def test_concurrent_default_table_searches_once(self, searches):
        tables = [None] * 4

        def worker(i):
            tables[i] = default_table(A100_80GB, **self.ARGS)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(searches) == 1
        assert all(t is tables[0] for t in tables)

    def test_writes_no_files(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        clear_table_cache()
        default_table(A100_80GB, **self.ARGS)
        assert list(tmp_path.iterdir()) == []
        clear_table_cache()
