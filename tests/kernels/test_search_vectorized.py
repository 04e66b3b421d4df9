"""Vectorized search path: bit-identical to the scalar reference.

The batched numpy evaluation (``gemm_seconds_batch``) and the pruned
vectorized sweep are pure wall-clock optimizations — every latency,
winner, and tie-break must match the seed's scalar double loop exactly
(``==``, not approx).  These properties are what lets ATMM serve a
table searched by either path.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import A100_80GB
from repro.hardware.gpu import GPUSpec, get_gpu, list_gpus
from repro.kernels import GemmCostModel, GemmShape
from repro.kernels.search import TilingSearch, bucket_m
from repro.kernels.tiling import (
    TilingConfigSpace,
    canonical_key,
    enumerate_configs,
)

gpu_specs = st.builds(
    GPUSpec,
    name=st.just("prop-gpu"),
    num_sms=st.integers(8, 160),
    sm_clock_ghz=st.floats(0.8, 2.0),
    tensor_tflops_fp16=st.floats(50.0, 2000.0),
    cuda_tflops_fp16=st.floats(10.0, 150.0),
    hbm_bandwidth_gbps=st.floats(300.0, 4000.0),
    hbm_capacity_gb=st.just(40.0),
    shared_mem_per_sm_kb=st.sampled_from([96, 164, 228]),
    register_file_per_sm_kb=st.sampled_from([128, 256]),
)

shapes = st.builds(
    GemmShape,
    m=st.integers(1, 16384),
    k=st.sampled_from([16, 64, 128, 512, 4096]),
    n=st.sampled_from([16, 64, 512, 4096]),
)


class TestBatchEquality:
    """gemm_seconds_batch == gemm_seconds cell-for-cell, exactly."""

    @settings(max_examples=25, deadline=None)
    @given(gpu=gpu_specs, shape_list=st.lists(shapes, min_size=1,
                                              max_size=6))
    def test_random_gpus_and_shapes(self, gpu, shape_list):
        cm = GemmCostModel(gpu)
        space = TilingConfigSpace.enumerate_space(gpu)
        # Thin the space so the scalar side stays fast.
        space = space.select(np.arange(0, len(space), 13))
        grid = cm.gemm_seconds_batch(shape_list, space)
        assert grid.shape == (len(shape_list), len(space))
        for i, shape in enumerate(shape_list):
            for j in range(len(space)):
                assert grid[i, j] == cm.gemm_seconds(shape, space.config(j))

    def test_full_default_grid_exact(self):
        cm = GemmCostModel(A100_80GB)
        search = TilingSearch(A100_80GB, cost_model=cm, coarse=True)
        shape_list = [GemmShape(m, 4096, 64)
                      for m in search.m_buckets(2048)]
        grid = cm.gemm_seconds_batch(shape_list, search.space)
        for i, shape in enumerate(shape_list):
            col = [cm.gemm_seconds(shape, c) for c in search.configs]
            assert grid[i].tolist() == col

    def test_config_idx_subset_matches_full(self):
        cm = GemmCostModel(A100_80GB)
        space = TilingConfigSpace.enumerate_space(A100_80GB)
        idx = np.array([0, 5, 17, len(space) - 1])
        shape_list = [GemmShape(300, 4096, 64)]
        full = cm.gemm_seconds_batch(shape_list, space)
        sub = cm.gemm_seconds_batch(shape_list, space, config_idx=idx)
        assert sub.tolist() == full[:, idx].tolist()

    def test_accepts_config_objects(self):
        cm = GemmCostModel(A100_80GB)
        configs = enumerate_configs(A100_80GB)[::29]
        grid = cm.gemm_seconds_batch([GemmShape(128, 4096, 16)], configs)
        assert grid.tolist() == [
            [cm.gemm_seconds(GemmShape(128, 4096, 16), c) for c in configs]
        ]


class TestSearchEquivalence:
    """Pruned vectorized sweep produces the scalar table, exactly."""

    @pytest.mark.parametrize("gpu_name", list_gpus())
    @pytest.mark.parametrize("coarse", [True, False])
    def test_registry_gpus(self, gpu_name, coarse):
        gpu = get_gpu(gpu_name)
        search = TilingSearch(gpu, coarse=coarse)
        pairs = search.kn_pairs_for_model((4096,), (16, 64))
        vec, rep_v = search.search(pairs, max_m=2048)
        sca, rep_s = search.search(pairs, max_m=2048, vectorize=False)
        assert vec._table == sca._table
        assert vec._latency == sca._latency
        assert vec.fallback == sca.fallback
        assert rep_v.num_profiles == rep_s.num_profiles
        assert rep_v.num_evals <= rep_s.num_evals

    def test_full_default_scale(self):
        """The exact default_table() grid: 92 shapes, every M bucket."""
        search = TilingSearch(A100_80GB, coarse=True)
        pairs = search.kn_pairs_for_model((4096,), (16, 32, 64, 128))
        extra = [GemmShape(4096, r, 4096) for r in (16, 32, 64, 128)]
        vec, rep = search.search(pairs, extra_shapes=extra)
        sca, _ = search.search(pairs, extra_shapes=extra, vectorize=False)
        assert vec._table == sca._table
        assert vec._latency == sca._latency
        assert vec.fallback == sca.fallback
        assert rep.vectorized and rep.pruned_configs > 0

    def test_pruning_disabled_still_matches(self):
        search = TilingSearch(A100_80GB, coarse=True)
        pairs = [(4096, 64)]
        no_prune, rep = search.search(pairs, max_m=4096, prune_eps=None)
        pruned, _ = search.search(pairs, max_m=4096)
        assert no_prune._table == pruned._table
        assert rep.pruned_configs == 0

    def test_profile_shape_vectorized_matches_scalar(self):
        search = TilingSearch(A100_80GB, coarse=True)
        for shape in (GemmShape(16, 4096, 16), GemmShape(1024, 64, 4096),
                      GemmShape(16384, 4096, 128)):
            assert (search.profile_shape_vectorized(shape)
                    == search.profile_shape(shape))


class TestTieBreaking:
    """Ties resolve to the first config in canonical order everywhere."""

    class _ConstantModel(GemmCostModel):
        """Every config costs the same: the whole sweep is one big tie."""

        def _gemm_seconds(self, shape, config):
            return 1e-6

        def gemm_seconds_batch(self, shapes, configs, config_idx=None):
            n = len(config_idx) if config_idx is not None else len(configs)
            return np.full((len(shapes), n), 1e-6)

    def test_scalar_and_vectorized_agree(self):
        cm = self._ConstantModel(A100_80GB)
        search = TilingSearch(A100_80GB, cost_model=cm, coarse=True)
        first = search.space.config(0)
        scalar_cfg, _ = search.profile_shape(GemmShape(64, 4096, 16))
        vector_cfg, _ = search.profile_shape_vectorized(
            GemmShape(64, 4096, 16))
        assert scalar_cfg == first
        assert vector_cfg == first
        table, _ = search.search([(4096, 16)], max_m=256)
        assert all(cfg == first for cfg in table._table.values())

    def test_space_order_is_canonical(self):
        space = TilingConfigSpace.enumerate_space(A100_80GB)
        keys = [canonical_key(space.config(i)) for i in range(0, len(space),
                                                             97)]
        assert keys == sorted(keys)


class TestConfigSpace:
    @pytest.mark.parametrize("gpu_name", list_gpus())
    @pytest.mark.parametrize("tensor_cores", [None, True, False])
    def test_matches_enumerate_configs(self, gpu_name, tensor_cores):
        gpu = get_gpu(gpu_name)
        space = TilingConfigSpace.enumerate_space(gpu,
                                                  tensor_cores=tensor_cores)
        listed = enumerate_configs(gpu, tensor_cores=tensor_cores)
        assert space.configs() == listed

    def test_from_configs_roundtrip(self):
        configs = enumerate_configs(A100_80GB)[::17]
        space = TilingConfigSpace.from_configs(configs)
        assert space.configs() == list(configs)

    def test_select_preserves_order(self):
        space = TilingConfigSpace.enumerate_space(A100_80GB)
        mask = space.bm >= 64
        sub = space.select(mask)
        expected = [c for c in space.configs() if c.bm >= 64]
        assert sub.configs() == expected


class TestBucketMBitTrick:
    def test_matches_loop_reference(self):
        def reference(m):
            bucket = 16
            while bucket < m:
                bucket *= 2
            return bucket

        for m in list(range(1, 2050)) + [4096, 4097, 16383, 16384, 16385]:
            assert bucket_m(m) == reference(m)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_m(0)
