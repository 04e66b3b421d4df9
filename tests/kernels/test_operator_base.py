"""Tests for the LoRAOperator shared machinery and MemoryPlan guards."""

import numpy as np
import pytest

from repro.hardware import A100_80GB
from repro.kernels import ATMMOperator, GemmCostModel
from repro.kernels.base import JITTER_BLOCK, JitterStream
from repro.runtime.memory import MemoryPlan


@pytest.fixture(scope="module")
def op():
    return ATMMOperator(GemmCostModel(A100_80GB))


class TestSharedOperatorPieces:
    def test_add_seconds_memory_bound(self, op):
        """The LoRA-output add streams 3x the activation bytes."""
        t = op.add_seconds(1024, 4096)
        cm = op.cost_model
        expected = cm.elementwise_seconds(3 * 1024 * 4096 * 2) \
            + cm.launch_seconds(1)
        assert t == pytest.approx(expected)

    def test_layer_seconds_composition(self, op):
        pair = op.pair_seconds([128], [64], 4096)
        add = op.add_seconds(128, 4096)
        layer = op.layer_seconds([128], [64], 4096, num_projections=3)
        assert layer == pytest.approx(3 * (pair + add))

    def test_sample_clamped_at_half_mean(self, op):
        class Degenerate:
            """A 'generator' that always draws an absurdly low sample."""

            def normal(self, mean, std):
                return -1.0

        assert op.sample_seconds(1.0, Degenerate()) == pytest.approx(0.5)
        rng = np.random.default_rng(0)
        samples = [op.sample_seconds(1.0, rng) for _ in range(200)]
        assert min(samples) >= 0.5

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_jitter_stream_matches_generator(self, seed):
        """Samples through a :class:`JitterStream` are the floats the
        seeded generator's scalar ``normal`` calls give, across block
        refills, zero means (which never sample) and zero jitter."""
        op = ATMMOperator(GemmCostModel(A100_80GB))
        pick = np.random.default_rng(seed + 100)
        pairs = [
            (0.0 if i % 7 == 0 else float(pick.lognormal(-6.0, 1.0)),
             0.0 if i % 5 == 0 else float(pick.choice([0.02, 0.04, 0.06])))
            for i in range(3 * JITTER_BLOCK + 77)
        ]

        def samples(rng):
            out = []
            for mean, frac in pairs:
                op.jitter_frac = frac
                out.append(0.0 if mean == 0.0
                           else op.sample_seconds(mean, rng))
            return out

        stream = JitterStream(np.random.default_rng(seed))
        draws = sum(1 for mean, frac in pairs if mean and frac)
        assert draws > 2 * JITTER_BLOCK
        assert samples(stream) == samples(np.random.default_rng(seed))

    def test_validation_helpers(self, op):
        with pytest.raises(ValueError):
            op.pair_seconds([1], [0], 4096)
        with pytest.raises(ValueError):
            op.pair_seconds([-1], [64], 4096)


class TestMemoryPlan:
    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError, match="oversubscribed"):
            MemoryPlan(
                total_bytes=100,
                weights_bytes=60,
                adapter_pool_bytes=30,
                activation_reserve_bytes=10,
                kv_bytes=10,
            )

    def test_exact_fit_allowed(self):
        plan = MemoryPlan(
            total_bytes=100,
            weights_bytes=60,
            adapter_pool_bytes=20,
            activation_reserve_bytes=10,
            kv_bytes=10,
        )
        assert plan.kv_bytes == 10
