"""Tests for inference modes (deLoRA math/cost) and the mode switchers."""

import numpy as np
import pytest

from repro.hardware import A100_80GB
from repro.kernels import ATMMOperator, GemmCostModel
from repro.models import QWEN_VL_7B, LoRAAdapterSpec
from repro.runtime import (
    DLoRASwitcher,
    InferenceMode,
    ModeExecutor,
    Request,
    SwiftSwitcher,
)

M = InferenceMode


@pytest.fixture(scope="module")
def executor(atmm):
    return ModeExecutor(QWEN_VL_7B, atmm, num_projections=2)


RANKS = {"a": 64, "b": 64, "c": 64}


class TestModeExecutor:
    def test_merged_is_free(self, executor):
        t = executor.extra_seconds(M.MERGED, {"a": 500}, RANKS,
                                   merged_adapter="a")
        assert t == 0.0

    def test_merged_rejects_foreign_adapters(self, executor):
        with pytest.raises(ValueError, match="cannot serve"):
            executor.extra_seconds(M.MERGED, {"a": 10, "b": 10}, RANKS,
                                   merged_adapter="a")

    def test_unmerged_costs_grow_with_tokens(self, executor):
        small = executor.extra_seconds(M.UNMERGED, {"a": 10}, RANKS)
        large = executor.extra_seconds(M.UNMERGED, {"a": 4000}, RANKS)
        assert 0 < small < large

    def test_mixture_needs_merged_adapter(self, executor):
        with pytest.raises(ValueError):
            executor.extra_seconds(M.MIXTURE, {"a": 10}, RANKS)

    def test_mixture_degenerates_to_merged(self, executor):
        t = executor.extra_seconds(M.MIXTURE, {"a": 100}, RANKS,
                                   merged_adapter="a")
        assert t == 0.0

    def test_mixture_cheaper_than_unmerged_when_minority(self, executor):
        """Fig. 20: deLoRA saves compute while starved requests are few."""
        tokens = {"a": 900, "b": 100}  # a merged, b the starved minority
        mixture = executor.extra_seconds(M.MIXTURE, tokens, RANKS,
                                         merged_adapter="a")
        unmerged = executor.extra_seconds(M.UNMERGED, tokens, RANKS)
        assert mixture < unmerged

    def test_mixture_more_expensive_when_majority_foreign(self, executor):
        tokens = {"a": 100, "b": 900}
        mixture = executor.extra_seconds(M.MIXTURE, tokens, RANKS,
                                         merged_adapter="a")
        unmerged = executor.extra_seconds(M.UNMERGED, tokens, RANKS)
        assert mixture > unmerged

    def test_missing_rank_rejected(self, executor):
        with pytest.raises(ValueError, match="missing ranks"):
            executor.extra_seconds(M.UNMERGED, {"zz": 10}, RANKS)

    def test_jitter_reproducible(self, executor):
        t1 = executor.extra_seconds(M.UNMERGED, {"a": 100}, RANKS,
                                    rng=np.random.default_rng(5))
        t2 = executor.extra_seconds(M.UNMERGED, {"a": 100}, RANKS,
                                    rng=np.random.default_rng(5))
        assert t1 == t2


    def test_unmerged_finish_prices_one_prefill_and_longest_decode(
            self, executor):
        """The lone-tenant merge test's price: the unmerged iterations
        the queued requests still need, at the jitter-free mean."""
        fresh = Request(adapter_id="a", arrival_time=0.0,
                        input_tokens=300, output_tokens=4)
        running = Request(adapter_id="a", arrival_time=0.0,
                          input_tokens=500, output_tokens=10)
        running.prefilled, running.generated = True, 3
        # fresh: prefill, then 3 decodes; running: 7 decodes.
        expected = (
            executor.mean_extra_seconds(M.UNMERGED, {"a": 300}, RANKS)
            + 7 * executor.mean_extra_seconds(M.UNMERGED, {"a": 2}, RANKS)
        )
        assert executor.unmerged_finish_seconds(
            RANKS["a"], [fresh, running]) == pytest.approx(expected)
        one_round = Request(adapter_id="a", arrival_time=0.0,
                            input_tokens=300, output_tokens=1)
        assert executor.unmerged_finish_seconds(RANKS["a"], [one_round]) \
            == executor.mean_extra_seconds(M.UNMERGED, {"a": 300}, RANKS)

@pytest.fixture(scope="module")
def swift(atmm):
    return SwiftSwitcher(QWEN_VL_7B, atmm, num_projections=2)


@pytest.fixture(scope="module")
def dlora_switch(cost_model):
    return DLoRASwitcher(QWEN_VL_7B, cost_model, num_projections=2)


SPEC_A = LoRAAdapterSpec("a", QWEN_VL_7B)
SPEC_B = LoRAAdapterSpec("b", QWEN_VL_7B)


class TestSwitchers:
    def test_swift_merge_under_10ms(self, swift):
        """§4.4.1: 'our mode switch costs only <10ms'."""
        assert swift.merge_seconds(SPEC_A) < 0.010

    def test_dlora_merge_near_53ms(self, dlora_switch):
        """Fig. 7: dLoRA's switch costs ~53 ms."""
        assert 0.035 < dlora_switch.merge_seconds(SPEC_A) < 0.070

    def test_swift_speedup_over_5x(self, swift, dlora_switch):
        """§4.4.1: 'speeds up dLoRA >5x'."""
        ratio = dlora_switch.merge_seconds(SPEC_A) / swift.merge_seconds(SPEC_A)
        assert ratio > 5.0

    def test_no_cost_when_state_unchanged(self, swift):
        assert swift.switch_seconds(M.MERGED, M.MERGED, SPEC_A, SPEC_A) == 0.0
        assert swift.switch_seconds(M.UNMERGED, M.UNMERGED, None, None) == 0.0

    def test_unmerged_to_merged_is_one_merge(self, swift):
        t = swift.switch_seconds(M.UNMERGED, M.MERGED, None, SPEC_A)
        assert t == pytest.approx(swift.merge_seconds(SPEC_A))

    def test_merged_to_unmerged_is_one_unmerge(self, swift):
        t = swift.switch_seconds(M.MERGED, M.UNMERGED, SPEC_A, None)
        assert t == pytest.approx(swift.unmerge_seconds(SPEC_A))

    def test_adapter_change_pays_both(self, swift):
        t = swift.switch_seconds(M.MERGED, M.MERGED, SPEC_A, SPEC_B)
        assert t == pytest.approx(
            swift.unmerge_seconds(SPEC_A) + swift.merge_seconds(SPEC_B)
        )

    def test_merged_to_mixture_same_adapter_free(self, swift):
        """Mixture keeps the adapter merged: no switch cost (§4.4.2)."""
        assert swift.switch_seconds(M.MERGED, M.MIXTURE, SPEC_A, SPEC_A) == 0.0

    def test_mixture_to_unmerged_pays_unmerge(self, swift):
        t = swift.switch_seconds(M.MIXTURE, M.UNMERGED, SPEC_A, None)
        assert t == pytest.approx(swift.unmerge_seconds(SPEC_A))
