"""ATMM's pair price memo is exact.

``ATMMOperator.pair_seconds`` keys its memo on the two tiling configs,
the hidden dim, the ranks and each group's block count ``ceil(m / bm)``
under each config, since ``GemmCostModel.grouped_seconds_mnk`` reads a
group's ``m`` only through that count.  The property prices group token
counts on both sides of the tile edges, where those counts change, and
checks every price against the two direct grouped-GEMM calls, bit for
bit: on a fresh operator (cold) and on one that has already priced
every earlier draw and each draw's neighbours (warm).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.hardware import A100_80GB
from repro.kernels import ATMMOperator, GemmCostModel
from repro.models.config import (
    INTERNVL2_76B,
    LLAVA15_13B,
    LLAVA15_7B,
    QWEN_VL_7B,
)

COST_MODEL = GemmCostModel(A100_80GB)
HIDDEN_DIMS = sorted({m.hidden_dim for m in (
    QWEN_VL_7B, LLAVA15_7B, LLAVA15_13B, INTERNVL2_76B)})
RANKS = (8, 16, 32, 64, 128)
#: Decode groups, both sides of the 16-, 32- and 64-row tile edges, and
#: prompt sizes.
TOKENS = (1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
          256, 512, 1024, 3072)
#: Priced by every draw, so the memo is warm across draws.
WARM = ATMMOperator(COST_MODEL, hidden_dims=HIDDEN_DIMS, ranks=RANKS)


def direct(op: ATMMOperator, token_counts, ranks, hidden: int) -> float:
    """The price without the memo: the two grouped-GEMM calls."""
    total = sum(token_counts)
    hiddens = [hidden] * len(token_counts)
    t = COST_MODEL.grouped_seconds_mnk(
        token_counts, hiddens, ranks,
        op._config_for(total, hidden, max(ranks)))
    t += COST_MODEL.grouped_seconds_mnk(
        token_counts, ranks, hiddens,
        op._config_for(total, ranks[0], hidden))
    return t


def neighbours(token_counts):
    """The draw with one group moved one token either way."""
    for i, m in enumerate(token_counts):
        for step in (-1, 1):
            if m + step > 0:
                yield token_counts[:i] + [m + step] + token_counts[i + 1:]


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(st.tuples(st.sampled_from(TOKENS),
                                 st.sampled_from(RANKS)),
                       min_size=1, max_size=4),
       hidden=st.sampled_from(HIDDEN_DIMS))
# Shrink and expand configs with different bm: one block under one,
# two under the other.
@example(groups=[(17, 8)], hidden=4096)
@example(groups=[(33, 64), (1, 64)], hidden=5120)
@example(groups=[(65, 128), (16, 8)], hidden=8192)
# 1 + 15 tokens sit in the 16-token config bucket and their neighbour
# 1 + 16 in the 32-token one: the shrink config stays, the expand
# config changes, and no block count does.
@example(groups=[(1, 8), (15, 8)], hidden=4096)
def test_pair_price_is_exact_cold_and_warm(groups, hidden):
    ranks = [r for _, r in groups]
    token_counts = [m for m, _ in groups]
    cold = ATMMOperator(COST_MODEL, hidden_dims=HIDDEN_DIMS, ranks=RANKS)
    assert (cold.pair_seconds(token_counts, ranks, hidden)
            == direct(cold, token_counts, ranks, hidden))
    for counts in [token_counts, *neighbours(token_counts), token_counts]:
        assert (WARM.pair_seconds(counts, ranks, hidden)
                == direct(WARM, counts, ranks, hidden))


def test_examples_cover_different_bm():
    """The explicit examples hold what they claim: their shrink and
    expand configs tile ``m`` differently."""
    for m, r, hidden in ((17, 8, 4096), (34, 64, 5120), (81, 128, 8192)):
        shrink = WARM._config_for(m, hidden, r)
        expand = WARM._config_for(m, r, hidden)
        assert shrink.bm != expand.bm
