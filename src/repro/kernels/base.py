"""Common interface for LoRA-adapter batching operators.

An operator answers one question for the serving engine: *how long does it
take to apply a batch of heterogeneous LoRA adapters to one projection's
activations?*  That cost is two grouped GEMMs (shrink + expand, Fig. 2a)
plus an elementwise add of the LoRA output onto the base output, and it is
exactly where S-LoRA, Punica, dLoRA, and ATMM differ (§3.2 C2, §6.3.2).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.hardware.memory import FP16_BYTES
from repro.kernels.cost_model import GemmCostModel
from repro.kernels.shapes import lora_gemm_shapes

#: Standard normals :class:`JitterStream` draws from its generator at a
#: time.
JITTER_BLOCK = 256


class JitterStream:
    """Scalar normal draws served from blocks of one generator.

    ``Generator.normal(loc, scale)`` computes ``loc + scale *
    standard_normal()``, and ``standard_normal(n)`` yields the values of
    ``n`` scalar draws in order, so :meth:`normal` returns exactly the
    floats the generator's own scalar ``normal`` calls would, at a
    fraction of the per-call cost.  The generator runs up to one block
    ahead of the values served, so nothing else may draw from it.
    """

    __slots__ = ("_gen", "_block", "_next")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._block: List[float] = []
        self._next = 0

    def normal(self, loc: float, scale: float) -> float:
        """The next draw of ``Generator.normal(loc, scale)``."""
        i = self._next
        block = self._block
        if i == len(block):
            block = self._block = self._gen.standard_normal(
                JITTER_BLOCK).tolist()
            i = 0
        self._next = i + 1
        return loc + scale * block[i]


#: What operator jitter may be drawn from: a generator, or a
#: :class:`JitterStream` over one (the same samples).
JitterSource = Union[np.random.Generator, JitterStream]


class LoRAOperator(abc.ABC):
    """Latency model for one LoRA-batching operator implementation.

    Attributes
    ----------
    name:
        Operator name as used in figures ("ATMM", "S-LoRA", ...).
    jitter_frac:
        Run-to-run latency fluctuation as a fraction of the mean; drives
        the stability comparison (Fig. 18).  ATMM's adaptive tiling keeps
        SM occupancy and memory phases regular, so its jitter is the
        smallest.
    """

    name: str = "abstract"
    jitter_frac: float = 0.0

    def __init__(self, cost_model: GemmCostModel):
        self.cost_model = cost_model

    # -- required per-implementation pieces ---------------------------------

    @abc.abstractmethod
    def pair_seconds(
        self,
        token_counts: Sequence[int],
        ranks: Sequence[int],
        hidden_dim: int,
    ) -> float:
        """Latency of shrink + expand grouped GEMMs for one projection."""

    # -- shared pieces -------------------------------------------------------

    def add_seconds(self, total_tokens: int, hidden_dim: int) -> float:
        """Elementwise add of the LoRA output onto the base output.

        Memory bound: read base output + read LoRA output + write result.
        """
        nbytes = 3 * total_tokens * hidden_dim * FP16_BYTES
        return (
            self.cost_model.elementwise_seconds(nbytes)
            + self.cost_model.launch_seconds(1)
        )

    def layer_seconds(
        self,
        token_counts: Sequence[int],
        ranks: Sequence[int],
        hidden_dim: int,
        num_projections: int = 4,
    ) -> float:
        """Full extra latency one transformer layer pays for unmerged LoRA."""
        total = sum(token_counts)
        per_proj = self.pair_seconds(token_counts, ranks, hidden_dim)
        per_proj += self.add_seconds(total, hidden_dim)
        return per_proj * num_projections

    def sample_seconds(
        self, mean_seconds: float, rng: Optional[JitterSource] = None
    ) -> float:
        """One latency sample with this operator's run-to-run jitter.

        Deterministic (returns the mean) when ``rng`` is ``None``.  A
        :class:`JitterStream` over a generator returns the same samples
        as the generator itself.
        """
        if rng is None or self.jitter_frac == 0.0:
            return mean_seconds
        sample = rng.normal(mean_seconds, self.jitter_frac * mean_seconds)
        # A run can never beat the in-kernel lower bound by much; clamp.
        return max(sample, mean_seconds * 0.5)

    # -- convenience ----------------------------------------------------------

    @staticmethod
    def _validated(token_counts: Sequence[int], ranks: Sequence[int]):
        if len(token_counts) == 0:
            raise ValueError("need at least one request group")
        if len(token_counts) != len(ranks):
            raise ValueError("token_counts and ranks must align")
        if any(t <= 0 for t in token_counts):
            raise ValueError(f"token counts must be positive: {token_counts}")
        if any(r <= 0 for r in ranks):
            raise ValueError(f"ranks must be positive: {ranks}")
        return list(token_counts), list(ranks)

    def _grouped(self, token_counts, ranks, hidden_dim):
        token_counts, ranks = self._validated(token_counts, ranks)
        return lora_gemm_shapes(token_counts, hidden_dim, ranks)
