"""Inference modes: merged, unmerged, and mixture (deLoRA).

* **Merged** (Fig. 2b): one adapter's ΔW is folded into the base weights;
  requests for that adapter run at base-model cost, other adapters'
  requests cannot run.
* **Unmerged** (Fig. 2a): adapters compute as bypass GEMMs batched by the
  LoRA operator; any mix of adapters runs, at extra per-layer cost.
* **Mixture / deLoRA** (§4.4.2, Fig. 13): with adapter 1 merged, requests
  of other adapters still run correctly by routing them through a
  *deLoRA* branch (weights equal to the merged adapter, subtracted) plus
  their own adapter:

  ``out_x = in_x @ (W_merge - W_deLoRA1 + W_LoRAx)
          = in_x @ (W_base + W_LoRAx)``

  Merged-adapter requests pay nothing; others pay roughly double the
  unmerged bypass cost — still cheaper than a mode switch when they are
  the minority.

:func:`delora_output` implements the identity numerically so tests can
verify it with real matrices.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence

import numpy as np

from repro.kernels.base import LoRAOperator
from repro.models.config import ModelConfig


class InferenceMode(enum.Enum):
    MERGED = "merged"
    UNMERGED = "unmerged"
    MIXTURE = "mixture"


#: Disaggregated-pool mode preferences (:mod:`repro.runtime.disagg`):
#: a prefill pool runs MERGED — prefill is one base-model-speed GEMM
#: burst per adapter — while a decode pool must multiplex many adapters
#: per batch, so it prefers UNMERGED (with MIXTURE/deLoRA as the other
#: acceptable multiplexing mode).
POOL_MODE_PREFERENCE = {
    "prefill": InferenceMode.MERGED,
    "decode": InferenceMode.UNMERGED,
}


def delora_output(
    x: np.ndarray,
    w_base: np.ndarray,
    delta_w_merged: np.ndarray,
    delta_w_own: np.ndarray,
) -> np.ndarray:
    """Output of a LoRA_x request under mixture mode (the deLoRA path).

    Computes ``x @ (W_merge - W_deLoRA1 + W_LoRAx)`` the way the kernel
    does — against the *merged* weights with two bypass corrections —
    which by distributivity equals ``x @ (W_base + W_LoRAx)``.
    """
    w_merge = w_base + delta_w_merged
    return x @ w_merge - x @ delta_w_merged + x @ delta_w_own


class ModeExecutor:
    """Per-iteration *extra* LoRA cost of each mode for a token batch."""

    def __init__(
        self,
        model: ModelConfig,
        operator: LoRAOperator,
        num_projections: int = 2,
    ):
        if num_projections <= 0:
            raise ValueError("num_projections must be positive")
        self.model = model
        self.operator = operator
        self.num_projections = num_projections
        # (token_counts, ranks) -> layer_seconds * num_layers.  The
        # operator cost is a pure function of the group token counts and
        # ranks — adapter *identities* never enter it — so batches
        # that differ only in adapter names (which fragment the
        # engine-level extra-mean memo) collapse onto one entry here.
        self._mean_memo: Dict[tuple, float] = {}

    def extra_seconds(
        self,
        mode: InferenceMode,
        adapter_tokens: Dict[str, int],
        adapter_ranks: Dict[str, int],
        merged_adapter: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Extra latency this iteration pays on top of base-model compute.

        Parameters
        ----------
        adapter_tokens:
            Tokens contributed this iteration per adapter id.
        adapter_ranks:
            Rank per adapter id.
        merged_adapter:
            The adapter currently folded into the base weights (required
            for MERGED and MIXTURE).
        rng:
            Optional generator for operator run-to-run jitter (Fig. 18).
        """
        mean = self.mean_extra_seconds(
            mode, adapter_tokens, adapter_ranks, merged_adapter=merged_adapter
        )
        return self.extra_seconds_from_mean(mean, rng)

    def extra_seconds_from_mean(
        self, mean_seconds: float,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Apply operator run-to-run jitter to a deterministic mean.

        Zero means (merged mode, degenerate mixture) never sample, so the
        rng stream advances exactly as it did before the mean became
        memoizable — a prerequisite for cache-on/off bit-identity.
        """
        if mean_seconds == 0.0:
            return 0.0
        return self.operator.sample_seconds(mean_seconds, rng)

    def mean_extra_seconds(
        self,
        mode: InferenceMode,
        adapter_tokens: Dict[str, int],
        adapter_ranks: Dict[str, int],
        merged_adapter: Optional[str] = None,
    ) -> float:
        """Deterministic (pre-jitter) extra latency of one iteration.

        This is the pure function of ``(mode, merged adapter, adapter
        token groups, ranks)`` that the engine's cost cache memoizes;
        :meth:`extra_seconds` is this plus jitter sampling.
        """
        if not adapter_tokens:
            raise ValueError("need at least one adapter group")
        missing = set(adapter_tokens) - set(adapter_ranks)
        if missing:
            raise ValueError(f"missing ranks for adapters {sorted(missing)}")

        if mode is InferenceMode.MERGED:
            others = set(adapter_tokens) - {merged_adapter}
            if others:
                raise ValueError(
                    f"merged mode cannot serve adapters {sorted(others)}"
                )
            return 0.0

        if mode is InferenceMode.UNMERGED:
            groups = dict(adapter_tokens)
        elif mode is InferenceMode.MIXTURE:
            if merged_adapter is None:
                raise ValueError("mixture mode needs a merged adapter")
            groups = {
                a: t for a, t in adapter_tokens.items() if a != merged_adapter
            }
            if not groups:
                return 0.0  # degenerates to pure merged execution
            # deLoRA branch: the non-merged tokens also run through a
            # bypass copy of the merged adapter (to subtract its ΔW).
            delora_tokens = sum(groups.values())
            groups = dict(groups)
            groups["__delora__"] = delora_tokens
            adapter_ranks = dict(adapter_ranks)
            adapter_ranks["__delora__"] = adapter_ranks[merged_adapter]
        else:
            raise ValueError(f"unknown mode {mode}")

        token_counts = list(groups.values())
        ranks = [adapter_ranks[a] for a in groups]
        key = (tuple(token_counts), tuple(ranks))
        mean = self._mean_memo.get(key)
        if mean is None:
            mean = self.operator.layer_seconds(
                token_counts, ranks, self.model.hidden_dim,
                num_projections=self.num_projections,
            ) * self.model.num_layers
            if len(self._mean_memo) >= 65536:
                self._mean_memo.clear()
            self._mean_memo[key] = mean
        return mean
