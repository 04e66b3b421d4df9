"""Minimal numpy neural-network substrate with reverse-mode autograd.

The accuracy-side experiments (Figs. 4, 5, 15) need *real* gradient
descent with capacity-limited low-rank adapters — the fusion-degradation
phenomenon of Fig. 5 cannot be faked with a lookup table.  This package
provides just enough deep-learning machinery to train a tiny
transformer-based "LMM" (:class:`~repro.nn.transformer.TinyLMM`) and its
LoRA adapters entirely in numpy:

* :mod:`repro.nn.tensor` — reverse-mode autograd over numpy arrays;
* :mod:`repro.nn.layers` — Linear / Embedding / LayerNorm / attention /
  transformer blocks;
* :mod:`repro.nn.lora` — :class:`LoRALinear` with frozen base weights,
  runtime merge/unmerge, and hot adapter swap;
* :mod:`repro.nn.optim` — SGD and Adam;
* :mod:`repro.nn.transformer` — the TinyLMM with an LM head and
  pluggable vision task heads (§4.2.2).
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import (
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    Sequential,
    TransformerBlock,
)
from repro.nn.lora import LoRAAdapterWeights, LoRALinear
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.transformer import TaskHead, TinyLMM, TinyLMMConfig

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "MultiHeadSelfAttention",
    "FeedForward",
    "TransformerBlock",
    "Sequential",
    "LoRALinear",
    "LoRAAdapterWeights",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "TinyLMM",
    "TinyLMMConfig",
    "TaskHead",
]
