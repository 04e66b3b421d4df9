"""Kernel-level cost model, ATMM, and baseline LoRA batching operators.

This package substitutes for the CUDA/CUTLASS layer of the paper:

* :mod:`repro.kernels.shapes` — GEMM problem shapes, including grouped
  (heterogeneous) LoRA batches.
* :mod:`repro.kernels.tiling` — tiling configurations and their
  hardware-validity rules (§4.3.1, Table 1, Fig. 12).
* :mod:`repro.kernels.cost_model` — analytical latency model for a tiled
  GEMM on a :class:`~repro.hardware.gpu.GPUSpec` (wave quantization,
  memory traffic, launch overhead, padding waste).
* :mod:`repro.kernels.search` — the profile-based optimal tiling search
  (Algorithm 2) that builds ATMM's shape->config hash table.
* :mod:`repro.kernels.atmm` — the Adaptive-Tiling Matrix Multiplication
  operator (§4.3).
* :mod:`repro.kernels.baseline_ops` — S-LoRA, Punica, and dLoRA (Einsum)
  operator models (§3.2, §6.3.2).
"""

from repro.kernels.shapes import GemmShape, GroupedGemm, lora_gemm_shapes
from repro.kernels.tiling import (
    CONFIG_1,
    CONFIG_2,
    PUNICA_CONFIG,
    SLORA_CONFIG,
    TilingConfig,
    TilingConfigSpace,
    enumerate_configs,
)
from repro.kernels.cost_model import GemmCostModel, KernelLaunch
from repro.kernels.search import (
    OptimalTilingTable,
    TilingSearch,
    default_table,
    shape_key,
)
from repro.kernels.atmm import ATMMOperator
from repro.kernels.baseline_ops import (
    EinsumOperator,
    LoRAOperator,
    PunicaOperator,
    SLoRAOperator,
    make_operator,
)

__all__ = [
    "GemmShape",
    "GroupedGemm",
    "lora_gemm_shapes",
    "TilingConfig",
    "TilingConfigSpace",
    "enumerate_configs",
    "PUNICA_CONFIG",
    "SLORA_CONFIG",
    "CONFIG_1",
    "CONFIG_2",
    "GemmCostModel",
    "KernelLaunch",
    "TilingSearch",
    "OptimalTilingTable",
    "default_table",
    "shape_key",
    "ATMMOperator",
    "LoRAOperator",
    "SLoRAOperator",
    "PunicaOperator",
    "EinsumOperator",
    "make_operator",
]
