"""System builder: one factory for V-LoRA and every baseline.

Each serving system is the same engine with different pluggable parts
(§6.1 "Baselines"):

========== ================== ==================== ===================
system      LoRA operator      scheduling policy    mode switcher
========== ================== ==================== ===================
v-lora      ATMM               Algorithm 1          swift (one-shot)
s-lora      S-LoRA kernel      unmerged-only FCFS   (never switches)
punica      Punica kernel      unmerged-only FCFS   (never switches)
dlora       Einsum             merged/unmerged      per-layer addmm
merge-only  ATMM               merged-only          swift
unmerge-only ATMM              unmerged-only FCFS   swift
========== ================== ==================== ===================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.hardware.gpu import A100_80GB, GPUSpec
from repro.hardware.memory import TransferModel
from repro.kernels.atmm import ATMMOperator
from repro.kernels.base import LoRAOperator
from repro.kernels.baseline_ops import (
    EinsumOperator,
    PunicaOperator,
    SLoRAOperator,
)
from repro.kernels.cost_model import GemmCostModel
from repro.models.config import QWEN_VL_7B, ModelConfig
from repro.models.lora import LoRAAdapterSpec
from repro.runtime.adapters import AdapterManager
from repro.runtime.engine import EngineConfig, ServingEngine
from repro.runtime.faults import FaultInjector
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.overload import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
)
from repro.runtime.scheduler import (
    DLoRAPolicy,
    MergedOnlyPolicy,
    SchedulingPolicy,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.switcher import DLoRASwitcher, ModeSwitcher, SwiftSwitcher

SYSTEM_NAMES = (
    "v-lora", "s-lora", "punica", "dlora", "merge-only", "unmerge-only",
)


@dataclass
class SystemBuilder:
    """Reusable configuration for constructing serving engines."""

    model: ModelConfig = QWEN_VL_7B
    gpu: GPUSpec = A100_80GB
    num_adapters: int = 4
    adapter_rank: int = 64
    gpu_adapter_slots: Optional[int] = None
    max_batch_size: int = 32
    theta: float = 0.5
    num_projections: int = 2
    tensor_parallel: int = 1
    jitter_seed: Optional[int] = 0
    enable_prefix_reuse: bool = True
    adapter_specs: Sequence[LoRAAdapterSpec] = field(default_factory=tuple)
    #: Optional deterministic fault schedule shared by built engines.
    fault_injector: Optional[FaultInjector] = None
    #: Abort requests past ``deadline_slo_factor * slo_s`` (see
    #: :class:`~repro.runtime.engine.EngineConfig`).
    deadline_slo_factor: Optional[float] = None
    #: Price iterations from memoized cost components (bit-identical
    #: results; ``False`` forces the reference cost path).
    enable_cost_cache: bool = True
    #: Overload protection (all default-off; see
    #: :mod:`repro.runtime.overload` and ``docs/FAULTS.md``).
    admission: Optional[AdmissionConfig] = None
    brownout: Optional[BrownoutConfig] = None
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.num_adapters <= 0:
            raise ValueError("num_adapters must be positive")
        if not self.adapter_specs:
            self.adapter_specs = tuple(
                LoRAAdapterSpec(f"lora-{i}", self.model, rank=self.adapter_rank)
                for i in range(self.num_adapters)
            )
        else:
            self.adapter_specs = tuple(self.adapter_specs)
            self.num_adapters = len(self.adapter_specs)
        if self.gpu_adapter_slots is None:
            self.gpu_adapter_slots = min(self.num_adapters, 16)

    @property
    def adapter_ids(self) -> list:
        return [s.adapter_id for s in self.adapter_specs]

    # -- part selection -------------------------------------------------------

    def _operator(self, system: str, cost_model: GemmCostModel) -> LoRAOperator:
        if system in ("v-lora", "merge-only", "unmerge-only"):
            return ATMMOperator(
                cost_model,
                hidden_dims=(self.model.hidden_dim,),
                ranks=tuple(sorted({s.rank for s in self.adapter_specs})),
            )
        if system == "s-lora":
            return SLoRAOperator(cost_model)
        if system == "punica":
            return PunicaOperator(cost_model)
        if system == "dlora":
            return EinsumOperator(cost_model)
        raise ValueError(
            f"unknown system {system!r}; expected one of {SYSTEM_NAMES}"
        )

    def _policy(self, system: str) -> SchedulingPolicy:
        if system == "v-lora":
            return VLoRAPolicy(theta=self.theta)
        if system in ("s-lora", "punica", "unmerge-only"):
            return UnmergedOnlyPolicy()
        if system == "dlora":
            return DLoRAPolicy()
        if system == "merge-only":
            return MergedOnlyPolicy()
        raise ValueError(f"unknown system {system!r}")

    def _switcher(self, system: str, operator: LoRAOperator,
                  cost_model: GemmCostModel) -> ModeSwitcher:
        if system == "dlora":
            return DLoRASwitcher(
                self.model, cost_model, num_projections=self.num_projections
            )
        atmm = (
            operator if isinstance(operator, ATMMOperator)
            else ATMMOperator(cost_model)
        )
        return SwiftSwitcher(
            self.model, atmm, num_projections=self.num_projections
        )

    # -- assembly --------------------------------------------------------------------

    def build(self, system: str, engine_cls=None) -> ServingEngine:
        """Construct a fresh engine for the named system.

        ``engine_cls`` swaps in an alternative engine implementation
        with the same constructor (e.g. the seed-baseline snapshot used
        by ``benchmarks/bench_sim_throughput.py``).
        """
        system = system.lower()
        if system == "vlora":
            system = "v-lora"
        cost_model = GemmCostModel(self.gpu)
        operator = self._operator(system, cost_model)
        policy = self._policy(system)
        switcher = self._switcher(system, operator, cost_model)
        transfer = TransferModel(self.gpu)
        adapters = AdapterManager(
            self.adapter_specs,
            gpu_slots=self.gpu_adapter_slots,
            transfer_model=transfer,
            async_swap=(system == "v-lora"),
        )
        memory = UnifiedMemoryManager(
            self.model, self.gpu,
            adapter_slots=self.gpu_adapter_slots,
            adapter_spec=self.adapter_specs[0],
            tp_degree=self.tensor_parallel,
        )
        config = EngineConfig(
            max_batch_size=self.max_batch_size,
            num_projections=self.num_projections,
            enable_prefix_reuse=(
                self.enable_prefix_reuse and system == "v-lora"
            ),
            jitter_seed=self.jitter_seed,
            # Punica's decode-centric runtime (BGMV) prefills requests
            # one at a time; every other system batches prefills.
            batch_prefills=(system != "punica"),
            tensor_parallel=self.tensor_parallel,
            deadline_slo_factor=self.deadline_slo_factor,
            enable_cost_cache=self.enable_cost_cache,
            admission=self.admission,
            brownout=self.brownout,
            breaker=self.breaker,
        )
        cls = engine_cls if engine_cls is not None else ServingEngine
        return cls(
            model=self.model,
            gpu=self.gpu,
            operator=operator,
            policy=policy,
            switcher=switcher,
            adapter_manager=adapters,
            memory=memory,
            config=config,
            fault_injector=self.fault_injector,
        )

    def engine_factory(self, system: str):
        """Zero-arg callable producing fresh engines for ``system``.

        The shape :class:`repro.runtime.cluster.MultiGPUServer` wants
        for ``engine_factory=`` (replica spawning) and what the CLI and
        benchmarks use to stamp out disaggregated pools — every engine
        comes off the same mold, so fleet-shared caches (cost, transfer)
        stay coherent.
        """
        return lambda: self.build(system)


def build_engine(system: str, **kwargs) -> ServingEngine:
    """One-shot convenience: ``build_engine("v-lora", num_adapters=8)``."""
    return SystemBuilder(**kwargs).build(system)
