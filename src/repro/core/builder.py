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
from repro.models.costs import IterationCostModel
from repro.models.lora import LoRAAdapterSpec
from repro.runtime.adapters import AdapterManager
from repro.runtime.engine import EngineConfig, ServingEngine
from repro.runtime.faults import FaultInjector
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.modes import ModeExecutor
from repro.runtime.overload import (
    AdmissionConfig,
    BreakerConfig,
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
    #: Overload protection (all default-off; see
    #: :mod:`repro.runtime.overload` and ``docs/FAULTS.md``).
    admission: Optional[AdmissionConfig] = None
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

    def _tower(self, system: str) -> dict:
        """The pure cost parts of a ``system`` engine.

        The cost model, operator, switcher, iteration cost model and
        mode executor hold memos only, never engine state, so every
        engine of one fleet can share one tower (and its memos).
        """
        cost_model = GemmCostModel(self.gpu)
        operator = self._operator(system, cost_model)
        return dict(
            switcher=self._switcher(system, operator, cost_model),
            iter_costs=IterationCostModel(
                self.model, self.gpu, cost_model,
                tp_degree=self.tensor_parallel,
            ),
            mode_exec=ModeExecutor(
                self.model, operator, num_projections=self.num_projections
            ),
        )

    def build(self, system: str, engine_cls=None) -> ServingEngine:
        """Construct a fresh engine for the named system.

        ``engine_cls`` swaps in an alternative engine implementation
        with the same constructor: the reference engine of the test
        suite's differential oracle, which takes none of the engine's
        fast paths and must end bit-identical to it.  Every call builds
        its own cost tower; :meth:`engine_factory` shares one.
        """
        system = _canonical(system)
        return self._assemble(system, self._tower(system), engine_cls)

    def engine_factory(self, system: str):
        """Zero-arg callable producing engines for ``system``.

        The shape :class:`repro.runtime.cluster.MultiGPUServer` wants
        for ``engine_factory=`` (replica spawning) and what the CLI and
        benchmarks use to stamp out disaggregated pools.  The factory
        builds one cost tower (cost model, operator, switcher and their
        memos) and every engine it stamps out shares it, replicas the
        autoscaler spawns later included, so a fleet prices each shape
        once.  Each engine keeps its own state: KV cache, adapters,
        policy, metrics, jitter stream and iteration cost cache.
        """
        system = _canonical(system)
        tower = self._tower(system)
        return lambda: self._assemble(system, tower)

    def _assemble(self, system: str, tower: dict,
                  engine_cls=None) -> ServingEngine:
        """One engine with its own state around the cost ``tower``."""
        transfer = TransferModel(self.gpu)
        adapters = AdapterManager(
            self.adapter_specs,
            gpu_slots=self.gpu_adapter_slots,
            transfer_model=transfer,
            async_swap=(system == "v-lora"),
        )
        # Every slot must hold the largest adapter the catalog can swap in.
        memory = UnifiedMemoryManager(
            self.model, self.gpu,
            adapter_slots=self.gpu_adapter_slots,
            adapter_spec=max(self.adapter_specs, key=lambda s: s.ab_bytes),
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
            admission=self.admission,
            breaker=self.breaker,
        )
        cls = engine_cls if engine_cls is not None else ServingEngine
        return cls(
            model=self.model,
            gpu=self.gpu,
            policy=self._policy(system),
            adapter_manager=adapters,
            memory=memory,
            config=config,
            fault_injector=self.fault_injector,
            **tower,
        )


def _canonical(system: str) -> str:
    system = system.lower()
    return "v-lora" if system == "vlora" else system


def build_engine(system: str, **kwargs) -> ServingEngine:
    """One-shot convenience: ``build_engine("v-lora", num_adapters=8)``."""
    return SystemBuilder(**kwargs).build(system)
