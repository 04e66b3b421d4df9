"""LoRA-LMM serving runtime: the online phase of V-LoRA (§4.4, §5).

A discrete-event, iteration-level serving engine in the style of
vLLM/LightLLM, driven by the analytical cost models:

* :mod:`repro.runtime.request` — request lifecycle;
* :mod:`repro.runtime.clock` — the simulated clock;
* :mod:`repro.runtime.kv_cache` — paged KV-cache block manager with
  prefix reuse (§5 "KV cache reuse");
* :mod:`repro.runtime.memory` — unified KV/adapter memory accounting;
* :mod:`repro.runtime.adapters` — adapter residency + async swap;
* :mod:`repro.runtime.modes` — merged / unmerged / mixture (deLoRA)
  execution costs and the deLoRA correctness math (§4.4.2);
* :mod:`repro.runtime.switcher` — swift one-shot mode switch vs. dLoRA's
  per-layer switch (§4.4.1, Fig. 7);
* :mod:`repro.runtime.scheduler` — Algorithm 1 and baseline policies;
* :mod:`repro.runtime.engine` — the iteration-level engine;
* :mod:`repro.runtime.cluster` — multi-GPU dispatch (Table 3);
* :mod:`repro.runtime.autoscaler` — elastic replica lifecycle
  (WARMING/ACTIVE/DRAINING/DEAD) and the scaling policy;
* :mod:`repro.runtime.failure_detection` — φ-accrual heartbeat
  suspicion and lease-fenced exactly-once completion delivery;
* :mod:`repro.runtime.hedging` — tail-tolerant dispatch: hedged
  requests, per-class retry budgets, and the shared backoff curve;
* :mod:`repro.runtime.placement` — fleet-level adapter registry and
  cache-state-aware ``locality`` dispatch (consistent-hash homes,
  load-aware spill, hot-adapter replication, cold demotion);
* :mod:`repro.runtime.disagg` — disaggregated prefill/decode serving:
  pool roles, phase-pinned scheduling policies, and size-proportional
  KV hand-off pricing across the pool boundary;
* :mod:`repro.runtime.metrics` — latency/throughput accounting.
"""

from repro.runtime.request import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AbortReason,
    Request,
    RequestStatus,
    reset_request_ids,
)
from repro.runtime.clock import SimClock
from repro.runtime.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    FaultSpecError,
)
from repro.runtime.failure_detection import (
    Completion,
    FailureDetector,
    FailureDetectorConfig,
    PhiAccrualDetector,
    SuspicionState,
)
from repro.runtime.kv_cache import BlockAllocationError, PagedKVCache
from repro.runtime.memory import UnifiedMemoryManager
from repro.runtime.adapters import AdapterManager
from repro.runtime.modes import InferenceMode, ModeExecutor, delora_output
from repro.runtime.switcher import DLoRASwitcher, ModeSwitcher, SwiftSwitcher
from repro.runtime.scheduler import (
    DLoRAPolicy,
    MergedOnlyPolicy,
    SchedulerDecision,
    SchedulingPolicy,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.overload import (
    AdapterBreaker,
    AdmissionConfig,
    AdmissionController,
    AdmissionVerdict,
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    EwmaSignal,
    ReplicaHealth,
)
from repro.runtime.hedging import (
    HedgeConfig,
    HedgeTracker,
    RetryBudget,
    RetryBudgetConfig,
    capped_exponential_backoff,
)
from repro.runtime.engine import EngineConfig, ServingEngine
from repro.runtime.autoscaler import (
    AutoscaleConfig,
    Autoscaler,
    Replica,
    ReplicaState,
    estimate_cold_start_s,
)
from repro.runtime.placement import AdapterPlacement, PlacementConfig
from repro.runtime.disagg import (
    DECODE_POOL,
    PREFILL_POOL,
    DisaggConfig,
    PhasePinnedPolicy,
)
from repro.runtime.cluster import MultiGPUServer
from repro.runtime.metrics import (
    AbortRecord,
    MetricsCollector,
    RequestRecord,
    ScaleEvent,
    StreamingQuantile,
    percentile,
)

__all__ = [
    "Request",
    "RequestStatus",
    "AbortReason",
    "reset_request_ids",
    "SimClock",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "FaultSpecError",
    "Completion",
    "FailureDetector",
    "FailureDetectorConfig",
    "PhiAccrualDetector",
    "SuspicionState",
    "PagedKVCache",
    "BlockAllocationError",
    "UnifiedMemoryManager",
    "AdapterManager",
    "InferenceMode",
    "ModeExecutor",
    "delora_output",
    "ModeSwitcher",
    "SwiftSwitcher",
    "DLoRASwitcher",
    "SchedulingPolicy",
    "SchedulerDecision",
    "VLoRAPolicy",
    "DLoRAPolicy",
    "MergedOnlyPolicy",
    "UnmergedOnlyPolicy",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_HIGH",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionVerdict",
    "BrownoutConfig",
    "BrownoutController",
    "BreakerConfig",
    "BreakerState",
    "AdapterBreaker",
    "EwmaSignal",
    "ReplicaHealth",
    "HedgeConfig",
    "HedgeTracker",
    "RetryBudget",
    "RetryBudgetConfig",
    "capped_exponential_backoff",
    "ServingEngine",
    "EngineConfig",
    "AutoscaleConfig",
    "Autoscaler",
    "Replica",
    "ReplicaState",
    "estimate_cold_start_s",
    "AdapterPlacement",
    "PlacementConfig",
    "DisaggConfig",
    "PhasePinnedPolicy",
    "PREFILL_POOL",
    "DECODE_POOL",
    "MultiGPUServer",
    "MetricsCollector",
    "RequestRecord",
    "AbortRecord",
    "ScaleEvent",
    "StreamingQuantile",
    "percentile",
]
