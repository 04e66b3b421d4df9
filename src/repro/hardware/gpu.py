"""GPU device specifications.

The cost model in :mod:`repro.kernels.cost_model` is parameterized by a
:class:`GPUSpec`.  The defaults below are taken from vendor datasheets; the
paper's testbed is a single NVIDIA A100 80GB (:data:`A100_80GB`).

Only properties that influence tiled-GEMM behaviour are modelled:

* streaming-multiprocessor (SM) count — wave quantization,
* peak FP16 throughput on Tensor cores and CUDA cores — the compute roof,
* HBM bandwidth — the memory roof,
* shared-memory / register-file capacity per SM — tiling validity,
* kernel-launch overhead — Einsum-style launch storms,
* host link bandwidth — adapter/model swap latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU device.

    Attributes
    ----------
    name:
        Human-readable device name, e.g. ``"A100-80GB"``.
    num_sms:
        Number of streaming multiprocessors.
    sm_clock_ghz:
        Boost clock in GHz.
    tensor_tflops_fp16:
        Peak FP16 Tensor-core throughput in TFLOP/s (dense).
    cuda_tflops_fp16:
        Peak FP16 CUDA-core (non-tensor) throughput in TFLOP/s.
    hbm_bandwidth_gbps:
        HBM bandwidth in GB/s.
    hbm_capacity_gb:
        Device memory capacity in GB.
    shared_mem_per_sm_kb:
        Shared memory (configurable L1 carve-out) per SM in KiB.
    register_file_per_sm_kb:
        Register file per SM in KiB.
    l2_cache_mb:
        L2 cache size in MB.
    max_threads_per_sm:
        Thread-residency limit per SM.
    warp_size:
        Threads per warp.
    kernel_launch_us:
        Fixed host-side launch latency per kernel in microseconds.
    pcie_bandwidth_gbps:
        Effective host<->device link bandwidth in GB/s.
    pcie_latency_us:
        Per-transfer fixed link latency in microseconds.
    """

    name: str
    num_sms: int
    sm_clock_ghz: float
    tensor_tflops_fp16: float
    cuda_tflops_fp16: float
    hbm_bandwidth_gbps: float
    hbm_capacity_gb: float
    shared_mem_per_sm_kb: int = 164
    register_file_per_sm_kb: int = 256
    l2_cache_mb: float = 40.0
    max_threads_per_sm: int = 2048
    warp_size: int = 32
    kernel_launch_us: float = 6.0
    pcie_bandwidth_gbps: float = 25.0
    pcie_latency_us: float = 10.0
    nvlink_bandwidth_gbps: float = 300.0
    nvlink_latency_us: float = 3.0

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError(f"num_sms must be positive, got {self.num_sms}")
        if self.tensor_tflops_fp16 <= 0 or self.cuda_tflops_fp16 <= 0:
            raise ValueError("peak throughputs must be positive")
        if self.hbm_bandwidth_gbps <= 0:
            raise ValueError("hbm_bandwidth_gbps must be positive")

    # -- derived quantities ------------------------------------------------

    @property
    def tensor_flops(self) -> float:
        """Peak Tensor-core FP16 throughput in FLOP/s."""
        return self.tensor_tflops_fp16 * 1e12

    @property
    def cuda_flops(self) -> float:
        """Peak CUDA-core FP16 throughput in FLOP/s."""
        return self.cuda_tflops_fp16 * 1e12

    @property
    def hbm_bytes_per_s(self) -> float:
        """HBM bandwidth in bytes/s."""
        return self.hbm_bandwidth_gbps * 1e9

    @property
    def hbm_capacity_bytes(self) -> int:
        """Device memory capacity in bytes."""
        return int(self.hbm_capacity_gb * (1 << 30))

    @property
    def shared_mem_per_sm_bytes(self) -> int:
        """Shared memory per SM in bytes."""
        return self.shared_mem_per_sm_kb * 1024

    @property
    def register_file_per_sm_bytes(self) -> int:
        """Register file per SM in bytes."""
        return self.register_file_per_sm_kb * 1024

    @property
    def nvlink_bytes_per_s(self) -> float:
        """GPU-to-GPU interconnect bandwidth in bytes/s."""
        return self.nvlink_bandwidth_gbps * 1e9

    def flops_per_sm(self, tensor: bool = True) -> float:
        """Peak per-SM throughput in FLOP/s for the chosen core type."""
        total = self.tensor_flops if tensor else self.cuda_flops
        return total / self.num_sms


A100_80GB = GPUSpec(
    name="A100-80GB",
    num_sms=108,
    sm_clock_ghz=1.41,
    tensor_tflops_fp16=312.0,
    cuda_tflops_fp16=78.0,
    hbm_bandwidth_gbps=2039.0,
    hbm_capacity_gb=80.0,
    shared_mem_per_sm_kb=164,
    register_file_per_sm_kb=256,
    l2_cache_mb=40.0,
)

A100_40GB = GPUSpec(
    name="A100-40GB",
    num_sms=108,
    sm_clock_ghz=1.41,
    tensor_tflops_fp16=312.0,
    cuda_tflops_fp16=78.0,
    hbm_bandwidth_gbps=1555.0,
    hbm_capacity_gb=40.0,
)

A10 = GPUSpec(
    name="A10",
    num_sms=72,
    sm_clock_ghz=1.70,
    tensor_tflops_fp16=125.0,
    cuda_tflops_fp16=31.2,
    hbm_bandwidth_gbps=600.0,
    hbm_capacity_gb=24.0,
    shared_mem_per_sm_kb=100,
    l2_cache_mb=6.0,
)

H100_80GB = GPUSpec(
    name="H100-80GB",
    num_sms=132,
    sm_clock_ghz=1.98,
    tensor_tflops_fp16=989.0,
    cuda_tflops_fp16=133.8,
    hbm_bandwidth_gbps=3350.0,
    hbm_capacity_gb=80.0,
    shared_mem_per_sm_kb=228,
    l2_cache_mb=50.0,
)

_REGISTRY = {
    spec.name: spec for spec in (A100_80GB, A100_40GB, A10, H100_80GB)
}


def get_gpu(name: str) -> GPUSpec:
    """Return a registered :class:`GPUSpec` by name.

    Raises
    ------
    KeyError
        If ``name`` is not a registered device.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown GPU {name!r}; known devices: {known}") from None


def list_gpus() -> list:
    """Return the names of all registered devices, sorted."""
    return sorted(_REGISTRY)
