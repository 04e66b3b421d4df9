"""Memory hierarchy and host-transfer model.

Two concerns live here:

* :class:`MemoryHierarchy` — capacity checks used by the tiling validity
  rules (a thread-block tile must fit, double-buffered, in shared memory;
  warp tiles must fit in the register file).
* :class:`TransferModel` / :class:`HostLink` — latency of moving bytes
  between host and device.  This is what makes LoRA-adapter swap (~43 MB)
  cheap relative to small-model swap (§3.1: 15 ms vs 110-520 ms) and what
  makes pre-computed-ΔW swap (~3 GB) prohibitively slow (§4.4.1: ~1 s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.gpu import GPUSpec

FP16_BYTES = 2


@dataclass(frozen=True)
class HostLink:
    """A host<->device link with bandwidth and fixed per-transfer latency."""

    bandwidth_gbps: float
    latency_us: float = 10.0

    def transfer_seconds(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across the link, in seconds."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency_us * 1e-6 + nbytes / (self.bandwidth_gbps * 1e9)


class MemoryHierarchy:
    """Capacity view over a :class:`GPUSpec` used for tiling validity."""

    def __init__(self, gpu: GPUSpec):
        self.gpu = gpu

    def smem_fits(self, tile_bytes: int, double_buffered: bool = True) -> bool:
        """Whether a thread-block tile's staging buffers fit in shared memory.

        ATMM double-buffers every tile (one buffer computing, one
        prefetching), so the default check reserves twice the tile bytes.
        """
        factor = 2 if double_buffered else 1
        return tile_bytes * factor <= self.gpu.shared_mem_per_sm_bytes

    def regfile_fits(self, warp_tile_bytes: int, warps_per_block: int,
                     double_buffered: bool = True) -> bool:
        """Whether the per-block register working set fits the register file."""
        factor = 2 if double_buffered else 1
        need = warp_tile_bytes * warps_per_block * factor
        return need <= self.gpu.register_file_per_sm_bytes

    def hbm_fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` fits in device memory."""
        return 0 <= nbytes <= self.gpu.hbm_capacity_bytes


class TransferModel:
    """Latency model for host<->device movement of model state.

    The paper's numbers (measured on A100 + PCIe 4):

    * LoRA adapter (A, B only, rank 64): ~43 MB -> ~15 ms including
      framework overhead.
    * YOLO small model: ~110 ms; OSCAR: ~520 ms.
    * Pre-computed all-layer ΔW for Qwen-VL-7B: ~3 GB -> ~1 s.

    A pure bandwidth model would put 43 MB at ~1.7 ms; the measured 15 ms
    includes allocator and framework overhead, which we model as a fixed
    per-swap software cost.
    """

    #: fixed software overhead per swap operation (allocator, stream sync)
    SWAP_SOFTWARE_OVERHEAD_S = 13e-3

    def __init__(self, gpu: GPUSpec):
        self.gpu = gpu
        self.link = HostLink(gpu.pcie_bandwidth_gbps, gpu.pcie_latency_us)

    def raw_transfer_seconds(self, nbytes: int) -> float:
        """Pure link time for ``nbytes`` (no software overhead)."""
        return self.link.transfer_seconds(nbytes)

    def swap_seconds(self, nbytes: int, async_overlap: float = 0.0,
                     software_overhead_s: float = None) -> float:
        """End-to-end swap latency for ``nbytes`` of model state.

        Parameters
        ----------
        nbytes:
            Payload size.
        async_overlap:
            Fraction in ``[0, 1]`` of the *transfer* hidden behind compute
            (V-LoRA swaps adapters asynchronously; §5 "LoRA adapter swap").
            The software overhead is never hidden.
        software_overhead_s:
            Per-swap software cost.  Defaults to
            :data:`SWAP_SOFTWARE_OVERHEAD_S` (framework allocation +
            layer binding).  V-LoRA's pre-allocated contiguous adapter
            slots reduce a swap to a plain memcpy (§4.4.1), so its
            manager passes a much smaller value.
        """
        if not 0.0 <= async_overlap <= 1.0:
            raise ValueError(f"async_overlap must be in [0,1], got {async_overlap}")
        overhead = (self.SWAP_SOFTWARE_OVERHEAD_S
                    if software_overhead_s is None else software_overhead_s)
        if overhead < 0:
            raise ValueError(f"software_overhead_s must be >= 0, got {overhead}")
        wire = self.raw_transfer_seconds(nbytes)
        return overhead + wire * (1.0 - async_overlap)
