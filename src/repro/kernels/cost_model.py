"""Analytical latency model for tiled GEMM kernels.

This is the reproduction's stand-in for running CUDA kernels on an A100.
It models the mechanisms §3.2 / §4.3.1 / Fig. 12 attribute latency to:

* **Wave quantization / SM utilization** — a kernel with fewer thread
  blocks than SMs leaves SMs idle (Fig. 12b: Config 2 uses 64 of 108 SMs
  on a small input); a kernel whose block count is just above a multiple
  of the SM count pays a nearly-empty trailing wave.
* **Global-memory traffic** — each block re-reads its A and B tiles for
  every K-step, so small tiles amplify HBM traffic (Fig. 12a: Punica's
  small tiles launch more transfers).
* **Padding waste** — tiles overhanging the matrix edge still compute.
* **Split-K reduction traffic** — partial accumulators spill to global
  memory and are reduced.
* **Kernel-launch overhead** — fixed host cost per launch; Einsum-style
  implementations that launch per layer/adapter pay it repeatedly.
* **Warp-level occupancy** — a block with a single warp cannot keep the
  SM's Tensor pipes busy or hide shared-memory latency, so small-tile
  configurations (e.g. Punica's 16x64 block = 1 warp) run each block well
  below the per-SM peak.  This is why Table 1's Config 1 beats Punica on
  Input 1 even though both leave most SMs idle.
* **Pipelining** — double-buffered kernels (ATMM) overlap loads with
  math almost perfectly; single-buffered kernels overlap less.

All returns are **seconds**.  The model is deterministic; operator-level
jitter (Fig. 18) is injected by the operators, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.hardware.memory import FP16_BYTES
from repro.kernels.shapes import GemmShape, GroupedGemm
from repro.kernels.tiling import TilingConfig, TilingConfigSpace

@dataclass(frozen=True)
class KernelLaunch:
    """Accounting record for one kernel launch produced by an operator."""

    name: str
    seconds: float
    num_blocks: int
    flops: int


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class GemmCostModel:
    """Latency model for tiled GEMM on a specific GPU.

    Parameters
    ----------
    gpu:
        Device specification.
    mem_efficiency:
        Fraction of peak HBM bandwidth achievable by a well-coalesced
        kernel (DRAM pages, ECC); ~0.8 on A100 in practice.
    tensor_core_efficiency / cuda_core_efficiency:
        Fraction of peak math achievable once resident (pipe bubbles,
        instruction mix).
    overlap_residual:
        Fraction of the smaller of (compute, memory) time that is *not*
        hidden by overlap for a double-buffered kernel.  Single-buffered
        kernels pay ``overlap_residual_single``.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        mem_efficiency: float = 0.80,
        tensor_core_efficiency: float = 0.70,
        cuda_core_efficiency: float = 0.85,
        overlap_residual: float = 0.05,
        overlap_residual_single: float = 0.35,
    ):
        if not 0 < mem_efficiency <= 1:
            raise ValueError(f"mem_efficiency must be in (0,1], got {mem_efficiency}")
        self.gpu = gpu
        self.mem_efficiency = mem_efficiency
        self.tensor_core_efficiency = tensor_core_efficiency
        self.cuda_core_efficiency = cuda_core_efficiency
        self.overlap_residual = overlap_residual
        self.overlap_residual_single = overlap_residual_single
        # Methods are hot inside the serving engine; memoize on the
        # (hashable, frozen) shape/config dataclasses.
        self.gemm_seconds = lru_cache(maxsize=200_000)(self._gemm_seconds)  # type: ignore[method-assign]

    # -- block-level geometry ------------------------------------------------

    def num_blocks(self, shape: GemmShape, cfg: TilingConfig) -> int:
        """Thread blocks launched for ``shape`` under ``cfg``."""
        grid = _ceil_div(shape.m, cfg.bm) * _ceil_div(shape.n, cfg.bn)
        return grid * cfg.split_k

    def sm_utilization(self, blocks: int) -> float:
        """Average fraction of SMs busy across the kernel's waves."""
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        waves = _ceil_div(blocks, self.gpu.num_sms)
        return blocks / (waves * self.gpu.num_sms)

    #: Warps per block needed to saturate an SM's math pipes.
    WARPS_FOR_PEAK = 4
    #: Per-SM efficiency floor for a single-warp block.
    MIN_WARP_EFFICIENCY = 0.25

    def warp_efficiency(self, cfg: TilingConfig) -> float:
        """Per-SM math efficiency given the block's warp count.

        Scales sub-linearly up to :data:`WARPS_FOR_PEAK` warps (diminishing
        returns from dual-issue and latency hiding), capped at 1.
        """
        return self._warp_efficiency_from_count(cfg.warps_per_block)

    def _warp_efficiency_from_count(self, warps_per_block: int) -> float:
        frac = warps_per_block / self.WARPS_FOR_PEAK
        if frac >= 1.0:
            return 1.0
        return max(self.MIN_WARP_EFFICIENCY, frac ** 0.7)

    def _core_peak(self, cfg: TilingConfig) -> float:
        """Achievable FLOP/s at full SM occupancy for this config."""
        if cfg.tensor_cores:
            base = self.gpu.tensor_flops * self.tensor_core_efficiency
        else:
            base = self.gpu.cuda_flops * self.cuda_core_efficiency
        return base * self.warp_efficiency(cfg)

    #: Unhidden cycles per warp-level K iteration (address math, smem
    #: load-use latency, pipeline drain at the tile boundary).
    KSTEP_OVERHEAD_CYCLES = 60.0

    def _kstep_overhead_per_block(self, cfg: TilingConfig, k_per_split: int) -> float:
        """Serial per-block overhead from warp-level K iterations, seconds.

        A warp steps ``k_per_split / wk`` times through its K extent; each
        step carries fixed instruction overhead that a small ``wk``
        amortizes poorly (this is Fig. 12a's "more launching data transfer
        times" for Punica's small tiles).  Double buffering hides half of
        it.
        """
        iters = _ceil_div(k_per_split, cfg.wk)
        cycles = self.KSTEP_OVERHEAD_CYCLES * (1.0 if cfg.double_buffered else 2.0)
        return iters * cycles / (self.gpu.sm_clock_ghz * 1e9)

    # -- component times ----------------------------------------------------

    def _compute_seconds(self, shape: GemmShape, cfg: TilingConfig) -> float:
        """Math time: padded FLOPs over the achievable roofline."""
        blocks = self.num_blocks(shape, cfg)
        k_per_split = _ceil_div(shape.k, cfg.split_k)
        ksteps = _ceil_div(k_per_split, cfg.bk)
        # Every block multiplies full tiles, padding included.
        padded_flops = blocks * (cfg.bm * cfg.bn) * (ksteps * cfg.bk) * 2
        util = self.sm_utilization(blocks)
        math_time = padded_flops / (self._core_peak(cfg) * util)
        # Overheads serialize per block; blocks/(SMs*util) = wave count.
        overhead = (
            self._kstep_overhead_per_block(cfg, k_per_split)
            * blocks / (self.gpu.num_sms * util)
        )
        return math_time + overhead

    def _memory_seconds(self, shape: GemmShape, cfg: TilingConfig) -> float:
        """HBM time: tile loads (with K-step redundancy) + output traffic."""
        blocks = self.num_blocks(shape, cfg)
        k_per_split = _ceil_div(shape.k, cfg.split_k)
        ksteps = _ceil_div(k_per_split, cfg.bk)
        load_bytes = blocks * ksteps * cfg.smem_tile_bytes
        out_bytes = blocks * cfg.bm * cfg.bn * FP16_BYTES
        if cfg.split_k > 1:
            # FP32 partials written by each split and re-read by the
            # reduction pass, then the final FP16 store.
            grid = blocks // cfg.split_k
            partial = grid * cfg.bm * cfg.bn * 4
            out_bytes = partial * cfg.split_k * 2 + out_bytes
        total = load_bytes + out_bytes
        return total / (self.gpu.hbm_bytes_per_s * self.mem_efficiency)

    # -- public API -----------------------------------------------------------

    def _gemm_seconds(self, shape: GemmShape, cfg: TilingConfig) -> float:
        """In-kernel latency of one GEMM (no launch overhead)."""
        c = self._compute_seconds(shape, cfg)
        m = self._memory_seconds(shape, cfg)
        residual = (
            self.overlap_residual if cfg.double_buffered
            else self.overlap_residual_single
        )
        return max(c, m) + residual * min(c, m)

    def gemm_seconds_batch(
        self,
        shapes: Sequence[GemmShape],
        configs: Union[TilingConfigSpace, Sequence[TilingConfig]],
        config_idx: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In-kernel latency for the whole ``shapes x configs`` grid.

        Vectorized twin of :meth:`gemm_seconds`: returns a float64 array
        of shape ``(len(shapes), n_configs)`` whose every cell is
        **bit-identical** to the scalar evaluation (property-tested in
        ``tests/kernels/test_search_vectorized.py``).  Bit-identity
        holds because each scalar arithmetic step maps 1:1 onto an array
        op in the same order: all block/byte counts stay exact in int64
        (well under 2^53, so int->float conversion at the division sites
        rounds identically to CPython), and the per-config scalars that
        involve transcendental math (``warp_efficiency``'s power) are
        computed per distinct warp count with ordinary Python floats and
        broadcast.

        Parameters
        ----------
        shapes:
            Problems to evaluate (rows).
        configs:
            A :class:`~repro.kernels.tiling.TilingConfigSpace` or an
            explicit configuration sequence (columns).
        config_idx:
            Optional row indices restricting ``configs`` to a subset —
            used by the search's dominance pruning to sweep survivors
            without rebuilding column arrays.
        """
        if not isinstance(configs, TilingConfigSpace):
            configs = TilingConfigSpace.from_configs(configs)
        gpu = self.gpu
        sms = gpu.num_sms

        m = np.array([p.m for p in shapes], dtype=np.int64)[:, None]
        k = np.array([p.k for p in shapes], dtype=np.int64)[:, None]
        n = np.array([p.n for p in shapes], dtype=np.int64)[:, None]

        def col(a: np.ndarray) -> np.ndarray:
            return (a if config_idx is None else a[config_idx])[None, :]

        bm, bk, bn = col(configs.bm), col(configs.bk), col(configs.bn)
        wk = col(configs.wk)
        split_k = col(configs.split_k)
        smem = col(configs.smem_tile_bytes)
        warps = col(configs.warps_per_block)
        tc = col(configs.tensor_cores)
        db = col(configs.double_buffered)

        # Per-config model scalars, computed with Python floats exactly
        # as the scalar path does, then broadcast.
        eff = np.empty(warps.shape, dtype=np.float64)
        for w in np.unique(warps):
            eff[warps == w] = self._warp_efficiency_from_count(int(w))
        base_tensor = gpu.tensor_flops * self.tensor_core_efficiency
        base_cuda = gpu.cuda_flops * self.cuda_core_efficiency
        core_peak = np.where(tc, base_tensor, base_cuda) * eff
        cycles = self.KSTEP_OVERHEAD_CYCLES * np.where(db, 1.0, 2.0)
        residual = np.where(
            db, self.overlap_residual, self.overlap_residual_single
        )

        # -- geometry (exact int64, mirrors num_blocks/sm_utilization) --
        bmbn = bm * bn
        blocks = (-(-m // bm)) * (-(-n // bn)) * split_k
        waves = -(-blocks // sms)
        util = blocks / (waves * sms)
        k_per_split = -(-k // split_k)
        ksteps = -(-k_per_split // bk)

        # -- _compute_seconds ------------------------------------------
        padded_flops = blocks * bmbn * (ksteps * bk) * 2
        math_time = padded_flops / (core_peak * util)
        iters = -(-k_per_split // wk)
        kstep_overhead = iters * cycles / (gpu.sm_clock_ghz * 1e9)
        compute = math_time + kstep_overhead * blocks / (sms * util)

        # -- _memory_seconds -------------------------------------------
        load_bytes = blocks * ksteps * smem
        out_bytes = blocks * bmbn * FP16_BYTES
        grid = blocks // split_k
        split_out = (grid * bmbn * 4) * split_k * 2 + out_bytes
        total_bytes = load_bytes + np.where(split_k > 1, split_out, out_bytes)
        memory = total_bytes / (gpu.hbm_bytes_per_s * self.mem_efficiency)

        return (np.maximum(compute, memory)
                + residual * np.minimum(compute, memory))

    def launch_seconds(self, num_launches: int = 1) -> float:
        """Host-side launch overhead for ``num_launches`` kernels."""
        if num_launches < 0:
            raise ValueError(f"num_launches must be >= 0, got {num_launches}")
        return num_launches * self.gpu.kernel_launch_us * 1e-6

    def gemm_with_launch(self, shape: GemmShape, cfg: TilingConfig) -> float:
        """One GEMM including a single kernel launch."""
        return self.gemm_seconds(shape, cfg) + self.launch_seconds(1)

    def grouped_seconds(
        self, grouped: GroupedGemm, cfg: TilingConfig
    ) -> float:
        """Grouped GEMM executed in **one** kernel launch under one config.

        This is the S-LoRA / Punica / ATMM execution style: the block grids
        of all groups are concatenated into one launch, so SM utilization
        is computed over the *total* block count while per-group tile
        geometry (and padding waste) is preserved.
        """
        # Loop invariants hoisted (the call sits under the engine's cost
        # cache misses): every hoisted value is the same expression the
        # per-group code evaluated, computed once, so each group's float
        # contributions are bit-identical to the unhoisted loop's.
        bm, bn, bk = cfg.bm, cfg.bn, cfg.bk
        split_k, wk = cfg.split_k, cfg.wk
        bmbn = bm * bn
        smem_tile = cfg.smem_tile_bytes
        core_peak = self._core_peak(cfg)
        num_sms = self.gpu.num_sms
        mem_bw = self.gpu.hbm_bytes_per_s * self.mem_efficiency
        kstep_cycles = self.KSTEP_OVERHEAD_CYCLES * (
            1.0 if cfg.double_buffered else 2.0
        )
        clock_hz = self.gpu.sm_clock_ghz * 1e9
        geometry = [
            (p, _ceil_div(p.m, bm) * _ceil_div(p.n, bn) * split_k)
            for p in grouped.problems
        ]
        util = self.sm_utilization(sum(b for _, b in geometry))
        compute = 0.0
        memory = 0.0
        for p, blocks in geometry:
            k_per_split = _ceil_div(p.k, split_k)
            ksteps = _ceil_div(k_per_split, bk)
            padded_flops = blocks * bmbn * (ksteps * bk) * 2
            compute += padded_flops / core_peak
            compute += (
                (_ceil_div(k_per_split, wk) * kstep_cycles / clock_hz)
                * blocks / num_sms
            )
            load_bytes = blocks * ksteps * smem_tile
            out_bytes = blocks * bmbn * FP16_BYTES
            if split_k > 1:
                grid = blocks // split_k
                partial = grid * bmbn * 4
                out_bytes = partial * split_k * 2 + out_bytes
            memory += (load_bytes + out_bytes) / mem_bw
        compute /= util
        residual = (
            self.overlap_residual if cfg.double_buffered
            else self.overlap_residual_single
        )
        in_kernel = max(compute, memory) + residual * min(compute, memory)
        return in_kernel + self.launch_seconds(1)

    def grouped_seconds_mnk(
        self, ms: Sequence[int], ks: Sequence[int], ns: Sequence[int],
        cfg: TilingConfig,
    ) -> float:
        """Bit-identical twin of :meth:`grouped_seconds` over parallel
        ``(m, k, n)`` integer lists.

        The serving engine's LoRA extra-cost tower evaluates thousands
        of small grouped GEMMs per run; taking the dimensions directly
        skips the per-call :class:`GemmShape`/:class:`GroupedGemm`
        wrapper churn while every arithmetic expression — and therefore
        every rounding — matches :meth:`grouped_seconds` exactly (same
        hoisted invariants, same per-group accumulation order).
        """
        bm, bn, bk = cfg.bm, cfg.bn, cfg.bk
        split_k, wk = cfg.split_k, cfg.wk
        bmbn = bm * bn
        smem_tile = cfg.smem_tile_bytes
        core_peak = self._core_peak(cfg)
        num_sms = self.gpu.num_sms
        mem_bw = self.gpu.hbm_bytes_per_s * self.mem_efficiency
        kstep_cycles = self.KSTEP_OVERHEAD_CYCLES * (
            1.0 if cfg.double_buffered else 2.0
        )
        clock_hz = self.gpu.sm_clock_ghz * 1e9
        blocks_list = [
            _ceil_div(m, bm) * _ceil_div(n, bn) * split_k
            for m, n in zip(ms, ns)
        ]
        util = self.sm_utilization(sum(blocks_list))
        compute = 0.0
        memory = 0.0
        for k, blocks in zip(ks, blocks_list):
            k_per_split = _ceil_div(k, split_k)
            ksteps = _ceil_div(k_per_split, bk)
            padded_flops = blocks * bmbn * (ksteps * bk) * 2
            compute += padded_flops / core_peak
            compute += (
                (_ceil_div(k_per_split, wk) * kstep_cycles / clock_hz)
                * blocks / num_sms
            )
            load_bytes = blocks * ksteps * smem_tile
            out_bytes = blocks * bmbn * FP16_BYTES
            if split_k > 1:
                grid = blocks // split_k
                partial = grid * bmbn * 4
                out_bytes = partial * split_k * 2 + out_bytes
            memory += (load_bytes + out_bytes) / mem_bw
        compute /= util
        residual = (
            self.overlap_residual if cfg.double_buffered
            else self.overlap_residual_single
        )
        in_kernel = max(compute, memory) + residual * min(compute, memory)
        return in_kernel + self.launch_seconds(1)

    def batched_padded_seconds(
        self, grouped: GroupedGemm, cfg: TilingConfig,
        extra_launches: int = 0,
    ) -> float:
        """Grouped GEMM executed as a **padded batched GEMM** (dLoRA style).

        Every problem is padded to the max ``m`` and max ``n`` of the
        group — the padding waste §4.3.1 pins on batched GEMM — and the
        batch runs in one launch plus ``extra_launches`` auxiliary kernels
        (Einsum's reshape/permute passes).
        """
        padded = grouped.padded_batch()
        total_blocks = sum(self.num_blocks(p, cfg) for p in padded.problems)
        util = self.sm_utilization(total_blocks)
        compute = sum(self._compute_blockless(p, cfg) for p in padded.problems)
        memory = sum(self._memory_seconds(p, cfg) for p in padded.problems)
        compute /= util
        residual = (
            self.overlap_residual if cfg.double_buffered
            else self.overlap_residual_single
        )
        in_kernel = max(compute, memory) + residual * min(compute, memory)
        return in_kernel + self.launch_seconds(1 + extra_launches)

    def _compute_blockless(self, shape: GemmShape, cfg: TilingConfig) -> float:
        """Compute time at full utilization (utilization applied by caller)."""
        blocks = self.num_blocks(shape, cfg)
        k_per_split = _ceil_div(shape.k, cfg.split_k)
        ksteps = _ceil_div(k_per_split, cfg.bk)
        padded_flops = blocks * (cfg.bm * cfg.bn) * (ksteps * cfg.bk) * 2
        t = padded_flops / self._core_peak(cfg)
        t += (
            self._kstep_overhead_per_block(cfg, k_per_split)
            * blocks / self.gpu.num_sms
        )
        return t

    def breakdown(self, shape: GemmShape, cfg: TilingConfig) -> dict:
        """Explain one (shape, config) evaluation.

        Returns the model's intermediate quantities — block count, SM
        utilization, warp efficiency, compute vs memory time — so tools
        (and the tiling explorer) can show *why* a configuration wins.
        """
        blocks = self.num_blocks(shape, cfg)
        k_per_split = _ceil_div(shape.k, cfg.split_k)
        ksteps = _ceil_div(k_per_split, cfg.bk)
        padded_flops = blocks * (cfg.bm * cfg.bn) * (ksteps * cfg.bk) * 2
        compute = self._compute_seconds(shape, cfg)
        memory = self._memory_seconds(shape, cfg)
        return {
            "blocks": blocks,
            "waves": _ceil_div(blocks, self.gpu.num_sms),
            "sm_utilization": self.sm_utilization(blocks),
            "warp_efficiency": self.warp_efficiency(cfg),
            "padded_flops": padded_flops,
            "useful_flops": shape.flops,
            "padding_waste": 1.0 - shape.flops / padded_flops,
            "compute_seconds": compute,
            "memory_seconds": memory,
            "bound": "compute" if compute >= memory else "memory",
            "total_seconds": self.gemm_seconds(shape, cfg),
        }

    def elementwise_seconds(self, nbytes_touched: int) -> float:
        """Memory-bound elementwise pass (e.g. ΔW add/subtract during merge)."""
        if nbytes_touched < 0:
            raise ValueError(f"nbytes_touched must be >= 0, got {nbytes_touched}")
        return nbytes_touched / (self.gpu.hbm_bytes_per_s * self.mem_efficiency)
