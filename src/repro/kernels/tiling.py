"""Tiling configurations and hardware-validity rules (§4.3.1).

A tiled GEMM splits the ``(M×K) @ (K×N)`` problem into *thread-block
tiles*: each block computes a ``bm × bn`` output tile, marching over K in
``bk``-wide steps.  Inside a block, *warp tiles* of ``wm × wn`` (stepping
``wk`` over the block's K-chunk) are assigned to warps.  Table 1 writes a
configuration as ``(a, b, c, d, e, f)`` = thread-block tiles ``a×b``,
``b×c`` and warp tiles ``d×e``, ``e×f``; in our notation that is
``(bm, bk, bn, wm, wk, wn)``.

We additionally model *split-K* (``split_k`` partitions of the K dimension
computed by separate blocks and reduced at the end).  Split-K is how
fine-grained kernels such as S-LoRA's keep SMs busy on the tiny ``M``
shapes of the decode stage, at the price of extra reduction traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.hardware.memory import FP16_BYTES, MemoryHierarchy

#: Minimum tile dimension the hardware supports (Tensor-core fragment).
MIN_TILE = 16

#: Maximum warps a thread block may hold (1024 threads / 32).
MAX_WARPS_PER_BLOCK = 32


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class TilingConfig:
    """One tiling configuration for a tiled GEMM kernel.

    Attributes
    ----------
    bm, bk, bn:
        Thread-block tile: the block computes ``bm × bn`` output,
        stepping ``bk`` along K.
    wm, wk, wn:
        Warp tile within the block.
    split_k:
        Number of K-partitions computed by distinct blocks (1 = no split).
    double_buffered:
        Whether the kernel double-buffers tile staging (ATMM does; §4.3.1
        "pipeline data loading and computing").
    tensor_cores:
        Whether the inner product runs on Tensor cores (requires 16-aligned
        warp tiles) or CUDA cores.
    """

    bm: int
    bk: int
    bn: int
    wm: int
    wk: int
    wn: int
    split_k: int = 1
    double_buffered: bool = True
    tensor_cores: bool = True

    def __post_init__(self) -> None:
        for name in ("bm", "bk", "bn", "wm", "wk", "wn"):
            v = getattr(self, name)
            if v < MIN_TILE:
                raise ValueError(f"{name}={v} below hardware minimum {MIN_TILE}")
            if not _is_pow2(v):
                raise ValueError(f"{name}={v} must be a power of two")
        if self.wm > self.bm or self.wn > self.bn or self.wk > self.bk:
            raise ValueError(f"warp tile exceeds block tile in {self}")
        if self.bm % self.wm or self.bn % self.wn or self.bk % self.wk:
            raise ValueError(f"warp tile must evenly divide block tile in {self}")
        if self.split_k < 1:
            raise ValueError(f"split_k must be >= 1, got {self.split_k}")
        if self.warps_per_block > MAX_WARPS_PER_BLOCK:
            raise ValueError(
                f"{self.warps_per_block} warps/block exceeds "
                f"{MAX_WARPS_PER_BLOCK}"
            )

    # -- derived -----------------------------------------------------------

    @property
    def warps_per_block(self) -> int:
        return (self.bm // self.wm) * (self.bn // self.wn)

    @property
    def smem_tile_bytes(self) -> int:
        """Shared-memory bytes staged per K-step (A tile + B tile)."""
        return FP16_BYTES * (self.bm * self.bk + self.bk * self.bn)

    @property
    def regfile_warp_bytes(self) -> int:
        """Register bytes per warp: accumulator (FP32) + operand fragments."""
        acc = 4 * self.wm * self.wn
        frag = FP16_BYTES * (self.wm * self.wk + self.wk * self.wn)
        return acc + frag

    def is_valid_for(self, gpu: GPUSpec) -> bool:
        """Whether this configuration can run on ``gpu`` at all."""
        hier = MemoryHierarchy(gpu)
        if not hier.smem_fits(self.smem_tile_bytes, self.double_buffered):
            return False
        if not hier.regfile_fits(
            self.regfile_warp_bytes, self.warps_per_block, self.double_buffered
        ):
            return False
        return True

    def as_tuple(self) -> tuple:
        """Table-1 style ``(bm, bk, bn, wm, wk, wn)`` tuple."""
        return (self.bm, self.bk, self.bn, self.wm, self.wk, self.wn)

    def __str__(self) -> str:
        extra = f", split_k={self.split_k}" if self.split_k > 1 else ""
        return f"Tiling{self.as_tuple()}{extra}"


#: Punica's static configuration (Table 1, first row).
PUNICA_CONFIG = TilingConfig(bm=16, bk=64, bn=64, wm=16, wk=16, wn=64)

#: S-LoRA's fine-grained CUDA-core kernel: tiny tiles plus split-K so tiny
#: decode shapes still fill the SMs; runs on CUDA cores, not Tensor cores.
SLORA_CONFIG = TilingConfig(
    bm=16, bk=32, bn=16, wm=16, wk=16, wn=16, split_k=4, tensor_cores=False
)

#: Table 1's Config 1 — balanced mid-size tiles.
CONFIG_1 = TilingConfig(bm=64, bk=32, bn=32, wm=32, wk=32, wn=32)

#: Table 1's Config 2 — large tiles, best for large inputs.
CONFIG_2 = TilingConfig(bm=128, bk=64, bn=128, wm=64, wk=32, wn=64)


_BLOCK_DIMS = (16, 32, 64, 128, 256)
_WARP_DIMS = (16, 32, 64)
_SPLIT_KS = (1, 2, 4, 8)


def enumerate_configs(
    gpu: GPUSpec,
    include_split_k: bool = True,
    tensor_cores: Optional[bool] = None,
) -> List[TilingConfig]:
    """Enumerate all hardware-valid tiling configurations for ``gpu``.

    This is the search space of Algorithm 2.  Expert-knowledge pruning
    (§4.3.2): every dimension is a power of two and at least 16; tiles must
    fit double-buffered in shared memory / the register file; warps per
    block are bounded.

    Parameters
    ----------
    gpu:
        Target device.
    include_split_k:
        Whether to include split-K variants (enlarges the space ~4x).
    tensor_cores:
        Restrict to Tensor-core (True) or CUDA-core (False) kernels;
        ``None`` includes both.
    """
    core_options = (True, False) if tensor_cores is None else (tensor_cores,)
    split_options = _SPLIT_KS if include_split_k else (1,)
    out: List[TilingConfig] = []
    for cfg in _enumerate_raw(core_options, split_options):
        if cfg.is_valid_for(gpu):
            out.append(cfg)
    return out


def canonical_key(cfg: TilingConfig) -> Tuple[int, ...]:
    """Total order over configurations matching the enumeration order.

    ``enumerate_configs`` already yields configurations in this order;
    the explicit key exists so every consumer (the scalar argmin, the
    vectorized argmin, and reloaded tables) can *assert* a stable
    ordering rather than rely on enumeration happening to be sorted.
    Ties in the cost model are broken by the first configuration under
    this order.
    """
    return (
        cfg.bm, cfg.bk, cfg.bn, cfg.wm, cfg.wk, cfg.wn,
        0 if cfg.tensor_cores else 1,
        cfg.split_k,
        0 if cfg.double_buffered else 1,
    )


class TilingConfigSpace:
    """Struct-of-arrays view of a set of tiling configurations.

    The vectorized search sweeps thousands of configurations per shape;
    materializing a :class:`TilingConfig` per candidate (with its
    ``__post_init__`` validation) dominated the seed's ahead-of-time
    cost.  This class keeps the whole space as parallel numpy columns —
    in the same canonical order as :func:`enumerate_configs` — and only
    materializes ``TilingConfig`` objects for winners, on demand.
    """

    def __init__(
        self,
        bm: np.ndarray, bk: np.ndarray, bn: np.ndarray,
        wm: np.ndarray, wk: np.ndarray, wn: np.ndarray,
        split_k: np.ndarray,
        tensor_cores: np.ndarray,
        double_buffered: np.ndarray,
    ):
        self.bm = bm
        self.bk = bk
        self.bn = bn
        self.wm = wm
        self.wk = wk
        self.wn = wn
        self.split_k = split_k
        self.tensor_cores = tensor_cores
        self.double_buffered = double_buffered
        lengths = {len(a) for a in self._arrays()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        self._config_cache: dict = {}

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.bm, self.bk, self.bn, self.wm, self.wk, self.wn,
                self.split_k, self.tensor_cores, self.double_buffered)

    def __len__(self) -> int:
        return len(self.bm)

    # -- derived columns ----------------------------------------------------

    @property
    def warps_per_block(self) -> np.ndarray:
        return (self.bm // self.wm) * (self.bn // self.wn)

    @property
    def smem_tile_bytes(self) -> np.ndarray:
        return FP16_BYTES * (self.bm * self.bk + self.bk * self.bn)

    # -- construction -------------------------------------------------------

    @classmethod
    def enumerate_space(
        cls,
        gpu: GPUSpec,
        include_split_k: bool = True,
        tensor_cores: Optional[bool] = None,
    ) -> "TilingConfigSpace":
        """Vectorized equivalent of :func:`enumerate_configs`.

        Produces the identical configuration sequence (asserted by
        tests) without constructing the intermediate objects: candidate
        tuples come from the same nested loops, the shared-memory and
        register-file validity rules are applied as array masks.
        """
        core_options = (True, False) if tensor_cores is None else (tensor_cores,)
        split_options = _SPLIT_KS if include_split_k else (1,)
        rows: List[Tuple[int, int, int, int, int, int, int, bool]] = []
        for bm in _BLOCK_DIMS:
            for bk in _BLOCK_DIMS:
                for bn in _BLOCK_DIMS:
                    for wm in _WARP_DIMS:
                        if wm > bm or bm % wm:
                            continue
                        for wk in _WARP_DIMS:
                            if wk > bk or bk % wk:
                                continue
                            for wn in _WARP_DIMS:
                                if wn > bn or bn % wn:
                                    continue
                                if (bm // wm) * (bn // wn) > MAX_WARPS_PER_BLOCK:
                                    continue
                                for tc in core_options:
                                    for sk in split_options:
                                        rows.append(
                                            (bm, bk, bn, wm, wk, wn, sk, tc)
                                        )
        if not rows:
            return cls(*(np.empty(0, dtype=np.int64) for _ in range(7)),
                       np.empty(0, dtype=bool), np.empty(0, dtype=bool))
        cols = np.array([r[:7] for r in rows], dtype=np.int64).T
        tc_col = np.array([r[7] for r in rows], dtype=bool)
        db_col = np.ones(len(rows), dtype=bool)
        space = cls(*cols, tc_col, db_col)
        # Hardware validity (TilingConfig.is_valid_for), vectorized.
        # Enumeration always builds double-buffered kernels, so both
        # capacity checks reserve twice the working set.
        smem_ok = space.smem_tile_bytes * 2 <= gpu.shared_mem_per_sm_bytes
        regfile_warp_bytes = (
            4 * space.wm * space.wn
            + FP16_BYTES * (space.wm * space.wk + space.wk * space.wn)
        )
        regfile_ok = (
            regfile_warp_bytes * space.warps_per_block * 2
            <= gpu.register_file_per_sm_bytes
        )
        return space.select(smem_ok & regfile_ok)

    @classmethod
    def from_configs(cls, configs: Sequence[TilingConfig]) -> "TilingConfigSpace":
        """Column view of an explicit configuration list (order preserved)."""
        configs = list(configs)
        def col(attr, dtype):
            return np.array([getattr(c, attr) for c in configs], dtype=dtype)
        space = cls(
            col("bm", np.int64), col("bk", np.int64), col("bn", np.int64),
            col("wm", np.int64), col("wk", np.int64), col("wn", np.int64),
            col("split_k", np.int64),
            col("tensor_cores", bool), col("double_buffered", bool),
        )
        space._config_cache = dict(enumerate(configs))
        return space

    def select(self, mask_or_index: np.ndarray) -> "TilingConfigSpace":
        """Sub-space keeping only the masked/indexed rows, order preserved."""
        return TilingConfigSpace(*(a[mask_or_index] for a in self._arrays()))

    # -- materialization ----------------------------------------------------

    def config(self, i: int) -> TilingConfig:
        """Materialize (and cache) the i-th configuration."""
        i = int(i)
        cfg = self._config_cache.get(i)
        if cfg is None:
            cfg = TilingConfig(
                bm=int(self.bm[i]), bk=int(self.bk[i]), bn=int(self.bn[i]),
                wm=int(self.wm[i]), wk=int(self.wk[i]), wn=int(self.wn[i]),
                split_k=int(self.split_k[i]),
                double_buffered=bool(self.double_buffered[i]),
                tensor_cores=bool(self.tensor_cores[i]),
            )
            self._config_cache[i] = cfg
        return cfg

    def configs(self) -> List[TilingConfig]:
        """Materialize the full list (the scalar search path uses this)."""
        return [self.config(i) for i in range(len(self))]


def _enumerate_raw(core_options, split_options) -> Iterator[TilingConfig]:
    for bm in _BLOCK_DIMS:
        for bk in _BLOCK_DIMS:
            for bn in _BLOCK_DIMS:
                for wm in _WARP_DIMS:
                    if wm > bm or bm % wm:
                        continue
                    for wk in _WARP_DIMS:
                        if wk > bk or bk % wk:
                            continue
                        for wn in _WARP_DIMS:
                            if wn > bn or bn % wn:
                                continue
                            warps = (bm // wm) * (bn // wn)
                            if warps > MAX_WARPS_PER_BLOCK:
                                continue
                            for tc in core_options:
                                for sk in split_options:
                                    yield TilingConfig(
                                        bm=bm, bk=bk, bn=bn,
                                        wm=wm, wk=wk, wn=wn,
                                        split_k=sk, tensor_cores=tc,
                                    )
