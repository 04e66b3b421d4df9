"""Adapter registry and GPU residency with asynchronous swap.

V-LoRA keeps the A/B matrices (tens of MB) resident in pre-allocated GPU
slots and swaps cold adapters to host memory asynchronously (§5 "LoRA
adapter swap"): the wire time largely overlaps with ongoing compute, so
a swap-in stalls the pipeline only for the un-overlapped remainder.
Baselines swap synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hardware.memory import TransferModel
from repro.models.lora import LoRAAdapterSpec


@dataclass(slots=True)
class _Residency:
    spec: LoRAAdapterSpec
    #: Position in registration order (the order of :attr:`resident_ids`).
    order: int
    on_gpu: bool = False
    last_used: float = 0.0


class AdapterManager:
    """Tracks which adapters are GPU-resident and costs swap-ins."""

    #: Per-swap software cost with pre-allocated contiguous slots: the
    #: swap is a plain async memcpy plus a pointer update (§4.4.1).
    PREALLOCATED_SLOT_OVERHEAD_S = 1.5e-3
    #: Fraction of an async swap's wire time hidden behind compute.
    ASYNC_OVERLAP = 0.85

    def __init__(
        self,
        specs: Sequence[LoRAAdapterSpec],
        gpu_slots: int,
        transfer_model: TransferModel,
        async_swap: bool = True,
    ):
        if gpu_slots <= 0:
            raise ValueError(f"gpu_slots must be positive, got {gpu_slots}")
        if not specs:
            raise ValueError("need at least one adapter spec")
        ids = [s.adapter_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate adapter ids in {ids}")
        self.gpu_slots = gpu_slots
        self.transfer = transfer_model
        self.async_swap = async_swap
        self.async_overlap = self.ASYNC_OVERLAP if async_swap else 0.0
        # Pre-allocated slots go together with the async design: both
        # are parts of V-LoRA's adapter memory management.
        self.swap_software_overhead_s = (
            self.PREALLOCATED_SLOT_OVERHEAD_S if async_swap else None
        )
        self._adapters: Dict[str, _Residency] = {
            s.adapter_id: _Residency(s, i) for i, s in enumerate(specs)
        }
        #: The GPU-resident entries, kept as they change, so residency
        #: queries and eviction cost O(slots), not O(catalog).
        self._resident: Dict[str, _Residency] = {}
        #: Soft-pinned adapter ids (fleet placement's hot replicas):
        #: eviction prefers unpinned victims but may still evict a pin
        #: under slot pressure — pins bias, they never deadlock.
        self.pinned: set = set()
        #: Injected swap-in failures observed (fault injection).
        self.swap_failures = 0
        self._swap_ins = 0
        # Warm start: the first adapters are resident (offline phase loads
        # them before serving begins).
        for res in list(self._adapters.values())[:gpu_slots]:
            self._load(res)

    # -- queries -------------------------------------------------------------

    def spec(self, adapter_id: str) -> LoRAAdapterSpec:
        return self._entry(adapter_id).spec

    def is_resident(self, adapter_id: str) -> bool:
        return self._entry(adapter_id).on_gpu

    @property
    def resident_ids(self) -> List[str]:
        """GPU-resident adapter ids, in registration order."""
        return sorted(self._resident,
                      key=lambda a: self._resident[a].order)

    @property
    def adapter_ids(self) -> List[str]:
        """All registered adapter ids, in registration order."""
        return list(self._adapters)

    @property
    def num_adapters(self) -> int:
        return len(self._adapters)

    def _entry(self, adapter_id: str) -> _Residency:
        entry = self._adapters.get(adapter_id)
        if entry is None:
            known = ", ".join(sorted(self._adapters))
            raise KeyError(f"unknown adapter {adapter_id!r}; known: {known}")
        return entry

    # -- residency ----------------------------------------------------------------

    def ensure_resident(self, adapter_ids: Sequence[str], now: float) -> float:
        """Make all of ``adapter_ids`` GPU-resident; return the stall time.

        Missing adapters are swapped in (evicting the least-recently-used
        resident adapters not in the requested set).  With async swap most
        of the wire time hides behind compute; the returned stall is what
        the engine must still wait.
        """
        stall, failed = self.try_ensure_resident(adapter_ids, now)
        assert not failed  # no injector -> swaps cannot fail
        return stall

    def try_ensure_resident(
        self, adapter_ids: Sequence[str], now: float, injector=None,
    ) -> "tuple[float, List[str]]":
        """Fault-aware residency: returns ``(stall_seconds, failed_ids)``.

        With a :class:`~repro.runtime.faults.FaultInjector`, a swap-in
        may fail (the attempted transfer time is still paid — the
        failure is detected at completion) or be slowed by an active
        ``ADAPTER_SWAP_SLOW`` window.  Failed adapters stay non-resident;
        the engine is responsible for backoff/retry.
        """
        needed = list(dict.fromkeys(adapter_ids))
        if len(needed) > self.gpu_slots:
            raise RuntimeError(
                f"batch needs {len(needed)} adapters but only "
                f"{self.gpu_slots} GPU slots exist"
            )
        stall = 0.0
        failed: List[str] = []
        for adapter_id in needed:
            entry = self._entry(adapter_id)
            entry.last_used = now
            if entry.on_gpu:
                continue
            wire = self.transfer.swap_seconds(
                entry.spec.ab_bytes, async_overlap=self.async_overlap,
                software_overhead_s=self.swap_software_overhead_s,
            )
            if injector is not None:
                wire *= injector.swap_slowdown(adapter_id, now)
                if injector.swap_should_fail(adapter_id, now):
                    self.swap_failures += 1
                    failed.append(adapter_id)
                    stall += wire  # wasted transfer attempt
                    continue
            self._evict_one(exclude=set(needed))
            self._load(entry)
            self._swap_ins += 1
            stall += wire
        return stall, failed

    def _load(self, entry: _Residency) -> None:
        entry.on_gpu = True
        self._resident[entry.spec.adapter_id] = entry

    def _unload(self, entry: _Residency) -> None:
        entry.on_gpu = False
        del self._resident[entry.spec.adapter_id]

    def _evict_one(self, exclude: set) -> None:
        if len(self._resident) < self.gpu_slots:
            return  # free slot available
        resident = [
            (r.last_used, a) for a, r in self._resident.items()
            if a not in exclude
        ]
        if not resident:
            raise RuntimeError("no evictable adapter (all slots pinned)")
        # Soft pins: evict the LRU *unpinned* resident first; fall back
        # to a pinned victim rather than failing the batch (a pin biases
        # placement, it must never wedge the engine).
        unpinned = [entry for entry in resident
                    if entry[1] not in self.pinned]
        victim = min(unpinned or resident)[1]
        # Swap-out is fully asynchronous (write-back can always overlap).
        self._unload(self._resident[victim])

    # -- fleet placement hooks (runtime/placement.py) -----------------------

    def pin(self, adapter_id: str) -> bool:
        """Soft-pin an adapter: eviction prefers other victims."""
        self._entry(adapter_id)  # raise on unknown ids
        if adapter_id in self.pinned:
            return False
        self.pinned.add(adapter_id)
        return True

    def unpin(self, adapter_id: str) -> None:
        self.pinned.discard(adapter_id)

    def demote(self, adapter_id: str) -> bool:
        """Evict one adapter from its GPU slot.

        Swap-out is asynchronous (no stall); returns whether the adapter
        was actually resident.  A demoted adapter simply swaps back in
        on next use — correctness never depends on this call.  The last
        resident adapter is never demoted: the engine assumes at least
        one resident (switch-cost estimation, warm merges).
        """
        entry = self._entry(adapter_id)
        if not entry.on_gpu:
            return False
        if len(self._resident) <= 1:
            return False
        self._unload(entry)
        return True

    def make_resident(self, adapter_id: str, now: float) -> bool:
        """Force one adapter GPU-resident (autoscaler warm-up prefetch).

        Counts as a swap-in; evicts LRU residents if the slots are full.
        Returns False when the adapter was already resident.
        """
        entry = self._entry(adapter_id)
        entry.last_used = now
        if entry.on_gpu:
            return False
        self._evict_one(exclude={adapter_id})
        self._load(entry)
        self._swap_ins += 1
        return True

    # -- stats -------------------------------------------------------------------------

    def total_swap_ins(self) -> int:
        return self._swap_ins
