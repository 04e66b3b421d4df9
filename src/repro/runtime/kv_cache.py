"""Paged KV-cache block manager with prefix reuse.

KV state lives in fixed-size blocks; the full blocks of a shared prefix
are kept once and reused by every request over the same image (§5 "KV
cache reuse", after CacheBlend / SGLang).  Accounting is per entry, not
per block: every block of a prefix entry has the same holders, so one
holder count per entry frees exactly what per-block refcounts would,
and ``allocate``/``append_token``/``free`` are O(1).  A sequence holds
its exclusively owned block count plus (optionally) one prefix entry;
an entry is held by the registry while its key is registered and by
each sequence sharing it, and its blocks free with the last holder.

Invariants (:meth:`PagedKVCache.check_invariants`, property-tested in
``tests/runtime/test_kv_cache.py``):

* owned blocks + live entries' blocks + free blocks == ``num_blocks``;
* an entry's holder count is (1 if registered) + its sharing sequences;
* a sequence's token capacity equals its blocks and covers its tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


class BlockAllocationError(RuntimeError):
    """Raised when the cache cannot serve an allocation."""


@dataclass(slots=True, eq=False)
class _PrefixEntry:
    num_blocks: int
    num_tokens: int
    last_used: float
    holders: int


@dataclass(slots=True)
class _Sequence:
    own_blocks: int                 # blocks not shared via the entry
    entry: Optional[_PrefixEntry]
    num_tokens: int
    capacity: int                   # tokens the sequence's blocks hold


class PagedKVCache:
    """Block-granular KV cache for one model on one GPU."""

    def __init__(self, num_blocks: int, block_size: int = 16,
                 kv_bytes_per_token: int = 0):
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.kv_bytes_per_token = kv_bytes_per_token
        self._free = num_blocks
        self._sequences: Dict[int, _Sequence] = {}
        self._prefixes: Dict[str, _PrefixEntry] = {}
        #: Blocks made temporarily unusable (injected memory pressure).
        self.reserved_blocks: int = 0

    # -- capacity ----------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return max(0, self._free - self.reserved_blocks)

    def set_reserved(self, num_blocks: int) -> None:
        """Reserve ``num_blocks`` blocks away from the allocatable pool.

        Models transient memory pressure (fault injection): reserved
        blocks cannot be allocated but already-allocated sequences are
        untouched.  Pass 0 to lift the pressure.
        """
        if num_blocks < 0:
            raise ValueError(f"reserved blocks must be >= 0, got {num_blocks}")
        self.reserved_blocks = min(num_blocks, self.num_blocks)

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    def free_tokens(self) -> int:
        return self.free_blocks * self.block_size

    def can_allocate(self, num_tokens: int) -> bool:
        return self.blocks_for(num_tokens) <= self.free_blocks

    def blocks_for(self, num_tokens: int) -> int:
        return -(-num_tokens // self.block_size)

    # -- allocation ------------------------------------------------------------------

    def _take_blocks(self, count: int) -> None:
        if count > self.free_blocks:
            raise BlockAllocationError(
                f"need {count} blocks, only {self.free_blocks} free "
                f"({self.reserved_blocks} reserved)"
            )
        self._free -= count

    def allocate(self, seq_id: int, num_tokens: int,
                 prefix_key: Optional[str] = None,
                 prefix_tokens: int = 0,
                 now: float = 0.0) -> int:
        """Allocate KV space for a new sequence's prefill.

        Returns the number of tokens *reused* from a cached prefix (0 if
        no prefix hit).  On a miss with a ``prefix_key``, the prefix's
        full blocks are registered for future reuse.  A failed
        allocation leaves the cache unchanged.
        """
        if seq_id in self._sequences:
            raise BlockAllocationError(f"sequence {seq_id} already allocated")
        if num_tokens <= 0:
            raise ValueError(f"num_tokens must be positive, got {num_tokens}")
        if not 0 <= prefix_tokens <= num_tokens:
            raise ValueError(
                f"prefix_tokens {prefix_tokens} outside [0, {num_tokens}]"
            )

        bs = self.block_size
        shareable = prefix_key is not None and prefix_tokens >= bs
        entry = self._prefixes.get(prefix_key) if shareable else None
        if entry is not None:
            # Hit: the sequence shares the entry's blocks and owns only
            # the remainder.
            remaining = num_tokens - entry.num_tokens
            own = self.blocks_for(remaining) if remaining > 0 else 0
            self._take_blocks(own)
            entry.holders += 1
            entry.last_used = now
            self._sequences[seq_id] = _Sequence(
                own, entry, num_tokens, (entry.num_blocks + own) * bs,
            )
            return entry.num_tokens

        own = self.blocks_for(num_tokens)
        self._take_blocks(own)
        capacity = own * bs
        if shareable:
            # Miss: register the prefix's full blocks (only full blocks
            # are shareable), held by the registry and this sequence.
            full = prefix_tokens // bs
            entry = _PrefixEntry(full, full * bs, now, 2)
            self._prefixes[prefix_key] = entry
            own -= full
        self._sequences[seq_id] = _Sequence(own, entry, num_tokens, capacity)
        return 0

    def append_token(self, seq_id: int, count: int = 1) -> None:
        """Extend a sequence by ``count`` decoded tokens, growing it by
        the blocks they need.  A failed append leaves the cache
        unchanged."""
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        seq = self._seq(seq_id)
        tokens = seq.num_tokens + count
        if tokens > seq.capacity:
            grow = -(-(tokens - seq.capacity) // self.block_size)
            self._take_blocks(grow)
            seq.own_blocks += grow
            seq.capacity += grow * self.block_size
        seq.num_tokens = tokens

    def free(self, seq_id: int) -> None:
        """Release a sequence; shared prefix blocks survive while cached."""
        seq = self._sequences.pop(seq_id, None)
        if seq is None:
            raise BlockAllocationError(f"unknown sequence {seq_id}")
        self._free += seq.own_blocks
        if seq.entry is not None:
            self._release(seq.entry)

    def _release(self, entry: _PrefixEntry) -> None:
        entry.holders -= 1
        if not entry.holders:
            self._free += entry.num_blocks

    # -- prefix management ----------------------------------------------------------------

    def drop_prefix(self, prefix_key: str) -> None:
        """Evict a cached prefix (its blocks free once no sequence uses them)."""
        entry = self._prefixes.pop(prefix_key, None)
        if entry is None:
            raise KeyError(f"unknown prefix {prefix_key!r}")
        self._release(entry)

    def evict_stale_prefixes(self, older_than: float) -> int:
        """Drop prefixes unused since ``older_than``; returns count dropped."""
        stale = [k for k, e in self._prefixes.items() if e.last_used < older_than]
        for k in stale:
            self.drop_prefix(k)
        return len(stale)

    @property
    def num_prefixes(self) -> int:
        return len(self._prefixes)

    def has_prefix(self, prefix_key: str) -> bool:
        return prefix_key in self._prefixes

    # -- introspection -------------------------------------------------------------------------

    def sequence_tokens(self, seq_id: int) -> int:
        return self._seq(seq_id).num_tokens

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._sequences

    def _seq(self, seq_id: int) -> _Sequence:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise BlockAllocationError(f"unknown sequence {seq_id}")
        return seq

    def check_invariants(self) -> None:
        """Assert block conservation and holder counts (property tests)."""
        # entry id -> [entry, expected holders]; registered: the registry's.
        entries = {id(e): [e, 1] for e in self._prefixes.values()}
        held = 0
        for seq_id, seq in self._sequences.items():
            blocks = seq.own_blocks
            if seq.entry is not None:
                entries.setdefault(id(seq.entry), [seq.entry, 0])[1] += 1
                blocks += seq.entry.num_blocks
            if not seq.num_tokens <= seq.capacity == blocks * self.block_size:
                raise AssertionError(
                    f"sequence {seq_id}: {seq.num_tokens} tokens, capacity "
                    f"{seq.capacity}, {blocks} blocks"
                )
            held += seq.own_blocks
        for entry, expected in entries.values():
            if entry.holders != expected:
                raise AssertionError(
                    f"prefix entry has {entry.holders} holders, expected "
                    f"{expected} (registry + sharing sequences)"
                )
            held += entry.num_blocks
        if held + self._free != self.num_blocks:
            raise AssertionError(
                f"block leak: {held} held + {self._free} free "
                f"!= {self.num_blocks}"
            )
