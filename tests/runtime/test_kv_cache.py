"""Tests for the paged KV cache, including property-based invariants."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.runtime import BlockAllocationError, PagedKVCache

pytestmark = pytest.mark.property


class TestBasics:
    def test_capacity_accounting(self):
        kv = PagedKVCache(num_blocks=10, block_size=16)
        assert kv.free_blocks == 10
        kv.allocate(1, 40)  # 3 blocks
        assert kv.used_blocks == 3
        assert kv.free_tokens() == 7 * 16

    def test_allocate_free_roundtrip(self):
        kv = PagedKVCache(num_blocks=4, block_size=16)
        kv.allocate(1, 64)
        assert kv.free_blocks == 0
        kv.free(1)
        assert kv.free_blocks == 4
        kv.check_invariants()

    def test_over_allocation_rejected(self):
        kv = PagedKVCache(num_blocks=2, block_size=16)
        with pytest.raises(BlockAllocationError):
            kv.allocate(1, 100)

    def test_duplicate_sequence_rejected(self):
        kv = PagedKVCache(num_blocks=4, block_size=16)
        kv.allocate(1, 16)
        with pytest.raises(BlockAllocationError):
            kv.allocate(1, 16)

    def test_unknown_sequence_rejected(self):
        kv = PagedKVCache(num_blocks=4, block_size=16)
        with pytest.raises(BlockAllocationError):
            kv.free(9)
        with pytest.raises(BlockAllocationError):
            kv.append_token(9)

    def test_append_grows_at_block_boundary(self):
        kv = PagedKVCache(num_blocks=4, block_size=4)
        kv.allocate(1, 4)
        assert kv.used_blocks == 1
        kv.append_token(1)  # 5th token -> new block
        assert kv.used_blocks == 2
        assert kv.sequence_tokens(1) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVCache(num_blocks=0)
        kv = PagedKVCache(num_blocks=2)
        with pytest.raises(ValueError):
            kv.allocate(1, 0)
        with pytest.raises(ValueError):
            kv.allocate(1, 10, prefix_tokens=20)
        kv.allocate(1, 10)
        with pytest.raises(ValueError):
            kv.append_token(1, 0)


class TestPrefixReuse:
    """§5 'KV cache reuse': repeated images share KV blocks."""

    def test_first_request_registers_prefix(self):
        kv = PagedKVCache(num_blocks=32, block_size=16)
        reused = kv.allocate(1, 300, prefix_key="img-A", prefix_tokens=256)
        assert reused == 0
        assert kv.has_prefix("img-A")

    def test_second_request_reuses_blocks(self):
        kv = PagedKVCache(num_blocks=64, block_size=16)
        kv.allocate(1, 300, prefix_key="img-A", prefix_tokens=256)
        used_before = kv.used_blocks
        reused = kv.allocate(2, 300, prefix_key="img-A", prefix_tokens=256)
        assert reused == 256  # 16 full blocks
        # Only the non-shared remainder allocates fresh blocks.
        assert kv.used_blocks == used_before + ((300 - 256 + 15) // 16)

    def test_shared_blocks_survive_owner_free(self):
        kv = PagedKVCache(num_blocks=64, block_size=16)
        kv.allocate(1, 256, prefix_key="img-A", prefix_tokens=256)
        kv.allocate(2, 256, prefix_key="img-A", prefix_tokens=256)
        kv.free(1)
        kv.check_invariants()
        # Sequence 2 still reads the shared prefix.
        assert kv.sequence_tokens(2) == 256
        kv.free(2)
        # Prefix still cached until dropped.
        assert kv.has_prefix("img-A")
        kv.drop_prefix("img-A")
        assert kv.free_blocks == 64

    def test_tiny_prefix_not_shared(self):
        kv = PagedKVCache(num_blocks=8, block_size=16)
        kv.allocate(1, 20, prefix_key="img-A", prefix_tokens=8)
        assert not kv.has_prefix("img-A")

    def test_stale_prefix_eviction(self):
        kv = PagedKVCache(num_blocks=64, block_size=16)
        kv.allocate(1, 256, prefix_key="old", prefix_tokens=256, now=0.0)
        kv.free(1)
        kv.allocate(2, 256, prefix_key="new", prefix_tokens=256, now=100.0)
        dropped = kv.evict_stale_prefixes(older_than=50.0)
        assert dropped == 1
        assert not kv.has_prefix("old")
        assert kv.has_prefix("new")

    def test_drop_unknown_prefix_rejected(self):
        with pytest.raises(KeyError):
            PagedKVCache(num_blocks=4).drop_prefix("nope")

    def test_failed_allocate_on_prefix_hit_changes_nothing(self):
        kv = PagedKVCache(num_blocks=8, block_size=4)
        kv.allocate(1, 8, prefix_key="a", prefix_tokens=8, now=0.0)
        with pytest.raises(BlockAllocationError):
            kv.allocate(2, 40, prefix_key="a", prefix_tokens=8, now=5.0)
        kv.check_invariants()
        kv.free(1)
        # The failed hit neither held the shared blocks nor refreshed
        # the entry, so it is stale and every block comes back.
        assert kv.evict_stale_prefixes(older_than=1.0) == 1
        assert kv.free_blocks == 8

    def test_check_invariants_catches_leaks(self):
        kv = PagedKVCache(num_blocks=8, block_size=4)
        kv.allocate(1, 8, prefix_key="a", prefix_tokens=8)
        kv._prefixes["a"].holders += 1      # a hold no one will release
        with pytest.raises(AssertionError, match="holders"):
            kv.check_invariants()
        kv._prefixes["a"].holders -= 1
        kv._free -= 1                       # a block no one holds
        with pytest.raises(AssertionError, match="leak"):
            kv.check_invariants()


class ReferenceBlockAllocator:
    """Block-granular reference: block-id chains and per-block refcounts.

    The design :class:`PagedKVCache` replaced, kept as the oracle for
    the equivalence property below (with the failed-allocate fix: no
    prefix state changes before the fresh blocks are known to fit).
    """

    def __init__(self, num_blocks, block_size):
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.refcount = [0] * num_blocks
        self.free_ids = list(range(num_blocks - 1, -1, -1))
        self.seqs = {}          # seq_id -> [block ids, num_tokens]
        self.prefixes = {}      # key -> [block ids, num_tokens, last_used]
        self.reserved = 0

    @property
    def free_blocks(self):
        return max(0, len(self.free_ids) - self.reserved)

    @property
    def used_blocks(self):
        return self.num_blocks - self.free_blocks

    def set_reserved(self, num_blocks):
        if num_blocks < 0:
            raise ValueError(num_blocks)
        self.reserved = min(num_blocks, self.num_blocks)

    def _take(self, count):
        if count > self.free_blocks:
            raise BlockAllocationError(count)
        taken = [self.free_ids.pop() for _ in range(count)]
        for b in taken:
            self.refcount[b] = 1
        return taken

    def _release(self, blocks):
        for b in blocks:
            assert self.refcount[b] > 0, f"double free of block {b}"
            self.refcount[b] -= 1
            if self.refcount[b] == 0:
                self.free_ids.append(b)

    def _seq(self, seq_id):
        if seq_id not in self.seqs:
            raise BlockAllocationError(seq_id)
        return self.seqs[seq_id]

    def allocate(self, seq_id, num_tokens, prefix_key=None, prefix_tokens=0,
                 now=0.0):
        if seq_id in self.seqs:
            raise BlockAllocationError(seq_id)
        if num_tokens <= 0 or not 0 <= prefix_tokens <= num_tokens:
            raise ValueError(num_tokens, prefix_tokens)
        bs = self.block_size
        shareable = prefix_key is not None and prefix_tokens >= bs
        hit = self.prefixes.get(prefix_key) if shareable else None
        shared, reused = (list(hit[0]), hit[1]) if hit else ([], 0)
        remaining = num_tokens - reused
        own = self._take(-(-remaining // bs) if remaining > 0 else 0)
        for b in shared:
            self.refcount[b] += 1
        if hit:
            hit[2] = now
        elif shareable:
            prefix = own[:prefix_tokens // bs]
            for b in prefix:
                self.refcount[b] += 1
            self.prefixes[prefix_key] = [prefix, len(prefix) * bs, now]
        self.seqs[seq_id] = [shared + own, num_tokens]
        return reused

    def append_token(self, seq_id, count=1):
        seq = self._seq(seq_id)
        grow = -(-(seq[1] + count) // self.block_size) - len(seq[0])
        if grow > 0:
            seq[0].extend(self._take(grow))
        seq[1] += count

    def free(self, seq_id):
        self._release(self._seq(seq_id)[0])
        del self.seqs[seq_id]

    def drop_prefix(self, prefix_key):
        self._release(self.prefixes.pop(prefix_key)[0])

    def evict_stale_prefixes(self, older_than):
        stale = [k for k, p in self.prefixes.items() if p[2] < older_than]
        for k in stale:
            self.drop_prefix(k)
        return len(stale)

    def has_prefix(self, prefix_key):
        return prefix_key in self.prefixes

    def has_sequence(self, seq_id):
        return seq_id in self.seqs

    def sequence_tokens(self, seq_id):
        return self._seq(seq_id)[1]


SEQ_IDS = range(6)
KEYS = ["a", "b"]


class KVCacheMachine(RuleBasedStateMachine):
    """Lockstep with the block-granular reference under arbitrary op orders.

    Every operation runs on both; results, raised exception types and
    the observable state must match after each step.
    """

    def __init__(self):
        super().__init__()
        self.kv = PagedKVCache(num_blocks=12, block_size=4)
        self.ref = ReferenceBlockAllocator(num_blocks=12, block_size=4)
        self.now = 0.0

    def _both(self, method, *args, **kwargs):
        outcomes = []
        for impl in (self.kv, self.ref):
            try:
                outcomes.append(("ok", getattr(impl, method)(*args, **kwargs)))
            except (BlockAllocationError, ValueError, KeyError) as exc:
                outcomes.append(("raised", type(exc)))
        assert outcomes[0] == outcomes[1], (method, args, kwargs, outcomes)

    @rule(seq=st.sampled_from(SEQ_IDS), tokens=st.integers(1, 48),
          key=st.sampled_from(KEYS + [None]),
          prefix_tokens=st.integers(0, 12))
    def allocate(self, seq, tokens, key, prefix_tokens):
        self.now += 1.0
        kwargs = {"now": self.now}
        if key is not None:
            kwargs.update(prefix_key=key,
                          prefix_tokens=min(tokens, prefix_tokens))
        self._both("allocate", seq, tokens, **kwargs)

    @rule(seq=st.sampled_from(SEQ_IDS), count=st.integers(1, 40))
    def append(self, seq, count):
        self._both("append_token", seq, count)

    @rule(seq=st.sampled_from(SEQ_IDS))
    def free(self, seq):
        self._both("free", seq)

    @rule(key=st.sampled_from(KEYS))
    def drop_prefix(self, key):
        self._both("drop_prefix", key)

    @rule(age=st.floats(0.0, 20.0))
    def evict_stale_prefixes(self, age):
        self._both("evict_stale_prefixes", self.now - age)

    @rule(blocks=st.integers(-1, 14))
    def set_reserved(self, blocks):
        self._both("set_reserved", blocks)

    @rule()
    def release_everything(self):
        for seq in SEQ_IDS:
            if self.ref.has_sequence(seq):
                self._both("free", seq)
        self._both("evict_stale_prefixes", float("inf"))
        self._both("set_reserved", 0)
        assert self.kv.free_blocks == self.kv.num_blocks

    @invariant()
    def same_observable_state(self):
        self.kv.check_invariants()
        assert self.kv.free_blocks + self.kv.used_blocks == self.kv.num_blocks
        assert self.kv.free_blocks == self.ref.free_blocks
        assert self.kv.used_blocks == self.ref.used_blocks
        for seq in SEQ_IDS:
            assert self.kv.has_sequence(seq) == self.ref.has_sequence(seq)
            if self.ref.has_sequence(seq):
                assert (self.kv.sequence_tokens(seq)
                        == self.ref.sequence_tokens(seq))
        for key in KEYS:
            assert self.kv.has_prefix(key) == self.ref.has_prefix(key)


TestKVCacheStateful = KVCacheMachine.TestCase
TestKVCacheStateful.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)
