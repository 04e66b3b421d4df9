"""Tests for unified memory planning and adapter residency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import A10, A100_80GB, TransferModel
from repro.models import LLAVA15_13B, QWEN_VL_7B, LoRAAdapterSpec
from repro.runtime import AdapterManager, UnifiedMemoryManager


class TestUnifiedMemory:
    def test_plan_adds_up(self):
        mm = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=8)
        p = mm.plan
        assert (p.weights_bytes + p.adapter_pool_bytes
                + p.activation_reserve_bytes + p.kv_bytes) <= p.total_bytes
        assert p.kv_bytes > 0

    def test_kv_capacity_reasonable(self):
        """~55 GB of KV at 0.5 MB/token -> ~1e5 tokens on A100-80GB."""
        mm = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=8)
        assert 60_000 < mm.kv_token_capacity < 140_000

    def test_more_slots_less_kv(self):
        few = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=2)
        many = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=64)
        assert many.kv_token_capacity < few.kv_token_capacity

    def test_model_too_big_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            UnifiedMemoryManager(LLAVA15_13B, A10)

    def test_build_kv_cache_matches_plan(self):
        mm = UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=4)
        kv = mm.build_kv_cache()
        assert kv.num_blocks == mm.kv_block_count
        assert kv.kv_bytes_per_token == QWEN_VL_7B.kv_bytes_per_token

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            UnifiedMemoryManager(QWEN_VL_7B, A100_80GB, adapter_slots=-1)


def specs(n, model=QWEN_VL_7B):
    return [LoRAAdapterSpec(f"a{i}", model) for i in range(n)]


class TestAdapterManager:
    def make(self, n=4, slots=2, async_swap=True):
        return AdapterManager(
            specs(n), gpu_slots=slots,
            transfer_model=TransferModel(A100_80GB),
            async_swap=async_swap,
        )

    def test_warm_start_fills_slots(self):
        mgr = self.make(n=4, slots=2)
        assert len(mgr.resident_ids) == 2

    def test_resident_adapters_are_free(self):
        mgr = self.make()
        stall = mgr.ensure_resident(["a0"], now=0.0)
        assert stall == 0.0

    def test_miss_costs_a_swap(self):
        mgr = self.make()
        stall = mgr.ensure_resident(["a3"], now=0.0)
        assert stall > 0.0
        assert mgr.is_resident("a3")
        assert mgr.total_swap_ins() == 1

    def test_lru_eviction(self):
        mgr = self.make(n=3, slots=2)  # a0, a1 resident
        mgr.ensure_resident(["a1"], now=1.0)
        mgr.ensure_resident(["a2"], now=2.0)  # evicts a0 (older)
        assert not mgr.is_resident("a0")
        assert mgr.is_resident("a1") and mgr.is_resident("a2")

    def test_async_swap_cheaper_than_sync(self):
        sync = self.make(async_swap=False).ensure_resident(["a3"], 0.0)
        async_ = self.make(async_swap=True).ensure_resident(["a3"], 0.0)
        assert async_ < sync

    def test_batch_larger_than_slots_rejected(self):
        mgr = self.make(n=4, slots=2)
        with pytest.raises(RuntimeError):
            mgr.ensure_resident(["a0", "a1", "a2"], now=0.0)

    def test_unknown_adapter_lists_known(self):
        mgr = self.make()
        with pytest.raises(KeyError, match="a0"):
            mgr.ensure_resident(["zz"], now=0.0)

    def test_duplicate_ids_rejected(self):
        bad = specs(2) + [LoRAAdapterSpec("a0", QWEN_VL_7B)]
        with pytest.raises(ValueError):
            AdapterManager(bad, gpu_slots=2,
                           transfer_model=TransferModel(A100_80GB))

    def test_requested_set_never_self_evicts(self):
        mgr = self.make(n=4, slots=2)
        mgr.ensure_resident(["a2", "a3"], now=1.0)
        assert mgr.is_resident("a2") and mgr.is_resident("a3")


# -- incremental residency against the full-scan rules ----------------------


class FullScanResidency:
    """The residency rules as one full scan of the catalog per query:
    warm start fills the slots in registration order, a swap-in evicts
    the least recently used unpinned resident outside the requested set
    (ties by id, a pinned resident as the fallback), and the last
    resident is never demoted."""

    def __init__(self, ids, slots):
        self.ids, self.slots = ids, slots
        self.on_gpu = {a: i < slots for i, a in enumerate(ids)}
        self.last_used = dict.fromkeys(ids, 0.0)
        self.pinned = set()
        self.victims = []

    def resident(self):
        return [a for a in self.ids if self.on_gpu[a]]

    def _evict_one(self, exclude):
        if len(self.resident()) < self.slots:
            return
        candidates = sorted((self.last_used[a], a) for a in self.resident()
                            if a not in exclude)
        unpinned = [c for c in candidates if c[1] not in self.pinned]
        victim = (unpinned or candidates)[0][1]
        self.on_gpu[victim] = False
        self.victims.append(victim)

    def ensure(self, needed, now, fails):
        needed = list(dict.fromkeys(needed))
        failed = []
        for a in needed:
            self.last_used[a] = now
            if self.on_gpu[a]:
                continue
            if a in fails:
                failed.append(a)
                continue
            self._evict_one(set(needed))
            self.on_gpu[a] = True
        return failed

    def make_resident(self, a, now):
        self.last_used[a] = now
        if self.on_gpu[a]:
            return False
        self._evict_one({a})
        self.on_gpu[a] = True
        return True

    def demote(self, a):
        if not self.on_gpu[a] or len(self.resident()) <= 1:
            return False
        self.on_gpu[a] = False
        return True


class FailingSwaps:
    """A fault injector whose swap-ins of ``fails`` fail."""

    def __init__(self, fails):
        self.fails = fails

    def swap_slowdown(self, adapter_id, now):
        return 1.0

    def swap_should_fail(self, adapter_id, now):
        return adapter_id in self.fails


RESIDENCY_IDS = [f"a{i}" for i in range(7)]
_adapter = st.sampled_from(RESIDENCY_IDS)
residency_ops = st.lists(st.one_of(
    st.tuples(st.just("ensure"), st.lists(_adapter, min_size=1, max_size=3),
              st.sets(_adapter, max_size=2)),
    st.tuples(st.just("make_resident"), _adapter),
    st.tuples(st.just("demote"), _adapter),
    st.tuples(st.just("pin"), _adapter),
    st.tuples(st.just("unpin"), _adapter),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=residency_ops, slots=st.integers(1, 3),
       ticks=st.lists(st.sampled_from([0.0, 1.0]), min_size=40,
                      max_size=40))
def test_incremental_residency_matches_full_scan(ops, slots, ticks):
    """Random swap-ins (some failing), prefetches, demotions, pins and
    unpins on more adapters than slots: after every operation the kept
    resident set equals a scan of every entry, in registration order,
    within the slot budget, and every victim is the one the full-scan
    rules pick.  A clock that often stands still makes LRU ties."""
    mgr = AdapterManager(specs(len(RESIDENCY_IDS)), gpu_slots=slots,
                         transfer_model=TransferModel(A100_80GB))
    ref = FullScanResidency(RESIDENCY_IDS, slots)
    victims = []
    unload = mgr._unload

    def recording(entry):
        victims.append(entry.spec.adapter_id)
        unload(entry)

    mgr._unload = recording
    now = 0.0
    for op, tick in zip(ops, ticks):
        now += tick
        kind, *args = op
        if kind == "ensure":
            needed, fails = args
            if len(set(needed)) > slots:
                continue
            _, failed = mgr.try_ensure_resident(
                needed, now, injector=FailingSwaps(fails))
            assert failed == ref.ensure(needed, now, fails)
        elif kind == "make_resident":
            assert mgr.make_resident(args[0], now) == ref.make_resident(
                args[0], now)
        elif kind == "demote":
            victims_before = len(victims)
            assert mgr.demote(args[0]) == ref.demote(args[0])
            del victims[victims_before:]  # a demotion is not an eviction
        elif kind == "pin":
            mgr.pin(args[0])
            ref.pinned.add(args[0])
        else:
            mgr.unpin(args[0])
            ref.pinned.discard(args[0])
        scan = [a for a, r in mgr._adapters.items() if r.on_gpu]
        assert mgr.resident_ids == scan == ref.resident()
        assert len(mgr.resident_ids) <= slots
        assert victims == ref.victims
