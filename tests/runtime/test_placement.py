"""Tests for fleet-level adapter placement (runtime/placement.py).

Covers the registry units (popularity EWMA, consistent-hash homes,
resident-set model, the decide() ladder, rebalance), the engine-side
hooks (pin / demote / make_resident), and the cluster integration
(locality dispatch end to end, swap observability, autoscaler warm-up
prefetch, default-off identity).
"""

import pytest

from repro.core import SystemBuilder
from repro.runtime import (
    AdapterPlacement,
    AutoscaleConfig,
    MultiGPUServer,
    PlacementConfig,
    Request,
    reset_request_ids,
)
from repro.runtime.autoscaler import estimate_cold_start_s
from repro.workloads import RetrievalWorkload
from repro.workloads.skew import zipf_shares


def _builder(**kw):
    kw.setdefault("num_adapters", 16)
    kw.setdefault("gpu_adapter_slots", 4)
    kw.setdefault("max_batch_size", 16)
    return SystemBuilder(**kw)


def _fleet(num_replicas=3, config=None, **bkw):
    b = _builder(**bkw)
    placement = AdapterPlacement(config)
    engines = []
    for i in range(num_replicas):
        e = b.build("v-lora")
        e.engine_id = f"gpu-{i}"
        engines.append(e)
        placement.register_replica(e)
    return b, placement, engines


# -- config validation --------------------------------------------------------


class TestPlacementConfig:
    def test_defaults_valid(self):
        PlacementConfig()

    @pytest.mark.parametrize("kw", [
        dict(ewma_alpha=0.0),
        dict(ewma_alpha=1.5),
        dict(hot_watermark=0.0),
        dict(hot_copies=0),
        dict(cold_watermark=-0.1),
        dict(cold_watermark=0.5),     # >= hot_watermark
        dict(spill_load_factor=0.5),
        dict(spill_slack_rounds=-1.0),
        dict(miss_load_factor=0.5),
        dict(miss_slack_rounds=-1.0),
        dict(prefetch_top_k=-1),
        dict(max_pins_fraction=0.0),
        dict(vnodes=0),
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            PlacementConfig(**kw)

    def test_cold_watermark_zero_disables(self):
        cfg = PlacementConfig(cold_watermark=0.0)
        assert cfg.cold_watermark == 0.0


# -- popularity EWMA ----------------------------------------------------------


class TestPopularity:
    def test_shares_sum_to_one_once_warm(self):
        # After n observations the shares sum to 1 - (1-alpha)^n.
        _, placement, _ = _fleet()
        for i in range(1000):
            placement.observe(f"lora-{i % 4}")
        total = sum(placement.popularity(f"lora-{i}") for i in range(4))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_hot_adapter_dominates(self):
        _, placement, _ = _fleet()
        for i in range(400):
            placement.observe("lora-0" if i % 4 else "lora-1")
        assert (placement.popularity("lora-0")
                > 2 * placement.popularity("lora-1"))
        assert placement.top_hot(1) == ["lora-0"]

    def test_unseen_adapter_is_zero(self):
        _, placement, _ = _fleet()
        assert placement.popularity("lora-9") == 0.0
        assert placement.top_hot(3) == []

    def test_lazy_scale_renormalizes(self):
        """Tens of thousands of observations must not overflow the raw
        weights (the lazy (1-alpha) scale renormalizes periodically)."""
        _, placement, _ = _fleet()
        for i in range(30_000):
            placement.observe(f"lora-{i % 8}")
        for i in range(8):
            share = placement.popularity(f"lora-{i}")
            assert 0.0 <= share <= 1.0

    def test_popularity_decays(self):
        _, placement, _ = _fleet()
        for _ in range(100):
            placement.observe("lora-0")
        peak = placement.popularity("lora-0")
        for _ in range(300):
            placement.observe("lora-1")
        assert placement.popularity("lora-0") < peak / 4


# -- consistent-hash ring -----------------------------------------------------


class TestRing:
    def test_homes_deterministic(self):
        _, p1, _ = _fleet()
        _, p2, _ = _fleet()
        for i in range(16):
            assert (p1.homes(f"lora-{i}", 2)
                    == p2.homes(f"lora-{i}", 2))

    def test_homes_distinct(self):
        _, placement, _ = _fleet(num_replicas=4)
        homes = placement.homes("lora-0", 3)
        assert len(homes) == len(set(homes)) == 3

    def test_churn_only_rehomes_lost_arcs(self):
        """Removing one replica must keep every adapter not homed on it
        in place — the property crc32-mod-n lacks."""
        _, placement, engines = _fleet(num_replicas=4)
        before = {f"lora-{i}": placement.homes(f"lora-{i}", 1)[0]
                  for i in range(16)}
        placement.deregister_replica("gpu-3")
        moved = 0
        for a, old in before.items():
            new = placement.homes(a, 1)[0]
            if old == "gpu-3":
                assert new != "gpu-3"
            elif new != old:
                moved += 1
        assert moved == 0

    def test_empty_fleet_has_no_homes(self):
        placement = AdapterPlacement()
        assert placement.homes("lora-0", 2) == []


# -- resident-set model -------------------------------------------------------


class TestResidentModel:
    def test_seeded_from_engine_truth(self):
        _, placement, engines = _fleet()
        truth = set(engines[0].adapters.resident_ids)
        assert set(placement.holders(next(iter(truth)))) >= {"gpu-0"}

    def test_note_assignment_models_lru(self):
        b, placement, engines = _fleet(gpu_adapter_slots=2,
                                       num_adapters=16)
        # Model has 2 slots; a third assignment evicts the LRU entry.
        placement._resident["gpu-0"] = {}
        placement.note_assignment("lora-10", "gpu-0")
        placement.note_assignment("lora-11", "gpu-0")
        placement.note_assignment("lora-12", "gpu-0")
        assert "lora-10" not in placement._resident["gpu-0"]
        assert set(placement._resident["gpu-0"]) == {"lora-11", "lora-12"}

    def test_refresh_drops_stale_entries(self):
        _, placement, engines = _fleet()
        placement._resident["gpu-0"]["lora-15"] = 10 ** 9  # stale lie
        placement.refresh_from_engines()
        assert ("lora-15" in placement._resident["gpu-0"]) == \
            engines[0].adapters.is_resident("lora-15")

    def test_replica_cache_value_tracks_popularity(self):
        _, placement, engines = _fleet()
        for _ in range(200):
            placement.observe("lora-0")
        placement._resident["gpu-0"] = {"lora-0": 1}
        placement._resident["gpu-1"] = {"lora-15": 1}
        assert (placement.replica_cache_value("gpu-0")
                > placement.replica_cache_value("gpu-1"))


# -- the decide() ladder ------------------------------------------------------


class TestDecide:
    def test_home_hit(self):
        _, placement, _ = _fleet()
        loads = {"gpu-0": 0.0, "gpu-1": 0.0, "gpu-2": 0.0}
        home = placement.homes("lora-0", 1)[0]
        placement._resident[home]["lora-0"] = 1
        chosen, why = placement.decide("lora-0", loads)
        assert chosen == home and why == "home-hit"

    def test_spill_to_resident_holder(self):
        cfg = PlacementConfig(spill_load_factor=1.0,
                              spill_slack_rounds=0.0)
        _, placement, _ = _fleet(config=cfg)
        home = placement.homes("lora-0", 1)[0]
        other = next(r for r in ("gpu-0", "gpu-1", "gpu-2") if r != home)
        placement._resident[home]["lora-0"] = 1
        placement._resident[other]["lora-0"] = 2
        loads = {r: 0.0 for r in ("gpu-0", "gpu-1", "gpu-2")}
        loads[home] = 100.0  # overloaded home
        chosen, why = placement.decide("lora-0", loads)
        assert chosen == other and why == "spill-hit"
        assert placement.spills == 1

    def test_home_miss_pays_swap_at_home(self):
        _, placement, _ = _fleet()
        for rid in ("gpu-0", "gpu-1", "gpu-2"):
            placement._resident[rid].pop("lora-0", None)
        loads = {"gpu-0": 0.0, "gpu-1": 0.0, "gpu-2": 0.0}
        chosen, why = placement.decide("lora-0", loads)
        assert chosen == placement.homes("lora-0", 1)[0]
        assert why == "home-miss"

    def test_fallback_when_no_home_routable(self):
        _, placement, _ = _fleet()
        home = placement.homes("lora-0", 1)[0]
        loads = {r: float(i) for i, r in
                 enumerate(rid for rid in ("gpu-0", "gpu-1", "gpu-2")
                           if rid != home)}
        for res in placement._resident.values():
            res.pop("lora-0", None)
        chosen, why = placement.decide("lora-0", loads)
        assert chosen in loads
        assert why in ("home-miss", "fallback-miss")

    def test_decide_records_intended_residency(self):
        _, placement, _ = _fleet()
        loads = {"gpu-0": 0.0, "gpu-1": 0.0, "gpu-2": 0.0}
        chosen, _ = placement.decide("lora-9", loads)
        assert "lora-9" in placement._resident[chosen]

    def test_empty_loads_raise(self):
        _, placement, _ = _fleet()
        with pytest.raises(ValueError, match="routable"):
            placement.decide("lora-0", {})

    def test_replicated_adapter_spreads_by_load(self):
        cfg = PlacementConfig(hot_copies=2)
        _, placement, _ = _fleet(config=cfg)
        placement._replicated.add("lora-0")
        h1, h2 = placement.homes("lora-0", 2)
        placement._resident[h1]["lora-0"] = 1
        placement._resident[h2]["lora-0"] = 2
        loads = {r: 0.0 for r in ("gpu-0", "gpu-1", "gpu-2")}
        loads[h1] = 5.0
        chosen, why = placement.decide("lora-0", loads)
        assert chosen == h2 and why == "home-hit"


# -- rebalance: replication + demotion ---------------------------------------


class TestRebalance:
    def test_hot_adapter_promoted_and_pinned(self):
        cfg = PlacementConfig(hot_watermark=0.2, hot_copies=2)
        _, placement, engines = _fleet(config=cfg)
        for _ in range(300):
            placement.observe("lora-0")
        stats = placement.rebalance()
        assert stats["replications"] == 1
        assert "lora-0" in placement._replicated
        pinned_on = [e.engine_id for e in engines
                     if "lora-0" in e.adapters.pinned]
        assert set(pinned_on) == set(placement.homes("lora-0", 2))

    def test_cooled_adapter_unpinned(self):
        cfg = PlacementConfig(hot_watermark=0.2, hot_copies=2,
                              ewma_alpha=0.05)
        _, placement, engines = _fleet(config=cfg)
        for _ in range(200):
            placement.observe("lora-0")
        placement.rebalance()
        assert "lora-0" in placement._replicated
        for i in range(400):
            placement.observe(f"lora-{1 + i % 8}")
        placement.rebalance()
        assert "lora-0" not in placement._replicated
        assert all("lora-0" not in e.adapters.pinned for e in engines)

    def test_cold_demotion_frees_non_home_slots(self):
        cfg = PlacementConfig(hot_watermark=0.5, cold_watermark=0.01)
        _, placement, engines = _fleet(config=cfg)
        # Make lora-0 resident everywhere, then give all traffic to
        # others so its share decays below the cold watermark.
        for e in engines:
            e.adapters.make_resident("lora-0", 0.0)
        placement.refresh_from_engines()
        for i in range(600):
            placement.observe(f"lora-{1 + i % 4}")
        stats = placement.rebalance()
        primary = placement.homes("lora-0", 1)[0]
        for e in engines:
            if e.engine_id == primary:
                continue
            assert not e.adapters.is_resident("lora-0")
        assert stats["demotions"] >= 1

    def test_pin_cap_respected(self):
        cfg = PlacementConfig(hot_watermark=0.05, hot_copies=3,
                              max_pins_fraction=0.5)
        _, placement, engines = _fleet(config=cfg, gpu_adapter_slots=4)
        for i in range(1000):
            placement.observe(f"lora-{i % 8}")
        placement.rebalance()
        for e in engines:
            assert len(e.adapters.pinned) <= 2  # 0.5 * 4 slots


# -- engine-side hooks --------------------------------------------------------


class TestAdapterManagerHooks:
    def test_pin_biases_eviction(self):
        b = _builder(num_adapters=8, gpu_adapter_slots=2)
        e = b.build("v-lora")
        am = e.adapters
        am.demote_all = None  # no-op guard; keep linters quiet
        resident = list(am.resident_ids)
        am.pin(resident[0])
        am.make_resident("lora-7", now=1.0)
        assert am.is_resident(resident[0])  # pinned survivor
        assert am.is_resident("lora-7")

    def test_pin_never_wedges(self):
        b = _builder(num_adapters=8, gpu_adapter_slots=2)
        am = b.build("v-lora").adapters
        for a in list(am.resident_ids):
            am.pin(a)
        # All slots pinned: eviction must fall back, not raise.
        am.make_resident("lora-6", now=1.0)
        assert am.is_resident("lora-6")

    def test_demote_is_stall_free_and_reversible(self):
        b = _builder(num_adapters=8, gpu_adapter_slots=4)
        am = b.build("v-lora").adapters
        a = am.resident_ids[0]
        assert am.demote(a) is True
        assert am.demote(a) is False
        assert not am.is_resident(a)
        assert am.make_resident(a, now=2.0) is True
        assert am.is_resident(a)

    def test_pin_unknown_adapter_raises(self):
        b = _builder(num_adapters=4)
        am = b.build("v-lora").adapters
        with pytest.raises(KeyError):
            am.pin("nope")


# -- autoscaler warm-up prefetch ----------------------------------------------


class TestPrefetch:
    def test_plan_is_hot_minus_resident_capped(self):
        _, placement, engines = _fleet(num_adapters=16,
                                       gpu_adapter_slots=4)
        for i in range(500):
            placement.observe(f"lora-{8 + i % 6}")
        b2 = _builder(num_adapters=16, gpu_adapter_slots=4)
        fresh = b2.build("v-lora")
        plan = placement.prefetch_plan(fresh)
        assert plan  # hot set differs from warm-start residents
        assert not set(plan) & set(fresh.adapters.resident_ids)
        assert len(plan) <= fresh.adapters.gpu_slots

    def test_prefetch_extends_cold_start(self):
        b = _builder(num_adapters=16, gpu_adapter_slots=8)
        cfg = AutoscaleConfig()
        base = estimate_cold_start_s(b.build("v-lora"), cfg)
        extended = estimate_cold_start_s(
            b.build("v-lora"), cfg,
            prefetch_ids=["lora-10", "lora-11", "lora-12"])
        assert extended > base
        # Already-resident ids are not double-charged.
        e = b.build("v-lora")
        same = estimate_cold_start_s(e, cfg,
                                     prefetch_ids=e.adapters.resident_ids)
        assert same == pytest.approx(base)

    def test_apply_prefetch_makes_resident(self):
        _, placement, _ = _fleet()
        b2 = _builder(num_adapters=16, gpu_adapter_slots=8)
        fresh = b2.build("v-lora")
        placement.apply_prefetch(fresh, ["lora-12", "lora-13"], now=0.0)
        assert fresh.adapters.is_resident("lora-12")
        assert fresh.adapters.is_resident("lora-13")
        assert placement.prefetches == 2


# -- cluster integration ------------------------------------------------------


def _zipf_workload(adapter_ids, rate=24.0, duration=20.0, seed=0):
    return RetrievalWorkload(
        adapter_ids, rate_rps=rate, duration_s=duration,
        adapter_shares=zipf_shares(len(adapter_ids), 1.05),
        adapter_burst=4, seed=seed,
    ).generate()


class TestClusterIntegration:
    def test_locality_end_to_end(self):
        b = _builder(num_adapters=64, gpu_adapter_slots=8)
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), 4, dispatch="locality")
        reset_request_ids()
        reqs = _zipf_workload(b.adapter_ids)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.num_completed == len(reqs)
        s = metrics.summary()
        assert "swap_ins" in s
        assert 0.0 <= s["adapter_cache_hit_ratio"] <= 1.0

    def test_locality_cuts_swaps_vs_least_loaded(self):
        """The headline property, miniature: on a skewed trace over a
        small fleet, cache-state-aware routing swaps less."""
        def run(dispatch):
            b = _builder(num_adapters=64, gpu_adapter_slots=8)
            placement = AdapterPlacement()
            server = MultiGPUServer.replicate(
                lambda: b.build("v-lora"), 4, dispatch=dispatch,
                placement=placement)
            reset_request_ids()
            reqs = _zipf_workload(b.adapter_ids)
            server.submit(reqs)
            m = server.run()
            assert m.num_completed == len(reqs)
            return m.summary().get("swap_ins", 0.0)

        assert run("locality") < run("least-loaded")

    def test_locality_attaches_default_registry(self):
        b = _builder()
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), 2, dispatch="locality")
        assert isinstance(server.placement, AdapterPlacement)

    def test_placement_forces_epoched_loop(self):
        b = _builder()
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), 2, dispatch="least-loaded",
            placement=AdapterPlacement())
        reset_request_ids()
        reqs = [Request(adapter_id=b.adapter_ids[0], arrival_time=0.0,
                        input_tokens=32, output_tokens=4)]
        server.submit(reqs)
        # Epoched mode parks requests cluster-side instead of placing
        # them immediately.
        assert all(e.num_live == 0 for e in server.engines)
        m = server.run()
        assert m.num_completed == 1

    def test_no_placement_is_default_off(self):
        b = _builder()
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), 2)
        assert server.placement is None
        reset_request_ids()
        reqs = [Request(adapter_id=b.adapter_ids[0], arrival_time=0.0,
                        input_tokens=32, output_tokens=4)]
        server.submit(reqs)

    def test_locality_deterministic(self):
        def digest():
            b = _builder(num_adapters=32, gpu_adapter_slots=8)
            server = MultiGPUServer.replicate(
                lambda: b.build("v-lora"), 3, dispatch="locality")
            reset_request_ids()
            reqs = _zipf_workload(b.adapter_ids, duration=10.0)
            server.submit(reqs)
            return server.run().summary()

        assert digest() == digest()

    def test_spawned_replica_prefetches_hot_set(self):
        from repro.runtime import Autoscaler

        b = _builder(num_adapters=32, gpu_adapter_slots=8)
        scaler = Autoscaler(AutoscaleConfig(
            min_replicas=1, max_replicas=4,
            target_queue_per_replica=2.0))
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), 1, dispatch="locality",
            autoscaler=scaler)
        reset_request_ids()
        # Reverse the Zipf head onto high-index adapters so the hot set
        # is disjoint from every replica's warm-start residents
        # (lora-0..7) and the prefetch plan is necessarily non-empty.
        shares = list(reversed(zipf_shares(32, 1.05)))
        reqs = RetrievalWorkload(
            b.adapter_ids, rate_rps=48.0, duration_s=15.0,
            adapter_shares=shares, adapter_burst=4, seed=0,
        ).generate()
        server.submit(reqs)
        m = server.run()
        assert m.num_completed == len(reqs)
        spawned = [rep for rep in server.replicas
                   if rep.spawned_at > 0.0]
        assert spawned, "autoscaler never scaled up"
        assert m.summary().get("adapters_prefetched", 0.0) > 0
