"""Tests for multi-GPU dispatch policies, the control epoch and tensor
parallelism."""

import math

import pytest

from repro.core import SystemBuilder
from repro.hardware import A100_80GB
from repro.models import INTERNVL2_76B, QWEN_VL_7B, IterationCostModel
from repro.runtime import (
    AdapterPlacement,
    AutoscaleConfig,
    Autoscaler,
    DisaggConfig,
    FailureDetector,
    HedgeConfig,
    MultiGPUServer,
    Request,
    UnifiedMemoryManager,
)
from repro.workloads import RetrievalWorkload


@pytest.fixture(scope="module")
def builder():
    return SystemBuilder(num_adapters=4, max_batch_size=16)


def burst(adapters, n, arrival=0.0):
    return [
        Request(adapter_id=adapters[i % len(adapters)],
                arrival_time=arrival + 0.001 * i,
                input_tokens=64, output_tokens=4)
        for i in range(n)
    ]


class TestDispatchPolicies:
    def test_round_robin_spreads_evenly(self, builder):
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), 2, dispatch="round-robin"
        )
        server.submit(burst(builder.adapter_ids, 10))
        server.run()
        completed = server.per_engine_completed()
        assert completed == [5, 5]

    def test_affinity_pins_adapters(self, builder):
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), 2, dispatch="adapter-affinity"
        )
        server.submit(burst(builder.adapter_ids, 16))
        server.run()
        # Every adapter's requests landed on exactly one engine.
        for engine in server.engines:
            by_adapter = engine.metrics.by_adapter()
            for adapter, recs in by_adapter.items():
                others = [
                    e for e in server.engines
                    if e is not engine and adapter in e.metrics.by_adapter()
                ]
                assert not others, adapter

    def test_affinity_trades_balance_for_locality(self, builder):
        """Pinning adapters to home replicas skews per-replica load
        under adapter-popularity skew (the future-work trade-off)."""
        def spread(dispatch):
            server = MultiGPUServer.replicate(
                lambda: builder.build("v-lora"), 2, dispatch=dispatch
            )
            wl = RetrievalWorkload(builder.adapter_ids, rate_rps=16.0,
                                   duration_s=15.0, top_adapter_share=0.6,
                                   seed=8)
            server.submit(wl.generate())
            server.run()
            counts = server.per_engine_completed()
            return max(counts) - min(counts)

        assert spread("adapter-affinity") >= spread("round-robin")

    def test_unknown_policy_rejected(self, builder):
        with pytest.raises(ValueError, match="unknown dispatch"):
            MultiGPUServer([builder.build("v-lora")], dispatch="random")

    def test_affinity_rehoming_spreads_over_survivors(self, builder):
        """Regression: excluding one replica must not funnel every
        adapter it homed onto a single neighbor.

        The old linear probe sent all of a down replica's adapters to
        ``(home + 1) % n``; the double-hash stride spreads them across
        the survivors while still giving each adapter one deterministic
        fallback.
        """
        import zlib

        n = 8
        down = 3
        homed = [f"aff-{i}" for i in range(4000)
                 if zlib.crc32(f"aff-{i}".encode()) % n == down]
        assert len(homed) > 100
        from repro.models.lora import LoRAAdapterSpec

        b = SystemBuilder(
            max_batch_size=16,
            adapter_specs=tuple(
                LoRAAdapterSpec(a, QWEN_VL_7B, rank=16) for a in homed
            ),
        )
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), n, dispatch="adapter-affinity"
        )
        engines = server.engines
        allowed = [i for i in range(n) if i != down]
        requests = [
            Request(adapter_id=a, arrival_time=0.001 * i,
                    input_tokens=8, output_tokens=2)
            for i, a in enumerate(homed)
        ]
        server._submit_affinity(requests, engines, allowed)
        counts = [len(e.pending_requests) for e in engines]
        assert counts[down] == 0
        assert sum(counts) == len(homed)
        # Linear probing put 100% on (down + 1) % n; the stride probe
        # must leave no survivor with more than half the re-homed load.
        assert max(counts) < 0.5 * len(homed)
        # Every survivor should get some share (7 strides over ~500
        # adapters cover all of them).
        assert all(counts[i] > 0 for i in allowed)

    def test_affinity_rehoming_is_deterministic_per_adapter(self, builder):
        """Each adapter's fallback home is stable across bursts."""
        n = 4
        b = SystemBuilder(num_adapters=12, max_batch_size=16)
        server = MultiGPUServer.replicate(
            lambda: b.build("v-lora"), n, dispatch="adapter-affinity"
        )
        engines = server.engines
        allowed = [0, 2, 3]
        reqs = burst(b.adapter_ids, 24)
        server._submit_affinity(reqs, engines, allowed)
        placed = {}
        for i, e in enumerate(engines):
            for r in e.pending_requests:
                placed.setdefault(r.adapter_id, set()).add(i)
        assert all(len(homes) == 1 for homes in placed.values())


class TestControlEpoch:
    """The epoch is worked out from the attached components alone."""

    @pytest.mark.parametrize("components, epoch_s", [
        ({}, math.inf),
        ({"placement": AdapterPlacement}, 0.5),
        ({"disagg": DisaggConfig}, 0.5),
        ({"detector": FailureDetector}, 0.25),
        ({"hedge": HedgeConfig}, 0.25),
        ({"detector": FailureDetector, "hedge": HedgeConfig}, 0.25),
        ({"autoscaler": Autoscaler}, 0.5),
        ({"autoscaler": Autoscaler, "detector": FailureDetector}, 0.5),
        ({"autoscaler": Autoscaler, "hedge": HedgeConfig}, 0.5),
        ({"disagg": lambda: DisaggConfig(
            prefill_autoscale=AutoscaleConfig())}, 0.5),
    ], ids=["none", "placement", "disagg", "detector", "hedge",
            "detector+hedge", "autoscaler", "autoscaler+detector",
            "autoscaler+hedge", "disagg+pool-autoscale"])
    def test_epoch_rule(self, builder, components, epoch_s):
        kwargs = {name: make() for name, make in components.items()}
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), 2, **kwargs)
        assert server.epoch_s() == epoch_s


class TestTensorParallel:
    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            IterationCostModel(QWEN_VL_7B, A100_80GB, tp_degree=0)

    def test_tp_speeds_up_decode(self):
        tp1 = IterationCostModel(QWEN_VL_7B, A100_80GB, tp_degree=1)
        tp4 = IterationCostModel(QWEN_VL_7B, A100_80GB, tp_degree=4)
        assert tp4.decode_seconds([512] * 8) < tp1.decode_seconds([512] * 8)

    def test_allreduce_is_not_free(self):
        """TP-4 must be sub-linear: all-reduces eat part of the gain."""
        tp1 = IterationCostModel(QWEN_VL_7B, A100_80GB, tp_degree=1)
        tp4 = IterationCostModel(QWEN_VL_7B, A100_80GB, tp_degree=4)
        speedup = tp1.decode_seconds([512] * 8) / tp4.decode_seconds([512] * 8)
        assert 1.2 < speedup < 4.0

    def test_76b_needs_tp_on_a100(self):
        with pytest.raises(ValueError, match="does not fit"):
            UnifiedMemoryManager(INTERNVL2_76B, A100_80GB, tp_degree=1)
        mm = UnifiedMemoryManager(INTERNVL2_76B, A100_80GB, tp_degree=4)
        assert mm.kv_token_capacity > 10_000

    def test_76b_serves_end_to_end(self):
        b = SystemBuilder(model=INTERNVL2_76B, num_adapters=2,
                          tensor_parallel=4, max_batch_size=16)
        engine = b.build("v-lora")
        engine.submit(burst(b.adapter_ids, 6))
        metrics = engine.run()
        assert metrics.num_completed == 6

    def test_tp_lowers_e2e_latency_for_7b(self):
        def run(tp):
            b = SystemBuilder(num_adapters=2, tensor_parallel=tp)
            engine = b.build("v-lora")
            engine.submit(burst(b.adapter_ids, 12))
            return engine.run().mean_latency()

        assert run(2) < run(1)
