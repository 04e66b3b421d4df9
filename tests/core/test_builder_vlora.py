"""Tests for the system builder and the V-LoRA end-to-end facade."""

from unittest import mock

import pytest

from repro import (
    SYSTEM_NAMES,
    KnowledgeItem,
    RetrievalWorkload,
    SystemBuilder,
    VLoRA,
    VLoRAConfig,
    build_engine,
)
from repro.kernels import ATMMOperator, EinsumOperator, PunicaOperator, SLoRAOperator
from repro.kernels.cost_model import GemmCostModel
from repro.runtime import MultiGPUServer, reset_request_ids
from repro.runtime.scheduler import (
    DLoRAPolicy,
    MergedOnlyPolicy,
    UnmergedOnlyPolicy,
    VLoRAPolicy,
)
from repro.runtime.switcher import DLoRASwitcher, SwiftSwitcher


class TestSystemBuilder:
    def test_every_system_builds(self):
        builder = SystemBuilder(num_adapters=2)
        for name in SYSTEM_NAMES:
            engine = builder.build(name)
            assert engine.adapters.num_adapters == 2

    def test_part_matrix(self):
        builder = SystemBuilder(num_adapters=2)
        vlora = builder.build("v-lora")
        assert isinstance(vlora.operator, ATMMOperator)
        assert isinstance(vlora.policy, VLoRAPolicy)
        assert isinstance(vlora.switcher, SwiftSwitcher)
        slora = builder.build("s-lora")
        assert isinstance(slora.operator, SLoRAOperator)
        assert isinstance(slora.policy, UnmergedOnlyPolicy)
        punica = builder.build("punica")
        assert isinstance(punica.operator, PunicaOperator)
        assert not punica.config.batch_prefills
        dlora = builder.build("dlora")
        assert isinstance(dlora.operator, EinsumOperator)
        assert isinstance(dlora.policy, DLoRAPolicy)
        assert isinstance(dlora.switcher, DLoRASwitcher)
        merge_only = builder.build("merge-only")
        assert isinstance(merge_only.policy, MergedOnlyPolicy)

    def test_prefix_reuse_only_for_vlora(self):
        builder = SystemBuilder(num_adapters=2)
        assert builder.build("v-lora").config.enable_prefix_reuse
        assert not builder.build("s-lora").config.enable_prefix_reuse

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            SystemBuilder(num_adapters=1).build("vllm")

    def test_custom_adapter_specs_override_count(self):
        from repro.models import QWEN_VL_7B, LoRAAdapterSpec
        specs = [LoRAAdapterSpec(f"x{i}", QWEN_VL_7B) for i in range(3)]
        builder = SystemBuilder(num_adapters=99, adapter_specs=specs)
        assert builder.num_adapters == 3
        assert builder.adapter_ids == ["x0", "x1", "x2"]

    def test_adapter_slot_holds_the_largest_adapter(self):
        """KV capacity does not depend on catalog order: every slot is
        sized for the catalog's largest adapter."""
        from itertools import permutations

        from repro.models import QWEN_VL_7B, LoRAAdapterSpec

        def kv_blocks(ranks):
            specs = [LoRAAdapterSpec(f"x{i}", QWEN_VL_7B, rank=r)
                     for i, r in enumerate(ranks)]
            builder = SystemBuilder(adapter_specs=specs, gpu_adapter_slots=2)
            return builder.build("v-lora").kv.num_blocks

        largest = kv_blocks((128, 128, 128))
        assert {kv_blocks(p) for p in permutations((8, 32, 128))} == {largest}
        assert kv_blocks((8, 8, 8)) > largest

    def test_build_engine_shortcut(self):
        engine = build_engine("v-lora", num_adapters=2)
        assert engine.adapters.num_adapters == 2

    def test_fleet_shares_the_cost_tower_not_engine_state(self):
        builder = SystemBuilder(num_adapters=2)
        factory = builder.engine_factory("v-lora")
        a, b = factory(), factory()
        assert a.operator is b.operator and a.switcher is b.switcher
        assert a.mode_exec is b.mode_exec and a.iter_costs is b.iter_costs
        for part in ("kv", "adapters", "metrics", "cost_cache", "policy"):
            assert getattr(a, part) is not getattr(b, part), part
        fresh = builder.build("v-lora")
        assert fresh.operator is not a.operator
        assert fresh.mode_exec is not a.mode_exec

    def test_fleet_prices_each_bypass_key_once(self):
        """Four replicas from one factory price each distinct bypass
        key (group token counts, ranks) with at most the two grouped
        GEMMs of one pricing, however many replicas meet it."""
        builder = SystemBuilder(num_adapters=8, gpu_adapter_slots=4)
        keys = set()
        pair_seconds = ATMMOperator.pair_seconds

        def keyed(op, token_counts, ranks, hidden_dim):
            keys.add((tuple(token_counts), tuple(ranks)))
            return pair_seconds(op, token_counts, ranks, hidden_dim)

        reset_request_ids()
        requests = RetrievalWorkload(
            builder.adapter_ids, rate_rps=12.0, duration_s=6.0,
            use_task_heads=False, seed=3,
        ).generate()
        server = MultiGPUServer.replicate(
            builder.engine_factory("v-lora"), 4)
        with mock.patch.object(ATMMOperator, "pair_seconds", keyed), \
                mock.patch.object(GemmCostModel, "grouped_seconds_mnk",
                                  autospec=True,
                                  side_effect=GemmCostModel.grouped_seconds_mnk
                                  ) as gemms:
            server.submit(requests)
            server.run()
        assert len({id(e.mode_exec) for e in server.engines}) == 1
        assert all(e.metrics.iterations for e in server.engines)
        assert keys and gemms.call_count <= 2 * len(keys)


class TestVLoRAFacade:
    @pytest.fixture()
    def items(self):
        return (
            [KnowledgeItem(f"img-{i}", "image_classification", 0.9)
             for i in range(4)]
            + [KnowledgeItem(f"vid-{i}", "video_classification", 0.90)
               for i in range(2)]
        )

    def test_prepare_adapters_packs_knowledge(self, items):
        vlora = VLoRA()
        result = vlora.prepare_adapters(items)
        # 4 images fuse into 1 adapter; each video domain gets its own.
        assert result.num_adapters == 3
        assert len(vlora.adapter_ids) == 3

    def test_task_heads_bundled_for_pure_adapters(self, items):
        vlora = VLoRA()
        vlora.prepare_adapters(items)
        specs = {s.adapter_id: s for s in vlora.adapter_specs}
        fused = vlora.fusion_result.adapters
        for adapter in fused:
            families = {i.family_name for i in adapter.items}
            spec = specs[adapter.adapter_id]
            if families == {"video_classification"}:
                assert spec.task_head_classes == 101
            if families == {"image_classification"}:
                assert spec.task_head_classes == 64

    def test_serve_roundtrip(self, items):
        vlora = VLoRA(VLoRAConfig(max_batch_size=16))
        vlora.prepare_adapters(items)
        wl = RetrievalWorkload(vlora.adapter_ids, rate_rps=2.0,
                               duration_s=8.0, seed=9)
        metrics = vlora.serve(wl.generate())
        assert metrics.num_completed > 0
        assert metrics.avg_token_latency() > 0

    def test_engine_rebuilt_after_new_adapters(self, items):
        vlora = VLoRA()
        vlora.prepare_adapters(items)
        first = vlora.engine()
        vlora.prepare_adapters(items[:2])
        assert vlora.engine() is not first

    def test_register_adapters_directly(self):
        from repro.models import QWEN_VL_7B, LoRAAdapterSpec
        vlora = VLoRA()
        vlora.register_adapters([LoRAAdapterSpec("det", QWEN_VL_7B)])
        assert vlora.adapter_ids == ["det"]
        with pytest.raises(ValueError):
            vlora.register_adapters([])

    def test_accessors_guarded_before_prepare(self):
        vlora = VLoRA()
        with pytest.raises(RuntimeError):
            vlora.adapter_specs
        with pytest.raises(RuntimeError):
            vlora.fusion_result

    def test_resolve_adapter_routing(self, items):
        vlora = VLoRA()
        vlora.prepare_adapters(items)
        routing = {"visual_qa": vlora.adapter_ids[0]}
        assert vlora.resolve_adapter("visual_qa", routing) == \
            vlora.adapter_ids[0]
        with pytest.raises(KeyError):
            vlora.resolve_adapter("visual_qa", {})
        with pytest.raises(KeyError):
            vlora.resolve_adapter("ocr", routing)
