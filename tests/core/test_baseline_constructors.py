"""Tests for building each named system and the module entry point."""

import subprocess
import sys

import pytest

from repro.core import SYSTEM_NAMES, build_engine
from repro.kernels import ATMMOperator, EinsumOperator, PunicaOperator, SLoRAOperator
from repro.runtime import Request

OPERATOR_OF = {
    "v-lora": ATMMOperator,
    "s-lora": SLoRAOperator,
    "punica": PunicaOperator,
    "dlora": EinsumOperator,
    "merge-only": ATMMOperator,
    "unmerge-only": ATMMOperator,
}


class TestNamedConstructors:
    def test_each_builds_the_right_operator(self):
        for system in SYSTEM_NAMES:
            engine = build_engine(system, num_adapters=1)
            assert isinstance(engine.operator, OPERATOR_OF[system]), system

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_each_serves_a_request(self, system):
        engine = build_engine(system, num_adapters=2)
        engine.submit([Request(adapter_id="lora-0", arrival_time=0.0,
                               input_tokens=64, output_tokens=2)])
        metrics = engine.run()
        assert metrics.num_completed == 1

    def test_kwargs_forwarded(self):
        engine = build_engine("v-lora", num_adapters=3, max_batch_size=4)
        assert engine.config.max_batch_size == 4
        assert engine.adapters.num_adapters == 3


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "systems"],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0
        assert "v-lora" in out.stdout

    def test_bad_command_fails(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "frobnicate"],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode != 0
