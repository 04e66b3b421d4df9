"""The engine's one prefill/decode split is the old monolithic loop, bit for bit.

``ServingEngine._execute`` splits each iteration's batch once into
prefills and decodes and prices that split; ``_finalize`` applies the
token append, first token and hand-off transition.  The contract is
*bit-identity*: every float evaluated in the same order, every rng draw
at the same point, so the engine reproduces the historical monolithic
engine exactly.  That engine is ``test_oracle.ReferenceEngine``; the
property here drives it and the optimized engine over retrieval traces
(systems x seeds x rates x fault menus) and compares their digests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import FaultInjector, reset_request_ids
from repro.workloads import RetrievalWorkload
from tests.runtime.test_oracle import (
    FAULT_MENUS,
    SYSTEMS,
    ReferenceEngine,
    serve_engine,
)


def _run(system, engine_cls, *, seed, rate, task_heads, fault_menu):
    injector = None
    if fault_menu is not None:
        injector = FaultInjector.random(
            horizon_s=30.0,
            seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(4)],
            engine_ids=("engine-0",),
            **FAULT_MENUS[fault_menu],
        )
    builder = SystemBuilder(
        num_adapters=4, gpu_adapter_slots=2, max_batch_size=8,
        fault_injector=injector, deadline_slo_factor=4.0,
    )
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=rate, duration_s=10.0, seed=seed,
        use_task_heads=task_heads, slo_s=2.0,
    ).generate()
    return serve_engine(builder, system, requests, engine_cls)


@pytest.mark.property
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    system=st.sampled_from(SYSTEMS),
    rate=st.sampled_from([4.0, 10.0, 16.0]),
    task_heads=st.booleans(),
    fault_menu=st.sampled_from([None, "swap", "kv-slow", "all"]),
)
def test_composed_equals_monolithic(seed, system, rate, task_heads,
                                    fault_menu):
    kw = dict(seed=seed, rate=rate, task_heads=task_heads,
              fault_menu=fault_menu)
    assert _run(system, None, **kw) == _run(system, ReferenceEngine, **kw)
