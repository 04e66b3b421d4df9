"""Deadline-expiry and KV-pressure shed scenarios on the object core.

These are the two passes that abort or reorder work wholesale, where a
bug shows up as a silently different victim set.  The scenarios were
first written to cross-check the retired array-based (SoA) core against
the object core; they now pin the object core's own behaviour, and the
module keeps its name so the test ids stay stable.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import SystemBuilder
from repro.hardware.gpu import A100_80GB
from repro.runtime import reset_request_ids
from repro.runtime.request import AbortReason
from repro.workloads import RetrievalWorkload

#: Just small enough that Qwen-VL-7B fits but the KV pool is starved,
#: forcing the shed/preemption pass to run.
SMALL_GPU = dataclasses.replace(A100_80GB, name="A100-21GB",
                                hbm_capacity_gb=21.0)


def _engine(builder_kw, wl_kw):
    builder = SystemBuilder(**builder_kw)
    reset_request_ids()
    requests = RetrievalWorkload(builder.adapter_ids, **wl_kw).generate()
    engine = builder.build("v-lora")
    engine.submit(requests)
    return engine, requests


# -- deadline-expiry pass -----------------------------------------------------


def test_deadline_expiry_pass():
    engine, _ = _engine(
        dict(num_adapters=4, deadline_slo_factor=1.2),
        dict(rate_rps=12.0, duration_s=30.0, slo_s=2.0, seed=6))
    metrics = engine.run()
    # The scenario is tuned to actually overrun deadlines; a vacuous
    # pass would make this test meaningless.
    assert len(metrics.aborts) > 100
    reasons = {a.reason for a in metrics.aborts}
    assert reasons == {AbortReason.DEADLINE_EXCEEDED.value}


def test_deadline_expiry_respects_deadlines():
    engine, requests = _engine(
        dict(num_adapters=4, deadline_slo_factor=1.2),
        dict(rate_rps=12.0, duration_s=30.0, slo_s=2.0, seed=6))
    deadline_of = {r.request_id: r.arrival_time + 1.2 * r.slo_s
                   for r in requests}
    metrics = engine.run()
    assert metrics.aborts
    for a in metrics.aborts:
        # Expiry may only fire once the clock passes the deadline.
        assert a.abort_time >= deadline_of[a.request_id]


# -- KV-pressure shed pass ----------------------------------------------------


def test_kv_shed_pass():
    engine, _ = _engine(dict(num_adapters=4, gpu=SMALL_GPU),
                        dict(rate_rps=16.0, duration_s=30.0, seed=7))
    metrics = engine.run()
    assert metrics.summary()["preemptions"] > 0
    engine.kv.check_invariants()


def test_kv_invariants_hold_every_step():
    engine, _ = _engine(dict(num_adapters=4, gpu=SMALL_GPU),
                        dict(rate_rps=16.0, duration_s=10.0, seed=7))
    for _ in range(50_000):
        before = engine.clock.now
        engine.step()
        engine.kv.check_invariants()
        assert engine.clock.now >= before
        if engine.num_live == 0:
            break
    else:
        pytest.fail("engine did not drain")
    assert engine.metrics.num_preemptions > 0
