"""Tail-tolerant dispatch: hedging, retry budgets, requeue backoff.

Unit coverage for :mod:`repro.runtime.hedging` (the shared backoff
curve, the token-bucket retry budget, percentile-tracked hedge
thresholds) plus end-to-end cluster tests: hedges fire under a
straggler, first completion wins, losers are fenced exactly once, and
every knob left at its default changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import SystemBuilder
from repro.runtime import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    HedgeConfig,
    HedgeTracker,
    MultiGPUServer,
    Request,
    RequestStatus,
    RetryBudget,
    RetryBudgetConfig,
    StreamingQuantile,
    capped_exponential_backoff,
    percentile,
    reset_request_ids,
)
from repro.runtime.overload import BrownoutConfig, BrownoutController

ADAPTER_IDS = [f"lora-{i}" for i in range(3)]


# -- capped_exponential_backoff (the shared curve) ----------------------------


@given(base=st.floats(0.0, 10.0), cap=st.floats(0.0, 100.0),
       attempt=st.integers(0, 60))
def test_backoff_never_exceeds_cap(base, cap, attempt):
    delay = capped_exponential_backoff(base, attempt, cap)
    assert 0.0 <= delay <= max(cap, 0.0) or delay <= base


@given(base=st.floats(1e-6, 10.0), cap=st.floats(1e-6, 100.0),
       attempt=st.integers(1, 59))
def test_backoff_monotone_in_attempt(base, cap, attempt):
    a = capped_exponential_backoff(base, attempt, cap)
    b = capped_exponential_backoff(base, attempt + 1, cap)
    assert b >= a


@given(base=st.floats(1e-3, 5.0), cap=st.floats(1e-3, 50.0),
       attempt=st.integers(0, 40))
def test_backoff_matches_legacy_formula(base, cap, attempt):
    """Byte-identical to the inline math the call sites used to carry."""
    legacy = min(base * 2 ** max(0, attempt - 1), cap)
    assert capped_exponential_backoff(base, attempt, cap) == legacy


def test_backoff_zero_base_is_free():
    assert capped_exponential_backoff(0.0, 7, 10.0) == 0.0


def test_backoff_rejects_negative():
    with pytest.raises(ValueError):
        capped_exponential_backoff(-1.0, 1, 5.0)
    with pytest.raises(ValueError):
        capped_exponential_backoff(1.0, 1, -5.0)


# -- RetryBudget --------------------------------------------------------------


def test_retry_budget_config_validation():
    with pytest.raises(ValueError):
        RetryBudgetConfig(ratio=0.0)
    with pytest.raises(ValueError):
        RetryBudgetConfig(ratio=1.5)
    with pytest.raises(ValueError):
        RetryBudgetConfig(burst=0.0)
    with pytest.raises(ValueError):
        RetryBudgetConfig(initial=50.0, burst=20.0)


def test_retry_budget_spend_and_deposit():
    budget = RetryBudget(RetryBudgetConfig(ratio=0.5, burst=3.0, initial=1.0))
    assert budget.tokens(0) == 1.0
    assert budget.try_spend(0)          # 1.0 -> 0.0
    assert not budget.try_spend(0)      # broke
    assert budget.exhausted == 1
    budget.deposit(0)
    budget.deposit(0)                   # 0.0 -> 1.0
    assert budget.try_spend(0)
    assert budget.spent == 2


def test_retry_budget_burst_cap_and_class_isolation():
    budget = RetryBudget(RetryBudgetConfig(ratio=1.0, burst=2.0, initial=2.0))
    for _ in range(10):
        budget.deposit(1)
    assert budget.tokens(1) == 2.0      # saturates at burst
    while budget.try_spend(1):
        pass
    # Class 1 is broke; class 2's bucket is untouched.
    assert budget.tokens(1) < 1.0
    assert budget.try_spend(2)


def test_retry_budget_ten_percent_rule():
    """100 fresh dispatches at ratio 0.1 fund ~10 retries past seed."""
    budget = RetryBudget(RetryBudgetConfig(ratio=0.1, burst=100.0,
                                           initial=0.0))
    for _ in range(100):
        budget.deposit(0)
    granted = 0
    while budget.try_spend(0):
        granted += 1
    # 100 deposits of 0.1 accumulate to 10 minus float dust.
    assert granted in (9, 10)


# -- percentile helpers -------------------------------------------------------


def test_percentile_matches_numpy():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for q in (0.0, 50.0, 95.0, 100.0):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_streaming_quantile_window_eviction():
    q = StreamingQuantile(window=4)
    assert q.quantile(50.0) is None
    for v in (1.0, 2.0, 3.0, 4.0):
        q.observe(v)
    assert len(q) == 4
    assert q.quantile(100.0) == 4.0
    # Pushing large values evicts the old small ones.
    for v in (10.0, 11.0, 12.0, 13.0):
        q.observe(v)
    assert q.quantile(0.0) == 10.0


def test_streaming_quantile_rejects_bad_window():
    with pytest.raises(ValueError):
        StreamingQuantile(window=0)


# -- HedgeTracker -------------------------------------------------------------


def test_hedge_config_validation():
    with pytest.raises(ValueError):
        HedgeConfig(percentile=100.0)
    with pytest.raises(ValueError):
        HedgeConfig(min_observations=0)
    with pytest.raises(ValueError):
        HedgeConfig(window=4, min_observations=8)
    with pytest.raises(ValueError):
        HedgeConfig(after_s=0.0)


def test_hedge_tracker_disarmed_until_min_observations():
    tracker = HedgeTracker(HedgeConfig(min_observations=4, window=8))
    for i in range(3):
        tracker.observe(0, 1.0 + i)
        assert tracker.threshold(0) is None
    tracker.observe(0, 4.0)
    assert tracker.threshold(0) is not None
    # Other priority classes remain disarmed: per-class windows.
    assert tracker.threshold(1) is None


def test_hedge_tracker_fixed_threshold_overrides_percentile():
    tracker = HedgeTracker(HedgeConfig(min_observations=4, after_s=0.75))
    assert tracker.threshold(0) == 0.75  # armed with zero observations


# -- cluster integration ------------------------------------------------------


def _straggler_cluster(num_gpus=3, *, hedge=None, retry_budget=None,
                       magnitude=8.0, **kwargs):
    injector = FaultInjector([
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=60.0,
                  magnitude=magnitude, target="gpu-0"),
    ])
    builder = SystemBuilder(num_adapters=len(ADAPTER_IDS), max_batch_size=8,
                            fault_injector=injector)
    return MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), num_gpus, hedge=hedge,
        retry_budget=retry_budget, **kwargs,
    )


def _trace(n=48, spacing=0.01, deadline_s=None):
    return [Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                    arrival_time=i * spacing, input_tokens=64,
                    output_tokens=8, deadline_s=deadline_s)
            for i in range(n)]


def _assert_exactly_once(requests, metrics):
    finished = [r for r in requests if r.status is RequestStatus.FINISHED]
    aborted = [r for r in requests if r.status is RequestStatus.ABORTED]
    assert len(finished) + len(aborted) == len(requests)
    assert metrics.num_completed == len(finished)
    assert metrics.num_aborted == len(aborted)
    rec_ids = [rec.request_id for rec in metrics.records]
    abort_ids = [ab.request_id for ab in metrics.aborts]
    assert len(set(rec_ids)) == len(rec_ids), "double-completed request"
    assert not set(rec_ids) & set(abort_ids), "completed AND aborted"


def test_hedging_fires_and_fences_under_straggler():
    reset_request_ids()
    server = _straggler_cluster(
        hedge=HedgeConfig(min_observations=8, window=64))
    requests = _trace()
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired > 0, "straggler never triggered a hedge"
    assert metrics.hedge_wins > 0, "no hedge ever beat the straggler"
    # Every race has exactly one loser, and it is fenced — never a
    # duplicate terminal.
    assert metrics.hedge_losses == metrics.hedges_fired
    assert metrics.hedge_wins <= metrics.hedges_fired


def test_hedging_never_burns_failover_budget():
    """A hedge is speculative, not a failure: the primary's ``requeues``
    and ``drain_hops`` budgets must stay untouched."""
    reset_request_ids()
    server = _straggler_cluster(
        hedge=HedgeConfig(min_observations=8, window=64), max_requeues=1)
    requests = _trace()
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired > 0
    assert metrics.requeue_limit_aborts == 0
    for r in requests:
        assert r.requeues == 0
        assert r.drain_hops == 0
        assert not r.is_hedge


def test_fixed_hedge_threshold_via_after_s():
    reset_request_ids()
    # min_observations=16 is never reached alone: only after_s arms it.
    server = _straggler_cluster(hedge=HedgeConfig(after_s=0.4))
    requests = _trace(n=24)
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired > 0


def test_requeue_backoff_clamped_to_deadline():
    """A requeue never backs off past the request's own deadline."""
    reset_request_ids()
    server = _straggler_cluster(requeue_backoff_s=1.0,
                                requeue_backoff_cap_s=30.0)
    bounded, unbounded = _trace(n=2, spacing=0.0)
    bounded.deadline_s = 2.5
    for r in (bounded, unbounded):
        r.requeues = 10
    server._apply_requeue_backoff([bounded, unbounded])
    assert bounded.arrival_time == 2.5
    assert unbounded.arrival_time == 30.0


def test_retry_budget_caps_hedges():
    """A one-token budget allows at most one hedge and counts denials."""
    reset_request_ids()
    budget = RetryBudget(RetryBudgetConfig(ratio=0.01, burst=1.0,
                                           initial=1.0))
    server = _straggler_cluster(
        hedge=HedgeConfig(min_observations=8, window=64),
        retry_budget=budget)
    requests = _trace()
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired <= 2  # seed token + trace deposits
    assert metrics.retry_budget_exhausted > 0
    assert budget.exhausted > 0


def test_brownout_disables_hedging():
    reset_request_ids()
    server = _straggler_cluster(
        hedge=HedgeConfig(min_observations=8, window=64))
    # Force every replica into a brownout tier: the hedge pass must
    # refuse to add speculative load to a degraded fleet.  A +inf
    # transition timestamp freezes the controller at L1 (observe()
    # only transitions after the dwell period elapses), and the huge
    # queue_high keeps L1 from shedding anything.
    for rep in server.replicas:
        ctl = BrownoutController(BrownoutConfig(queue_high=10_000))
        ctl.level = 1
        ctl._last_transition = float("inf")
        rep.engine._brownout = ctl
    requests = _trace()
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired == 0


def test_brownout_hedging_allowed_property():
    ctl = BrownoutController(BrownoutConfig())
    assert ctl.hedging_allowed
    ctl.level = 1
    assert not ctl.hedging_allowed


def test_give_up_after_stamps_deadlines():
    """A give-up bound is a request deadline: it bounds time-in-system
    through the engine's deadline machinery."""
    reset_request_ids()
    server = _straggler_cluster(num_gpus=2, magnitude=40.0)
    requests = _trace(n=24, deadline_s=0.75)
    server.submit(requests)
    for r in requests:
        assert r.deadline_s == 0.75
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    # Without hedging to rescue them, the 40x straggler's requests hit
    # the give-up deadline.
    assert metrics.num_aborted > 0
    assert all(ab.reason == "deadline_exceeded" for ab in metrics.aborts)


def test_hedging_rescues_give_up_deadline():
    """With hedging on, copies escape the straggler and the give-up
    deadline is met instead of tripped."""
    reset_request_ids()
    server = _straggler_cluster(
        num_gpus=2, magnitude=40.0,
        hedge=HedgeConfig(min_observations=8, window=64))
    requests = _trace(n=24, deadline_s=0.75)
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired > 0
    assert metrics.num_aborted < len(requests) // 2


def test_hedging_defaults_off_no_behavior_change():
    """Without a HedgeConfig the cluster never constructs hedge state."""
    reset_request_ids()
    server = _straggler_cluster(hedge=None)
    assert server._hedge_tracker is None
    assert not server._fenced
    requests = _trace(n=16)
    server.submit(requests)
    metrics = server.run()
    _assert_exactly_once(requests, metrics)
    assert metrics.hedges_fired == 0
    assert metrics.hedge_losses == 0


def test_summary_hides_hedge_counters_when_zero():
    reset_request_ids()
    builder = SystemBuilder(num_adapters=len(ADAPTER_IDS))
    engine = builder.build("v-lora")
    engine.submit(_trace(n=4))
    summary = engine.run().summary()
    for key in ("hedges_fired", "hedge_wins", "hedge_losses",
                "retry_budget_exhausted"):
        assert key not in summary
