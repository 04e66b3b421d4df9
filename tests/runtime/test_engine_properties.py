"""Property-based tests over the serving engine.

For arbitrary (bounded) request mixes, the engine must conserve
requests, keep time monotone, and return every KV block — including
under forced KV pressure with preemptions — and keep every iteration's
prefills within the prefill token budget.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.runtime import Request
from repro.runtime.engine import PREFILL_TOKEN_BUDGET
from repro.runtime.kv_cache import PagedKVCache

pytestmark = pytest.mark.property


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 16))
    reqs = []
    for i in range(n):
        reqs.append(Request(
            adapter_id=f"lora-{draw(st.integers(0, 2))}",
            arrival_time=draw(st.floats(0.0, 3.0)),
            input_tokens=draw(st.integers(1, 512)),
            output_tokens=draw(st.integers(1, 24)),
            use_task_head=False,
            prefix_key=draw(st.sampled_from([None, "img-a", "img-b"])),
            prefix_tokens=0,
        ))
    system = draw(st.sampled_from(["v-lora", "s-lora", "dlora"]))
    return reqs, system


@settings(max_examples=25, deadline=None)
@given(data=workloads())
def test_engine_conserves_requests_and_blocks(data):
    reqs, system = data
    builder = SystemBuilder(num_adapters=3, max_batch_size=8)
    engine = builder.build(system)
    engine.submit(reqs)
    metrics = engine.run()

    # Conservation: everything completes exactly once.
    assert metrics.num_completed == len(reqs)
    ids = [r.request_id for r in metrics.records]
    assert len(set(ids)) == len(ids)

    # Time sanity.
    for rec in metrics.records:
        assert rec.arrival_time <= rec.first_token_time <= rec.finish_time

    # All KV returns once cached prefixes are dropped.
    engine.kv.evict_stale_prefixes(float("inf"))
    engine.kv.check_invariants()
    assert engine.kv.free_blocks == engine.kv.num_blocks


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(4, 12),
    input_tokens=st.integers(200, 400),
    output_tokens=st.integers(32, 96),
)
def test_engine_survives_kv_pressure(n, input_tokens, output_tokens):
    """With a cache far too small for the workload, the engine preempts
    and recomputes but still finishes everything, and no block leaks."""
    builder = SystemBuilder(num_adapters=2, max_batch_size=8)
    engine = builder.build("v-lora")
    # Just enough blocks for ~2 requests at a time.
    engine.kv = PagedKVCache(
        num_blocks=2 * ((input_tokens + output_tokens) // 16 + 2),
        block_size=16,
    )
    reqs = [
        Request(adapter_id=f"lora-{i % 2}", arrival_time=0.01 * i,
                input_tokens=input_tokens, output_tokens=output_tokens)
        for i in range(n)
    ]
    engine.submit(reqs)
    metrics = engine.run()
    assert metrics.num_completed == n
    engine.kv.evict_stale_prefixes(float("inf"))
    engine.kv.check_invariants()
    assert engine.kv.free_blocks == engine.kv.num_blocks


@st.composite
def prefill_bursts(draw):
    """A few bursts of co-arriving requests with mixed prompt lengths,
    some alone over the prefill token budget."""
    reqs = []
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.floats(0.0, 2.0))
        for _ in range(draw(st.integers(1, 8))):
            reqs.append(Request(
                adapter_id=f"lora-{draw(st.integers(0, 2))}",
                arrival_time=at,
                input_tokens=draw(st.integers(16, 1600)),
                output_tokens=draw(st.integers(1, 12)),
                prefix_key=draw(st.sampled_from([None, "img-a"])),
                prefix_tokens=0,
            ))
    system = draw(st.sampled_from(["v-lora", "s-lora", "punica", "dlora"]))
    return reqs, system


@settings(max_examples=25, deadline=None)
@given(data=prefill_bursts())
def test_iteration_prefills_fit_the_token_budget(data):
    """An iteration's prefills sum (by pre-reuse ``context_len``) to at
    most ``PREFILL_TOKEN_BUDGET`` unless it prefills exactly one request;
    every request still terminates exactly once and no block leaks."""
    reqs, system = data
    engine = SystemBuilder(num_adapters=3, max_batch_size=8).build(system)
    prefills = []
    select = engine.prefill_exec.select

    def spy(batch):
        chosen = select(batch)
        prefills.append([r.context_len for r in chosen])
        return chosen

    engine.prefill_exec.select = spy
    engine.submit(reqs)
    metrics = engine.run()

    assert len(prefills) == metrics.iterations
    for tokens in prefills:
        assert len(tokens) == 1 or sum(tokens) <= PREFILL_TOKEN_BUDGET
    ids = sorted(rec.request_id for rec in metrics.records)
    assert ids == sorted(r.request_id for r in reqs)
    engine.kv.evict_stale_prefixes(float("inf"))
    engine.kv.check_invariants()
    assert engine.kv.free_blocks == engine.kv.num_blocks
