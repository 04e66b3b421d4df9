"""Ablation — per-request vs batched prefill (the Punica runtime model).

Our Punica system model prefills one request per iteration (its
decode-centric BGMV design); every other system batches co-arriving
prefills into one launch, up to ``PREFILL_TOKEN_BUDGET`` prompt tokens
per iteration (LightLLM/S-LoRA's ``batch_max_tokens``).  This ablation
isolates that modeling choice on an otherwise identical engine so its
contribution to Fig. 14's gaps is visible and auditable.
"""

from _common import ms

from repro.core import SystemBuilder
from repro.runtime.engine import EngineConfig
from repro.workloads import RetrievalWorkload


def _engine(builder, batch_prefills: bool):
    engine = builder.build("punica")
    engine.config = EngineConfig(
        max_batch_size=engine.config.max_batch_size,
        num_projections=engine.config.num_projections,
        enable_prefix_reuse=False,
        jitter_seed=engine.config.jitter_seed,
        batch_prefills=batch_prefills,
    )
    return engine


def run_experiment():
    builder = SystemBuilder(num_adapters=8)
    out = {}
    for rate in (6.0, 12.0):
        row = {}
        for batched in (True, False):
            engine = _engine(builder, batched)
            wl = RetrievalWorkload(builder.adapter_ids, rate_rps=rate,
                                   duration_s=20.0,
                                   use_task_heads=False, seed=41)
            engine.submit(wl.generate())
            metrics = engine.run()
            key = "batched_prefill" if batched else "per_request_prefill"
            row[key] = {
                "avg_token_latency_ms": ms(metrics.avg_token_latency()),
                "mean_ttft_s": round(metrics.mean_ttft(), 4),
            }
        row["ttft_penalty_x"] = round(
            row["per_request_prefill"]["mean_ttft_s"]
            / row["batched_prefill"]["mean_ttft_s"], 2
        )
        out[rate] = row
    return out


def test_ablation_prefill_batching(benchmark, results):
    data = run_experiment()

    from repro.hardware import A100_80GB
    from repro.models import QWEN_VL_7B, IterationCostModel
    costs = IterationCostModel(QWEN_VL_7B, A100_80GB)
    benchmark(costs.prefill_seconds, [256, 256, 256, 256])

    rows = [
        [rate,
         row["batched_prefill"]["avg_token_latency_ms"],
         row["per_request_prefill"]["avg_token_latency_ms"],
         f"{row['ttft_penalty_x']}x"]
        for rate, row in data.items()
    ]
    results.print_table(
        "Ablation: batched vs per-request prefill (Punica runtime model)",
        ["rate rps", "batched (ms/tok)", "per-request (ms/tok)",
         "TTFT penalty"],
        rows,
    )
    results.save("ablation_prefill_batching",
                 {str(k): v for k, v in data.items()})

    for rate, row in data.items():
        assert row["per_request_prefill"]["avg_token_latency_ms"] >= \
            row["batched_prefill"]["avg_token_latency_ms"] * 0.98
    # The penalty grows with load (more co-arriving prefills to serialize).
    assert data[12.0]["ttft_penalty_x"] >= data[6.0]["ttft_penalty_x"] * 0.9
