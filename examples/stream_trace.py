#!/usr/bin/env python3
"""Stream a long Azure-shaped trace through one V-LoRA engine.

The paper's §6.1 subsamples the Azure LLM inference trace because the
full trace exceeds one GPU.  This script replays the whole synthetic
trace instead, at ~1.5x the 8-adapter capacity, in bounded memory:
:meth:`AzureTraceGenerator.event_blocks` yields numpy blocks, each
2,000-request chunk is built into ``Request`` objects, submitted, and
run up to the next chunk's first arrival; the terminal records it
produced are folded into running totals and cleared.  Every request is
answered by a task head (one decode round), as the vision tasks are.

Run:  python examples/stream_trace.py [num_requests]

The default is 50,000 requests (a few seconds); ``10000000`` replays
EXPERIMENTS.md's 10-million-request run.
"""

import resource
import sys
import time

import numpy as np

from repro import SystemBuilder
from repro.runtime.request import Request, reset_request_ids
from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator

RATE_RPS = 12.0
SEED = 14
CHUNK = 2_000


def chunks(adapter_ids, num_requests):
    """The trace as lists of ``CHUNK`` requests, in arrival order."""
    trace = AzureTraceGenerator(AzureTraceConfig(rate_rps=RATE_RPS,
                                                 seed=SEED))
    rng = np.random.default_rng(SEED)
    for block in trace.event_blocks(num_requests):
        adapters = rng.integers(0, len(adapter_ids),
                                size=block["arrival"].size)
        for lo in range(0, adapters.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            yield [
                Request(adapter_id=adapter_ids[a], arrival_time=t,
                        input_tokens=i, output_tokens=1, use_task_head=True)
                for a, t, i in zip(adapters[part].tolist(),
                                   block["arrival"][part].tolist(),
                                   block["input_tokens"][part].tolist())
            ]


def main(num_requests: int) -> None:
    builder = SystemBuilder(num_adapters=8)
    engine = builder.build("v-lora")
    metrics = engine.metrics
    reset_request_ids()
    completed = aborted = 0
    latency_sum = ttft_sum = 0.0
    start = time.perf_counter()
    stream = chunks(builder.adapter_ids, num_requests)
    chunk = next(stream, None)
    while chunk is not None:
        following = next(stream, None)
        engine.submit(chunk)
        engine.run(until=following[0].arrival_time if following else None)
        completed += len(metrics.records)
        aborted += len(metrics.aborts)
        latency_sum += sum(r.finish_time - r.arrival_time
                           for r in metrics.records)
        ttft_sum += sum(r.first_token_time - r.arrival_time
                        for r in metrics.records)
        metrics.records.clear()
        metrics.aborts.clear()
        chunk = following
    wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert completed + aborted == num_requests, (
        f"{completed} completed + {aborted} aborted != {num_requests}")

    print(f"{num_requests:,} requests @ {RATE_RPS} rps, "
          f"{CHUNK:,}-request chunks")
    print(f"  completed {completed:,}, aborted {aborted:,}")
    print(f"  engine iterations {metrics.iterations:,}, "
          f"mode switches {metrics.num_mode_switches:,}")
    if completed:
        print(f"  mean latency {latency_sum / completed:.4f} s, "
              f"mean TTFT {ttft_sum / completed:.4f} s")
    print(f"  wall {wall:.2f} s, {num_requests / wall:,.0f} sim req/s, "
          f"peak RSS {peak_rss_mib:.0f} MiB")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 50_000)
