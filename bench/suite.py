"""The four serving workloads of the repo benchmark and their rate ladders.

Every workload runs a ladder of four rungs, at 0.5x, 0.75x, 1.0x and
1.25x its nominal rate.  Each rung is a fresh ``SystemBuilder`` build of
``v-lora`` on the default object core, serving requests whose arrival
times are all generated in advance from the benchmark seed (open loop).
Every rung covers the same simulated duration, so its fixed request
count is proportional to its rate.  Only the workload generators see
the seed; the serving system receives the generated requests.

The nominal rates put the headline (1.0x) rung below each workload's
knee: at the knee the worst burst of a trace decides the tail, and the
tail then differs by 40-90 % from one seed to the next.

Why these four (see README.md for the layer each one stresses):

* ``video-heads`` -- prefill-heavy, merge-friendly camera streams.
* ``retrieval-lm`` -- decode-heavy visual retrieval on one engine.
* ``fleet-zipf`` -- 1024 Zipf-popular adapters over an 8-replica fleet
  whose 64 adapter slots cannot hold the working set.
* ``fleet-disagg`` -- disaggregated prefill/decode pools with KV hand-off.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import SystemBuilder
from repro.runtime import (
    DisaggConfig,
    MultiGPUServer,
    Request,
    reset_request_ids,
)
from repro.workloads import (
    RetrievalWorkload,
    VideoAnalyticsWorkload,
    zipf_shares,
)

#: Rate multipliers of the ladder; the 1.0x rung is the headline rung.
LADDER = (0.5, 0.75, 1.0, 1.25)
HEADLINE = LADDER.index(1.0)

#: A rung whose last terminal comes later than this after its last
#: scheduled arrival is building a backlog and does not count towards
#: ``max_rate_rps``.
DRAIN_LIMIT_S = 10.0

#: video-heads: eight cameras, one per adapter, each sending one
#: video-understanding and four detection requests per chunk.
_STREAMS = 8
_DETECTION_FRAMES = 4
CHUNK_REQUESTS = _STREAMS * (1 + _DETECTION_FRAMES)


def sub_seed(*keys: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a position."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _name_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


# -- systems ---------------------------------------------------------------


def _single_engine() -> Tuple[object, List[str]]:
    builder = SystemBuilder(num_adapters=8)
    return builder.build("v-lora"), builder.adapter_ids


def _zipf_fleet() -> Tuple[object, List[str]]:
    builder = SystemBuilder(num_adapters=1024, gpu_adapter_slots=8)
    server = MultiGPUServer.replicate(
        builder.engine_factory("v-lora"), 8, dispatch="locality")
    return server, builder.adapter_ids


def _disagg_fleet() -> Tuple[object, List[str]]:
    builder = SystemBuilder(num_adapters=8)
    server = MultiGPUServer.replicate(
        builder.engine_factory("v-lora"), 4,
        disagg=DisaggConfig(prefill_replicas=2, decode_replicas=2))
    return server, builder.adapter_ids


# -- request traces ----------------------------------------------------------


def _video_requests(adapter_ids: Sequence[str], rate: float, count: int,
                    seed: int) -> List[Request]:
    """Camera streams, one adapter each, re-phased every chunk.

    A single generator call fixes every stream's phase for the whole
    trace, and those eight draws alone decide how chunks collide: over
    ten seeds, p50 TTFT at 12 req/s ranged from 0.10 s to 0.36 s.  Each
    chunk is therefore generated with its own phases (cameras whose
    upload jitters within half a period), so a rung averages over
    thousands of phase draws instead of one.
    """
    period = CHUNK_REQUESTS / rate
    requests: List[Request] = []
    for chunk in range(count // CHUNK_REQUESTS):
        batch = VideoAnalyticsWorkload(
            adapter_ids, num_streams=_STREAMS, duration_s=1.5 * period,
            detection_frames=_DETECTION_FRAMES, chunk_period_s=period,
            seed=sub_seed(seed, chunk),
        ).generate()
        for r in batch:
            r.arrival_time += chunk * period
        requests.extend(batch)
    requests.sort(key=lambda r: (r.arrival_time, r.request_id))
    return requests


def _retrieval_requests(adapter_ids: Sequence[str], rate: float, count: int,
                        seed: int, **kwargs) -> List[Request]:
    """The first ``count`` arrivals of an LM-head visual-retrieval trace
    (VQA, captioning and referring expressions; gamma arrivals, CV 1.4;
    30 % image-prefix reuse)."""
    duration = 1.2 * count / rate
    while True:
        reset_request_ids()
        requests = RetrievalWorkload(
            adapter_ids, rate_rps=rate, duration_s=duration,
            use_task_heads=False, seed=seed, **kwargs,
        ).generate()
        if len(requests) >= count:
            return requests[:count]
        duration *= 1.5


def _zipf_requests(adapter_ids, rate, count, seed):
    return _retrieval_requests(
        adapter_ids, rate, count, seed,
        adapter_shares=zipf_shares(len(adapter_ids), 1.0), adapter_burst=4)


# -- the suite ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a system, a trace shape and its SLO."""

    name: str
    nominal_rps: float
    #: Requests of the headline rung; every rung serves the same
    #: simulated duration, so a rung's count scales with its rate.
    headline_requests: int
    #: p99 TTFT limit of the SLO (seconds).
    ttft_limit_s: float
    #: p99 time-per-output-token limit; ``None`` judges TTFT only.
    tpot_limit_s: Optional[float]
    make_system: Callable[[], Tuple[object, List[str]]]
    make_requests: Callable[[Sequence[str], float, int, int], List[Request]]
    #: Request counts are rounded down to a multiple of this.
    count_unit: int = 1

    def rates(self) -> List[float]:
        return [f * self.nominal_rps for f in LADDER]

    def rung_count(self, rung: int, scale: float = 1.0) -> int:
        unit = self.count_unit
        count = int(self.headline_requests * LADDER[rung] * scale)
        return max(unit, count // unit * unit)

    def rung_seed(self, seed: int, part: int, rung: int) -> int:
        return sub_seed(seed, _name_key(self.name), part, rung)


WORKLOADS = {w.name: w for w in (
    Workload("video-heads", nominal_rps=12.0, headline_requests=52_000,
             ttft_limit_s=0.8, tpot_limit_s=None,
             make_system=_single_engine, make_requests=_video_requests,
             count_unit=CHUNK_REQUESTS),
    Workload("retrieval-lm", nominal_rps=5.0, headline_requests=2_600,
             ttft_limit_s=1.0, tpot_limit_s=0.05,
             make_system=_single_engine, make_requests=_retrieval_requests),
    Workload("fleet-zipf", nominal_rps=20.0, headline_requests=1_500,
             ttft_limit_s=1.0, tpot_limit_s=0.05,
             make_system=_zipf_fleet, make_requests=_zipf_requests),
    Workload("fleet-disagg", nominal_rps=16.0, headline_requests=2_600,
             ttft_limit_s=1.0, tpot_limit_s=0.05,
             make_system=_disagg_fleet, make_requests=_retrieval_requests),
)}
