"""Synthetic trace shaped like the Azure LLM inference trace 2023.

The paper drives visual retrieval with the public Azure trace, randomly
subsampled round-robin at varying rates (§6.1) because the full trace
exceeds one GPU.  Offline we reproduce the trace's published shape:

* bursty arrivals — gamma-distributed inter-arrival times whose mean
  sets the target rate (CV > 1 gives the trace's burstiness);
* long-tailed input lengths and shorter outputs — log-normal token
  counts clipped to the serving window.

Rates, skew, and the task mix are the experimental knobs; everything is
seeded and deterministic.

Trace format note (v2): generation is vectorized — inter-arrival gaps
are drawn as gamma arrays and cumulative-summed, then token lengths as
lognormal arrays, instead of three interleaved scalar draws per event.
Traces remain deterministic per seed and keep the same marginal
distributions, but the RNG stream differs from v1, so individual event
values differ from pre-v2 runs with the same seed.  Comparisons across
engine variants are unaffected: both sides consume the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np


@dataclass(frozen=True)
class AzureTraceConfig:
    """Shape parameters of the synthetic trace."""

    rate_rps: float = 4.0
    duration_s: float = 60.0
    burstiness_cv: float = 1.4
    input_tokens_median: int = 256
    input_tokens_sigma: float = 0.7
    output_tokens_median: int = 150
    output_tokens_sigma: float = 0.6
    max_input_tokens: int = 2048
    max_output_tokens: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.burstiness_cv <= 0:
            raise ValueError("burstiness_cv must be positive")


@dataclass(frozen=True)
class TraceEvent:
    """One arrival in the synthetic trace."""

    arrival_time: float
    input_tokens: int
    output_tokens: int


class AzureTraceGenerator:
    """Generates deterministic arrival/length traces."""

    def __init__(self, config: AzureTraceConfig):
        self.config = config

    def events(self) -> List[TraceEvent]:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        # Gamma inter-arrivals: shape k = 1/CV^2, mean = 1/rate.
        k = 1.0 / (cfg.burstiness_cv ** 2)
        theta = (1.0 / cfg.rate_rps) / k
        # Draw gap arrays and cumulative-sum until the horizon is
        # crossed; chunks are sized so one draw usually suffices.
        chunk = max(1024, int(cfg.rate_rps * cfg.duration_s * 1.25) + 16)
        pieces: List[np.ndarray] = []
        t = 0.0
        while True:
            times = t + np.cumsum(rng.gamma(k, theta, size=chunk))
            inside = times[times <= cfg.duration_s]
            pieces.append(inside)
            if inside.size < times.size:
                break
            t = float(times[-1])
        arrivals = np.concatenate(pieces)
        n = arrivals.size
        inputs = self._lognormal_tokens(
            rng, cfg.input_tokens_median, cfg.input_tokens_sigma,
            cfg.max_input_tokens, n,
        )
        outputs = self._lognormal_tokens(
            rng, cfg.output_tokens_median, cfg.output_tokens_sigma,
            cfg.max_output_tokens, n,
        )
        return [
            TraceEvent(arrival_time=float(a), input_tokens=int(i),
                       output_tokens=int(o))
            for a, i, o in zip(arrivals, inputs, outputs)
        ]

    def event_blocks(self, num_requests: int,
                     block_size: int = 1_000_000,
                     ) -> Iterator[Dict[str, np.ndarray]]:
        """Stream exactly ``num_requests`` arrivals as numpy blocks.

        Count-driven companion to :meth:`events` for traces too large to
        materialize as Python objects all at once (a 10M-request replay):
        each yielded block is a dict of parallel arrays —
        ``arrival`` (float64, globally increasing), ``input_tokens`` and
        ``output_tokens`` (int64) — sized ``block_size`` (the last block
        may be shorter).  A caller builds ``Request`` objects from one
        slice at a time and submits them to the engine chunk by chunk,
        running each up to the next chunk's first arrival
        (``examples/stream_trace.py``).  ``duration_s`` is ignored: the
        horizon is the request count.

        RNG-stream contract: blocks draw from a fresh
        ``default_rng(seed)`` in per-block (gaps, inputs, outputs)
        order, so the stream is deterministic for a fixed
        ``(seed, block_size)`` pair but differs from :meth:`events`'
        whole-trace draw order — and :meth:`events` itself is untouched:
        same seed keeps producing the exact same trace it did before
        this method existed.
        """
        if num_requests <= 0:
            raise ValueError(
                f"num_requests must be positive, got {num_requests}"
            )
        if block_size <= 0:
            raise ValueError(
                f"block_size must be positive, got {block_size}"
            )
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        k = 1.0 / (cfg.burstiness_cv ** 2)
        theta = (1.0 / cfg.rate_rps) / k
        t = 0.0
        remaining = num_requests
        while remaining > 0:
            n = min(block_size, remaining)
            remaining -= n
            arrivals = t + np.cumsum(rng.gamma(k, theta, size=n))
            t = float(arrivals[-1])
            yield {
                "arrival": arrivals,
                "input_tokens": self._lognormal_tokens(
                    rng, cfg.input_tokens_median, cfg.input_tokens_sigma,
                    cfg.max_input_tokens, n,
                ),
                "output_tokens": self._lognormal_tokens(
                    rng, cfg.output_tokens_median, cfg.output_tokens_sigma,
                    cfg.max_output_tokens, n,
                ),
            }

    @staticmethod
    def _lognormal_tokens(rng: np.random.Generator, median: int,
                          sigma: float, cap: int, n: int) -> np.ndarray:
        # np.rint rounds half-to-even, matching the scalar path's
        # builtin round().
        values = np.rint(rng.lognormal(np.log(median), sigma, size=n))
        return np.clip(values, 8, cap).astype(np.int64)
