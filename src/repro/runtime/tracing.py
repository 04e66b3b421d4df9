"""Per-iteration engine tracing.

An optional :class:`EngineTracer` records what every engine iteration
did — mode, batch composition, token counts, switch and swap stalls —
enabling Fig.-7-style timelines ("slot 1 merged, 53 ms switch, slot 2
unmerged") and utilization analyses without touching the hot path when
disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class IterationEvent:
    """One engine iteration, as observed by the tracer."""

    index: int
    start: float
    duration: float
    mode: str
    merged_adapter: Optional[str]
    batch_size: int
    prefill_tokens: int
    decode_tokens: int
    adapters: Tuple[str, ...]
    switch_seconds: float
    swap_stall_seconds: float
    preemptions: int

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens


class EngineTracer:
    """Collects :class:`IterationEvent` records from one engine."""

    def __init__(self, max_events: int = 1_000_000):
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self.events: List[IterationEvent] = []
        self._dropped = 0

    def record(self, event: IterationEvent) -> None:
        if len(self.events) >= self.max_events:
            self._dropped += 1
            return
        self.events.append(event)

    @property
    def num_dropped(self) -> int:
        return self._dropped

    # -- summaries -----------------------------------------------------------

    def time_by_mode(self) -> Dict[str, float]:
        """Total iteration time spent in each inference mode."""
        out: Dict[str, float] = {}
        for e in self.events:
            out[e.mode] = out.get(e.mode, 0.0) + e.duration
        return out

    def switch_events(self) -> List[IterationEvent]:
        """Iterations that began with a mode switch."""
        return [e for e in self.events if e.switch_seconds > 0]

    def total_switch_time(self) -> float:
        return sum(e.switch_seconds for e in self.events)

    def mode_segments(self) -> List[Tuple[str, float, float]]:
        """Contiguous (mode, start, end) segments of the timeline."""
        segments: List[Tuple[str, float, float]] = []
        for e in self.events:
            if segments and segments[-1][0] == e.mode:
                mode, start, _ = segments[-1]
                segments[-1] = (mode, start, e.end)
            else:
                segments.append((e.mode, e.start, e.end))
        return segments

    def render_timeline(self, width: int = 72) -> str:
        """ASCII mode timeline: M=merged, U=unmerged, X=mixture, |=switch."""
        if not self.events:
            raise ValueError("no events recorded")
        if width < 8:
            raise ValueError("width too small")
        start = self.events[0].start
        end = self.events[-1].end
        span = max(end - start, 1e-9)
        marks = {"merged": "M", "unmerged": "U", "mixture": "X"}
        cells = [" "] * width
        for e in self.events:
            lo = int((e.start - start) / span * (width - 1))
            hi = max(int((e.end - start) / span * (width - 1)), lo)
            for i in range(lo, hi + 1):
                cells[i] = marks.get(e.mode, "?")
            if e.switch_seconds > 0:
                cells[lo] = "|"
        legend = "M=merged U=unmerged X=mixture |=switch"
        return (
            f"t={start:.3f}s [{''.join(cells)}] t={end:.3f}s\n{legend}"
        )
