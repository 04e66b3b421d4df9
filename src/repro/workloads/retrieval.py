"""Visual-retrieval workload (§6.1).

Visual retrieval analyzes images and answers queries; it mixes visual
question answering, image captioning, and specific-target detection
(referring expression).  Arrivals follow the Azure-shaped trace; each
request invokes the adapter serving its task domain, with a controllable
popularity skew (60% same-adapter by default, §6.2).

Multi-round VQA revisits the same image (§5 "KV cache reuse"): a
configurable fraction of requests carries the prefix key of a recently
seen image so the KV cache can reuse its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.generation.heads import TASK_PROFILES, TaskProfile
from repro.runtime.request import Request
from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator
from repro.workloads.skew import top_heavy_shares

_DEFAULT_MIX = {
    "visual_qa": 0.5,
    "image_caption": 0.3,
    "referring_expression": 0.2,
}


@dataclass
class RetrievalWorkload:
    """Generates visual-retrieval request streams."""

    adapter_ids: Sequence[str]
    rate_rps: float = 4.0
    duration_s: float = 60.0
    top_adapter_share: float = 0.6
    task_mix: Dict[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_MIX)
    )
    use_task_heads: bool = True
    image_reuse_prob: float = 0.3
    image_pool: int = 12
    #: Temporal adapter correlation: consecutive requests share the
    #: sampled adapter in sessions of this length (1 = i.i.d.).  Real
    #: application traffic arrives in per-application bursts, which is
    #: what makes merged-mode windows possible (§6.2's "merge-friendly
    #: workload pattern").
    adapter_burst: int = 1
    #: Optional per-request latency SLO (seconds) attached to every
    #: request; feeds SLO-attainment and deadline-abort accounting.
    slo_s: Optional[float] = None
    #: Optional explicit adapter popularity distribution (one share per
    #: adapter id, summing to 1).  Overrides the default
    #: ``top_heavy_shares`` skew — e.g. pass
    #: :func:`repro.workloads.skew.zipf_shares` for an S-LoRA-scale
    #: Zipf registry.
    adapter_shares: Optional[Sequence[float]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.adapter_ids:
            raise ValueError("need at least one adapter id")
        total = sum(self.task_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"task mix must sum to 1, got {total}")
        unknown = set(self.task_mix) - set(TASK_PROFILES)
        if unknown:
            raise ValueError(f"unknown tasks in mix: {sorted(unknown)}")
        if not 0.0 <= self.image_reuse_prob <= 1.0:
            raise ValueError("image_reuse_prob must be in [0,1]")
        if self.adapter_burst < 1:
            raise ValueError("adapter_burst must be >= 1")
        if self.adapter_shares is not None:
            shares = list(self.adapter_shares)
            if len(shares) != len(self.adapter_ids):
                raise ValueError(
                    f"adapter_shares has {len(shares)} entries for "
                    f"{len(self.adapter_ids)} adapters"
                )
            if abs(sum(shares) - 1.0) > 1e-6:
                raise ValueError("adapter_shares must sum to 1")

    def generate(self) -> List[Request]:
        """Build the full request list (sorted by arrival time)."""
        rng = np.random.default_rng(self.seed)
        trace = AzureTraceGenerator(AzureTraceConfig(
            rate_rps=self.rate_rps,
            duration_s=self.duration_s,
            seed=self.seed,
        ))
        tasks = list(self.task_mix)
        task_probs = np.array([self.task_mix[t] for t in tasks])
        if self.adapter_shares is not None:
            adapter_probs = np.asarray(self.adapter_shares, dtype=float)
        else:
            adapter_probs = np.array(
                top_heavy_shares(len(self.adapter_ids),
                                 self.top_adapter_share)
            )
        requests: List[Request] = []
        recent_images: List[str] = []
        burst_adapter: Optional[str] = None
        burst_left = 0
        for event in trace.events():
            task = tasks[int(rng.choice(len(tasks), p=task_probs))]
            profile = TASK_PROFILES[task]
            if burst_left <= 0:
                burst_adapter = self.adapter_ids[
                    int(rng.choice(len(self.adapter_ids), p=adapter_probs))
                ]
                burst_left = self.adapter_burst
            adapter = burst_adapter
            burst_left -= 1
            requests.append(self._make_request(
                event, profile, adapter, rng, recent_images
            ))
        return requests

    def _make_request(self, event, profile: TaskProfile, adapter: str,
                      rng: np.random.Generator,
                      recent_images: List[str]) -> Request:
        use_head = self.use_task_heads and profile.supports_task_head
        output = 1 if use_head else max(
            2, int(round(profile.output_tokens_lm
                         * rng.lognormal(0.0, 0.25)))
        )
        prefix_key: Optional[str] = None
        prefix_tokens = 0
        image_tokens = 256 * profile.images_per_request
        if recent_images and rng.random() < self.image_reuse_prob:
            prefix_key = recent_images[int(rng.integers(len(recent_images)))]
            prefix_tokens = image_tokens
        else:
            prefix_key = f"img-{self.seed}-{len(recent_images)}-{event.arrival_time:.4f}"
            prefix_tokens = image_tokens
            recent_images.append(prefix_key)
            if len(recent_images) > self.image_pool:
                recent_images.pop(0)
        return Request(
            adapter_id=adapter,
            arrival_time=event.arrival_time,
            input_tokens=profile.input_tokens,
            output_tokens=output,
            task_name=profile.name,
            num_images=profile.images_per_request,
            use_task_head=use_head,
            prefix_key=prefix_key,
            prefix_tokens=min(prefix_tokens, profile.input_tokens),
            slo_s=self.slo_s,
        )
