"""Disaggregated prefill/decode serving: pool split and hand-off.

V-LoRA colocates prefill and decode on every replica; InfiniLoRA-style
disaggregation (PAPERS.md) splits the fleet instead: a **prefill pool**
absorbs the compute bursts, a **decode pool** holds the long-lived KV
residency (and multiplexes adapters unmerged / via deLoRA).  The two
bottlenecks stop contending: a prefill burst no longer stretches every
in-flight decode's inter-token latency, and decode KV pressure no
longer starves prefill admission.

The pieces, all opt-in through :class:`DisaggConfig` on
:class:`~repro.runtime.cluster.MultiGPUServer`:

* **Pool roles** — the first ``prefill_replicas`` replicas form the
  prefill pool, the rest the decode pool.  :func:`apply_pool_role`
  flips the engine-side switches: prefill engines park finished
  prefills in their ``handoff_outbox`` instead of decoding them;
  decode engines accept transferred-in requests (allocating local KV
  for the sequence that just crossed the wire).
* **KV transfer** — once per control epoch (0.5 s unless a detector
  or hedging without an autoscaler shortens it to 0.25 s;
  :meth:`~repro.runtime.cluster.MultiGPUServer.epoch_s`) the cluster
  drains every reachable prefill replica's hand-off outbox and delivers
  each request to the decode replica with the lowest projected KV
  occupancy (blocks held plus the blocks its queued hand-offs will
  claim: :meth:`~repro.runtime.engine.ServingEngine.projected_kv_blocks`),
  charging a size-proportional wire cost
  (``context_len * kv_bytes_per_token`` through the same
  :class:`~repro.hardware.memory.TransferModel` that prices adapter
  swap-ins, memoized by
  :class:`~repro.runtime.costcache.TransferCostCache`).  The request's
  arrival time — and therefore its TTFT and end-to-end deadline — is
  untouched; only its admission on the decode replica waits out the
  wire time.
* **Per-pool mode choice** — a prefill engine runs its own policy's
  cost-gated choice, priced on the work it actually runs: its
  ``unmerged_extra_seconds`` counts the prefill alone, never the decode
  rounds it hands off, so a lone tenant merges only when its queued
  prompts' LoRA extra outweighs the merge.  A decode engine's policy is
  wrapped in :class:`PhasePinnedPolicy`, which rewrites MERGED to
  UNMERGED so one adapter can never monopolize the multiplexed decode
  batch.  MIXTURE (deLoRA) passes through — it *is* the multiplexing
  mode.  Mode transitions still pay the existing switcher's costs.
* **Per-pool autoscaling** — each pool scales on its queue depth, or
  the decode pool on fleet KV residency when its config sets
  :attr:`~repro.runtime.autoscaler.AutoscaleConfig.target_utilization`.

Fault tolerance composes with the existing machinery: a prefill
replica dying with un-collected hand-offs rewinds them through
``drain_orphans`` (they re-prefill elsewhere, exactly once); a decode
replica dying mid-transfer rewinds the delivered-but-unfinished
request the same way; lease fencing re-stamps the request's lease at
decode submit so the hand-off can never double-terminate; and hedged
twins of a transferred request re-enter through the prefill pool and
race through the fence like any other hedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.runtime.autoscaler import AutoscaleConfig
from repro.runtime.modes import InferenceMode
from repro.runtime.scheduler import SchedulerDecision, SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import ServingEngine

__all__ = [
    "DECODE_POOL",
    "DisaggConfig",
    "PREFILL_POOL",
    "PhasePinnedPolicy",
    "apply_pool_role",
]

#: Pool role names.
PREFILL_POOL = "prefill"
DECODE_POOL = "decode"


@dataclass(frozen=True)
class DisaggConfig:
    """Knobs for disaggregated prefill/decode serving.

    ``prefill_replicas`` + ``decode_replicas`` must equal the cluster's
    initial engine count; the first ``prefill_replicas`` engines form
    the prefill pool, and the decode pool always pins its mode
    (:class:`PhasePinnedPolicy`).  Hand-offs are priced by
    :class:`~repro.runtime.costcache.TransferCostCache`.  The per-pool
    autoscale configs are
    optional — ``None`` leaves that pool at its provisioned size; a
    decode config that sets
    :attr:`~repro.runtime.autoscaler.AutoscaleConfig.target_utilization`
    scales that pool on KV residency rather than queue depth.
    """

    prefill_replicas: int = 1
    decode_replicas: int = 1
    prefill_autoscale: Optional[AutoscaleConfig] = None
    decode_autoscale: Optional[AutoscaleConfig] = None

    def __post_init__(self) -> None:
        if self.prefill_replicas < 1:
            raise ValueError("prefill_replicas must be >= 1")
        if self.decode_replicas < 1:
            raise ValueError("decode_replicas must be >= 1")


class PhasePinnedPolicy(SchedulingPolicy):
    """Pin a decode-pool engine's scheduling policy off MERGED.

    The base policy still picks the batch (and pays for its choices
    through the existing switcher); the wrapper only rewrites a MERGED
    decision to UNMERGED — pinning one adapter's ΔW into the base
    weights would starve every other adapter multiplexed on the pool.
    MIXTURE passes through: deLoRA is exactly the multiplexing mode the
    pool exists for.

    The prefill pool is not wrapped: its engines price only the
    prefill they run (``ServingEngine._unmerged_extra_seconds``), so
    the base policy's own cost gate already decides when a merge pays.
    """

    def __init__(self, base: SchedulingPolicy):
        self.base = base
        self.name = f"{base.name}+{DECODE_POOL}-pinned"

    def schedule(self, candidates, ctx):
        decision = self.base.schedule(candidates, ctx)
        if decision is not None and decision.mode is InferenceMode.MERGED:
            return SchedulerDecision(batch=decision.batch,
                                     mode=InferenceMode.UNMERGED)
        return decision

    def repeats(self, decision, candidates, ctx):
        # Pinning a pinned decision changes nothing, so a base that
        # keeps returning ``decision`` within its horizon keeps this
        # wrapper returning it there too.
        return self.base.repeats(decision, candidates, ctx)

    def refresh_credits(self, requests, ctx) -> None:
        self.base.refresh_credits(requests, ctx)


def apply_pool_role(engine: "ServingEngine", role: str) -> None:
    """Flip one engine's switches for its pool role.

    Applied once per engine (the cluster applies it at registration or
    spawn).  Prefill engines hand finished prefills to the cluster's
    transfer pass instead of decoding them (and so price only their
    prefill when weighing a merge); decode engines allocate local KV
    for transferred-in sequences and wrap their policy in a
    :class:`PhasePinnedPolicy`.
    """
    if role == PREFILL_POOL:
        engine.handoff_after_prefill = True
    elif role == DECODE_POOL:
        engine.accepts_kv_transfers = True
        engine.policy = PhasePinnedPolicy(engine.policy)
    else:
        raise ValueError(f"unknown pool role {role!r}")


def kv_transfer_bytes(request, model) -> int:
    """Wire size of one hand-off: the full KV sequence at its context.

    The prefill replica holds ``context_len`` tokens of KV for the
    request (prompt plus the first generated token); all of it must
    reach the decode replica before decoding can continue.
    """
    return request.context_len * model.kv_bytes_per_token


def pool_of_index(index: int, config: DisaggConfig) -> str:
    """Initial pool assignment: first ``prefill_replicas`` are prefill."""
    return (PREFILL_POOL if index < config.prefill_replicas
            else DECODE_POOL)
