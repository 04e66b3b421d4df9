"""Request lifecycle for the serving engine."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple


class RequestStatus(enum.Enum):
    """Where a request is in its life."""

    WAITING = "waiting"       # arrived, not yet admitted to a batch
    RUNNING = "running"       # prefilled (or prefilling) and decoding
    FINISHED = "finished"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    """Why the runtime gave up on a request (graceful degradation)."""

    KV_EXHAUSTED = "kv_exhausted"             # shed under memory pressure
    DEADLINE_EXCEEDED = "deadline_exceeded"   # missed its latency deadline
    ADAPTER_UNAVAILABLE = "adapter_unavailable"  # swap retries exhausted
    ENGINE_FAILED = "engine_failed"           # GPU died, no survivor took it
    ADMISSION_REJECTED = "admission_rejected"  # turned away at the door


#: Request priority classes (admission turns lowest away first).
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2


_id_counter = itertools.count()


def reset_request_ids(start: int = 0) -> None:
    """Reset the global request-id counter (test isolation).

    Request ids otherwise depend on how many requests earlier tests or
    runs created in the same process; tests reset via an autouse
    fixture so ids are reproducible per test.
    """
    global _id_counter
    _id_counter = itertools.count(start)


@dataclass(slots=True)
class Request:
    """One inference request.

    Attributes
    ----------
    adapter_id:
        The LoRA adapter this request invokes (V-LoRA identifies it from
        the query / application registration, §5).
    arrival_time:
        Simulated arrival timestamp in seconds.
    input_tokens:
        Prompt + visual tokens (prefill length).
    output_tokens:
        Decode rounds required.  A task answered through a vision task
        head needs exactly 1 (§4.2.2).
    num_images:
        Images the vision encoder must process at prefill.
    use_task_head:
        Whether the answer comes from the adapter's task head.
    prefix_key / prefix_tokens:
        Optional shared-prefix identity for KV reuse (e.g. an image seen
        before in multi-round VQA, §5 "KV cache reuse").
    """

    adapter_id: str
    arrival_time: float
    input_tokens: int
    output_tokens: int
    task_name: str = ""
    num_images: int = 0
    use_task_head: bool = False
    prefix_key: Optional[str] = None
    prefix_tokens: int = 0
    #: Optional per-request latency SLO in seconds (§4.4: V-LoRA aims to
    #: minimize average latency while meeting each application's
    #: constraint); accounted by the metrics layer.
    slo_s: Optional[float] = None
    #: Optional hard deadline in seconds from arrival: the engine aborts
    #: the request (``AbortReason.DEADLINE_EXCEEDED``) once exceeded.
    deadline_s: Optional[float] = None
    #: Priority class (``PRIORITY_LOW`` / ``PRIORITY_NORMAL`` /
    #: ``PRIORITY_HIGH``): overload protection sheds and rejects lowest
    #: priority first; values outside the named classes are allowed and
    #: ordered numerically.
    priority: int = PRIORITY_NORMAL
    request_id: int = field(default_factory=lambda: next(_id_counter))

    # -- progress (mutated by the engine) -----------------------------------
    status: RequestStatus = RequestStatus.WAITING
    prefilled: bool = False
    generated: int = 0
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    abort_time: Optional[float] = None
    abort_reason: Optional[AbortReason] = None
    credit: float = 0.0
    #: How many times cluster failover has requeued this request.
    requeues: int = 0
    #: How many times a *voluntary* scale-down drain re-homed this
    #: request.  Tracked separately from ``requeues`` so that replica
    #: churn never burns the failover budget (``max_requeues``) of a
    #: request whose hosts never actually failed.
    drain_hops: int = 0
    #: Fencing token ``(replica_id, lease_epoch)`` stamped at dispatch
    #: when lease fencing is on.  A completion is only accepted while
    #: the delivering engine's token still equals this lease; seizure
    #: (confirmed death → re-dispatch) clears it, so a zombie replica's
    #: late result can never double-terminate the request.
    lease: Optional[Tuple[str, int]] = None
    #: True on the speculative twin created by hedged dispatch
    #: (:meth:`clone_for_hedge`).  A hedge twin shares its primary's
    #: ``request_id`` — the cluster's accepted-id fence is what makes
    #: first-completion-wins safe — but carries its own progress state
    #: and lease, and never burns the primary's failover budget.
    is_hedge: bool = False

    def __post_init__(self) -> None:
        if self.input_tokens <= 0:
            raise ValueError(f"input_tokens must be positive, got {self.input_tokens}")
        if self.output_tokens <= 0:
            raise ValueError(f"output_tokens must be positive, got {self.output_tokens}")
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time}")
        if not 0 <= self.prefix_tokens <= self.input_tokens:
            raise ValueError(
                f"prefix_tokens {self.prefix_tokens} outside "
                f"[0, {self.input_tokens}]"
            )
        if self.use_task_head and self.output_tokens != 1:
            raise ValueError("task-head requests decode in exactly 1 round")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError(f"slo_s must be positive, got {self.slo_s}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    # -- derived -------------------------------------------------------------

    @property
    def total_tokens(self) -> int:
        """Input + output tokens (the denominator of avg token latency)."""
        return self.input_tokens + self.output_tokens

    @property
    def context_len(self) -> int:
        """Current context length (prefill + generated so far)."""
        return self.input_tokens + self.generated

    @property
    def remaining(self) -> int:
        return self.output_tokens - self.generated

    @property
    def is_finished(self) -> bool:
        return self.generated >= self.output_tokens

    @property
    def is_aborted(self) -> bool:
        return self.status is RequestStatus.ABORTED

    @property
    def is_terminal(self) -> bool:
        """Finished or aborted — no further engine work will happen."""
        return self.status in (RequestStatus.FINISHED, RequestStatus.ABORTED)

    def latency(self) -> float:
        """End-to-end latency once terminal (finish or abort time)."""
        end = self.finish_time if self.finish_time is not None else self.abort_time
        if end is None:
            raise RuntimeError(
                f"request {self.request_id} still in flight (no latency yet)"
            )
        return end - self.arrival_time

    def waiting_time(self, now: float) -> float:
        return max(0.0, now - self.arrival_time)

    def met_slo(self) -> Optional[bool]:
        """Whether the request met its SLO.

        ``None`` when no SLO is attached or the request is still in
        flight; aborted requests count as SLO misses (``False``) rather
        than crashing the metrics pass.
        """
        if self.slo_s is None:
            return None
        if self.is_aborted:
            return False
        if self.finish_time is None:
            return None
        return self.latency() <= self.slo_s

    # -- hedged dispatch -----------------------------------------------------

    def clone_for_hedge(self) -> "Request":
        """A fresh twin for speculative re-dispatch (hedging).

        The twin shares the primary's identity (``request_id``, arrival
        time, workload shape — so latency and records are measured from
        the *original* arrival) but starts from a clean WAITING state
        with no lease: the engine it lands on stamps its own fencing
        token at submit.  Deliberately does **not** draw a fresh id from
        the global counter, so hedging never perturbs the ids of later
        requests (determinism at defaults).
        """
        twin = Request(
            adapter_id=self.adapter_id,
            arrival_time=self.arrival_time,
            input_tokens=self.input_tokens,
            output_tokens=self.output_tokens,
            task_name=self.task_name,
            num_images=self.num_images,
            use_task_head=self.use_task_head,
            prefix_key=self.prefix_key,
            prefix_tokens=self.prefix_tokens,
            slo_s=self.slo_s,
            deadline_s=self.deadline_s,
            priority=self.priority,
            request_id=self.request_id,
            is_hedge=True,
        )
        return twin

    # -- fault handling ------------------------------------------------------

    def abort(self, now: float, reason: AbortReason) -> None:
        """Mark the request aborted at sim-time ``now``."""
        if self.status is RequestStatus.FINISHED:
            raise RuntimeError(
                f"cannot abort finished request {self.request_id}"
            )
        self.status = RequestStatus.ABORTED
        self.abort_time = now
        self.abort_reason = reason

    def reset_for_requeue(self, now: float, count_hop: bool = True) -> None:
        """Rewind progress so a surviving engine can restart the request.

        Used by cluster failover: the dead engine's KV state is gone, so
        the request re-prefills from scratch.  Arrival is bumped to the
        failure time (latency for failed-over requests is measured from
        requeue).  Each call counts one failover hop in
        ``requeues`` — unless ``count_hop=False``, the scale-down drain
        path, which charges ``drain_hops`` instead so voluntary replica
        retirement cannot exhaust a request's failover budget.  Every
        other field resets idempotently, so a request whose new host
        also dies can be drained again safely.
        """
        self.status = RequestStatus.WAITING
        self.prefilled = False
        self.generated = 0
        self.first_token_time = None
        self.finish_time = None
        self.abort_time = None
        self.abort_reason = None
        self.credit = 0.0
        self.lease = None
        if count_hop:
            self.requeues += 1
        else:
            self.drain_hops += 1
        self.arrival_time = max(self.arrival_time, now)
