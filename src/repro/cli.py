"""Command-line interface for the V-LoRA reproduction.

Usage (installed module)::

    python -m repro systems
    python -m repro models
    python -m repro serve --system v-lora --workload retrieval --rate 8
    python -m repro compare --rates 4,8,12
    python -m repro fuse --items image_classification:4:0.9,video_classification:2:0.88
    python -m repro tiling-search --dim 4096 --rank 64
    python -m repro trace generate --out /tmp/trace.jsonl --rate 6
    python -m repro trace stats --path /tmp/trace.jsonl

Every command prints plain text and returns a process exit code; all
randomness is seeded via ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence

from repro.analysis.compare import SystemComparison
from repro.analysis.sweep import SweepRunner
from repro.analysis.textplot import bar_chart, line_chart
from repro.core.builder import SYSTEM_NAMES, SystemBuilder
from repro.generation.fusion import KnowledgeFusion, KnowledgeItem, OracleEvaluator
from repro.hardware.gpu import get_gpu, list_gpus
from repro.models.config import get_model, list_models
from repro.runtime.cluster import DISPATCH_POLICIES
from repro.workloads.replay import load_trace, save_trace, trace_stats
from repro.workloads.retrieval import RetrievalWorkload
from repro.workloads.video import VideoAnalyticsWorkload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="V-LoRA reproduction toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list serving systems and their parts")
    sub.add_parser("models", help="list LMM configurations (Table 2)")

    serve = sub.add_parser("serve", help="run one serving simulation")
    _common_serving_args(serve)
    serve.add_argument("--system", default="v-lora", choices=SYSTEM_NAMES)
    serve.add_argument("--trace-out", default=None,
                       help="save the generated workload as a JSONL trace")
    serve.add_argument("--trace-in", default=None,
                       help="replay a JSONL trace instead of generating")
    serve.add_argument("--json", action="store_true",
                       help="print the metrics summary as JSON")
    serve.add_argument("--profile", type=int, nargs="?", const=20,
                       default=None, metavar="N",
                       help="cProfile the run and print the top N "
                            "functions by cumulative time (default 20)")
    fault = serve.add_argument_group(
        "fault injection (docs/FAULTS.md; rates are events per sim-second)"
    )
    fault.add_argument("--fault-seed", type=int, default=0)
    fault.add_argument("--swap-fail-rate", type=float, default=0.0,
                       help="adapter swap-in failure windows per second")
    fault.add_argument("--swap-slow-rate", type=float, default=0.0,
                       help="adapter swap slowdown windows per second")
    fault.add_argument("--kv-pressure-rate", type=float, default=0.0,
                       help="transient KV-memory pressure windows per second")
    fault.add_argument("--engine-slow-rate", type=float, default=0.0,
                       help="GPU straggler windows per second")
    fault.add_argument("--burst-rate", type=float, default=0.0,
                       help="load-burst windows per second (arrivals are "
                            "time-compressed 3-8x inside each window)")
    fault.add_argument("--partition-rate", type=float, default=0.0,
                       help="NETWORK_PARTITION windows/s per engine "
                            "(heartbeats + completions withheld, "
                            "delivered on heal; needs --detector to "
                            "be observable)")
    fault.add_argument("--heartbeat-loss-rate", type=float, default=0.0,
                       help="HEARTBEAT_LOSS windows/s per engine "
                            "(heartbeats dropped, work unaffected)")
    fault.add_argument("--host-fail-rate", type=float, default=0.0,
                       help="per-host probability/s of a HOST_FAIL "
                            "killing every replica on the host "
                            "(needs --num-hosts)")
    fault.add_argument("--scale-stall-rate", type=float, default=0.0,
                       help="slow-provisioning windows per second (replica "
                            "warm-up is 2-6x slower inside each window; "
                            "only meaningful with --autoscale)")
    fault.add_argument("--deadline-factor", type=float, default=None,
                       help="abort requests older than factor x their SLO")
    fault.add_argument("--slo", type=float, default=None,
                       help="attach this latency SLO (seconds) to every "
                            "generated request")
    fault.add_argument("--gpu-slots", type=int, default=None,
                       help="GPU adapter slots (default: all adapters "
                            "resident; lower it to exercise swaps)")
    overload = serve.add_argument_group(
        "overload protection (docs/FAULTS.md; all default-off)"
    )
    overload.add_argument("--admission-rate", type=float, default=None,
                          help="token-bucket admission rate in tokens "
                               "(input+output) per second")
    overload.add_argument("--admission-burst", type=float, default=None,
                          help="token-bucket capacity (default: one second "
                               "of refill)")
    overload.add_argument("--admission-queue-limit", type=int, default=None,
                          help="reject arrivals once this many requests "
                               "are live in the engine")
    overload.add_argument("--admission-kv-headroom", type=float, default=None,
                          help="reject arrivals while the KV free-block "
                               "fraction is below this floor")
    overload.add_argument("--admission-slo-reject", action="store_true",
                          help="reject deadline-carrying arrivals whose "
                               "deadline is already unmeetable (needs "
                               "--slo and --deadline-factor)")
    overload.add_argument("--brownout", action="store_true",
                          help="enable brownout degraded-service tiers "
                               "(shed low priority, cap decodes, force "
                               "merged mode)")
    overload.add_argument("--brownout-queue-high", type=int, default=None,
                          help="queue depth that counts as pressure 1.0 "
                               "(default 64; implies --brownout)")
    overload.add_argument("--breaker-cooldown", type=float, default=None,
                          help="re-probe a quarantined adapter after this "
                               "many seconds (default: quarantine is "
                               "permanent)")
    cluster = serve.add_argument_group(
        "multi-GPU / elastic autoscaling (docs/AUTOSCALING.md; "
        "all default-off — the default run is a single static engine)"
    )
    cluster.add_argument("--num-gpus", type=int, default=1,
                         help="replica count (static) or the initial "
                              "replica count (with --autoscale)")
    cluster.add_argument("--dispatch", default="least-loaded",
                         choices=DISPATCH_POLICIES,
                         help="inter-GPU dispatch policy ('locality' = "
                              "cache-state-aware placement, "
                              "docs/PLACEMENT.md)")
    cluster.add_argument("--disagg", action="store_true",
                         help="disaggregated serving: split the fleet into "
                              "a prefill pool and a decode pool with a "
                              "priced KV hand-off between them "
                              "(docs/DISAGGREGATION.md)")
    cluster.add_argument("--prefill-replicas", type=int, default=1,
                         help="prefill-pool size with --disagg (default 1)")
    cluster.add_argument("--decode-replicas", type=int, default=1,
                         help="decode-pool size with --disagg (default 1)")
    cluster.add_argument("--disagg-kv-target", type=float, default=None,
                         help="decode-pool KV-residency scaling target in "
                              "(0, 1] (requires --disagg --autoscale; the "
                              "prefill pool scales on queue depth as "
                              "usual; default 0.75)")
    cluster.add_argument("--placement-hot-watermark", type=float,
                         default=0.03,
                         help="popularity share above which 'locality' "
                              "replicates an adapter")
    cluster.add_argument("--placement-hot-copies", type=int, default=2,
                         help="ring homes a hot adapter is served from")
    cluster.add_argument("--placement-cold-watermark", type=float,
                         default=0.0,
                         help="popularity share below which resident "
                              "adapters are demoted off non-home "
                              "replicas (0 = off)")
    cluster.add_argument("--placement-prefetch-top-k", type=int, default=8,
                         help="hot adapters a newly spawned replica "
                              "prefetches during warm-up")
    cluster.add_argument("--autoscale", action="store_true",
                         help="enable elastic replica autoscaling "
                              "(WARMING/ACTIVE/DRAINING lifecycle)")
    cluster.add_argument("--autoscale-min", type=int, default=1,
                         help="minimum ACTIVE+WARMING replicas")
    cluster.add_argument("--autoscale-max", type=int, default=4,
                         help="maximum live replicas")
    cluster.add_argument("--autoscale-target-queue", type=float, default=8.0,
                         help="EWMA live requests per replica the policy "
                              "holds (scale up above, down below a "
                              "fraction of it)")
    cluster.add_argument("--autoscale-slo-floor", type=float, default=None,
                         help="also scale up when smoothed SLO attainment "
                              "drops below this fraction (needs --slo)")
    cluster.add_argument("--autoscale-spinup", type=float, default=0.5,
                         help="flat engine-provisioning part of a new "
                              "replica's cold start, seconds")
    cluster.add_argument("--autoscale-drain-timeout", type=float,
                         default=30.0,
                         help="re-home a draining replica's leftover work "
                              "after this many seconds")
    cluster.add_argument("--detector", action="store_true",
                         help="replace the omniscient failure oracle "
                              "with phi-accrual heartbeat detection and "
                              "lease-fenced exactly-once dispatch "
                              "(docs/FAULTS.md)")
    cluster.add_argument("--phi-suspect", type=float, default=2.0,
                         help="phi threshold to SUSPECT a replica "
                              "(drained, not killed)")
    cluster.add_argument("--phi-confirm", type=float, default=8.0,
                         help="phi threshold to CONFIRM a replica dead "
                              "(lease seized, work re-dispatched)")
    cluster.add_argument("--heartbeat-interval", type=float, default=0.25,
                         help="replica heartbeat cadence in sim seconds")
    cluster.add_argument("--num-hosts", type=int, default=0,
                         help="spread replicas over this many failure "
                              "domains (enables HOST_FAIL targeting; "
                              "0 = no correlated domains)")

    tail = serve.add_argument_group(
        "tail-tolerant dispatch (docs/FAULTS.md; all default-off — "
        "hedging needs --num-gpus >= 2)"
    )
    tail.add_argument("--hedge", action="store_true",
                      help="dispatch a second copy of a request stuck "
                           "past the observed latency percentile; first "
                           "completion wins, the loser is fenced")
    tail.add_argument("--hedge-percentile", type=float, default=95.0,
                      help="per-priority completion-latency percentile "
                           "that arms the hedge threshold")
    tail.add_argument("--hedge-after", type=float, default=None,
                      help="fixed hedge threshold in seconds (overrides "
                           "the percentile tracker; implies --hedge)")
    tail.add_argument("--retry-budget", type=float, default=None,
                      metavar="RATIO",
                      help="cap retries (hedges, swap retries, failover "
                           "requeues) to this fraction of fresh "
                           "dispatches per priority class (e.g. 0.1)")
    tail.add_argument("--retry-budget-burst", type=float, default=20.0,
                      help="token-bucket depth of the retry budget")
    tail.add_argument("--give-up-after", type=float, default=None,
                      help="hard per-request deadline in seconds from "
                           "arrival, for requests without their own")

    compare = sub.add_parser(
        "compare", help="sweep request rates across all systems"
    )
    _common_serving_args(compare)
    compare.add_argument("--rates", default="4,8,12",
                         help="comma-separated request rates")
    compare.add_argument("--systems", default=",".join(
        ("v-lora", "s-lora", "punica", "dlora")))
    compare.add_argument("--parallel", type=int, default=None, metavar="N",
                         help="run sweep cells on N worker processes "
                              "(identical results to the serial sweep)")

    fuse = sub.add_parser(
        "fuse", help="plan adapter generation with the fusion oracle"
    )
    fuse.add_argument(
        "--items", required=True,
        help="spec like family:count:floor[,family:count:floor...]",
    )

    tiling = sub.add_parser("tiling-search",
                            help="run Algorithm 2 and summarize")
    tiling.add_argument("--dim", type=int, default=4096)
    tiling.add_argument("--rank", type=int, default=64)
    tiling.add_argument("--gpu", default="A100-80GB", choices=list_gpus())

    report = sub.add_parser(
        "report", help="summarize results/ written by the benches"
    )
    report.add_argument("--results-dir", default="results")

    trace = sub.add_parser("trace", help="generate or inspect trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    gen = trace_sub.add_parser("generate")
    _common_serving_args(gen)
    gen.add_argument("--out", required=True)
    stats = trace_sub.add_parser("stats")
    stats.add_argument("--path", required=True)
    return parser


def _common_serving_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="retrieval",
                        choices=("retrieval", "video", "diurnal"))
    parser.add_argument("--trough", type=float, default=None,
                        help="diurnal trough rate in requests/s "
                             "(default: rate / 5; diurnal workload only)")
    parser.add_argument("--period", type=float, default=None,
                        help="diurnal period in seconds "
                             "(default: duration / 2; diurnal only)")
    parser.add_argument("--model", default="Qwen-VL-7B",
                        choices=list_models())
    parser.add_argument("--rate", type=float, default=6.0,
                        help="requests/s (retrieval) or streams (video)")
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--adapters", type=int, default=8)
    parser.add_argument("--skew", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=0)


def _parse_rates(text: str) -> Optional[List[float]]:
    """Parse a comma-separated rate list; None on malformed input."""
    try:
        rates = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        return None
    if not rates or any(r <= 0 for r in rates):
        return None
    return rates


def _workload_flag_error(args) -> Optional[str]:
    """Why the workload flags of ``serve``, ``compare`` and ``trace
    generate`` describe no workload, or ``None`` when they do."""
    if args.command == "compare":
        rates, flag = _parse_rates(args.rates), "--rates"
        if rates is None:
            return (f"malformed --rates {args.rates!r}; expected positive "
                    f"comma-separated numbers like '4,8,12'")
    else:
        rates, flag = [args.rate], "--rate"
    for rate in rates:
        if not 0 < rate < math.inf:
            return f"{flag} must be positive and finite, got {rate}"
        if args.workload == "video" and not rate.is_integer():
            return (f"{flag} counts video streams and must be a whole "
                    f"number >= 1, got {rate}")
    if args.workload == "diurnal":
        if args.trough is not None and not 0 <= args.trough <= min(rates):
            return (f"--trough must be in [0, {min(rates)}] (no higher "
                    f"than {flag}), got {args.trough}")
        if args.period is not None and not 0 < args.period < math.inf:
            return (f"--period must be positive and finite, "
                    f"got {args.period}")
    if not 0 < args.duration < math.inf:
        return (f"--duration must be positive and finite, "
                f"got {args.duration}")
    if args.adapters < 1:
        return f"--adapters must be >= 1, got {args.adapters}"
    if not 0 < args.skew <= 1:
        return f"--skew must be in (0, 1], got {args.skew}"
    return None


#: ``serve``'s fault-rate flags: argparse dest -> ``FaultInjector.random``
#: keyword.  Both the negativity check and the injector read this map.
_FAULT_RATE_FLAGS = {
    "swap_fail_rate": "swap_fail_rate",
    "swap_slow_rate": "swap_slow_rate",
    "kv_pressure_rate": "kv_pressure_rate",
    "engine_slow_rate": "engine_slow_rate",
    "burst_rate": "load_burst_rate",
    "scale_stall_rate": "scale_stall_rate",
    "partition_rate": "partition_rate",
    "heartbeat_loss_rate": "heartbeat_loss_rate",
    "host_fail_rate": "host_fail_rate",
}


def _make_fault_injector(args) -> "Optional[object]":
    from repro.runtime.faults import FaultInjector

    rates = {keyword: getattr(args, dest)
             for dest, keyword in _FAULT_RATE_FLAGS.items()}
    if all(r <= 0 for r in rates.values()):
        return None
    adapter_ids = [f"lora-{i}" for i in range(args.adapters)]
    engine_ids = (tuple(f"gpu-{i}" for i in range(args.num_gpus))
                  if args.num_gpus > 1 else ("engine-0",))
    # Faults must be able to land after the arrival window too (the
    # queue drains past --duration under load).
    return FaultInjector.random(
        horizon_s=args.duration * 4,
        seed=args.fault_seed,
        adapter_ids=adapter_ids,
        engine_ids=engine_ids,
        host_ids=tuple(f"host-{i}" for i in range(args.num_hosts)),
        **rates,
    )


def _make_overload_configs(args):
    """(admission, brownout, breaker) configs from serve flags.

    Raises ``ValueError`` on malformed knob values; all three are
    ``None`` when no overload flag was given.
    """
    from repro.runtime.overload import (
        AdmissionConfig,
        BreakerConfig,
        BrownoutConfig,
    )

    if args.admission_burst is not None and args.admission_rate is None:
        raise ValueError("--admission-burst requires --admission-rate")
    admission = None
    if (args.admission_rate is not None
            or args.admission_queue_limit is not None
            or args.admission_kv_headroom is not None
            or args.admission_slo_reject):
        admission = AdmissionConfig(
            rate_tokens_per_s=args.admission_rate,
            burst_tokens=args.admission_burst,
            max_queue_depth=args.admission_queue_limit,
            min_kv_headroom=args.admission_kv_headroom,
            slo_reject=args.admission_slo_reject,
        )
    brownout = None
    if args.brownout or args.brownout_queue_high is not None:
        if args.brownout_queue_high is not None:
            brownout = BrownoutConfig(queue_high=args.brownout_queue_high)
        else:
            brownout = BrownoutConfig()
    breaker = None
    if args.breaker_cooldown is not None:
        breaker = BreakerConfig(cooldown_s=args.breaker_cooldown)
    return admission, brownout, breaker


def _make_tail_configs(args):
    """(hedge, retry_budget) from serve flags.

    Raises ``ValueError`` on malformed knob values (``--give-up-after``
    included); both are ``None`` when no tail-tolerance flag was given.
    """
    from repro.runtime.hedging import (
        HedgeConfig,
        RetryBudget,
        RetryBudgetConfig,
    )

    if args.give_up_after is not None and args.give_up_after <= 0:
        raise ValueError(
            f"--give-up-after must be positive, got {args.give_up_after}")
    hedge = None
    if args.hedge or args.hedge_after is not None:
        hedge = HedgeConfig(percentile=args.hedge_percentile,
                            after_s=args.hedge_after)
    retry_budget = None
    if args.retry_budget is not None:
        retry_budget = RetryBudget(RetryBudgetConfig(
            ratio=args.retry_budget, burst=args.retry_budget_burst,
        ))
    return hedge, retry_budget


def _make_workload(args, system: str) -> list:
    builder_ids = [f"lora-{i}" for i in range(args.adapters)]
    heads = system == "v-lora"
    slo = getattr(args, "slo", None)
    if args.workload == "retrieval":
        return RetrievalWorkload(
            builder_ids, rate_rps=args.rate, duration_s=args.duration,
            top_adapter_share=args.skew, use_task_heads=heads,
            slo_s=slo, seed=args.seed,
        ).generate()
    if args.workload == "diurnal":
        from repro.workloads.diurnal import diurnal_burst_trace

        trough = args.trough if args.trough is not None else args.rate / 5
        period = args.period if args.period is not None else args.duration / 2
        return diurnal_burst_trace(
            builder_ids, peak_rps=args.rate, trough_rps=trough,
            period_s=period, duration_s=args.duration,
            top_adapter_share=args.skew, use_task_heads=heads,
            slo_s=slo, seed=args.seed,
        )
    requests = VideoAnalyticsWorkload(
        builder_ids, num_streams=int(args.rate),
        duration_s=args.duration, use_task_heads=heads, seed=args.seed,
    ).generate()
    if slo is not None:
        for r in requests:
            r.slo_s = slo
    return requests


def cmd_systems(_args) -> int:
    print("serving systems (see repro.core.builder for the part matrix):")
    parts = {
        "v-lora": "ATMM + Algorithm 1 + swift switcher + prefix reuse",
        "s-lora": "S-LoRA kernel + unmerged-only FCFS",
        "punica": "Punica kernel + unmerged-only FCFS (per-request prefill)",
        "dlora": "Einsum + merged/unmerged switching (slow switcher)",
        "merge-only": "ATMM + merged-only (ablation)",
        "unmerge-only": "ATMM + unmerged-only (ablation)",
    }
    for name in SYSTEM_NAMES:
        print(f"  {name:<14} {parts[name]}")
    return 0


def cmd_models(_args) -> int:
    print(f"{'model':<16}{'layers':>8}{'dim':>8}{'params':>10}{'weights':>10}")
    for name in list_models():
        m = get_model(name)
        print(f"{m.name:<16}{m.num_layers:>8}{m.hidden_dim:>8}"
              f"{m.total_params / 1e9:>9.2f}B"
              f"{m.weight_bytes / 2**30:>9.1f}G")
    return 0


def cmd_serve(args) -> int:
    if args.deadline_factor is not None and args.deadline_factor <= 0:
        print(f"--deadline-factor must be positive, got {args.deadline_factor}",
              file=sys.stderr)
        return 2
    for dest in _FAULT_RATE_FLAGS:
        rate = getattr(args, dest)
        if rate < 0:
            print(f"--{dest.replace('_', '-')} must be >= 0 (fault rates "
                  f"are events per sim-second), got {rate}", file=sys.stderr)
            return 2
    if args.num_hosts < 0:
        print(f"--num-hosts must be >= 0, got {args.num_hosts}",
              file=sys.stderr)
        return 2
    try:
        admission, brownout, breaker = _make_overload_configs(args)
    except ValueError as exc:
        print(f"bad overload-protection flags: {exc}", file=sys.stderr)
        return 2
    try:
        hedge, retry_budget = _make_tail_configs(args)
    except ValueError as exc:
        print(f"bad tail-tolerance flags: {exc}", file=sys.stderr)
        return 2
    if args.disagg_kv_target is not None and not (
            args.disagg and args.autoscale):
        print("--disagg-kv-target requires --disagg and --autoscale",
              file=sys.stderr)
        return 2
    if args.disagg:
        if args.prefill_replicas < 1 or args.decode_replicas < 1:
            print("--prefill-replicas and --decode-replicas must be >= 1",
                  file=sys.stderr)
            return 2
        total = args.prefill_replicas + args.decode_replicas
        if args.num_gpus not in (1, total):
            # 1 is argparse's default: treat it as "derive from the pools".
            print(f"--num-gpus {args.num_gpus} disagrees with "
                  f"--prefill-replicas + --decode-replicas = {total}; "
                  f"drop --num-gpus (it is derived) or make them match",
                  file=sys.stderr)
            return 2
        args.num_gpus = total
    if hedge is not None and args.num_gpus < 2 and not args.autoscale:
        print("--hedge needs a second replica to race against "
              "(--num-gpus >= 2 or --autoscale)", file=sys.stderr)
        return 2
    if args.slo is not None and args.slo <= 0:
        print(f"--slo must be positive, got {args.slo}", file=sys.stderr)
        return 2
    if args.gpu_slots is not None and args.gpu_slots <= 0:
        print(f"--gpu-slots must be positive, got {args.gpu_slots}",
              file=sys.stderr)
        return 2
    if args.profile is not None and args.profile <= 0:
        print(f"--profile must be positive, got {args.profile}",
              file=sys.stderr)
        return 2
    if args.num_gpus < 1:
        print(f"--num-gpus must be >= 1, got {args.num_gpus}",
              file=sys.stderr)
        return 2
    injector = _make_fault_injector(args)
    builder = SystemBuilder(model=get_model(args.model),
                            num_adapters=args.adapters,
                            gpu_adapter_slots=args.gpu_slots,
                            jitter_seed=args.seed,
                            fault_injector=injector,
                            deadline_slo_factor=args.deadline_factor,
                            admission=admission,
                            brownout=brownout,
                            breaker=breaker)
    if args.dispatch == "locality" and args.num_gpus < 2 \
            and not args.autoscale:
        print("--dispatch locality needs a fleet to place over "
              "(--num-gpus >= 2 or --autoscale)", file=sys.stderr)
        return 2
    if (args.num_gpus > 1 or args.autoscale or args.detector
            or hedge is not None or args.disagg):
        from repro.runtime import (
            AdapterPlacement,
            AutoscaleConfig,
            Autoscaler,
            DisaggConfig,
            FailureDetector,
            FailureDetectorConfig,
            MultiGPUServer,
            PlacementConfig,
        )

        scaler = None
        if args.autoscale:
            try:
                scaler = Autoscaler(AutoscaleConfig(
                    min_replicas=args.autoscale_min,
                    max_replicas=args.autoscale_max,
                    target_queue_per_replica=args.autoscale_target_queue,
                    slo_floor=args.autoscale_slo_floor,
                    spinup_s=args.autoscale_spinup,
                    drain_timeout_s=args.autoscale_drain_timeout,
                ))
            except ValueError as exc:
                print(f"bad autoscale flags: {exc}", file=sys.stderr)
                return 2
        detector = None
        if args.detector:
            try:
                detector = FailureDetector(FailureDetectorConfig(
                    heartbeat_interval_s=args.heartbeat_interval,
                    phi_suspect=args.phi_suspect,
                    phi_confirm=args.phi_confirm,
                ))
            except ValueError as exc:
                print(f"bad detector flags: {exc}", file=sys.stderr)
                return 2
        placement = None
        if args.dispatch == "locality":
            try:
                placement = AdapterPlacement(PlacementConfig(
                    hot_watermark=args.placement_hot_watermark,
                    hot_copies=args.placement_hot_copies,
                    cold_watermark=args.placement_cold_watermark,
                    prefetch_top_k=args.placement_prefetch_top_k,
                ))
            except ValueError as exc:
                print(f"bad placement flags: {exc}", file=sys.stderr)
                return 2
        disagg = None
        if args.disagg:
            from dataclasses import replace as dc_replace

            prefill_scale = decode_scale = None
            if scaler is not None:
                # --disagg --autoscale means per-pool scalers: the
                # prefill pool keeps the queue-depth policy; the decode
                # pool scales on fleet KV residency instead.
                prefill_scale = scaler.config
                kv_target = args.disagg_kv_target
                try:
                    decode_scale = dc_replace(
                        scaler.config,
                        target_utilization=(
                            0.75 if kv_target is None else kv_target),
                    )
                except ValueError as exc:
                    print(f"bad --disagg-kv-target: {exc}", file=sys.stderr)
                    return 2
                scaler = None
            try:
                disagg = DisaggConfig(
                    prefill_replicas=args.prefill_replicas,
                    decode_replicas=args.decode_replicas,
                    prefill_autoscale=prefill_scale,
                    decode_autoscale=decode_scale,
                )
            except ValueError as exc:
                print(f"bad disagg flags: {exc}", file=sys.stderr)
                return 2
        engine = MultiGPUServer.replicate(
            lambda: builder.build(args.system), args.num_gpus,
            dispatch=args.dispatch, autoscaler=scaler,
            detector=detector, num_hosts=args.num_hosts,
            hedge=hedge, retry_budget=retry_budget, placement=placement,
            disagg=disagg,
        )
    else:
        engine = builder.build(args.system)
    if args.trace_in:
        try:
            requests = load_trace(args.trace_in)
        except FileNotFoundError:
            print(f"trace file not found: {args.trace_in}", file=sys.stderr)
            return 2
        except (ValueError, KeyError) as exc:
            print(f"malformed trace {args.trace_in}: {exc}", file=sys.stderr)
            return 2
    else:
        requests = _make_workload(args, args.system)
    if injector is not None and injector.load_burst_windows():
        from repro.workloads.burst import apply_load_bursts

        requests = apply_load_bursts(requests, injector)
    if args.trace_out:
        save_trace(args.trace_out, requests)
        print(f"trace saved to {args.trace_out} ({len(requests)} requests)")
    if args.give_up_after is not None:
        # The give-up bound is the default deadline of every request
        # that has none, on one engine and on a cluster alike.
        for r in requests:
            if r.deadline_s is None:
                r.deadline_s = args.give_up_after
    engine.submit(requests)
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        metrics = engine.run()
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(args.profile)
    else:
        metrics = engine.run()
    summary = metrics.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"system={args.system} model={args.model} "
              f"workload={args.workload} load={args.rate}")
        for key, value in summary.items():
            print(f"  {key:>24}: {value:.4f}")
    return 0


def cmd_compare(args) -> int:
    rates = _parse_rates(args.rates)
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in systems if s not in SYSTEM_NAMES]
    if unknown or not systems:
        print(f"unknown system(s) {unknown or args.systems!r}; expected a "
              f"comma-separated subset of {', '.join(SYSTEM_NAMES)}",
              file=sys.stderr)
        return 2
    if args.parallel is not None and args.parallel <= 0:
        print(f"--parallel must be positive, got {args.parallel}",
              file=sys.stderr)
        return 2
    builder = SystemBuilder(model=get_model(args.model),
                            num_adapters=args.adapters,
                            jitter_seed=args.seed)
    runner = SweepRunner(builder, systems=systems)

    def factory(rate, system):
        args_copy = argparse.Namespace(**vars(args))
        args_copy.rate = rate
        return _make_workload(args_copy, system)

    sweep = runner.run("rate_rps", rates, factory, parallel=args.parallel)
    metric = "avg_token_latency_ms"
    series = {s: sweep.series(s, metric) for s in systems}
    print(line_chart(series, title=f"{metric} vs rate",
                     x_label="requests/s", y_label="ms/token"))
    if "v-lora" in systems and len(systems) > 1:
        comparison = SystemComparison(sweep, reference="v-lora",
                                      metric=metric)
        print("\nV-LoRA reduction vs baselines:")
        for baseline, text in comparison.summary().items():
            print(f"  {baseline:<12} {text}")
    return 0


def cmd_fuse(args) -> int:
    items: List[KnowledgeItem] = []
    for chunk in args.items.split(","):
        try:
            family, count, floor = chunk.split(":")
            for i in range(int(count)):
                items.append(KnowledgeItem(
                    f"{family}-{i}", family, float(floor)
                ))
        except ValueError:
            print(f"bad item spec {chunk!r}; expected family:count:floor",
                  file=sys.stderr)
            return 2
    result = KnowledgeFusion(OracleEvaluator()).fuse(items)
    print(f"{len(items)} items -> {result.num_adapters} adapters "
          f"({result.num_rollbacks} rollbacks)")
    for adapter in result.adapters:
        names = ", ".join(i.name for i in adapter.items)
        worst = min(adapter.achieved.values())
        print(f"  {adapter.adapter_id}: [{names}] min accuracy {worst:.3f}")
    if result.violations:
        print(f"  unsatisfiable floors: {result.violations}")
    return 0


def cmd_tiling_search(args) -> int:
    from repro.kernels.search import TilingSearch

    gpu = get_gpu(args.gpu)
    search = TilingSearch(gpu, coarse=False)
    pairs = search.kn_pairs_for_model([args.dim], [args.rank])
    table, report = search.search(pairs, max_m=8192)
    print(f"gpu={gpu.name} configs={report.num_configs} "
          f"shapes={report.num_shapes} profiles={report.num_profiles} "
          f"winners={report.distinct_winners} entries={len(table)}")
    lat = {
        f"m={m}": table.profiled_latency(m, args.dim, args.rank) * 1e6
        for m in search.m_buckets(8192)
    }
    print(bar_chart(lat, title="optimal shrink-GEMM latency per bucket",
                    unit="us"))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import render_report

    try:
        print(render_report(args.results_dir))
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_trace(args) -> int:
    if args.trace_command == "generate":
        requests = _make_workload(args, "v-lora")
        save_trace(args.out, requests)
        print(f"wrote {len(requests)} requests to {args.out}")
        return 0
    try:
        stats = trace_stats(load_trace(args.path))
    except FileNotFoundError:
        print(f"trace file not found: {args.path}", file=sys.stderr)
        return 2
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "systems": cmd_systems,
    "models": cmd_models,
    "serve": cmd_serve,
    "compare": cmd_compare,
    "fuse": cmd_fuse,
    "tiling-search": cmd_tiling_search,
    "report": cmd_report,
    "trace": cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # serve, compare and trace generate: the commands that generate a
    # workload from the shared serving flags.
    if hasattr(args, "workload"):
        error = _workload_flag_error(args)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
