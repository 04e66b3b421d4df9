"""Repo benchmark: SLO metrics on a rate ladder over four serving workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale X]

Each workload serves a ladder of four request rates (``suite.py``).  One
measurement serves the ladder in three fresh processes (``child.py``),
each on its own traces derived from the seed, and pools their requests
for the simulated metrics.  While ``--seconds`` allows, the parts are
served again, and each repeat must reproduce its part's digest exactly;
``sim_rps`` counts every process, ``setup_s`` and ``peak_rss_mb`` are
medians over them.

With ``--trace 1`` the workload's part 0 is served twice instead,
untraced and then with every public layer call timed (``layers.py``);
the two digests must match, and the per-layer metrics are reported.
``--seconds`` does not apply to this round.

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, first
untraced and then traced (``--trace`` picks one of the two).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when an
output check failed and 2 when a process failed to produce a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Independent traces pooled per measurement.
PARTS = 3
#: Wall-clock budget of one invocation per workload and round; the
#: benchmark contract allows 180 s.
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    """A workload process failed before producing its result."""


def run_child(workload, seed, part, trace, scale, deadline):
    """Serve one part of ``workload`` in a fresh process; its JSON."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--workload", workload, "--seed", str(seed), "--part", str(part),
           "--scale", str(scale)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", "--trace-out",
                str(OUT_DIR / f"trace-{workload}.json")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} part {part}: timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{workload} part {part} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- statistics -------------------------------------------------------------


def percentile(ordered, q):
    """Linear-interpolated ``q``-th percentile of a sorted list."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def interquartile_mean(ordered):
    """Mean of the middle half of a sorted list."""
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def worst_mean(ordered):
    """Mean of the slowest 1 % of a sorted list (at least one sample)."""
    tail = ordered[-max(1, len(ordered) // 100):]
    return sum(tail) / len(tail)


def pool_rungs(parts):
    """Per rung: the parts' samples pooled, and whether it meets the SLO."""
    first = parts[0]
    out = []
    for i, rate_row in enumerate(first["rungs"]):
        rows = [p["rungs"][i] for p in parts]
        rung = {"rate_rps": rate_row["rate_rps"],
                "sent": sum(r["sent"] for r in rows),
                "failed": sum(r["failed"] for r in rows),
                "good": sum(r["good"] for r in rows),
                "drain_s": max(r["drain_s"] for r in rows)}
        for key in ("ttft", "tpot", "e2e"):
            rung[key] = sorted(v for r in rows for v in r[key])
        p99 = {k: percentile(rung[k], 99) if rung[k] else None
               for k in ("ttft", "tpot")}
        rung["meets_slo"] = (
            not rung["failed"] and p99["ttft"] is not None
            and p99["ttft"] <= first["ttft_limit_s"]
            and (first["tpot_limit_s"] is None or p99["tpot"] is None
                 or p99["tpot"] <= first["tpot_limit_s"])
            and rung["drain_s"] <= first["drain_limit_s"])
        out.append(rung)
    return out


def sim_rps(children):
    """Requests served per wall second of the serve phase (``run()``)."""
    return (sum(r["sent"] for c in children for r in c["rungs"])
            / sum(r["serve_s"] for c in children for r in c["rungs"]))


def end_to_end(children):
    """Pooled rungs and the end-to-end metrics, ``name -> (value, unit)``."""
    rungs = pool_rungs(children[:PARTS])
    head = rungs[children[0]["headline"]]
    passing = [r["rate_rps"] for r in rungs if r["meets_slo"]]
    return rungs, {
        "sim_rps": (sim_rps(children), "req/s"),
        "setup_s": (statistics.median(
            c["import_s"] + sum(r["setup_s"] for r in c["rungs"])
            for c in children), "s"),
        "peak_rss_mb": (statistics.median(
            c["peak_rss_mb"] for c in children), "MB"),
        "ttft_iqm_s": (interquartile_mean(head["ttft"]), "s"),
        "ttft_worst1pct_s": (worst_mean(head["ttft"]), "s"),
        "e2e_iqm_s": (interquartile_mean(head["e2e"]), "s"),
        "e2e_worst1pct_s": (worst_mean(head["e2e"]), "s"),
        "slo_goodput": (head["good"] / head["sent"], "fraction"),
        "max_rate_rps": (max(passing, default=0.0), "req/s"),
    }


def child_errors(children):
    """Failed output checks, and repeats that did not reproduce."""
    errors = [f"part {c['part']} rung {i}: {e}" for c in children
              for i, r in enumerate(c["rungs"]) for e in r["errors"]]
    for c in children[PARTS:]:
        if c["digest"] != children[c["part"]]["digest"]:
            errors.append(f"part {c['part']} did not reproduce its digest")
    return errors


# -- the two rounds ------------------------------------------------------------


def measure(workload, seed, seconds, scale):
    """Untraced round: the parts, then repeats while ``seconds`` allow."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    children = []
    while True:
        began = time.monotonic()
        children.append(run_child(workload, seed, len(children) % PARTS,
                                  False, scale, deadline))
        took = time.monotonic() - began
        now = time.monotonic()
        if len(children) >= PARTS and (now + took - start > seconds
                                       or now + 2 * took > deadline):
            break
    rungs, metrics = end_to_end(children)
    return {"children": children, "rungs": rungs, "metrics": metrics,
            "errors": child_errors(children)}


def trace_round(workload, seed, scale):
    """Traced round: part 0 untraced, then traced; same digest required."""
    deadline = time.monotonic() + DEADLINE_S
    plain = run_child(workload, seed, 0, False, scale, deadline)
    traced = run_child(workload, seed, 0, True, scale, deadline)
    errors = child_errors([plain]) + child_errors([traced])
    if traced["digest"] != plain["digest"]:
        errors.append("tracing changed the served results (digest differs)")
    serve_s = sum(r["serve_s"] for r in traced["rungs"])
    metrics = {k: (v["value"], v["unit"])
               for k, v in traced["per_layer"].items()}
    unattributed = metrics["trace.unattributed_s"][0]
    if abs(unattributed) > 0.01 * serve_s:
        errors.append(f"layer self times miss {unattributed:.3f} s of the "
                      f"{serve_s:.3f} s traced serve phase")
    metrics["trace.overhead"] = (sim_rps([plain]) / sim_rps([traced]), "x")
    return {"children": [plain, traced], "metrics": metrics,
            "errors": errors, "serve_s": serve_s}


# -- reporting --------------------------------------------------------------------


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_ladder(workload, seed, result):
    first = result["children"][0]
    tpot_limit = first["tpot_limit_s"]
    slo = f"p99 TTFT <= {first['ttft_limit_s']} s" + (
        f", p99 TPOT <= {tpot_limit} s" if tpot_limit is not None else "")
    print(f"== {workload}  seed {seed}: {len(result['children'])} "
          f"processes, {PARTS} parts pooled; open loop, arrivals fixed in "
          f"advance (generator lateness 0 s)")
    print(f"   SLO: {slo}, no failures, drained within "
          f"{first['drain_limit_s']:g} s of the last arrival")
    print(f"   {'rate':>6} {'sent':>7} {'failed':>6} {'ttft_p50':>9} "
          f"{'ttft_p99':>9} {'>p99':>5} {'tpot_p50':>9} {'tpot_p99':>9} "
          f"{'>p99':>5} {'e2e_p50':>8} {'e2e_p99':>8} {'goodput':>8} "
          f"{'drain_s':>8}  slo")
    for r in result["rungs"]:
        cells = []
        for key in ("ttft", "tpot", "e2e"):
            xs = r[key]
            if xs:
                cells += [f"{percentile(xs, 50):9.4f}",
                          f"{percentile(xs, 99):9.4f}"]
                if key != "e2e":
                    cells.append(f"{len(xs) // 100:5d}")
            else:
                cells += [f"{'-':>9}", f"{'-':>9}"] + (
                    [f"{'-':>5}"] if key != "e2e" else [])
        print(f"   {r['rate_rps']:6g} {r['sent']:7d} {r['failed']:6d} "
              + " ".join(cells)
              + f" {r['good'] / r['sent']:8.4f} {r['drain_s']:8.2f}  "
              + ("meets" if r["meets_slo"] else "misses"))
    print("   sha256 digest per part: " + " ".join(
        c["digest"] for c in result["children"][:PARTS]))


def print_metrics(title, metrics, specs):
    print(f"   {title}")
    for name, (value, unit) in metrics.items():
        spec = specs.get(name, {})
        bound = spec.get("bound")
        print(f"     {name:32s} {_fmt(value):>14} {unit:9s} "
              f"{spec.get('better', '?'):6s}"
              + (f" bound {bound:g}" if bound is not None else ""))


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"],
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: per-layer round only; 0: untraced only")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every rung's request count")
    args = parser.parse_args(argv)
    specs = {m["name"]: m
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    workloads = [args.workload] if args.workload else names
    rounds = [args.trace] if args.trace is not None else [0, 1]

    metrics, errors, attempted, failed = {}, [], 0, 0
    try:
        for traced in rounds:
            for workload in workloads:
                if traced:
                    result = trace_round(workload, args.seed, args.scale)
                    print(f"== {workload}  seed {args.seed}: traced round "
                          f"({result['serve_s']:.2f} s traced serve)")
                    print_metrics("per-layer metrics", result["metrics"],
                                  specs)
                else:
                    result = measure(workload, args.seed, args.seconds,
                                     args.scale)
                    print_ladder(workload, args.seed, result)
                    print_metrics("end-to-end metrics", result["metrics"],
                                  specs)
                for child in result["children"]:
                    attempted += sum(r["sent"] for r in child["rungs"])
                    failed += sum(r["failed"] for r in child["rungs"])
                errors += [f"{workload}: {e}" for e in result["errors"]]
                prefix = "" if args.workload else f"{workload}/"
                metrics.update({prefix + k: {"value": v, "unit": u}
                                for k, (v, u) in result["metrics"].items()})
                sys.stdout.flush()
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for e in errors:
        print(f"CHECK FAILED {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
