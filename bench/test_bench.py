"""Self-test of the repo benchmark at tiny scale: ``python -m pytest bench/``.

Checks that the printed metric names are exactly the ones
``BENCHMARK.json`` declares, that the traced round attributes the whole
serve phase to layers, and that the served results are a function of
the seed alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.02"


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _child(workload, seed, *extra):
    return _run("child.py", "--workload", workload, "--seed", str(seed),
                "--scale", SCALE, *extra)


def _simulated(result):
    """Everything a child reports that is not a host measurement."""
    keep = ("ttft", "tpot", "e2e", "good", "drain_s", "counters", "sent",
            "failed", "errors")
    return [{k: r[k] for k in keep} for r in result["rungs"]]


def test_printed_metric_names_match_manifest():
    result = _run("run.py", "--seed", "0", "--seconds", "0",
                  "--scale", SCALE)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = {w["name"] for w in MANIFEST["workloads"]}
    expected = {f"{w}/{m['name']}" for w in names
                for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"]
             for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split("/", 1)[1]], name


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_one_workload_prints_its_section(trace, section):
    result = _run("run.py", "--workload", "fleet-disagg", "--seed", "3",
                  "--seconds", "0", "--scale", SCALE, "--trace", trace)
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST[section]]


def test_layer_self_times_cover_the_serve_phase():
    result = _child("fleet-zipf", 0, "--trace")
    serve = sum(r["serve_s"] for r in result["rungs"])
    assert abs(serve - result["serve_self_s"]) <= 0.01 * serve
    layers = result["per_layer"]
    assert layers["placement.calls"]["value"] > 0
    assert layers["engine.calls"]["value"] > 0


def test_results_depend_on_the_seed_alone():
    first = _child("retrieval-lm", 7)
    again = _child("retrieval-lm", 7)
    other = _child("retrieval-lm", 8)
    assert first["digest"] == again["digest"]
    assert _simulated(first) == _simulated(again)
    assert first["digest"] != other["digest"]
