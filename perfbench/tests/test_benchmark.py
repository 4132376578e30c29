"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The counter test makes two fresh traced runs of every workload, so it takes
a few minutes.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from check import OutputCheck, _is_hole, load_reference  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import COUNTERS, LAYER_METRICS  # noqa: E402
from workloads import LARGE_CAP, WORKLOADS, Item  # noqa: E402


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_output_check_catches_changed_outputs():
    from pglab.harness import analyze_group

    key = "C4xC9xC2"
    doc = analyze_group(key, cap=LARGE_CAP).to_dict()
    check = OutputCheck("analyze-mix", LARGE_CAP, load_reference())
    assert check.problems(Item(key, 0.0, doc)) == []

    flipped = copy.deepcopy(doc)
    flipped["chordal"] = not flipped["chordal"]
    assert check.problems(Item(key, 0.0, flipped))

    # A P4 witness with its first two vertices swapped is no longer a path.
    swapped = copy.deepcopy(doc)
    w = swapped["patterns"]["P4"]
    w[0], w[1] = w[1], w[0]
    assert any("induces none" in p for p in check.problems(Item(key, 0.0, swapped)))

    assert check.problems(Item(key, 0.0, error="RuntimeError()"))


def test_output_check_catches_changed_verify_reports():
    from pglab import Harness

    doc = Harness().run_case("S-CHORDAL-NILP").to_dict()
    check = OutputCheck("verify-default", None, load_reference())
    assert check.problems(Item("S-CHORDAL-NILP", 0.0, doc)) == []

    # The seed only reorders entries; that alone is no difference.
    reordered = copy.deepcopy(doc)
    reordered["entries"].reverse()
    assert check.problems(Item("S-CHORDAL-NILP", 0.0, reordered)) == []

    dropped = copy.deepcopy(doc)
    dropped["entries"].pop()
    assert check.problems(Item("S-CHORDAL-NILP", 0.0, dropped))

    # C30's hole is a 6-cycle; out of cycle order it is no longer a hole.
    scrambled = copy.deepcopy(doc)
    entry = next(e for e in scrambled["entries"] if e["group"] == "C30")
    entry["witness"][1], entry["witness"][2] = entry["witness"][2], entry["witness"][1]
    assert any("hole" in p for p in check.problems(Item("S-CHORDAL-NILP", 0.0, scrambled)))


def test_hole_check():
    c6 = [(1 << (i - 1) % 6) | (1 << (i + 1) % 6) for i in range(6)]
    assert _is_hole(c6, "even") and _is_hole(c6, "any")
    chorded = list(c6)
    chorded[0] |= 1 << 3
    chorded[3] |= 1 << 0
    assert not _is_hole(chorded, "any")
    c5 = [(1 << (i - 1) % 5) | (1 << (i + 1) % 5) for i in range(5)]
    assert _is_hole(c5, "any") and not _is_hole(c5, "even")


def _traced_counters(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {c: result["metrics"][c]["value"] for c in COUNTERS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_repeat_across_fresh_traced_runs(workload):
    # Different seeds permute the work differently; the counts must not move.
    first = _traced_counters(workload, seed=1)
    assert first["patterns.searches"] > 0 and first["power_graph.graphs"] > 0
    assert _traced_counters(workload, seed=2) == first
