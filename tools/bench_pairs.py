"""Run the benchmark on a base commit and on the working tree, in pairs.

    python3 tools/bench_pairs.py --base 900fad2 --seeds 21-30 --seconds 30 \
        --out BENCH_quotient.json

Run from the repository root.  The base commit is exported with
``git archive`` into a temporary directory.  For every workload in
``BENCHMARK.json`` and every seed, one untraced run
(``perfbench/run.py --trace 0``) of the base and one of the working tree
run back to back, the base first on even seeds and last on odd ones, so
slow drifts of the machine hit both sides alike.  Then traced runs
(``--trace 1``, seeds 1-3, in the same alternation) give the layer
breakdown.  Each run is a fresh process, and prints a progress line to
stderr led by its side, ``base`` or ``change``.  The output is a JSON list
of records ``{commit, workload, trace, seed, result}``, where ``result`` is
the last line ``perfbench/run.py`` prints.  A run that exits non-zero,
prints no result or reports a failed check stops the script with exit
status 1, after printing that run's stderr tail.

At the end it prints one row per workload and end-to-end metric of
``BENCHMARK.json``: the base and change medians of the untraced runs with
their quartiles, the pairs (same seed) the change won, whether the gain
rule holds (at least 9 of 10 pairs won, and a median gap wider than the
base's interquartile range) and whether the metric's bound holds (the
change median no worse than the base median by more than ``bound`` of it).
A bound that holds is ``unresolved`` when the base's interquartile range
is wider than ``bound`` of its median and not every change run beats every
base run: the base's own spread could hide a regression that large.
Then it prints one row per workload and ``per_layer`` metric: the median
over the traced runs of the base and of the change, so one slow host moment
during one traced run does not reverse a layer's direction, and change /
base for counts and ratios.  A time from three traced runs per side is
still too noisy to divide, so a time metric gets ``-`` in place of a ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(side: str, tree: str, commit: str, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One run of `perfbench/run.py` in `tree`; `side` ("base" or "change")
    leads its progress line, since both sides can name one commit."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    what = f"{side} {commit[:7]} {workload} seed {seed} trace {trace}"
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode or result is None or not result["correct"] or result["failed"]:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        sys.exit(f"{what}: exit {done.returncode}, "
                 f"{'no result' if result is None else 'failed ' + str(result['failed'])}"
                 f"\n{tail}")
    metrics = result["metrics"]
    shown = metrics.get("wall_s", metrics.get("trace.wall_s"))["value"]
    print(f"{what} wall {shown:.4f}", file=sys.stderr, flush=True)
    return {"commit": commit, "workload": workload, "trace": trace, "seed": seed,
            "result": result}


def summary(records: list[dict], base: str, benchmark: dict) -> list[str]:
    """One row per workload and end-to-end metric, comparing the untraced
    runs of `base` with the other side's, paired by seed."""
    rows = [f"{'workload':<15} {'metric':<15} {'base median [q1, q3]':>27} "
            f"{'change median [q1, q3]':>27} {'won':>6}  gain  bound"]
    for workload in benchmark["workloads"]:
        runs = [r for r in records if r["workload"] == workload["name"] and not r["trace"]]
        for metric in benchmark["end_to_end"]:
            sides = ({}, {})  # seed -> value, for the base and the change
            for r in runs:
                sides[r["commit"] != base][r["seed"]] = r["result"]["metrics"][metric["name"]]["value"]
            seeds = sorted(sides[0].keys() & sides[1].keys())
            if not seeds:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            (q1, med, q3), (c1, cmed, c3) = (
                statistics.quantiles([side[s] for s in seeds], n=4, method="inclusive")
                for side in sides)
            won = sum(sign * (sides[1][s] - sides[0][s]) < 0 for s in seeds)
            gain = 10 * won >= 9 * len(seeds) and sign * (med - cmed) > q3 - q1
            bound = sign * (cmed - med) <= metric["bound"] * abs(med)
            spread = q3 - q1 > metric["bound"] * abs(med)
            beats = max(sign * sides[1][s] for s in seeds) < min(sign * sides[0][s] for s in seeds)
            verdict = "FAILS" if not bound else "unresolved" if spread and not beats else "holds"
            rows.append(f"{workload['name']:<15} {metric['name']:<15} "
                        f"{_quartiles(med, q1, q3):>27} {_quartiles(cmed, c1, c3):>27} "
                        f"{won:>3}/{len(seeds):<2}  {'yes' if gain else 'no':<4}  "
                        f"{verdict}")
    return rows


def layer_rows(records: list[dict], base: str, benchmark: dict) -> list[str]:
    """One row per workload and per-layer metric, the median over each
    side's traced runs; only the exact metrics, counts and ratios, get
    change / base."""
    rows = [f"{'workload':<15} {'layer metric':<28} {'base':>12} {'change':>12} {'ratio':>7}"]
    for workload in benchmark["workloads"]:
        sides = ([], [])  # the metrics of the base's and the change's traced runs
        for r in records:
            if r["workload"] == workload["name"] and r["trace"]:
                sides[r["commit"] != base].append(r["result"]["metrics"])
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            if not all(runs and all(name in m for m in runs) for runs in sides):
                continue
            old, new = (statistics.median(m[name]["value"] for m in runs) for runs in sides)
            exact = metric["unit"] in ("count", "ratio")
            ratio = f"{new / old:.3f}" if exact and old else "-"
            rows.append(f"{workload['name']:<15} {name:<28} "
                        f"{old:>12.6g} {new:>12.6g} {ratio:>7}")
    return rows


def _quartiles(median: float, q1: float, q3: float) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--seeds", required=True, help="untraced seeds, e.g. 21-30")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    base = git("rev-parse", args.base)
    head = git("rev-parse", "HEAD")
    change = head + ("+" if git("status", "--porcelain", "--untracked-files=no") else "")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", base], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = (("base", tmp, base), ("change", ROOT, change))
        for workload in workloads:
            for seed in seed_range(args.seeds):
                for side in sides[::1 if seed % 2 == 0 else -1]:
                    records.append(run(*side, workload, seed, args.seconds, 0))
        for workload in workloads:
            for seed in (1, 2, 3):
                for side in sides[::1 if seed % 2 == 0 else -1]:
                    records.append(run(*side, workload, seed, args.seconds, 1))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print("\n".join(summary(records, base, benchmark) + layer_rows(records, base, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
