"""pglab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Run from the repository root; pglab is imported from ``src/`` (no installed
``pg`` is needed). With ``--trace 0`` the run sets up several times, then
runs untraced passes of the workload until the next pass would end after
``--seconds`` (but at least two), and prints the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced pass, and prints the
per-layer metrics, the ten most expensive searches and the tracing overhead.

Every case and request is checked (see check.py). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only if every output was right.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from check import OutputCheck, load_reference
from tracing import LAYER_METRICS, Tracer
from workloads import HERE, WORKLOADS, Pass

ROOT = os.path.dirname(os.path.realpath(HERE))
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 25
# Every median rests on at least this many passes, even if they overrun --seconds.
MIN_PASSES = 2

# (metric, unit) of every end-to-end metric.
END_TO_END = (("wall_s", "s"), ("slowest_item_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def fresh_import() -> None:
    """Import pglab from src/ as a new process would, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "pglab" or n.startswith("pglab.")]:
        del sys.modules[name]
    pglab = importlib.import_module("pglab")
    importlib.import_module("pglab.cli")
    if os.path.dirname(os.path.dirname(os.path.realpath(pglab.__file__))) != SRC:
        raise ImportError(f"pglab was imported from {pglab.__file__}, not from src/")


def measure_setup(workload) -> list[float]:
    """Seconds for import, corpus parsing and harness creation, per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        start = perf_counter()
        fresh_import()
        workload.setup()
        samples.append(perf_counter() - start)
    return samples


def reset_caches() -> None:
    """Empty pglab's function caches: each `pg` command starts with them empty."""
    for name, module in list(sys.modules.items()):
        if name.startswith("pglab."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_pass(workload, rng: random.Random) -> Pass:
    reset_caches()
    gc.collect()
    return workload.run_pass(rng)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(passes: list[Pass], setup: list[float], peak_rss_mb: float) -> dict:
    walls = [p.wall for p in passes]
    slowest = [max(item.seconds for item in p.items) for p in passes]
    values = {"wall_s": (statistics.median(walls), len(walls)),
              "slowest_item_s": (statistics.median(slowest), len(slowest)),
              "setup_s": (statistics.median(setup), len(setup)),
              "peak_rss_mb": (peak_rss_mb, 1)}
    for name, unit in END_TO_END:
        value, samples = values[name]
        print(f"{name:16s} {value:12.6f} {unit:3s} median of {samples} sample(s)")
    return {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer: Tracer, untraced: Pass, traced: Pass) -> dict:
    values = tracer.layer_values(traced.wall, untraced.wall)
    for name, unit in LAYER_METRICS:
        print(f"{name:34s} {values[name]:14.6g} {unit}")
    print("top searches (group, * = P*(G); pattern; seconds):")
    for seconds, group, pattern in tracer.top_searches():
        print(f"  {group:24s} {pattern:10s} {seconds:10.4f}")
    print(f"tracing overhead {traced.wall - untraced.wall:.4f} s "
          f"(traced {traced.wall:.4f} s, untraced {untraced.wall:.4f} s, "
          f"bookkeeping {tracer.hook_s:.4f} s)")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    if not os.path.isdir(os.path.join(SRC, "pglab")):
        print(f"error: no pglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        setup = measure_setup(workload)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)

    start = perf_counter()
    passes = [run_pass(workload, rng)]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(workload, rng))
        finally:
            tracer.uninstall()
    else:
        while (len(passes) < MIN_PASSES
               or perf_counter() - start + max(p.wall for p in passes) <= args.seconds):
            passes.append(run_pass(workload, rng))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = OutputCheck(workload.name, workload.cap, load_reference())
    items = [item for p in passes for item in p.items]
    problems = [check.problems(item) for item in items]
    failed = sum(1 for p in problems if p)
    for msg in [msg for p in problems for msg in p][:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "commit": git_commit(),
            "nproc": os.cpu_count(), "pass_walls_s": [p.wall for p in passes],
            "setup_samples": len(setup), "items": len(items)}
    print("run " + json.dumps(info, sort_keys=True))
    print(f"failed_ratio {failed / len(items):.4f} ratio ({failed} of {len(items)} items)")
    if args.trace:
        metrics = per_layer(tracer, *passes)
    else:
        metrics = end_to_end(passes, setup, peak_rss_mb)
    print(json.dumps({"correct": failed == 0, "attempted": len(items),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
