"""`tools/bench_pairs.py` stops on a run that crashes or fails its check."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _tree(tmp_path, body):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body)
    return str(tmp_path)


def test_crashed_run_shows_its_stderr_and_exits_non_zero(tmp_path):
    tree = _tree(tmp_path, "import sys\nsys.exit('the run broke')\n")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run("base", tree, "0123456789", "verify-large", 3, 1, 0)
    assert stop.value.code not in (0, None)
    assert "exit 1, no result" in str(stop.value.code)
    assert "the run broke" in str(stop.value.code)


def test_failed_check_exits_non_zero(tmp_path):
    result = {"correct": False, "attempted": 3, "failed": 2,
              "metrics": {"wall_s": {"value": 1.0}}}
    tree = _tree(tmp_path, f"print({json.dumps(json.dumps(result))})\n")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run("base", tree, "0123456789", "verify-large", 3, 1, 0)
    assert "exit 0, failed 2" in str(stop.value.code)


def test_correct_run_is_recorded(tmp_path):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0}}}
    tree = _tree(tmp_path, f"print({json.dumps(json.dumps(result))})\n")
    record = bench_pairs.run("base", tree, "0123456789", "verify-large", 3, 1, 0)
    assert record["result"] == result and record["seed"] == 3


def test_progress_lines_name_the_side(tmp_path, capsys):
    """A change on top of the base names the same commit on both sides, so
    each progress line and each failure leads with its side."""
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0}}}
    tree = _tree(tmp_path, f"print({json.dumps(json.dumps(result))})\n")
    for side in ("base", "change"):
        bench_pairs.run(side, tree, "0123456789", "verify-large", 3, 1, 0)
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["base 0123456 verify-large seed 3 trace 0 wall 1.0000",
                     "change 0123456 verify-large seed 3 trace 0 wall 1.0000"]
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit('broke')\n")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run("change", tree, "0123456789", "verify-large", 3, 1, 0)
    assert str(stop.value.code).startswith("change 0123456 verify-large seed 3")


def _records(workload, base_values, change_values, metric="peak_rss_mb"):
    """Untraced records, seeds 1, 2, ..., for both sides, plus a traced
    record that the summary must leave out."""
    out = []
    for commit, values in (("base", base_values), ("base+", change_values)):
        for seed, value in enumerate(values, 1):
            out.append({"commit": commit, "workload": workload, "trace": 0, "seed": seed,
                        "result": {"metrics": {metric: {"value": value}}}})
        out.append({"commit": commit, "workload": workload, "trace": 1, "seed": 1,
                    "result": {"metrics": {"trace.wall_s": {"value": 9.0}}}})
    return out


_BENCHMARK = {"workloads": [{"name": "verify-large"}, {"name": "analyze-mix"}],
              "end_to_end": [{"name": "peak_rss_mb", "better": "lower", "bound": 0.25}]}


def test_summary_rows_give_medians_wins_gain_and_bound():
    base = [50.0 + i for i in range(10)]
    records = (_records("verify-large", base, [v - 10 for v in base[:9]] + [70.0])
               + _records("analyze-mix", [10.0] * 10, [13.0] * 10))
    header, large, mix = bench_pairs.summary(records, "base", _BENCHMARK)
    assert header.split()[:2] == ["workload", "metric"]
    assert large.split()[:5] == ["verify-large", "peak_rss_mb", "54.5", "[52.25,", "56.75]"]
    # One pair lost, and a 10 MB gap against a 4.5 MB base spread.
    assert large.split()[5:] == ["44.5", "[42.25,", "46.75]", "9/10", "yes", "holds"]
    # 30% worse on every pair: no gain, and past the 0.25 bound.
    assert mix.split()[8:] == ["0/10", "no", "FAILS"]


def test_summary_needs_nine_wins_in_ten_and_a_gap_wider_than_the_base_spread():
    base = [50.0, 60.0] * 5  # quartiles 50 and 60: a 10 MB spread
    records = (_records("verify-large", base, [v - 5 for v in base])
               + _records("analyze-mix", [10.0] * 10, [9.0] * 8 + [11.0] * 2))
    _, large, mix = bench_pairs.summary(records, "base", _BENCHMARK)
    assert large.split()[-3:] == ["10/10", "no", "holds"]  # a 5 MB gap
    assert mix.split()[-3:] == ["8/10", "no", "holds"]  # 8 wins


def test_summary_reports_unresolved_where_the_base_spread_exceeds_the_bound():
    base = [40.0, 80.0] * 5  # quartiles 40 and 80: a 40 MB spread, past 0.25 of 60
    records = (_records("verify-large", base, [v + 5 for v in base])
               + _records("analyze-mix", base, [30.0] * 10))
    _, large, mix = bench_pairs.summary(records, "base", _BENCHMARK)
    # 8% worse: within the bound, but the base's spread could hide more.
    assert large.split()[-3:] == ["0/10", "no", "unresolved"]
    # Every change run beats every base run, so the spread hides nothing.
    assert mix.split()[-3:] == ["10/10", "no", "holds"]


def _traced(workload, commit, values):
    return {"commit": commit, "workload": workload, "trace": 1, "seed": 1,
            "result": {"metrics": {m: {"unit": "x", "value": v} for m, v in values.items()}}}


def test_layer_rows_give_traced_values_and_their_ratio():
    """Counts and ratios are exact, so they get change / base; a time from
    one traced run per side does not."""
    benchmark = dict(_BENCHMARK, per_layer=[
        {"name": "group_kernel.compose_calls", "unit": "count"},
        {"name": "patterns.found_ratio", "unit": "ratio"},
        {"name": "power_graph.build_s", "unit": "s"},
        {"name": "patterns.searches", "unit": "count"}])
    records = (_records("verify-large", [50.0] * 10, [40.0] * 10)
               + [_traced("verify-large", "base", {"group_kernel.compose_calls": 140907,
                                                   "patterns.found_ratio": 0.5,
                                                   "power_graph.build_s": 0.25,
                                                   "patterns.searches": 0}),
                  _traced("verify-large", "base+", {"group_kernel.compose_calls": 140907,
                                                    "patterns.found_ratio": 0.25,
                                                    "power_graph.build_s": 0.2,
                                                    "patterns.searches": 3}),
                  _traced("analyze-mix", "base", {"power_graph.build_s": 0.1})])
    # The _records helper's own traced records carry only trace.wall_s.
    records = [r for r in records if not (r["trace"] and "trace.wall_s" in r["result"]["metrics"])]
    header, compose, found, build, searches = bench_pairs.layer_rows(records, "base", benchmark)
    assert header.split()[:3] == ["workload", "layer", "metric"]
    assert compose.split() == ["verify-large", "group_kernel.compose_calls", "140907",
                               "140907", "1.000"]
    assert found.split() == ["verify-large", "patterns.found_ratio", "0.5", "0.25", "0.500"]
    assert build.split() == ["verify-large", "power_graph.build_s", "0.25", "0.2", "-"]
    assert searches.split()[-1] == "-"  # zero at the base: no ratio


def test_layer_rows_give_the_median_of_each_sides_traced_runs():
    """One slow traced run per side does not move a layer's value: each side
    prints the median over its traced runs."""
    benchmark = dict(_BENCHMARK, per_layer=[
        {"name": "power_graph.build_s", "unit": "s"},
        {"name": "patterns.searches", "unit": "count"}])
    records = [_traced("verify-large", commit, {"power_graph.build_s": build,
                                                "patterns.searches": searches})
               for commit, build, searches in (
                   ("base", 0.25, 77), ("base", 0.9, 77), ("base", 0.3, 77),
                   ("base+", 0.2, 61), ("base+", 0.21, 61), ("base+", 0.5, 61))]
    header, build, searches = bench_pairs.layer_rows(records, "base", benchmark)
    assert build.split() == ["verify-large", "power_graph.build_s", "0.3", "0.21", "-"]
    assert searches.split() == ["verify-large", "patterns.searches", "77", "61", "0.792"]
