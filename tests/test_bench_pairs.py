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
        bench_pairs.run(tree, "0123456789", "verify-large", 3, 1, 0)
    assert stop.value.code not in (0, None)
    assert "exit 1, no result" in str(stop.value.code)
    assert "the run broke" in str(stop.value.code)


def test_failed_check_exits_non_zero(tmp_path):
    result = {"correct": False, "attempted": 3, "failed": 2,
              "metrics": {"wall_s": {"value": 1.0}}}
    tree = _tree(tmp_path, f"print({json.dumps(json.dumps(result))})\n")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run(tree, "0123456789", "verify-large", 3, 1, 0)
    assert "exit 0, failed 2" in str(stop.value.code)


def test_correct_run_is_recorded(tmp_path):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0}}}
    tree = _tree(tmp_path, f"print({json.dumps(json.dumps(result))})\n")
    record = bench_pairs.run(tree, "0123456789", "verify-large", 3, 1, 0)
    assert record["result"] == result and record["seed"] == 3
