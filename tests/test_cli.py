import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pglab
from pglab.cli import main

# -- analyze -----------------------------------------------------------------------


def test_analyze_json(capsys):
    assert main(["analyze", "C12", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"] == "C12"
    assert doc["order"] == 12
    assert doc["patterns"]["P5"] is None
    assert doc["patterns"]["P4"] is not None


def test_analyze_text(capsys):
    assert main(["analyze", "C6"]) == 0
    out = capsys.readouterr().out
    assert "order 6" in out
    assert "diamond: found" in out
    assert "P5: free" in out
    assert "cograph=True" in out


def test_analyze_proper(capsys):
    assert main(["analyze", "S3", "--proper", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proper"] is True
    assert doc["chain"] is True


def test_analyze_pattern_subset(capsys):
    assert main(["analyze", "C12", "--patterns", "P4,C4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["patterns"]) == {"P4", "C4"}


def test_analyze_unknown_pattern(capsys):
    assert main(["analyze", "C12", "--patterns", "P9"]) == 2
    assert "unknown pattern" in capsys.readouterr().err


def test_analyze_bad_spec(capsys):
    assert main(["analyze", "Z99"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_export_json(tmp_path, capsys):
    out_path = tmp_path / "graph.json"
    assert main(["analyze", "S3", "--proper", "--export", "json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["n"] == 5
    assert doc["edges"] == [[1, 4]]


def test_analyze_export_unknown_format_keeps_the_file(tmp_path, capsys):
    out_path = tmp_path / "graph.xml"
    out_path.write_text("earlier content\n")
    assert main(["analyze", "S3", "--export", "xml", str(out_path)]) == 2
    assert "unknown export format" in capsys.readouterr().err
    assert out_path.read_text() == "earlier content\n"


def test_analyze_export_dot(tmp_path):
    out_path = tmp_path / "graph.dot"
    assert main(["analyze", "C3", "--export", "dot", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("graph {")
    assert "0 -- 1;" in text


@pytest.mark.parametrize("spec,proper,fmt", [("S4", True, "json"), ("C12", False, "dot")])
def test_analyze_export_is_the_analyzed_graph(tmp_path, capsys, spec, proper, fmt):
    """The export writes the graph `analyze` searched, byte for byte as a
    fresh build of that power graph would serialize."""
    out_path = tmp_path / f"graph.{fmt}"
    argv = ["analyze", spec, "--export", fmt, str(out_path)] + (["--proper"] if proper else [])
    assert main(argv) == 0
    fresh = pglab.build_power_graph(pglab.build_group(spec), proper=proper)
    assert out_path.read_text(encoding="utf-8") == pglab.export_graph(fresh, fmt)


def test_analyze_cap_and_allow_large(monkeypatch, capsys):
    monkeypatch.setenv("PG_GROUP_CAP", "4")
    assert main(["analyze", "C6", "--json"]) == 2
    assert "exceeding" in capsys.readouterr().err
    assert main(["analyze", "C6", "--allow-large", "--json"]) == 0


def test_allow_large_keeps_a_larger_env_cap(tmp_path, monkeypatch, capsys):
    """--allow-large raises the cap to at least 25,200; it does not lower a
    larger PG_GROUP_CAP (PSL(2,37) has order 25,308)."""
    monkeypatch.setenv("PG_GROUP_CAP", "30000")
    assert main(["analyze", "PSL(2,37)", "--proper", "--patterns", "C3",
                 "--allow-large", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 25308
    corpus = tmp_path / "c.txt"
    corpus.write_text("PSL(2,37)\n")
    assert main(["verify", "T-CHAIN", "--corpus", str(corpus), "--allow-large"]) == 0
    assert "PSL(2,37): graph=false" in capsys.readouterr().out
    monkeypatch.setenv("PG_GROUP_CAP", "6")
    assert main(["analyze", "C12", "--allow-large", "--json"]) == 0


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
@pytest.mark.parametrize("argv", [["analyze", "C4"], ["analyze", "C4", "--allow-large"],
                                  ["verify", "T-CHAIN"]])
def test_bad_env_cap_is_named_in_one_message(monkeypatch, capsys, value, argv):
    monkeypatch.setenv("PG_GROUP_CAP", value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: PG_GROUP_CAP must be a positive integer, not {value!r}\n"


# -- verify ------------------------------------------------------------------------


def test_verify_single_case_json(capsys):
    assert main(["verify", "T-DIAMOND"]) == 0
    out = capsys.readouterr().out
    assert "T-DIAMOND" in out
    assert "0 mismatches" in out or "mismatches" in out


def test_verify_all_small_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C2\nC3\nC6\nS3\nQ8\nE2^2\n")
    assert main(["verify", "all", "--corpus", str(corpus), "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 16
    assert {d["theorem"] for d in docs} == set(
        __import__("pglab").THEOREM_IDS
    )
    assert all(d["mismatches"] == 0 for d in docs)
    sz = next(d for d in docs if d["theorem"] == "T-SZ")
    assert sz["entries"] == [] and sz["note"] == "rhs-only"


def test_verify_text_shows_witness(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C6\n")
    assert main(["verify", "T-DIAMOND", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "C6: graph=false rhs=false ok" in out
    assert "witness" in out


def test_verify_unknown_case(capsys):
    assert main(["verify", "T-NOPE"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_verify_missing_corpus_file(capsys):
    assert main(["verify", "T-DIAMOND", "--corpus", "/nonexistent/corpus.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_bad_corpus_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C6\nZZZ9\n")
    assert main(["verify", "T-DIAMOND", "--corpus", str(corpus)]) == 2


def test_verify_min_hole_length_flag(capsys):
    """`verify` takes no hole length: a hole has length at least 4 in every
    case that searches for one."""
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--min-hole-length", "6"])
    assert info.value.code == 2
    assert "unrecognized arguments: --min-hole-length" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["2", "0", "-5"])
def test_verify_min_hole_length_below_three_is_rejected(length, capsys):
    """A length below 3 still exits 2, now because the flag itself is gone."""
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--min-hole-length", length])
    assert info.value.code == 2
    assert "unrecognized arguments: --min-hole-length" in capsys.readouterr().err


# -- corpus / numbers ----------------------------------------------------------------


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 60
    assert "PSL(2,13)" in lines
    assert "C1" in lines


def test_numbers_psl2(capsys):
    assert main(["numbers", "psl2", "7"]) == 0
    out = capsys.readouterr().out
    assert "3 (admissible)" in out
    assert "4 (admissible)" in out
    assert "predicate true" in out


def test_numbers_psl2_negative(capsys):
    assert main(["numbers", "psl2", "71"]) == 0
    out = capsys.readouterr().out
    assert "36 (not admissible)" in out
    assert "predicate false" in out


def test_numbers_sz(capsys):
    assert main(["numbers", "sz", "8"]) == 0
    out = capsys.readouterr().out
    assert "7 (admissible)" in out
    assert "5 (admissible)" in out
    assert "13 (admissible)" in out
    assert "predicate true" in out


def test_numbers_invalid_parameter(capsys):
    assert main(["numbers", "sz", "16"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["numbers", "psl2", "6"]) == 2
    capsys.readouterr()
    for q in ("0", "-8"):
        assert main(["numbers", "sz", q]) == 2
        assert f"Suzuki parameter must be 2^(2e+1) with e >= 1, got {q}" in capsys.readouterr().err


# Runs a "module:attr" target the way the console-script wrapper that pip
# writes for [project.scripts] runs it: argv[0] is the script name and the
# target's return value becomes the process exit code.
_CONSOLE_SCRIPT = """
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
target = getattr(importlib.import_module(module), attr)
sys.argv[0] = "pg"
sys.exit(target())
"""


def _run_console_script(target, *args):
    src = str(Path(pglab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", _CONSOLE_SCRIPT, target, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_entry_point_installed():
    """The `pg` script declared in pyproject.toml names a callable that
    behaves as a console script; where `pg` is installed, it runs too."""
    installed = shutil.which("pg")
    if installed is not None:
        run = subprocess.run([installed, "--help"], capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("pg") == "pglab.cli:main"

    target = scripts["pg"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    run = _run_console_script(target, "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: pg")

    run = _run_console_script(target, "numbers", "psl2", "7")
    assert run.returncode == 0, run.stderr
    assert "psl2 q=7: side numbers 3 (admissible), 4 (admissible)" in run.stdout

    run = _run_console_script(target, "numbers", "sz", "16")
    assert run.returncode == 2
    assert "error" in run.stderr
