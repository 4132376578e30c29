"""The benchmark's own files use pglab.  perfbench/tracing.py patches pglab
names given as strings and reads reductions through `GroupBundle.reduction`;
perfbench/check.py replays witnesses on a `Graph` given by vertex rows, with
`verify_witness`, and holds every report to a digest in
perfbench/reference.json.  These tests run them in-process, so a refactor
that renames or moves what they use, or changes a report, fails here, not
only in perfbench/tests, which this suite does not run."""

import importlib.util
import os
import random

from pglab.harness import Corpus, Harness, analyze_group
from pglab.constructors import parse_group_spec

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_pglab():
    tracer = _load("tracing").Tracer()
    entries = tuple(map(parse_group_spec, ("S4", "PSL(2,8)")))
    factors = tuple(map(parse_group_spec, ("C2", "C3")))
    harness = Harness(Corpus(entries, factors, (8,)))
    tracer.install()
    try:
        patched = list(tracer._undo)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
        analyze_group("PSL(2,7)", proper=True)
        for theorem_id in ("T-CHAIN", "T-P5P5B-PRODUCT", "T-SZ"):
            harness.run_case(theorem_id)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    values = tracer.layer_values(1.0, 1.0)
    assert values["finite_field.setup_s"] > 0
    assert values["power_graph.reduced_vertices"] > 0
    assert values["patterns.searches"] > 0
    # The walk composes through `Group.compose`, which the tracer counts.
    assert values["group_kernel.compose_calls"] > 0
    for case in ("T-CHAIN", "T-P5P5B-PRODUCT", "T-SZ"):
        assert values[f"harness.{case}_s"] > 0
    # Product groups come from `direct_product` and are reduced through
    # `GroupBundle.reduction`, so their searches carry their labels.
    searched = {graph for _, graph, _ in tracer.top_searches(100)}
    assert {"C2xC3*", "C3xC2*"} <= searched


def test_benchmark_replays_a_witness(monkeypatch):
    """check.py imports `workloads` by name, as perfbench/run.py does."""
    monkeypatch.syspath_prepend(PERFBENCH)
    check = _load("check")
    doc = analyze_group("PSL(2,7)", proper=True).to_dict()
    name, witness = next((k, w) for k, w in doc["patterns"].items() if w is not None)
    one = dict(doc, patterns={name: witness})
    replay = check.WitnessReplay(None)
    assert replay.problems(check.Item("PSL(2,7)*", 0.0, one)) == []
    other = next(k for k, w in doc["patterns"].items() if w is None)
    wrong = dict(doc, patterns={other: witness})
    assert "induces none" in replay.problems(check.Item("PSL(2,7)*", 0.0, wrong))[0]


def test_reports_match_the_benchmark_reference(monkeypatch):
    """One pass of each workload (`pg verify all --json`, verify-large's three
    cases on perfbench/large.corpus, the analyze-mix requests) gives every
    digest in perfbench/reference.json, and no other."""
    monkeypatch.syspath_prepend(PERFBENCH)
    check = _load("check")
    workloads = importlib.import_module("workloads")  # as check.py imports it
    digests = {}
    for name, workload_cls in workloads.WORKLOADS.items():
        workload = workload_cls()
        workload.setup()
        for item in workload.run_pass(random.Random(0)).items:
            assert item.error is None, f"{name}/{item.key}: {item.error}"
            digests.update(check.item_digests(name, item))
    reference = check.load_reference()
    assert len(reference) == 695
    assert {k for k in reference.keys() | digests.keys()
            if digests.get(k) != reference.get(k)} == set()
