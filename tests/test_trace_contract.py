"""The per-layer tracer in perfbench/tracing.py patches pglab names given as
strings and reads reductions through `GroupBundle.reduction`.  This runs it
on a small workload, so a refactor that renames or moves what it patches
fails here, not only in perfbench/tests, which this suite does not run."""

import importlib.util
import os

from pglab.harness import Corpus, CorpusEntry, Harness, analyze_group
from pglab.constructors import parse_group_spec

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_pglab():
    tracer = _load_tracing().Tracer()
    entries = tuple(CorpusEntry(s, parse_group_spec(s)) for s in ("S4", "PSL(2,8)"))
    factors = tuple(CorpusEntry(s, parse_group_spec(s)) for s in ("C2", "C3"))
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
    for case in ("T-CHAIN", "T-P5P5B-PRODUCT", "T-SZ"):
        assert values[f"harness.{case}_s"] > 0
    # Product groups come from `direct_product` and are reduced through
    # `GroupBundle.reduction`, so their searches carry their labels.
    searched = {graph for _, graph, _ in tracer.top_searches(100)}
    assert {"C2xC3*", "C3xC2*"} <= searched
