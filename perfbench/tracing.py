"""Per-layer tracing from outside the program.

`Tracer.install` wraps the entry points of each pglab layer at run time. It
patches every name in the namespace its caller looks it up in:
``pglab.harness`` for the harness's calls, ``pglab.patterns`` for the pattern
module's calls to itself, ``pglab.constructors`` for its calls into the group
kernel and the finite fields, and the class for methods. Each wrapper opens a
span. A span's self
time is its duration minus the time of the spans opened inside it, so the
self times of all layers add up to the traced time and no layer is counted
twice. Counters are taken from the results at the same boundaries.
`uninstall` puts every original back.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from time import perf_counter

# Fixed here rather than read from pglab, so the metric names stay the ones
# BENCHMARK.json lists whatever the program does.
PATTERN_NAMES = ("P4", "P5", "P5bar", "C3", "C4", "C5", "2K2", "diamond",
                 "co-diamond", "P2uP3", "P2uP3bar")
CASE_IDS = ("T-CHAIN", "T-P5-NILP", "T-P5P5B-NILP", "T-P5P5B-PRODUCT", "T-SN",
            "T-AN", "T-PSL2", "T-SZ", "T-P2P3-NILP", "T-P2P3-NONNILP",
            "T-DIAMOND", "T-EVENHOLE-DIAMOND", "T-DIAMOND-CODIAMOND",
            "S-COGRAPH-NULLPRIME", "S-CHORDAL-NILP", "S-COGRAPH-NILP")
COUNTERS = ("patterns.searches", "power_graph.graphs", "power_graph.vertices",
            "power_graph.edges", "power_graph.reduced_vertices",
            "power_graph.classes", "group_kernel.compose_calls",
            "constructors.elements")

# (metric, unit) of every per-layer metric, in the order they are printed.
# "_s" metrics are self time, except patterns.<pattern>_s and harness.<case>_s,
# which are the whole duration of that pattern's searches or that case.
# Which end-to-end metric each should move, on which workload:
# - patterns.*: wall_s and slowest_item_s on verify-default and analyze-mix;
#   chordal_s and hole_s mainly wall_s on analyze-mix.
# - power_graph.*: wall_s and peak_rss_mb on verify-large.
# - classifiers.*, group_kernel.*, constructors.*, finite_field.*: wall_s on
#   verify-large.
# - harness.*: slowest_item_s on verify-default; cli.self_s: its wall_s.
LAYER_METRICS = (
    [("patterns.search_s", "s")]
    + [(f"patterns.{p}_s", "s") for p in PATTERN_NAMES]
    + [("patterns.searches", "count"), ("patterns.found_ratio", "ratio"),
       ("patterns.chordal_s", "s"), ("patterns.hole_s", "s"),
       ("power_graph.build_s", "s"), ("power_graph.reduce_s", "s"),
       ("power_graph.graphs", "count"), ("power_graph.vertices", "count"),
       ("power_graph.edges", "count"), ("power_graph.reduced_vertices", "count"),
       ("power_graph.classes", "count"),
       ("classifiers.flags_s", "s"), ("classifiers.rhs_s", "s"),
       ("group_kernel.orders_s", "s"), ("group_kernel.closure_s", "s"),
       ("group_kernel.compose_calls", "count"),
       ("constructors.build_s", "s"), ("constructors.elements", "count"),
       ("finite_field.setup_s", "s")]
    + [(f"harness.{c}_s", "s") for c in CASE_IDS]
    + [("harness.self_s", "s"), ("cli.self_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


def _pattern(args, kwargs) -> str:
    pattern = args[1] if len(args) > 1 else kwargs["pattern"]
    return pattern if isinstance(pattern, str) else pattern.name


def _search_name(args, kwargs) -> str:
    return "patterns." + _pattern(args, kwargs)


def _case_name(args, kwargs) -> str:
    return "harness." + (args[1] if len(args) > 1 else kwargs["theorem_id"])


class Tracer:
    """Self time per layer, duration per pattern and per case, and counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)   # layer -> self time
        self.total_s: dict[str, float] = defaultdict(float)  # span name -> duration
        self.counts: dict[str, int] = defaultdict(int)
        self.searches: dict[tuple[str, str], float] = defaultdict(float)
        self.hook_s = 0.0
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        self._graph_labels: dict[int, str] = {}
        self._compose_calls = itertools.count()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        from pglab import cli, constructors, harness, patterns
        from pglab.group_kernel import Group

        for ns in (harness, patterns):
            self._span(ns, "find_induced_pattern", "patterns.search",
                       name=_search_name, hook=self._on_search)
            self._span(ns, "_mcs_is_chordal", "patterns.chordal")
            self._span(ns, "find_hole", "patterns.hole")
            self._span(ns, "twin_reduce", "power_graph.reduce", hook=self._on_reduce)
        self._span(harness, "build_power_graph", "power_graph.build",
                   hook=self._on_graph)
        self._span(harness, "compute_structure_flags", "classifiers.flags")
        self._span(harness, "rhs_predicate", "classifiers.rhs")
        self._span(harness, "build_group", "constructors.build", hook=self._on_group)
        self._span(harness, "direct_product", "constructors.build", hook=self._on_group)
        self._span(constructors, "close_generators", "group_kernel.closure")
        for fn in ("construct_field", "index_tables", "primitive_element"):
            self._span(constructors, fn, "finite_field.setup")
        self._span(Group, "element_orders", "group_kernel.orders")
        self._span(harness.Harness, "run_case", "harness.self", name=_case_name)
        self._span(harness, "analyze_group", "harness.self")
        self._span(cli, "main", "cli.self")
        self._label_reductions(harness.GroupBundle)
        self._count_compose(Group)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, layer: str, name=None, hook=None) -> None:
        original = getattr(owner, attr)
        open_spans, self_s, total_s = self._open, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[layer] += took - open_spans.pop()
                if name is not None:
                    total_s[name(args, kwargs)] += took
                if open_spans:
                    open_spans[-1] += took
            if hook is not None:
                # Bookkeeping counts as nobody's self time.
                start = perf_counter()
                hook(took, args, kwargs, result)
                took = perf_counter() - start
                self.hook_s += took
                if open_spans:
                    open_spans[-1] += took
            return result

        self._patch(owner, attr, wrapper)

    def _label_reductions(self, bundle_cls) -> None:
        """Remember which group (and which of P(G), P*(G)) a search graph is."""
        original = bundle_cls.reduction
        labels = self._graph_labels

        def reduction(bundle, proper):
            red = original(bundle, proper)
            labels[id(red)] = bundle.label + ("*" if proper else "")
            return red

        self._patch(bundle_cls, "reduction", reduction)

    def _count_compose(self, group_cls) -> None:
        original = group_cls.compose

        def compose(group, i, j, _tick=self._compose_calls.__next__):
            _tick()
            return original(group, i, j)

        self._patch(group_cls, "compose", compose)

    # -- hooks ----------------------------------------------------------------

    def _on_search(self, took, args, kwargs, witness) -> None:
        self.counts["patterns.searches"] += 1
        self.counts["patterns.found"] += witness is not None
        label = self._graph_labels.get(id(args[0]), "?")
        self.searches[(label, _pattern(args, kwargs))] += took

    def _on_graph(self, took, args, kwargs, graph) -> None:
        self.counts["power_graph.graphs"] += 1
        self.counts["power_graph.vertices"] += graph.n
        self.counts["power_graph.edges"] += sum(row.bit_count() for row in graph.adj) // 2

    def _on_reduce(self, took, args, kwargs, red) -> None:
        self.counts["power_graph.reduced_vertices"] += red.graph.n
        self.counts["power_graph.classes"] += len(red.classes)

    def _on_group(self, took, args, kwargs, group) -> None:
        self.counts["constructors.elements"] += group.order

    # -- results --------------------------------------------------------------

    def layer_values(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Value of every metric in LAYER_METRICS; layers never entered read 0."""
        values: dict[str, float] = {m: 0 for m, _ in LAYER_METRICS}
        values.update({f"{layer}_s": t for layer, t in self.self_s.items()})
        values.update({f"{span}_s": t for span, t in self.total_s.items()})
        values.update({c: self.counts[c] for c in COUNTERS})
        # Reading the counter advances it, so it is read once, after the pass.
        values["group_kernel.compose_calls"] = next(self._compose_calls)
        searches = self.counts["patterns.searches"]
        values["patterns.found_ratio"] = self.counts["patterns.found"] / searches if searches else 0.0
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        return {m: values[m] for m, _ in LAYER_METRICS}

    def top_searches(self, n: int = 10) -> list[tuple[float, str, str]]:
        ranked = sorted(((s, g, p) for (g, p), s in self.searches.items()), reverse=True)
        return ranked[:n]
