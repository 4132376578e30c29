"""Verification harness: run every classification check over a corpus.

Each row of the case table `classifiers.CASES` pairs a graph-side check
(pattern freeness, then optionally a hole search) with a structural
right-hand side.  The harness evaluates both independently on every subject
the row covers (corpus members, or ordered pairs of product sub-corpus
members) and reports agreement, with witnesses for the failing graph sides.
The harness and `analyze_group` search only P*(G).  P(G) adds the identity,
adjacent to every other vertex, which lies in no induced copy of a pattern
or hole without such a dominating vertex: those have the same first witness
on both graphs.  C3 and the diamond are the exceptions (`_find`).

Reports are deterministic: entry order follows the corpus, witnesses come
from the deterministic searches, and the only run-dependent field is the
wall-time `ms`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import product

from .classifiers import (
    CASES,
    Case,
    StructureFlags,
    THEOREM_IDS,
    compute_structure_flags,
    prime_graph_edges,
    rhs_predicate,
)
from .constructors import (
    AtomSpec,
    GroupSpec,
    GroupSpecError,
    ProductSpec,
    build_group,
    direct_product,
    parse_group_spec,
    spec_label,
)
from .group_kernel import Group
from .patterns import (
    PATTERNS,
    Witness,
    find_hole,
    find_induced_pattern,
    _make_pattern,
    _mcs_is_chordal,
)
from .power_graph import (
    Graph,
    TwinReducedGraph,
    build_power_graph,
    twin_reduce,
    with_identity,
)

DEFAULT_CORPUS_SPECS: tuple[str, ...] = tuple(
    [f"C{n}" for n in range(1, 17)]
    + ["C18", "C20", "C24", "C30", "C36", "C48", "C100"]
    + [f"D{n}" for n in range(3, 9)]
    + ["Q8", "Q16", "E2^2", "E2^3", "E2^4", "E3^2"]
    + [f"S{n}" for n in range(2, 7)]
    + [f"A{n}" for n in range(4, 8)]
    + ["SD(3,2,2)", "SD(7,3,2)", "SD(5,4,2)", "SD(5,4,4)", "SD(9,2,8)",
       "SD(15,2,14)", "C3xC3", "C2xC6", "C4xC9"]
    + [f"PSL(2,{q})" for q in (4, 5, 7, 8, 9, 11, 13)]
)

PRODUCT_SUBCORPUS_SPECS: tuple[str, ...] = (
    "C2", "C3", "C4", "C8", "C9", "C5", "C7", "E2^2", "S3", "SD(7,3,2)",
    "Q8", "D4",
)

PRODUCT_ORDER_CAP = 2048
DEFAULT_SZ_PARAMS: tuple[int, ...] = (8,)


@dataclass(frozen=True)
class Corpus:
    entries: tuple[GroupSpec, ...]
    product_entries: tuple[GroupSpec, ...]
    sz_params: tuple[int, ...]


def default_corpus() -> Corpus:
    return Corpus(
        entries=tuple(map(parse_group_spec, DEFAULT_CORPUS_SPECS)),
        product_entries=tuple(map(parse_group_spec, PRODUCT_SUBCORPUS_SPECS)),
        sz_params=DEFAULT_SZ_PARAMS,
    )


def load_corpus(path: str) -> Corpus:
    """One spec per line; '#' starts a comment.  Product pairs are formed
    from the file's own entries; no Suzuki parameters are implied."""
    entries: list[GroupSpec] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if text:
                try:
                    entries.append(parse_group_spec(text))
                except GroupSpecError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return Corpus(tuple(entries), tuple(entries), ())


class GroupBundle:
    """Per-group lazy cache: group, P*(G), flags, and the twin reduction of
    P*(G), the one graph that is searched (its `original` is P*(G) itself).
    P*(G) is built before the flags: its one walk over the cyclic subgroups
    fills the element orders that the flags read, so no group is walked
    twice.  A product of corpus groups is given its group, built from theirs."""

    def __init__(self, spec: GroupSpec, cap: int | None, group: Group | None = None):
        self.spec = spec
        self.cap = cap
        self.label = spec_label(spec)
        if group is not None:
            self.group = group

    @cached_property
    def group(self) -> Group:
        return build_group(self.spec, self.cap)

    @cached_property
    def graph(self) -> Graph:
        """P*(G), as its quotient on the cyclic subgroups."""
        return build_power_graph(self.group, proper=True)

    @cached_property
    def flags(self) -> StructureFlags:
        self.graph  # built first: its walk fills the element orders
        return compute_structure_flags(self.group)

    @cached_property
    def _reduction(self) -> TwinReducedGraph:
        return twin_reduce(self.graph)

    def reduction(self, proper: bool) -> TwinReducedGraph:
        # perfbench/tracing.py wraps this method by name and passes `proper`; keep both.
        if not proper:
            raise ValueError("only P*(G) is reduced; P(G) is answered from it")
        return self._reduction

    @cached_property
    def chordal(self) -> bool:
        """Whether P*(G) has no hole: one MCS per group, for every case."""
        # perfbench/tracing.py wraps this module's _mcs_is_chordal by name.
        return _mcs_is_chordal(self.reduction(True).graph)


@dataclass(frozen=True)
class EntryRecord:
    group: str
    graph_side: bool | None
    rhs: bool
    agree: bool
    witness: tuple[str, ...] | None


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    entries: tuple[EntryRecord, ...]
    mismatches: int
    ms: int
    note: str | None = None

    def to_dict(self) -> dict:
        """The JSON document: the fields in order, tuples as lists, and
        `note` only when there is one."""
        doc = asdict(self, dict_factory=_json_fields)
        if self.note is None:
            del doc["note"]
        return doc


def _json_fields(fields: list[tuple[str, object]]) -> dict:
    return {k: _json_value(v) for k, v in fields}


def _json_value(value):
    """`value` as JSON reads it back: tuples as lists and dict keys as
    strings, all the way down."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


class Harness:
    """Evaluates every verification case over one corpus, sharing group and
    graph construction across cases."""

    def __init__(self, corpus: Corpus | None = None, cap: int | None = None):
        self.corpus = corpus if corpus is not None else default_corpus()
        self.cap = cap
        self._bundles: dict[GroupSpec, GroupBundle] = {}

    def bundle(self, spec: GroupSpec) -> GroupBundle:
        if spec not in self._bundles:
            self._bundles[spec] = GroupBundle(spec, self.cap)
        return self._bundles[spec]

    def run_case(self, theorem_id: str) -> VerificationReport:
        case = CASES.get(theorem_id)
        if case is None:
            raise ValueError(f"unknown case {theorem_id!r}; "
                             f"available: {', '.join(THEOREM_IDS)}")
        start = time.monotonic()
        records = []
        for label, bundle, rhs_args in self._subjects(case):
            side, witness = ((None, None) if bundle is None
                             else self._graph_side(bundle, case))
            rhs = rhs_predicate(theorem_id, *rhs_args)
            records.append(EntryRecord(
                group=label, graph_side=side, rhs=rhs, agree=side is None or side == rhs,
                witness=None if witness is None else witness.labels))
        ms = int((time.monotonic() - start) * 1000)
        return VerificationReport(theorem_id, tuple(records),
                                  sum(1 for r in records if not r.agree), ms,
                                  "rhs-only" if case.rhs_only else None)

    def _subjects(self, case: Case):
        """(label, bundle to search or None, the structural side's arguments)
        for each subject the case covers, in report order."""
        if case.rhs_only:
            for q in self.corpus.sz_params:
                yield f"Sz({q})", None, (q,)
        elif case.pairs:
            for a, b in product(self.corpus.product_entries, repeat=2):
                ba, bb = self.bundle(a), self.bundle(b)
                if ba.group.order * bb.group.order <= PRODUCT_ORDER_CAP:
                    pair = GroupBundle(ProductSpec(a, b), self.cap,
                                       direct_product(ba.group, bb.group, self.cap))
                    yield pair.label, pair, (ba.flags, bb.flags)
        else:
            for spec in self.corpus.entries:
                if case.family is not None and not (
                        isinstance(spec, AtomSpec) and spec.family == case.family):
                    continue
                bundle = self.bundle(spec)
                if case.when is None or case.when(bundle.flags):
                    yield bundle.label, bundle, (
                        spec.params[0] if case.by_q else bundle.flags,)

    def _graph_side(self, bundle: GroupBundle, case: Case) -> tuple[bool, Witness | None]:
        red = bundle.reduction(True)
        for name in case.patterns:
            w = find_induced_pattern(red, name)
            if w is not None:
                return False, w
        # Chordal graphs have no holes at all; skip the exponential search.
        if not case.hole or bundle.chordal:
            return True, None
        w = find_hole(red)
        return w is None, w

    def run_all(self) -> list[VerificationReport]:
        return [self.run_case(tid) for tid in THEOREM_IDS]


@dataclass(frozen=True)
class AnalysisReport:
    label: str
    flags: StructureFlags
    proper: bool
    prime_graph_edges: tuple[tuple[int, int], ...]  # index pairs into flags.primes
    patterns: dict[str, Witness | None]
    cograph: bool
    chordal: bool
    chain: bool
    graph: Graph = field(repr=False, compare=False)  # the graph analyzed

    def to_dict(self) -> dict:
        flags = asdict(self.flags, dict_factory=_json_fields)
        return {
            "group": self.label,
            "order": flags.pop("order"),
            "factorization": flags.pop("factorization"),
            "flags": flags,
            "proper": self.proper,
            "prime_graph": {
                "primes": list(self.flags.primes),
                "edges": [list(e) for e in self.prime_graph_edges],
                "null": not self.prime_graph_edges,
            },
            "patterns": {name: list(w.labels) if w is not None else None
                         for name, w in self.patterns.items()},
            "cograph": self.cograph,
            "chordal": self.chordal,
            "chain": self.chain,
        }


# C3 and the diamond without their first vertex in search order, which is
# adjacent to all the others: an edge, and a path on three vertices, centre first.
_REST_AFTER_IDENTITY = {"C3": _make_pattern("K2", 2, ((0, 1),)),
                        "diamond": _make_pattern("P3", 3, ((0, 1), (0, 2)))}


def _find(red: TwinReducedGraph, name: str, proper: bool,
          identity: str) -> Witness | None:
    """First witness of a catalog pattern on P*(G), or else on P(G) (whose
    vertex ids are element ids), from the reduction of P*(G).  A first P(G)
    copy of C3 or the diamond puts the identity in that first vertex and the
    first P*(G) copy of the rest after it."""
    rest = None if proper else _REST_AFTER_IDENTITY.get(name)
    w = find_induced_pattern(red, rest or name)
    if w is None or proper:
        return w
    if rest is None:
        return Witness(name, tuple(v + 1 for v in w.vertices), w.labels)
    return Witness(name, (0,) + tuple(v + 1 for v in w.vertices),
                   (identity,) + w.labels)


def analyze_group(spec_text: str, proper: bool = False,
                  patterns: list[str] | None = None,
                  cap: int | None = None) -> AnalysisReport:
    """Full single-group document: flags, prime graph, freeness, witnesses,
    for P*(G) if `proper`, else for P(G).  Cographs are the P4-free graphs and
    chain graphs the {C3, C5, 2K2}-free ones, so those four are always asked.

    Chordality comes first, and a chordal graph answers every pattern with a
    hole (`Pattern.has_hole`: C4, C5, P5bar, P2uP3bar) as free without a
    search.  An induced copy of such a pattern would carry its hole into the
    graph, and `_mcs_is_chordal` answers True only on a checked perfect
    elimination order, so each skipped verdict rests on that certificate.
    P(G) is chordal exactly when P*(G) is, since the identity, adjacent to
    every other vertex, lies on no hole."""
    spec = parse_group_spec(spec_text)
    names = list(PATTERNS) if patterns is None else list(patterns)
    for name in names:
        if name not in PATTERNS:
            raise ValueError(f"unknown pattern {name!r}; "
                             f"available: {', '.join(PATTERNS)}")
    bundle = GroupBundle(spec, cap)
    red = bundle.reduction(True)
    identity = bundle.group.render(0)
    found = {name: None if bundle.chordal and PATTERNS[name].has_hole
             else _find(red, name, proper, identity)
             for name in dict.fromkeys(names + ["P4", "C3", "C5", "2K2"])}
    return AnalysisReport(
        label=bundle.label,
        flags=bundle.flags,
        proper=proper,
        prime_graph_edges=tuple(prime_graph_edges(bundle.flags)),
        patterns={name: found[name] for name in names},
        cograph=found["P4"] is None,
        chordal=bundle.chordal,
        chain=all(found[name] is None for name in ("C3", "C5", "2K2")),
        graph=red.original if proper else with_identity(red.original, identity),
    )
