"""Verification harness: run every classification check over a corpus.

Each row of the case table `classifiers.CASES` pairs a graph-side check
(pattern freeness, then optionally a hole search) with a structural
right-hand side.  The harness evaluates both independently on every corpus
member the row covers and reports agreement, with witnesses for the failing
graph sides.  Every graph side is checked on P*(G): the statements about
P(G) forbid only patterns (and holes) without a vertex adjacent to all the
others, so the identity never takes part and P(G) gives the same verdicts
and witness labels.

Reports are deterministic: entry order follows the corpus, witnesses come
from the deterministic searches, and the only run-dependent field is the
wall-time `ms`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .classifiers import (
    CASES,
    Case,
    StructureFlags,
    THEOREM_IDS,
    compute_structure_flags,
    factorize,
    rhs_chain_case_c,
    rhs_predicate,
)
from .constructors import (
    AtomSpec,
    GroupSpec,
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
    is_chain_graph,
    is_chordal,
    is_cograph,
    _mcs_is_chordal,
)
from .power_graph import (
    Graph,
    TwinReducedGraph,
    build_power_graph,
    build_prime_graph,
    twin_reduce,
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
class CorpusEntry:
    spec_text: str
    spec: GroupSpec

    @property
    def label(self) -> str:
        return spec_label(self.spec)

    @property
    def family(self) -> str:
        return self.spec.family if isinstance(self.spec, AtomSpec) else "product"


@dataclass(frozen=True)
class Corpus:
    entries: tuple[CorpusEntry, ...]
    product_entries: tuple[CorpusEntry, ...]
    sz_params: tuple[int, ...]


def _entry(spec_text: str) -> CorpusEntry:
    return CorpusEntry(spec_text, parse_group_spec(spec_text))


def default_corpus() -> Corpus:
    return Corpus(
        entries=tuple(_entry(s) for s in DEFAULT_CORPUS_SPECS),
        product_entries=tuple(_entry(s) for s in PRODUCT_SUBCORPUS_SPECS),
        sz_params=DEFAULT_SZ_PARAMS,
    )


def load_corpus(path: str) -> Corpus:
    """One spec per line; '#' starts a comment.  Product pairs are formed
    from the file's own entries; no Suzuki parameters are implied."""
    entries: list[CorpusEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                entries.append(_entry(text))
    return Corpus(tuple(entries), tuple(entries), ())


class GroupBundle:
    """Per-group lazy cache: group, flags, power graph and its reduction.

    The harness asks only for P*(G) (proper=True); `analyze_group` may ask for
    P(G)."""

    def __init__(self, spec: GroupSpec, cap: int | None, label: str | None = None):
        self.spec = spec
        self.cap = cap
        self.label = label if label is not None else spec_label(spec)
        self._group: Group | None = None
        self._flags: StructureFlags | None = None
        self._graphs: dict[bool, Graph] = {}
        self._reductions: dict[bool, TwinReducedGraph] = {}

    @property
    def group(self) -> Group:
        if self._group is None:
            self._group = build_group(self.spec, self.cap)
        return self._group

    @property
    def flags(self) -> StructureFlags:
        if self._flags is None:
            self._flags = compute_structure_flags(self.group)
        return self._flags

    def graph(self, proper: bool) -> Graph:
        if proper not in self._graphs:
            self._graphs[proper] = build_power_graph(self.group, proper=proper)
        return self._graphs[proper]

    def reduction(self, proper: bool) -> TwinReducedGraph:
        if proper not in self._reductions:
            self._reductions[proper] = twin_reduce(self.graph(proper))
        return self._reductions[proper]


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
        doc = {
            "theorem": self.theorem,
            "entries": [
                {
                    "group": e.group,
                    "graph_side": e.graph_side,
                    "rhs": e.rhs,
                    "agree": e.agree,
                    "witness": list(e.witness) if e.witness is not None else None,
                }
                for e in self.entries
            ],
            "mismatches": self.mismatches,
            "ms": self.ms,
        }
        if self.note is not None:
            doc["note"] = self.note
        return doc


def _witness_labels(w: Witness | None) -> tuple[str, ...] | None:
    return tuple(w.labels) if w is not None else None


class Harness:
    """Evaluates every verification case over one corpus, sharing group and
    graph construction across cases."""

    def __init__(self, corpus: Corpus | None = None, cap: int | None = None,
                 min_hole_len: int = 4):
        self.corpus = corpus if corpus is not None else default_corpus()
        self.cap = cap
        self.min_hole_len = min_hole_len
        self._bundles: dict[str, GroupBundle] = {}
        self._product_bundles: dict[tuple[str, str], GroupBundle] = {}

    def bundle(self, entry: CorpusEntry) -> GroupBundle:
        key = entry.label
        if key not in self._bundles:
            self._bundles[key] = GroupBundle(entry.spec, self.cap, key)
        return self._bundles[key]

    def _product_bundle(self, a: CorpusEntry, b: CorpusEntry) -> GroupBundle:
        key = (a.label, b.label)
        if key not in self._product_bundles:
            ga = self.bundle(a).group
            gb = self.bundle(b).group
            bundle = GroupBundle(ProductSpec(a.spec, b.spec), self.cap,
                                 f"{a.label}x{b.label}")
            bundle._group = direct_product(ga, gb, self.cap)
            self._product_bundles[key] = bundle
        return self._product_bundles[key]

    def run_case(self, theorem_id: str) -> VerificationReport:
        case = CASES.get(theorem_id)
        if case is None:
            raise ValueError(f"unknown theorem id {theorem_id!r}")
        start = time.monotonic()
        if theorem_id == "T-SZ":
            records = [
                EntryRecord(group=f"Sz({q})", graph_side=None,
                            rhs=rhs_predicate("T-SZ", q), agree=True, witness=None)
                for q in self.corpus.sz_params
            ]
            return self._finish(theorem_id, records, start, note="rhs-only")
        if theorem_id == "T-P5P5B-PRODUCT":
            return self._run_product_case(case, start)

        records = []
        for entry in self.corpus.entries:
            if case.family is not None and entry.family != case.family:
                continue
            bundle = self.bundle(entry)
            if case.when is not None and not case.when(bundle.flags):
                continue
            side, witness = self._graph_side(bundle, case)
            rhs = rhs_predicate(theorem_id,
                                entry.spec.params[0] if case.by_q else bundle.flags)
            records.append(EntryRecord(
                group=bundle.label, graph_side=side, rhs=rhs,
                agree=side == rhs, witness=_witness_labels(witness)))
        return self._finish(theorem_id, records, start)

    def _graph_side(self, bundle: GroupBundle, case: Case) -> tuple[bool, Witness | None]:
        red = bundle.reduction(True)
        for name in case.patterns:
            w = find_induced_pattern(red, name)
            if w is not None:
                return False, w
        # Chordal graphs have no holes at all; skip the exponential search.
        if case.hole is None or _mcs_is_chordal(red.graph):
            return True, None
        # The minimum length is part of the even-hole statement only; a
        # chordality check refutes with any hole.
        min_len = self.min_hole_len if case.hole == "even" else 4
        w = find_hole(red, parity=case.hole, min_len=min_len)
        return w is None, w

    def _run_product_case(self, case: Case, start: float) -> VerificationReport:
        records = []
        members = self.corpus.product_entries
        for a in members:
            for b in members:
                order = self.bundle(a).group.order * self.bundle(b).group.order
                if order > PRODUCT_ORDER_CAP:
                    continue
                pb = self._product_bundle(a, b)
                side, witness = self._graph_side(pb, case)
                rhs = rhs_predicate(case.id,
                                    self.bundle(a).flags, self.bundle(b).flags)
                records.append(EntryRecord(
                    group=pb.label, graph_side=side, rhs=rhs,
                    agree=side == rhs, witness=_witness_labels(witness)))
        return self._finish(case.id, records, start)

    def _finish(self, theorem_id: str, records: list[EntryRecord],
                start: float, note: str | None = None) -> VerificationReport:
        mismatches = sum(1 for r in records if not r.agree)
        ms = int((time.monotonic() - start) * 1000)
        return VerificationReport(theorem_id, tuple(records), mismatches, ms, note)

    def run_all(self) -> list[VerificationReport]:
        return [self.run_case(tid) for tid in THEOREM_IDS]

    def chain_case_c_instances(self) -> list[str]:
        """Corpus members satisfying the (conjecturally vacuous) third chain
        family; reported so the open question stays visible."""
        return [self.bundle(e).label for e in self.corpus.entries
                if rhs_chain_case_c(self.bundle(e).flags)]


@dataclass(frozen=True)
class AnalysisReport:
    label: str
    order: int
    factorization: tuple[tuple[int, int], ...]
    flags: StructureFlags
    proper: bool
    prime_graph_primes: tuple[int, ...]
    prime_graph_edges: tuple[tuple[int, int], ...]
    prime_graph_null: bool
    patterns: dict[str, Witness | None]
    cograph: bool
    chordal: bool
    chain: bool
    graph: Graph = field(repr=False, compare=False)  # the graph analyzed

    def to_dict(self) -> dict:
        def wlabels(w: Witness | None):
            return list(w.labels) if w is not None else None

        return {
            "group": self.label,
            "order": self.order,
            "factorization": [list(pe) for pe in self.factorization],
            "flags": {
                "is_p_group": self.flags.is_p_group,
                "is_cyclic": self.flags.is_cyclic,
                "is_nilpotent": self.flags.is_nilpotent,
                "is_eppo": self.flags.is_eppo,
                "is_epo": self.flags.is_epo,
                "is_exponent2_2group": self.flags.is_exponent2_2group,
                "exponent": self.flags.exponent,
                "order_profile": [list(oc) for oc in self.flags.order_profile],
                "normal_sylow": {str(p): v for p, v in sorted(self.flags.normal_sylow.items())},
                "sylow_cyclic": {str(p): v for p, v in sorted(self.flags.sylow_cyclic.items())},
                "sylow_exponent": {str(p): v for p, v in sorted(self.flags.sylow_exponent.items())},
            },
            "proper": self.proper,
            "prime_graph": {
                "primes": list(self.prime_graph_primes),
                "edges": [list(e) for e in self.prime_graph_edges],
                "null": self.prime_graph_null,
            },
            "patterns": {name: wlabels(w) for name, w in self.patterns.items()},
            "cograph": self.cograph,
            "chordal": self.chordal,
            "chain": self.chain,
        }


def analyze_group(spec_text: str, proper: bool = False,
                  patterns: list[str] | None = None,
                  cap: int | None = None) -> AnalysisReport:
    """Full single-group document: flags, prime graph, freeness, witnesses."""
    spec = parse_group_spec(spec_text)
    bundle = GroupBundle(spec, cap)
    group = bundle.group
    flags = bundle.flags
    red = bundle.reduction(proper)
    prime_graph = build_prime_graph(group)
    names = list(PATTERNS) if patterns is None else list(patterns)
    for name in names:
        if name not in PATTERNS:
            raise ValueError(f"unknown pattern {name!r}")
    found = {name: find_induced_pattern(red, name) for name in names}
    cograph, _ = is_cograph(red)
    chordal, _ = is_chordal(red)
    chain, _ = is_chain_graph(red)
    return AnalysisReport(
        label=bundle.label,
        order=group.order,
        factorization=tuple(factorize(group.order)),
        flags=flags,
        proper=proper,
        prime_graph_primes=prime_graph.primes,
        prime_graph_edges=tuple(prime_graph.graph.edges()),
        prime_graph_null=prime_graph.is_null,
        patterns=found,
        cograph=cograph,
        chordal=chordal,
        chain=chain,
        graph=bundle.graph(proper),
    )
