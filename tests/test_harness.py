import json
import os
import re

import pytest

from pglab import (
    PATTERNS,
    THEOREM_IDS,
    Corpus,
    Graph,
    Harness,
    analyze_group,
    build_group,
    build_power_graph,
    compute_structure_flags,
    default_corpus,
    find_hole,
    find_induced_pattern,
    load_corpus,
    twin_reduce,
    verify_witness,
)
from pglab.classifiers import CASES
from pglab.constructors import parse_group_spec, spec_label
from pglab.harness import (
    DEFAULT_CORPUS_SPECS,
    DEFAULT_SZ_PARAMS,
    PRODUCT_ORDER_CAP,
    PRODUCT_SUBCORPUS_SPECS,
)
from pglab.patterns import _mcs_is_chordal
from naive_oracle import chain_third_family, cyclic_closure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROPER_SIDED = {"T-CHAIN", "T-DIAMOND", "T-EVENHOLE-DIAMOND", "T-DIAMOND-CODIAMOND"}

# -- corpus ------------------------------------------------------------------------


def test_default_corpus_shape():
    corpus = default_corpus()
    assert len(corpus.entries) == 60
    assert len(set(corpus.entries)) == 60
    assert len(corpus.product_entries) == 12
    assert corpus.sz_params == DEFAULT_SZ_PARAMS == (8,)
    labels = [spec_label(s) for s in corpus.entries]
    assert labels == list(DEFAULT_CORPUS_SPECS)
    for expected in ("C1", "C100", "Q16", "E2^4", "S6", "A7", "PSL(2,13)",
                     "SD(15,2,14)", "C4xC9"):
        assert expected in labels


def test_product_subcorpus_is_within_order_cap():
    corpus = default_corpus()
    orders = {spec_label(s): build_group(s).order for s in corpus.product_entries}
    assert max(orders.values()) ** 2 <= 2048**2
    assert max(o1 * o2 for o1 in orders.values() for o2 in orders.values()) <= PRODUCT_ORDER_CAP


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# comment line\nC6\nS3  # trailing comment\n\nQ8\n")
    corpus = load_corpus(str(path))
    assert [spec_label(s) for s in corpus.entries] == ["C6", "S3", "Q8"]
    assert corpus.product_entries == corpus.entries
    assert corpus.sz_params == ()


def test_load_corpus_parse_error_names_the_line(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("C6\nX9\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: unrecognized group family 'X'"):
        load_corpus(str(path))


def _specs(*texts: str) -> tuple:
    return tuple(map(parse_group_spec, texts))


def test_corpus_entry_family():
    """On a corpus that mixes atoms and products, T-SN, T-AN and T-PSL2 cover
    exactly the atoms of their own family, in corpus order; a product is in
    no family, even one whose factors are."""
    entries = _specs("S3", "A4", "PSL(2,5)", "S3xC2", "C2xS3", "A4xC1", "C6",
                     "PSL(2,4)", "S4", "A5")
    harness = Harness(Corpus(entries, (), ()))
    for tid, expected in (("T-SN", ["S3", "S4"]), ("T-AN", ["A4", "A5"]),
                          ("T-PSL2", ["PSL(2,5)", "PSL(2,4)"])):
        assert [label for label, _, _ in harness._subjects(CASES[tid])] == expected, tid


# -- full verification over the default corpus ----------------------------------------


def test_all_cases_agree(reports):
    assert list(reports) == list(THEOREM_IDS)
    for tid, report in reports.items():
        assert report.mismatches == 0, f"{tid} has mismatches"
        for e in report.entries:
            assert e.agree == (e.graph_side is None or e.graph_side == e.rhs)


def test_entry_counts(reports):
    corpus = default_corpus()
    nilpotent = sum(
        1 for s in corpus.entries
        if compute_structure_flags(build_group(s)).is_nilpotent
    )
    eppo = sum(
        1 for s in corpus.entries
        if compute_structure_flags(build_group(s)).is_eppo
    )
    assert len(reports["T-CHAIN"].entries) == 60
    assert len(reports["T-DIAMOND"].entries) == 60
    assert len(reports["T-EVENHOLE-DIAMOND"].entries) == 60
    assert len(reports["T-DIAMOND-CODIAMOND"].entries) == 60
    assert len(reports["T-P5-NILP"].entries) == nilpotent
    assert len(reports["T-P5P5B-NILP"].entries) == nilpotent
    assert len(reports["T-P2P3-NILP"].entries) == nilpotent
    assert len(reports["T-P2P3-NONNILP"].entries) == 60 - nilpotent
    assert len(reports["S-CHORDAL-NILP"].entries) == nilpotent
    assert len(reports["S-COGRAPH-NILP"].entries) == nilpotent
    assert len(reports["S-COGRAPH-NULLPRIME"].entries) == eppo
    assert len(reports["T-SN"].entries) == 5
    assert len(reports["T-AN"].entries) == 4
    assert len(reports["T-PSL2"].entries) == 7
    assert len(reports["T-SZ"].entries) == 1
    assert len(reports["T-P5P5B-PRODUCT"].entries) == 144


def test_witness_present_exactly_on_failures(reports):
    for tid, report in reports.items():
        if tid == "T-SZ":
            continue
        for e in report.entries:
            assert (e.witness is not None) == (e.graph_side is False), (tid, e.group)


def test_witnesses_reverify_on_their_graphs(reports):
    """Each recorded witness is a label tuple; mapped back to vertex ids it
    must induce one of the case's forbidden patterns in the right graph."""
    by_case = {
        "T-CHAIN": ("C3", "C5", "2K2"),
        "T-P5-NILP": ("P5",),
        "T-P5P5B-NILP": ("P5", "P5bar"),
        "T-P5P5B-PRODUCT": ("P5", "P5bar"),
        "T-SN": ("P5", "P5bar"),
        "T-AN": ("P5", "P5bar"),
        "T-PSL2": ("P5", "P5bar"),
        "T-P2P3-NILP": ("P2uP3", "P2uP3bar"),
        "T-P2P3-NONNILP": ("P2uP3", "P2uP3bar"),
        "T-DIAMOND": ("diamond",),
        "T-DIAMOND-CODIAMOND": ("diamond", "co-diamond"),
        "S-COGRAPH-NULLPRIME": ("P4",),
        "S-CHORDAL-NILP": None,  # hole witnesses have no fixed pattern
        "S-COGRAPH-NILP": ("P4",),
        "T-EVENHOLE-DIAMOND": None,
    }
    for tid, names in by_case.items():
        for e in reports[tid].entries:
            if e.witness is None:
                continue
            group = build_group(e.group)
            graph = build_power_graph(group, proper=tid in PROPER_SIDED)
            ids = tuple(graph.labels.index(lbl) for lbl in e.witness)
            if names is None:  # a hole: check the cycle by hand
                k = len(ids)
                ring = all(
                    graph.has_edge(ids[i], ids[(i + 1) % k]) for i in range(k)
                )
                chords = any(
                    graph.has_edge(ids[i], ids[j])
                    for i in range(k)
                    for j in range(i + 2, k)
                    if (i, j) != (0, k - 1)
                )
                diamond = len(ids) == 4 and verify_witness(graph, "diamond", ids)
                assert (ring and not chords and k >= 4) or diamond, (tid, e.group)
            else:
                assert any(verify_witness(graph, nm, ids) for nm in names), (
                    tid, e.group)


def test_p_and_proper_p_give_the_same_witnesses():
    """The harness checks the P(G) statements on P*(G), and `analyze_group`
    answers P(G) from P*(G).  Both agree with searches on P(G) itself: the
    same first witness of every pattern (vertex ids and labels), the same
    cograph/chordal/chain verdicts, and for holes the same labels."""
    checked = 0
    for spec in DEFAULT_CORPUS_SPECS:
        group = build_group(parse_group_spec(spec))
        if group.order > 2000:
            continue
        full = twin_reduce(build_power_graph(group))
        report = analyze_group(spec)
        expected = {name: find_induced_pattern(full, name) for name in PATTERNS}
        assert report.patterns == expected, spec
        assert report.cograph == (expected["P4"] is None), spec
        assert report.chain == all(expected[name] is None
                                   for name in ("C3", "C5", "2K2")), spec
        assert report.chordal == _mcs_is_chordal(full.graph), spec
        if group.order <= 200:
            proper = twin_reduce(build_power_graph(group, proper=True))
            a, b = find_hole(full), find_hole(proper)
            assert (a and a.labels) == (b and b.labels), spec
        checked += 1
    assert checked == 59  # all but A7


def test_analysis_of_a7_on_proper_p_matches_direct_searches():
    """A7, left out above for its order, is where the chordal skip saves
    most: P*(A7) is chordal, so `analyze_group` answers C4, C5, P5bar and
    P2uP3bar without a search.  Its patterns still equal a direct search of
    every pattern on P*(A7)."""
    red = twin_reduce(build_power_graph(build_group("A7"), proper=True))
    report = analyze_group("A7", proper=True)
    assert report.chordal
    assert report.patterns == {name: find_induced_pattern(red, name)
                               for name in PATTERNS}


@pytest.mark.parametrize("spec, chordal", [("S4", True), ("C30", False)])
def test_chordal_analysis_searches_no_pattern_with_a_hole(monkeypatch, spec, chordal):
    """On a chordal graph `analyze_group` searches only the patterns without
    a hole; on a graph with a hole it searches all eleven."""
    from pglab import harness

    searched = []
    find = harness._find
    monkeypatch.setattr(harness, "_find",
                        lambda red, name, *rest: searched.append(name)
                        or find(red, name, *rest))
    assert analyze_group(spec).chordal == chordal
    holed = {"C4", "C5", "P5bar", "P2uP3bar"}
    assert set(searched) == (set(PATTERNS) - holed if chordal else set(PATTERNS))


def test_analysis_of_p_builds_one_graph(monkeypatch):
    """Without --proper, `analyze_group` walks the cyclic subgroups once (for
    the graph and the element orders) and reduces one graph, P*(G)."""
    from pglab import harness
    from pglab.group_kernel import Group

    calls = []
    walk, reduce = Group.cyclic_subgroups, harness.twin_reduce
    monkeypatch.setattr(Group, "cyclic_subgroups",
                        lambda group: calls.append("walk") or walk(group))
    monkeypatch.setattr(harness, "twin_reduce",
                        lambda graph: calls.append("reduce") or reduce(graph))
    report = analyze_group("S4")
    assert sorted(calls) == ["reduce", "walk"]
    assert report.graph.n == 24 and report.graph.degree(0) == 23


def test_bundle_reduces_only_proper_p(harness):
    bundle = harness.bundle(harness.corpus.entries[5])
    assert bundle.reduction(proper=True).original.n == bundle.group.order - 1
    with pytest.raises(ValueError):
        bundle.reduction(False)


def test_product_case_covers_all_ordered_pairs(reports):
    # every ordered pair stays under the product order cap, so none is skipped
    report = reports["T-P5P5B-PRODUCT"]
    assert len(report.entries) == len(PRODUCT_SUBCORPUS_SPECS) ** 2
    labels = [e.group for e in report.entries]
    assert "C2xC2" in labels
    assert "SD(7,3,2)xQ8" in labels
    assert "C4xC3" in labels and "C3xC4" in labels


def test_sz_report_is_rhs_only(reports):
    report = reports["T-SZ"]
    assert report.note == "rhs-only"
    (entry,) = report.entries
    assert entry.group == "Sz(8)"
    assert entry.graph_side is None
    assert entry.rhs is True
    assert entry.agree is True
    assert entry.witness is None


def test_collected_subjects_keep_their_own_arguments(harness):
    """Each subject carries its structural side's arguments, so drawing all
    the subjects before evaluating any changes none of them."""
    subjects = {tid: list(harness._subjects(CASES[tid]))
                for tid in ("T-DIAMOND", "T-PSL2", "T-P5P5B-PRODUCT", "T-SZ")}
    assert len(subjects["T-DIAMOND"]) == 60
    for label, bundle, args in subjects["T-DIAMOND"]:
        assert len(args) == 1 and args[0] is bundle.flags, label
    assert [args for _, _, args in subjects["T-PSL2"]] == [
        (q,) for q in (4, 5, 7, 8, 9, 11, 13)]
    for label, pair, args in subjects["T-P5P5B-PRODUCT"]:
        a, b = (harness.bundle(s) for s in (pair.spec.left, pair.spec.right))
        assert len(args) == 2 and args[0] is a.flags and args[1] is b.flags, label
    assert subjects["T-SZ"] == [("Sz(8)", None, (8,))]


def test_report_json_schema(reports):
    for tid, report in reports.items():
        doc = report.to_dict()
        expected_keys = {"theorem", "entries", "mismatches", "ms"}
        if report.note is not None:
            expected_keys.add("note")
        assert set(doc) == expected_keys
        assert doc["theorem"] == tid
        for entry in doc["entries"]:
            assert set(entry) == {"group", "graph_side", "rhs", "agree", "witness"}
            assert entry["witness"] is None or isinstance(entry["witness"], list)
        json.dumps(doc)  # must be serializable


def test_reports_are_deterministic_modulo_ms():
    """Two fresh harnesses produce byte-identical reports except timing."""
    def strip(doc):
        return {k: v for k, v in doc.items() if k != "ms"}

    h1, h2 = Harness(), Harness()
    for tid in ("T-CHAIN", "T-DIAMOND", "T-DIAMOND-CODIAMOND", "T-SZ"):
        assert strip(h1.run_case(tid).to_dict()) == strip(h2.run_case(tid).to_dict())


def test_chain_case_c_has_no_corpus_instances(harness):
    assert [spec_label(s) for s in harness.corpus.entries
            if chain_third_family(harness.bundle(s).flags)] == []


# -- harness on restricted corpora -----------------------------------------------------


def test_empty_corpus_yields_empty_reports():
    h = Harness(Corpus(entries=(), product_entries=(), sz_params=()))
    reports = h.run_all()
    assert len(reports) == 16
    for r in reports:
        assert r.entries == ()
        assert r.mismatches == 0


def test_single_entry_corpus():
    h = Harness(Corpus(_specs("C2"), _specs("C2"), ()))
    by_id = {r.theorem: r for r in h.run_all()}
    assert by_id["T-CHAIN"].entries[0].graph_side is True
    assert by_id["T-CHAIN"].entries[0].rhs is True
    assert len(by_id["T-SN"].entries) == 0  # C2 is not spelled as a symmetric atom
    assert len(by_id["T-SZ"].entries) == 0
    assert len(by_id["T-P5P5B-PRODUCT"].entries) == 1
    assert by_id["T-P5P5B-PRODUCT"].entries[0].group == "C2xC2"
    assert all(r.mismatches == 0 for r in by_id.values())


def test_psl2_59_has_both_sides_false():
    """PSL(2,59), order 102,660, read from the PSL(2,q) sweep corpus: its
    side numbers are 29 and 30, and 30 is not an admissible cyclic order, so
    T-PSL2's structural side is false, and P(G) has a P5 or P5bar.  The
    witness is re-checked on the subgroups its five elements generate,
    without the power graph."""
    sweep = load_corpus(os.path.join(ROOT, "corpora", "psl2.corpus"))
    assert len(sweep.entries) == 28
    (spec,) = [s for s in sweep.entries if spec_label(s) == "PSL(2,59)"]
    harness = Harness(Corpus((spec,), (), ()), cap=102660)
    (record,) = harness.run_case("T-PSL2").entries
    assert (record.group, record.graph_side, record.rhs, record.agree) == (
        "PSL(2,59)", False, False, True)
    group = harness.bundle(spec).group
    ids = [group.index_of(tuple(x for row in json.loads(label) for x in row))
           for label in record.witness]
    assert [group.render(v) for v in ids] == list(record.witness)
    powers = [cyclic_closure(group, v) for v in ids]
    adj = [sum(1 << b for b in range(5)
               if b != a and (ids[a] in powers[b] or ids[b] in powers[a]))
           for a in range(5)]
    assert any(verify_witness(Graph(adj), name, tuple(range(5)))
               for name in ("P5", "P5bar"))


def _four_entry_corpus():
    return Corpus(_specs("S4", "C12", "C2", "C50"), _specs("C2", "C50"), ())


def test_product_case_skips_pairs_over_the_order_cap():
    """C50xC50 has order 2,500, over PRODUCT_ORDER_CAP, so it is skipped."""
    assert 50 * 50 > PRODUCT_ORDER_CAP
    report = Harness(_four_entry_corpus()).run_case("T-P5P5B-PRODUCT")
    assert [e.group for e in report.entries] == ["C2xC2", "C2xC50", "C50xC2"]
    assert report.mismatches == 0


def test_run_all_walks_each_group_once(monkeypatch):
    """One cyclic-subgroup walk per corpus entry and per product group: the
    graph sides run before the flags are read."""
    from pglab.group_kernel import Group

    walks = []
    walk = Group.cyclic_subgroups
    monkeypatch.setattr(Group, "cyclic_subgroups",
                        lambda group: walks.append(group.label) or walk(group))
    Harness(_four_entry_corpus()).run_all()
    assert sorted(walks) == sorted(["S4", "C12", "C2", "C50",
                                    "C2xC2", "C2xC50", "C50xC2"])


@pytest.mark.parametrize("theorem_id", ["T-P5-NILP", "T-CHAIN", "T-DIAMOND"])
def test_each_case_walks_each_group_once(monkeypatch, theorem_id):
    """T-P5-NILP reads the flags of S4 and C12 before searching C12; the
    flags come from the walk that builds P*(G), so each group is walked once."""
    from pglab.group_kernel import Group

    walks = []
    walk = Group.cyclic_subgroups
    monkeypatch.setattr(Group, "cyclic_subgroups",
                        lambda group: walks.append(group.label) or walk(group))
    Harness(Corpus(_specs("S4", "C12"), (), ())).run_case(theorem_id)
    assert sorted(walks) == ["C12", "S4"]


@pytest.mark.parametrize("spec", ["E3^9", "PSL(2,31)"])
def test_verify_path_fills_few_rows(monkeypatch, spec):
    """P*(G) is built and reduced from its cyclic-subgroup quotient, and the
    search fills only the rows it reads: a few dozen of thousands.  The
    witness check reads edges from the quotient."""
    from pglab.power_graph import Graph

    checked = []
    has_edge = Graph.has_edge
    monkeypatch.setattr(Graph, "has_edge",
                        lambda graph, u, v: checked.append((u, v)) or has_edge(graph, u, v))
    harness = Harness(Corpus(_specs(spec), (), ()), cap=25200)
    (entry,) = harness.run_case("T-CHAIN").entries
    assert entry.graph_side is False and entry.witness is not None
    assert checked
    red = harness.bundle(harness.corpus.entries[0]).reduction(True)
    assert red.graph.n > 5000
    for graph in (red.original, red.graph):
        assert "adj" not in vars(graph)
        assert sum(row is not None for row in graph._rows) <= 40, spec


def test_harness_cap_applies():
    h = Harness(Corpus(_specs("C100"), (), ()), cap=50)
    from pglab.group_kernel import CapExceededError

    with pytest.raises(CapExceededError):
        h.run_case("T-CHAIN")


def test_even_hole_case_reports_the_ring_hole():
    """The even-hole search runs on the case's search graph: on a (synthetic)
    diamond-free 6-ring, T-EVENHOLE-DIAMOND's graph side is false, with the
    C6 as its witness."""
    from pglab import Graph

    ring6 = Graph([0b100010, 0b000101, 0b001010, 0b010100, 0b101000, 0b010001])
    h = Harness(Corpus(_specs("C7"), (), ()))
    h.bundle(h.corpus.entries[0])._reduction = twin_reduce(ring6)
    record = h.run_case("T-EVENHOLE-DIAMOND").entries[0]
    assert record.graph_side is False
    assert record.witness == tuple(ring6.label(v) for v in (0, 1, 2, 3, 4, 5))


def test_even_hole_case_reports_an_odd_ring_hole():
    """The graph side checks "no hole", which is "no even hole" only on
    power graphs, whose holes are all even: on a (synthetic) 5-ring,
    T-EVENHOLE-DIAMOND's graph side is false, with the C5 as its witness."""
    from pglab import Graph

    ring5 = Graph([0b10010, 0b00101, 0b01010, 0b10100, 0b01001])
    h = Harness(Corpus(_specs("C7"), (), ()))
    h.bundle(h.corpus.entries[0])._reduction = twin_reduce(ring5)
    record = h.run_case("T-EVENHOLE-DIAMOND").entries[0]
    assert record.graph_side is False
    assert record.witness == tuple(ring5.label(v) for v in (0, 1, 2, 3, 4))


# -- analyze_group -----------------------------------------------------------------------


def test_analyze_group_report():
    doc = analyze_group("C12").to_dict()
    assert doc["group"] == "C12"
    assert doc["order"] == 12
    assert doc["factorization"] == [[2, 2], [3, 1]]
    assert doc["proper"] is False
    assert doc["flags"]["is_nilpotent"] is True
    assert doc["prime_graph"]["primes"] == [2, 3]
    assert doc["prime_graph"]["null"] is False
    assert set(doc["patterns"]) == {
        "P4", "P5", "P5bar", "C3", "C4", "C5", "2K2",
        "diamond", "co-diamond", "P2uP3", "P2uP3bar",
    }
    assert doc["patterns"]["P4"] is not None
    assert doc["patterns"]["P5"] is None
    assert doc["cograph"] is False
    assert doc["chordal"] is True
    assert doc["chain"] is False
    json.dumps(doc)


def test_analyze_group_proper_and_subset():
    report = analyze_group("C6", proper=True, patterns=["C3"])
    doc = report.to_dict()
    assert doc["proper"] is True
    assert list(doc["patterns"]) == ["C3"]
    assert doc["patterns"]["C3"] is not None


def test_analyze_group_validates():
    with pytest.raises(ValueError):
        analyze_group("C6", patterns=["nope"])
    with pytest.raises(ValueError):
        analyze_group("Z12")
