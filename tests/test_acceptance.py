"""Acceptance suite: twelve end-to-end checks of the whole pipeline.

Each test prints a single PASS line (visible with -s; under -v the test
name itself is the pass/fail line).  All checks are exact boolean
comparisons; wall-clock budgets are asserted where stated.
"""

import time

from pglab import (
    Harness,
    build_group,
    build_power_graph,
    compute_structure_flags,
    default_corpus,
    find_hole,
    find_induced_pattern,
    is_admissible_cyclic_order,
    rhs_predicate,
    twin_reduce,
    verify_witness,
)
from pglab.classifiers import factorize, is_prime_power
from pglab.patterns import _mcs_is_chordal
from naive_oracle import naive_pattern_presence


def _by_group(report):
    return {e.group: e for e in report.entries}


def _ids(graph, labels):
    return tuple(graph.labels.index(lbl) for lbl in labels)


def test_criterion_01_symmetric_groups_p5_boundary():
    t0 = time.monotonic()
    report = Harness().run_case("T-SN")
    entries = _by_group(report)
    assert report.mismatches == 0
    for n in (2, 3, 4, 5):
        assert entries[f"S{n}"].graph_side is True
        assert entries[f"S{n}"].rhs is True
    assert entries["S6"].graph_side is False
    assert entries["S6"].rhs is False
    witness = entries["S6"].witness
    assert witness is not None
    graph = build_power_graph(build_group("S6"))
    assert verify_witness(graph, "P5", _ids(graph, witness))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"CRITERION 01 PASS symmetric groups: free for n<=5, induced P5 in S6 "
          f"re-verified ({elapsed:.1f}s < 30s)")


def test_criterion_02_alternating_groups_p5_boundary():
    t0 = time.monotonic()
    report = Harness().run_case("T-AN")
    entries = _by_group(report)
    assert report.mismatches == 0
    for n in (4, 5, 6):
        assert entries[f"A{n}"].graph_side is True and entries[f"A{n}"].rhs is True
    assert entries["A7"].graph_side is False and entries["A7"].rhs is False
    assert entries["A7"].witness is not None

    group = build_group("A7")
    graph = build_power_graph(group)
    assert verify_witness(graph, "P5", _ids(graph, entries["A7"].witness))
    # the hand-checked path (1 2 3 4)(5 6) ~ (1 3)(2 4) ~ (1 3)(2 4)(5 6 7)
    # ~ (5 6 7) ~ (1 2)(3 4)(5 6 7), injected directly as an induced P5
    path_payloads = [
        (1, 2, 3, 0, 5, 4, 6),
        (2, 3, 0, 1, 4, 5, 6),
        (2, 3, 0, 1, 5, 6, 4),
        (0, 1, 2, 3, 5, 6, 4),
        (1, 0, 3, 2, 5, 6, 4),
    ]
    injected = tuple(group.index_of(p) for p in path_payloads)
    assert verify_witness(graph, "P5", injected)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"CRITERION 02 PASS alternating groups: free for n<=6, A7 witness and "
          f"injected 5-path both verified ({elapsed:.1f}s < 60s)")


def test_criterion_03_cyclic_sweep_to_200():
    t0 = time.monotonic()
    mismatches = []
    for n in range(1, 201):
        red = twin_reduce(build_power_graph(build_group(f"C{n}")))
        free = (find_induced_pattern(red, "P5") is None
                and find_induced_pattern(red, "P5bar") is None)
        if free != is_admissible_cyclic_order(n):
            mismatches.append(n)
    assert mismatches == []
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0
    print(f"CRITERION 03 PASS cyclic sweep n<=200: {{P5,P5bar}}-free matches "
          f"admissibility everywhere ({elapsed:.1f}s < 20s)")


def test_criterion_04_direct_products(reports):
    report = reports["T-P5P5B-PRODUCT"]
    assert report.mismatches == 0
    entries = _by_group(report)
    assert entries["C4xC3"].graph_side is True and entries["C4xC3"].rhs is True
    assert entries["C4xC9"].graph_side is False and entries["C4xC9"].rhs is False
    # the C9 x S3 pair: both sides come out false and therefore agree (the
    # two-prime partner's Sylow-2 is not normal, and the graph holds a P5)
    record = entries["C9xS3"]
    assert record.agree
    assert record.graph_side is False and record.rhs is False
    assert record.witness is not None
    # C6 x C6 is not in the pair sub-corpus; evaluate it directly
    g66 = build_group("C6xC6")
    red = twin_reduce(build_power_graph(g66))
    free66 = (find_induced_pattern(red, "P5") is None
              and find_induced_pattern(red, "P5bar") is None)
    flags6 = compute_structure_flags(build_group("C6"))
    rhs66 = rhs_predicate("T-P5P5B-PRODUCT", flags6, flags6)
    assert free66 is False and rhs66 is False
    print("CRITERION 04 PASS direct products: 144 ordered pairs agree; "
          "(C4,C3) positive, (C4,C9), (C9,S3), (C6,C6) negative")


def test_criterion_05_chain_graphs(reports):
    report = reports["T-CHAIN"]
    assert report.mismatches == 0
    assert len(report.entries) == 60
    entries = _by_group(report)
    for spec in ("C3", "E2^2", "E2^3", "E2^4", "S3"):
        assert entries[spec].graph_side is True, spec
    for spec in ("C9", "C3xC3", "A4", "C12"):
        assert entries[spec].graph_side is False, spec
    print("CRITERION 05 PASS chain graphs: all 60 corpus entries agree; "
          "positives C3/E2^k/S3, negatives C9/C3xC3/A4/C12")


def test_criterion_06_diamond_free(reports):
    report = reports["T-DIAMOND"]
    assert report.mismatches == 0
    assert len(report.entries) == 60
    group = build_group("C6")
    # the four elements g, g^5, g^2, g^3 form a diamond (hub pair: generators)
    full = build_power_graph(group)
    assert verify_witness(full, "diamond", (1, 5, 2, 3))
    proper = build_power_graph(group, proper=True)
    assert verify_witness(proper, "diamond", (0, 4, 1, 2))
    entries = _by_group(report)
    assert entries["C6"].graph_side is False and entries["C6"].rhs is False
    print("CRITERION 06 PASS diamond-freeness matches (p-group or prime-power "
          "orders) on all 60 entries; C6 witness {g,g5,g2,g3} re-verified")


def test_criterion_07_even_hole_diamond_and_shortcut(reports, harness):
    report = reports["T-EVENHOLE-DIAMOND"]
    assert report.mismatches == 0
    assert len(report.entries) == 60
    compared = 0
    for spec in default_corpus().entries:
        bundle = harness.bundle(spec)
        red = bundle.reduction(proper=True)
        if red.graph.n > 100:
            continue
        exhaustive_has_hole = find_hole(red) is not None
        assert _mcs_is_chordal(red.graph) == (not exhaustive_has_hole), bundle.label
        compared += 1
    assert compared >= 40
    print(f"CRITERION 07 PASS even-hole+diamond agrees on all 60 entries; "
          f"chordality shortcut matches exhaustive hole search on {compared} "
          f"graphs with <=100 reduced vertices")


def test_criterion_08_diamond_codiamond(reports):
    report = reports["T-DIAMOND-CODIAMOND"]
    assert report.mismatches == 0
    entries = _by_group(report)
    assert entries["C8"].graph_side is True and entries["C8"].rhs is True
    assert entries["E2^3"].graph_side is True and entries["E2^3"].rhs is True
    for spec in ("Q8", "C12", "S3"):
        record = entries[spec]
        assert record.graph_side is False and record.rhs is False
        assert record.witness is not None
        graph = build_power_graph(build_group(spec), proper=True)
        ids = _ids(graph, record.witness)
        assert verify_witness(graph, "diamond", ids) or verify_witness(
            graph, "co-diamond", ids)
    # injected witnesses: Q8's co-diamond among order-4 elements, and S3's
    # order-3 edge against two non-adjacent involutions
    q8 = build_group("Q8")
    q8_proper = build_power_graph(q8, proper=True)
    q8_ids = tuple(i - 1 for i in (
        q8.index_of((1, 0)), q8.index_of((0, 1)),
        q8.index_of((1, 1)), q8.index_of((3, 1))))
    assert all(q8.element_orders()[i] == 4 for i in _ids_to_elements(q8_ids))
    assert verify_witness(q8_proper, "co-diamond", q8_ids)
    s3_proper = build_power_graph(build_group("S3"), proper=True)
    s3_ids = _ids(s3_proper, ("(1 2)", "(2 3)", "(1 2 3)", "(1 3 2)"))
    assert verify_witness(s3_proper, "co-diamond", s3_ids)
    print("CRITERION 08 PASS diamond+co-diamond: positives C8/E2^3, negatives "
          "Q8/C12/S3 with re-verified witnesses")


def _ids_to_elements(proper_ids):
    return [i + 1 for i in proper_ids]


def test_criterion_09_p2p3_both_cases(reports):
    nilp = reports["T-P2P3-NILP"]
    nonnilp = reports["T-P2P3-NONNILP"]
    assert nilp.mismatches == 0 and nonnilp.mismatches == 0
    assert len(nilp.entries) + len(nonnilp.entries) == 60
    n_entries = _by_group(nilp)
    nn_entries = _by_group(nonnilp)
    assert n_entries["C12"].graph_side is True
    assert nn_entries["SD(7,3,2)"].graph_side is True
    assert nn_entries["A4"].graph_side is True
    assert n_entries["C36"].graph_side is False
    assert n_entries["C30"].graph_side is False
    # E2^3 x C9 is not a corpus member; evaluate the product directly.  Its
    # power graph contains an induced P2 u P3 (edge {(x,0),(x,g^3)} plus path
    # (y,g)-(0,g)-(xy,g) for independent involutions x, y and g of order 9),
    # so both sides are false: the Sylow-3 must have order exactly 3
    big = build_group("E2^3xC9")
    flags = compute_structure_flags(big)
    assert flags.is_nilpotent
    assert rhs_predicate("T-P2P3-NILP", flags) is False
    red = twin_reduce(build_power_graph(big))
    assert find_induced_pattern(red, "P2uP3") is not None
    print("CRITERION 09 PASS P2uP3 classification: nilpotent and non-nilpotent "
          "splits agree; C12/SD(7,3,2)/A4 positive, C36/C30 negative; "
          "E2^3xC9 holds the pattern and the predicate agrees")


def test_criterion_10_psl2_family(reports):
    t0 = time.monotonic()
    report = Harness().run_case("T-PSL2")
    assert report.mismatches == 0
    entries = _by_group(report)
    assert len(entries) == 7
    for q in (4, 5, 7, 8, 9, 11, 13):
        record = entries[f"PSL(2,{q})"]
        assert record.agree
        assert record.rhs == rhs_predicate("T-PSL2", q)
    # isomorphic coherence: PSL(2,4) = PSL(2,5) = A5 and PSL(2,9) = A6
    an = _by_group(reports["T-AN"])
    assert entries["PSL(2,4)"].graph_side == an["A5"].graph_side
    assert entries["PSL(2,5)"].graph_side == an["A5"].graph_side
    assert entries["PSL(2,9)"].graph_side == an["A6"].graph_side
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    print(f"CRITERION 10 PASS PSL(2,q) for q in 4,5,7,8,9,11,13 agrees with the "
          f"side-number predicate; A5/A6 coherence holds ({elapsed:.1f}s < 180s)")


def test_criterion_11_sanity_preliminaries(reports):
    # (a) cyclic cograph sweep: prime power or product of two distinct primes
    for n in range(1, 101):
        fac = factorize(n)
        expected = (
            n == 1
            or is_prime_power(n) is not None
            or (len(fac) == 2 and all(e == 1 for _, e in fac))
        )
        red = twin_reduce(build_power_graph(build_group(f"C{n}")))
        assert (find_induced_pattern(red, "P4") is None) == expected, n
    # (b) every corpus group with prime-power element orders has a cograph
    # power graph: the constant-truth case ran over exactly those entries
    nullprime = reports["S-COGRAPH-NULLPRIME"]
    assert nullprime.mismatches == 0
    assert all(e.graph_side is True and e.rhs is True for e in nullprime.entries)
    eppo_count = sum(
        1 for spec in default_corpus().entries
        if compute_structure_flags(build_group(spec)).is_eppo
    )
    assert len(nullprime.entries) == eppo_count
    # (c) chordality over nilpotent members matches the Sylow condition
    chordal = reports["S-CHORDAL-NILP"]
    assert chordal.mismatches == 0
    print("CRITERION 11 PASS sanity: cyclic cograph sweep n<=100, cograph for "
          "all prime-power-order groups, nilpotent chordality all agree")


def test_criterion_12_naive_oracle_equivalence():
    t0 = time.monotonic()
    checked_groups = 0
    for spec in default_corpus().entries:
        group = build_group(spec)
        if group.order > 60:
            continue
        graph = build_power_graph(group)
        red = twin_reduce(graph)
        naive = naive_pattern_presence(graph)
        for name, present in naive.items():
            fast = find_induced_pattern(red, name) is not None
            assert fast == present, (group.label, name)
        checked_groups += 1
    elapsed = time.monotonic() - t0
    assert checked_groups >= 45
    assert elapsed < 60.0
    print(f"CRITERION 12 PASS naive subset enumeration equals reduced search on "
          f"{checked_groups} groups x 11 patterns ({elapsed:.1f}s < 60s)")
