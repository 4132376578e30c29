import json
import os
import tracemalloc
from array import array
from collections import Counter
from itertools import pairwise
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglab import (
    Graph,
    build_group,
    build_power_graph,
    compute_structure_flags,
    export_graph,
    find_induced_pattern,
    prime_graph_edges,
    twin_reduce,
)
from pglab.classifiers import is_prime_power
from pglab.harness import DEFAULT_CORPUS_SPECS, PRODUCT_SUBCORPUS_SPECS, analyze_group
from pglab.group_kernel import Group
from pglab.power_graph import RETAIN, _mask
from naive_oracle import (
    complement,
    induced,
    is_connected,
    naive_element_order,
    naive_hole_lengths,
    naive_is_chordal,
    naive_pattern_presence,
    naive_power_graph_sets,
    naive_twin_classes,
    neighbors,
    reference_power_graph,
    reference_twin_reduce,
    small_graphs,
)

LARGE_CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "large.corpus")
with open(LARGE_CORPUS, encoding="utf-8") as _fh:
    LARGE_SPECS = tuple(s for s in (line.split("#", 1)[0].strip() for line in _fh) if s)
LARGE_CAP = 25200

# -- construction against the naive adjacency oracle -----------------------------


@pytest.mark.parametrize(
    "spec", ["C12", "D6", "Q16", "A4", "SD(7,3,2)", "C2xC6", "S4", "E3^2"]
)
@pytest.mark.parametrize("proper", [False, True])
def test_power_graph_matches_naive_adjacency(spec, proper):
    group = build_group(spec)
    graph = build_power_graph(group, proper=proper)
    expected = naive_power_graph_sets(group, proper=proper)
    assert graph.n == len(expected)
    for v in range(graph.n):
        assert set(neighbors(graph, v)) == expected[v], (spec, proper, v)


@pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS + ("C360", "C4xC9xC5"))
def test_build_from_cyclic_subgroups_matches_per_element_walk(spec):
    """Adjacency and element orders equal the per-element reference, whether
    the orders or the graph fill the order cache first."""
    orders_first = build_group(spec)
    expected_orders = [naive_element_order(orders_first, v)
                       for v in range(orders_first.order)]
    assert orders_first.element_orders() == expected_orders
    graph_first = build_group(spec)
    for proper in (False, True):
        expected = reference_power_graph(graph_first, proper=proper)
        assert build_power_graph(graph_first, proper=proper).adj == expected.adj
        assert build_power_graph(orders_first, proper=proper).adj == expected.adj
    assert graph_first.element_orders() == expected_orders
    assert orders_first.element_orders() == expected_orders


def test_build_and_orders_walk_each_cyclic_subgroup_once(monkeypatch):
    """C360 has one cyclic subgroup per divisor d of 360, so one walk over
    each costs under sigma(360) = 1,170 compositions; a walk per element
    costs about the sum of d * phi(d), 55,083."""
    group = build_group("C360")
    calls = 0
    compose = group.compose

    def counting_compose(i, j):
        nonlocal calls
        calls += 1
        return compose(i, j)

    monkeypatch.setattr(group, "compose", counting_compose)
    build_power_graph(group, proper=True)
    group.element_orders()
    group.element_orders()
    assert 0 < calls <= sum(d for d in range(1, 361) if 360 % d == 0)


def test_no_self_loops_and_symmetry():
    for spec in ("C30", "Q8", "S4"):
        g = build_power_graph(build_group(spec))
        for v in range(g.n):
            assert not g.has_edge(v, v)
            for u in neighbors(g, v):
                assert g.has_edge(u, v)


def test_identity_vertex_is_universal():
    for spec in ("C12", "A4", "Q16", "SD(7,3,2)"):
        g = build_power_graph(build_group(spec))
        assert g.row(0).bit_count() == g.n - 1


def test_p_c6_explicit_edges():
    g = build_power_graph(build_group("C6"))
    assert g.n == 6
    assert len(g.edges()) == 13
    non_edges = [
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if not g.has_edge(u, v)
    ]
    assert non_edges == [(2, 3), (3, 4)]


def test_proper_graph_drops_identity_and_shifts():
    group = build_group("S3")
    proper = build_power_graph(group, proper=True)
    assert proper.n == 5
    assert proper.labels == ["(1 2)", "(1 2 3)", "(2 3)", "(1 3)", "(1 3 2)"]
    assert proper.edges() == [(1, 4)]


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_edges_match_brute_force_pairs(graph):
    assert graph.edges() == [(u, v) for u in range(graph.n)
                             for v in range(u + 1, graph.n) if graph.has_edge(u, v)]


def test_degree_sum_is_twice_edge_count():
    g = build_power_graph(build_group("C30"))
    assert sum(g.row(v).bit_count() for v in range(g.n)) == 2 * len(g.edges())


def test_cyclic_adjacency_is_order_divisibility():
    """In a cyclic group, u ~ v iff one element order divides the other."""
    group = build_group("C36")
    g = build_power_graph(group)
    orders = group.element_orders()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expect = orders[u] % orders[v] == 0 or orders[v] % orders[u] == 0
            assert g.has_edge(u, v) == expect


def test_subgroup_gives_induced_subgraph():
    c12 = build_group("C12")
    big = build_power_graph(c12)
    sub = induced(big, [0, 2, 4, 6, 8, 10])  # the copy of C6 inside C12
    small = build_power_graph(build_group("C6"))
    assert sub.n == small.n
    assert sub.edges() == small.edges()

    s4 = build_group("S4")
    fix4 = [i for i in range(24) if s4.payload(i)[3] == 3]  # the copy of S3
    sub = induced(build_power_graph(s4), fix4)
    assert len(sub.edges()) == len(build_power_graph(build_group("S3")).edges())


def test_complement_involution():
    g = build_power_graph(build_group("C12"))
    comp = complement(g)
    assert len(comp.edges()) == g.n * (g.n - 1) // 2 - len(g.edges())
    assert complement(comp).edges() == g.edges()
    assert not any(comp.has_edge(v, v) for v in range(comp.n))


def test_connectivity():
    assert is_connected(build_power_graph(build_group("A4")))
    assert is_connected(build_power_graph(build_group("C15"), proper=True))
    assert not is_connected(build_power_graph(build_group("E2^2"), proper=True))
    assert not is_connected(build_power_graph(build_group("S3"), proper=True))


# -- twin reduction -----------------------------------------------------------------


def test_twin_classes_of_p_c6():
    red = twin_reduce(build_power_graph(build_group("C6")))
    assert _lists(red.classes) == [[0, 1, 5], [2, 4], [3]]
    assert list(red.retained) == [0, 1, 2, 3, 4, 5]


def test_twin_reduce_caps_class_size():
    graph = build_power_graph(build_group("C16"), proper=True)  # a clique on 15 vertices
    red = twin_reduce(graph)
    assert _lists(red.classes) == [list(range(15))]  # one class of closed twins
    assert RETAIN == 3
    assert list(red.retained) == [0, 1, 2]
    # rank_masks[m]: the first m retained members of each class
    assert red.rank_masks == [0b000, 0b001, 0b011, 0b111]


def test_twin_reduce_maps_every_vertex():
    graph = build_power_graph(build_group("C30"))
    red = twin_reduce(graph)
    for v in range(graph.n):
        assert sum(v in cls for cls in red.classes) == 1
    assert sorted(v for cls in red.classes for v in cls) == list(range(graph.n))


def _lists(parts):
    """Sets of ints, as read from a `Partition` or a list, as lists."""
    return [list(part) for part in parts]


def _bits(row):
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _check_against_oracle(graph, classes):
    """Every field of twin_reduce(graph), given the expected classes."""
    red = twin_reduce(graph)
    assert red.original is graph
    assert _lists(red.classes) == classes
    for ci, members in enumerate(classes):
        assert all(v in red.classes[ci] for v in members)
    assert list(red.retained) == sorted(v for ms in classes for v in ms[:RETAIN])
    s = red.graph
    assert s.n == len(red.retained)
    pos = {v: i for i, v in enumerate(red.retained)}
    for i, u in enumerate(red.retained):
        assert s.label(i) == graph.label(u)
        assert set(_bits(s.adj[i])) == {pos[v] for v in _bits(graph.adj[u]) if v in pos}
    for m in range(RETAIN + 1):
        first = {v for ms in classes for v in ms[:m]}
        assert red.rank_masks[m] == sum(1 << i for i, v in enumerate(red.retained)
                                        if v in first)
    return red


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_twin_reduce_matches_pairwise_oracle(graph):
    _check_against_oracle(graph, naive_twin_classes(graph))


def test_twin_reduce_on_sparse_rows_of_20000_vertices():
    """Rows such as 1 << v share a few dozen int hashes; the classes still
    come out whole.  Edgeless: every vertex is a class of its own.  Perfect
    matching: each edge is a class of closed twins."""
    n = 20_000
    edgeless = Graph([0] * n)
    red = _check_against_oracle(edgeless, [[v] for v in range(n)])
    assert red.graph is edgeless
    matching = Graph([1 << (v ^ 1) for v in range(n)])
    red = _check_against_oracle(matching, [[v, v + 1] for v in range(0, n, 2)])
    assert red.graph is matching


def test_twin_reduce_memory_is_linear_on_an_edgeless_quotient():
    """P*(E2^12) is 4,095 isolated vertices, each a class of its own.  A
    closed key 1 << b for each would take about n^2/16 bytes, 1 MiB here;
    none is built."""
    graph = build_power_graph(build_group("E2^12"), proper=True)
    tracemalloc.start()
    try:
        red = twin_reduce(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(red.retained) == list(range(graph.n))
    assert peak < 2**20


def test_power_graph_and_reduction_hold_no_int_per_vertex():
    """P*(E3^9) is 9,841 two-vertex blocks with no edge between them.  Its
    blocks, block map, classes, retained ids and degrees are flat arrays of
    4 bytes per vertex, so the graph and its reduction hold under 1 MB; one
    list of Python ints per block or class held over 3 MB."""
    group = build_group("E3^9", LARGE_CAP)
    tracemalloc.start()
    try:
        graph = build_power_graph(group, proper=True)
        red = twin_reduce(graph)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.n == 19_682 and len(red.classes) == 9_841 and red.graph is graph
    assert held < 1_000_000


def _assert_same_reduction(red, ref):
    assert _lists(red.classes) == _lists(ref.classes)
    assert list(red.retained) == list(ref.retained)
    assert red.rank_masks == ref.rank_masks
    assert red.graph.adj == ref.graph.adj
    assert list(red.degrees) == list(ref.degrees)


@pytest.mark.parametrize("spec", sorted(set(DEFAULT_CORPUS_SPECS + PRODUCT_SUBCORPUS_SPECS
                                            + LARGE_SPECS)))
def test_quotient_reduction_matches_reference(spec):
    """Reducing P*(G) on its cyclic-subgroup quotient gives, field for field,
    the reduction of its vertex rows, with each search block inside `RETAIN`."""
    graph = build_power_graph(build_group(spec, LARGE_CAP), proper=True)
    red = twin_reduce(graph)
    _assert_same_reduction(red, reference_twin_reduce(Graph(list(graph.adj), graph.label)))
    _assert_blocks_keep_at_most_retain(red.graph)


@st.composite
def blown_up_graphs(draw):
    """A random graph Q on up to 8 vertices, each vertex blown up into a
    clique of 1 to 3 vertices whose ids are scattered at random: the graph
    given by Q and its blocks, and the same graph given by vertex rows."""
    q = draw(st.integers(0, 8))
    edges = {(a, b) for a in range(q) for b in range(a + 1, q) if draw(st.booleans())}
    weights = draw(st.lists(st.integers(1, 3), min_size=q, max_size=q))
    ids = draw(st.permutations(range(sum(weights))))
    blocks, at = [], 0
    for w in weights:
        blocks.append(sorted(ids[at:at + w]))
        at += w
    # Quotient vertices ascend by least member, as `Graph` requires.
    order = sorted(range(q), key=lambda b: blocks[b][0])
    new = {b: i for i, b in enumerate(order)}
    quotient = [0] * q
    for a, b in edges:
        quotient[new[a]] |= 1 << new[b]
        quotient[new[b]] |= 1 << new[a]
    blocks = [blocks[b] for b in order]
    block_of = {v: b for b, members in enumerate(blocks) for v in members}
    n = len(block_of)
    rows = [sum(1 << v for v in range(n) if v != u and (
        block_of[u] == block_of[v] or quotient[block_of[u]] >> block_of[v] & 1))
        for u in range(n)]
    return Graph(quotient, str, blocks), Graph(rows)


@settings(max_examples=300, deadline=None)
@given(blown_up_graphs())
def test_quotient_reduction_of_blow_ups_matches_reference(graphs):
    blown, explicit = graphs
    assert [blown.has_edge(u, v) for u in range(blown.n) for v in range(blown.n)] == [
        explicit.has_edge(u, v) for u in range(blown.n) for v in range(blown.n)]
    _assert_same_reduction(twin_reduce(blown), reference_twin_reduce(explicit))
    assert blown.adj == explicit.adj


@settings(max_examples=300, deadline=None)
@given(blown_up_graphs(), st.data())
def test_rows_filled_on_demand_match_reference(graphs, data):
    """Rows read one at a time, in any order, are the reference's rows, for
    the blown-up graph, for the same graph given by its vertex rows alone
    (singleton blocks) and for the search graph; reading `adj` after some
    rows are filled completes them."""
    blown, explicit = graphs
    red, ref = twin_reduce(blown), reference_twin_reduce(explicit)
    # A rows-only graph keeps the rows it is given as its quotient.
    given = explicit.quotient
    for graph, rows in ((blown, given), (Graph(given), given),
                        (red.graph, ref.graph.quotient)):
        order = data.draw(st.permutations(range(graph.n)))
        some = order[:len(order) // 2]
        assert [graph.row(v) for v in some] == [rows[v] for v in some]
        assert graph.adj == rows
        assert [graph.row(v) for v in order] == [rows[v] for v in order]


def _assert_flat_blocks(graph):
    """`members`, `start` and `block_of` agree: every vertex lies in exactly
    one block, each block ascends, and non-empty blocks ascend by least
    member.  `block_of` holds one entry per vertex, whether the graph derived
    it or its builder handed it over."""
    members, start = list(graph.members), list(graph.start)
    assert len(graph.block_of) == graph.n
    assert sorted(members) == list(range(graph.n))
    assert start[0] == 0 and start[-1] == graph.n and start == sorted(start)
    assert len(start) == len(graph.quotient) + 1
    blocks = [members[lo:hi] for lo, hi in pairwise(start)]
    assert [list(graph.block(b)) for b in range(len(blocks))] == blocks
    assert all(block == sorted(block) for block in blocks)
    least = [block[0] for block in blocks if block]
    assert least == sorted(least)
    assert all(graph.block_of[v] == b for b, block in enumerate(blocks) for v in block)


@settings(max_examples=300, deadline=None)
@given(blown_up_graphs())
def test_flat_blocks_agree(graphs):
    blown, explicit = graphs
    for graph in (blown, explicit, twin_reduce(blown).graph):
        _assert_flat_blocks(graph)


@pytest.mark.parametrize("spec", ["C1", "C12", "E2^4", "S4", "A5", "Q16", *LARGE_SPECS])
def test_flat_blocks_of_power_graphs_agree(spec):
    """P*(G) and P(G) take their `block_of` from the build, and a cut search
    graph from `twin_reduce`; of the large-corpus groups only E3^9 and
    E2^14 keep every vertex, so their search graph is P*(G) itself."""
    star = build_power_graph(build_group(spec, LARGE_CAP), proper=True)
    search = twin_reduce(star).graph
    assert (search is star) == (spec in ("C1", "E2^4", "S4", "E3^9", "E2^14"))
    for graph in (star, build_power_graph(build_group(spec, LARGE_CAP)), search):
        _assert_flat_blocks(graph)


def test_handed_over_block_map_must_cover_every_vertex():
    with pytest.raises(ValueError, match="block map length"):
        Graph([0, 0], blocks=[[0], [1]], _block_of=array("i", [0]))


def _assert_blocks_keep_at_most_retain(search):
    """No search-graph block keeps more than `RETAIN` members: a block lies
    in one twin class.  `twin_reduce` sums degrees on that bound."""
    assert all(len(search.block(b)) <= RETAIN for b in range(len(search.quotient)))


@settings(max_examples=300, deadline=None)
@given(blown_up_graphs())
def test_search_blocks_of_blow_ups_keep_at_most_retain(graphs):
    blown, _explicit = graphs
    _assert_blocks_keep_at_most_retain(twin_reduce(blown).graph)


def _assert_reduces_search_graph(search):
    """`twin_reduce` of a search graph, whose cut blocks may be empty, is
    the reduction of its explicit rows, and has no empty class."""
    red = twin_reduce(search)
    _assert_same_reduction(red, reference_twin_reduce(Graph(list(search.adj), search.label)))
    assert all(red.classes)


@settings(max_examples=300, deadline=None)
@given(blown_up_graphs())
def test_reducing_a_search_graph_matches_reference(graphs):
    blown, _explicit = graphs
    _assert_reduces_search_graph(twin_reduce(blown).graph)


@pytest.mark.parametrize("spec", ["C8", "C16", "D8", "PSL(2,8)", "E2^4", "S4", "A5"])
def test_reducing_a_search_graph_with_empty_blocks(spec):
    """P*(G) of the first four groups, the default-corpus groups that do so,
    has a class holding blocks past its third member, so its search graph
    has empty blocks; the search graphs of the last three have none."""
    search = twin_reduce(build_power_graph(build_group(spec), proper=True)).graph
    empty = not all(search.block(b) for b in range(len(search.quotient)))
    assert empty == (spec in ("C8", "C16", "D8", "PSL(2,8)"))
    _assert_reduces_search_graph(search)


@pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS)
def test_no_vertex_has_both_twin_kinds(spec):
    """On every default-corpus P*(G) a vertex with a closed twin has no
    open twin, so open twins, which `twin_reduce` does not group, lie only
    in one-member blocks."""
    graph = build_power_graph(build_group(spec), proper=True)
    closed = Counter(row | 1 << v for v, row in enumerate(graph.adj))
    opened = Counter(graph.adj)
    for v, row in enumerate(graph.adj):
        assert closed[row | 1 << v] == 1 or opened[row] == 1, (spec, v)


def test_reduction_retaining_every_vertex_shares_the_graph():
    graph = build_power_graph(build_group("C6"))
    red = twin_reduce(graph)
    assert list(red.retained) == list(range(graph.n))
    assert red.graph is graph
    capped = twin_reduce(build_power_graph(build_group("C16")))
    assert capped.graph is not capped.original


def test_analysis_renders_only_identity_and_witnesses(monkeypatch):
    """Labels are rendered on demand: analyzing S4 on P*(G) renders the
    identity and each witness vertex, not every element."""
    from pglab.group_kernel import Group

    rendered = []
    render = Group.render
    monkeypatch.setattr(Group, "render",
                        lambda group, i: rendered.append(i) or render(group, i))
    report = analyze_group("S4", proper=True)
    witnesses = [w for w in report.patterns.values() if w is not None]
    assert rendered == [0] + [v + 1 for w in witnesses for v in w.vertices]
    assert report.graph.label(0) == "(1 2)"


@pytest.mark.parametrize("spec", ["C12", "C36", "A4", "Q16", "S4", "C30"])
@pytest.mark.parametrize("pattern", ["P4", "P5", "diamond", "C4", "2K2"])
def test_twin_reduction_preserves_pattern_presence(spec, pattern):
    graph = build_power_graph(build_group(spec))
    on_full = find_induced_pattern(graph, pattern)
    on_reduced = find_induced_pattern(twin_reduce(graph), pattern)
    assert (on_full is None) == (on_reduced is None)


# -- what a power graph cannot contain ----------------------------------------------
# The facts proved in the docstrings of `find_hole`, `rhs_diamond` and
# `rhs_cograph_nullprime`, checked on naive adjacency by subset enumeration.


def _small_groups():
    """The default corpus and every SD(n,m,k) with a non-trivial action
    (k != 1), each of order at most 60."""
    sds = [f"SD({n},{m},{k})" for n in range(3, 31) for m in range(2, 60 // n + 1)
           for k in range(2, n) if gcd(k, n) == 1 and pow(k, m, n) == 1]
    specs = dict.fromkeys([*DEFAULT_CORPUS_SPECS, *sds])
    return [g for g in map(build_group, specs) if g.order <= 60]


def test_diamond_free_and_eppo_power_graphs_are_chordal():
    """A diamond-free P*(G) is chordal, and an EPPO group's is P4-free and
    chordal."""
    groups = _small_groups()
    not_chordal = diamond_free = eppo = 0
    for group in groups:
        graph = reference_power_graph(group, proper=True)
        present = naive_pattern_presence(graph, ["diamond", "P4"])
        chordal = naive_is_chordal(graph)
        not_chordal += not chordal
        if not present["diamond"]:
            diamond_free += 1
            assert chordal, group.label
        if all(is_prime_power(naive_element_order(group, v)) for v in range(1, group.order)):
            eppo += 1
            assert chordal and not present["P4"], group.label
    assert (len(groups), not_chordal, diamond_free, eppo) == (178, 27, 62, 70)


@pytest.mark.parametrize("spec", ["C30", "C36", "C4xC9", "C3xQ8", "SD(30,2,29)"])
def test_power_graph_holes_are_even(spec):
    """Every hole of P*(G) is even.  A hole meets a closed twin class at most
    once, and a set of open twins (equal rows) at most twice, so the search
    graph cut to the first member of each class, then to the first two of
    each set of open twins, holds a hole of every length P*(G) has."""
    red = reference_twin_reduce(reference_power_graph(build_group(spec), proper=True))
    firsts = induced(red.graph, [v for v in range(red.graph.n) if red.rank_masks[1] >> v & 1])
    kept, seen = [], Counter()
    for v, row in enumerate(firsts.adj):
        seen[row] += 1
        if seen[row] <= 2:
            kept.append(v)
    lengths = naive_hole_lengths(induced(firsts, kept))
    assert lengths and all(k % 2 == 0 for k in lengths), lengths


# -- prime graphs ------------------------------------------------------------------


def _prime_graph(spec):
    flags = compute_structure_flags(build_group(spec))
    return flags.primes, prime_graph_edges(flags)


def test_prime_graph_c30():
    primes, edges = _prime_graph("C30")
    assert primes == (2, 3, 5)
    assert edges == [(0, 1), (0, 2), (1, 2)]
    assert edges


def test_prime_graph_null_cases():
    assert not _prime_graph("A5")[1]
    assert not _prime_graph("SD(7,3,2)")[1]
    assert not _prime_graph("Q16")[1]
    primes, edges = _prime_graph("A4")
    assert primes == (2, 3)
    assert not edges


def test_prime_graph_c12():
    primes, edges = _prime_graph("C12")
    assert primes == (2, 3)
    assert edges == [(0, 1)]


# -- export -----------------------------------------------------------------------


def test_export_json_is_compact_and_exact():
    g = build_power_graph(build_group("S3"), proper=True)
    blob = export_graph(g, "json")
    assert blob == (
        '{"n":5,"edges":[[1,4]],'
        '"labels":["(1 2)","(1 2 3)","(2 3)","(1 3)","(1 3 2)"]}'
    )
    doc = json.loads(blob)
    assert doc["n"] == 5


def test_export_dot():
    g = build_power_graph(build_group("C3"))
    dot = export_graph(g, "dot")
    assert dot.startswith("graph")
    assert '0 [label="0"];' in dot
    assert "0 -- 1;" in dot
    assert "1 -- 2;" in dot


def test_export_rejects_unknown_format():
    g = build_power_graph(build_group("C3"))
    with pytest.raises(ValueError):
        export_graph(g, "gml")


def test_graph_constructor_direct():
    ring = Graph([0b10010, 0b00101, 0b01010, 0b10100, 0b01001])
    assert ring.n == 5
    assert ring.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert all(ring.row(v).bit_count() == 2 for v in range(5))
    assert is_connected(ring)


# -- what a built group and its graphs keep ---------------------------------------


def test_psl2_31_bundle_holds_under_3_mb():
    """PSL(2,31), built inside the trace with its P*(G), flags, reduction and
    one C3 search, holds under 3.0 MB: the walk drops the payload index, and
    the original graph of a cut reduction makes no row list.  With the index
    kept and a row slot per vertex it held 3.7 MB."""
    tracemalloc.start()
    try:
        group = build_group("PSL(2,31)", LARGE_CAP)
        graph = build_power_graph(group, proper=True)
        flags = compute_structure_flags(group)
        red = twin_reduce(graph)
        witness = find_induced_pattern(red, "C3")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert group.order == 14_880 and flags.order == 14_880 and witness is not None
    assert held < 3_000_000


def test_large_corpus_walks_compose_as_often_as_traced(monkeypatch):
    """Building P*(G) for the ten verify-large groups composes 140,907
    times, the traced `group_kernel.compose_calls` of that workload, and the
    orders read afterwards come from the walk, with no further call."""
    groups = [build_group(spec, LARGE_CAP) for spec in LARGE_SPECS]
    calls = [0]
    compose = Group.compose

    def counted(group, i, j):
        calls[0] += 1
        return compose(group, i, j)

    monkeypatch.setattr(Group, "compose", counted)
    for group in groups:
        build_power_graph(group, proper=True)
    assert calls[0] == 140_907
    for group in groups:
        group.element_orders()
    assert calls[0] == 140_907


def test_searching_a_cut_reduction_reads_no_original_row():
    """P*(PSL(2,31)) has 14,879 vertices, cut to 5,459: a search reads no
    row of the original, so it makes no list of 14,879 row slots."""
    red = twin_reduce(build_power_graph(build_group("PSL(2,31)", LARGE_CAP), proper=True))
    assert red.graph is not red.original
    assert find_induced_pattern(red, "P2uP3bar") is None
    assert "_rows" not in vars(red.original)


@given(st.lists(st.booleans(), max_size=200))
def test_mask_sets_exactly_the_listed_bits(flags):
    assert _mask(flags) == sum(1 << i for i, f in enumerate(flags) if f)
    assert _mask([int(f) for f in flags]) == _mask(flags)
