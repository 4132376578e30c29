import json
from collections import Counter

import pytest
from hypothesis import given, settings

from pglab import (
    Graph,
    build_group,
    build_power_graph,
    build_prime_graph,
    export_graph,
    find_induced_pattern,
    twin_reduce,
)
from pglab.harness import DEFAULT_CORPUS_SPECS, analyze_group
from pglab.power_graph import RETAIN
from naive_oracle import (
    complement,
    is_connected,
    naive_element_order,
    naive_power_graph_sets,
    naive_twin_classes,
    neighbors,
    reference_power_graph,
    small_graphs,
)

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
    group.element_order(7)
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
        assert g.degree(0) == g.n - 1


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
    assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges())


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
    sub = big.induced([0, 2, 4, 6, 8, 10])  # the copy of C6 inside C12
    small = build_power_graph(build_group("C6"))
    assert sub.n == small.n
    assert sub.edges() == small.edges()

    s4 = build_group("S4")
    fix4 = [i for i in range(24) if s4.payload(i)[3] == 3]  # the copy of S3
    sub = build_power_graph(s4).induced(fix4)
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
    assert red.classes == [[0, 1, 5], [2, 4], [3]]
    assert red.retained == [0, 1, 2, 3, 4, 5]


def test_twin_reduce_caps_class_size():
    graph = build_power_graph(build_group("E2^4"))  # star on 16 vertices
    red = twin_reduce(graph)
    assert len(red.classes) == 2  # {identity} and the 15 open-twin involutions
    assert RETAIN == 3
    assert red.retained == [0, 1, 2, 3]  # the identity and 3 involutions
    # rank_masks[m]: the first m retained members of each class
    assert red.rank_masks == [0b0000, 0b0011, 0b0111, 0b1111]


def test_twin_reduce_maps_every_vertex():
    graph = build_power_graph(build_group("C30"))
    red = twin_reduce(graph)
    for v in range(graph.n):
        assert sum(v in cls for cls in red.classes) == 1
    assert sorted(v for cls in red.classes for v in cls) == list(range(graph.n))


def _bits(row):
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _check_against_oracle(graph, classes):
    """Every field of twin_reduce(graph), given the expected classes."""
    red = twin_reduce(graph)
    assert red.original is graph
    assert red.classes == classes
    for ci, members in enumerate(classes):
        assert all(v in red.classes[ci] for v in members)
    assert red.retained == sorted(v for ms in classes for v in ms[:RETAIN])
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
    come out whole.  Edgeless: one class of open twins.  Perfect matching:
    each edge is a class of closed twins."""
    n = 20_000
    red = _check_against_oracle(Graph([0] * n), [list(range(n))])
    assert red.retained == [0, 1, 2]
    matching = Graph([1 << (v ^ 1) for v in range(n)])
    red = _check_against_oracle(matching, [[v, v + 1] for v in range(0, n, 2)])
    assert red.graph is matching


@pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS)
def test_no_vertex_has_both_twin_kinds(spec):
    """The lemma twin_reduce rests on: the closed-twin and open-twin
    relations never chain, checked on every default-corpus P*(G)."""
    graph = build_power_graph(build_group(spec), proper=True)
    closed = Counter(row | 1 << v for v, row in enumerate(graph.adj))
    opened = Counter(graph.adj)
    for v, row in enumerate(graph.adj):
        assert closed[row | 1 << v] == 1 or opened[row] == 1, (spec, v)


def test_reduction_retaining_every_vertex_shares_the_graph():
    graph = build_power_graph(build_group("C6"))
    red = twin_reduce(graph)
    assert red.retained == list(range(graph.n))
    assert red.graph is graph
    capped = twin_reduce(build_power_graph(build_group("E2^4")))
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


# -- prime graphs ------------------------------------------------------------------


def test_prime_graph_c30():
    pg = build_prime_graph(build_group("C30"))
    assert pg.primes == (2, 3, 5)
    assert pg.graph.edges() == [(0, 1), (0, 2), (1, 2)]
    assert not pg.is_null


def test_prime_graph_null_cases():
    assert build_prime_graph(build_group("A5")).is_null
    assert build_prime_graph(build_group("SD(7,3,2)")).is_null
    assert build_prime_graph(build_group("Q16")).is_null
    a4 = build_prime_graph(build_group("A4"))
    assert a4.primes == (2, 3)
    assert a4.is_null


def test_prime_graph_c12():
    pg = build_prime_graph(build_group("C12"))
    assert pg.primes == (2, 3)
    assert pg.graph.edges() == [(0, 1)]


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
    assert all(ring.degree(v) == 2 for v in range(5))
    assert is_connected(ring)
