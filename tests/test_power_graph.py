import json

import pytest

from pglab import (
    Graph,
    build_group,
    build_power_graph,
    build_prime_graph,
    export_graph,
    find_induced_pattern,
    twin_reduce,
)
from pglab.harness import DEFAULT_CORPUS_SPECS
from pglab.power_graph import RETAIN
from naive_oracle import (
    naive_element_order,
    naive_power_graph_sets,
    reference_power_graph,
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
        assert set(graph.neighbors(v)) == expected[v], (spec, proper, v)


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
            for u in g.neighbors(v):
                assert g.has_edge(u, v)


def test_identity_vertex_is_universal():
    for spec in ("C12", "A4", "Q16", "SD(7,3,2)"):
        g = build_power_graph(build_group(spec))
        assert g.degree(0) == g.n - 1


def test_p_c6_explicit_edges():
    g = build_power_graph(build_group("C6"))
    assert g.n == 6
    assert g.edge_count() == 13
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


def test_degree_sum_is_twice_edge_count():
    g = build_power_graph(build_group("C30"))
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


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
    assert sub.edge_count() == build_power_graph(build_group("S3")).edge_count()


def test_complement_involution():
    g = build_power_graph(build_group("C12"))
    comp = g.complement()
    assert comp.edge_count() == g.n * (g.n - 1) // 2 - g.edge_count()
    assert comp.complement().edges() == g.edges()
    assert not any(comp.has_edge(v, v) for v in range(comp.n))


def test_connectivity():
    assert build_power_graph(build_group("A4")).is_connected()
    assert build_power_graph(build_group("C15"), proper=True).is_connected()
    assert not build_power_graph(build_group("E2^2"), proper=True).is_connected()
    assert not build_power_graph(build_group("S3"), proper=True).is_connected()


# -- twin reduction -----------------------------------------------------------------


def test_twin_classes_of_p_c6():
    red = twin_reduce(build_power_graph(build_group("C6")))
    assert red.classes == [[0, 1, 5], [2, 4], [3]]
    assert red.retained == [0, 1, 2, 3, 4, 5]
    assert red.class_count == 3


def test_twin_reduce_caps_class_size():
    graph = build_power_graph(build_group("E2^4"))  # star on 16 vertices
    red = twin_reduce(graph)
    assert red.class_count == 2  # {identity} and the 15 open-twin involutions
    assert RETAIN == 3
    assert red.retained == [0, 1, 2, 3]  # the identity and 3 involutions
    # rank_masks[m]: the first m retained members of each class
    assert red.rank_masks == [0b0000, 0b0011, 0b0111, 0b1111]


def test_twin_reduce_maps_every_vertex():
    graph = build_power_graph(build_group("C30"))
    red = twin_reduce(graph)
    for v in range(graph.n):
        assert v in red.classes[red.class_of[v]]
    assert sorted(v for cls in red.classes for v in cls) == list(range(graph.n))


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
    assert ring.is_connected()
