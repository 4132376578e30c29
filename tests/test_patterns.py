import random
import time

import pytest
from hypothesis import given, settings

from pglab import (
    PATTERNS,
    Graph,
    TwinReducedGraph,
    build_group,
    build_power_graph,
    find_hole,
    find_induced_pattern,
    twin_reduce,
    verify_witness,
)
from pglab import patterns
from pglab.harness import DEFAULT_CORPUS_SPECS
from pglab.patterns import _make_pattern, _mcs_is_chordal
from pglab.power_graph import RETAIN
from naive_oracle import (
    complement,
    is_chain_graph,
    is_chordal,
    is_free,
    naive_first_witness,
    naive_hole_lengths,
    naive_is_chordal,
    naive_pattern_presence,
    reference_find_hole,
    reference_find_induced_pattern,
    small_graphs,
)

# -- catalog shape -----------------------------------------------------------------


def test_catalog_contents():
    sizes = {name: p.size for name, p in PATTERNS.items()}
    assert sizes == {
        "P4": 4, "P5": 5, "P5bar": 5, "C3": 3, "C4": 4, "C5": 5,
        "2K2": 4, "diamond": 4, "co-diamond": 4, "P2uP3": 5, "P2uP3bar": 5,
    }
    edge_counts = {name: len(p.edges) for name, p in PATTERNS.items()}
    assert edge_counts == {
        "P4": 3, "P5": 4, "P5bar": 6, "C3": 3, "C4": 4, "C5": 5,
        "2K2": 2, "diamond": 5, "co-diamond": 1, "P2uP3": 3, "P2uP3bar": 7,
    }


def test_patterns_are_consistent():
    for name, p in PATTERNS.items():
        assert p.name == name
        for i, mask in enumerate(p.adj_masks):
            assert not mask >> i & 1  # no self-loop
            assert p.degrees[i] == bin(mask).count("1")
        for u, v in p.edges:
            assert p.adj_masks[u] >> v & 1
            assert p.adj_masks[v] >> u & 1


def _brute_max_twins(p):
    """Largest vertex set of p whose members share one closed or one open
    neighbourhood, by enumerating every subset."""
    best = 0
    for bits in range(1, 1 << p.size):
        vs = [v for v in range(p.size) if bits >> v & 1]
        if (len({p.adj_masks[v] | 1 << v for v in vs}) == 1
                or len({p.adj_masks[v] for v in vs}) == 1):
            best = max(best, len(vs))
    return best


def test_max_twins_matches_brute_force():
    for name, p in PATTERNS.items():
        assert p.max_twins == _brute_max_twins(p), name
        assert p.max_twins <= RETAIN, name
    assert {n for n, p in PATTERNS.items() if p.max_twins == 1} == {
        "P4", "P5", "P5bar", "C5"}
    assert PATTERNS["C3"].max_twins == 3


def test_has_hole_matches_the_oracle():
    """`Pattern.has_hole`, derived by MCS, against hole enumeration on each
    pattern's own graph."""
    for name, p in PATTERNS.items():
        assert p.has_hole == bool(naive_hole_lengths(Graph(list(p.adj_masks)))), name
    assert {name for name, p in PATTERNS.items() if p.has_hole} == {
        "C4", "C5", "P5bar", "P2uP3bar"}


def test_pattern_beyond_retention_is_refused():
    k4 = _make_pattern("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert k4.max_twins == 4 > RETAIN
    with pytest.raises(ValueError):
        find_induced_pattern(build_power_graph(build_group("C8")), k4)


# -- witness verification ------------------------------------------------------------


def test_verify_witness_exactness():
    g = build_power_graph(build_group("C6"))
    assert verify_witness(g, "diamond", (1, 5, 2, 3))
    assert verify_witness(g, PATTERNS["diamond"], (1, 5, 2, 3))
    # g^2 and g^4 generate the same subgroup, hence are adjacent: not a diamond
    assert not verify_witness(g, "diamond", (1, 5, 2, 4))
    assert not verify_witness(g, "diamond", (1, 5, 2))  # wrong arity
    assert not verify_witness(g, "diamond", (1, 5, 2, 2))  # repeated vertex
    assert not verify_witness(g, "C3", (0, 2, 3))  # g^2 !~ g^3
    # vertices outside range(n) induce nothing, though list indices wrap
    c3 = build_power_graph(build_group("C3"))
    assert verify_witness(c3, "C3", (0, 1, 2))
    assert not verify_witness(c3, "C3", (-1, 0, 1))
    assert not verify_witness(c3, "C3", (-3, -2, -1))
    assert not verify_witness(c3, "C3", (0, 1, 5))


def test_find_returns_original_vertices_and_labels():
    graph = build_power_graph(build_group("C36"))
    w = find_induced_pattern(graph, "P5")
    assert w is not None
    assert w.pattern == "P5"
    assert verify_witness(graph, "P5", w.vertices)
    assert list(w.labels) == [graph.labels[v] for v in w.vertices]


def test_find_accepts_graph_or_reduction():
    graph = build_power_graph(build_group("C12"))
    red = twin_reduce(graph)
    a = find_induced_pattern(graph, "P4")
    b = find_induced_pattern(red, "P4")
    assert a == b  # same deterministic search over the same reduction


def test_find_is_deterministic():
    graph = build_power_graph(build_group("C36"))
    assert find_induced_pattern(graph, "P5") == find_induced_pattern(graph, "P5")


def test_injected_path_in_c36():
    """g^9 ~ g^18 ~ g^6 ~ g^12 ~ g^4 is an induced P5 (orders 4,2,6,3,9)."""
    group = build_group("C36")
    graph = build_power_graph(group)
    vertices = (9, 18, 6, 12, 4)
    assert [group.element_orders()[v] for v in vertices] == [4, 2, 6, 3, 9]
    assert verify_witness(graph, "P5", vertices)


def test_unknown_pattern_raises():
    graph = build_power_graph(build_group("C6"))
    with pytest.raises(KeyError):
        find_induced_pattern(graph, "P6")


# -- detection on known power graphs ---------------------------------------------------


def test_p4_in_c12_has_expected_orders():
    group = build_group("C12")
    w = find_induced_pattern(build_power_graph(group), "P4")
    assert w is not None
    assert sorted(group.element_orders()[v] for v in w.vertices) == [2, 3, 4, 6]


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("C6", True), ("C8", True), ("C15", True), ("C12", False),
        ("C36", False), ("Q8", True), ("A4", True), ("S4", True),
        ("C2xC6", False),
    ],
)
def test_is_cograph(spec, expected):
    witness = find_induced_pattern(build_power_graph(build_group(spec)), "P4")
    assert (witness is None) is expected
    if witness is not None:
        assert witness.pattern == "P4"


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("C3", True), ("E2^3", True), ("S3", True), ("C2", True),
        ("C6", False), ("C9", False), ("A4", False), ("C12", False),
    ],
)
def test_is_chain_graph_on_proper_graphs(spec, expected):
    graph = build_power_graph(build_group(spec), proper=True)
    free, witness = is_chain_graph(graph)
    assert free is expected
    if not free:
        assert witness.pattern in ("C3", "C5", "2K2")
        assert verify_witness(graph, witness.pattern, witness.vertices)


@pytest.mark.parametrize(
    "spec,expected",
    [("C12", True), ("C36", False), ("C100", False), ("C2xC6", True), ("Q16", True)],
)
def test_is_chordal(spec, expected):
    graph = build_power_graph(build_group(spec))
    verdict, witness = is_chordal(graph)
    assert verdict is expected
    if not verdict:
        assert witness.pattern.startswith("C")
        assert len(witness.vertices) >= 4


def test_is_free_reports_catalog_order():
    graph = build_power_graph(build_group("C6"))
    result = is_free(graph)
    assert list(result) == list(PATTERNS)
    assert result["P5"] is None
    assert result["diamond"] is not None
    subset = is_free(graph, ["diamond", "P4"])
    assert list(subset) == ["diamond", "P4"]


# -- complement duality ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,partner",
    [
        ("P5", "P5bar"), ("diamond", "co-diamond"), ("P2uP3", "P2uP3bar"),
        ("P4", "P4"), ("C5", "C5"), ("C4", "2K2"),
    ],
)
@pytest.mark.parametrize("spec", ["C30", "C12", "S4", "Q8"])
def test_complement_duality(name, partner, spec):
    graph = build_power_graph(build_group(spec))
    comp = complement(graph)
    assert (find_induced_pattern(graph, name) is None) == (
        find_induced_pattern(comp, partner) is None
    )
    assert (find_induced_pattern(graph, partner) is None) == (
        find_induced_pattern(comp, name) is None
    )


# -- hole search --------------------------------------------------------------------------


def _ring(n):
    adj = [0] * n
    for v in range(n):
        adj[v] = (1 << ((v + 1) % n)) | (1 << ((v - 1) % n))
    return Graph(adj)


def test_find_hole_on_rings():
    c6 = _ring(6)
    w = find_hole(c6)
    assert w is not None and w.pattern == "C6" and len(w.vertices) == 6
    assert find_hole(_ring(7)).pattern == "C7"


def test_find_hole_respects_bounds_and_validates():
    """A hole has at least four vertices, in the search and in the re-check
    of its witness."""
    c5 = _ring(5)
    assert find_hole(c5).pattern == "C5"
    assert patterns._is_induced_cycle(c5, (0, 1, 2, 3, 4))
    triangle = _ring(3)
    assert find_hole(triangle) is None
    assert not patterns._is_induced_cycle(triangle, (0, 1, 2))


def test_find_hole_witness_is_cycle_order():
    graph = build_power_graph(build_group("C36"))
    w = find_hole(graph)
    assert w is not None
    k = len(w.vertices)
    for i in range(k):
        assert graph.has_edge(w.vertices[i], w.vertices[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) != (0, k - 1):
                assert not graph.has_edge(w.vertices[i], w.vertices[j])


@pytest.mark.parametrize("corrupt", [
    lambda cycle: cycle[:-1],                        # a path, not closed
    lambda cycle: cycle + [cycle[1]],                # a vertex twice
    lambda cycle: [cycle[0], cycle[2], cycle[1]] + cycle[3:],  # out of cycle order
])
def test_find_hole_rejects_an_invalid_cycle(monkeypatch, corrupt):
    """The cycle the depth-first search returns is re-verified on the
    original graph before it becomes a witness."""
    search = patterns._hole_dfs
    monkeypatch.setattr(patterns, "_hole_dfs", lambda *args: corrupt(search(*args)))
    with pytest.raises(RuntimeError, match="invalid hole"):
        find_hole(_ring(6))


def test_triangle_free_square():
    c4 = _ring(4)
    assert find_hole(c4).pattern == "C4"
    assert find_induced_pattern(c4, "C3") is None


def test_long_cycle_is_searched_without_recursion():
    """A 1,500-vertex hole is longer than the interpreter's recursion limit."""
    ring = _ring(1500)
    w = find_hole(ring)
    assert w is not None and w.vertices == tuple(range(1500))
    verdict, witness = is_chordal(ring)
    assert verdict is False and witness == w


def test_mcs_on_a_long_path_is_chordal():
    """20,000 vertices: a quadratic scan for the next vertex takes minutes."""
    n = 20000
    path = Graph([(1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0)
                  for v in range(n)])
    assert _mcs_is_chordal(path) is True


def test_mcs_on_a_long_cycle_is_not_chordal():
    assert _mcs_is_chordal(_ring(20000)) is False


def _twin_rich_graph(rng):
    """A random graph on a few base vertices, grown by closed and open twins."""
    base = rng.randrange(3, 7)
    adj = [0] * base
    for u in range(base):
        for v in range(u + 1, base):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    for v in range(base, base + rng.randrange(3, 8)):
        src = rng.randrange(v)
        row = adj[src] | (1 << src if rng.random() < 0.5 else 0)
        adj.append(row)
        for u in range(v):
            if row >> u & 1:
                adj[u] |= 1 << v
    return Graph(adj)


def _unreduced(graph):
    """Singleton classes: searches on this run over the whole graph."""
    full = (1 << graph.n) - 1
    return TwinReducedGraph(graph, [[v] for v in range(graph.n)],
                            list(range(graph.n)), graph, [0] + [full] * RETAIN,
                            [row.bit_count() for row in graph.adj])


def test_reduced_search_finds_the_unreduced_first_witness():
    """Twin reduction and the per-pattern retention leave the first witness
    of every pattern and the first hole unchanged."""
    rng = random.Random(4)
    large_classes = 0
    for trial in range(150):
        g = _twin_rich_graph(rng)
        red, whole = twin_reduce(g), _unreduced(g)
        large_classes += max(len(c) for c in red.classes) > RETAIN
        for name in PATTERNS:
            assert find_induced_pattern(red, name) == find_induced_pattern(whole, name), (
                trial, name, g.adj)
        assert find_hole(red) == find_hole(whole), (trial, g.adj)
    assert large_classes >= 30


@pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS + ("C3xC4xC2",))
def test_cut_hole_search_matches_the_uncut_search(spec):
    """The reachability cut drops only subtrees with no hole, so every
    search returns the uncut search's first hole."""
    red = twin_reduce(build_power_graph(build_group(spec), proper=True))
    assert find_hole(red) == reference_find_hole(red)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_cut_hole_search_matches_the_uncut_search_on_small_graphs(graph):
    assert find_hole(graph) == reference_find_hole(graph)


def test_hole_search_cuts_paths_that_cannot_close():
    """P*(E3^2 x D4) holds a C8 that the uncut search took about 12 s to
    reach: it explored every induced path from the first start vertex."""
    red = twin_reduce(build_power_graph(build_group("E3^2xD4"), proper=True))
    began = time.perf_counter()
    w = find_hole(red)
    assert time.perf_counter() - began < 1.0
    assert w.pattern == "C8" and w.vertices == (0, 8, 7, 9, 1, 25, 23, 24)


def _random_graphs(seed, trials, sizes, densities):
    """`trials` random graphs, each of a size drawn from `range(*sizes)`,
    then an edge density drawn from `densities`."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randrange(*sizes)
        p = rng.choice(densities)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        yield adj, Graph(adj)


_HOLE_TRIALS = (20260815, 40, (5, 11), (0.2, 0.35, 0.5, 0.65))


def test_hole_search_against_naive_enumeration():
    for trial, (adj, g) in enumerate(_random_graphs(*_HOLE_TRIALS)):
        lengths = naive_hole_lengths(g)
        assert (find_hole(g) is None) == (not lengths), (trial, adj)
        assert _mcs_is_chordal(g) == (not lengths), (trial, adj)
        assert naive_is_chordal(g) == (not lengths), (trial, adj)
        verdict, witness = is_chordal(g)
        assert verdict == (not lengths)
        if witness is not None:
            assert len(witness.vertices) in lengths


def test_chordal_graphs_hold_no_pattern_with_a_hole():
    """The fact behind `analyze_group`'s skip, off power graphs: every
    graph above that the oracle finds chordal holds none of C4, C5, P5bar
    and P2uP3bar by the uncut search, while the graphs with a hole hold
    some of them."""
    holed = [p for p in PATTERNS.values() if p.has_hole]
    chordal = found = 0
    for trial, (adj, g) in enumerate(_random_graphs(*_HOLE_TRIALS)):
        witnesses = [reference_find_induced_pattern(g, p) for p in holed]
        if naive_is_chordal(g):
            chordal += 1
            assert witnesses == [None] * len(holed), (trial, adj)
        else:
            found += any(witnesses)
    assert chordal >= 5 and found >= 5


def test_pattern_presence_against_naive_enumeration():
    """Backtracking search vs direct subset enumeration on random graphs."""
    for trial, (adj, g) in enumerate(_random_graphs(987654321, 25, (5, 10),
                                                    (0.25, 0.5, 0.75))):
        naive = naive_pattern_presence(g)
        for name, found in is_free(g).items():
            assert (found is not None) == naive[name], (trial, name, adj)


# -- distance-two look-ahead ---------------------------------------------------------------


def test_search_order_and_lookahead_steps():
    """Each look-ahead step j of step k: the vertices at steps j and k are not
    adjacent but share a neighbour placed after step k, share none placed
    before step k (which would already confine x_k to N(N(x_j))), and j is
    the earliest such step."""
    steps = {}
    for name, p in PATTERNS.items():
        assert p.order == tuple(sorted(range(p.size), key=lambda v: (-p.degrees[v], v)))
        for k, pv in enumerate(p.order):
            ok = [j for j in range(k)
                  if not p.adj_masks[p.order[j]] >> pv & 1
                  and any(p.adj_masks[w] >> pv & 1 and p.adj_masks[w] >> p.order[j] & 1
                          for w in p.order[k + 1:])
                  and not any(p.adj_masks[w] >> pv & 1 and p.adj_masks[w] >> p.order[j] & 1
                              for w in p.order[:k])]
            assert p.lookahead[k] == (ok[0] if ok else None), (name, k)
            if ok:
                steps[name, k] = ok[0]
    assert steps == {("C5", 3): 0, ("P2uP3bar", 1): 0}


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_first_witness_against_enumeration(graph):
    """The search returns the lexicographically first copy in search order."""
    whole = _unreduced(graph)
    for name in PATTERNS:
        w = find_induced_pattern(whole, name)
        assert (None if w is None else w.vertices) == naive_first_witness(graph, name), name


@pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS)
def test_lookahead_keeps_every_corpus_witness(spec):
    """The search with the look-ahead and the backtracker without it return
    the same witness for every pattern on every default-corpus P*(G)."""
    red = twin_reduce(build_power_graph(build_group(spec), proper=True))
    for name in PATTERNS:
        assert find_induced_pattern(red, name) == reference_find_induced_pattern(red, name), name


@pytest.mark.parametrize("spec", ["PSL(2,27)", "S7", "A7"])
def test_p2up3bar_absent_from_large_groups(spec):
    """P*(G) has no induced P2uP3bar.  Without the look-ahead these searches
    took 9 s (PSL(2,27)), 25 s (S7) and 0.6 s (A7); with it, each is well
    under a second, so a lost cut shows as a slow suite."""
    graph = build_power_graph(build_group(spec), proper=True)
    assert find_induced_pattern(graph, "P2uP3bar") is None
