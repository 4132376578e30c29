"""Deliberately naive reference implementations used only by the tests.

Nothing here shares algorithms with the package: adjacency comes from
explicit power enumeration (for `reference_power_graph`, one walk over
every element's powers), pattern detection from direct k-subset
enumeration against permutation-closed edge-mask tables, and hole/chordality
checks from subset enumeration.  Slow on purpose; kept honest on purpose.
Two exceptions: `reference_find_induced_pattern` is the package's
backtracker without its distance-two look-ahead, and `reference_find_hole`
is its hole search without its reachability cut; each is the reference its
cut is checked against on graphs too large to enumerate.

The last section is different: it keeps, as free functions, graph and group
helpers that the package no longer calls, for the tests written against
them.  Those wrap the package's own searches.
"""

import math
from collections import Counter
from functools import cache
from itertools import combinations, pairwise, permutations
from unittest import mock

from hypothesis import strategies as st

from pglab import (PATTERNS, Graph, TwinReducedGraph, Witness, find_hole,
                   find_induced_pattern, twin_reduce, verify_witness)
from pglab.classifiers import is_prime_power
from pglab.finite_field import construct_field, index_tables, primitive_element
from pglab.group_kernel import CapExceededError, Group, close_generators
from pglab import patterns
from pglab.patterns import _as_reduction, _mcs_is_chordal
from pglab.power_graph import RETAIN

# -- power graph adjacency oracle ---------------------------------------------


def naive_power_graph_sets(group, proper=False):
    """Adjacency as a list of vertex sets: u ~ v iff one is a power of the
    other (explicit power walk, no bitsets, no closure reuse)."""
    n = group.order
    powers = []
    for v in range(n):
        cyc = set()
        x = v
        while x not in cyc:
            cyc.add(x)
            x = group.compose(x, v)
        cyc.add(0)
        powers.append(cyc)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if u in powers[v] or v in powers[u]:
                adj[u].add(v)
                adj[v].add(u)
    if not proper:
        return adj
    return [{w - 1 for w in adj[v] if w != 0} for v in range(1, n)]


def reference_power_graph(group, proper=False):
    """The power graph built one element at a time: walk each u's powers
    and join u to every member of <u>, in both directions."""
    n = group.order
    adj = [0] * n
    for u in range(1, n):
        bits = 0
        x = u
        while x != 0:
            bits |= 1 << x
            x = group.compose(x, u)
        # <u> contains the identity and u itself; u ~ every other member.
        bits |= 1
        bits &= ~(1 << u)
        adj[u] |= bits
        mask = bits
        while mask:
            low = mask & -mask
            adj[low.bit_length() - 1] |= 1 << u
            mask ^= low
    labels = [group.render(i) for i in range(n)]
    if not proper:
        return Graph(adj, labels)
    return Graph([row >> 1 for row in adj[1:]], labels[1:])


@st.composite
def small_graphs(draw):
    """Random simple graphs on 0 to 9 vertices."""
    n = draw(st.integers(0, 9))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(adj)


def naive_twin_classes(graph):
    """Closed-twin classes by pairwise comparison: u and v are linked when
    N[u] = N[v], and classes are the transitive closure of that link.
    Members ascending, classes ordered by their least member."""
    nbrs = [set(neighbors(graph, v)) for v in range(graph.n)]
    linked = [[nbrs[u] | {u} == nbrs[v] | {v} for v in range(graph.n)]
              for u in range(graph.n)]
    class_of = [None] * graph.n
    classes = []
    for v in range(graph.n):
        if class_of[v] is not None:
            continue
        members, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in range(graph.n):
                if linked[u][w] and w not in members:
                    members.add(w)
                    stack.append(w)
        for u in members:
            class_of[u] = len(classes)
        classes.append(sorted(members))
    return classes


def reference_twin_reduce(graph):
    """Twin reduction on the vertex rows, as the package did it before it
    reduced the clique quotient: sort every vertex by closed row, take each
    run of equal rows as a class, keep the `RETAIN` smallest ids of each,
    and induce the search graph on them."""
    run_of = [None] * graph.n
    rows = [row | 1 << v for v, row in enumerate(graph.adj)]
    for u, v in pairwise(sorted(range(graph.n), key=rows.__getitem__)):
        if rows[u] == rows[v]:
            if run_of[u] is None:
                run_of[u] = [u]
            run_of[u].append(v)
            run_of[v] = run_of[u]
    classes = [run or [v] for v, run in enumerate(run_of) if run is None or run[0] == v]
    rank = [0] * graph.n
    for ms in classes:
        for r, v in enumerate(ms):
            rank[v] = r
    retained = sorted(v for ms in classes for v in ms[:RETAIN])
    rank_masks = [0] * (RETAIN + 1)
    for i, v in enumerate(retained):
        rank_masks[rank[v] + 1] |= 1 << i
    for m in range(1, RETAIN + 1):
        rank_masks[m] |= rank_masks[m - 1]
    search = induced(graph, retained)
    return TwinReducedGraph(graph, classes, retained, search, rank_masks,
                            [row.bit_count() for row in search.adj])


# -- hole search without its reachability cut ---------------------------------


def reference_hole_dfs(s, start, v1, above):
    """`patterns._hole_dfs` as it was before its reachability cut: every
    induced path start, v1, ... is extended, whether or not it can close."""
    adj = s.adj
    past_v1 = above & ~((1 << (v1 + 1)) - 1)
    path = [start, v1]
    path_mask = (1 << start) | (1 << v1)
    blocked = [0]  # blocked[i]: union of neighborhoods of path[1:i + 1]
    pending = []  # pending[i]: untried extensions of path[:i + 2]
    while True:
        vk, length, block = path[-1], len(path) + 1, blocked[-1]
        if length >= 4:
            close = adj[vk] & adj[start] & past_v1 & ~block & ~path_mask
            if close:
                return path + [(close & -close).bit_length() - 1]
        pending.append(adj[vk] & above & ~adj[start] & ~block & ~path_mask)
        while not pending[-1]:
            pending.pop()
            if not pending:
                return None
            path_mask ^= 1 << path.pop()
            blocked.pop()
        low = pending[-1] & -pending[-1]
        pending[-1] ^= low
        blocked.append(blocked[-1] | adj[path[-1]])
        path.append(low.bit_length() - 1)
        path_mask |= low


def reference_find_hole(g):
    """`find_hole` with `reference_hole_dfs` in place of the cut search."""
    with mock.patch.object(patterns, "_hole_dfs", reference_hole_dfs):
        return find_hole(g)


# -- naive induced-pattern search ----------------------------------------------

# Pair-slot numbering for a k-subset (v0 < v1 < ... ): adding vertex j
# contributes the contiguous bits T(j)..T(j)+j-1 for pairs (0,j)..(j-1,j),
# where T(j) = j*(j-1)//2.


def _pattern_mask_table(size):
    """mask -> pattern name, over every vertex permutation of every catalog
    pattern of this size.  Masks are unambiguous: edge counts differ."""
    table = {}
    for name, pat in PATTERNS.items():
        if pat.size != size:
            continue
        edge_set = {frozenset(e) for e in pat.edges}
        for perm in permutations(range(size)):
            mask = 0
            for j in range(1, size):
                base = j * (j - 1) // 2
                for i in range(j):
                    if frozenset((perm[i], perm[j])) in edge_set:
                        mask |= 1 << (base + i)
            table[mask] = name
    return table


_TABLES = {k: _pattern_mask_table(k) for k in (3, 4, 5)}
_SIZES = {name: pat.size for name, pat in PATTERNS.items()}


def _subset_masks(rows, n, k, table, wanted):
    """Enumerate all k-subsets, classify each by its induced edge mask, and
    return {name: found} for the wanted names (early exit once all found)."""
    found = dict.fromkeys(wanted, False)
    missing = set(wanted)
    get = table.get
    if k == 3:
        for a in range(n):
            ra = rows[a]
            for b in range(a + 1, n):
                rb = rows[b]
                eab = ra >> b & 1
                for c in range(b + 1, n):
                    m = eab | (ra >> c & 1) << 1 | (rb >> c & 1) << 2
                    name = get(m)
                    if name in missing:
                        found[name] = True
                        missing.discard(name)
                        if not missing:
                            return found
        return found
    if k == 4:
        for a in range(n):
            ra = rows[a]
            for b in range(a + 1, n):
                rb = rows[b]
                m2 = ra >> b & 1
                for c in range(b + 1, n):
                    rc = rows[c]
                    m3 = m2 | (ra >> c & 1) << 1 | (rb >> c & 1) << 2
                    for d in range(c + 1, n):
                        m = (m3 | (ra >> d & 1) << 3 | (rb >> d & 1) << 4
                             | (rc >> d & 1) << 5)
                        name = get(m)
                        if name in missing:
                            found[name] = True
                            missing.discard(name)
                            if not missing:
                                return found
        return found
    if k == 5:
        for a in range(n):
            ra = rows[a]
            for b in range(a + 1, n):
                rb = rows[b]
                m2 = ra >> b & 1
                for c in range(b + 1, n):
                    rc = rows[c]
                    m3 = m2 | (ra >> c & 1) << 1 | (rb >> c & 1) << 2
                    for d in range(c + 1, n):
                        rd = rows[d]
                        m4 = (m3 | (ra >> d & 1) << 3 | (rb >> d & 1) << 4
                              | (rc >> d & 1) << 5)
                        for e in range(d + 1, n):
                            m = (m4 | (ra >> e & 1) << 6 | (rb >> e & 1) << 7
                                 | (rc >> e & 1) << 8 | (rd >> e & 1) << 9)
                            name = get(m)
                            if name in missing:
                                found[name] = True
                                missing.discard(name)
                                if not missing:
                                    return found
        return found
    raise ValueError(f"unsupported subset size {k}")


def naive_pattern_presence(graph, names=None):
    """{pattern name: bool} by direct subset enumeration on `graph`."""
    names = list(PATTERNS) if names is None else list(names)
    rows = list(graph.adj)
    out = {}
    for k in (3, 4, 5):
        wanted = [nm for nm in names if _SIZES[nm] == k]
        if wanted:
            out.update(_subset_masks(rows, graph.n, k, _TABLES[k], wanted))
    return out


def naive_first_witness(graph, pattern):
    """The search's first copy of `pattern` in `graph`, by enumeration, or None.

    Every induced copy is an injective map from pattern vertices to graph
    vertices; its images read in search order (decreasing pattern degree,
    ties by pattern id) form a tuple.  The first copy is the one with the
    lexicographically least tuple.  Returns its images in pattern-vertex
    order.  `itertools.permutations` yields tuples in lexicographic order,
    so the first induced one is that minimum.
    """
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    k = pattern.size
    order = sorted(range(k), key=lambda v: (-pattern.adj_masks[v].bit_count(), v))
    edge = {frozenset(e) for e in pattern.edges}
    want = [[frozenset((order[a], order[b])) in edge for b in range(k)] for a in range(k)]
    rows = graph.adj
    for images in permutations(range(graph.n), k):
        if all((rows[images[a]] >> images[b] & 1) == want[a][b]
               for a in range(k) for b in range(a + 1, k)):
            placed = [0] * k
            for a, v in enumerate(order):
                placed[v] = images[a]
            return tuple(placed)
    return None


def reference_find_induced_pattern(g, pattern):
    """The induced-pattern backtracker as it was before the distance-two
    look-ahead: same order, same twin retention, no cut.  Kept to check that
    the cut leaves every witness unchanged."""
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    red = _as_reduction(g)
    if pattern.max_twins >= len(red.rank_masks):
        raise ValueError(f"{pattern.name} has {pattern.max_twins} mutual twins; "
                         f"twin reduction keeps {len(red.rank_masks) - 1}")
    s = red.graph
    if s.n < pattern.size:
        return None

    order = sorted(range(pattern.size), key=lambda v: (-pattern.degrees[v], v))
    full = red.rank_masks[pattern.max_twins]
    degs = [s.row(v).bit_count() for v in range(s.n)]
    assignment = [-1] * pattern.size  # pattern vertex -> search-graph vertex

    def backtrack(step: int, used: int) -> bool:
        if step == len(order):
            return True
        pv = order[step]
        cand = full & ~used
        for prev in order[:step]:
            gv = assignment[prev]
            if pattern.adj_masks[prev] >> pv & 1:
                cand &= s.adj[gv]
            else:
                cand &= ~s.adj[gv]
        need = pattern.degrees[pv]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if degs[v] < need:
                continue
            assignment[pv] = v
            if backtrack(step + 1, used | low):
                return True
            assignment[pv] = -1
        return False

    if not backtrack(0, 0):
        return None
    original = tuple(red.retained[assignment[i]] for i in range(pattern.size))
    witness = Witness(pattern.name, original,
                      tuple(red.original.label(v) for v in original))
    if not verify_witness(red.original, pattern, original):  # pragma: no cover
        raise RuntimeError(f"search produced an invalid {pattern.name} witness")
    return witness


# -- naive hole search -----------------------------------------------------------


def _is_induced_cycle(graph, subset):
    """True iff the subset induces a single chordless cycle."""
    deg = {v: sum(1 for u in subset if u != v and graph.has_edge(u, v))
           for v in subset}
    if any(d != 2 for d in deg.values()):
        return False
    # 2-regular and connected <=> a single cycle
    start = subset[0]
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in subset:
            if u not in seen and graph.has_edge(u, v):
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(subset)


def naive_hole_lengths(graph):
    """Sorted lengths of all holes (induced cycles of length >= 4)."""
    lengths = set()
    for k in range(4, graph.n + 1):
        for subset in combinations(range(graph.n), k):
            if _is_induced_cycle(graph, subset):
                lengths.add(k)
                break
    return sorted(lengths)


def naive_is_chordal(graph):
    """Chordality by deleting simplicial vertices (Dirac 1961): a graph is
    chordal iff it empties by repeatedly removing a vertex whose remaining
    neighbours are pairwise adjacent."""
    nbrs = {v: set(neighbors(graph, v)) for v in range(graph.n)}
    while nbrs:
        simplicial = next((v for v, ns in nbrs.items()
                           if all(b in nbrs[a] for a, b in combinations(ns, 2))), None)
        if simplicial is None:
            return False
        for u in nbrs.pop(simplicial):
            nbrs[u].discard(simplicial)
    return True


# -- group-theory oracles ----------------------------------------------------------

TABLE_CACHE_MAX = 2048


def cyclic_closure(group, i):
    """The cyclic subgroup generated by element i, as a set of indices."""
    out = {0}
    x = i
    while x != 0:
        out.add(x)
        x = group.compose(x, i)
    return out


def inverse(group, i):
    """i^(o(i)-1), i.e. the last power before the cycle returns to 0."""
    prev, x = i, group.compose(i, i)
    while x != 0:
        prev = x
        x = group.compose(x, i)
    return prev


def conjugate(group, g, i):
    """g * i * g^{-1}."""
    return group.compose(group.compose(g, i), inverse(group, g))


def p_element_set(group, p):
    """All elements whose order is a power of p (identity included)."""
    return {i for i in range(group.order)
            if _is_power_of(naive_element_order(group, i), p)}


def is_closed_subset(group, subset):
    """Whether the subset is closed under composition (early exit)."""
    s = set(subset)
    for a in s:
        for b in s:
            if group.compose(a, b) not in s:
                return False
    return True


@cache
def multiplication_table(group):
    """Dense |G| x |G| composition table (cached; only for |G| <= 2048)."""
    if group.order > TABLE_CACHE_MAX:
        raise CapExceededError(
            f"multiplication table limited to order {TABLE_CACHE_MAX}, "
            f"group has order {group.order}")
    return tuple(
        tuple(group.compose(i, j) for j in range(group.order))
        for i in range(group.order)
    )


def naive_element_order(group, v):
    """Order by repeated composition against a fresh accumulator."""
    order = 1
    x = v
    while x != 0:
        x = group.compose(x, v)
        order += 1
    return order


def naive_is_nilpotent(group):
    """Elements of coprime order commute in (exactly) the nilpotent groups."""
    from math import gcd

    orders = [naive_element_order(group, v) for v in range(group.order)]
    for u in range(group.order):
        for v in range(u + 1, group.order):
            if gcd(orders[u], orders[v]) == 1:
                if group.compose(u, v) != group.compose(v, u):
                    return False
    return True


def naive_normal_sylow(group, p):
    """The Sylow p-subgroup is normal iff the set of p-elements is closed
    under conjugation and multiplication (checked directly)."""
    pset = p_element_set(group, p)
    for g in range(group.order):
        for s in pset:
            if conjugate(group, g, s) not in pset:
                return False
    for a in pset:
        for b in pset:
            if group.compose(a, b) not in pset:
                return False
    return True


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# -- finite-field oracle -------------------------------------------------------------


def naive_field_product(spec, a, b):
    """Index of a * b in GF(p^k): base-p digits to coefficient lists, a
    schoolbook product, then the modulus subtracted at the top degree until
    the degree is below k."""
    p, k, modulus = spec.p, spec.k, spec.modulus

    def coefficients(idx):
        return [idx // p ** i % p for i in range(k)]

    prod = [0] * (2 * k)
    for i, x in enumerate(coefficients(a)):
        for j, y in enumerate(coefficients(b)):
            prod[i + j] += x * y
    for top in range(2 * k - 1, k - 1, -1):
        while prod[top] % p:
            for j, m in enumerate(modulus):
                prod[top - k + j] -= m
    return sum(prod[i] % p * p ** i for i in range(k))


# -- payload oracles -----------------------------------------------------------------
# The matrix and vector groups as the package built them before it stored
# elements flat: SL(2,q) and PSL(2,q) on nested 2x2 tuples, E{p}^{k} on
# coefficient tuples.  Same generators, same closure, so same numbering.


def _matrix_ops(q):
    """(matmul, neg_matrix, generators) over GF(q) indices, on nested tuples."""
    spec = construct_field(*is_prime_power(q))
    add, mul, neg, inv = index_tables(spec)

    def matmul(a, b):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return (
            (add[mul[a00][b00]][mul[a01][b10]], add[mul[a00][b01]][mul[a01][b11]]),
            (add[mul[a10][b00]][mul[a11][b10]], add[mul[a10][b01]][mul[a11][b11]]),
        )

    def neg_matrix(a):
        return ((neg[a[0][0]], neg[a[0][1]]), (neg[a[1][0]], neg[a[1][1]]))

    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    if q > 3:
        w = primitive_element(spec)
        gens.append(((w, 0), (0, inv[w])))
    return matmul, neg_matrix, gens


def _render_matrix(a):
    return f"[[{a[0][0]},{a[0][1]}],[{a[1][0]},{a[1][1]}]]"


def construct_sl2(q, cap=None):
    matmul, _negm, gens = _matrix_ops(q)
    return close_generators(gens, matmul, ((1, 0), (0, 1)), cap=cap,
                            render_payload=_render_matrix)


def construct_psl2(q, cap=None):
    """PSL(2,q): the smaller of M and -M, compared entry by entry."""
    matmul, negm, gens = _matrix_ops(q)

    def canon(m):
        return min(m, negm(m))

    return close_generators([canon(m) for m in gens],
                            lambda a, b: canon(matmul(a, b)), ((1, 0), (0, 1)),
                            cap=cap, render_payload=_render_matrix)


def elementary_abelian(p, k):
    """E{p}^{k} on coefficient tuples; element i has coefficient i // p^j % p
    in place j."""
    elements = [tuple(i // p ** j % p for j in range(k)) for i in range(p ** k)]
    return Group(elements, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
                 f"E{p}^{k}", lambda v: "(" + ",".join(map(str, v)) + ")")


# -- retired package API -----------------------------------------------------------


def neighbors(graph, v):
    """Ascending neighbour ids of v."""
    return [u for u in range(graph.n) if graph.adj[v] >> u & 1]


def induced(graph, vertices):
    """Induced subgraph; vertex k of the result is vertices[k]."""
    pos = {v: k for k, v in enumerate(vertices)}
    keep_mask = sum(1 << v for v in vertices)
    adj = [0] * len(vertices)
    for k, v in enumerate(vertices):
        mask = graph.adj[v] & keep_mask
        while mask:
            low = mask & -mask
            adj[k] |= 1 << pos[low.bit_length() - 1]
            mask ^= low
    return Graph(adj, lambda k: graph.label(vertices[k]))


def is_connected(graph):
    """Breadth-first search from vertex 0 over the bitmask rows."""
    if graph.n == 0:
        return True
    seen = frontier = 1
    while frontier:
        reached = 0
        for v in range(graph.n):
            if frontier >> v & 1:
                reached |= graph.adj[v]
        frontier = reached & ~seen
        seen |= frontier
    return seen == (1 << graph.n) - 1


def complement(graph):
    full = (1 << graph.n) - 1
    return Graph([full & ~graph.adj[v] & ~(1 << v) for v in range(graph.n)],
                 list(graph.labels))


def exponent(group):
    return math.lcm(*group.element_orders())


def element_order_profile(group):
    """Map order -> number of elements of that order, orders ascending."""
    return dict(sorted(Counter(group.element_orders()).items()))


def _as_reduction(g):
    return g if isinstance(g, TwinReducedGraph) else twin_reduce(g)


def is_free(g, patterns=None):
    """Map pattern name -> first witness (None = free), in catalog order."""
    red = _as_reduction(g)
    names = list(PATTERNS) if patterns is None else list(patterns)
    return {name: find_induced_pattern(red, name) for name in names}


def is_chain_graph(g):
    """Chain graphs are exactly the {C3, C5, 2K2}-free graphs."""
    red = _as_reduction(g)
    for name in ("C3", "C5", "2K2"):
        w = find_induced_pattern(red, name)
        if w is not None:
            return (False, w)
    return (True, None)


def is_chordal(g):
    """(True, None), or (False, first hole of length >= 4)."""
    red = _as_reduction(g)
    if _mcs_is_chordal(red.graph):
        return (True, None)
    w = find_hole(red)
    assert w is not None, "chordality check failed but no hole was found"
    return (False, w)


def chain_third_family(f):
    """The third chain-graph family of the statement on StructureFlags: EPO,
    order 3*2^s (s >= 2), normal Sylow-3, exponent-2 non-cyclic Sylow-2.
    `rhs_chain`'s docstring proves that no group is in it."""
    fact = dict(f.factorization)
    return (f.is_epo
            and set(f.primes) == {2, 3}
            and fact[3] == 1
            and fact[2] >= 2
            and f.normal_sylow[3]
            and f.sylow_exponent[2] == 2
            and not f.sylow_cyclic[2])
