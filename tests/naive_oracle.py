"""Deliberately naive reference implementations used only by the tests.

Nothing here shares algorithms with the package: adjacency comes from
explicit power enumeration (for `reference_power_graph`, one walk over
every element's powers), pattern detection from direct k-subset
enumeration against permutation-closed edge-mask tables, and hole/chordality
checks from subset enumeration.  Slow on purpose; kept honest on purpose.

The last section is different: it keeps, as free functions, graph and group
helpers that the package no longer calls, for the tests written against
them.  Those wrap the package's own searches.
"""

import math
from collections import Counter
from functools import cache
from itertools import combinations, permutations

from pglab import (PATTERNS, Graph, TwinReducedGraph, find_hole, find_induced_pattern,
                   twin_reduce)
from pglab.group_kernel import CapExceededError
from pglab.patterns import _mcs_is_chordal

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


def naive_hole_lengths(graph, min_len=4):
    """Sorted lengths of all induced cycles with length >= min_len."""
    lengths = set()
    for k in range(min_len, graph.n + 1):
        for subset in combinations(range(graph.n), k):
            if _is_induced_cycle(graph, subset):
                lengths.add(k)
                break
    return sorted(lengths)


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


# -- retired package API -----------------------------------------------------------


def neighbors(graph, v):
    """Ascending neighbour ids of v."""
    return [u for u in range(graph.n) if graph.adj[v] >> u & 1]


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
