"""Induced-subgraph pattern detection on small graphs.

The catalog covers the patterns the classification checks need: paths (P4,
P5), their complements, small cycles, the two-edge matching 2K2, the diamond
and co-diamond, and the path unions P2+P3 / complement.  All searches are for
*induced* copies, run on the twin-reduced search graph (which preserves every
catalog pattern and all holes), and return witnesses as original vertex ids
plus labels.  Search order is deterministic, so witnesses are reproducible.

A search for H looks only at the first m(H) members of each twin class,
where m(H) is the size of H's largest closed-twin or open-twin class.  The
first witness in search order never needs more: the members of one host class
that a copy uses are twins inside H, and swapping a used member for a
smaller unused one yields a copy that the search meets earlier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .power_graph import Graph, TwinReducedGraph, twin_reduce


@dataclass(frozen=True)
class Pattern:
    name: str
    size: int
    edges: tuple[tuple[int, int], ...]
    adj_masks: tuple[int, ...]
    degrees: tuple[int, ...]
    max_twins: int  # m(H): the largest closed-twin or open-twin class


def _make_pattern(name: str, size: int, edges: tuple[tuple[int, int], ...]) -> Pattern:
    masks = [0] * size
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    degrees = tuple(m.bit_count() for m in masks)
    closed = Counter(m | 1 << v for v, m in enumerate(masks))
    opened = Counter(masks)
    max_twins = max(max(closed.values()), max(opened.values()))
    return Pattern(name, size, edges, tuple(masks), degrees, max_twins)


PATTERNS: dict[str, Pattern] = {
    p.name: p for p in (
        _make_pattern("P4", 4, ((0, 1), (1, 2), (2, 3))),
        _make_pattern("P5", 5, ((0, 1), (1, 2), (2, 3), (3, 4))),
        _make_pattern("P5bar", 5, ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4))),
        _make_pattern("C3", 3, ((0, 1), (1, 2), (0, 2))),
        _make_pattern("C4", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
        _make_pattern("C5", 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
        _make_pattern("2K2", 4, ((0, 1), (2, 3))),
        _make_pattern("diamond", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
        _make_pattern("co-diamond", 4, ((2, 3),)),
        _make_pattern("P2uP3", 5, ((0, 1), (2, 3), (3, 4))),
        _make_pattern("P2uP3bar", 5,
                      ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4))),
    )
}


@dataclass(frozen=True)
class Witness:
    """An induced copy: original-graph vertex ids in pattern-vertex order."""

    pattern: str
    vertices: tuple[int, ...]
    labels: tuple[str, ...]


def _as_reduction(g: Graph | TwinReducedGraph) -> TwinReducedGraph:
    return g if isinstance(g, TwinReducedGraph) else twin_reduce(g)


def verify_witness(graph: Graph, pattern: Pattern | str, vertices: tuple[int, ...]) -> bool:
    """Check that `vertices` induce exactly `pattern` in `graph`."""
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    if len(vertices) != pattern.size or len(set(vertices)) != pattern.size:
        return False
    for i in range(pattern.size):
        for j in range(i + 1, pattern.size):
            want = bool(pattern.adj_masks[i] >> j & 1)
            if graph.has_edge(vertices[i], vertices[j]) != want:
                return False
    return True


def find_induced_pattern(g: Graph | TwinReducedGraph,
                         pattern: Pattern | str) -> Witness | None:
    """First induced copy of `pattern`, or None.

    Deterministic backtracking on the twin-reduced graph: pattern vertices are
    tried in decreasing-degree order, graph candidates in ascending id order,
    among the first m(H) members of each twin class.
    """
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
    degs = [s.degree(v) for v in range(s.n)]
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
                      tuple(red.original.labels[v] for v in original))
    if not verify_witness(red.original, pattern, original):  # pragma: no cover
        raise RuntimeError(f"search produced an invalid {pattern.name} witness")
    return witness


def is_cograph(g: Graph | TwinReducedGraph) -> tuple[bool, Witness | None]:
    w = find_induced_pattern(g, "P4")
    return (w is None, w)


def _mcs_is_chordal(s: Graph) -> bool:
    """Whether `s` has no hole (maximum-cardinality search, then a perfect
    elimination order check).  Twin reduction keeps every hole, so a
    reduction's search graph answers for the whole graph."""
    n = s.n
    if n == 0:
        return True
    weights = [0] * n
    visited = 0
    visit_pos = [-1] * n
    snapshot = [0] * n  # visited-mask at the time each vertex is visited
    alpha: list[int] = []
    for step in range(n):
        best = -1
        best_w = -1
        for v in range(n):
            if not (visited >> v & 1) and weights[v] > best_w:
                best, best_w = v, weights[v]
        snapshot[best] = visited
        visit_pos[best] = step
        visited |= 1 << best
        alpha.append(best)
        mask = s.adj[best] & ~visited
        while mask:
            low = mask & -mask
            weights[low.bit_length() - 1] += 1
            mask ^= low
    for v in alpha:
        earlier = s.adj[v] & snapshot[v]
        if earlier == 0:
            continue
        # Most recently visited earlier neighbor must dominate the others.
        parent = max((visit_pos[u], u) for u in _bits(earlier))[1]
        rest = earlier & ~(1 << parent)
        if rest & ~s.adj[parent]:
            return False
    return True


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def find_hole(g: Graph | TwinReducedGraph, parity: str = "any",
              min_len: int = 4, max_len: int | None = None) -> Witness | None:
    """First induced cycle with length >= min_len matching the parity filter.

    parity: 'any', 'even', or 'odd'.  The witness pattern name is C<length>
    and its vertices are in cycle order.  Deterministic: the cycle found has
    the smallest possible minimum vertex, then follows ascending-id DFS.
    """
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be any/even/odd, got {parity!r}")
    if min_len < 3:
        raise ValueError(f"cycle length is at least 3, got min_len={min_len}")
    red = _as_reduction(g)
    s = red.graph
    cap = s.n if max_len is None else min(max_len, s.n)
    # A triangle may lie in one closed twin class; a longer induced cycle meets
    # a closed class at most once and an open one at most twice.
    allowed = red.rank_masks[3 if min_len == 3 else 2]

    def parity_ok(length: int) -> bool:
        if parity == "even":
            return length % 2 == 0
        if parity == "odd":
            return length % 2 == 1
        return True

    # Search for cycles whose minimum vertex is start; path = [start, v1, ..., vk],
    # each vi > start, consecutive adjacent, non-consecutive non-adjacent.
    for start in _bits(allowed):
        above = ~((1 << (start + 1)) - 1) & allowed
        first_cands = s.adj[start] & above
        for v1 in _bits(first_cands):
            found = _hole_dfs(s, start, v1, above, cap, min_len, parity_ok)
            if found is not None:
                original = tuple(red.retained[v] for v in found)
                return Witness(f"C{len(found)}", original,
                               tuple(red.original.labels[v] for v in original))
    return None


def _hole_dfs(s: Graph, start: int, v1: int, above: int, cap: int,
              min_len: int, parity_ok) -> list[int] | None:
    """Depth-first over induced paths start, v1, ...: at each path, first the
    smallest closing vertex w > v1, then the extensions in ascending order.
    Iterative, so the path length is not bounded by the recursion limit."""
    adj = s.adj
    past_v1 = above & ~((1 << (v1 + 1)) - 1)
    path = [start, v1]
    path_mask = (1 << start) | (1 << v1)
    blocked = [0]  # blocked[i]: union of neighborhoods of path[1:i + 1]
    pending: list[int] = []  # pending[i]: untried extensions of path[:i + 2]
    while True:
        vk, length, block = path[-1], len(path) + 1, blocked[-1]
        if min_len <= length <= cap and parity_ok(length):
            close = adj[vk] & adj[start] & past_v1 & ~block & ~path_mask
            if close:
                return path + [(close & -close).bit_length() - 1]
        pending.append(adj[vk] & above & ~adj[start] & ~block & ~path_mask
                       if length < cap else 0)
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
