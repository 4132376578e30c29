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

A search also looks two steps ahead.  Say step k's pattern vertex is not
adjacent to step j's (j < k), but both are adjacent to a vertex placed after
step k.  That vertex's image is then a common neighbour of x_j and x_k among
the searched vertices, so x_k lies in N(N(x_j) & searched), and no other
candidate for step k can be completed.  Cutting those candidates drops only
subtrees that hold no copy, so the first witness is the same as without the
cut.  The steps that take the cut depend on the pattern alone (P2uP3bar step
1, C4 step 2, C5 step 3, P5bar step 2); each keeps one distance-two mask,
rebuilt when x_j changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush

from .power_graph import Graph, TwinReducedGraph, _bits, twin_reduce


@dataclass(frozen=True)
class Pattern:
    name: str
    size: int
    edges: tuple[tuple[int, int], ...]
    adj_masks: tuple[int, ...]
    degrees: tuple[int, ...]
    max_twins: int  # m(H): the largest closed-twin or open-twin class
    order: tuple[int, ...]  # search order: decreasing degree, then id
    # lookahead[k]: the earliest step j < k whose vertex is not adjacent to
    # step k's but shares a neighbour with it placed after step k, or None.
    lookahead: tuple[int | None, ...]


def _make_pattern(name: str, size: int, edges: tuple[tuple[int, int], ...]) -> Pattern:
    masks = [0] * size
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    degrees = tuple(m.bit_count() for m in masks)
    closed = Counter(m | 1 << v for v, m in enumerate(masks))
    opened = Counter(masks)
    max_twins = max(max(closed.values()), max(opened.values()))
    order = tuple(sorted(range(size), key=lambda v: (-degrees[v], v)))
    lookahead = []
    for k, pv in enumerate(order):
        later = sum(1 << w for w in order[k + 1:])
        lookahead.append(next((j for j, pj in enumerate(order[:k])
                               if not masks[pj] >> pv & 1
                               and masks[pj] & masks[pv] & later), None))
    return Pattern(name, size, edges, tuple(masks), degrees, max_twins, order,
                   tuple(lookahead))


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
    # perfbench/tracing.py patches this module's `twin_reduce`; keep calling it here.
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
    among the first m(H) members of each twin class, and among those of at
    least the pattern vertex's degree (`degree_at_least`).  At a step with a
    look-ahead step j, candidates must also lie within distance two of x_j
    through a searched vertex; the cut skips only candidates that no copy
    extends, so the first copy found is the one found without it.
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

    order = pattern.order
    full = red.rank_masks[pattern.max_twins]
    # fits[k]: the searched vertices with at least step k's pattern degree.
    fits = [full & red.degree_at_least(pattern.degrees[pv]) for pv in order]
    adj = s._rows  # a row is filled when its vertex is placed
    row = s.row
    assignment = [-1] * pattern.size  # pattern vertex -> search-graph vertex
    # reach[k]: (x_j, N(N(x_j) & full)) for step k's look-ahead step j.
    reach = [(-1, 0)] * pattern.size

    def backtrack(step: int, used: int) -> bool:
        if step == len(order):
            return True
        pv = order[step]
        cand = fits[step] & ~used
        for prev in order[:step]:
            gv = assignment[prev]
            if pattern.adj_masks[prev] >> pv & 1:
                cand &= adj[gv]
            else:
                cand &= ~adj[gv]
        j = pattern.lookahead[step]
        if j is not None and cand:
            xj = assignment[order[j]]
            if reach[step][0] != xj:
                two = 0
                for y in _bits(adj[xj] & full):
                    two |= adj[y] or row(y)  # y's row holds x_j, so it is not 0
                reach[step] = (xj, two)
            cand &= reach[step][1]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if adj[v] is None:
                row(v)
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


def _mcs_is_chordal(s: Graph) -> bool:
    """Whether `s` has no hole (maximum-cardinality search, then a perfect
    elimination order check).  Each step visits the heaviest unvisited
    vertex, smallest id first, popped from a heap of (-weight, id); an entry
    left behind by a weight increase is skipped, since the vertex's newer
    entry pops before it.  Twin reduction keeps every hole, so a reduction's
    search graph answers for the whole graph."""
    weights = [0] * s.n
    visit_pos = [-1] * s.n
    heap = [(0, v) for v in range(s.n)]  # sorted, hence a heap
    alpha: list[int] = []
    visited = 0
    while heap:
        best = heappop(heap)[1]
        if visit_pos[best] >= 0:
            continue
        visit_pos[best] = len(alpha)
        alpha.append(best)
        visited |= 1 << best
        for u in _bits(s.adj[best] & ~visited):
            weights[u] += 1
            heappush(heap, (-weights[u], u))
    visited = 0
    for v in alpha:
        earlier = s.adj[v] & visited
        visited |= 1 << v
        if earlier:
            # Most recently visited earlier neighbor must dominate the others.
            parent = max(_bits(earlier), key=visit_pos.__getitem__)
            if earlier & ~(1 << parent) & ~s.adj[parent]:
                return False
    return True


def find_hole(g: Graph | TwinReducedGraph, parity: str = "any",
              min_len: int = 4) -> Witness | None:
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
            found = _hole_dfs(s, start, v1, above, min_len, parity_ok)
            if found is not None:
                original = tuple(red.retained[v] for v in found)
                if not (len(original) >= min_len and parity_ok(len(original))
                        and _is_induced_cycle(red.original, original)):
                    raise RuntimeError(f"search produced an invalid hole {list(original)}")
                return Witness(f"C{len(original)}", original,
                               tuple(red.original.label(v) for v in original))
    return None


def _is_induced_cycle(graph: Graph, cycle: tuple[int, ...]) -> bool:
    """Whether `cycle`, in order, induces a cycle of its length in `graph`:
    its vertices are distinct, and each one's row, masked to the cycle, is
    exactly its two cycle neighbours."""
    k = len(cycle)
    on_cycle = sum(1 << v for v in set(cycle))
    return on_cycle.bit_count() == k >= 3 and all(
        graph.row(v) & on_cycle == 1 << cycle[i - 1] | 1 << cycle[(i + 1) % k]
        for i, v in enumerate(cycle))


def _hole_dfs(s: Graph, start: int, v1: int, above: int, min_len: int,
              parity_ok) -> list[int] | None:
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
        if length >= min_len and parity_ok(length):
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
