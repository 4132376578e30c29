"""Undirected graphs on group elements, stored as Python-int bitsets.

`build_power_graph` joins u ~ v whenever one lies in the cyclic subgroup
generated by the other.  It walks each cyclic subgroup C once
(`Group.cyclic_subgroups`) and joins every generator of C to every member of
C, so the cost follows the sum of |C| over the distinct cyclic subgroups
rather than the sum of the element orders.  The proper power graph P*(G)
drops the identity (vertex i of P*(G) is group element i+1); P(G) is P*(G)
plus the identity, adjacent to every other vertex (`with_identity`).

A graph renders vertex labels on demand (`Graph.label`): a power graph
holds its group's `render`, not a rendered label per element, so only the
vertices a report names, or an export, are ever rendered.

`twin_reduce` shrinks a graph by interchangeability classes (vertices with
identical closed neighborhoods — adjacent twins — or identical open
neighborhoods — non-adjacent twins), keeping the `RETAIN` smallest ids of
each class.  It finds the classes by sorting the vertices by row, once by
closed and once by open neighborhood, rather than by hashing rows: CPython
hashes an int modulo 2^61 - 1, so sparse rows such as `1 << v` share a few
dozen hash values and a row-keyed dict degrades to long collision chains.
An induced copy of a pattern H meets a class in at most m(H) vertices, the
size of H's own largest twin class, so a search for H needs only the first
m(H) members of each class; `TwinReducedGraph.rank_masks` marks them.
Witnesses translate straight back because representatives are original
vertex ids.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import pairwise

from .group_kernel import Group

# Members kept per twin class: the largest m(H) in the pattern catalog (C3).
RETAIN = 3


def _bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable-by-convention undirected graph; adj[v] is a bitmask.

    `labels` is either the list of vertex labels or a function that renders
    the label of vertex v on demand; by default vertex v is labelled str(v).
    """

    def __init__(self, adjacency: list[int],
                 labels: Sequence[str] | Callable[[int], str] = str) -> None:
        self.adj: list[int] = adjacency
        self.n: int = len(adjacency)
        if not callable(labels):
            if len(labels) != self.n:
                raise ValueError("label count does not match vertex count")
            labels = labels.__getitem__
        self.label: Callable[[int], str] = labels

    @property
    def labels(self) -> list[str]:
        """Every vertex label, rendered now."""
        return [self.label(v) for v in range(self.n)]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of (u, v) pairs with u < v."""
        return [(u, u + 1 + d) for u in range(self.n)
                for d in _bits(self.adj[u] >> u + 1)]

    def induced(self, vertices: list[int]) -> "Graph":
        """Induced subgraph; vertex k of the result is vertices[k]."""
        pos = {v: k for k, v in enumerate(vertices)}
        keep_mask = 0
        for v in vertices:
            keep_mask |= 1 << v
        adj = [0] * len(vertices)
        for k, v in enumerate(vertices):
            mask = self.adj[v] & keep_mask
            while mask:
                low = mask & -mask
                adj[k] |= 1 << pos[low.bit_length() - 1]
                mask ^= low
        return Graph(adj, lambda k: self.label(vertices[k]))


def build_power_graph(group: Group, proper: bool = False) -> Graph:
    """Undirected power graph of a group: u ~ v iff u in <v> or v in <u>.

    Vertices follow the group's element numbering; a vertex's label is its
    element, rendered when asked for.  With proper=True vertex 0 (the
    identity) is dropped and the remaining vertices shift down by one.
    """
    n = group.order
    adj = [0] * n
    # u ~ v iff one generates a cyclic subgroup that contains the other.
    for generators, members in group.cyclic_subgroups():
        member_bits = 0
        for x in members:
            member_bits |= 1 << x
        generator_bits = 0
        for g in generators:
            adj[g] |= member_bits
            generator_bits |= 1 << g
        for x in members:
            adj[x] |= generator_bits
    # v generates <v> and lies in it, so bit v is set in row v: drop it, and
    # drop bit 0, the identity, which every row holds.
    star = Graph([(adj[v] ^ 1 << v) >> 1 for v in range(1, n)],
                 lambda v: group.render(v + 1))
    return star if proper else with_identity(star, group.render(0))


def with_identity(star: Graph, label: str) -> Graph:
    """P(G) from P*(G): a new vertex 0, the identity, adjacent to every other
    vertex; vertex i of P*(G) becomes vertex i+1."""
    return Graph([(1 << star.n + 1) - 2] + [row << 1 | 1 for row in star.adj],
                 lambda v: star.label(v - 1) if v else label)


@dataclass
class TwinReducedGraph:
    """Result of twin reduction over interchangeability classes."""

    original: Graph
    classes: list[list[int]]        # sorted members, classes sorted by min member
    retained: list[int]             # representative original-vertex ids, sorted
    graph: Graph = field(repr=False)  # induced on retained, search-ready
    # rank_masks[m]: search-graph vertices among the first m members of their
    # class, for m = 0..RETAIN.
    rank_masks: list[int] = field(repr=False)


def twin_reduce(graph: Graph) -> TwinReducedGraph:
    """Group vertices with equal closed or equal open neighborhoods.

    Sorting the vertices by closed row (adj[v] | 1 << v) and, separately, by
    open row (adj[v]) puts each class of either relation in one run of equal
    rows, members ascending.  The two relations never chain, so these runs
    are the classes: a vertex with a closed twin has no open twin.  For if u
    and v are closed twins and v and w are open twins, then u is in
    N(v) = N(w), so w is in N[u] = N[v], and w, being distinct from v, is in
    N(v) = N(w), which no vertex is.  The `RETAIN` smallest ids of each
    class are retained, and the search graph is the subgraph they induce in
    the original (the original itself when every vertex is retained).
    Every catalog pattern and induced cycles of any length survive the
    reduction.
    """
    run_of: list[list[int] | None] = [None] * graph.n
    for rows in ([row | 1 << v for v, row in enumerate(graph.adj)], graph.adj):
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
    return TwinReducedGraph(
        original=graph,
        classes=classes,
        retained=retained,
        graph=graph if len(retained) == graph.n else graph.induced(retained),
        rank_masks=rank_masks,
    )


def export_graph(graph: Graph, fmt: str) -> str:
    """Serialize a graph: 'json' (n, edges, labels) or 'dot' (undirected)."""
    if fmt == "json":
        return json.dumps(
            {"n": graph.n,
             "edges": [[u, v] for u, v in graph.edges()],
             "labels": graph.labels},
            separators=(",", ":"))
    if fmt == "dot":
        lines = ["graph {"]
        for v in range(graph.n):
            lines.append(f'  {v} [label="{_dot_escape(graph.label(v))}"];')
        for u, v in graph.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')
