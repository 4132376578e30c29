"""Undirected graphs on group elements, stored as Python-int bitsets.

A `Graph` is kept as a clique quotient (see `Graph`); one given by vertex
rows alone is stored as singleton blocks.  Its blocks are stored flat, as a
`Partition`: `members` holds every vertex, block by block, each block
ascending, and block b is `members[start[b]:start[b + 1]]`, so a graph holds
no Python int per vertex until a row is read.  A vertex row is filled from
the quotient when first read, by `Graph.row(v)`, which fills v's whole block;
the row list itself is made on that first read, and `Graph.adj` fills every
row through `row`.  So a graph that is only reduced and searched holds just
the rows its searches read; `has_edge` and `label` answer without rows.

`build_power_graph` joins u ~ v whenever one lies in the cyclic subgroup
generated by the other, that is, whenever <u> and <v> are comparable under
inclusion.  So P*(G) is the comparability graph of the nontrivial cyclic
subgroups, each subgroup C blown up into a clique of its phi(|C|)
generators: one block per subgroup.  It walks each cyclic subgroup once
(`Group.cyclic_subgroups`), and C's quotient row holds the subgroups <u^d>
for the proper divisors d of |C|, listed once per order, plus the transpose;
the element -> block map the walk fills is the graph's `block_of`.  P*(G)
drops the identity (its vertex i is group element i+1); P(G) adds it back,
a block adjacent to every other (`with_identity`).  Labels are rendered on
demand (`Graph.label`), only for the vertices a report names, or an export.

`twin_reduce` shrinks a graph by closed-twin classes (vertices with
identical closed neighborhoods), keeping the `RETAIN` smallest ids of each
class.  It works on the quotient.  Two vertices of different blocks are
closed twins exactly when their blocks are, so a class is the union of the
blocks of one run of equal closed rows in the quotient.  Runs are found by
sorting the quotient vertices by closed row rather than by hashing rows:
CPython hashes an int modulo 2^61 - 1, so sparse rows such as `1 << v` share
a few dozen hash values and a row-keyed dict degrades to long collision
chains.  The sort leaves out the blocks with no neighbour; `twin_reduce`
says why.  An induced copy of a pattern H meets a class in at most m(H)
vertices, the size of H's own largest closed-twin class, so a search for H
needs only the first m(H) members of each class (see `patterns`);
`TwinReducedGraph.rank_masks` marks them.  The search graph shares the
graph's quotient, each block cut to its retained members, so the reduction
builds no rows; its cut, classes, retained ids and degrees are flat arrays,
and a degree is summed per block from `RETAIN` masks (see `twin_reduce`).
Witnesses translate straight back because representatives are original
vertex ids.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, groupby, pairwise, repeat

from .group_kernel import Group

# Members kept per twin class: the largest m(H) in the pattern catalog (C3).
RETAIN = 3


def _bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: list[bool] | bytes) -> int:
    """The bitmask with bit i set for each true flags[i] (bytes of 0 or 1)."""
    return int(bytes(flags)[::-1].translate(_DIGITS) or b"0", 2)


class Partition:
    """Disjoint sets of ints stored flat in two `array('i')`: set i is
    `members[start[i]:start[i + 1]]`, so no Python list or int is kept per
    set or per member."""

    def __init__(self, parts: Iterable[Iterable[int]] = ()) -> None:
        self.members = array("i")
        self.start = array("i", [0])
        for part in parts:
            self.members.extend(part)
            self.start.append(len(self.members))

    def __len__(self) -> int:
        return len(self.start) - 1

    def __getitem__(self, i: int) -> array:
        return self.members[self.start[i]:self.start[i + 1]]

    def __iter__(self) -> Iterator[array]:
        return (self.members[lo:hi] for lo, hi in pairwise(self.start))


class Graph:
    """Immutable-by-convention undirected graph, stored as a clique quotient.

    The blocks partition the vertices into cliques whose members share one
    closed neighbourhood; a search graph's may be empty (see `twin_reduce`),
    and the others ascend by least member.  They are kept flat: `members`
    holds every vertex, block by block, each block ascending; block b is
    `block(b)`, that is `members[start[b]:start[b + 1]]`; and `block_of[v]`
    is v's block.  `adjacency[b]` is the bitmask of the blocks joined to
    block b, every member to every member.  `blocks` is a `Partition` or a
    list of blocks; without it every vertex is a block of its own (singleton
    blocks), so `adjacency[v]` is the bitmask of v's neighbours.  `block_of`
    is derived, unless a builder here hands over the map it holds as
    `_block_of`.  Rows are filled only by `row`, when first read.  `labels`
    is either the list of vertex labels or a function that renders the label
    of vertex v on demand; by default vertex v is labelled str(v).
    """

    def __init__(self, adjacency: list[int],
                 labels: Sequence[str] | Callable[[int], str] = str,
                 blocks: Partition | Iterable[Iterable[int]] | None = None,
                 *, _block_of: array | None = None) -> None:
        if blocks is None:
            blocks = ((v,) for v in range(len(adjacency)))
        if not isinstance(blocks, Partition):
            blocks = Partition(blocks)
        self.quotient: list[int] = adjacency
        self.members: array = blocks.members
        self.start: array = blocks.start
        self.n: int = len(self.members)
        if _block_of is None:
            _block_of = array("i", bytes(4 * self.n))
            for b, (lo, hi) in enumerate(pairwise(self.start)):
                for v in self.members[lo:hi]:
                    _block_of[v] = b
        elif len(_block_of) != self.n:
            raise ValueError("block map length does not match vertex count")
        self.block_of: array = _block_of
        if not callable(labels):
            if len(labels) != self.n:
                raise ValueError("label count does not match vertex count")
            labels = labels.__getitem__
        self.label: Callable[[int], str] = labels

    @cached_property
    def _rows(self) -> list[int | None]:
        """_rows[v]: v's row, or None until read; made at the first read."""
        return [None] * self.n

    def block(self, b: int) -> array:
        """Block b's members, ascending."""
        return self.members[self.start[b]:self.start[b + 1]]

    def row(self, v: int) -> int:
        """The bitmask of v's neighbours.  A row not read before is filled
        from the quotient, with the rows of v's block-mates."""
        row = self._rows[v]
        if row is None:
            members, start = self.members, self.start
            b = self.block_of[v]
            closed = 0
            # The slices are `block(d)` inlined: a call per block costs a
            # fifth more on the rows of PSL(2,27)* and A7*.
            for d in (b, *_bits(self.quotient[b])):
                for u in members[start[d]:start[d + 1]]:
                    closed |= 1 << u
            for u in self.block(b):
                self._rows[u] = closed ^ 1 << u
            row = self._rows[v]
        return row

    @cached_property
    def adj(self) -> list[int]:
        """adj[v]: the bitmask of v's neighbours, every row filled by `row`."""
        for lo, hi in pairwise(self.start):
            if lo < hi:
                self.row(self.members[lo])
        return self._rows

    @property
    def labels(self) -> list[str]:
        """Every vertex label, rendered now."""
        return [self.label(v) for v in range(self.n)]

    def has_edge(self, u: int, v: int) -> bool:
        bu, bv = self.block_of[u], self.block_of[v]
        return u != v and (bu == bv or bool(self.quotient[bu] >> bv & 1))

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of (u, v) pairs with u < v."""
        return [(u, u + 1 + d) for u in range(self.n)
                for d in _bits(self.adj[u] >> u + 1)]


def build_power_graph(group: Group, proper: bool = False) -> Graph:
    """Undirected power graph of a group: u ~ v iff u in <v> or v in <u>.

    Vertices follow the group's element numbering, one block per nontrivial
    cyclic subgroup, holding its generators; a vertex's label is its element,
    rendered when asked for.  With proper=True vertex 0 (the identity) is
    dropped and the remaining vertices shift down by one.
    """
    sub_of = array("i", bytes(4 * group.order))  # element -> block of <element>
    blocks = Partition()
    add, end = blocks.members.extend, blocks.start.append
    # below_x[i] generates a proper subgroup of block below_c[i]'s subgroup.
    below_c, below_x = array("i"), array("i")
    # o -> the d - 1 for the divisors 1 < d < o: members[d - 1] = u^d
    # generates the subgroup of <u> of order o / d.
    divisors: dict[int, list[int]] = {}
    c = 0
    for generators, members in group.cyclic_subgroups():
        o = len(members)
        if o == 1:
            continue  # the trivial subgroup, which holds only the identity
        for g in generators:
            sub_of[g] = c
        add(sorted([g - 1 for g in generators]))
        end(len(blocks.members))
        if o not in divisors:
            divisors[o] = [d - 1 for d in range(2, o) if o % d == 0]
        if powers := divisors[o]:  # o is not prime
            below_x.extend(map(members.__getitem__, powers))
            below_c.extend([c] * len(powers))
        c += 1
    quotient = [0] * c
    for c, x in zip(below_c, below_x):
        d = sub_of[x]
        quotient[c] |= 1 << d
        quotient[d] |= 1 << c
    star = Graph(quotient, lambda v: group.render(v + 1), blocks, _block_of=sub_of[1:])
    return star if proper else with_identity(star, group.render(0))


def with_identity(star: Graph, label: str) -> Graph:
    """P(G) from P*(G): a new vertex 0, the identity, a block of its own
    adjacent to every other vertex; vertex i of P*(G) becomes vertex i+1."""
    blocks = Partition([[0]])
    blocks.members.extend(v + 1 for v in star.members)
    blocks.start.extend(s + 1 for s in star.start[1:])
    return Graph([(1 << len(star.quotient) + 1) - 2] + [row << 1 | 1 for row in star.quotient],
                 lambda v: star.label(v - 1) if v else label, blocks,
                 _block_of=array("i", [0, *(b + 1 for b in star.block_of)]))


@dataclass
class TwinReducedGraph:
    """Result of twin reduction over closed-twin classes."""

    original: Graph
    classes: Partition              # sorted members, classes sorted by min member
    retained: array                 # representative original-vertex ids, sorted
    graph: Graph = field(repr=False)  # induced on retained, search-ready
    # rank_masks[m]: search-graph vertices among the first m members of their
    # class, for m = 0..RETAIN.
    rank_masks: list[int] = field(repr=False)
    degrees: array = field(repr=False)  # degrees[i]: search-graph vertex i's degree
    _degree_masks: dict[int, int] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def degree_at_least(self, k: int) -> int:
        """The search-graph vertices of degree at least k, as a mask; each
        mask is computed once per reduction."""
        if k not in self._degree_masks:
            self._degree_masks[k] = _mask([d >= k for d in self.degrees])
        return self._degree_masks[k]


def twin_reduce(graph: Graph) -> TwinReducedGraph:
    """Group vertices with equal closed neighborhoods.

    Sorting the quotient vertices with a neighbour by closed row
    (quotient[b] | 1 << b) puts the blocks of each class in one run of
    equal rows, ascending (see the module docstring).  An isolated block is
    left out of the sort, since it has no closed twin: distinct blocks with
    equal closed rows each lie in the other's closed row, so they are
    adjacent.  Its closed key would be the one high bit 1 << b, about b/8
    bytes, so on an edgeless quotient the keys alone would take memory
    quadratic in the block count: about 20 MB on P*(E2^14), with its 16,383
    isolated blocks.  A block in no run, isolated or not, is a class of its
    own.  Empty blocks hold no vertex, so they are left out of the runs and
    the rows.  The `RETAIN` smallest ids of each class are retained.  The
    search graph is the subgraph they induce, given by the same quotient
    with each block cut to its retained members, renumbered by rank in
    `retained`: a block with none is empty, and rows are filled only when
    read.  When every vertex is retained, the search graph is the graph
    itself.  Every catalog pattern and every hole survive the reduction
    (see `patterns`).
    """
    rows = graph.quotient
    size = [hi - lo for lo, hi in pairwise(graph.start)]  # size[b]: block b's members
    live = [b for b, k in enumerate(size) if k]
    if len(live) < len(rows):
        full = _mask([k > 0 for k in size])
        rows = [row & full for row in rows]
    run_of: list[list[int] | None] = [None] * len(rows)
    closed = {b: rows[b] | 1 << b for b in live if rows[b]}  # linked blocks only
    for _, run in groupby(sorted(closed, key=closed.get), closed.get):
        run = list(run)
        for b in run:
            run_of[b] = run
    # Blocks ascend by least member, so classes taken in the order of their
    # least block ascend by least member too.
    members, start = graph.members, graph.start
    classes = Partition()
    add, end = classes.members.extend, classes.start.append
    # rank[v]: v's rank in its class, or RETAIN past the first RETAIN members.
    rank = bytearray([RETAIN]) * graph.n
    for b in live:
        run = run_of[b]
        if run is None or len(run) == 1:
            part = members[start[b]:start[b + 1]]
        elif run[0] == b:
            part = sorted(v for c in run for v in graph.block(c))
        else:
            continue
        add(part)
        end(len(classes.members))
        for i, v in enumerate(part[:RETAIN]):
            rank[v] = i
    below = [b"\1" * m + bytes(256 - m) for m in range(RETAIN + 1)]  # byte r -> r < m
    kept_flags = rank.translate(below[RETAIN])
    retained = array("i", compress(range(graph.n), kept_flags))
    ranks = bytes(compress(rank, kept_flags))  # ranks[i]: retained[i]'s rank
    rank_masks = [_mask(ranks.translate(t)) for t in below]
    if len(retained) == graph.n:
        search, kept = graph, bytearray(size)  # no block exceeds RETAIN
    else:
        # The search graph's blocks: block b cut to its retained members,
        # renumbered by rank in `retained` (a stable sort by block).
        block = array("i", map(graph.block_of.__getitem__, retained))
        kept = bytearray(len(rows))  # kept[b]: block b's retained members
        for b in block:
            kept[b] += 1
        cut = Partition()
        cut.members.extend(sorted(range(len(block)), key=block.__getitem__))
        cut.start.extend(accumulate(kept))
        search = Graph(graph.quotient, lambda k: graph.label(retained[k]), cut,
                       _block_of=block)
    # A search vertex's degree: the search vertices in its block's closed
    # neighbourhood, less itself.  Summed over a row, kept[d] is the sum over
    # j of the row's blocks keeping >= j; a block lies in one class, so j <= RETAIN.
    degree = [k - 1 for k in kept]  # an empty block's entry is never read
    for j in range(1, max(kept, default=0) + 1):
        at_least = _mask(kept.translate(bytes(j) + b"\1" * (256 - j)))  # k -> k >= j
        counts = map(int.bit_count, map(operator.and_, graph.quotient, repeat(at_least)))
        degree = list(map(operator.add, degree, counts))
    return TwinReducedGraph(
        original=graph,
        classes=classes,
        retained=retained,
        graph=search,
        rank_masks=rank_masks,
        degrees=array("i", map(degree.__getitem__, search.block_of)),
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
