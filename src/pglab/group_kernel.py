"""Generic finite groups as closures of generator sets.

A Group stores its elements as an indexed tuple of opaque hashable payloads
(index 0 is always the identity) plus a composition function over indices.
Everything downstream — orders, cyclic subgroups, power graphs — works on the
integer indices, so the payload representation (permutation tuples, matrix
tuples, residue pairs) only matters inside `compose` and `render`.

`Group.cyclic_subgroups` walks the powers of one generator of each cyclic
subgroup once, one `compose` call per power.  The power graph is built from
its output, and the element orders are read off the same walk, each written
once, at a generator; so a written order marks an element already yielded.
The generator positions are found once per order o in each walk.  A complete
walk drops the payload index and packs the payloads into one flat array
(see `_pack`): `payload` and `render` read the array, and `compose` and
`index_of` rebuild the payload tuple and the index on first use.

Element order of a BFS closure is deterministic: identity first, then the
generators in the order given, then products in breadth-first discovery
order.  Two runs over the same generators always number elements identically.
"""

from __future__ import annotations

import math
import os
from array import array
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterator, Sequence

DEFAULT_GROUP_CAP = 10080

Payload = Hashable


class CapExceededError(ValueError):
    """Raised when a closure or constructor would exceed the group-order cap."""


def resolve_cap(cap: int | None = None) -> int:
    """Effective order cap: explicit argument, else PG_GROUP_CAP, else default."""
    if cap is not None:
        return cap
    env = os.environ.get("PG_GROUP_CAP")
    if not env:
        return DEFAULT_GROUP_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"PG_GROUP_CAP must be a positive integer, not {env!r}")
    return int(env)


class Group:
    """A finite group over indexed payloads with composition by index.

    `elements` lists the payloads in index order.  It may also be a dict from
    each payload to its index, in index order, as `close_generators` builds
    it; the group then keeps that dict as its index until a walk drops it.
    A complete walk also packs the payloads into `_flat` (see `_pack`) and
    drops their tuple; `_elements` is then rebuilt from `_flat` on first use.
    """

    def __init__(
        self,
        elements: Sequence[Payload],
        compose_payloads: Callable[[Payload, Payload], Payload],
        label: str,
        render_payload: Callable[[Payload], str] | None = None,
    ) -> None:
        self._elements: tuple[Payload, ...] = tuple(elements)
        if isinstance(elements, dict):
            self._index = elements  # built by close_generators
        if len(self._index) != len(self._elements):
            raise ValueError("duplicate payloads in element list")
        self.order = len(self._elements)
        self._compose_payloads = compose_payloads
        self.label = label
        self._render = render_payload or repr
        self._orders: array | None = None
        self._flat: bytes | array | None = None  # the packed payloads, after a walk
        self._width = 0  # entries per payload in `_flat`; 0 for int payloads

    @cached_property
    def _index(self) -> dict[Payload, int]:
        """payload -> index, cached in the instance: a plain dict for `compose`."""
        return {e: i for i, e in enumerate(self._elements)}

    @cached_property
    def _elements(self) -> tuple[Payload, ...]:
        """The payload tuple, rebuilt from `_flat` after a walk dropped it."""
        flat, w = self._flat, self._width
        return tuple(flat) if not w else tuple(zip(*[iter(flat)] * w))

    def payload(self, i: int) -> Payload:
        flat, w = self._flat, self._width
        if flat is None:
            return self._elements[i]
        return flat[i] if not w else tuple(flat[i * w:i * w + w])

    def index_of(self, payload: Payload) -> int:
        return self._index[payload]

    def render(self, i: int) -> str:
        return self._render(self.payload(i))

    def compose(self, i: int, j: int) -> int:
        return self._index[self._compose_payloads(self._elements[i], self._elements[j])]

    def cyclic_subgroups(self) -> Iterator[tuple[list[int], list[int]]]:
        """Yield (generators, members) once for every cyclic subgroup <u>.

        Elements are taken in index order, skipping any that generates a
        subgroup already yielded.  For a new u, one walk u, u^2, ..., u^o = 0
        gives the members in power order; the generators are the u^k with
        gcd(k, o) = 1, at positions k - 1 listed once per o.  Each element
        generates one yielded subgroup, so a complete walk fills the order
        cache with o at each generator, then drops the payload index and,
        where `_pack` can hold them, the payload tuple.  Cost: about the sum
        of |<u>| over the distinct subgroups, not of o(u) over all elements.
        """
        orders = array("i", bytes(4 * self.order))  # 0 until yielded
        compose = self.compose
        units: dict[int, list[int]] = {}  # o -> the k - 1 with gcd(k, o) = 1
        for u in range(self.order):
            if orders[u]:
                continue
            members = [u]
            x = u
            while x != 0:
                x = compose(x, u)
                members.append(x)
            o = len(members)
            if o not in units:
                units[o] = [k - 1 for k in range(1, o + 1) if math.gcd(k, o) == 1]
            generators = list(map(members.__getitem__, units[o]))
            for g in generators:
                orders[g] = o
            yield generators, members
        self._orders = orders
        # pop, not del: a second walk of the trivial group finds no index.
        self.__dict__.pop("_index", None)
        if self._flat is None:
            self._flat, self._width = _pack(self._elements)
        if self._flat is not None:
            self.__dict__.pop("_elements", None)

    def element_orders(self) -> list[int]:
        if self._orders is None:
            for _ in self.cyclic_subgroups():
                pass
        return list(self._orders)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Group({self.label}, order={self.order})"


def _pack(payloads: tuple[Payload, ...]) -> tuple[bytes | array | None, int]:
    """(flat, width) holding `payloads`, or (None, 0) where it cannot.

    Int payloads go into `flat` one entry each (width 0); tuples of one length
    w >= 1 go in entry by entry (width w).  `flat` is bytes where every entry
    lies in range(256), else an array of C long longs.  A payload list of any
    other kind, or with an entry that is no integer (a nested tuple) or lies
    past 64 bits, gets None and keeps its tuple.  Entries are read by
    `__index__`, as `bytes` and `array` read them: a bool entry comes back
    as an int.
    """
    kinds = set(map(type, payloads))
    if kinds == {int}:
        width, entries = 0, payloads
    elif kinds == {tuple} and len(set(map(len, payloads))) == 1 and payloads[0]:
        width, entries = len(payloads[0]), list(chain.from_iterable(payloads))
    else:
        return None, 0
    try:
        try:
            return bytes(entries), width
        except ValueError:  # an entry outside range(256)
            return array("q", entries), width
    except (TypeError, OverflowError):  # an entry that is no integer, or past 64 bits
        return None, 0


def close_generators(
    generators: Sequence[Payload],
    compose_payloads: Callable[[Payload, Payload], Payload],
    identity: Payload,
    *,
    cap: int | None = None,
    label: str = "G",
    render_payload: Callable[[Payload], str] | None = None,
) -> Group:
    """BFS closure of a generator set into a Group.

    Element numbering: identity = 0, then the generators in the order given
    (skipping duplicates/identity), then products g * x in discovery order
    (right-multiplication by each generator in order).
    """
    effective_cap = resolve_cap(cap)
    gens = list(generators)
    elements: list[Payload] = [identity]
    index: dict[Payload, int] = {identity: 0}
    for g in gens:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)

    frontier = list(range(1, len(elements)))
    while frontier:
        new_frontier: list[int] = []
        for i in frontier:
            for g in gens:
                prod = compose_payloads(elements[i], g)
                k = len(elements)
                if index.setdefault(prod, k) == k:  # a new element
                    if k >= effective_cap:
                        raise CapExceededError(
                            f"closure exceeds cap {effective_cap} (label {label!r})")
                    elements.append(prod)
                    new_frontier.append(k)
        frontier = new_frontier

    return Group(index, compose_payloads, label, render_payload)


# ---------------------------------------------------------------------------
# Permutation payload helpers.  A permutation of degree n is a tuple t of
# length n with t[i] = image of point i (0-based internally).
# ---------------------------------------------------------------------------

def identity_permutation(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_permutations(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a ∘ b): apply b first, then a."""
    return tuple(map(a.__getitem__, b))


def permutation_from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Build a permutation from 1-based disjoint cycles."""
    img = list(range(degree))
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if not 0 <= a < degree:
                raise ValueError(f"cycle point {a + 1} out of range for degree {degree}")
            img[a] = b
    return tuple(img)


def render_permutation(perm: tuple[int, ...]) -> str:
    """Cycle notation with 1-based points; identity renders as '()'."""
    seen = [False] * len(perm)
    parts: list[str] = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"
