"""Generic finite groups as closures of generator sets.

A Group stores its elements as an indexed tuple of opaque hashable payloads
(index 0 is always the identity) plus a composition function over indices.
Everything downstream — orders, cyclic subgroups, power graphs — works on the
integer indices, so the payload representation (permutation tuples, matrix
tuples, residue pairs) only matters inside `compose` and `render`.

`Group.cyclic_subgroups` walks the powers of one generator of each cyclic
subgroup once.  The power graph is built from its output, and the element
orders are read off the same walk, since o(u^k) = o(u) / gcd(k, o(u)).

Element order of a BFS closure is deterministic: identity first, then the
generators in the order given, then products in breadth-first discovery
order.  Two runs over the same generators always number elements identically.
"""

from __future__ import annotations

import math
import os
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
    if env:
        return int(env)
    return DEFAULT_GROUP_CAP


class Group:
    """A finite group over indexed payloads with composition by index."""

    def __init__(
        self,
        elements: Sequence[Payload],
        compose_payloads: Callable[[Payload, Payload], Payload],
        label: str,
        render_payload: Callable[[Payload], str] | None = None,
    ) -> None:
        self._elements: tuple[Payload, ...] = tuple(elements)
        self._index: dict[Payload, int] = {e: i for i, e in enumerate(self._elements)}
        if len(self._index) != len(self._elements):
            raise ValueError("duplicate payloads in element list")
        self._compose_payloads = compose_payloads
        self.label = label
        self._render = render_payload or repr
        self._orders: list[int] | None = None

    @property
    def order(self) -> int:
        return len(self._elements)

    def payload(self, i: int) -> Payload:
        return self._elements[i]

    def index_of(self, payload: Payload) -> int:
        return self._index[payload]

    def render(self, i: int) -> str:
        return self._render(self._elements[i])

    def compose(self, i: int, j: int) -> int:
        return self._index[self._compose_payloads(self._elements[i], self._elements[j])]

    def cyclic_subgroups(self) -> Iterator[tuple[list[int], list[int]]]:
        """Yield (generators, members) once for every cyclic subgroup <u>.

        Elements are taken in index order, skipping any that generates a
        subgroup already yielded.  For a new u, one walk u, u^2, ..., u^o = 0
        gives the members in power order; the generators are the u^k with
        gcd(k, o) = 1.  A complete walk fills the order cache on the way,
        since o(u^k) = o / gcd(k, o).  Cost: about the sum of |<u>| over the
        distinct subgroups, instead of the sum of o(u) over all elements.
        """
        n = self.order
        orders = [0] * n
        done = bytearray(n)
        for u in range(n):
            if done[u]:
                continue
            members = [u]
            x = u
            while x != 0:
                x = self.compose(x, u)
                members.append(x)
            o = len(members)
            generators = []
            for k, x in enumerate(members, 1):
                d = math.gcd(k, o)
                orders[x] = o // d
                if d == 1:
                    generators.append(x)
                    done[x] = 1
            yield generators, members
        self._orders = orders

    def _order_cache(self) -> list[int]:
        if self._orders is None:
            for _ in self.cyclic_subgroups():
                pass
        return self._orders

    def element_order(self, i: int) -> int:
        return self._order_cache()[i]

    def element_orders(self) -> list[int]:
        return list(self._order_cache())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Group({self.label}, order={self.order})"


def close_generators(
    generators: Sequence[Payload],
    compose_payloads: Callable[[Payload, Payload], Payload],
    identity: Payload | None = None,
    *,
    cap: int | None = None,
    label: str = "G",
    render_payload: Callable[[Payload], str] | None = None,
) -> Group:
    """BFS closure of a generator set into a Group.

    The identity may be supplied; otherwise it is derived by powering the
    first generator.  Element numbering: identity = 0, then the generators in
    the order given (skipping duplicates/identity), then products g * x in
    discovery order (right-multiplication by each generator in order).
    """
    effective_cap = resolve_cap(cap)
    gens = list(generators)
    if identity is None:
        if not gens:
            raise ValueError("cannot derive identity from an empty generator set")
        x = gens[0]
        seen = {x}
        nxt = compose_payloads(x, gens[0])
        while nxt not in seen:
            seen.add(nxt)
            x = nxt
            nxt = compose_payloads(x, gens[0])
            if len(seen) > effective_cap:
                raise CapExceededError(
                    f"generator order exceeds cap {effective_cap} while deriving identity")
        # The power sequence g, g^2, ... first repeats at g^(o+1) = g, at which
        # point x holds g^o = identity.
        identity = x

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
                if prod not in index:
                    if len(elements) >= effective_cap:
                        raise CapExceededError(
                            f"closure exceeds cap {effective_cap} (label {label!r})")
                    index[prod] = len(elements)
                    elements.append(prod)
                    new_frontier.append(index[prod])
        frontier = new_frontier

    return Group(elements, compose_payloads, label, render_payload)


# ---------------------------------------------------------------------------
# Permutation payload helpers.  A permutation of degree n is a tuple t of
# length n with t[i] = image of point i (0-based internally).
# ---------------------------------------------------------------------------

def identity_permutation(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_permutations(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a ∘ b): apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


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
