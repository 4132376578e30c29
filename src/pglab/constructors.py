"""Constructors for the group families and a small spec-string language.

A spec string (case-sensitive, whitespace ignored) is an atom, or atoms joined
by `x` for a right-associative direct product.  Each atom is the spec text of
one row of `FAMILIES`, e.g. `PSL(2,{})` or `E{}^{}`, with a non-negative
integer in place of each `{}`; the row's constructor checks the parameters.

Element payloads: permutation tuples for S/A/D, residues for C, residue pairs
for Q/SD, one int for a vector of E with a bit slot per coordinate, flat
4-tuples (a, b, c, d) of field-element indices for the SL/PSL matrix
[[a,b],[c,d]], and index pairs for products.  Rendering follows the element:
cycle notation, plain integers, "(x,y,...)" vectors, "[[a,b],[c,d]]", or
"(l,r)" pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, gcd

from .classifiers import is_prime, is_prime_power
from .finite_field import construct_field, index_tables, primitive_element
from .group_kernel import (
    CapExceededError,
    Group,
    close_generators,
    compose_permutations,
    identity_permutation,
    permutation_from_cycles,
    render_permutation,
    resolve_cap,
)


@dataclass(frozen=True)
class AtomSpec:
    family: str
    params: tuple[int, ...]


@dataclass(frozen=True)
class ProductSpec:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = AtomSpec | ProductSpec


class GroupSpecError(ValueError):
    """Malformed group spec string; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string into an AtomSpec / ProductSpec tree."""
    stripped = "".join(text.split())
    if not stripped:
        raise GroupSpecError("empty group spec", 0)
    spec, pos = _parse_product(stripped, 0)
    if pos != len(stripped):
        raise GroupSpecError(f"trailing characters {stripped[pos:]!r}", pos)
    return spec


def _parse_product(s: str, pos: int) -> tuple[GroupSpec, int]:
    left, pos = _parse_atom(s, pos)
    if pos < len(s) and s[pos] == "x":
        right, pos = _parse_product(s, pos + 1)
        return ProductSpec(left, right), pos
    return left, pos


_DIGITS = re.compile(r"\d+")


def _parse_atom(s: str, pos: int) -> tuple[GroupSpec, int]:
    """Match the first FAMILIES row whose text before its first `{}` starts s[pos:]."""
    for family, (text, _build) in FAMILIES.items():
        head, *pieces = text.split("{}")
        if not s.startswith(head, pos):
            continue
        p = pos + len(head)
        params = []
        for piece in pieces:
            digits = _DIGITS.match(s, p)
            if digits is None:
                raise GroupSpecError("expected an integer", p)
            params.append(int(digits.group()))
            p = digits.end()
            if not s.startswith(piece, p):
                raise GroupSpecError(f"expected {piece!r}", p)
            p += len(piece)
        return AtomSpec(family, tuple(params)), p
    if pos == len(s):  # only after an 'x': an empty spec never gets here
        raise GroupSpecError("expected a group after 'x'", pos)
    raise GroupSpecError(f"unrecognized group family {s[pos]!r}", pos)


def spec_label(spec: GroupSpec) -> str:
    """Canonical label; parse_group_spec(spec_label(s)) round-trips."""
    if isinstance(spec, ProductSpec):
        return f"{spec_label(spec.left)}x{spec_label(spec.right)}"
    text, _build = FAMILIES[spec.family]
    return text.format(*spec.params)


# ---------------------------------------------------------------------------
# Atom constructors.
# ---------------------------------------------------------------------------

def cyclic(n: int, cap: int | None = None) -> Group:
    if n < 1:
        raise ValueError(f"cyclic group needs order >= 1, got {n}")
    label = f"C{n}"
    _check_cap(n, cap, label)
    elements = tuple(range(n))
    return Group(elements, lambda a, b: (a + b) % n, label, str)


def dihedral(n: int, cap: int | None = None) -> Group:
    """Symmetries of a regular n-gon, order 2n (n >= 3): permutations of n points."""
    if n < 3:
        raise ValueError(f"dihedral needs n >= 3 polygon vertices, got {n}")
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    return _closure(f"D{n}", 2 * n, [rotation, reflection], compose_permutations,
                    identity_permutation(n), render_permutation, cap)


def symmetric(n: int, cap: int | None = None) -> Group:
    if not 1 <= n <= 7:
        raise ValueError(f"symmetric group supported for 1 <= n <= 7, got {n}")
    gens = [] if n == 1 else [permutation_from_cycles(n, [(1, 2)]),
                              permutation_from_cycles(n, [tuple(range(1, n + 1))])]
    return _closure(f"S{n}", factorial(n), gens, compose_permutations,
                    identity_permutation(n), render_permutation, cap)


def alternating(n: int, cap: int | None = None) -> Group:
    if not 1 <= n <= 7:
        raise ValueError(f"alternating group supported for 1 <= n <= 7, got {n}")
    gens = [permutation_from_cycles(n, [(1, 2, 3)])] if n >= 3 else []
    if n > 3:
        if n % 2 == 1:
            gens.append(permutation_from_cycles(n, [tuple(range(1, n + 1))]))
        else:
            gens.append(permutation_from_cycles(n, [tuple(range(2, n + 1))]))
    return _closure(f"A{n}", max(1, factorial(n) // 2), gens, compose_permutations,
                    identity_permutation(n), render_permutation, cap)


def generalized_quaternion(order: int, cap: int | None = None) -> Group:
    """Q_{2^k}, k >= 3: pairs (i, j) in Z_{2^(k-1)} x Z_2.

    Presentation <a, b | a^(2^(k-2)) = b^2, b a b^-1 = a^-1> realized on pairs
    (i, j) = a^i b^j with (i1,j1)*(i2,j2) = (i1 + (-1)^j1 i2 + j1 j2 2^(k-2), j1+j2).
    """
    if order < 8 or order & (order - 1):
        raise ValueError(f"generalized quaternion needs order 2^k >= 8, got {order}")
    label = f"Q{order}"
    _check_cap(order, cap, label)
    half = order // 2
    quarter = order // 4

    def mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        i1, j1 = a
        i2, j2 = b
        i = i1 + (i2 if j1 == 0 else -i2) + (quarter if j1 and j2 else 0)
        return (i % half, (j1 + j2) % 2)

    elements = tuple((i, j) for i in range(half) for j in range(2))
    return Group(elements, mul, label, _render_pair)


def elementary_abelian(p: int, k: int, cap: int | None = None) -> Group:
    """(Z_p)^k.  A vector is one int with a slot of w bits per coordinate,
    coordinate j in slot j; element i has coordinate i // p^j % p in slot j."""
    if k < 1:
        raise ValueError(f"elementary abelian needs k >= 1, got {k}")
    if not is_prime(p):
        raise ValueError(f"elementary abelian needs prime base, got {p}")
    order = p ** k
    label = f"E{p}^{k}"
    _check_cap(order, cap, label)
    # A slot holds the sum of two coordinates, at most 2p - 2, below its top bit.
    w = (2 * p - 2).bit_length() + 1
    ones = sum(1 << w * j for j in range(k))
    top = ones << w - 1  # the top bit of each slot
    bias = ones * ((1 << w - 1) - p)
    elements = [0]
    for j in range(k):
        elements = [x | c << w * j for c in range(p) for x in elements]

    def add(a: int, b: int) -> int:
        s = a + b
        # A slot of s + bias reaches its top bit exactly when the slot of s
        # is p or more; take p off those slots.
        return s - ((s + bias & top) >> w - 1) * p

    slot = (1 << w) - 1
    return Group(elements, add, label,
                 lambda v: "(" + ",".join(str(v >> w * j & slot) for j in range(k)) + ")")


def semidirect_cyclic(n: int, m: int, k: int, cap: int | None = None) -> Group:
    """C_n semidirect C_m, the C_m generator acting by x -> x^k on C_n.

    Requires gcd(k, n) = 1 and k^m = 1 (mod n) so the action is an
    automorphism of exact compatible order.  Pairs (i, j) compose by
    (i1, j1)(i2, j2) = (i1 + k^j1 * i2 mod n, j1 + j2 mod m).
    """
    if n < 1 or m < 1:
        raise ValueError("semidirect product needs n >= 1 and m >= 1")
    if gcd(k, n) != 1:
        raise ValueError(f"action multiplier {k} not invertible mod {n}")
    if n > 1 and pow(k, m, n) != 1:
        raise ValueError(f"action multiplier {k} does not satisfy k^{m} = 1 mod {n}")
    label = f"SD({n},{m},{k})"
    _check_cap(n * m, cap, label)
    kpow = [pow(k, j, n) for j in range(m)]

    def mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        i1, j1 = a
        i2, j2 = b
        return ((i1 + kpow[j1] * i2) % n, (j1 + j2) % m)

    elements = tuple((i, j) for i in range(n) for j in range(m))
    return Group(elements, mul, label, _render_pair)


Matrix = tuple[int, int, int, int]  # [[a, b], [c, d]] as (a, b, c, d)


def _matrix_group(label: str, order: int, q: int, projective: bool,
                  cap: int | None) -> Group:
    """SL(2, q), or PSL(2, q) if `projective`: the closure of the elementary
    transvections and, for q > 3, the torus element diag(w, 1/w) with w the
    primitive element, on flat matrices of GF(q) indices."""
    _check_cap(order, cap, label)  # before the field tables are built
    if q < 2:
        raise ValueError(f"field size must be a prime power >= 2, got {q}")
    pk = is_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    spec = construct_field(*pk)
    add, mul, neg, inv = index_tables(spec)

    def matmul(x: Matrix, y: Matrix) -> Matrix:
        a, b, c, d = x
        e, f, g, h = y
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])

    def projmul(x: Matrix, y: Matrix) -> Matrix:
        """The product, as the smaller of M and -M compared at the first
        row-major entry where they differ (by field-element index).  That is
        the first nonzero entry e, and -M is the smaller when neg[e] < e."""
        a, b, c, d = x
        e, f, g, h = y
        m00 = add[mul[a][e]][mul[b][g]]
        m01 = add[mul[a][f]][mul[b][h]]
        m10 = add[mul[c][e]][mul[d][g]]
        m11 = add[mul[c][f]][mul[d][h]]
        first = m00 or m01  # the top row of an invertible matrix is nonzero
        if neg[first] < first:
            return neg[m00], neg[m01], neg[m10], neg[m11]
        return m00, m01, m10, m11

    gens: list[Matrix] = [(1, 1, 0, 1), (1, 0, 1, 1)]
    if q > 3:
        w = primitive_element(spec)
        gens.append((w, 0, 0, inv[w]))
    if projective:
        gens = [projmul(_IDENTITY, m) for m in gens]
    return _closure(label, order, gens, projmul if projective else matmul,
                    _IDENTITY, _render_matrix, cap)


_IDENTITY: Matrix = (1, 0, 0, 1)


def _render_matrix(m: Matrix) -> str:
    return "[[{},{}],[{},{}]]".format(*m)


def construct_sl2(q: int, cap: int | None = None) -> Group:
    """SL(2, q)."""
    return _matrix_group(f"SL(2,{q})", q * (q * q - 1), q, False, cap)


def construct_psl2(q: int, cap: int | None = None) -> Group:
    """PSL(2, q): SL(2, q) with M identified with -M, each class kept as its
    smaller member (see `_matrix_group`)."""
    return _matrix_group(f"PSL(2,{q})", q * (q * q - 1) // gcd(2, q - 1), q, True, cap)


# Family name -> (spec text, constructor).  Each `{}` in the text is one integer
# parameter, passed to the constructor in order, followed by the cap.  The
# parser tries the rows in this order, so the SL and SD rows precede `S{}`.
FAMILIES = {
    "PSL2": ("PSL(2,{})", construct_psl2),
    "SL2": ("SL(2,{})", construct_sl2),
    "SD": ("SD({},{},{})", semidirect_cyclic),
    "C": ("C{}", cyclic),
    "D": ("D{}", dihedral),
    "S": ("S{}", symmetric),
    "A": ("A{}", alternating),
    "Q": ("Q{}", generalized_quaternion),
    "E": ("E{}^{}", elementary_abelian),
}


def direct_product(g: Group, h: Group, cap: int | None = None) -> Group:
    """Componentwise product over index pairs (i, j), lexicographic order."""
    order = g.order * h.order
    label = f"{g.label}x{h.label}"
    _check_cap(order, cap, label)
    elements = tuple((i, j) for i in range(g.order) for j in range(h.order))

    def mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (g.compose(a[0], b[0]), h.compose(a[1], b[1]))

    def render(pair: tuple[int, int]) -> str:
        return f"({g.render(pair[0])},{h.render(pair[1])})"

    return Group(elements, mul, label, render)


def build_group(spec: GroupSpec | str, cap: int | None = None) -> Group:
    """Build a group from a parsed spec or a spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if isinstance(spec, ProductSpec):
        return direct_product(build_group(spec.left, cap), build_group(spec.right, cap), cap)
    _text, build = FAMILIES[spec.family]
    return build(*spec.params, cap)


# ---------------------------------------------------------------------------
# Small local helpers.
# ---------------------------------------------------------------------------

def _render_pair(pair: tuple[int, int]) -> str:
    return f"({pair[0]},{pair[1]})"


def _closure(label: str, order: int, gens: list, compose, identity, render,
             cap: int | None) -> Group:
    """Close `gens` under `compose` within the cap, and check the order."""
    _check_cap(order, cap, label)
    g = close_generators(gens, compose, identity, cap=cap, label=label,
                         render_payload=render)
    if g.order != order:
        raise RuntimeError(f"{label} closure has order {g.order}, expected {order}")
    return g


def _check_cap(order: int, cap: int | None, label: str) -> None:
    effective = resolve_cap(cap)
    if order > effective:
        raise CapExceededError(f"{label} has order {order}, exceeding cap {effective}")
