"""Arithmetic tables for small finite fields GF(p^k).

An element of GF(p^k) is a polynomial over GF(p) of degree below k, reduced
modulo a monic irreducible modulus of degree k, and it is known here only by
its index: the base-p number whose digit of weight p^i is the coefficient of
x^i.  Index 0 is zero and index 1 is one.  The matrix-group constructors read
the dense add/mul/neg/inv tables over these indices (`index_tables`) and one
primitive element (`primitive_element`).

The modulus for a given (p, k) is deterministic, so two runs (or two machines)
always number elements alike: FIXED_MODULI pins four of them, and any other is
the first monic irreducible found by trial division, searching the
coefficient tuples (c_0, ..., c_{k-1}) in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct

from .classifiers import is_prime

MAX_FIELD_SIZE = 1 << 16

# Little-endian monic moduli: x^2+x+1, x^3+x+1, x^2+1, x^4+x+1.  They fix the
# element numbering of PSL(2,q) and SL(2,q) for these q.  The search would
# agree for GF(4) and GF(9) only: it finds x^3+x^2+1 for GF(8) and x^4+x^3+1
# for GF(16).
FIXED_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
}


@dataclass(frozen=True)
class FieldSpec:
    """A concrete field GF(p^k) with its reduction modulus pinned."""

    p: int
    k: int
    modulus: tuple[int, ...]  # little-endian, length k+1, monic

    @property
    def size(self) -> int:
        return self.p ** self.k


def _poly_rem(poly: list[int] | tuple[int, ...], divisor: tuple[int, ...],
              p: int) -> list[int]:
    """Remainder of a little-endian polynomial with at least deg(divisor)
    coefficients, modulo a monic divisor over GF(p)."""
    rem = [c % p for c in poly]
    d = len(divisor) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j, m in enumerate(divisor):
                rem[i - d + j] = (rem[i - d + j] - c * m) % p
    return rem[:d]


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= k // 2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in _iproduct(range(p), repeat=d):
            if not any(_poly_rem(modulus, tail + (1,), p)):
                return False
    return True


def construct_field(p: int, k: int) -> FieldSpec:
    """Build GF(p^k) with the canonical modulus for (p, k).

    Raises ValueError if p is not prime, k < 1, or p^k exceeds MAX_FIELD_SIZE.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if p ** k > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p ** k} exceeds cap {MAX_FIELD_SIZE}")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    fixed = FIXED_MODULI.get((p, k))
    if fixed is not None:
        return FieldSpec(p, k, fixed)
    # First monic irreducible of degree k, its little-endian tail ordered
    # lexicographically (constant term 0 never yields one).
    for tail in _iproduct(range(p), repeat=k):
        candidate = tail + (1,)
        if candidate[0] != 0 and _is_irreducible(candidate, p):
            return FieldSpec(p, k, candidate)
    raise RuntimeError(f"no irreducible polynomial found for GF({p}^{k})")


@lru_cache(maxsize=None)
def index_tables(spec: FieldSpec) -> tuple[tuple, tuple, tuple, tuple]:
    """Dense (add, mul, neg, inv) tables over element indices.

    inv[0] is -1 as a sentinel.  Cached per spec; used by the matrix groups.
    """
    p, k, q = spec.p, spec.k, spec.size
    digits = [[i // p ** j % p for j in range(k)] for i in range(q)]

    def index(coeffs) -> int:
        return sum(c % p * p ** j for j, c in enumerate(coeffs))

    def times(a: list[int], b: list[int]) -> int:
        raw = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        return index(_poly_rem(raw, spec.modulus, p))

    add = tuple(tuple(index([x + y for x, y in zip(a, b)]) for b in digits)
                for a in digits)
    mul = tuple(tuple(times(a, b) for b in digits) for a in digits)
    neg = tuple(index([-x for x in a]) for a in digits)
    inv = (-1,) + tuple(row.index(1) for row in mul[1:])
    return add, mul, neg, inv


def primitive_element(spec: FieldSpec) -> int:
    """The index of the generator of GF(q)* with the smallest index."""
    mul = index_tables(spec)[1]
    for a in range(1, spec.size):
        x, order = a, 1
        while x != 1:
            x, order = mul[x][a], order + 1
        if order == spec.size - 1:
            return a
    raise RuntimeError("multiplicative group had no generator")  # pragma: no cover
