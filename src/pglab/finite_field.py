"""Arithmetic in small finite fields GF(p^k).

Elements are polynomials over GF(p) in a fixed little-endian coefficient
encoding, reduced modulo a monic irreducible modulus of degree k.  The modulus
for a given (p, k) is deterministic: a small fixed table covers the common
extension fields, and anything else falls back to the lexicographically
smallest monic irreducible found by trial division, so two runs (or two
machines) always agree bit for bit.

Field elements also carry a canonical integer index (base-p evaluation of the
coefficient vector), which the matrix-group constructors use to precompute
dense arithmetic tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct

from .classifiers import is_prime

MAX_FIELD_SIZE = 1 << 16

# Little-endian monic moduli, pinned so the element encoding never drifts.
# (x^2+x+1, x^3+x+1, x^2+1, x^4+x+1 — each is the lexicographically smallest
# monic irreducible of its degree, which construct_field's search reproduces.)
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


@dataclass(frozen=True)
class FieldElement:
    """Polynomial coefficients, little-endian, always exactly k entries."""

    coeffs: tuple[int, ...]


def _poly_mod(coeffs: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Reduce a little-endian polynomial modulo a monic modulus over GF(p)."""
    k = len(modulus) - 1
    out = list(coeffs)
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i] % p
        if c:
            # out -= c * x^(i-k) * modulus
            for j, m in enumerate(modulus):
                out[i - k + j] = (out[i - k + j] - c * m) % p
        out.pop()
    while len(out) < k:
        out.append(0)
    return [c % p for c in out]


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...],
                  modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    raw = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                raw[i + j] += ai * bj
    return tuple(_poly_mod(raw, modulus, p))


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= k // 2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in _iproduct(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if _poly_divides(divisor, modulus, p):
                return False
    return True


def _poly_divides(divisor: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    rem = list(poly)
    dd = len(divisor) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - dd
            for j, m in enumerate(divisor):
                rem[shift + j] = (rem[shift + j] - lead * m) % p
        rem.pop()
        while rem and rem[-1] % p == 0 and len(rem) - 1 >= dd:
            rem.pop()
    return all(c % p == 0 for c in rem)


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
    # Lexicographically smallest monic irreducible of degree k (little-endian
    # tail ordered lexicographically; constant term 0 never yields one).
    for tail in _iproduct(range(p), repeat=k):
        candidate = tuple(tail) + (1,)
        if candidate[0] != 0 and _is_irreducible(candidate, p):
            return FieldSpec(p, k, candidate)
    raise RuntimeError(f"no irreducible polynomial found for GF({p}^{k})")


def zero(spec: FieldSpec) -> FieldElement:
    return FieldElement((0,) * spec.k)


def one(spec: FieldSpec) -> FieldElement:
    return FieldElement((1,) + (0,) * (spec.k - 1))


def ff_add(spec: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    return FieldElement(tuple((x + y) % spec.p for x, y in zip(a.coeffs, b.coeffs)))


def ff_neg(spec: FieldSpec, a: FieldElement) -> FieldElement:
    return FieldElement(tuple((-x) % spec.p for x in a.coeffs))


def ff_sub(spec: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    return FieldElement(tuple((x - y) % spec.p for x, y in zip(a.coeffs, b.coeffs)))


def ff_mul(spec: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    return FieldElement(_poly_mul_mod(a.coeffs, b.coeffs, spec.modulus, spec.p))


def ff_pow(spec: FieldSpec, a: FieldElement, n: int) -> FieldElement:
    if n < 0:
        return ff_pow(spec, ff_inv(spec, a), -n)
    result = one(spec)
    base = a
    while n:
        if n & 1:
            result = ff_mul(spec, result, base)
        base = ff_mul(spec, base, base)
        n >>= 1
    return result


def ff_inv(spec: FieldSpec, a: FieldElement) -> FieldElement:
    """Multiplicative inverse via a^(q-2); raises ZeroDivisionError on 0."""
    if all(c == 0 for c in a.coeffs):
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return ff_pow(spec, a, spec.size - 2)


def element_index(spec: FieldSpec, a: FieldElement) -> int:
    """Canonical index: base-p evaluation of the little-endian coefficients.

    Index 0 is always the zero element and index 1 the one element.
    """
    idx = 0
    for c in reversed(a.coeffs):
        idx = idx * spec.p + c
    return idx


def element_from_index(spec: FieldSpec, idx: int) -> FieldElement:
    if not 0 <= idx < spec.size:
        raise ValueError(f"index {idx} out of range for field of size {spec.size}")
    coeffs = []
    for _ in range(spec.k):
        coeffs.append(idx % spec.p)
        idx //= spec.p
    return FieldElement(tuple(coeffs))


def field_elements(spec: FieldSpec) -> list[FieldElement]:
    """All elements in index order."""
    return [element_from_index(spec, i) for i in range(spec.size)]


def multiplicative_order(spec: FieldSpec, a: FieldElement) -> int:
    if all(c == 0 for c in a.coeffs):
        raise ValueError("zero is not in the multiplicative group")
    unit = one(spec)
    x = a
    n = 1
    while x != unit:
        x = ff_mul(spec, x, a)
        n += 1
    return n


def primitive_element(spec: FieldSpec) -> FieldElement:
    """The generator of GF(q)* with the smallest canonical index."""
    target = spec.size - 1
    for idx in range(1, spec.size):
        a = element_from_index(spec, idx)
        if multiplicative_order(spec, a) == target:
            return a
    raise RuntimeError("multiplicative group had no generator")  # pragma: no cover


@lru_cache(maxsize=None)
def index_tables(spec: FieldSpec) -> tuple[tuple, tuple, tuple, tuple]:
    """Dense (add, mul, neg, inv) tables over canonical indices.

    inv[0] is -1 as a sentinel.  Cached per spec; used by the matrix groups.
    """
    elems = field_elements(spec)
    q = spec.size
    add = tuple(
        tuple(element_index(spec, ff_add(spec, elems[i], elems[j])) for j in range(q))
        for i in range(q)
    )
    mul = tuple(
        tuple(element_index(spec, ff_mul(spec, elems[i], elems[j])) for j in range(q))
        for i in range(q)
    )
    neg = tuple(element_index(spec, ff_neg(spec, elems[i])) for i in range(q))
    inv = (-1,) + tuple(element_index(spec, ff_inv(spec, elems[i])) for i in range(1, q))
    return add, mul, neg, inv
