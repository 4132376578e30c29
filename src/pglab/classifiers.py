"""Group-structure predicates and number-theoretic side conditions.

`compute_structure_flags` derives, from the element-order profile alone
(each distinct element order and its count), the complete set of structural
facts the verification right-hand sides consume: prime factorization of |G|,
cyclicity, nilpotency (all Sylow subgroups normal, detected by counting
p-elements), EPPO/EPO (prime-power / prime element orders), Sylow
normality/cyclicity/exponent per prime, and whether the group is an
exponent-2 2-group.  `prime_graph_edges` reads the prime graph off the same
flags.

`CASES` is the table of the 16 verification cases: which corpus entries
each covers, its graph side (checked on P*(G)), and its structural
("right-hand") side, which `rhs_predicate` evaluates; the boolean formulas
are documented case-by-case in the README.  Predicates for the
symmetric/alternating families recover n by inverting n! (resp. n!/2) from
the group order; the PSL2/Sz cases are purely number-theoretic in the
field-size parameter q.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .group_kernel import Group


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, primes ascending; factorize(1) = []."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) with n = p^a, or None; defined for n >= 2."""
    if n < 2:
        raise ValueError(f"is_prime_power needs n >= 2, got {n}")
    fac = factorize(n)
    if len(fac) == 1:
        return fac[0]
    return None


def is_admissible_cyclic_order(n: int) -> bool:
    """True iff n = 1, n = p^a, or n = p^a * q (distinct primes, a >= 1).

    These are exactly the cyclic-group orders whose power graph avoids the
    5-vertex path and its complement.
    """
    fac = factorize(n)
    if len(fac) <= 1:
        return True
    if len(fac) == 2:
        return min(e for _, e in fac) == 1
    return False


@dataclass(frozen=True)
class StructureFlags:
    order: int
    factorization: tuple[tuple[int, int], ...]
    exponent: int
    order_profile: tuple[tuple[int, int], ...]  # (element order, count), ascending
    is_p_group: bool
    is_cyclic: bool
    is_nilpotent: bool
    is_eppo: bool
    is_epo: bool
    is_exponent2_2group: bool
    normal_sylow: dict[int, bool]
    sylow_cyclic: dict[int, bool]
    sylow_exponent: dict[int, int]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)


def compute_structure_flags(group: Group) -> StructureFlags:
    order = group.order
    fac = tuple(factorize(order))
    profile = Counter(group.element_orders())

    normal_sylow: dict[int, bool] = {}
    sylow_cyclic: dict[int, bool] = {}
    sylow_exponent: dict[int, int] = {}
    for p, e in fac:
        p_profile = {o: c for o, c in profile.items() if _is_power_of(o, p)}
        # The p-elements form the unique (hence normal) Sylow p-subgroup
        # exactly when there are p^e of them.
        normal_sylow[p] = sum(p_profile.values()) == p ** e
        sylow_exponent[p] = max(p_profile)
        sylow_cyclic[p] = sylow_exponent[p] == p ** e

    exponent = math.lcm(*profile)
    return StructureFlags(
        order=order,
        factorization=fac,
        exponent=exponent,
        order_profile=tuple(sorted(profile.items())),
        is_p_group=len(fac) <= 1,
        is_cyclic=order in profile,
        is_nilpotent=all(normal_sylow.values()),
        is_eppo=all(len(factorize(o)) <= 1 for o in profile),
        is_epo=all(is_prime(o) for o in profile if o > 1),
        is_exponent2_2group=exponent == 2,
        normal_sylow=normal_sylow,
        sylow_cyclic=sylow_cyclic,
        sylow_exponent=sylow_exponent,
    )


def prime_graph_edges(flags: StructureFlags) -> list[tuple[int, int]]:
    """The prime graph of G as sorted index pairs (i, j), i < j, into
    `flags.primes`: p_i ~ p_j iff p_i p_j divides some element order.  By
    Cauchy every prime of |G| is an element order, so `flags.primes` are
    exactly the primes of the element orders.  EPPO ⟺ no edges."""
    ps = flags.primes
    return [(i, j) for i, j in combinations(range(len(ps)), 2)
            if any(o % (ps[i] * ps[j]) == 0 for o, _ in flags.order_profile)]


# ---------------------------------------------------------------------------
# Right-hand-side predicates, one per verification case.
# ---------------------------------------------------------------------------

def rhs_chain(f: StructureFlags) -> bool:
    """Proper power graph is a chain graph  ⟺  one of:
    trivial; order 3; exponent-2 2-group; non-cyclic order 6.

    The statement also lists EPO groups of order 3*2^s (s >= 2) with a normal
    Sylow-3 P = <x> and a non-cyclic exponent-2 Sylow-2, but no group is one:
    G/C_G(P) embeds in Aut(P) = C2, so C_G(P) has order at least 3*2^(s-1)
    and, that being even, holds an involution t; then xt has order 6, and G
    is not EPO."""
    return (f.order in (1, 3) or f.is_exponent2_2group
            or (f.order == 6 and not f.is_cyclic))


def rhs_p5_nilpotent(f: StructureFlags) -> bool:
    """Nilpotent case: p-group, or cyclic of order p^a or p^a*q."""
    return f.is_p_group or (f.is_cyclic and is_admissible_cyclic_order(f.order))


def rhs_p5p5bar_product(fg: StructureFlags, fh: StructureFlags) -> bool:
    """Direct-product case, three families (either assignment of (A, B)):
    (a) all prime divisors equal (product is a p-group);
    (b) A = C_{p^a}, B = C_q, q a different prime;
    (c) A = C_{q^m}; B has prime set exactly {p, q}, is EPPO, has a normal
        cyclic Sylow-p, and (m = 1 or B has p-multiplicity 1)."""
    primes_union = {p for p, _ in fg.factorization} | {p for p, _ in fh.factorization}
    if len(primes_union) <= 1:
        return True
    for a, b in ((fg, fh), (fh, fg)):
        if (a.is_cyclic and len(a.factorization) == 1
                and b.is_cyclic and is_prime(b.order)
                and b.primes != a.primes):
            return True
        if _product_case_c(a, b):
            return True
    return False


def _product_case_c(a: StructureFlags, b: StructureFlags) -> bool:
    if not (a.is_cyclic and len(a.factorization) == 1):
        return False
    q, m = a.factorization[0]
    if len(b.factorization) != 2 or q not in b.primes:
        return False
    if not b.is_eppo:
        return False
    p = next(r for r in b.primes if r != q)
    if not (b.normal_sylow[p] and b.sylow_cyclic[p]):
        return False
    return m == 1 or dict(b.factorization)[p] == 1


def rhs_symmetric(f: StructureFlags) -> bool:
    """Symmetric groups: free ⟺ n <= 5 (n recovered from |G| = n!)."""
    return _invert_factorial(f.order) <= 5


def rhs_alternating(f: StructureFlags) -> bool:
    """Alternating groups: free ⟺ n <= 6 (n recovered from 2|G| = n!).

    A1 and A2 share order 1 and both read as n = 2.
    """
    return _invert_factorial(2 * f.order) <= 6


def _invert_factorial(order: int) -> int:
    n = 1
    acc = 1
    while acc < order:
        n += 1
        acc *= n
    if acc != order:
        raise ValueError(f"order {order} is not a factorial")
    return n


def psl2_side_numbers(q: int) -> tuple[int, ...]:
    """(q-1)/2 and (q+1)/2 for odd q; q-1 and q+1 for even q."""
    if q < 2 or is_prime_power(q) is None:
        raise ValueError(f"PSL(2,q) needs a prime power q, got {q}")
    if q % 2 == 1:
        return ((q - 1) // 2, (q + 1) // 2)
    return (q - 1, q + 1)


def rhs_psl2(q: int) -> bool:
    return all(is_admissible_cyclic_order(n) for n in psl2_side_numbers(q))


def sz_side_numbers(q: int) -> tuple[int, ...]:
    """q-1, q-sqrt(2q)+1, q+sqrt(2q)+1 for q = 2^(2e+1)."""
    fac = factorize(q) if q >= 2 else []
    if len(fac) != 1 or fac[0][0] != 2 or fac[0][1] % 2 == 0 or fac[0][1] < 3:
        raise ValueError(f"Suzuki parameter must be 2^(2e+1) with e >= 1, got {q}")
    root = 1 << ((fac[0][1] + 1) // 2)  # sqrt(2q)
    return (q - 1, q - root + 1, q + root + 1)


def rhs_sz(q: int) -> bool:
    return all(is_admissible_cyclic_order(n) for n in sz_side_numbers(q))


def rhs_p2p3_nilpotent(f: StructureFlags) -> bool:
    """Nilpotent case: p-group; or cyclic C_{p^a q^b} with min(a,b) = 1; or
    P x C_q with P a non-cyclic 2-group of exponent 2 and q odd (flags form:
    primes {2, q}, Sylow-2 exponent 2 with multiplicity >= 2, q-multiplicity
    exactly 1).

    The third family genuinely requires a Sylow-q of order q: in
    P x C_{q^b} with b >= 2, independent involutions x, y and a generator g
    of C_{q^b} give the induced P2 u P3 with edge {(x,0), (x,g^q)} and path
    (y,g) - (0,g) - (xy,g), since <(x,g^q)> meets only the proper subgroup
    of order q^(b-1) and so avoids every vertex of the path."""
    if f.is_p_group:
        return True
    if (f.is_cyclic and len(f.factorization) == 2
            and min(e for _, e in f.factorization) == 1):
        return True
    if len(f.factorization) == 2 and f.primes[0] == 2:
        mult = dict(f.factorization)
        return (f.sylow_exponent[2] == 2 and mult[2] >= 2
                and mult[f.primes[1]] == 1)
    return False


def rhs_p2p3_nonnilpotent(f: StructureFlags) -> bool:
    """Non-nilpotent case: EPPO; or (primes {2, q, r}) Sylow-2 of exponent 2
    with normal cyclic Sylow-q and Sylow-r, at least one odd multiplicity 1,
    and every element of even order an involution; or (primes {2, q}) Sylow-2
    of exponent 2 with a normal cyclic Sylow-q of order q, or of any order
    when the Sylow-2 has order 4.

    The two-prime non-EPPO family is forced into the shape
    D_{q^m} x E_{2^(k-1)} (the exponent-2 Sylow splits over the kernel of
    its action on the cyclic Sylow-q), whose proper power graph is that of
    C_{q^m} x E_{2^(k-1)} plus isolated involutions; the nilpotent analysis
    then requires m = 1 or k - 1 <= 1."""
    if f.is_eppo:
        return True
    primes = f.primes
    if len(primes) == 3 and primes[0] == 2:
        q, r = primes[1], primes[2]
        mult = dict(f.factorization)
        even_orders_are_involutions = all(
            o == 2 for o, _ in f.order_profile if o % 2 == 0)
        return (f.sylow_exponent[2] == 2
                and f.normal_sylow[q] and f.sylow_cyclic[q]
                and f.normal_sylow[r] and f.sylow_cyclic[r]
                and min(mult[q], mult[r]) == 1
                and even_orders_are_involutions)
    if len(primes) == 2 and primes[0] == 2:
        q = primes[1]
        mult = dict(f.factorization)
        return (f.sylow_exponent[2] == 2
                and f.normal_sylow[q] and f.sylow_cyclic[q]
                and (mult[q] == 1 or mult[2] == 2))
    return False


def rhs_diamond(f: StructureFlags) -> bool:
    """Diamond-free proper power graph ⟺ p-group or EPPO."""
    return f.is_p_group or f.is_eppo


def rhs_diamond_codiamond(f: StructureFlags) -> bool:
    """{diamond, co-diamond}-free ⟺ cyclic p-group or exponent-2 2-group."""
    return (f.is_cyclic and f.is_p_group) or f.is_exponent2_2group


def rhs_cograph_nullprime(f: StructureFlags) -> bool:
    """Sanity: EPPO (null prime graph) groups always have cograph P(G)."""
    return True


def rhs_chordal_nilpotent(f: StructureFlags) -> bool:
    """Nilpotent sanity: chordal ⟺ p-group, or two primes with one Sylow
    cyclic and the other of prime exponent."""
    if f.is_p_group:
        return True
    if len(f.factorization) != 2:
        return False
    p, q = f.primes
    return ((f.sylow_cyclic[p] and f.sylow_exponent[q] == q)
            or (f.sylow_cyclic[q] and f.sylow_exponent[p] == p))


def rhs_cograph_nilpotent(f: StructureFlags) -> bool:
    """Nilpotent sanity: cograph ⟺ p-group or cyclic of order pq."""
    if f.is_p_group:
        return True
    return (f.is_cyclic and len(f.factorization) == 2
            and all(e == 1 for _, e in f.factorization))


@dataclass(frozen=True)
class Case:
    """One verification case.

    The graph side holds on P*(G) unless one of `patterns` (searched in this
    order) occurs as an induced subgraph, or, with `hole` set, P*(G) has a
    hole of that parity.  P(G) is P*(G) plus the identity, adjacent to every
    other vertex, and neither these patterns nor a hole has such a vertex,
    so the P(G) statements read the same on P*(G).  `family` and `when`
    restrict the corpus entries the case covers.  `rhs` takes the entry's
    StructureFlags, or the field size q where `by_q` is set.  With `pairs`
    set the case covers ordered pairs of product sub-corpus members instead,
    and `rhs` takes both factors' flags.  A case with neither patterns nor a
    hole is rhs-only, over the corpus's Suzuki parameters q, which `rhs` takes.
    """

    id: str
    rhs: Callable[..., bool]
    patterns: tuple[str, ...] = ()
    hole: str | None = None
    family: str | None = None
    when: Callable[[StructureFlags], bool] | None = None
    by_q: bool = False
    pairs: bool = False

    @property
    def rhs_only(self) -> bool:
        return not self.patterns and self.hole is None


def _nilpotent(f: StructureFlags) -> bool:
    return f.is_nilpotent


def _not_nilpotent(f: StructureFlags) -> bool:
    return not f.is_nilpotent


def _eppo(f: StructureFlags) -> bool:
    return f.is_eppo


_P5_P5BAR = ("P5", "P5bar")
_P2P3 = ("P2uP3", "P2uP3bar")

CASES: dict[str, Case] = {c.id: c for c in (
    Case("T-CHAIN", rhs_chain, ("C3", "C5", "2K2")),
    Case("T-P5-NILP", rhs_p5_nilpotent, ("P5",), when=_nilpotent),
    Case("T-P5P5B-NILP", rhs_p5_nilpotent, _P5_P5BAR, when=_nilpotent),
    Case("T-P5P5B-PRODUCT", rhs_p5p5bar_product, _P5_P5BAR, pairs=True),
    Case("T-SN", rhs_symmetric, _P5_P5BAR, family="S"),
    Case("T-AN", rhs_alternating, _P5_P5BAR, family="A"),
    Case("T-PSL2", rhs_psl2, _P5_P5BAR, family="PSL2", by_q=True),
    Case("T-SZ", rhs_sz),
    Case("T-P2P3-NILP", rhs_p2p3_nilpotent, _P2P3, when=_nilpotent),
    Case("T-P2P3-NONNILP", rhs_p2p3_nonnilpotent, _P2P3, when=_not_nilpotent),
    Case("T-DIAMOND", rhs_diamond, ("diamond",)),
    Case("T-EVENHOLE-DIAMOND", rhs_diamond, ("diamond",), hole="even"),
    Case("T-DIAMOND-CODIAMOND", rhs_diamond_codiamond, ("diamond", "co-diamond")),
    Case("S-COGRAPH-NULLPRIME", rhs_cograph_nullprime, ("P4",), when=_eppo),
    Case("S-CHORDAL-NILP", rhs_chordal_nilpotent, hole="any", when=_nilpotent),
    Case("S-COGRAPH-NILP", rhs_cograph_nilpotent, ("P4",), when=_nilpotent),
)}

THEOREM_IDS: tuple[str, ...] = tuple(CASES)


def rhs_predicate(theorem_id: str, *args) -> bool:
    """The named case's structural side.

    Group-shaped cases take the group's StructureFlags
    (`compute_structure_flags`); T-P5P5B-PRODUCT takes those of its two
    factors; T-PSL2 / T-SZ take the integer q.
    """
    case = CASES.get(theorem_id)
    if case is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return case.rhs(*args)
