import itertools
import math

import pytest

from pglab import build_group, close_generators
from pglab.group_kernel import (
    DEFAULT_GROUP_CAP,
    CapExceededError,
    compose_permutations,
    identity_permutation,
    permutation_from_cycles,
    render_permutation,
    resolve_cap,
)
from naive_oracle import (
    conjugate,
    cyclic_closure,
    element_order_profile,
    exponent,
    inverse,
    is_closed_subset,
    multiplication_table,
    naive_element_order,
    naive_is_nilpotent,
    p_element_set,
)

# -- element orders and profiles ----------------------------------------------


def test_cyclic_orders():
    g = build_group("C6")
    assert g.element_orders() == [1, 6, 3, 2, 3, 6]
    assert element_order_profile(g) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert exponent(g) == 6


def test_q16_order_profile():
    assert element_order_profile(build_group("Q16")) == {1: 1, 2: 1, 4: 10, 8: 4}


def test_a5_profile_against_permutation_enumeration():
    """Independent oracle: enumerate the even permutations of 5 points and
    read each order off its cycle type."""
    expected = {}
    for perm in itertools.permutations(range(5)):
        inversions = sum(
            1 for i in range(5) for j in range(i + 1, 5) if perm[i] > perm[j]
        )
        if inversions % 2:
            continue
        seen, lengths = set(), []
        for start in range(5):
            if start in seen:
                continue
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = perm[x]
                length += 1
            lengths.append(length)
        order = math.lcm(*lengths)
        expected[order] = expected.get(order, 0) + 1
    assert element_order_profile(build_group("A5")) == expected


@pytest.mark.parametrize("spec", ["S4", "D6", "Q8", "SD(7,3,2)"])
def test_element_order_matches_naive_walk(spec):
    g = build_group(spec)
    for v in range(g.order):
        assert g.element_order(v) == naive_element_order(g, v)


@pytest.mark.parametrize("spec", ["C12", "S4", "Q16", "E2^3", "SD(7,3,2)"])
def test_cyclic_subgroups_are_each_yielded_once(spec):
    g = build_group(spec)
    seen = set()
    generated = []
    for generators, members in g.cyclic_subgroups():
        assert set(members) == cyclic_closure(g, generators[0])
        assert sorted(generators) == sorted(
            v for v in members if cyclic_closure(g, v) == set(members))
        assert frozenset(members) not in seen
        seen.add(frozenset(members))
        generated += generators
    # Every element generates exactly one cyclic subgroup.
    assert sorted(generated) == list(range(g.order))


# -- composition, inverses, conjugation ----------------------------------------


@pytest.mark.parametrize("spec", ["D6", "Q8", "SD(7,3,2)", "A4"])
def test_inverses(spec):
    g = build_group(spec)
    assert inverse(g, 0) == 0
    for v in range(g.order):
        assert g.compose(v, inverse(g, v)) == 0
        assert g.compose(inverse(g, v), v) == 0


def test_identity_is_element_zero():
    for spec in ("C12", "D5", "S4", "Q16", "E3^2", "PSL(2,5)"):
        g = build_group(spec)
        assert g.element_order(0) == 1
        for v in range(g.order):
            assert g.compose(0, v) == v
            assert g.compose(v, 0) == v


def test_conjugation_preserves_order_and_normality():
    s3 = build_group("S3")
    for g in range(6):
        for x in range(6):
            assert s3.element_order(conjugate(s3, g, x)) == s3.element_order(x)
    # the rotation subgroup of S3 is normal, the reflections are not closed
    rot = p_element_set(s3, 3)
    assert all(conjugate(s3, g, x) in rot for g in range(6) for x in rot)


def test_cyclic_closure_and_closed_subsets():
    c12 = build_group("C12")
    assert cyclic_closure(c12, 2) == {0, 2, 4, 6, 8, 10}
    assert is_closed_subset(c12, {0, 4, 8})
    assert not is_closed_subset(c12, {0, 1})
    assert p_element_set(c12, 2) == {0, 3, 6, 9}
    assert p_element_set(c12, 3) == {0, 4, 8}


def test_exponent_s5():
    assert exponent(build_group("S5")) == 60


def test_nilpotency_oracle_agreement():
    from pglab import compute_structure_flags

    for spec in ("C12", "D6", "Q8", "A4", "S4", "SD(7,3,2)", "C2xC6", "SD(5,4,2)"):
        g = build_group(spec)
        assert compute_structure_flags(g).is_nilpotent == naive_is_nilpotent(g), spec


# -- multiplication table --------------------------------------------------------


def test_multiplication_table_matches_compose_and_caches():
    g = build_group("D4")
    table = multiplication_table(g)
    assert table is multiplication_table(g)
    for i in range(g.order):
        for j in range(g.order):
            assert table[i][j] == g.compose(i, j)


def test_multiplication_table_cap():
    a7 = build_group("A7")  # order 2520 > table cache cap
    with pytest.raises(CapExceededError):
        multiplication_table(a7)


# -- generator closure -------------------------------------------------------------


def test_close_generators_s3():
    swap = (1, 0, 2)
    cycle = (1, 2, 0)
    g = close_generators(
        [swap, cycle], compose_permutations, render_payload=render_permutation
    )
    assert g.order == 6
    assert g.payload(0) == identity_permutation(3)
    assert g.payload(1) == swap
    assert g.payload(2) == cycle
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 3, 3]


def test_close_generators_respects_cap():
    gens = [permutation_from_cycles(5, [(1, 2)]), permutation_from_cycles(5, [(1, 2, 3, 4, 5)])]
    with pytest.raises(CapExceededError):
        close_generators(gens, compose_permutations, cap=30)


# -- caps ---------------------------------------------------------------------------


def test_resolve_cap_precedence(monkeypatch):
    monkeypatch.delenv("PG_GROUP_CAP", raising=False)
    assert resolve_cap() == DEFAULT_GROUP_CAP
    assert resolve_cap(123) == 123
    monkeypatch.setenv("PG_GROUP_CAP", "77")
    assert resolve_cap() == 77
    assert resolve_cap(123) == 123  # explicit argument wins


def test_build_group_respects_env_cap(monkeypatch):
    monkeypatch.setenv("PG_GROUP_CAP", "10")
    with pytest.raises(CapExceededError):
        build_group("C100")
    assert build_group("C8").order == 8
    assert build_group("C100", cap=200).order == 100


def test_default_cap_blocks_oversized_groups():
    with pytest.raises(CapExceededError):
        build_group("C20000")


# -- permutation helpers ---------------------------------------------------------------


def test_compose_permutations_convention():
    # compose(a, b) applies b first: (1 2) after (2 3) is (1 2 3)
    a = permutation_from_cycles(3, [(1, 2)])
    b = permutation_from_cycles(3, [(2, 3)])
    assert compose_permutations(a, b) == (1, 2, 0)
    assert render_permutation((1, 2, 0)) == "(1 2 3)"


def test_permutation_from_cycles_and_render():
    assert permutation_from_cycles(3, [(1, 2, 3)]) == (1, 2, 0)
    assert permutation_from_cycles(6, [(1, 2), (3, 4, 5)]) == (1, 0, 3, 4, 2, 5)
    assert render_permutation(identity_permutation(4)) == "()"
    assert render_permutation((1, 0, 3, 2)) == "(1 2)(3 4)"
    assert render_permutation(permutation_from_cycles(7, [(5, 6, 7)])) == "(5 6 7)"
