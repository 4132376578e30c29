import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pglab import build_group, build_power_graph, close_generators
from pglab.constructors import direct_product
from pglab.group_kernel import (
    DEFAULT_GROUP_CAP,
    CapExceededError,
    Group,
    compose_permutations,
    identity_permutation,
    permutation_from_cycles,
    render_permutation,
    resolve_cap,
)
import naive_oracle
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
    orders = g.element_orders()
    for v in range(g.order):
        assert orders[v] == naive_element_order(g, v)


@pytest.mark.parametrize("spec", ["C12", "S4", "Q16", "E2^3", "SD(7,3,2)",
                                  "C360", "C4xC9xC5", "S5", "PSL(2,7)"])
def test_cyclic_subgroups_are_each_yielded_once(spec):
    """A walk lists the generator positions once per element order; the
    last four groups have element orders with many divisors, up to 360."""
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
        assert g.element_orders()[0] == 1
        for v in range(g.order):
            assert g.compose(0, v) == v
            assert g.compose(v, 0) == v


def test_conjugation_preserves_order_and_normality():
    s3 = build_group("S3")
    orders = s3.element_orders()
    for g in range(6):
        for x in range(6):
            assert orders[conjugate(s3, g, x)] == orders[x]
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
        [swap, cycle], compose_permutations, identity_permutation(3),
        render_payload=render_permutation,
    )
    assert g.order == 6
    assert g.payload(0) == identity_permutation(3)
    assert g.payload(1) == swap
    assert g.payload(2) == cycle
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 3, 3]


def test_closure_hands_its_index_to_the_group(monkeypatch):
    """The closure's payload -> index dict, built in element order, is the
    group's index; no second one is built."""
    given = []
    init = Group.__init__
    monkeypatch.setattr(Group, "__init__",
                        lambda group, elements, *rest: given.append(elements)
                        or init(group, elements, *rest))
    g = close_generators([permutation_from_cycles(4, [(1, 2, 3, 4)]),
                          permutation_from_cycles(4, [(1, 3)])],
                         compose_permutations, identity_permutation(4))
    assert g._index is given[0]
    assert all(g.index_of(g.payload(i)) == i for i in range(g.order)) and g.order == 8


def test_group_rejects_duplicate_payloads():
    with pytest.raises(ValueError, match="duplicate payloads"):
        Group([0, 1, 1], lambda a, b: (a + b) % 2, "bad")


def test_close_generators_respects_cap():
    gens = [permutation_from_cycles(5, [(1, 2)]), permutation_from_cycles(5, [(1, 2, 3, 4, 5)])]
    with pytest.raises(CapExceededError):
        close_generators(gens, compose_permutations, identity_permutation(5), cap=30)


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


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_compose_permutations_matches_definition(pair):
    a, b = map(tuple, pair)
    assert compose_permutations(a, b) == tuple(a[b[i]] for i in range(len(a)))


def test_permutation_from_cycles_and_render():
    assert permutation_from_cycles(3, [(1, 2, 3)]) == (1, 2, 0)
    assert permutation_from_cycles(6, [(1, 2), (3, 4, 5)]) == (1, 0, 3, 4, 2, 5)
    assert render_permutation(identity_permutation(4)) == "()"
    assert render_permutation((1, 0, 3, 2)) == "(1 2)(3 4)"
    assert render_permutation(permutation_from_cycles(7, [(5, 6, 7)])) == "(5 6 7)"


# -- the payload index after a walk -------------------------------------------------


@pytest.mark.parametrize("spec", ["S4", "PSL(2,7)"])
def test_walk_drops_the_index_and_first_use_rebuilds_it(spec):
    """A complete walk drops the payload index; `compose` and `index_of`
    rebuild it, each on its own walked group, and agree with a fresh one."""
    fresh = build_group(spec)
    composed, looked_up = build_group(spec), build_group(spec)
    for g in (composed, looked_up):
        build_power_graph(g)
        assert "_index" not in vars(g)
    pairs = itertools.product(range(fresh.order), repeat=2)
    assert all(composed.compose(i, j) == fresh.compose(i, j) for i, j in pairs)
    assert all(looked_up.index_of(fresh.payload(i)) == i for i in range(fresh.order))


def test_interrupted_walk_keeps_the_index_and_a_rewalk_drops_nothing():
    g = build_group("C6")
    next(g.cyclic_subgroups())
    assert "_index" in vars(g)
    trivial = build_group("C1")
    for _ in range(2):  # the second walk composes nothing and finds no index
        assert list(trivial.cyclic_subgroups()) == [([0], [0])]
    assert "_index" not in vars(trivial) and trivial.element_orders() == [1]


def test_product_of_walked_factors_matches_fresh_factors():
    """The factors' payloads are packed by their walks; the product's
    `compose` and `render` call theirs and agree with fresh factors."""
    for specs in (("S3", "Q8"), ("E2^3", "C5"), ("PSL(2,4)", "C2")):
        walked = [build_group(spec) for spec in specs]
        for g in walked:
            g.element_orders()
            assert "_elements" not in vars(g)
        product = direct_product(*walked)
        fresh = direct_product(*map(build_group, specs))
        n = fresh.order
        assert [product.payload(i) for i in range(n)] == [fresh.payload(i) for i in range(n)]
        assert [product.render(i) for i in range(n)] == [fresh.render(i) for i in range(n)]
        assert all(product.compose(i, j) == fresh.compose(i, j)
                   for i, j in itertools.product(range(n), repeat=2))


# -- packed payloads after a walk ----------------------------------------------------


def _observe(g):
    """payload, render, index_of and compose, read without walking g."""
    n = g.order
    payloads = [g.payload(i) for i in range(n)]
    return (payloads, [g.render(i) for i in range(n)],
            [g.index_of(p) for p in payloads],
            [[g.compose(i, j) for j in range(n)] for i in range(n)])


# One spec per FAMILIES row, then a second matrix group and two products.
@pytest.mark.parametrize("spec", ["PSL(2,7)", "SL(2,3)", "SD(7,3,2)", "C12", "D5", "S4",
                                  "A5", "Q16", "E3^2", "SL(2,5)", "C4xC9", "E2^3xS3"])
def test_walk_packs_the_payloads_and_every_answer_stays(spec):
    g = build_group(spec)
    payloads, renders, indices, table = _observe(g)
    orders = [naive_element_order(g, i) for i in range(g.order)]
    assert g.element_orders() == orders  # a complete walk
    assert "_elements" not in vars(g) and "_index" not in vars(g)
    # payload and render read the packed array and rebuild nothing.
    assert [g.payload(i) for i in range(g.order)] == payloads
    assert [g.render(i) for i in range(g.order)] == renders
    assert "_elements" not in vars(g)
    assert _observe(g) == (payloads, renders, indices, table)  # compose rebuilds
    assert list(g.cyclic_subgroups()) == list(build_group(spec).cyclic_subgroups())
    assert "_elements" not in vars(g) and g.element_orders() == orders


def test_walked_psl2_13_holds_no_payload_tuple():
    g = build_group("PSL(2,13)")
    build_power_graph(g)
    assert "_elements" not in vars(g) and "_index" not in vars(g)
    fresh = [build_group("PSL(2,13)").payload(i) for i in range(g.order)]
    assert g._flat == bytes(itertools.chain.from_iterable(fresh))  # 4 bytes a matrix
    assert [g.payload(i) for i in range(g.order)] == fresh
    assert g.render(0) == "[[1,0],[0,1]]"


def _huge_cyclic(n):
    """C_n on the multiples of 2^70: ints past 64 bits."""
    step = 1 << 70
    return Group([k * step for k in range(n)], lambda a, b: (a + b) % (n * step), "huge")


def _ragged_c3():
    """C3 on (), (1,) and (1, 1): tuples of mixed lengths."""
    return Group([(), (1,), (1, 1)], lambda a, b: (1,) * ((len(a) + len(b)) % 3), "ragged")


@pytest.mark.parametrize("build", [lambda: naive_oracle.construct_psl2(7),
                                   lambda: _huge_cyclic(6), _ragged_c3,
                                   lambda: Group([()], lambda a, b: (), "empty")],
                         ids=["nested-tuples", "ints-past-64-bits", "mixed-lengths",
                              "empty-tuple"])
def test_payloads_that_cannot_be_packed_are_kept(build):
    g = build()
    payloads, renders, indices, table = _observe(g)
    orders = [naive_element_order(g, i) for i in range(g.order)]
    assert g.element_orders() == orders
    assert g._flat is None and "_elements" in vars(g) and "_index" not in vars(g)
    assert _observe(g) == (payloads, renders, indices, table)
    assert g.payload(g.order - 1) is payloads[-1]  # the very object, not a copy


def test_packing_falls_back_to_an_array_past_a_byte():
    negative = Group([0, -1, -2], lambda a, b: -((-a - b) % 3), "negative")
    for g, entries in ((build_group("C300"), list(range(300))), (negative, [0, -1, -2])):
        g.element_orders()
        assert g._flat.typecode == "q" and list(g._flat) == entries
        assert [g.payload(i) for i in range(g.order)] == entries


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5", " "])
def test_resolve_cap_rejects_a_bad_environment_value(monkeypatch, value):
    monkeypatch.setenv("PG_GROUP_CAP", value)
    with pytest.raises(ValueError, match="PG_GROUP_CAP must be a positive integer"):
        resolve_cap()
