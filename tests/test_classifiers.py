import dataclasses
import math

import pytest

from pglab import (
    THEOREM_IDS,
    build_group,
    compute_structure_flags,
    direct_product,
    factorize,
    is_admissible_cyclic_order,
    is_prime,
    is_prime_power,
    psl2_side_numbers,
    rhs_predicate,
    sz_side_numbers,
)
from pglab.classifiers import (
    rhs_alternating,
    rhs_chain,
    rhs_psl2,
    rhs_symmetric,
    rhs_sz,
)
from naive_oracle import (chain_third_family, element_order_profile, naive_is_nilpotent,
                          naive_normal_sylow)

# -- elementary number theory -----------------------------------------------------


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(97) == (97, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(36) is None
    with pytest.raises(ValueError):
        is_prime_power(1)


def test_is_admissible_cyclic_order():
    # 1, prime powers, and p^a * q all qualify
    for n in (1, 2, 8, 27, 16, 6, 10, 12, 15, 20, 48, 97):
        assert is_admissible_cyclic_order(n), n
    # two primes both squared, or three primes, do not
    for n in (36, 100, 144, 30, 60, 210, 900):
        assert not is_admissible_cyclic_order(n), n


# -- structure flags against oracles --------------------------------------------------


def test_flags_basic_fields():
    f = compute_structure_flags(build_group("C12"))
    assert f.order == 12
    assert f.factorization == ((2, 2), (3, 1))
    assert f.primes == (2, 3)
    assert f.exponent == 12
    assert f.is_cyclic and f.is_nilpotent and not f.is_p_group
    assert f.is_eppo is False and f.is_epo is False
    assert f.sylow_exponent == {2: 4, 3: 3}
    assert f.sylow_cyclic == {2: True, 3: True}
    assert f.normal_sylow == {2: True, 3: True}


def test_flags_are_frozen():
    f = compute_structure_flags(build_group("C4"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.order = 5


@pytest.mark.parametrize(
    "spec", ["C12", "D6", "Q8", "A4", "S4", "SD(7,3,2)", "C2xC6", "SD(5,4,2)", "E3^2"]
)
def test_nilpotency_and_sylow_flags_against_oracles(spec):
    g = build_group(spec)
    f = compute_structure_flags(g)
    assert f.is_nilpotent == naive_is_nilpotent(g)
    for p, _ in f.factorization:
        assert f.normal_sylow[p] == naive_normal_sylow(g, p), (spec, p)


def test_flags_cyclic_iff_element_of_full_order():
    for spec in ("C16", "D4", "Q8", "S3", "SD(7,3,2)", "C2xC6", "C4xC9"):
        g = build_group(spec)
        f = compute_structure_flags(g)
        assert f.is_cyclic == (g.order in element_order_profile(g)), spec


def test_flags_eppo_and_prime_graph_agree():
    from pglab import build_prime_graph

    for spec in ("A5", "A4", "SD(7,3,2)", "C6", "C12", "Q16", "S4", "C30"):
        g = build_group(spec)
        assert compute_structure_flags(g).is_eppo == build_prime_graph(g).is_null


def test_flags_exponent2():
    assert compute_structure_flags(build_group("E2^3")).is_exponent2_2group
    assert not compute_structure_flags(build_group("C4")).is_exponent2_2group
    assert not compute_structure_flags(build_group("C2xC6")).is_exponent2_2group
    assert compute_structure_flags(build_group("C2")).is_exponent2_2group


def test_p_group_flags():
    assert compute_structure_flags(build_group("Q16")).is_p_group
    assert compute_structure_flags(build_group("C1")).is_p_group
    assert not compute_structure_flags(build_group("C6")).is_p_group


def test_sylow_flags_d6():
    f = compute_structure_flags(build_group("D6"))
    assert f.normal_sylow == {2: False, 3: True}
    assert f.sylow_exponent == {2: 2, 3: 3}
    assert f.sylow_cyclic == {2: False, 3: True}


def test_sylow_flags_a4():
    f = compute_structure_flags(build_group("A4"))
    assert f.normal_sylow == {2: True, 3: False}
    assert f.sylow_cyclic == {2: False, 3: True}
    assert f.is_eppo and f.is_epo


# -- classification right-hand sides -------------------------------------------------


def _flags(spec):
    return compute_structure_flags(build_group(spec))


def test_rhs_chain():
    positives = ["C1", "C2", "C3", "E2^2", "E2^4", "S3", "D3"]
    negatives = ["C4", "C6", "C9", "C12", "A4", "C3xC3", "D6", "Q8"]
    for spec in positives:
        assert rhs_predicate("T-CHAIN", _flags(spec)), spec
    for spec in negatives:
        assert not rhs_predicate("T-CHAIN", _flags(spec)), spec


def test_rhs_chain_third_family_is_vacuous_on_samples():
    """No small group satisfies the third chain family: a faithful action of
    an exponent-2 group of rank >= 2 on C3 is impossible, so some order-2
    element would centralize the Sylow-3 and create an order-6 element."""
    for spec in ("A4", "D6", "C2xC6", "S4", "E2^2", "C12", "S3"):
        assert not chain_third_family(_flags(spec)), spec


def test_rhs_chain_third_family_is_empty():
    """The key step of the proof in `rhs_chain`'s docstring: S3 x E2^s has
    order 3*2^(s+1), a normal Sylow-3 and a non-cyclic exponent-2 Sylow-2,
    and an involution centralizing the Sylow-3 gives an element of order 6,
    so the group is not EPO."""
    s3 = build_group("S3")
    for s in (1, 2, 3):
        g = direct_product(s3, build_group(f"E2^{s}"))
        f = compute_structure_flags(g)
        assert f.order == 3 * 2 ** (s + 1), s
        assert f.normal_sylow[3] and f.sylow_exponent[2] == 2, s
        assert not f.sylow_cyclic[2], s
        assert 6 in g.element_orders(), s
        assert not f.is_epo and not rhs_chain(f), s


def test_rhs_p5_nilpotent():
    for spec in ("C16", "Q8", "E3^2", "C12", "C48", "C1"):
        assert rhs_predicate("T-P5-NILP", _flags(spec)), spec
    for spec in ("C36", "C100", "C2xC6", "C4xC9"):
        assert not rhs_predicate("T-P5-NILP", _flags(spec)), spec
    # the two nilpotent P5 statements coincide
    for spec in ("C16", "C12", "C36", "C2xC6", "Q8"):
        assert rhs_predicate("T-P5-NILP", _flags(spec)) == rhs_predicate(
            "T-P5P5B-NILP", _flags(spec)
        )


def test_rhs_product():
    def product_rhs(a, b):
        return rhs_predicate("T-P5P5B-PRODUCT", _flags(a), _flags(b))

    assert product_rhs("C4", "C3")
    assert product_rhs("C3", "C4")  # symmetric
    assert product_rhs("C8", "C8")  # same prime
    assert product_rhs("C4", "S3")  # two-prime partner with normal Sylow-3
    assert product_rhs("C9", "SD(7,3,2)")
    assert not product_rhs("C4", "C9")
    assert not product_rhs("C6", "C6")
    assert not product_rhs("C9", "SD(3,2,2)")  # Sylow-2 of S3 is not normal
    assert not product_rhs("C7", "SD(7,3,2)")  # Sylow-3 of F21 is not normal
    assert not product_rhs("E2^2", "C3")  # left factor not cyclic


def test_rhs_symmetric_and_alternating():
    assert rhs_symmetric(_flags("S2"))
    assert rhs_symmetric(_flags("S5"))
    assert not rhs_symmetric(_flags("S6"))
    assert not rhs_symmetric(_flags("S7"))
    with pytest.raises(ValueError):
        rhs_symmetric(_flags("C10"))  # 10 is not a factorial

    assert rhs_alternating(_flags("A3"))
    assert rhs_alternating(_flags("A4"))
    assert rhs_alternating(_flags("A6"))
    assert not rhs_alternating(_flags("A7"))
    with pytest.raises(ValueError):
        rhs_alternating(_flags("C10"))


def test_psl2_side_numbers():
    assert psl2_side_numbers(4) == (3, 5)
    assert psl2_side_numbers(8) == (7, 9)
    assert psl2_side_numbers(5) == (2, 3)
    assert psl2_side_numbers(7) == (3, 4)
    assert psl2_side_numbers(9) == (4, 5)
    assert psl2_side_numbers(13) == (6, 7)
    with pytest.raises(ValueError):
        psl2_side_numbers(6)


def test_rhs_psl2():
    for q in (4, 5, 7, 8, 9, 11, 13):
        assert rhs_psl2(q), q
    # (71 +- 1)/2 = (35, 36); 36 = 2^2 * 3^2 is not admissible
    assert not rhs_psl2(71)
    assert rhs_predicate("T-PSL2", 7)


def test_sz_side_numbers():
    assert sz_side_numbers(8) == (7, 5, 13)
    assert sz_side_numbers(32) == (31, 25, 41)
    assert sz_side_numbers(128) == (127, 113, 145)
    for bad in (2, 4, 16, 64, 7, 24):
        with pytest.raises(ValueError):
            sz_side_numbers(bad)


def test_rhs_sz():
    assert rhs_sz(8)
    assert rhs_sz(32)
    assert rhs_predicate("T-SZ", 8)


def test_rhs_p2p3_nilpotent():
    for spec in ("C16", "Q16", "C12", "C48", "C2xC6", "E2^3", "E2^3xC3"):
        assert rhs_predicate("T-P2P3-NILP", _flags(spec)), spec
    # E2^2xC9 sits just past the boundary: the Sylow-3 must have order 3
    for spec in ("C36", "C100", "C30", "C4xC9", "E2^2xC9"):
        assert not rhs_predicate("T-P2P3-NILP", _flags(spec)), spec


def test_rhs_p2p3_nonnilpotent():
    # S4, A6, SD(5,4,2) count as positives: their element orders are all
    # prime powers even though the groups are far from nilpotent
    positives = ("A4", "S3", "SD(7,3,2)", "A5", "D6", "SD(15,2,14)",
                 "S4", "A6", "SD(5,4,2)", "D5", "SD(9,2,8)",
                 # two-prime non-EPPO boundary: Sylow-3 of order 9 is fine
                 # exactly when the exponent-2 Sylow has order 4
                 "SD(9,2,8)xC2")
    for spec in positives:
        assert rhs_predicate("T-P2P3-NONNILP", _flags(spec)), spec
    for spec in ("S5", "S6", "A7", "SD(5,4,4)", "SD(9,2,8)xE2^2"):
        assert not rhs_predicate("T-P2P3-NONNILP", _flags(spec)), spec


def test_rhs_diamond():
    for spec in ("Q16", "E3^2", "A5", "SD(7,3,2)", "A4", "C4", "S4"):
        assert rhs_predicate("T-DIAMOND", _flags(spec)), spec
        assert rhs_predicate("T-EVENHOLE-DIAMOND", _flags(spec)), spec
    for spec in ("C6", "C12", "D6", "C2xC6"):
        assert not rhs_predicate("T-DIAMOND", _flags(spec)), spec
        assert not rhs_predicate("T-EVENHOLE-DIAMOND", _flags(spec)), spec


def test_rhs_diamond_codiamond():
    for spec in ("C8", "E2^3", "C1", "C2"):
        assert rhs_predicate("T-DIAMOND-CODIAMOND", _flags(spec)), spec
    for spec in ("Q8", "C12", "S3", "C3xC3"):
        assert not rhs_predicate("T-DIAMOND-CODIAMOND", _flags(spec)), spec


def test_rhs_preliminaries():
    assert rhs_predicate("S-COGRAPH-NULLPRIME", _flags("A5"))
    assert rhs_predicate("S-COGRAPH-NULLPRIME", _flags("C6"))  # constant truth

    for spec in ("C12", "C2xC6", "Q8", "C48"):
        assert rhs_predicate("S-CHORDAL-NILP", _flags(spec)), spec
    for spec in ("C36", "C100", "C4xC9"):
        assert not rhs_predicate("S-CHORDAL-NILP", _flags(spec)), spec

    for spec in ("C6", "C15", "Q16", "C5"):
        assert rhs_predicate("S-COGRAPH-NILP", _flags(spec)), spec
    for spec in ("C12", "C2xC6", "C36"):
        assert not rhs_predicate("S-COGRAPH-NILP", _flags(spec)), spec


def test_rhs_dispatcher_validation():
    assert len(THEOREM_IDS) == 16
    assert len(set(THEOREM_IDS)) == 16
    with pytest.raises(ValueError):
        rhs_predicate("T-BOGUS", _flags("C2"))
    # group arguments are accepted directly and converted to flags
    assert rhs_predicate("T-CHAIN", build_group("C3"))
    assert rhs_predicate("T-P5P5B-PRODUCT", build_group("C4"), build_group("C3"))
