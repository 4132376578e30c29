import math

import pytest

from pglab import build_group, direct_product
from pglab.constructors import (
    AtomSpec,
    GroupSpecError,
    ProductSpec,
    construct_psl2,
    construct_sl2,
    parse_group_spec,
    spec_label,
)
from pglab.group_kernel import CapExceededError
from naive_oracle import element_order_profile

# -- spec parsing ----------------------------------------------------------------


def test_parse_atoms():
    assert parse_group_spec("C12") == AtomSpec("C", (12,))
    assert parse_group_spec("D6") == AtomSpec("D", (6,))
    assert parse_group_spec("S5") == AtomSpec("S", (5,))
    assert parse_group_spec("A7") == AtomSpec("A", (7,))
    assert parse_group_spec("Q16") == AtomSpec("Q", (16,))
    assert parse_group_spec("E2^3") == AtomSpec("E", (2, 3))
    assert parse_group_spec("PSL(2,7)") == AtomSpec("PSL2", (7,))
    assert parse_group_spec("SL(2,5)") == AtomSpec("SL2", (5,))
    assert parse_group_spec("SD(7,3,2)") == AtomSpec("SD", (7, 3, 2))


def test_parse_products_right_associative():
    assert parse_group_spec("C2xC3") == ProductSpec(
        AtomSpec("C", (2,)), AtomSpec("C", (3,))
    )
    assert parse_group_spec("C2xC3xC5") == ProductSpec(
        AtomSpec("C", (2,)),
        ProductSpec(AtomSpec("C", (3,)), AtomSpec("C", (5,))),
    )
    assert parse_group_spec("E2^3xC9") == ProductSpec(
        AtomSpec("E", (2, 3)), AtomSpec("C", (9,))
    )


def test_parse_tolerates_whitespace():
    assert parse_group_spec(" C 12 ") == AtomSpec("C", (12,))
    assert parse_group_spec("SD( 7, 3 , 2 )") == AtomSpec("SD", (7, 3, 2))


@pytest.mark.parametrize(
    "bad", ["", "C", "X5", "C3x", "xC3", "SD(7,3)", "PSL(3,4)", "E2", "C12junk", "PSL(2,)"]
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_spec_label_roundtrip():
    for text in ("C12", "E2^3", "PSL(2,7)", "SD(7,3,2)", "C2xC3xC5", "E2^2xC9"):
        spec = parse_group_spec(text)
        assert parse_group_spec(spec_label(spec)) == spec


def test_build_group_accepts_spec_or_text():
    assert build_group("C6").order == 6
    assert build_group(AtomSpec("C", (6,))).order == 6


# -- orders of the standard families -----------------------------------------------


def test_family_orders():
    assert [build_group(f"D{n}").order for n in range(3, 9)] == [6, 8, 10, 12, 14, 16]
    assert [build_group(f"S{n}").order for n in range(1, 8)] == [
        math.factorial(n) for n in range(1, 8)
    ]
    assert [build_group(f"A{n}").order for n in range(1, 8)] == [
        1, 1, 3, 12, 60, 360, 2520
    ]
    assert build_group("Q8").order == 8
    assert build_group("Q32").order == 32
    assert build_group("E3^2").order == 9
    assert build_group("SD(5,4,2)").order == 20


def test_matrix_group_orders():
    assert construct_sl2(2).order == 6
    assert construct_sl2(3).order == 24
    assert construct_sl2(5).order == 120
    assert construct_psl2(3).order == 12
    assert construct_psl2(4).order == 60
    assert construct_psl2(5).order == 60
    assert construct_psl2(7).order == 168
    assert build_group("PSL(2,9)").order == 360


# -- order profiles against known values ----------------------------------------------


def test_known_order_profiles():
    assert element_order_profile(build_group("S3")) == {1: 1, 2: 3, 3: 2}
    assert element_order_profile(build_group("Q8")) == {1: 1, 2: 1, 4: 6}
    assert element_order_profile(build_group("D5")) == {1: 1, 2: 5, 5: 4}
    assert element_order_profile(build_group("SD(7,3,2)")) == {1: 1, 3: 14, 7: 6}
    assert element_order_profile(build_group("A4")) == {1: 1, 2: 3, 3: 8}
    assert element_order_profile(build_group("PSL(2,7)")) == {
        1: 1, 2: 21, 3: 56, 4: 42, 7: 48
    }


def test_psl2_small_isomorphism_profiles():
    """PSL(2,4) and PSL(2,5) both realize A5; PSL(2,9) realizes A6."""
    a5 = element_order_profile(build_group("A5"))
    assert element_order_profile(build_group("PSL(2,4)")) == a5
    assert element_order_profile(build_group("PSL(2,5)")) == a5
    a6 = element_order_profile(build_group("A6"))
    assert element_order_profile(build_group("PSL(2,9)")) == a6


def test_semidirect_with_trivial_twist_is_direct():
    assert (
        element_order_profile(build_group("SD(5,4,1)"))
        == element_order_profile(build_group("C20"))
    )


def test_sd_small_coincidences():
    assert (
        element_order_profile(build_group("SD(3,2,2)"))
        == element_order_profile(build_group("S3"))
    )
    assert (
        element_order_profile(build_group("SD(15,2,14)"))
        == element_order_profile(build_group("D15"))
    )


# -- direct products --------------------------------------------------------------


def test_direct_product_structure():
    g = build_group("C2xC3")
    assert g.order == 6
    assert g.label == "C2xC3"
    assert element_order_profile(g) == element_order_profile(build_group("C6"))


def test_direct_product_profile_convolution():
    """o((a,b)) = lcm(o(a), o(b)), so the profile is a convolution."""
    a = build_group("C4")
    b = build_group("S3")
    prod = direct_product(a, b)
    expected = {}
    for oa, ca in element_order_profile(a).items():
        for ob, cb in element_order_profile(b).items():
            o = math.lcm(oa, ob)
            expected[o] = expected.get(o, 0) + ca * cb
    assert element_order_profile(prod) == dict(sorted(expected.items()))


def test_product_render_pairs():
    g = build_group("C2xC3")
    labels = {g.render(i) for i in range(6)}
    assert "(0,0)" in labels
    assert "(1,2)" in labels


# -- constructor validation ---------------------------------------------------------


def test_constructor_rejections():
    with pytest.raises(ValueError):
        build_group("D2")  # dihedral needs n >= 3
    with pytest.raises(ValueError):
        build_group("S8")  # beyond the supported symmetric range
    with pytest.raises(ValueError):
        build_group("A8")
    with pytest.raises(ValueError):
        build_group("Q12")  # not a power of two
    with pytest.raises(ValueError):
        build_group("Q4")  # too small
    with pytest.raises(ValueError):
        build_group("E4^2")  # 4 is not prime
    with pytest.raises(ValueError):
        build_group("SD(5,2,2)")  # 2^2 != 1 mod 5
    with pytest.raises(ValueError):
        build_group("SD(4,2,2)")  # gcd(k, n) != 1
    with pytest.raises(ValueError):
        build_group("PSL(2,6)")  # 6 is not a prime power
    with pytest.raises(CapExceededError):
        build_group("C2xC2xC2xC2xC2xC2xC2xC2xC2xC2xC2xC2xC2xC2")  # 2^14


def test_identity_render():
    assert build_group("S4").render(0) == "()"
    assert build_group("C7").render(0) == "0"
    assert build_group("E2^3").render(0) == "(0,0,0)"
    assert build_group("SL(2,3)").render(0) == "[[1,0],[0,1]]"
