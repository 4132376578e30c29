import pytest

from naive_oracle import naive_field_product
from pglab import construct_field, primitive_element
from pglab import finite_field
from pglab.finite_field import FIXED_MODULI, MAX_FIELD_SIZE, index_tables


def _order(mul, a):
    """Multiplicative order of index a, read off the mul table."""
    x, n = a, 1
    while x != 1:
        x, n = mul[x][a], n + 1
    return n


def test_pinned_moduli_are_bit_exact():
    assert construct_field(2, 2).modulus == (1, 1, 1)
    assert construct_field(2, 3).modulus == (1, 1, 0, 1)
    assert construct_field(3, 2).modulus == (1, 0, 1)
    assert construct_field(2, 4).modulus == (1, 1, 0, 0, 1)


def test_search_against_pinned_moduli(monkeypatch):
    """With the table emptied, the irreducible search agrees with the pins
    for GF(4) and GF(9) only; for GF(8) and GF(16) the pins decide."""
    pinned = dict(FIXED_MODULI)
    monkeypatch.setattr(finite_field, "FIXED_MODULI", {})
    found = {pk: construct_field(*pk).modulus for pk in pinned}
    assert found[(2, 2)] == pinned[(2, 2)]
    assert found[(3, 2)] == pinned[(3, 2)]
    assert found[(2, 3)] == (1, 0, 1, 1) != pinned[(2, 3)]  # x^3 + x^2 + 1
    assert found[(2, 4)] == (1, 0, 0, 1, 1) != pinned[(2, 4)]  # x^4 + x^3 + 1
    # every modulus, pinned or found, has no root in GF(p)
    for (p, k), modulus in list(pinned.items()) + list(found.items()):
        for r in range(p):
            assert sum(c * r**i for i, c in enumerate(modulus)) % p != 0


def test_construct_field_is_deterministic():
    assert construct_field(5, 2) == construct_field(5, 2)
    assert construct_field(7, 2).modulus == construct_field(7, 2).modulus


def test_construct_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_field(4, 1)
    with pytest.raises(ValueError):
        construct_field(2, 0)
    with pytest.raises(ValueError):
        construct_field(2, 17)  # 2^17 > MAX_FIELD_SIZE
    assert 2**16 == MAX_FIELD_SIZE


def test_gf4_multiplication_table():
    add, mul, _neg, _inv = index_tables(construct_field(2, 2))
    w, w1 = 2, 3  # x and x + 1
    assert mul[w][w] == w1
    assert mul[w][w1] == 1
    assert mul[w1][w1] == w
    assert add[w][w1] == 1
    assert add[w][w] == 0


def test_gf9_squares_and_inverses():
    _add, mul, _neg, inv = index_tables(construct_field(3, 2))  # modulus x^2 + 1
    x, two, two_x = 3, 2, 6
    assert mul[x][x] == two  # x^2 = -1 = 2
    assert inv[x] == two_x  # 1/x = 2x since x*2x = 2*2 = 1
    assert inv[0] == -1
    # cross-check every inverse against a brute-force scan
    for a in range(1, 9):
        assert [b for b in range(9) if mul[a][b] == 1] == [inv[a]]


def test_gf5_primitive_element():
    spec = construct_field(5, 1)
    g = primitive_element(spec)
    assert g == 2
    assert _order(index_tables(spec)[1], g) == 4


def test_index_tables_match_direct_arithmetic():
    """mul against a schoolbook product; add and neg digit by digit."""
    for p, k in [(2, 3), (3, 2), (5, 2), (2, 5), (3, 3)]:
        spec = construct_field(p, k)
        add, mul, neg, _inv = index_tables(spec)

        def digits(i):
            return [i // p**j % p for j in range(k)]

        for a in range(spec.size):
            assert digits(neg[a]) == [-x % p for x in digits(a)]
            for b in range(spec.size):
                assert mul[a][b] == naive_field_product(spec, a, b)
                assert digits(add[a][b]) == [(x + y) % p for x, y in
                                             zip(digits(a), digits(b))]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    """Full associativity/commutativity/distributivity for q <= 16."""
    spec = construct_field(p, k)
    add, mul, neg, _inv = index_tables(spec)
    q = p**k
    assert len(add) == len(mul) == len(neg) == q
    elems = range(q)
    for a in elems:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][neg[a]] == 0
        for b in elems:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in elems:
                assert mul[a][mul[b][c]] == mul[mul[a][b]][c]
                assert add[a][add[b][c]] == add[add[a][b]][c]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (7, 2), (2, 6), (11, 1), (2, 7)])
def test_units_and_cyclicity_midsize(p, k):
    """Inverses, Fermat, and cyclic multiplicative group for q <= 128."""
    spec = construct_field(p, k)
    _add, mul, _neg, inv = index_tables(spec)
    q = p**k
    assert inv[0] == -1
    orders = []
    for a in range(1, q):
        assert mul[a][inv[a]] == 1
        orders.append(_order(mul, a))
    assert max(orders) == q - 1  # cyclic
    assert all((q - 1) % d == 0 for d in orders)
    g = primitive_element(spec)
    assert _order(mul, g) == q - 1
    assert all(d < q - 1 for d in orders[:g - 1])  # the smallest generator


def test_index_tables_cached():
    spec = construct_field(2, 3)
    assert index_tables(spec) is index_tables(spec)
