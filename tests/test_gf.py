import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pirbatch import gf, linalg
from pirbatch.gf import CapacityError, Field, is_prime, smallest_prime_above

PRIME_POWERS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                      29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def gf4_mul_oracle(a, b):
    # carry-less multiply then reduce by x^2 + x + 1, all over GF(2)
    prod = 0
    for i in range(2):
        if (b >> i) & 1:
            prod ^= a << i
    for i in (3, 2):
        if (prod >> i) & 1:
            prod ^= 0b111 << (i - 2)
    return prod


def test_prime_field_add():
    f = Field(7)
    assert f.add(3, 5) == 1


def test_prime_field_inverse_matches_search():
    f = Field(7)
    expected = next(x for x in range(1, 7) if 3 * x % 7 == 1)
    assert expected == 5
    assert f.inv(3) == 5


def test_gf4_square_of_x():
    f = Field(2, 2, modulus=[1, 1, 1])
    x = f.from_coeffs((0, 1))
    assert f.mul(x, x) == f.from_coeffs((1, 1))  # x*x = x + 1


def test_gf4_mul_matches_reduction_oracle():
    f = Field(2, 2, modulus=[1, 1, 1])
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == gf4_mul_oracle(a, b)


def test_enumerate_order():
    assert Field(3).elements() == [0, 1, 2]
    assert Field(2).elements() == [0, 1]
    f4 = Field.from_order(4)
    assert f4.elements() == [0, 1, 2, 3]
    # 0, 1, x, x+1 in coefficient form
    assert [f4.coeffs(a) for a in f4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_from_order_builds_each_field_once():
    assert Field.from_order(8) is Field.from_order(8)
    assert Field.from_order(9, modulus=[1, 0, 1]) is Field.from_order(9, modulus=(1, 0, 1))
    assert Field.from_order(9, modulus=[2, 2, 1]) != Field.from_order(9)
    with pytest.raises(ValueError):
        Field.from_order(6)


def test_smallest_prime_above():
    assert smallest_prime_above(72) == 73
    assert smallest_prime_above(1) == 2
    k, r = 2, 3
    assert smallest_prime_above(2 * k**2 * r**2) == 73


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_capacity_guard():
    with pytest.raises(CapacityError):
        Field(2, 17)


def test_invalid_characteristic_and_modulus():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(2, 2, modulus=[0, 0, 1])  # x^2 is reducible
    with pytest.raises(ValueError):
        Field(2, 2, modulus=[1, 1])  # wrong length


def test_zero_inverse_rejected():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        Field.from_order(9).inv(0)


def test_default_moduli_are_conventional():
    assert Field.from_order(4).modulus == (1, 1, 1)     # x^2+x+1
    assert Field.from_order(8).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert Field.from_order(9).modulus == (1, 0, 1)     # x^2+1


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_field_axioms_exhaustive(q):
    f = Field.from_order(q)
    mul = [[f.mul(a, b) for b in range(q)] for a in range(q)]
    add = [[f.add(a, b) for b in range(q)] for a in range(q)]
    els = range(q)
    # commutativity and identities
    for a in els:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        for b in els:
            assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
    # associativity and distributivity
    for a in els:
        for b in els:
            ab_add, ab_mul = add[a][b], mul[a][b]
            for c in els:
                assert add[ab_add][c] == add[a][add[b][c]]
                assert mul[ab_mul][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[ab_mul][mul[a][c]]
    # unique additive and multiplicative inverses
    for a in els:
        assert sum(1 for b in els if add[a][b] == 0) == 1
        if a:
            invs = [b for b in els if mul[a][b] == 1]
            assert invs == [f.inv(a)]


@pytest.mark.parametrize("q", [2, 5, 8, 9, 16, 49])
def test_enumerate_no_duplicates_nonzero_differences(q):
    f = Field.from_order(q)
    els = f.elements()
    assert len(set(els)) == q
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            assert f.sub(a, b) != 0


def test_pow_and_div():
    f = Field.from_order(16)
    for a in range(1, 16):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, 15) == 1  # multiplicative group order
        assert f.div(f.mul(a, 7), 7) == a
    assert f.pow(0, 0) == 1
    assert f.pow(5, -1) == f.inv(5)


def test_coeffs_roundtrip():
    f = Field(3, 2)
    for a in range(9):
        assert f.from_coeffs(f.coeffs(a)) == a
    with pytest.raises(ValueError):
        f.coeffs(9)
    with pytest.raises(ValueError):
        f.from_coeffs((3, 0))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 11, 25, 27, 64, 81])
def test_vectorised_add_and_multiply_match_the_field(q):
    f = Field.from_order(q)
    a, b = (x.ravel() for x in gf.np.meshgrid(range(q), range(q)))
    assert gf.add(f, a, b).tolist() == list(map(f.add, a.tolist(), b.tolist()))
    assert gf.multiply(f, a, b).tolist() == list(map(f.mul, a.tolist(), b.tolist()))


def _reference(fld, a, b):
    """a @ b through the pure-Python `linalg.matmul` and `matvec`, with
    numpy's shape rules for vectors and stacks of matrices."""
    if isinstance(a[0], list) and isinstance(a[0][0], list):  # a stack
        return [_reference(fld, x, y) for x, y in zip(a, b)]
    if not isinstance(a[0], list):
        return _reference(fld, [a], b)[0]
    if not isinstance(b[0], list):
        return linalg.matvec(fld, a, b)
    return linalg.matmul(fld, a, b)


def _presented(fld, x, how):
    """x as a caller may pass it: a list, an int64 array, the read-only
    narrow array a code keeps, or a transposed view of a stored array."""
    if how == "list":
        return x
    if how == "int64":
        return gf.np.array(x)
    if how == "narrow":
        return gf.narrow(fld, x)
    # a transposed view of a contiguous copy of the transposed entries
    x = gf.narrow(fld, x)
    return x.swapaxes(-1, -2).copy().swapaxes(-1, -2) if x.ndim > 1 else x


@st.composite
def _products(draw):
    p = draw(st.sampled_from([2, 3, 11, 263]))
    # entries forced to p - 1 reach the bound (p - 1)^2 * inner
    entries = st.just(p - 1) if draw(st.booleans()) else st.integers(0, p - 1)
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    kind = draw(st.sampled_from(["matrix", "vector-matrix", "matrix-vector",
                                 "stack"]))

    def block(shape):
        if not shape:
            return draw(entries)
        return [block(shape[1:]) for _ in range(shape[0])]

    stack = (draw(st.integers(1, 4)),) if kind == "stack" else ()
    a = block(stack + ((inner,) if kind == "vector-matrix" else (rows, inner)))
    b = block(stack + ((inner,) if kind == "matrix-vector" else (inner, cols)))
    return Field(p), a, b


PRESENTATIONS = ["list", "int64", "narrow", "transposed"]


@settings(max_examples=200, deadline=None)
@given(_products(), st.sampled_from(PRESENTATIONS), st.sampled_from(PRESENTATIONS))
def test_prime_field_matmul_is_exact(product, how_a, how_b):
    fld, a, b = product
    out = gf.matmul(fld, _presented(fld, a, how_a), _presented(fld, b, how_b))
    assert out.dtype == gf.np.int64
    assert out.tolist() == _reference(fld, a, b)


@pytest.mark.parametrize("p, inner", [(4093, 1), (4093, 2), (4093, 3),
                                      (65521, 1), (65521, 2), (65521, 5)])
def test_prime_field_matmul_is_exact_at_the_float_edges(p, inner):
    # (p - 1)^2 * inner: 4093 with inner 1 is just below 2^24, so float32;
    # inner 2 is above it and 65521 is above it from inner 1, so float64.
    # Every row of large entries meets every column, and some of those
    # sums are odd and above 2^24, which float32 would round.
    fld = Field(p)
    a = [list(r) for r in itertools.product([p - 1, p - 2, p - 3, 1], repeat=inner)]
    b = [list(c) for c in zip(*a)]
    want = [[sum(x * y for x, y in zip(r, c)) % p for c in a] for r in a]
    out = gf.matmul(fld, gf.narrow(fld, a), gf.narrow(fld, b))
    assert out.dtype == gf.np.int64
    assert out.tolist() == want
    # a stack of the rows against one column each, as a read multiplies
    column = gf.np.array(b)[None, :, :1]
    assert gf.matmul(fld, gf.np.array(a)[:, None, :], column).ravel().tolist() \
        == [row[0] for row in want]


@pytest.mark.parametrize("inner", [(1 << 21) - 1, (1 << 21) + (1 << 11) + 1])
def test_prime_field_matmul_is_exact_on_both_sides_of_the_float64_bound(inner):
    # p - 1 everywhere but a last 1: the sum (inner - 1) * (p - 1)^2 + 1 is
    # below 2^53 for the first inner, where the product runs in float64,
    # and above it, and odd, for the second, which float64 cannot hold, so
    # the product must run in int64
    p = 65521
    fld = Field(p)
    a = gf.np.full(inner, p - 1, dtype=gf.np.uint16)
    a[-1] = 1
    out = gf.matmul(fld, a, a[:, None])
    assert out.dtype == gf.np.int64
    assert out.tolist() == [((inner - 1) * (p - 1) ** 2 + 1) % p]


# Extension fields multiply through one log/antilog table pair; these
# fields span p = 2 and odd p, sizes on both sides of 64, and a modulus,
# x^4 + x^3 + x^2 + x + 1, whose root x has order 5, so the tables'
# primitive element is not x.
TABLE_FIELDS = [Field.from_order(q) for q in (4, 8, 9, 16, 25, 27, 81, 128, 256)]
TABLE_FIELDS.append(Field(2, 4, modulus=[1, 1, 1, 1, 1]))


def test_the_non_primitive_modulus_has_a_root_of_order_5():
    f = TABLE_FIELDS[-1]
    x = f.from_coeffs((0, 1, 0, 0))
    powers = [1]
    for _ in range(5):
        powers.append(f._mul_raw(powers[-1], x))
    assert powers[5] == 1 and 1 not in powers[1:5]


def _tables_by_products(f):
    """The log tables built with one `_mul_raw` product per power of each
    candidate, the definition the table build must match."""
    q = f.q
    for g in range(2, q):
        antilog, x = [1], g
        while x != 1:
            antilog.append(x)
            x = f._mul_raw(x, g)
        if len(antilog) == q - 1:
            break
    log = [2 * (q - 1)] * q
    for i, x in enumerate(antilog):
        log[x] = i
    return log, antilog * 2 + [0] * (2 * q - 1)


# GF(4) .. GF(256), GF(3^9), and the modulus whose root x is not primitive
TABLE_BUILD_FIELDS = [Field(2, e) for e in range(2, 9)] + [Field(3, 9), TABLE_FIELDS[-1]]


@pytest.mark.parametrize("f", TABLE_BUILD_FIELDS, ids=repr)
def test_the_table_build_matches_the_polynomial_products(f):
    f = Field(f.p, f.e, f.modulus)  # a fresh field, whose tables are not built yet
    assert f._tables == _tables_by_products(f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (2, 5), (3, 2), (3, 4), (5, 3), (7, 2)]),
       st.data())
def test_the_table_build_matches_under_any_irreducible_modulus(shape, data):
    p, e = shape
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e), label="low")
    assume(gf._is_irreducible((*low, 1), p))
    f = Field(p, e, modulus=[*low, 1])
    assert f._tables == _tables_by_products(f)


def test_the_table_build_finds_the_first_primitive_element_past_x():
    f = Field(2, 4, modulus=[1, 1, 1, 1, 1])
    log, antilog = f._tables
    assert antilog[1] == 3 and sorted(antilog[:15]) == list(range(1, 16))


@pytest.mark.parametrize("f", TABLE_BUILD_FIELDS, ids=repr)
def test_the_table_build_lists_the_powers_of_one_element(f, monkeypatch):
    # candidates are tested through the prime factors of q - 1, so only the
    # primitive element found has its powers listed
    f = Field(f.p, f.e, f.modulus)
    listed = []
    powers = Field._powers
    monkeypatch.setattr(Field, "_powers", lambda self, g: listed.append(g) or powers(self, g))
    assert f._tables == _tables_by_products(f) and listed == [f._tables[1][1]]


def _elements(f):
    """Elements of f, with 0 and 1 drawn often."""
    return st.sampled_from([0, 1]) | st.integers(0, f.q - 1)


@st.composite
def _field_and_element(draw):
    f = draw(st.sampled_from(TABLE_FIELDS))
    return f, draw(_elements(f))


@settings(max_examples=300, deadline=None)
@given(_field_and_element(), st.data())
def test_scalar_mul_and_inv_match_the_polynomial_product(fa, data):
    f, a = fa
    b = data.draw(_elements(f))
    assert f.mul(a, b) == f._mul_raw(a, b)
    if a:
        assert f._mul_raw(f.inv(a), a) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            f.inv(a)


@settings(max_examples=200, deadline=None)
@given(_field_and_element(), st.data())
def test_scalar_pow_matches_repeated_products(fa, data):
    f, a = fa
    n = data.draw(st.integers(-3, 2 * f.q))
    if a == 0 and n < 0:
        with pytest.raises(ZeroDivisionError):
            f.pow(a, n)
        return
    want = 1
    for _ in range(abs(n)):
        want = f._mul_raw(want, a)
    if n >= 0:
        assert f.pow(a, n) == want
    else:
        assert f._mul_raw(f.pow(a, n), want) == 1
    assert f.pow(0, 0) == 1
    assert f.pow(0, abs(n) + 1) == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TABLE_FIELDS), st.data())
def test_vectorised_multiply_broadcasts_as_the_scalar_product(f, data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entries = _elements(f)
    a = data.draw(st.lists(st.lists(entries, min_size=1, max_size=1),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    want = [[f.mul(x[0], y) for y in b] for x in a]
    for how in ("int64", "narrow"):
        out = gf.multiply(f, _presented(f, a, how), _presented(f, b, how))
        assert out.dtype == gf.np.int64
        assert out.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([f for f in TABLE_FIELDS if f.q > 64]), st.data())
def test_extension_field_matmul_above_64_matches_the_list_product(f, data):
    rows, inner, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
    entries = _elements(f)
    a = data.draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=inner, max_size=inner))
    how = data.draw(st.sampled_from(PRESENTATIONS))
    assert gf.matmul(f, _presented(f, a, how), _presented(f, b, how)).tolist() \
        == linalg.matmul(f, a, b)


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=repr)
def test_a_field_with_built_tables_survives_pickling(f):
    f.mul(1, 1)
    assert "_tables" in vars(f)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g is not f
    pairs = [(a, b) for a in range(f.q) for b in range(0, f.q, 7)]
    assert [g.mul(a, b) for a, b in pairs] == [f._mul_raw(a, b) for a, b in pairs]
    assert [g.inv(a) for a in range(1, f.q)] == [f.inv(a) for a in range(1, f.q)]


def test_threads_that_build_the_tables_at_once_agree():
    f = Field(2, 8)  # a fresh instance, so its tables are not built yet
    pairs = [(a, b) for a in range(0, 256, 3) for b in range(0, 256, 5)]
    want = [f._mul_raw(a, b) for a, b in pairs]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            [f.mul(a, b) for a, b in pairs])) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 4
