import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pirbatch import linalg
from pirbatch.gf import Field
from pirbatch.mpoly import Poly, count_degree, monomials_up_to_degree, univariate
from pirbatch.multiplicity import (
    MultCodeParams,
    MultCodeword,
    code_points,
    code_profile,
    encode_poly,
    line_samples,
    params_from_descriptor,
    symbol_slots,
    systematic_encode,
    systematic_view,
    to_descriptor,
)
from tests.test_mpoly import random_poly


def params(m, d, s, q):
    return MultCodeParams(field=Field.from_order(q), m=m, d=d, s=s)


def test_encode_reed_solomon():
    ps = params(1, 1, 1, 3)
    cw = encode_poly(ps, univariate(ps.field, [1, 1]))  # x + 1
    assert cw.base_values() == [1, 2, 0]


def test_encode_zero():
    ps = params(2, 2, 2, 7)
    cw = encode_poly(ps, Poly.zero(ps.field, 2))
    assert all(v == 0 for v in cw.base_values())


def test_encode_symbol_with_derivative():
    ps = params(2, 2, 1, 5)
    cw = encode_poly(ps, univariate(ps.field, [1, 0, 1]))  # t^2 + 1
    assert cw[(1,)] == (2, 2)


def test_encode_degree_overflow():
    ps = params(1, 1, 1, 3)
    with pytest.raises(ValueError):
        encode_poly(ps, univariate(ps.field, [0, 0, 1]))


def test_encode_linearity_random():
    ps = params(2, 2, 2, 7)
    f = ps.field
    rng = random.Random(5)
    for _ in range(10):
        P = random_poly(f, 2, 2, rng)
        Q = random_poly(f, 2, 2, rng)
        a, b = rng.randrange(7), rng.randrange(7)
        lhs = encode_poly(ps, P.scale(a) + Q.scale(b)).base_values()
        rhs1 = encode_poly(ps, P).base_values()
        rhs2 = encode_poly(ps, Q).base_values()
        assert lhs == [f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(rhs1, rhs2)]


def test_injectivity_guard():
    with pytest.raises(ValueError):
        params(1, 3, 1, 3)  # d >= m*q


def test_systematic_reed_solomon():
    ps = params(1, 1, 1, 3)
    view = systematic_view(ps)
    assert view.info_positions == (0, 1)  # evaluation points 0 and 1
    cw = systematic_encode(view, [1, 2])
    assert cw.base_values() == [1, 2, 0]


def test_systematic_roundtrip_random():
    ps = params(2, 2, 2, 7)
    view = systematic_view(ps)
    rng = random.Random(9)
    for _ in range(10):
        P = random_poly(ps.field, 2, 2, rng)
        cw = encode_poly(ps, P)
        values = cw.base_values()
        info = [values[j] for j in view.info_positions]
        assert systematic_encode(view, info) == cw
    zero = systematic_encode(view, [0] * ps.base_dim)
    assert all(v == 0 for v in zero.base_values())


def test_systematic_info_positions_identity():
    for ps in (params(2, 2, 2, 7), params(2, 4, 2, 11), params(1, 2, 1, 5)):
        view = systematic_view(ps)
        rng = random.Random(ps.q)
        info = [rng.randrange(ps.q) for _ in range(ps.base_dim)]
        values = systematic_encode(view, info).base_values()
        assert [values[j] for j in view.info_positions] == info


# (m, d, s, q) over GF(p) and GF(4), GF(8), GF(9) with s in {1, 2, 3}, at
# most 125 points and 40 information symbols
SMALL_CODES = [(m, d, s, q)
               for q, s, m in itertools.product([2, 3, 5, 7, 4, 8, 9], (1, 2, 3), (1, 2, 3))
               if q ** s <= 125
               for d in range(m * q) if count_degree(s, d) <= 40]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(code=st.sampled_from(SMALL_CODES), seed=st.integers(0, 2 ** 32))
def test_compiled_systematic_encode_matches_encode_poly(code, seed):
    ps, rng = params(*code), random.Random(seed)
    view = systematic_view(ps)
    info = [rng.choice([0, rng.randrange(ps.q)]) for _ in range(ps.base_dim)]
    # the polynomial through info: coefficients info @ transform
    coeffs = linalg.matmul(ps.field, [info], view.transform)[0]
    P = Poly(ps.field, ps.s, dict(zip(monomials_up_to_degree(ps.s, ps.d), coeffs)))
    cw = systematic_encode(view, info)
    assert cw == encode_poly(ps, P)
    values = cw.base_values()
    assert [values[j] for j in view.info_positions] == info


def line_restriction_oracle(P, w0, v):
    """Substitute x = w0 + t*v symbolically; returns a univariate Poly."""
    f = P.field
    out = Poly.zero(f, 1)
    for exps, c in P.terms.items():
        term = Poly.constant(f, 1, c)
        for w_t, v_t, e in zip(w0, v, exps):
            lin = Poly(f, 1, {(0,): w_t, (1,): v_t})
            term = term * lin ** e
        out = out + term
    return out


def test_line_samples_against_symbolic_restriction():
    from pirbatch.mpoly import order_m_evaluation

    ps = params(2, 2, 2, 7)
    rng = random.Random(21)
    for _ in range(5):
        P = random_poly(ps.field, 2, 2, rng)
        cw = encode_poly(ps, P)
        w0 = (rng.randrange(7), rng.randrange(7))
        v = (rng.randrange(7), 1)
        restricted = line_restriction_oracle(P, w0, v)
        for lam, ev in line_samples(cw, w0, v):
            assert ev == order_m_evaluation(restricted, (lam,), 2)


def test_line_samples_plain_and_zero():
    ps = params(1, 1, 1, 5)
    P = univariate(ps.field, [2, 3])
    cw = encode_poly(ps, P)
    samples = line_samples(cw, (0,), (1,))
    assert samples == [(lam, (P.evaluate((lam,)),)) for lam in range(1, 5)]
    zero = encode_poly(ps, Poly.zero(ps.field, 1))
    assert all(ev == (0,) for _, ev in line_samples(zero, (0,), (1,)))


def test_line_samples_drops():
    ps = params(2, 2, 2, 7)
    cw = encode_poly(ps, Poly.zero(ps.field, 2))
    got = line_samples(cw, (0, 0), (1, 1), drops=frozenset({2, 5}))
    assert [lam for lam, _ in got] == [1, 3, 4, 6]
    with pytest.raises(ValueError):
        line_samples(cw, (0, 0), (1, 1), drops=frozenset({0}))
    with pytest.raises(ValueError):
        line_samples(cw, (0, 0), (0, 0))


def test_code_profile():
    prof = code_profile(params(2, 2, 2, 7))
    assert prof["N"] == 49
    assert prof["k_pir"] == 3
    assert prof["distance_bound"] == 42
    assert prof["n"] == Fraction(6, 3) == 2
    assert prof["n_base"] == 6
    assert prof["Q"] == 7 ** 3


def test_descriptor_roundtrip():
    ps = params(2, 4, 2, 11)
    desc = to_descriptor(ps)
    assert desc == {"family": "multiplicity", "m": 2, "d": 4, "s": 2,
                    "q": 11, "modulus": [0, 1]}
    assert params_from_descriptor(desc) == ps


def test_codeword_layout():
    ps = params(2, 2, 2, 7)
    pts = code_points(ps)
    assert pts[0] == (0, 0) and pts[1] == (0, 1) and pts[7] == (1, 0)
    assert symbol_slots(ps)[(1, 0)][2] == 7 * 3 + 2
    cw = encode_poly(ps, Poly(ps.field, 2, {(1, 0): 1}))
    assert cw.base_values()[symbol_slots(ps)[(3, 5)][0]] == 3
    again = MultCodeword.from_base_values(ps, cw.base_values())
    assert again == cw
