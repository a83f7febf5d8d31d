import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirbatch import linalg
from pirbatch.gf import Field
from pirbatch.mpoly import (
    DecodeFailure,
    Poly,
    _hermite_solver,
    count_degree,
    count_monomials,
    hasse_derivative,
    hermite_interpolate,
    homogeneous_interpolate,
    monomials_below,
    monomials_of_weight,
    order_m_evaluation,
    univariate,
)


def random_poly(field, s, d, rng):
    terms = {}
    for exps in itertools.chain.from_iterable(
            monomials_of_weight(s, w) for w in range(d + 1)):
        terms[exps] = rng.randrange(field.q)
    return Poly(field, s, terms)


def shift_oracle(P, z):
    """P(x + z) expanded symbolically by substituting x_t -> x_t + z_t."""
    f = P.field
    out = Poly.zero(f, P.s)
    for exps, c in P.terms.items():
        term = Poly.constant(f, P.s, c)
        for t, e in enumerate(exps):
            lin = Poly(f, P.s, {tuple(1 if i == t else 0 for i in range(P.s)): 1,
                                (0,) * P.s: z[t]})
            term = term * lin ** e
        out = out + term
    return out


def lagrange_oracle(field, xs, ys):
    """Plain Lagrange interpolation, returned as a univariate Poly."""
    acc = Poly.zero(field, 1)
    for xi, yi in zip(xs, ys):
        num = Poly.constant(field, 1, yi)
        for xj in xs:
            if xj == xi:
                continue
            num = num * Poly(field, 1, {(1,): 1, (0,): field.neg(xj)})
            num = num.scale(field.inv(field.sub(xi, xj)))
        acc = acc + num
    return acc


def test_monomial_order():
    assert monomials_below(2, 2) == ((0, 0), (1, 0), (0, 1))
    assert monomials_of_weight(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_below(1, 3) == ((0,), (1,), (2,))


def test_counts():
    assert count_monomials(2, 2) == 3
    assert count_degree(2, 2) == 6
    assert count_monomials(1, 1) == 1
    assert count_monomials(2, 3) == len(monomials_below(2, 3))


def test_evaluate():
    f3 = Field(3)
    p = Poly(f3, 2, {(1, 1): 1})  # x1*x2
    assert p.evaluate((1, 2)) == 2
    assert Poly.zero(f3, 2).evaluate((2, 2)) == 0
    f5 = Field(5)
    q = Poly(f5, 2, {(2, 0): 1, (0, 1): 1})  # x1^2 + x2
    assert q.evaluate((2, 3)) == 2  # 4 + 3 mod 5


def test_evaluate_dimension_mismatch():
    p = Poly(Field(3), 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        p.evaluate((1,))


def test_hasse_examples():
    f5 = Field(5)
    cube = Poly(f5, 1, {(3,): 1})
    assert hasse_derivative(cube, (2,)) == Poly(f5, 1, {(1,): 3})  # 3x
    f2 = Field(2)
    sq = Poly(f2, 1, {(2,): 1})
    assert hasse_derivative(sq, (1,)).is_zero()
    p = Poly(f5, 2, {(2, 1): 4, (0, 0): 1})
    assert hasse_derivative(p, (0, 0)) == p


def test_hasse_linearity_random():
    rng = random.Random(7)
    f = Field(7)
    for _ in range(25):
        P = random_poly(f, 2, 3, rng)
        Q = random_poly(f, 2, 3, rng)
        a, b = rng.randrange(7), rng.randrange(7)
        for i in monomials_below(2, 3):
            lhs = hasse_derivative(P.scale(a) + Q.scale(b), i)
            rhs = hasse_derivative(P, i).scale(a) + hasse_derivative(Q, i).scale(b)
            assert lhs == rhs


@pytest.mark.parametrize("q,s,d", [(2, 2, 3), (3, 2, 4), (5, 2, 4), (5, 3, 3), (7, 3, 4)])
def test_taylor_identity(q, s, d):
    # P(x+z) agrees with the derivative expansion sum_i hasse_i(P)(x) z^i;
    # exhaustive over z for q <= 5, sampled otherwise
    rng = random.Random(q * 100 + s * 10 + d)
    f = Field(q)
    P = random_poly(f, s, d, rng)
    derivs = {i: hasse_derivative(P, i)
              for w in range(d + 1) for i in monomials_of_weight(s, w)}
    xs = [tuple(rng.randrange(q) for _ in range(s)) for _ in range(3)]
    if q <= 5:
        zs = list(itertools.product(range(q), repeat=s))
    else:
        zs = [tuple(rng.randrange(q) for _ in range(s)) for _ in range(20)]
    for x in xs:
        for z in zs:
            shifted = tuple(f.add(a, b) for a, b in zip(x, z))
            acc = 0
            for i, D in derivs.items():
                v = D.evaluate(x)
                for zt, it in zip(z, i):
                    if it:
                        v = f.mul(v, f.pow(zt, it))
                acc = f.add(acc, v)
            assert acc == P.evaluate(shifted)


def test_taylor_identity_symbolic():
    rng = random.Random(11)
    f = Field(5)
    P = random_poly(f, 2, 3, rng)
    z = (2, 4)
    expected = shift_oracle(P, z)
    acc = Poly.zero(f, 2)
    for w in range(4):
        for i in monomials_of_weight(2, w):
            zpow = 1
            for zt, it in zip(z, i):
                zpow = f.mul(zpow, f.pow(zt, it))
            acc = acc + hasse_derivative(P, i).scale(zpow)
    assert acc == expected


def test_order_m_evaluation_examples():
    f3 = Field(3)
    p = Poly(f3, 2, {(1, 1): 1})
    assert order_m_evaluation(p, (1, 2), 2) == (2, 2, 1)
    assert order_m_evaluation(Poly.zero(f3, 2), (0, 1), 2) == (0, 0, 0)
    f5 = Field(5)
    q = Poly(f5, 1, {(2,): 1, (0,): 1})  # t^2 + 1
    assert order_m_evaluation(q, (1,), 2) == (2, 2)


def test_hermite_examples():
    f5 = Field(5)
    got = hermite_interpolate(f5, [(1, (2, 2)), (2, (0, 4))], 2)
    assert got == univariate(f5, [1, 0, 1])  # t^2 + 1
    assert hermite_interpolate(f5, [(0, (3,))], 0) == Poly.constant(f5, 1, 3)


def test_hermite_matches_lagrange_oracle():
    f7 = Field(7)
    p = univariate(f7, [0, 0, 0, 3])  # 3t^3
    xs = [1, 2, 3, 4]
    ys = [p.evaluate((x,)) for x in xs]
    assert lagrange_oracle(f7, xs, ys) == p
    samples = [(x, (y,)) for x, y in zip(xs, ys)]
    assert hermite_interpolate(f7, samples, 3) == p


@pytest.mark.parametrize("q,m,d", [(5, 2, 2), (7, 2, 5), (7, 3, 3), (11, 2, 8), (4, 2, 3)])
def test_hermite_roundtrip(q, m, d):
    rng = random.Random(q * m + d)
    f = Field.from_order(q)
    for _ in range(20):
        p = random_poly(f, 1, d, rng)
        pts = rng.sample(range(q), (d + m) // m)
        samples = [(x, order_m_evaluation(p, (x,), m)) for x in pts]
        assert hermite_interpolate(f, samples, d) == p


def test_hermite_erasures():
    # drop points and still recover while enough constraints remain
    f = Field(11)
    rng = random.Random(3)
    p = random_poly(f, 1, 4, rng)
    kept = [1, 2, 5, 7, 9]
    samples = [(x, order_m_evaluation(p, (x,), 2)) for x in kept]
    assert hermite_interpolate(f, samples, 4) == p


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 7, 8, 9]), m=st.integers(1, 3), data=st.data())
def test_hermite_solver_rows_invert_and_check_the_constraints(q, m, data):
    f = Field.from_order(q)
    pts = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
    rows = tuple((lam, u) for lam in pts for u in range(m))
    d = data.draw(st.integers(0, len(rows) - 1))
    # row (lam, u) of M: the u-th Hasse derivative of t^j at lam, per j <= d
    M = [[hasse_derivative(univariate(f, [0] * j + [1]), (u,)).evaluate((lam,))
          for j in range(d + 1)] for lam, u in rows]
    solver = _hermite_solver(f, rows, d)
    identity = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
    assert linalg.matmul(f, solver[:d + 1].tolist(), M) == identity
    assert len(solver[d + 1:]) == len(rows) - (d + 1)
    assert all(not any(r) for r in linalg.matmul(f, solver[d + 1:].tolist(), M))
    # one point's m constraints twice over: rank m, below the d + 1 = m + 1
    # unknowns, though there are 2m >= d + 1 rows
    with pytest.raises(ValueError):
        _hermite_solver(f, rows[:m] * 2, m)


def test_hermite_errors():
    f5 = Field(5)
    with pytest.raises(ValueError):
        hermite_interpolate(f5, [(1, (2, 2))], 2)  # 2 constraints, degree 2
    with pytest.raises(ValueError):
        hermite_interpolate(f5, [(1, (2,)), (1, (3,))], 1)  # repeated point
    # inconsistent: values of t^2+1 with one corrupted derivative
    p = univariate(f5, [1, 0, 1])
    good = [(x, order_m_evaluation(p, (x,), 2)) for x in (1, 2, 3)]
    bad = [good[0], (2, (good[1][1][0], 1)), good[2]]
    with pytest.raises(DecodeFailure):
        hermite_interpolate(f5, bad, 2)


def test_homogeneous_examples():
    f5 = Field(5)
    # degree 0 on any grid
    got = homogeneous_interpolate(f5, 0, {(0, 1): 4, (1, 1): 4}, 2)
    assert got == Poly.constant(f5, 2, 4)
    # degree 1: Q(0,1)=2, Q(1,1)=3 -> x1 + 2*x2
    got = homogeneous_interpolate(f5, 1, {(0, 1): 2, (1, 1): 3}, 2)
    assert got == Poly(f5, 2, {(1, 0): 1, (0, 1): 2})
    # degree 2 round trip on a 3-point grid
    q = Poly(f5, 2, {(2, 0): 1, (1, 1): 1})
    samples = {(a, 1): q.evaluate((a, 1)) for a in (0, 1, 2)}
    assert homogeneous_interpolate(f5, 2, samples, 2) == q


def homogeneous_random(field, s, degree, rng):
    return Poly(field, s, {e: rng.randrange(field.q)
                           for e in monomials_of_weight(s, degree)})


@pytest.mark.parametrize("s,j,q", [(2, 1, 5), (2, 2, 7), (3, 1, 5), (3, 2, 7), (1, 3, 5)])
def test_homogeneous_roundtrip_random(s, j, q):
    rng = random.Random(s * 100 + j * 10 + q)
    f = Field(q)
    for _ in range(100):
        Q = homogeneous_random(f, s, j, rng)
        axes = [rng.sample(range(q), j + 1) for _ in range(s - 1)]
        pts = [p + (1,) for p in itertools.product(*axes)] if s > 1 else [(1,)]
        samples = {p: Q.evaluate(p) for p in pts}
        assert homogeneous_interpolate(f, j, samples, s) == Q


def test_homogeneous_errors():
    f5 = Field(5)
    with pytest.raises(ValueError):
        homogeneous_interpolate(f5, 2, {(0, 1): 1, (1, 1): 0}, 2)  # grid too small
    with pytest.raises(ValueError):
        homogeneous_interpolate(f5, 1, {(0, 2): 1, (1, 2): 0}, 2)  # last coord not 1
    # oversampled grid inconsistent with any homogeneous degree-1 polynomial
    vals = {(0, 1): 1, (1, 1): 0, (2, 1): 0}
    with pytest.raises(DecodeFailure):
        homogeneous_interpolate(f5, 1, vals, 2)


def test_poly_ring_mismatch():
    with pytest.raises(ValueError):
        Poly(Field(3), 2, {(0, 0): 1}) + Poly(Field(5), 2, {(0, 0): 1})
    with pytest.raises(ValueError):
        Poly(Field(3), 1, {(0,): 1}) * Poly(Field(3), 2, {(0, 0): 1})
