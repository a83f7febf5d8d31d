import itertools
import random
from fractions import Fraction

import pytest

from pirbatch.curves import (
    curve_csv,
    optimal_s_binary,
    optimal_s_qary,
    pir_delta_binary,
    pir_delta_curves,
    pir_delta_qary,
)
from pirbatch.gf import Field
from pirbatch.mpoly import Poly, monomials_of_weight
from pirbatch.multiplicity import MultCodeParams, code_points, encode_poly
from pirbatch.pir import build_direction_families, pir_recovery_plans, recover_symbol
from tests.test_mpoly import random_poly


def params(m, d, s, q):
    return MultCodeParams(field=Field.from_order(q), m=m, d=d, s=s)


def test_families_example():
    fam = build_direction_families(7, 2, 2)
    assert fam.grids == (
        ((0, 1), (1, 1)),
        ((2, 1), (3, 1)),
        ((4, 1), (5, 1)),
    )


def test_families_single_block():
    fam = build_direction_families(4, 4, 2)
    assert len(fam.grids) == 1
    assert len(fam.grids[0]) == 4


@pytest.mark.parametrize("q,m,s", [(7, 2, 2), (11, 2, 2), (7, 3, 2), (5, 2, 3)])
def test_families_disjoint_under_multiplication(q, m, s):
    f = Field(q)
    fam = build_direction_families(q, m, s)
    assert len(fam.grids) == (q // m) ** (s - 1)
    for g1, g2 in itertools.combinations(fam.grids, 2):
        pts2 = set(g2)
        for x in g1:
            for alpha in range(1, q):
                assert tuple(f.mul(alpha, c) for c in x) not in pts2


def test_plans_shape_and_disjoint():
    ps = params(2, 2, 2, 7)
    plans = pir_recovery_plans(ps, (0, 0))
    assert len(plans) == 3
    for plan in plans:
        assert len(plan.coordinates) == 12  # 2 lines x 6 points
        assert (0, 0) not in plan.coordinates
    for a, b in itertools.combinations(plans, 2):
        assert not (a.coordinates & b.coordinates)


def test_plans_degenerate_one_variable():
    ps = params(1, 1, 1, 5)
    plans = pir_recovery_plans(ps, (3,))
    assert len(plans) == 1
    assert plans[0].coordinates == {(w,) for w in range(5) if w != 3}


def test_plans_precondition():
    with pytest.raises(ValueError):
        pir_recovery_plans(params(1, 2, 1, 3), (0,))  # d/m = 2 = q-1


def test_recover_all_zero():
    ps = params(2, 2, 2, 7)
    cw = encode_poly(ps, Poly.zero(ps.field, 2))
    for plan in pir_recovery_plans(ps, (3, 4)):
        assert recover_symbol(cw, plan) == (0, 0, 0)


@pytest.mark.parametrize("m,d,s,q,trials", [(1, 1, 1, 5, 10), (2, 2, 2, 7, 8),
                                            (2, 4, 2, 11, 4), (3, 3, 2, 7, 4)])
def test_recover_roundtrip(m, d, s, q, trials):
    ps = params(m, d, s, q)
    rng = random.Random(m * 1000 + d * 100 + q)
    pts = code_points(ps)
    for _ in range(trials):
        P = random_poly(ps.field, s, d, rng)
        cw = encode_poly(ps, P)
        w0 = pts[rng.randrange(len(pts))]
        for plan in pir_recovery_plans(ps, w0):
            assert recover_symbol(cw, plan) == cw[w0]


def test_recover_reads_only_plan_coordinates():
    ps = params(2, 2, 2, 7)
    rng = random.Random(2)
    P = random_poly(ps.field, 2, 2, rng)
    cw = encode_poly(ps, P)
    w0 = (2, 5)
    for plan in pir_recovery_plans(ps, w0):
        restricted = {w: cw[w] for w in plan.coordinates}
        assert recover_symbol(restricted, plan) == cw[w0]


def test_recover_m1_matches_lagrange():
    from tests.test_mpoly import lagrange_oracle

    ps = params(1, 1, 1, 5)
    rng = random.Random(4)
    P = random_poly(ps.field, 1, 1, rng)
    cw = encode_poly(ps, P)
    plan = pir_recovery_plans(ps, (2,))[0]
    xs = [w[0] for w in sorted(plan.coordinates)]
    ys = [cw[(x,)][0] for x in xs]
    expected = lagrange_oracle(ps.field, xs, ys).evaluate((2,))
    assert recover_symbol(cw, plan) == (expected,)


def test_grid_uniqueness_exhaustive():
    # degree <= 1 homogeneous polynomials over GF(5), two variables: equality
    # on a 2-point grid with last coordinate 1 forces equality everywhere
    f = Field(5)
    grid = [(0, 1), (1, 1)]
    for j in (0, 1):
        polys = [Poly(f, 2, dict(zip(monomials_of_weight(2, j), cs)))
                 for cs in itertools.product(range(5), repeat=len(monomials_of_weight(2, j)))]
        for P, Q in itertools.combinations(polys, 2):
            if all(P.evaluate(pt) == Q.evaluate(pt) for pt in grid):
                everywhere = all(P.evaluate(pt) == Q.evaluate(pt)
                                 for pt in itertools.product(range(5), repeat=2))
                assert everywhere and P == Q


def test_qary_curve_values():
    assert pir_delta_qary(2, Fraction(0)) == Fraction(1, 2)
    assert optimal_s_qary(Fraction(0)) == 2
    rows = pir_delta_curves([Fraction(0)], variant="qary")
    assert rows[0]["s_star"] == 2 and rows[0]["delta_star"] == Fraction(1, 2)


def test_binary_curve_values():
    assert pir_delta_binary(3, Fraction(0)) == Fraction(5, 6)
    assert optimal_s_binary(Fraction(0)) == 2
    assert pir_delta_binary(2, Fraction(0)) == Fraction(3, 4)


def test_curves_replication_tail():
    rows = pir_delta_curves([Fraction(3, 2)], variant="qary")
    assert rows[0]["delta"] == Fraction(3, 2) and rows[0]["s"] is None


def test_qary_optimal_formula_matches_search():
    for eps in [Fraction(i, 20) for i in range(19)]:
        s_star = optimal_s_qary(eps)
        best = min(pir_delta_qary(s, eps) for s in range(2, 40)
                   if s * (1 - eps) > 1)
        assert pir_delta_qary(s_star, eps) == best


def test_curve_rows_and_csv():
    rows = pir_delta_curves([Fraction(0), Fraction(1, 5)], s_values=[3, 5],
                            variant="binary")
    assert [r["s"] for r in rows] == [3, 5, 3, 5]
    for r in rows:
        assert r["delta"] == pir_delta_binary(r["s"], r["epsilon"])
        assert r["delta_star"] <= r["delta"]
    text = curve_csv(rows)
    assert text.splitlines()[0] == "epsilon,s,delta,variant"
    assert len(text.splitlines()) == 5


def test_curve_validation():
    with pytest.raises(ValueError):
        pir_delta_qary(3, Fraction(9, 10))  # 3*(1/10) <= 1
    with pytest.raises(ValueError):
        pir_delta_curves([Fraction(-1, 10)])
    with pytest.raises(ValueError):
        pir_delta_curves([0], variant="ternary")
