import itertools
import random
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pirbatch import gf, linalg, mpoly, pir
from pirbatch.batch_mult import plan_batch, validate_batch_params
from pirbatch.curves import (
    curve_csv,
    optimal_s_binary,
    optimal_s_qary,
    pir_delta_binary,
    pir_delta_curves,
    pir_delta_qary,
)
from pirbatch.gf import Field
from pirbatch.mpoly import DecodeFailure, Poly, monomials_of_weight
from pirbatch.multiplicity import MultCodeParams, code_points, encode_poly, line_points
from pirbatch.pir import (
    build_direction_families,
    interpolate_symbol,
    pir_recovery_plans,
    recover_symbol,
    recovery_operator,
)
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


def test_cached_matrices_are_read_only():
    # the compiled operator and the systematic generator come out of caches
    # shared by every caller in the process
    from pirbatch.multiplicity import systematic_view

    ps = params(2, 2, 2, 7)
    op = recovery_operator(pir_recovery_plans(ps, (1, 2))[0])
    for matrix in (op.matrix, systematic_view(ps).generator):
        assert matrix.dtype == np.uint8
        with pytest.raises(ValueError):
            matrix[0, 0] = 1


# ---------------------------------------------------------------------------
# compiled recovery against the interpolation oracle
# ---------------------------------------------------------------------------

# GF(p) and the extension fields GF(4), GF(8), GF(9)
FIELD_ORDERS = [2, 3, 5, 7, 4, 8, 9]
PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _batch_ready(ps, k):
    try:
        validate_batch_params(ps, k)
    except ValueError:
        return False
    return True


def _small_codes(batch):
    """(m, d, s, q) with s in {1, 2, 3} and at most 125 points whose PIR
    plans exist, and for batch=True whose 2-batch inequalities hold."""
    out = []
    for q, s, m in itertools.product(FIELD_ORDERS, (1, 2, 3), (1, 2, 3)):
        if q ** s <= 125 and q // m >= 1:
            out.extend((m, d, s, q) for d in range(m * (q - 1))
                       if not batch or _batch_ready(params(m, d, s, q), 2))
    return out


PIR_CODES = _small_codes(batch=False)
BATCH_CODES = _small_codes(batch=True)


def _both(codeword, plan):
    """Each recovery's symbol, or "fail" where it raises DecodeFailure."""
    out = []
    for recover in (recover_symbol, interpolate_symbol):
        try:
            out.append(recover(codeword, plan))
        except DecodeFailure:
            out.append("fail")
    return out


def _check_plan(ps, cw, plan, rng):
    """Both recoveries return the symbol at w0, and agree on restrictions
    with one corrupted coordinate and with one line spliced in from
    another codeword, which only the grid check can reject."""
    assert recover_symbol(cw, plan) == interpolate_symbol(cw, plan) == cw[plan.w0]
    restricted = {w: list(cw[w]) for w in plan.points}
    w = plan.points[rng.randrange(len(plan.points))]
    c = rng.randrange(ps.symbol_width)
    restricted[w][c] = ps.field.add(restricted[w][c], rng.randrange(1, ps.q))
    compiled, oracle = _both(restricted, plan)
    assert compiled == oracle
    other = encode_poly(ps, random_poly(ps.field, ps.s, ps.d, rng))
    v, drops = plan.lines[rng.randrange(len(plan.lines))]
    spliced = {w: cw[w] for w in plan.points}
    spliced.update((w, other[w]) for _, w in line_points(ps, plan.w0, v, drops))
    compiled, oracle = _both(spliced, plan)
    assert compiled == oracle


@PROPERTY
@given(code=st.sampled_from(PIR_CODES), seed=st.integers(0, 2 ** 32))
def test_compiled_matches_oracle_on_pir_plans(code, seed):
    ps, rng = params(*code), random.Random(seed)
    cw = encode_poly(ps, random_poly(ps.field, ps.s, ps.d, rng))
    pts = code_points(ps)
    for plan in pir_recovery_plans(ps, pts[rng.randrange(len(pts))]):
        _check_plan(ps, cw, plan, rng)


@PROPERTY
@given(code=st.sampled_from(BATCH_CODES), seed=st.integers(0, 2 ** 32))
def test_compiled_matches_oracle_on_batch_plans(code, seed):
    ps, k, rng = params(*code), 2, random.Random(seed)
    cw = encode_poly(ps, random_poly(ps.field, ps.s, ps.d, rng))
    pts = code_points(ps)
    batch = plan_batch(validate_batch_params(ps, k),
                       [pts[rng.randrange(len(pts))] for _ in range(k)])
    for plan in batch.plans:
        _check_plan(ps, cw, plan, rng)


def test_batch_plans_with_drops_match_oracle():
    # requests on one line make the other request's lines drop points
    ps = params(2, 4, 2, 11)
    bp = validate_batch_params(ps, 2)
    rng = random.Random(41)
    cw = encode_poly(ps, random_poly(ps.field, 2, 4, rng))
    dropped = 0
    for req in ([(0, 0), (0, 5)], [(2, 1), (2, 10)], [(3, 3), (4, 4)]):
        for plan in plan_batch(bp, req).plans:
            dropped += sum(len(drops) for _, drops in plan.lines)
            _check_plan(ps, cw, plan, rng)
    assert dropped > 0


def test_operator_shared_across_targets():
    ps = params(2, 4, 2, 11)
    a = pir_recovery_plans(ps, (0, 0))
    b = pir_recovery_plans(ps, (7, 3))
    for pa, pb in zip(a, b):
        assert recovery_operator(pa) is recovery_operator(pb)


def test_recover_symbol_does_not_interpolate(monkeypatch):
    ps = params(2, 2, 2, 9)
    cw = encode_poly(ps, random_poly(ps.field, 2, 2, random.Random(5)))
    plans = pir_recovery_plans(ps, (4, 1))
    for plan in plans:
        recovery_operator(plan)  # compiling may interpolate; querying may not

    def refuse(*args, **kwargs):
        raise AssertionError("the query path interpolated")

    # pir binds the solver and basis builders itself, so a query that
    # recompiled would call these names, not mpoly's
    for name in ("hermite_interpolate", "homogeneous_interpolate",
                 "_hermite_solver", "_lagrange_basis"):
        monkeypatch.setattr(pir, name, refuse)
    monkeypatch.setattr(mpoly, "_hermite_solver", refuse)
    for plan in plans:
        assert recover_symbol(cw, plan) == cw[(4, 1)]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 4, 8, 9, 27, 256]), rows=st.integers(1, 5),
       cols=st.integers(1, 6), seed=st.integers(0, 2 ** 32),
       block=st.sampled_from([gf._BLOCK, 0]))
def test_gf_matmul_matches_linalg(q, rows, cols, seed, block):
    # block 0 sends every product through the accumulation one inner index
    # at a time that large products take
    fld, rng = Field.from_order(q), random.Random(seed)
    matrix = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    vec = [rng.choice([0, rng.randrange(q)]) for _ in range(cols)]
    other = [[rng.randrange(q) for _ in range(3)] for _ in range(cols)]
    row = [rng.randrange(q) for _ in range(rows)]
    with unittest.mock.patch.object(gf, "_BLOCK", block):
        assert gf.matmul(fld, np.array(matrix), vec).tolist() == \
            linalg.matvec(fld, matrix, vec)
        assert gf.matmul(fld, matrix, other).tolist() == \
            linalg.matmul(fld, matrix, other)
        assert gf.matmul(fld, row, np.array(matrix)).tolist() == \
            linalg.matmul(fld, [row], matrix)[0]
        # a stack of matrices times a stack of columns, as `codes` reads
        # every recovering set of a symbol
        stack = [[[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
                 for _ in range(3)]
        columns = [[[rng.randrange(q)] for _ in range(cols)] for _ in range(3)]
        out = gf.matmul(fld, np.array(stack), np.array(columns))
        assert out.shape == (3, rows, 1)
        for a, b, got in zip(stack, columns, out):
            assert got.tolist() == linalg.matmul(fld, a, b)


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
