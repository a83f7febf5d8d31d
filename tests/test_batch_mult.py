import itertools
import random
from fractions import Fraction

import pytest

from pirbatch import batch_mult, multiplicity
from pirbatch.array_code import BatchPlanningError
from pirbatch.batch_mult import BatchPlan, plan_batch, recover_batch, validate_batch_params
from pirbatch.curves import batch_delta_binary, batch_delta_qary
from pirbatch.gf import Field
from pirbatch.multiplicity import MultCodeParams, code_points, encode_poly
from pirbatch.pir import pir_recovery_plans
from tests.test_mpoly import random_poly


def params(m, d, s, q):
    return MultCodeParams(field=Field.from_order(q), m=m, d=d, s=s)


P2411 = params(2, 4, 2, 11)


def test_validate_accepts():
    bp = validate_batch_params(P2411, 2)
    assert bp.k == 2


def test_validate_rejects_with_inequality():
    with pytest.raises(ValueError, match=r"d <= m\*\(q - k\*m\^\(s-1\) - 2\)"):
        validate_batch_params(params(2, 2, 2, 7), 3)
    with pytest.raises(ValueError, match=r"floor\(q/m\)"):
        validate_batch_params(params(1, 0, 1, 11), 2)


def test_validate_k_zero_vacuous():
    bp = validate_batch_params(params(2, 2, 2, 7), 0)
    assert bp.k == 0
    assert plan_batch(bp, []).plans == ()


def test_single_request_matches_pir_plans():
    bp = validate_batch_params(P2411, 1)
    got = plan_batch(bp, [(3, 7)]).plans
    expected = pir_recovery_plans(P2411, (3, 7))
    assert len(got) == 1
    assert got[0] == expected[0]


def test_repeated_point_disjoint():
    bp = validate_batch_params(P2411, 2)
    plan = plan_batch(bp, [(0, 0), (0, 0)])
    a, b = plan.plans
    assert a.family_index != b.family_index
    assert not (a.coordinates & b.coordinates)


def test_overlapping_plans_raise_planning_error(monkeypatch):
    # one plan for every request makes the coordinate sets overlap; the
    # check must hold under python -O, so it cannot be an assert
    bp = validate_batch_params(P2411, 2)
    shared = pir_recovery_plans(P2411, (0, 0))[0]
    monkeypatch.setattr(batch_mult, "make_plan", lambda *args: shared)
    with pytest.raises(BatchPlanningError) as info:
        plan_batch(bp, [(0, 0), (1, 1)])
    assert info.value.request == ((0, 0), (1, 1))


def test_plan_deterministic():
    bp = validate_batch_params(P2411, 2)
    req = [(5, 2), (1, 9)]
    assert plan_batch(bp, req) == plan_batch(bp, list(reversed(req)))


def test_recover_zero_codeword():
    from pirbatch.mpoly import Poly

    bp = validate_batch_params(P2411, 2)
    cw = encode_poly(P2411, Poly.zero(P2411.field, 2))
    plan = plan_batch(bp, [(1, 2), (3, 4)])
    assert recover_batch(cw, plan) == [(0, 0, 0), (0, 0, 0)]


def test_recover_random_requests():
    bp = validate_batch_params(P2411, 2)
    rng = random.Random(17)
    pts = code_points(P2411)
    for _ in range(25):
        P = random_poly(P2411.field, 2, 4, rng)
        cw = encode_poly(P2411, P)
        req = [pts[rng.randrange(len(pts))] for _ in range(2)]
        plan = plan_batch(bp, req)
        got = recover_batch(cw, plan)
        assert got == [cw[w] for w in plan.request]


def test_recover_requests_on_one_line():
    # adversarial: both requests on a shared line of the first family
    bp = validate_batch_params(P2411, 2)
    rng = random.Random(23)
    P = random_poly(P2411.field, 2, 4, rng)
    cw = encode_poly(P2411, P)
    for req in ([(0, 0), (0, 5)], [(2, 1), (2, 10)], [(4, 4), (4, 0)]):
        plan = plan_batch(bp, req)
        assert recover_batch(cw, plan) == [cw[w] for w in plan.request]


def test_drop_budget_observed():
    bp = validate_batch_params(P2411, 2)
    budget = 2 * 2 ** 1
    rng = random.Random(31)
    pts = code_points(P2411)
    for _ in range(50):
        req = [pts[rng.randrange(len(pts))] for _ in range(2)]
        for plan in plan_batch(bp, req).plans:
            for _, drops in plan.lines:
                assert len(drops) <= budget


def test_recover_reads_only_plan_coordinates():
    bp = validate_batch_params(P2411, 2)
    rng = random.Random(37)
    P = random_poly(P2411.field, 2, 4, rng)
    cw = encode_poly(P2411, P)
    plan = plan_batch(bp, [(7, 7), (7, 8)])
    views = [{w: cw[w] for w in p.coordinates} for p in plan.plans]
    for view, p in zip(views, plan.plans):
        from pirbatch.pir import recover_symbol

        assert recover_symbol(view, p) == cw[p.w0]


def test_curve_formulas():
    assert batch_delta_binary(Fraction(1, 5)) == Fraction(9, 10)
    assert batch_delta_qary(Fraction(0)) == Fraction(3, 4)
    assert batch_delta_binary(Fraction(1, 2)) == 1
    assert batch_delta_qary(Fraction(3, 4)) == Fraction(5, 4)
    assert batch_delta_binary(0) == Fraction(5, 6)
    with pytest.raises(ValueError):
        batch_delta_qary(-1)


@pytest.mark.parametrize("ps,k", [(P2411, 2), (params(2, 4, 2, 8), 2),
                                  (params(1, 3, 2, 9), 3)])
def test_cached_line_points_give_the_uncached_plans(ps, k, monkeypatch):
    """Plans through the line cache equal plans whose every line is walked
    afresh, over a few hundred seeded requests."""
    bp = validate_batch_params(ps, k)
    points = code_points(ps)
    rng = random.Random(11)
    requests = [[rng.choice(points) for _ in range(k)] for _ in range(300)]
    cached = [plan_batch(bp, r) for r in requests]
    multiplicity._line.cache_clear()
    monkeypatch.setattr(multiplicity, "_line", multiplicity._line.__wrapped__)
    assert [plan_batch(bp, r) for r in requests] == cached
