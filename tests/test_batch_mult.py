import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirbatch import multiplicity, pir
from pirbatch.array_code import BatchPlanningError
from pirbatch.batch_mult import BatchPlan, plan_batch, recover_batch, validate_batch_params
from pirbatch.curves import batch_delta_binary, batch_delta_qary
from pirbatch.gf import Field
from pirbatch.multiplicity import MultCodeParams, code_points, encode_poly, line_points
from pirbatch.pir import (
    RecoveryPlan,
    build_direction_families,
    make_plan,
    pir_recovery_plans,
    plan_requests,
)
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
    monkeypatch.setattr(pir, "make_plan", lambda *args: shared)
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
    # another entry takes at most m^(s-1) points from a line
    rng = random.Random(31)
    for ps, k in ((P2411, 2), (params(2, 10, 2, 13), 3)):
        bp = validate_batch_params(ps, k)
        budget = (k - 1) * ps.m ** (ps.s - 1)
        pts = code_points(ps)
        most = 0
        for _ in range(50):
            req = [pts[rng.randrange(len(pts))] for _ in range(k)]
            for plan in plan_batch(bp, req).plans:
                most = max(most, *(len(drops) for _, drops in plan.lines))
        # the bound is tight: a request on one line reaches it
        for plan in plan_batch(bp, [(0, j) for j in range(k)]).plans:
            most = max(most, *(len(drops) for _, drops in plan.lines))
        assert most == budget


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
    uncached = multiplicity._line.__wrapped__
    # the planner reads lines through `pir`'s own binding of `_line`
    for module in (multiplicity, pir):
        monkeypatch.setattr(module, "_line", uncached)
    assert [plan_batch(bp, r) for r in requests] == cached


def _foreign_set_plans(ps, request):
    """The planner `plan_requests` replaced, kept as a reference: entry j
    takes grid j, and each of its lines drops every point of the union of
    the other entries' targets and line points."""
    grids = build_direction_families(ps.q, ps.m, ps.s).grids
    covered = [frozenset(w for v in grid for _, w in line_points(ps, w0, v))
               for w0, grid in zip(request, grids)]
    plans = []
    for j, w0 in enumerate(request):
        foreign = set()
        for j2 in range(len(request)):
            if j2 != j:
                foreign.add(request[j2])
                foreign.update(covered[j2])
        lines = tuple((v, frozenset(lam for lam, w in line_points(ps, w0, v) if w in foreign))
                      for v in grids[j])
        points = tuple(w for v, drops in lines for _, w in line_points(ps, w0, v, drops))
        plans.append(RecoveryPlan(params=ps, w0=w0, family_index=j, lines=lines,
                                  coordinates=frozenset(points), points=points))
    return tuple(plans)


def _batch_ks(ps):
    """Every k the batch inequalities allow."""
    ks = []
    while True:
        try:
            validate_batch_params(ps, len(ks))
        except ValueError:
            return ks
        ks.append(len(ks))


# s = 2 and s = 3 over GF(5), GF(7), GF(8), GF(9), GF(11) and GF(13)
PLANNER_CODES = [params(*c) for c in (
    (1, 1, 2, 5), (1, 1, 3, 5), (2, 2, 2, 7), (1, 2, 3, 7), (2, 4, 2, 8), (1, 2, 3, 8),
    (1, 3, 2, 9), (1, 2, 3, 9), (2, 4, 2, 11), (2, 2, 3, 11), (2, 10, 2, 13),
    (2, 4, 3, 13))]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_planner_matches_the_foreign_set_planner(data):
    ps = data.draw(st.sampled_from(PLANNER_CODES), label="code")
    k = data.draw(st.sampled_from(_batch_ks(ps)), label="k")
    points = code_points(ps)
    index = st.integers(0, len(points) - 1)
    # repeats and points on one line are where drops happen
    first = data.draw(index, label="first")
    request = sorted(points[data.draw(st.one_of(st.just(first), index), label="entry")]
                     for _ in range(k))
    plans = plan_requests(ps, tuple(request))
    assert plans == _foreign_set_plans(ps, tuple(request))
    assert plan_batch(validate_batch_params(ps, k), request).plans == plans
    budget = (k - 1) * ps.m ** (ps.s - 1)
    for a, plan in enumerate(plans):
        assert all(len(drops) <= budget for _, drops in plan.lines)
        assert not plan.coordinates & set(request)
        for other in plans[a + 1:]:
            assert not plan.coordinates & other.coordinates
    w0 = request[0] if request else points[first]
    grids = build_direction_families(ps.q, ps.m, ps.s).grids
    assert pir_recovery_plans(ps, w0) == [
        make_plan(ps, w0, j, [(v, frozenset()) for v in grid]) for j, grid in enumerate(grids)]
