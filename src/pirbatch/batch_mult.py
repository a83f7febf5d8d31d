"""Batch-request planning over multiplicity codes.

Serving k symbols at once assigns each request its own direction family,
then drops from every line the points that other requests read.  A line
loses at most one point per foreign line (distinct lines meet in at most
one point, and directions from different families are never parallel), so
with d <= m*(q - k*m^(s-1) - 2) each line keeps enough points for
erasure interpolation and the k coordinate sets come out disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .array_code import BatchPlanningError
from .multiplicity import MultCodeParams, line_points
from .pir import RecoveryPlan, build_direction_families, make_plan, recover_symbol


@dataclass(frozen=True)
class BatchParams:
    params: MultCodeParams
    k: int


def validate_batch_params(params: MultCodeParams, k: int) -> BatchParams:
    """Check the batch inequalities; a violation names the one that failed.

    k = 0 is vacuously fine: there is nothing to serve.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return BatchParams(params=params, k=0)
    m, d, s, q = params.m, params.d, params.s, params.q
    bound = m * (q - k * m ** (s - 1) - 2)
    if d > bound:
        raise ValueError(
            f"d <= m*(q - k*m^(s-1) - 2) violated: d={d} > {bound}")
    if k > params.k_pir:
        raise ValueError(
            f"k <= floor(q/m)^(s-1) violated: k={k} > {params.k_pir}")
    return BatchParams(params=params, k=k)


@dataclass(frozen=True)
class BatchPlan:
    request: tuple  # sorted multiset of target points
    plans: tuple    # one RecoveryPlan per request, pairwise disjoint


def plan_batch(bp: BatchParams, request) -> BatchPlan:
    """Disjoint recovering plans for a multiset of k target points.

    Requests are served in sorted order; request j uses direction family
    j and drops every line point that is another request's target or lies
    on any of another request's lines.  A line over its drop budget or two
    overlapping plans, which the batch inequalities rule out, raise
    BatchPlanningError.
    """
    params = bp.params
    request = tuple(sorted(tuple(w) for w in request))
    if len(request) != bp.k:
        raise ValueError(f"expected {bp.k} requests, got {len(request)}")
    families = build_direction_families(params.q, params.m, params.s)
    grids = [families.grids[j] for j in range(len(request))]
    covered = [frozenset(w for v in grid for _, w in line_points(params, w0, v))
               for w0, grid in zip(request, grids)]
    drop_budget = bp.k * params.m ** (params.s - 1)
    plans = []
    for j, w0 in enumerate(request):
        foreign = set()
        for j2 in range(len(request)):
            if j2 != j:
                foreign.add(request[j2])
                foreign.update(covered[j2])
        lines = []
        for v in grids[j]:
            drops = frozenset(lam for lam, w in line_points(params, w0, v)
                              if w in foreign)
            if len(drops) > drop_budget:
                raise BatchPlanningError(request)
            lines.append((v, drops))
        plans.append(make_plan(params, w0, j, lines))
    for a in range(len(plans)):
        for b in range(a + 1, len(plans)):
            if plans[a].coordinates & plans[b].coordinates:
                raise BatchPlanningError(request)
    return BatchPlan(request=request, plans=tuple(plans))


def recover_batch(codeword, batch_plan: BatchPlan) -> list:
    """Recover each requested symbol from its plan, in request order."""
    return [recover_symbol(codeword, plan) for plan in batch_plan.plans]

