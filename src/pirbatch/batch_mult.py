"""Batch-request planning over multiplicity codes.

Serving k symbols at once is `pir.plan_requests` on the sorted request:
each entry takes its own direction family, and every line drops the
points that other entries touch.  A line drops at most (k-1)*m^(s-1)
points, so with d <= m*(q - k*m^(s-1) - 2) each line keeps enough points
for erasure interpolation, and the k coordinate sets are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .array_code import BatchPlanningError
from .multiplicity import MultCodeParams
from .pir import plan_requests, recover_symbol


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
    """Disjoint recovering plans for a multiset of k target points, the
    plans of `pir.plan_requests` on the sorted request.  Two overlapping
    plans, which the planner rules out, raise BatchPlanningError.
    """
    request = tuple(sorted(tuple(w) for w in request))
    if len(request) != bp.k:
        raise ValueError(f"expected {bp.k} requests, got {len(request)}")
    plans = plan_requests(bp.params, request)
    coordinates = [plan.coordinates for plan in plans]
    if sum(map(len, coordinates)) != len(frozenset().union(*coordinates)):
        raise BatchPlanningError(request)
    return BatchPlan(request=request, plans=plans)


def recover_batch(codeword, batch_plan: BatchPlan) -> list:
    """Recover each requested symbol from its plan, in request order."""
    return [recover_symbol(codeword, plan) for plan in batch_plan.plans]

