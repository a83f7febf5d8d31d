"""Disjoint recovering sets for multiplicity codes and symbol recovery
along them.

A recovering set for the symbol at w0 is the union of lines through w0
whose directions form a grid with last coordinate 1.  Scaling a vector
with last coordinate 1 changes that coordinate, so grids built from
disjoint blocks are disjoint under scalar multiplication and the line
sets of different grids never share a point besides w0 itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .mpoly import hermite_interpolate, homogeneous_interpolate, monomials_below
from .multiplicity import MultCodeParams, line_points, line_samples


@dataclass(frozen=True)
class DirectionFamily:
    """floor(q/(degree+1))^(s-1) direction grids, each an interpolation
    set for homogeneous polynomials of degree <= degree, pairwise
    disjoint under multiplication."""

    q: int
    s: int
    degree: int
    grids: tuple  # tuple of grids; each grid is a tuple of direction vectors


@lru_cache(maxsize=None)
def build_direction_families(q: int, m: int, s: int) -> DirectionFamily:
    """Partition a prefix of the field into floor(q/m) blocks of size m
    per axis; each choice of blocks, crossed with {1} in the last
    coordinate, yields one grid."""
    if q // m < 1:
        raise ValueError(f"need floor(q/m) >= 1, got q={q}, m={m}")
    nblocks = q // m
    blocks = [tuple(range(b * m, (b + 1) * m)) for b in range(nblocks)]
    grids = []
    for choice in itertools.product(range(nblocks), repeat=s - 1):
        grid = tuple(pt + (1,) for pt in
                     itertools.product(*(blocks[b] for b in choice)))
        grids.append(grid)
    return DirectionFamily(q=q, s=s, degree=m - 1, grids=tuple(grids))


@dataclass(frozen=True)
class RecoveryPlan:
    """One recovering set for the symbol at w0: the lines through w0 in
    the directions of one grid, minus per-line dropped points."""

    params: MultCodeParams
    w0: tuple
    family_index: int
    lines: tuple  # tuple of (direction, frozenset of dropped lambdas)
    coordinates: frozenset  # points read by this plan; never contains w0


def make_plan(params, w0, family_index, lines) -> RecoveryPlan:
    coords = set()
    for v, drops in lines:
        if params.m * (params.q - 1 - len(drops)) < params.d + 1:
            raise ValueError("a line retains too few points for this degree")
        coords.update(w for _, w in line_points(params, w0, v, drops))
    return RecoveryPlan(params=params, w0=tuple(w0), family_index=family_index,
                        lines=tuple((v, frozenset(d)) for v, d in lines),
                        coordinates=frozenset(coords))


def pir_recovery_plans(params: MultCodeParams, w0) -> list:
    """One recovering plan per direction family; the k = floor(q/m)^(s-1)
    coordinate sets are pairwise disjoint and exclude w0."""
    if params.d >= params.m * (params.q - 1):
        raise ValueError(
            f"need d/m < q-1: d={params.d}, m={params.m}, q={params.q}")
    fam = build_direction_families(params.q, params.m, params.s)
    return [make_plan(params, w0, idx, [(v, frozenset()) for v in grid])
            for idx, grid in enumerate(fam.grids)]


def recover_symbol(codeword, plan: RecoveryPlan) -> tuple:
    """Rebuild the full symbol at plan.w0 from the plan's coordinates.

    Per line, interpolate the univariate restriction from its derivative
    samples and keep the first m coefficients; those are the values of
    homogeneous polynomials (one per derivative weight) at the line's
    direction, which grid interpolation turns back into the derivative
    values at w0.
    """
    params = plan.params
    field = params.field
    line_coeffs = {}
    for v, drops in plan.lines:
        samples = line_samples(codeword, plan.w0, v, drops, params=params)
        p_line = hermite_interpolate(field, samples, params.d)
        line_coeffs[v] = [p_line.coefficient((j,)) for j in range(params.m)]
    graded = []
    for j in range(params.m):
        q_j = homogeneous_interpolate(
            field, j, {v: c[j] for v, c in line_coeffs.items()}, params.s)
        graded.append(q_j)
    return tuple(graded[sum(i)].coefficient(i)
                 for i in monomials_below(params.s, params.m))
