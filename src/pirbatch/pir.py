"""Disjoint recovering sets for multiplicity codes and symbol recovery
along them.

A recovering set for the symbol at w0 is the union of lines through w0
whose directions form a grid with last coordinate 1.  Scaling a vector
with last coordinate 1 changes that coordinate, so grids built from
disjoint blocks are disjoint under scalar multiplication and the line
sets of different grids never share a point besides w0 itself.
`plan_requests` is the one planner of a request of several points, each
taking its own grid; the PIR plans of w0 are those of (w0, ..., w0).

Recovery along a plan is linear in the codeword, so each plan shape is
compiled once into a checked linear operator over GF(q): per line, the
solve and check rows of its Hermite solver, combined across the grid of
directions.  `read`, imported from `mpoly`, where it also applies the
Hermite line solvers, is the one kernel that applies such operators, one
of them here and a stack of k in `codes.LinearCode`.  The interpolation
an operator replaces stays as `interpolate_symbol`, the oracle the tests
compare it against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import gf
from .gf import np
from .mpoly import (
    _hermite_solver,
    _lagrange_basis,
    grid_axes,
    hermite_interpolate,
    homogeneous_interpolate,
    monomials_below,
    read,
)
from .multiplicity import MultCodeParams, _component_rows, _line, line_samples


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
    points: tuple  # the same points in recovery order: line by line, by lambda


def make_plan(params, w0, family_index, lines) -> RecoveryPlan:
    w0, points = tuple(w0), []
    for v, drops in lines:
        if params.m * (params.q - 1 - len(drops)) < params.d + 1:
            raise ValueError("a line retains too few points for this degree")
        points.extend(w for lam, w in enumerate(_line(params, w0, v), 1)
                      if lam not in drops)
    return RecoveryPlan(params=params, w0=w0, family_index=family_index,
                        lines=tuple((v, frozenset(d)) for v, d in lines),
                        coordinates=frozenset(points), points=tuple(points))


def plan_requests(params: MultCodeParams, request) -> tuple:
    """One recovering plan per entry of a sorted request of at most k_pir
    points: entry j takes the lines through its target in the directions
    of grid j, and each line drops every point that another entry
    touches, as its target or on one of its lines.  So the plans are
    pairwise disjoint and read no requested point.

    Each line is walked once, and one count per point of the entries that
    touch it finds the drops.  Another entry takes at most m^(s-1) points
    from a line: one per line of its own, since lines of different grids
    are never parallel, or only its target when the target lies on the
    line, since all its lines then meet this line there.  So a line of a
    k-entry request drops at most (k-1)*m^(s-1) points, below the
    k*m^(s-1) that the batch inequality d <= m*(q - k*m^(s-1) - 2) leaves
    room for.
    """
    grids = build_direction_families(params.q, params.m, params.s).grids
    walks = [[(v, _line(params, w0, v)) for v in grid] for w0, grid in zip(request, grids)]
    touches = Counter(request)
    touches.update(itertools.chain.from_iterable(line for walk in walks for _, line in walk))
    return tuple(
        make_plan(params, w0, j, [(v, frozenset(lam for lam, w in enumerate(line, 1)
                                                if touches[w] > 1))
                                  for v, line in walk])
        for j, (w0, walk) in enumerate(zip(request, walks)))


def pir_recovery_plans(params: MultCodeParams, w0) -> list:
    """One recovering plan per direction family; the k = floor(q/m)^(s-1)
    coordinate sets are pairwise disjoint and exclude w0.  Plans are built
    once per (params, w0)."""
    return list(_pir_plans(params, tuple(w0)))


@lru_cache(maxsize=1024)
def _pir_plans(params, w0) -> tuple:
    """The plans of the request (w0, ..., w0) of k_pir entries: lines of
    different grids through w0 meet only at w0, so no line drops a point."""
    if params.d >= params.m * (params.q - 1):
        raise ValueError(
            f"need d/m < q-1: d={params.d}, m={params.m}, q={params.q}")
    return plan_requests(params, (w0,) * params.k_pir)


# ---------------------------------------------------------------------------
# compiled recovery: one checked linear operator per plan shape
# ---------------------------------------------------------------------------

class RecoveryOperator:
    """Symbol recovery as one matrix over GF(q) acting on a plan's
    restriction x, the symbols of plan.points concatenated.

    The first ``width`` rows are R, the recovered symbol R @ x; the rest
    are H, and H @ x is zero exactly when the interpolation in
    `interpolate_symbol` succeeds: H holds every line's Hermite check
    rows and every coefficient that homogeneous grid interpolation
    requires to be zero.  `read` applies it.
    Entries are stored in the narrowest unsigned type that holds them.
    The readers of `codes.LinearCode` keep one row of R with all of H,
    over GF(q) or, for a bit-level code, over GF(2).
    """

    __slots__ = ("field", "width", "matrix")

    def __init__(self, field, width, matrix):
        self.field = field
        self.width = width
        self.matrix = gf.narrow(field, matrix)


def recovery_operator(plan: RecoveryPlan) -> RecoveryOperator:
    """The plan's operator.  It depends on the directions and per-line
    drops only, not on w0, so plans of one shape share it."""
    return _compile(plan.params, plan.lines)


@lru_cache(maxsize=4096)
def _compile(params, lines) -> RecoveryOperator:
    """R stacks the grid mixing over the lines' coefficient rows; H holds
    the mixing's vanishing rows and every line's check rows."""
    field, m = params.field, params.m
    blocks = [_line_operator(params, v, drops) for v, drops in lines]
    ncols = sum(coef.shape[1] for coef, _ in blocks)
    coefs = np.zeros((m * len(blocks), ncols), dtype=np.int64)
    checks = np.zeros((sum(len(check) for _, check in blocks), ncols), dtype=np.int64)
    row = col = 0
    for b, (coef, check) in enumerate(blocks):
        n = coef.shape[1]
        coefs[b * m:(b + 1) * m, col:col + n] = coef
        checks[row:row + len(check), col:col + n] = check
        row, col = row + len(check), col + n
    mix = _grid_mixing(params, tuple(v for v, _ in lines))
    return RecoveryOperator(field, params.symbol_width,
                            np.vstack([gf.matmul(field, mix, coefs), checks]))


def _line_operator(params, v, drops):
    """(C, H) for one line as int arrays over its restriction (each kept
    point's symbol, by increasing lambda): C gives the first m
    coefficients of the interpolated univariate restriction, and H the
    check rows of its Hermite solver."""
    field, m = params.field, params.m
    lams = [lam for lam in range(1, params.q) if lam not in drops]
    solver = _hermite_solver(
        field, tuple((lam, u) for lam in lams for u in range(m)), params.d)
    # symbol component i feeds derivative sample |i| of its point with
    # weight v^i (the sample map of `line_samples`, one entry per column)
    sample, weight = zip(*((u, vpow) for u, row in enumerate(_component_rows(params, v))
                           for _, vpow in row))
    src = (np.arange(len(lams))[:, None] * m + np.array(sample)).ravel()
    # its first d + 1 rows solve, and the rows below them check
    solved = min(m, params.d + 1)
    coef = np.zeros((m, solver.shape[1]), dtype=np.int64)
    coef[:solved] = solver[:solved]
    rows = gf.multiply(field, np.vstack([coef, solver[params.d + 1:]])[:, src],
                       np.tile(weight, len(lams)))
    return rows[:m], rows[m:]


@lru_cache(maxsize=None)
def _grid_mixing(params, grid):
    """Rows over (line, j) pairs: first, per symbol component i of weight
    j, the weights turning the grid's j-th line coefficients into the
    derivative at w0; then one row per coefficient of the dehomogenised
    degree-j interpolant of total degree above j, which must vanish."""
    field, m, s = params.field, params.m, params.s
    axes = grid_axes(grid, m - 1, s)
    bases = [_lagrange_basis(field, axis) for axis in axes]
    factors = [[bases[t][axes[t].index(v[t])] for t in range(s - 1)]
               for v in grid]

    def row(j, exps):
        out = [0] * (len(grid) * m)
        for b, fs in enumerate(factors):
            c = 1
            for f, e in zip(fs, exps):
                c = field.mul(c, f[e])
            out[b * m + j] = c
        return out

    rows = [row(sum(i), i[:-1]) for i in monomials_below(s, m)]
    for j in range(m):
        rows.extend(row(j, e) for e in itertools.product(*map(range, map(len, axes)))
                    if sum(e) > j)
    return np.array(rows, dtype=np.int64)


def recover_symbol(codeword, plan: RecoveryPlan) -> tuple:
    """Rebuild the full symbol at plan.w0 from the plan's coordinates with
    the plan's compiled operator; a restriction that `interpolate_symbol`
    would reject raises DecodeFailure here too.

    ``codeword`` is anything mapping a point tuple to its symbol.
    """
    op = recovery_operator(plan)
    x = [c for w in plan.points for c in codeword[w]]
    return tuple(read(op.field, op.matrix, x, op.width).tolist())


def interpolate_symbol(codeword, plan: RecoveryPlan) -> tuple:
    """The exact oracle for `recover_symbol`: rebuild the symbol at
    plan.w0 by interpolation.

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
