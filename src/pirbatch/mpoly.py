"""Sparse multivariate polynomials over a finite field.

Provides the arithmetic the code constructions need: Hasse derivatives
(characteristic-robust), order-limited evaluation vectors, univariate
interpolation from derivative data (with erasures), and interpolation of
homogeneous polynomials on axis-aligned grids.  `read`, next to the
`DecodeFailure` it raises, is the one kernel that applies a checked
linear operator: the Hermite solvers here, the recovery operators of
`pir` and the reader stacks of `codes.LinearCode` all go through it.

Exponent vectors are tuples of non-negative ints.  All indexed vectors
(evaluation vectors, coefficient layouts) use one global monomial order:
graded lexicographic, i.e. by total degree and, within a degree, by
descending exponent tuple, so for two variables degree one gives
(1, 0) before (0, 1).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from . import gf, linalg
from .gf import np


class DecodeFailure(RuntimeError):
    """Samples are inconsistent with any polynomial of the required shape."""


def read(field, operators, x, width):
    """The one kernel that applies checked operators: operator matrices
    applied to their restrictions over the field, as one product.
    ``operators`` is one (rows, cols) matrix with x its (cols,)
    restriction, or a (k, rows, cols) stack with x the (k, cols)
    restrictions; the first ``width`` rows of each give the recovered
    values, returned as a (width,) or a (k, width) array, and a nonzero
    value in any other row, a check row, raises DecodeFailure."""
    y = gf.matmul(field, operators, np.asarray(x)[..., None])
    if y[..., width:, :].any():
        raise DecodeFailure("samples fit no polynomial of this degree")
    return y[..., :width, 0]


def count_monomials(s: int, m: int) -> int:
    """Number of exponent vectors in s variables with weight < m."""
    if s < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    return comb(s + m - 1, s)


def count_degree(s: int, d: int) -> int:
    """Number of exponent vectors in s variables with weight <= d."""
    if s < 0 or d < 0:
        raise ValueError("arguments must be non-negative")
    return comb(d + s, s)


@lru_cache(maxsize=None)
def monomials_of_weight(s: int, w: int) -> tuple:
    if s == 1:
        return ((w,),)
    out = []
    for first in range(w, -1, -1):
        for rest in monomials_of_weight(s - 1, w - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_below(s: int, m: int) -> tuple:
    """All exponent vectors with weight < m, graded-lex order."""
    out = []
    for w in range(m):
        out.extend(monomials_of_weight(s, w))
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_up_to_degree(s: int, d: int) -> tuple:
    out = []
    for w in range(d + 1):
        out.extend(monomials_of_weight(s, w))
    return tuple(out)


class Poly:
    """Polynomial in ``s`` variables as an exponent-to-coefficient map.

    Zero coefficients are never stored.  Instances are treated as
    immutable; all operations return new polynomials.
    """

    __slots__ = ("field", "s", "terms")

    def __init__(self, field, s, terms=None):
        self.field = field
        self.s = s
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != s or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for s={s}")
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} is not an element of {field!r}")
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, s):
        return cls(field, s, {})

    @classmethod
    def constant(cls, field, s, c):
        return cls(field, s, {(0,) * s: c})

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def _check_compatible(self, other):
        if self.field != other.field or self.s != other.s:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = f.add(out.get(exps, 0), c)
        return Poly(f, self.s, out)

    def __neg__(self):
        f = self.field
        return Poly(f, self.s, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = f.add(out.get(e, 0), f.mul(c1, c2))
        return Poly(f, self.s, out)

    def scale(self, c: int):
        f = self.field
        return Poly(f, self.s, {e: f.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = Poly.constant(self.field, self.s, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.s == other.s and self.terms == other.terms)

    def evaluate(self, point) -> int:
        if len(point) != self.s:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.s}")
        f = self.field
        acc = 0
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    v = f.mul(v, f.pow(x, e))
                    if not v:
                        break
            acc = f.add(acc, v)
        return acc

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = [f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(parts) + ")"


def univariate(field, coeffs) -> Poly:
    """Build a one-variable polynomial from a low-first coefficient list."""
    return Poly(field, 1, {(j,): c for j, c in enumerate(coeffs) if c})


def hasse_derivative(P: Poly, order) -> Poly:
    """Hasse derivative of P for the given exponent vector.

    Term-wise: x^j maps to binom(j, order) * x^(j - order), with the
    binomial product reduced mod the characteristic.  Well behaved in
    small characteristic where iterated ordinary derivatives vanish.
    """
    order = tuple(order)
    if len(order) != P.s or any(o < 0 for o in order):
        raise ValueError(f"bad derivative order {order}")
    f = P.field
    out = {}
    for exps, coeff in P.terms.items():
        if any(o > e for o, e in zip(order, exps)):
            continue
        b = 1
        for e_t, o_t in zip(exps, order):
            b *= comb(e_t, o_t)
        b %= f.p
        if not b:
            continue
        new = tuple(e - o for e, o in zip(exps, order))
        c = f.add(out.get(new, 0), f.mul(coeff, f.from_int(b)))
        if c:
            out[new] = c
        else:
            out.pop(new, None)
    return Poly(f, P.s, out)


def order_m_evaluation(P: Poly, w, m: int) -> tuple:
    """All Hasse derivatives of weight < m evaluated at w, graded-lex order.

    Length is count_monomials(s, m); the first entry is P(w).
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    return tuple(hasse_derivative(P, i).evaluate(tuple(w))
                 for i in monomials_below(P.s, m))


# ---------------------------------------------------------------------------
# univariate interpolation from order-m data (erasure tolerant)
# ---------------------------------------------------------------------------

class _HermiteSolver:
    """Solve operator for one (sample-structure, degree) shape.

    Row (lam, u) of the constraint matrix M constrains
    sum_j binom(j, u) lam^(j-u) c_j.  One rref of [M | I] gives E with
    E @ M reduced; its right block is a checked operator for `read`.  At
    full column rank its first d+1 rows, ``solve_rows``, are a left
    inverse of M, mapping consistent right-hand sides to the unique
    degree-<=d coefficient vector, and the other rows, ``check_rows``,
    span every combination of the constraints that vanishes on M, so
    they are all zero exactly on consistent ones.
    """

    __slots__ = ("field", "operator", "solve_rows", "check_rows")

    def __init__(self, field, rows, d):
        self.field = field
        width, n = d + 1, len(rows)
        matrix = np.array([[field.mul(field.from_int(comb(j, u)), field.pow(lam, j - u))
                            if j >= u else 0 for j in range(width)] for lam, u in rows],
                          dtype=np.int64).reshape(n, width)
        reduced, pivots = linalg.rref(field, np.hstack([matrix, np.eye(n, dtype=np.int64)]))
        if pivots[:width] != list(range(width)):
            raise ValueError(
                f"under-determined: {n} constraints of rank below {width} for degree {d}")
        reduced.setflags(write=False)  # kept by the solver cache
        self.operator = reduced[:, width:]
        self.solve_rows, self.check_rows = self.operator[:width], self.operator[width:]

    def solve(self, values):
        return read(self.field, self.operator, values, len(self.solve_rows)).tolist()


@lru_cache(maxsize=4096)
def _hermite_solver(field, rows, d):
    return _HermiteSolver(field, rows, d)


def hermite_interpolate(field, samples, d: int) -> Poly:
    """The unique univariate polynomial of degree <= d whose derivative
    data matches every sample.

    ``samples`` is a list of (point, values) pairs where ``values`` holds
    the order-m evaluation at that point (value, then Hasse derivatives).
    Sample points must be distinct and supply at least d+1 constraints;
    inconsistent data raises DecodeFailure.
    """
    pts = [lam for lam, _ in samples]
    if len(set(pts)) != len(pts):
        raise ValueError("sample points must be distinct")
    rows = tuple((lam, u) for lam, vals in samples for u in range(len(vals)))
    if len(rows) < d + 1:
        raise ValueError(f"under-determined: {len(rows)} constraints for degree {d}")
    values = [v for _, vals in samples for v in vals]
    coeffs = _hermite_solver(field, rows, d).solve(values)
    return univariate(field, coeffs)


# ---------------------------------------------------------------------------
# homogeneous interpolation on grids with last coordinate pinned to 1
# ---------------------------------------------------------------------------

def _lagrange_basis(field, nodes):
    """For each node, the coefficient list of the polynomial that is 1
    there and 0 at the other nodes."""
    out = []
    for a in nodes:
        coeffs = [1]
        denom = 1
        for b in nodes:
            if b == a:
                continue
            # multiply by (y - b)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] = field.sub(nxt[i], field.mul(c, b))
                nxt[i + 1] = field.add(nxt[i + 1], c)
            coeffs = nxt
            denom = field.mul(denom, field.sub(a, b))
        inv_d = field.inv(denom)
        out.append([field.mul(inv_d, c) for c in coeffs])
    return out


def grid_axes(points, degree: int, s: int) -> list:
    """The sorted axes A_1, ..., A_{s-1} of a grid A_1 x ... x A_{s-1} x {1}
    on which homogeneous polynomials of the given degree in s variables
    are determined by their values; ValueError when the points are not
    such a grid."""
    if degree < 0 or s < 1:
        raise ValueError("degree must be >= 0 and s >= 1")
    pts = set(points)
    if any(len(p) != s for p in pts):
        raise ValueError("sample points must have s coordinates")
    if any(p[-1] != 1 for p in pts):
        raise ValueError("grid points must have last coordinate 1")
    if s == 1:
        if pts != {(1,)}:
            raise ValueError("for one variable the grid is the single point (1,)")
        return []
    axes = [sorted({p[i] for p in pts}) for i in range(s - 1)]
    if any(len(a) < degree + 1 for a in axes):
        raise ValueError("grid too small for this degree")
    expect = 1
    for a in axes:
        expect *= len(a)
    if len(pts) != expect:
        raise ValueError("samples do not form a full grid")
    return axes


def homogeneous_interpolate(field, degree: int, samples, s: int) -> Poly:
    """The unique homogeneous polynomial of the given total degree in s
    variables matching ``samples`` on a grid A_1 x ... x A_{s-1} x {1}.

    The grid must be a full product with every axis holding at least
    degree+1 points and the last coordinate equal to 1 throughout.
    Works by interpolating the dehomogenized polynomial on the grid and
    regrading every total-degree-t monomial with the last variable to
    the power degree-t.
    """
    pts = {tuple(p) for p in samples}
    axes = grid_axes(pts, degree, s)
    if s == 1:
        return Poly(field, 1, {(degree,): samples[(1,)]})

    bases = [_lagrange_basis(field, a) for a in axes]
    node_pos = [{a: i for i, a in enumerate(axis)} for axis in axes]
    dehom = {}
    for p in pts:
        v = samples[p]
        if not v:
            continue
        factors = [bases[i][node_pos[i][p[i]]] for i in range(s - 1)]
        _accumulate_product(field, dehom, factors, v)

    out = {}
    for exps, c in dehom.items():
        t = sum(exps)
        if t > degree:
            raise DecodeFailure(
                "samples fit no homogeneous polynomial of this degree")
        out[exps + (degree - t,)] = c
    return Poly(field, s, out)


def _accumulate_product(field, acc, factors, scale):
    """Add scale * prod(univariate factor polynomials) into acc."""
    for combo in itertools.product(*[list(enumerate(f)) for f in factors]):
        c = scale
        for _, coeff in combo:
            if not coeff:
                c = 0
                break
            c = field.mul(c, coeff)
        if not c:
            continue
        exps = tuple(i for i, _ in combo)
        v = field.add(acc.get(exps, 0), c)
        if v:
            acc[exps] = v
        else:
            acc.pop(exps, None)
