"""Multiplicity codes: order-m derivative evaluations of bounded-degree
polynomials at every point of F_q^s, with a systematic view and
restriction of codewords to lines.

Codeword coordinates are indexed by the points of F_q^s in lexicographic
order of coordinate vectors (field elements in their canonical int
order).  Each symbol is the graded-lex vector of Hasse derivatives of
weight < m at that point, so the base-field layout is point-major,
derivative-component-minor.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import gf, linalg
from .gf import Field, np
from .mpoly import (
    Poly,
    count_degree,
    count_monomials,
    hasse_derivative,
    monomials_below,
    monomials_of_weight,
    monomials_up_to_degree,
)


@dataclass(frozen=True)
class MultCodeParams:
    """Parameters (m, d, s, q): derivative order, degree bound, variable
    count and field."""

    field: Field
    m: int
    d: int
    s: int

    def __post_init__(self):
        if self.m < 1 or self.s < 1 or self.d < 0:
            raise ValueError("need m >= 1, s >= 1, d >= 0")
        if self.d >= self.m * self.q:
            raise ValueError(
                f"d={self.d} >= m*q={self.m * self.q}: encoding map is not injective")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def num_points(self) -> int:
        return self.q ** self.s

    @cached_property
    def symbol_width(self) -> int:
        """Base-field entries per symbol."""
        return count_monomials(self.s, self.m)

    @property
    def base_length(self) -> int:
        return self.num_points * self.symbol_width

    @property
    def base_dim(self) -> int:
        return count_degree(self.s, self.d)

    @property
    def k_pir(self) -> int:
        return (self.q // self.m) ** (self.s - 1)


@lru_cache(maxsize=None)
def code_points(params: MultCodeParams) -> tuple:
    """All q^s coordinate points in codeword order."""
    return tuple(itertools.product(range(params.q), repeat=params.s))


@lru_cache(maxsize=None)
def symbol_slots(params: MultCodeParams) -> dict:
    """Each point's range of flat base-field positions."""
    width = params.symbol_width
    return {w: range(t * width, (t + 1) * width)
            for t, w in enumerate(code_points(params))}


def point_index(params: MultCodeParams, w) -> int:
    idx = 0
    for c in w:
        idx = idx * params.q + c
    return idx


class MultCodeword:
    """One codeword: a symbol (order-m evaluation tuple) per point."""

    __slots__ = ("params", "symbols")

    def __init__(self, params: MultCodeParams, symbols):
        symbols = tuple(tuple(s) for s in symbols)
        if len(symbols) != params.num_points:
            raise ValueError("wrong number of symbols")
        if any(len(s) != params.symbol_width for s in symbols):
            raise ValueError("symbol width mismatch")
        self.params = params
        self.symbols = symbols

    def __getitem__(self, w) -> tuple:
        return self.symbols[point_index(self.params, w)]

    def base_values(self) -> list:
        """Flat base-field vector, point-major."""
        return [v for sym in self.symbols for v in sym]

    def __eq__(self, other):
        return (isinstance(other, MultCodeword)
                and self.params == other.params and self.symbols == other.symbols)

    @classmethod
    def from_base_values(cls, params, values):
        if len(values) != params.base_length:
            raise ValueError("wrong base-field length")
        return cls(params, zip(*[iter(values)] * params.symbol_width))


def encode_poly(params: MultCodeParams, P: Poly) -> MultCodeword:
    """Evaluate all Hasse derivatives of weight < m at every point."""
    if P.field != params.field or P.s != params.s:
        raise ValueError("polynomial ring does not match the code parameters")
    if P.degree() > params.d:
        raise ValueError(f"degree {P.degree()} exceeds bound d={params.d}")
    derivs = [hasse_derivative(P, i) for i in monomials_below(params.s, params.m)]
    return MultCodeword(params, [tuple(D.evaluate(w) for D in derivs)
                                 for w in code_points(params)])


@dataclass(frozen=True)
class SystematicView:
    """Information positions plus the invertible map from information
    values to polynomial coefficients (rows index info symbols, columns
    index basis monomials in graded-lex order), and the systematic
    generator it gives, stored transposed: ``generator[j]`` is the
    information-to-coordinate-j map, so a codeword is
    ``generator @ info`` over GF(q)."""

    params: MultCodeParams
    info_positions: tuple
    transform: tuple
    generator: np.ndarray = dataclasses.field(repr=False, compare=False)


@lru_cache(maxsize=None)
def systematic_view(params: MultCodeParams) -> SystematicView:
    """Deterministic systematic view: information positions are the first
    pivot columns of the generator map in coordinate order.

    One rref of [rows | I] gives all three: its pivots, its left block
    (the systematic generator) and its right block (the transform, which
    maps the rows to that generator and so inverts their information
    columns)."""
    field = params.field
    basis = monomials_up_to_degree(params.s, params.d)
    rows = [encode_poly(params, Poly(field, params.s, {i: 1})).base_values()
            for i in basis]
    n, N = len(rows), params.base_length
    reduced, pivots = linalg.rref(field, np.hstack(
        [np.asarray(rows, dtype=np.int64), np.eye(n, dtype=np.int64)]))
    if any(col >= N for col in pivots):
        raise RuntimeError("generator map is rank deficient")
    return SystematicView(params, tuple(pivots),
                          tuple(map(tuple, reduced[:, N:].tolist())),
                          gf.narrow(field, reduced[:, :N].T))


def systematic_encode(view: SystematicView, info) -> MultCodeword:
    """Encode so the base-field values at info_positions equal ``info``:
    one product with the stored generator.  `encode_poly` of the
    polynomial with coefficients ``info @ transform`` is its oracle."""
    params = view.params
    n = len(view.info_positions)
    if len(info) != n:
        raise ValueError(f"expected {n} information symbols, got {len(info)}")
    values = gf.matmul(params.field, view.generator, info).tolist()
    return MultCodeword.from_base_values(params, values)


@lru_cache(maxsize=None)
def _component_rows(params: MultCodeParams, v: tuple) -> tuple:
    """For each derivative order j < m along direction v, the (symbol
    component, v^i) pairs whose weighted sum gives the j-th univariate
    Hasse derivative of the line restriction."""
    field = params.field
    rows = []
    offset = 0
    for j in range(params.m):
        row = []
        for i in monomials_of_weight(params.s, j):
            vpow = 1
            for vt, it in zip(v, i):
                if it:
                    vpow = field.mul(vpow, field.pow(vt, it))
            row.append((offset, vpow))
            offset += 1
        rows.append(tuple(row))
    return tuple(rows)


def line_points(params: MultCodeParams, w0, v, drops=frozenset()) -> list:
    """(lambda, w0 + lambda*v) for every nonzero lambda not in ``drops``,
    in increasing lambda."""
    return [(lam, w) for lam, w in enumerate(_line(params, tuple(w0), tuple(v)), 1)
            if lam not in drops]


@lru_cache(maxsize=4096)
def _line(params: MultCodeParams, w0: tuple, v: tuple) -> tuple:
    """w0 + lambda*v for lambda = 1, ..., q - 1, each point the tuple that
    `code_points` holds, so that a cached line keeps only references.
    Batch planning walks every line of a plan once per request."""
    field, points = params.field, code_points(params)
    return tuple(points[point_index(params, [field.add(a, field.mul(lam, b))
                                             for a, b in zip(w0, v)])]
                 for lam in range(1, params.q))


def line_samples(codeword, w0, v, drops=frozenset(), params=None):
    """Order-m univariate evaluations of the codeword's restriction to the
    line w0 + lambda*v, for every nonzero undropped lambda.

    ``codeword`` is anything mapping a point tuple to its symbol; passing a
    restriction that covers only the line is enough.
    """
    if params is None:
        params = codeword.params
    field = params.field
    v = tuple(v)
    w0 = tuple(w0)
    if all(c == 0 for c in v):
        raise ValueError("direction must be nonzero")
    if 0 in drops or any(not 0 <= lam < params.q for lam in drops):
        raise ValueError("drops must be nonzero field elements")
    rows = _component_rows(params, v)
    out = []
    for lam, w in line_points(params, w0, v, drops):
        sym = codeword[w]
        ev = []
        for row in rows:
            acc = 0
            for pos, vpow in row:
                x = sym[pos]
                if x and vpow:
                    acc = field.add(acc, field.mul(x, vpow))
            ev.append(acc)
        out.append((lam, tuple(ev)))
    return out


def code_profile(params: MultCodeParams) -> dict:
    """Headline parameters: symbol length N, dimension n (in symbols, as a
    rational, and in base-field units), availability, distance bound and
    the symbol alphabet size Q."""
    sigma = params.symbol_width
    return {
        "N": params.num_points,
        "n": Fraction(params.base_dim, sigma),
        "n_base": params.base_dim,
        "N_base": params.base_length,
        "k_pir": params.k_pir,
        "rate": Fraction(params.base_dim, sigma * params.num_points),
        "distance_bound": (1 - Fraction(params.d, params.m * params.q))
        * params.num_points,
        "Q": params.q ** sigma,
    }


def to_descriptor(params: MultCodeParams) -> dict:
    return {
        "family": "multiplicity",
        "m": params.m,
        "d": params.d,
        "s": params.s,
        "q": params.q,
        "modulus": list(params.field.modulus),
    }


def params_from_descriptor(desc: dict) -> MultCodeParams:
    field = Field.from_order(desc["q"], modulus=desc.get("modulus"))
    return MultCodeParams(field=field, m=desc["m"], d=desc["d"], s=desc["s"])
