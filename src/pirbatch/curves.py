"""Redundancy trade-off curves in exact rational arithmetic.

A code of dimension n with availability n^eps (PIR or batch) and
redundancy O(n^delta) sits at the point (eps, delta).  This module holds
the closed forms of every construction, the reference curves the
paper's figures compare against, and the two CSV renderings the
``curves`` command emits.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

F = Fraction

# ---------------------------------------------------------------------------
# PIR over multiplicity codes, as a function of the variable count s
# ---------------------------------------------------------------------------

def pir_delta_qary(s: int, eps: Fraction) -> Fraction:
    """Redundancy exponent over large alphabets for a given variable count."""
    eps = Fraction(eps)
    if s < 2:
        raise ValueError("need s >= 2")
    if s * (1 - eps) <= 1:
        raise ValueError(f"s={s} is inadmissible for eps={eps}")
    return 1 - Fraction(1, s) + eps / (s - 1)


def pir_delta_binary(s: int, eps: Fraction) -> Fraction:
    """Binary redundancy exponent for a given variable count."""
    eps = Fraction(eps)
    if s < 2:
        raise ValueError("need s >= 2")
    if s * (1 - eps) <= 1:
        raise ValueError(f"s={s} is inadmissible for eps={eps}")
    return 1 - Fraction(s * (1 - eps) - 1, 2 * s * (s - 1))


def optimal_s_qary(eps: Fraction) -> int:
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    return max(2, int(Fraction(2, 1) / (1 - eps)))


def _argmin_pair(eps: Fraction):
    # both exponents fall as h(s) = (s(1 - eps) - 1) / (s(s - 1)) rises, and
    # h rises up to s+ = (1 + sqrt(eps)) / (1 - eps) and falls after, so c,
    # the least admissible s >= floor(s+), or c + 1 is an argmin (eps = u/v)
    u, v = eps.numerator, eps.denominator
    c = max(v // (v - u) + 1, (v + isqrt(u * v)) // (v - u))
    return c, c + 1


def optimal_s_binary(eps: Fraction) -> int:
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    return min(_argmin_pair(eps), key=lambda s: (pir_delta_binary(s, eps), s))


# ---------------------------------------------------------------------------
# batch availability: multiplicity codes and diagonal array codes
# ---------------------------------------------------------------------------

def batch_delta_qary(eps) -> Fraction:
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps >= Fraction(1, 2):
        return Fraction(1, 2) + eps
    return Fraction(3, 4) + eps / 2


def batch_delta_binary(eps) -> Fraction:
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps >= Fraction(1, 2):
        return Fraction(1, 2) + eps
    return Fraction(5, 6) + eps / 3


def batch_redundancy_exponent(eps) -> Fraction:
    """Exponent 2/3 + 5*eps/3 achieved by the dimension-targeted array
    builder at availability n^eps, for eps < 1/2."""
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError("eps must lie in [0, 1/2)")
    return Fraction(2, 3) + Fraction(5, 3) * eps


def batch_crossover() -> dict:
    """Where the array construction stops beating the multiplicity batch
    curve: solve 2/3 + 5e/3 = 5/6 + e/3 exactly, alongside the commonly
    quoted decimal 0.0755, which does not match the closed forms."""
    lhs_const, lhs_slope = F(2, 3), F(5, 3)
    rhs_const, rhs_slope = F(5, 6), F(1, 3)
    eps = (rhs_const - lhs_const) / (lhs_slope - rhs_slope)
    quoted = 0.0755
    return {"formula": eps, "quoted": quoted,
            "matches_quoted": abs(float(eps) - quoted) < 1e-9}


# ---------------------------------------------------------------------------
# figure reference data (piecewise-linear, exact rationals)
# ---------------------------------------------------------------------------

LOWER_BOUND_CURVE = [(F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1), F(1)),
                     (F(3, 2), F(3, 2)), (F(2), F(2))]
PIR_PRIOR_CURVE = [(F(0), F(1, 2)), (F(29, 100), F(79, 100)),
                   (F(1, 2), F(79, 100)), (F(1, 2), F(1)),
                   (F(1), F(3, 2)), (F(3, 2), F(2))]
BATCH_PRIOR_CURVE = [(F(0), F(4, 5)), (F(1, 5), F(4, 5)), (F(7, 32), F(7, 8)),
                     (F(1, 4), F(7, 8)), (F(1, 4), F(1)), (F(1, 2), F(5, 4)),
                     (F(3, 4), F(3, 2)), (F(1), F(3, 2)), (F(3, 2), F(2))]


def piecewise(points, x):
    """Evaluate a piecewise-linear curve at x; None outside its domain.
    Vertical jumps take the value of the segment left of the jump."""
    x = Fraction(x)
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 == x2:
            continue
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return None


# ---------------------------------------------------------------------------
# figure series and their CSV renderings
# ---------------------------------------------------------------------------

# the points of a step of 1/100000, the finest grid accepted for every
# series: the slowest, binary PIR, takes about 37 s on it on a 2-vCPU
# host, and the time grows with the points
MAX_GRID_POINTS = 200001


def epsilon_grid(step) -> list:
    """0, step, 2*step, ... up to and including 2 when step divides it.
    A step that gives more than `MAX_GRID_POINTS` points raises
    ValueError before any point is made."""
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    points = 2 // step + 1
    if points > MAX_GRID_POINTS:
        raise ValueError(f"the step gives more than {MAX_GRID_POINTS} grid points")
    return [i * step for i in range(points)]


def pir_delta_curves(eps_grid, s_values=None, variant="qary") -> list:
    """Rows (epsilon, s, delta_s, s_star, delta_star) for the requested
    variable counts; epsilon >= 1 rows carry the replication exponent
    delta = epsilon with no s."""
    if variant not in ("qary", "binary"):
        raise ValueError(f"unknown variant {variant!r}")
    delta = pir_delta_qary if variant == "qary" else pir_delta_binary
    rows = []
    for eps in eps_grid:
        eps = Fraction(eps)
        if eps < 0:
            raise ValueError("eps must be >= 0")
        if eps >= 1:
            rows.append({"epsilon": eps, "s": None, "delta": eps,
                         "s_star": None, "delta_star": eps, "variant": variant})
            continue
        # the binary s_star is the smaller s at a tie, as `optimal_s_binary`
        # gives it; the q-ary one is its closed form, which can be the larger
        delta_star, s_star = min((delta(s, eps), s) for s in _argmin_pair(eps))
        if variant == "qary":
            s_star = optimal_s_qary(eps)
        for s in (s_values if s_values is not None else [s_star]):
            if s * (1 - eps) <= 1:
                continue
            rows.append({"epsilon": eps, "s": s,
                         "delta": delta(s, eps),
                         "s_star": s_star, "delta_star": delta_star,
                         "variant": variant})
    return rows


def curve_csv(rows) -> str:
    """Render pir_delta_curves rows as CSV with columns epsilon,s,delta,variant."""
    lines = ["epsilon,s,delta,variant"]
    for row in rows:
        s = "" if row["s"] is None else str(row["s"])
        lines.append(f"{float(row['epsilon'])},{s},{float(row['delta'])},{row['variant']}")
    return "\n".join(lines) + "\n"


def curve_series(which: str, step: Fraction) -> list:
    """Rows (epsilon, delta, series) for one figure's curves."""
    grid = epsilon_grid(step)
    rows = []

    def emit(series, eps, delta):
        if delta is not None:
            rows.append((eps, delta, series))

    if which in ("pir-binary", "pir-qary"):
        binary = which == "pir-binary"
        for row in pir_delta_curves(grid, variant="binary" if binary else "qary"):
            emit("replication" if row["s"] is None else "optimal",
                 row["epsilon"], row["delta"])
        for eps in grid:
            emit("lower-bound", eps, piecewise(LOWER_BOUND_CURVE, eps))
            if binary:
                emit("prior-work", eps, piecewise(PIR_PRIOR_CURVE, eps))
                for s in (3, 5, 7, 20):
                    if s * (1 - eps) > 1:
                        emit(f"delta_s{s}", eps, pir_delta_binary(s, eps))
    elif which == "batch":
        half = Fraction(1, 2)
        for eps in grid:
            if eps < half:
                emit("mult-qary", eps, batch_delta_qary(eps))
                emit("mult-binary", eps, batch_delta_binary(eps))
                emit("array", eps, batch_redundancy_exponent(eps))
            else:
                emit("tail", eps, batch_delta_binary(eps))
        for eps in grid:
            candidates = [batch_delta_binary(eps)]
            if eps < half:
                candidates.append(batch_redundancy_exponent(eps))
            emit("constructions-min", eps, min(candidates))
            emit("lower-bound", eps, piecewise(LOWER_BOUND_CURVE, eps))
            emit("prior-work", eps, piecewise(BATCH_PRIOR_CURVE, eps))
    else:
        raise ValueError(f"unknown curve family {which!r}")
    rows.sort(key=lambda r: (r[2], r[0]))
    return rows


def _decimal(fr: Fraction) -> str:
    """Exact decimal when the denominator allows it, else num/den."""
    den = fr.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{fr.numerator}/{fr.denominator}"
    shift = max(twos, fives)
    scaled = fr.numerator * 10 ** shift // fr.denominator
    if shift == 0:
        return str(scaled)
    digits = str(scaled).rjust(shift + 1, "0")
    return digits[:-shift] + "." + digits[-shift:]


def curves_csv(rows) -> str:
    """Render curve_series rows as CSV with an exact delta column."""
    lines = ["epsilon,delta,series,delta_exact"]
    for eps, delta, series in rows:
        lines.append(f"{_decimal(eps)},{float(delta)},{series},{delta}")
    return "\n".join(lines) + "\n"
