"""Redundancy trade-off curves in exact rational arithmetic.

A code of dimension n with availability n^eps (PIR or batch) and
redundancy O(n^delta) sits at the point (eps, delta).  This module holds
the closed forms of every construction, the reference curves the
paper's figures compare against, each figure's series as a table of
functions of eps, and the one CSV writer the ``curves`` command emits
both column layouts with.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

F = Fraction

# ---------------------------------------------------------------------------
# PIR over multiplicity codes, as a function of the variable count s
# ---------------------------------------------------------------------------

def _admissible(s: int, eps) -> Fraction:
    """eps as a Fraction, once s >= 2 variables give redundancy below n at
    availability n^eps, that is once s(1 - eps) > 1; else ValueError."""
    eps = Fraction(eps)
    if s < 2:
        raise ValueError("need s >= 2")
    if s * (1 - eps) <= 1:
        raise ValueError(f"s={s} is inadmissible for eps={eps}")
    return eps


def pir_delta_qary(s: int, eps: Fraction) -> Fraction:
    """Redundancy exponent over large alphabets for a given variable count."""
    eps = _admissible(s, eps)
    return 1 - Fraction(1, s) + eps / (s - 1)


def pir_delta_binary(s: int, eps: Fraction) -> Fraction:
    """Binary redundancy exponent for a given variable count."""
    eps = _admissible(s, eps)
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
    """The s of least binary exponent, the smaller one at a tie."""
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    return min(_argmin_pair(eps), key=lambda s: (pir_delta_binary(s, eps), s))


# each variant's exponent and the variable count that minimises it
_PIR_VARIANTS = {"qary": (pir_delta_qary, optimal_s_qary),
                 "binary": (pir_delta_binary, optimal_s_binary)}


# ---------------------------------------------------------------------------
# batch availability: multiplicity codes and diagonal array codes
# ---------------------------------------------------------------------------

# below eps = 1/2 each construction's exponent is the line const + slope * eps
BATCH_LINES = {"mult-qary": (F(3, 4), F(1, 2)),
               "mult-binary": (F(5, 6), F(1, 3)),
               "array": (F(2, 3), F(5, 3))}


def _batch_delta(line: str, eps) -> Fraction:
    """The exponent on a construction's line below eps = 1/2, and the
    multiplicity codes' 1/2 + eps from there on."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps >= F(1, 2):
        return F(1, 2) + eps
    const, slope = BATCH_LINES[line]
    return const + slope * eps


def batch_delta_qary(eps) -> Fraction:
    return _batch_delta("mult-qary", eps)


def batch_delta_binary(eps) -> Fraction:
    return _batch_delta("mult-binary", eps)


def batch_redundancy_exponent(eps) -> Fraction:
    """Exponent 2/3 + 5*eps/3 achieved by the dimension-targeted array
    builder at availability n^eps, for eps < 1/2."""
    if not 0 <= Fraction(eps) < F(1, 2):
        raise ValueError("eps must lie in [0, 1/2)")
    return _batch_delta("array", eps)


def batch_crossover() -> dict:
    """Where the array construction stops beating the multiplicity batch
    curve: solve 2/3 + 5e/3 = 5/6 + e/3 exactly, alongside the commonly
    quoted decimal 0.0755, which does not match the closed forms."""
    array, mult = BATCH_LINES["array"], BATCH_LINES["mult-binary"]
    eps = (mult[0] - array[0]) / (array[1] - mult[1])
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
# series: the slowest, binary PIR, takes about 23 s on it on a 2-vCPU
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
    variable counts, each s only where it is admissible, s_star from the
    variant's `optimal_s_*` and delta_star its exponent; epsilon >= 1 rows
    carry the replication exponent delta = epsilon with no s.  Any s
    below 2 raises ValueError."""
    if variant not in _PIR_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    delta, optimal_s = _PIR_VARIANTS[variant]
    if s_values is not None and any(s < 2 for s in s_values):
        raise ValueError("need s >= 2")
    rows = []
    for eps in map(Fraction, eps_grid):
        if eps >= 1:
            rows.append({"epsilon": eps, "s": None, "delta": eps,
                         "s_star": None, "delta_star": eps, "variant": variant})
            continue
        s_star = optimal_s(eps)
        delta_star = delta(s_star, eps)
        for s in (s_values if s_values is not None else [s_star]):
            if s * (1 - eps) > 1:
                rows.append({"epsilon": eps, "s": s, "delta": delta(s, eps),
                             "s_star": s_star, "delta_star": delta_star,
                             "variant": variant})
    return rows


def _csv(header: str, rows) -> str:
    """One CSV line per row of cells, under the header."""
    return "\n".join([header, *(",".join(cells) for cells in rows)]) + "\n"


def curve_csv(rows) -> str:
    """Render pir_delta_curves rows as CSV with columns epsilon,s,delta,variant."""
    return _csv("epsilon,s,delta,variant", (
        (str(float(row["epsilon"])), "" if row["s"] is None else str(row["s"]),
         str(float(row["delta"])), row["variant"]) for row in rows))


def _series(which: str) -> dict:
    """Each series of one figure, by name: eps -> delta, None where the
    series is undefined."""
    if which == "batch":
        series = {line: (lambda eps, line=line: _batch_delta(line, eps)
                         if eps < F(1, 2) else None) for line in BATCH_LINES}
        series["tail"] = lambda eps: batch_delta_binary(eps) if eps >= F(1, 2) else None
        series["constructions-min"] = lambda eps: min(
            d for d in (batch_delta_binary(eps), series["array"](eps)) if d is not None)
        series["prior-work"] = lambda eps: piecewise(BATCH_PRIOR_CURVE, eps)
    elif which in ("pir-binary", "pir-qary"):
        delta, optimal_s = _PIR_VARIANTS[which.removeprefix("pir-")]
        series = {"optimal": lambda eps: delta(optimal_s(eps), eps) if eps < 1 else None,
                  "replication": lambda eps: eps if eps >= 1 else None}
        if which == "pir-binary":
            series["prior-work"] = lambda eps: piecewise(PIR_PRIOR_CURVE, eps)
            for s in (3, 5, 7, 20):
                series[f"delta_s{s}"] = (lambda eps, s=s: pir_delta_binary(s, eps)
                                         if s * (1 - eps) > 1 else None)
    else:
        raise ValueError(f"unknown curve family {which!r}")
    series["lower-bound"] = lambda eps: piecewise(LOWER_BOUND_CURVE, eps)
    return series


def curve_series(which: str, step: Fraction) -> list:
    """Rows (epsilon, delta, series) for one figure's curves, sorted by
    series name, then by epsilon."""
    grid = epsilon_grid(step)
    return [(eps, delta, name) for name, curve in sorted(_series(which).items())
            for eps, delta in zip(grid, map(curve, grid)) if delta is not None]


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
    return _csv("epsilon,delta,series,delta_exact", (
        (_decimal(eps), str(float(delta)), series, str(delta))
        for eps, delta, series in rows))
