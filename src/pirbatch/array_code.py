"""Binary array codes from diagonal parities.

Data bits sit in an r x p array; every slope in S contributes one parity
bit per diagonal of that slope.  With p prime, diagonals of distinct
slopes meet in at most one cell, which yields disjoint per-bit recovering
sets; slope sets avoiding weighted arithmetic progressions mod p extend
this to whole batches of requests.  Coordinates are laid out data first
(row-major), then parities (slope-major), then the optional global
parity bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter, xor

from .gf import is_prime, smallest_prime_above
from .linalg import _symbols, solve_in_span_gf2


class BatchPlanningError(RuntimeError):
    """No disjoint assignment of recovering sets exists for a request;
    carries the offending request."""

    def __init__(self, request):
        super().__init__(f"no disjoint recovering sets for request {request}")
        self.request = tuple(request)


@dataclass(frozen=True)
class ArrayCodeParams:
    rows: int
    cols: int
    slopes: tuple
    global_parity: bool = False

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        object.__setattr__(self, "slopes", tuple(self.slopes))
        s = self.slopes
        if not s:
            raise ValueError("need at least one slope")
        if any(not 0 <= x < self.cols for x in s) or list(s) != sorted(set(s)):
            raise ValueError("slopes must be strictly increasing within [0, cols)")

    @property
    def k(self) -> int:
        return len(self.slopes)

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    @property
    def redundancy(self) -> int:
        return self.k * self.cols + (1 if self.global_parity else 0)

    @property
    def length(self) -> int:
        return self.dim + self.redundancy

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dim, self.length)


def diagonal(s: int, t: int, r: int, p: int) -> tuple:
    """Cells (i, <t + i*s> mod p) for i in [r]: one cell per row."""
    if not 0 <= s < p or not 0 <= t < p:
        raise ValueError(f"slope {s} and offset {t} must lie in [0, {p})")
    return tuple((i, (t + i * s) % p) for i in range(r))


def diagonal_partition(s: int, r: int, p: int) -> list:
    """The p diagonals of one slope; together they partition the array."""
    return [diagonal(s, t, r, p) for t in range(p)]


# -- coordinate layout -------------------------------------------------------

def data_index(params: ArrayCodeParams, i: int, j: int) -> int:
    return i * params.cols + j


def parity_index(params: ArrayCodeParams, ell: int, t: int) -> int:
    return params.dim + ell * params.cols + t


@dataclass(frozen=True)
class ArrayCodeword:
    params: ArrayCodeParams
    data: tuple      # r*p bits, row-major
    parities: tuple  # k*p bits, slope-major
    global_bit: int | None = None

    def codeword(self) -> list:
        out = list(self.data) + list(self.parities)
        if self.params.global_parity:
            out.append(self.global_bit)
        return out


def _flatten_data(params, data) -> bytes:
    """The data bits, given flat or as rows, as bytes of 0 and 1."""
    if len(data) == params.rows and all(
            hasattr(row, "__len__") and len(row) == params.cols for row in data):
        data = [b for row in data for b in row]
    if len(data) != params.dim:
        raise ValueError(f"expected {params.dim} data bits, got {len(data)}")
    bits = _symbols(data, 2)
    if bits is None:
        raise ValueError("data bits must be 0 or 1")
    return bits


def encode_array(params: ArrayCodeParams, data) -> ArrayCodeword:
    """XOR one parity per diagonal per slope, slope-major then offset:
    `encode_columns` on a batch of one message, whose column words are
    its bits."""
    bits = _flatten_data(params, data)
    cw = encode_columns(params, bits)
    end = params.length - params.global_parity
    return ArrayCodeword(params=params, data=tuple(bits),
                         parities=tuple(cw[params.dim:end]),
                         global_bit=cw[-1] if params.global_parity else None)


def encode_columns(params: ArrayCodeParams, words) -> list:
    """The codewords of a batch of messages as column words: ``words[j]``
    holds data bit j of every message (bit r of message r), and entry j
    of the result holds coordinate j of every codeword the same way.

    Each parity is the XOR of its diagonal's words, so the cost is one
    XOR per diagonal cell whatever the number of messages; a single
    message is a batch whose words are its bits.
    """
    if len(words) != params.dim:
        raise ValueError(f"expected {params.dim} data words, got {len(words)}")
    out = list(words)
    for rows in _diagonal_getters(params):
        acc = rows[0](words)
        for cells in rows[1:]:
            acc = map(xor, acc, cells(words))
        out.extend(acc)
    if params.global_parity:
        out.append(reduce(xor, words, 0))
    return out


@lru_cache(maxsize=None)
def _diagonal_getters(params: ArrayCodeParams) -> tuple:
    """Per slope s and row i, a getter of the words of the row-i cells of
    the diagonals of slope s, by offset: cell (i, t + i*s mod p) for t in
    [p), as a tuple even when p = 1."""
    p = params.cols
    if p == 1:
        return tuple(tuple((lambda words, j=i: (words[j],)) for i in range(params.rows))
                     for _ in params.slopes)
    return tuple(tuple(itemgetter(*(i * p + (t + i * s) % p for t in range(p)))
                       for i in range(params.rows))
                 for s in params.slopes)


def pir_sets_for_bit(params: ArrayCodeParams, cell) -> list:
    """One recovering set per slope for the given data cell: the rest of
    the diagonal through it plus that diagonal's parity bit.  Pairwise
    disjoint when p is prime and r <= p."""
    return list(_pir_sets_cached(params, tuple(cell)))


def check_disjoint(params: ArrayCodeParams) -> None:
    """Refuse params whose diagonal sets of different slopes may meet:
    with two or more slopes, p must be prime and r <= p."""
    if params.k >= 2 and not is_prime(params.cols):
        raise ValueError("disjointness across slopes needs a prime column count")
    if params.k >= 2 and params.rows > params.cols:
        raise ValueError("disjointness across slopes needs rows <= cols")


@lru_cache(maxsize=None)
def _pir_sets_cached(params: ArrayCodeParams, cell) -> tuple:
    # checked on every cache miss; a ValueError is not cached, so invalid
    # params and cells raise on every call
    i, j = cell
    if not (0 <= i < params.rows and 0 <= j < params.cols):
        raise ValueError(f"cell {cell} outside the array")
    check_disjoint(params)
    p = params.cols
    out = []
    for ell, s in enumerate(params.slopes):
        t = (j - i * s) % p
        members = {parity_index(params, ell, t)}
        members.update(data_index(params, i2, j2)
                       for i2, j2 in diagonal(s, t, params.rows, p)
                       if (i2, j2) != (i, j))
        out.append(frozenset(members))
    return tuple(out)


@lru_cache(maxsize=None)
def _pir_set_masks(params: ArrayCodeParams, cell) -> tuple:
    return tuple(sum(1 << j for j in s) for s in _pir_sets_cached(params, cell))


def has_weighted_ap(slopes, r: int, p: int):
    """Witness (s1, s2, s3, x, y) with pairwise distinct slopes and
    0 < x, y < r-1, x + y < r, such that x*s1 + y*s2 = (x+y)*s3 mod p;
    None when the set is progression-free."""
    if not is_prime(p):
        raise ValueError("the progression test is defined modulo a prime")
    if r < 2:
        raise ValueError("need r >= 2")
    slopes = tuple(slopes)
    for s1, s2, s3 in itertools.permutations(slopes, 3):
        for x in range(1, r - 1):
            for y in range(1, r - 1):
                if x + y < r and (x * s1 + y * s2 - (x + y) * s3) % p == 0:
                    return (s1, s2, s3, x, y)
    return None


def greedy_slope_set(r: int, p: int, k: int) -> tuple:
    """Scan 0, 1, 2, ... keeping every candidate that leaves the set free
    of weighted progressions; guaranteed to reach size k when p > 2k^2r^2.
    """
    chosen = []
    for cand in range(p):
        if len(chosen) == k:
            break
        if has_weighted_ap(chosen + [cand], r, p) is None:
            chosen.append(cand)
    if len(chosen) < k:
        raise ValueError(
            f"slope candidates exhausted at size {len(chosen)} (wanted {k})")
    return tuple(chosen)


def build_rk_batch(r: int, k: int) -> ArrayCodeParams:
    """Smallest-prime instantiation with a greedy progression-free slope
    set: dimension r*p, redundancy k*p, rate r/(r+k)."""
    if r < 2 or k < 1:
        raise ValueError("need r >= 2 and k >= 1")
    p = smallest_prime_above(2 * k * k * r * r)
    return ArrayCodeParams(rows=r, cols=p, slopes=greedy_slope_set(r, p, k))


def params_for_dimension(n: int, k: int) -> ArrayCodeParams:
    """Dimension-targeted batch instance: rows = ceil((n/k^2)^(1/3)) and
    the matching smallest prime, giving redundancy O(n^(2/3) k^(5/3)).
    Requires the k^2 < n regime."""
    if k < 1 or n < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k * k >= n:
        raise ValueError(f"regime violation: need k^2 < n, got k={k}, n={n}")
    r = 1
    while r ** 3 * k * k < n:
        r += 1
    return build_rk_batch(r, k)  # k^2 < n makes r >= 2


@lru_cache(maxsize=None)
def _check_progression_free(params: ArrayCodeParams) -> None:
    # a ValueError is not cached, so such params raise on every call
    if params.k >= 3 and has_weighted_ap(params.slopes, params.rows, params.cols):
        raise ValueError("slope set contains a weighted progression")


def plan_array_batch(params: ArrayCodeParams, request) -> list:
    """Disjoint recovering sets for a multiset of cells, one per request.

    Greedy over sorted requests: each takes its lowest-index recovering
    set that avoids everything already chosen; repeats of a cell consume
    distinct set indices.  With a progression-free slope set every chosen
    set rules out at most one candidate, so the greedy pass cannot stall;
    a stall is reported as a planning error.
    """
    _check_progression_free(params)
    request = tuple(sorted(tuple(c) for c in request))
    if len(request) > params.k:
        raise ValueError(f"at most {params.k} requests, got {len(request)}")
    used = set()
    chosen = []
    for cell in request:
        # every set holds its parity coordinate, so one an earlier repeat
        # of the cell took meets ``used``: repeats take distinct sets
        for pick in pir_sets_for_bit(params, cell):
            if not pick & used:
                break
        else:
            raise BatchPlanningError(request)
        used.update(pick)
        chosen.append(pick)
    return chosen


# -- the 5-batch extension with a global parity bit --------------------------

def five_batch_code(p: int) -> ArrayCodeParams:
    """Square p x p array, slopes {0,1,2,3,4}, plus one global parity bit."""
    if not is_prime(p) or p < 5:
        raise ValueError("need a prime p >= 5")
    return ArrayCodeParams(rows=p, cols=p, slopes=(0, 1, 2, 3, 4),
                           global_parity=True)


@lru_cache(maxsize=None)
def _generator_columns(params: ArrayCodeParams) -> tuple:
    """Column bitmasks of the systematic generator (bit i = message i):
    the codeword columns of the unit messages."""
    return tuple(encode_columns(params, [1 << i for i in range(params.dim)]))


def _assignments(request, masks, order, used, picked):
    """All ways to give each request index in ``order`` one of its
    candidate sets, mutually disjoint, repeats of a cell taking distinct
    candidates; deterministic candidate order."""
    if not order:
        yield dict(picked)
        return
    idx = order[0]
    cell = request[idx]
    for si in range(len(masks[idx])):
        if any(picked[o] == si for o in picked if request[o] == cell):
            continue
        m = masks[idx][si]
        if m & used:
            continue
        picked[idx] = si
        yield from _assignments(request, masks, order[1:], used | m, picked)
        del picked[idx]


def plan_five_batch(params: ArrayCodeParams, request) -> list:
    """Disjoint recovering sets for a multiset of 5 cells.

    The slope set {0..4} is not progression-free, so greedy diagonal
    assignment can stall.  The matcher backtracks over each request's
    five diagonal sets plus, as a last resort per request, the trivial
    set that reads the requested cell itself (legitimate: the bit is a
    function of its own coordinate, and only one of a cell's sets may
    contain that coordinate).  If backtracking still fails, one request
    is served from the coordinates the other four leave unused; the
    global parity bit makes that leftover span the target, and the reads
    are shrunk to the XOR support found by linear algebra.
    """
    if not params.global_parity or params.slopes != (0, 1, 2, 3, 4):
        raise ValueError("planner expects the global-parity 5-batch layout")
    request = tuple(sorted(tuple(c) for c in request))
    if len(request) != 5:
        raise ValueError(f"expected 5 requests, got {len(request)}")
    sets = [_pir_sets_cached(params, cell) + (frozenset({data_index(params, *cell)}),)
            for cell in request]
    masks = [_pir_set_masks(params, cell) + (1 << data_index(params, *cell),)
             for cell in request]

    all_idx = list(range(5))
    got = next(_assignments(request, masks, all_idx, 0, {}), None)
    if got is not None:
        return [sets[i][got[i]] for i in all_idx]

    columns = _generator_columns(params)
    for fb in all_idx:
        rest = [i for i in all_idx if i != fb]
        target_pos = data_index(params, *request[fb])
        for got in _assignments(request, masks, rest, 0, {}):
            used = 0
            for i in rest:
                used |= masks[i][got[i]]
            avail = [j for j in range(params.length)
                     if j != target_pos and not (used >> j) & 1]
            sol = solve_in_span_gf2([columns[j] for j in avail], 1 << target_pos)
            if sol is None:
                continue
            support = frozenset(avail[b] for b in range(len(avail))
                                if (sol >> b) & 1)
            out = {i: sets[i][got[i]] for i in rest}
            out[fb] = support
            return [out[i] for i in all_idx]
    raise BatchPlanningError(request)


def recover_bit(codeword, rec_set) -> int:
    """XOR the codeword over a recovering set."""
    acc = 0
    for j in rec_set:
        acc ^= codeword[j]
    return acc


def to_descriptor(params: ArrayCodeParams) -> dict:
    return {"family": "array", "r": params.rows, "p": params.cols,
            "S": list(params.slopes), "global_parity": params.global_parity}


def params_from_descriptor(desc: dict) -> ArrayCodeParams:
    return ArrayCodeParams(rows=desc["r"], cols=desc["p"],
                           slopes=tuple(desc["S"]),
                           global_parity=bool(desc.get("global_parity", False)))
