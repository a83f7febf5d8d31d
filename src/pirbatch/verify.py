"""Construction-independent certification of availability claims.

Everything here works from a generator matrix and claimed coordinate
sets: linear-algebra recovering-set checks, exhaustive (or seeded,
sampled) PIR and batch certification, brute-force minimum distance, and
black-box generator extraction.  For linear codes, a symbol being a
function of a coordinate restriction is the same as the matching unit
vector lying in the restricted column span; the brute-force functional
oracle below cross-checks that equivalence at tiny sizes.  A claimed set
may carry a witness, the coefficients its construction recovers with;
checking them against the extracted generator proves the membership
without solving, and a witness that fails only sends the set to the
solve.  A request's witness rows are checked together: one gather of
the generator's columns at its sets' positions, range-checked first,
and one `gf.matmul` against the stacked rows.  Only XOR readers over
GF(2), the array codes' sets, XOR the generator's column masks instead,
so array commands never load numpy.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from . import gf, linalg
from .gf import CapacityError, np

MIN_DISTANCE_GUARD = 2 * 10 ** 7
FUNCTIONAL_ORACLE_GUARD = 10 ** 4
DEFAULT_REQUEST_LIMIT = 10 ** 6


class GeneratorMatrix:
    """Systematic n x N generator: rows encode the unit messages and the
    columns at info_positions form an identity.

    It keeps one form, the one it was built with: its rows as a read-only
    array in the narrowest unsigned type (`matrix`, from the rows it is
    given, which it copies), or over GF(2) its column bitmasks (`masks`,
    by `from_masks`).  The other form, and the rows as tuples, are derived
    on first use and kept; rows and masks convert through `linalg`'s word
    packer."""

    def __init__(self, field, rows, info_positions):
        self.field = field
        self.matrix = gf.narrow(field, rows)
        self.info_positions = tuple(info_positions)
        self.n, self.N = self.matrix.shape

    @classmethod
    def from_masks(cls, field, n, masks, info_positions):
        G = cls.__new__(cls)
        G.field, G.masks, G.info_positions = field, tuple(masks), tuple(info_positions)
        G.n, G.N = n, len(G.masks)
        return G

    @cached_property
    def matrix(self):
        """The rows as one read-only array in the narrowest unsigned type."""
        # mask j unpacked to its n bits is column j
        return gf.narrow(self.field, linalg.unpack_words(self.masks, self.n).T)

    @cached_property
    def masks(self) -> tuple:
        """Column j over GF(2) as an int whose bit r is its entry in row r."""
        return tuple(linalg.pack_words(self.matrix.T))

    @cached_property
    def rows(self) -> tuple:
        """The rows as tuples of ints, as tests compare them."""
        return tuple(map(tuple, self.matrix.tolist()))

    def column(self, j: int) -> tuple:
        return tuple(self.matrix[:, j].tolist())


def extract_generator(fld, encoder, n, N, trials=50, rng=None) -> GeneratorMatrix:
    """The generator of a linear encoder, from one block of messages: the
    n unit messages, whose encodings are the rows, then ``trials``
    random message pairs A and B, then the sums A + B.

    The block is checked as a whole: every encoding has length N and
    symbols in [0, q), the trial encodings are additive, and every row
    has a unit column (the first, found on the column masks over GF(2),
    else on the rows array).  An encoder with a ``batch`` attribute, as
    a `codes.Encoder` has, encodes the block in one call, over GF(2) as
    column words, otherwise as a (messages, n) array.  Any other encoder
    takes the array path on every field, GF(2) included: it is called
    once per row of the block and must return ints.  The generator keeps
    what it was built with for later checks.  An n x N generator above
    `linalg.MAX_GENERATOR_ENTRIES` raises CapacityError before any
    message is encoded.
    """
    linalg.check_generator_size(n, N)
    rng = rng or random.Random(0)
    batch = getattr(encoder, "batch", None)
    if fld.q == 2 and batch is not None:
        return _extract_words(fld, batch, n, N, trials, rng)
    return _extract_array(fld, batch or _mapped_rows(encoder, N), n, N, trials, rng)


def _length(got, N):
    if got != N:
        raise ValueError(f"encoder returned length {got}, expected {N}")


def _outside(q):
    return ValueError(f"encoder returned a symbol outside [0, {q})")


_NOT_ADDITIVE = "encoder is not additive; cannot certify as linear"


def _extract_words(fld, batch, n, N, trials, rng):
    """`extract_generator` on column words: a word packs message r's bit
    at bit r, the units at bits [0, n), then A, B and A + B, ``trials``
    bits each.  An encoded word outside [0, 2^(n + 3 trials)) is a
    symbol outside [0, 2); additivity is one shift-and-XOR per word, and
    the unit rows are the low n bits of the words, the masks."""
    t = trials
    a, b = _random_words(rng, n, t), _random_words(rng, n, t)
    out = batch([1 << j | x << n | y << n + t | (x ^ y) << n + 2 * t
                 for j, x, y in zip(range(n), a, b)])
    _length(len(out), N)
    if out and (min(out) < 0 or max(out) >> n + 3 * t):
        raise _outside(2)
    low = (1 << t) - 1
    if any((w >> n ^ w >> n + t ^ w >> n + 2 * t) & low for w in out):
        raise ValueError(_NOT_ADDITIVE)
    masks = [w & (1 << n) - 1 for w in out]
    return GeneratorMatrix.from_masks(fld, n, masks, _unit_columns(
        n, ((m.bit_length() - 1, j) for j, m in enumerate(masks)
            if m and not m & (m - 1))))


def _extract_array(fld, batch, n, N, trials, rng):
    """`extract_generator` on a (n + 3 trials, n) array of messages: the
    identity, A, B and A + B.  The generator copies the unit rows out of
    the encoded block, so the block is freed on return."""
    q, t = fld.q, trials
    a, b = _random_array(rng, q, t, n), _random_array(rng, q, t, n)
    out = np.asarray(batch(np.vstack([np.eye(n, dtype=np.int64), a, b,
                                      gf.add(fld, a, b)])))
    if out.ndim != 2 or len(out) != n + 3 * t:
        raise ValueError(f"encoder returned a batch of shape {out.shape}, "
                         f"expected ({n + 3 * t}, {N})")
    _length(out.shape[1], N)
    if out.dtype.kind not in "iu" or out.size and (out.min() < 0 or out.max() >= q):
        raise _outside(q)
    out = gf.narrow(fld, out)  # frees the wide array before the checks below
    if not np.array_equal(gf.add(fld, out[n:n + t], out[n + t:n + 2 * t]),
                          out[n + 2 * t:]):
        raise ValueError(_NOT_ADDITIVE)
    units = out[:n]
    nonzero = units != 0
    unit = np.flatnonzero((nonzero.sum(axis=0) == 1) & (units.max(axis=0, initial=0) == 1))
    return GeneratorMatrix(fld, units, _unit_columns(
        n, zip(nonzero[:, unit].argmax(axis=0).tolist(), unit.tolist())))


def _random_words(rng, n, t) -> list:
    """The column words of t random messages of n bits: one `getrandbits`
    call per word, which is cheaper than cutting one long draw."""
    return [rng.getrandbits(t) for _ in range(n)]


def _random_array(rng, q, t, n):
    """A (t, n) array of random elements of GF(q) from one `getrandbits`
    call: 32 random bits per element, reduced mod q."""
    raw = rng.getrandbits(32 * t * n).to_bytes(4 * t * n, "little")
    return np.frombuffer(raw, dtype="<u4").reshape(t, n).astype(np.int64) % q


def _mapped_rows(encoder, N):
    """A batch encoder over arrays that calls ``encoder`` once per row."""

    def batch(messages):
        rows = []
        for m in messages.tolist():
            cw = list(encoder(m))
            _length(len(cw), N)
            rows.append(cw)
        return np.array(rows)

    return batch


def _unit_columns(n, candidates) -> tuple:
    """The first unit column of each of the n rows, from the (row, column)
    pairs of the unit columns, in column order."""
    found = {}
    for r, j in candidates:
        found.setdefault(r, j)
    missing = [i for i in range(n) if i not in found]
    if missing:
        raise ValueError(f"encoder is not systematic: no unit column for rows {missing}")
    return tuple(found[i] for i in range(n))


def is_recovering_set(G: GeneratorMatrix, i: int, R, witness=None):
    """Whether message symbol i is a function of the coordinates in R;
    for a linear code that is membership of the unit vector in the
    restricted column span.  Returns (ok, coefficients or None).

    ``witness``, when given, holds one coefficient per position of R in
    R's order.  If it combines R's columns into the unit vector, that
    proves the membership; otherwise, or without a witness, the span is
    solved, so a wrong witness never changes the answer.  A position of
    R outside [0, N), or i outside [0, n), raises ValueError."""
    if not 0 <= i < G.n:
        raise ValueError(f"targets message {i} outside [0, {G.n})")
    return _recovery(G, G.info_positions[i], R, witness)


def is_recovering_position(G: GeneratorMatrix, j: int, R, witness=None):
    """Same test for an arbitrary codeword position j, which must lie in
    [0, N)."""
    if not 0 <= j < G.N:
        raise ValueError(f"targets position {j} outside [0, {G.N})")
    return _recovery(G, j, R, witness)


def _target(G, j):
    """Column j of G, over GF(2) its bitmask.  Message i's target is
    column info_positions[i], its unit vector in a systematic
    generator."""
    return G.masks[j] if G.field.q == 2 else G.matrix[:, j]


def _check_positions(N, R):
    """Refuse a position of R outside [0, N), naming the first in R's
    order.  It runs before any column is read: numpy and Python indexing
    would wrap a negative position onto another coordinate."""
    if R and not (0 <= min(R) and max(R) < N):
        bad = next(j for j in R if not 0 <= j < N)
        raise ValueError(f"reads position {bad} outside [0, {N})")


def _recovery(G, column, R, witness):
    """Whether R recovers generator column ``column``: a witness that is
    |R| field elements is checked as a stack of one, then the span is
    solved."""
    _check_positions(G.N, R)
    if witness is not None:
        R, coeffs = list(R), list(witness)
        if (len(coeffs) == len(R) and linalg.in_field(coeffs, G.field.q)
                and _witnesses_hold(G, np.array([R], dtype=np.intp),
                                    [([coeffs], [column])])[0][0]):
            return True, dict(zip(R, coeffs))
    return _solve_recovery(G, _target(G, column), R)


def _witnesses_hold(G: GeneratorMatrix, index, witnesses) -> list:
    """Whether witness rows combine the generator's columns into their
    targets, checked all at once.

    Row s of the (sets, L) array ``index`` holds the positions of set s,
    all in [0, N), then zeros.  ``witnesses[s]`` is (rows, columns): each
    row has one coefficient per position of set s, and row r must
    combine their columns into generator column ``columns[r]``; a column
    past the last row has no witness and fails.  The rows go into one
    zero-padded (sets, w, L) stack, so one `gf.matmul` of the gathered
    columns against the stack and one comparison with the target columns
    check every row; padding has coefficient 0 and adds nothing.  Rows
    are non-negative ints, and one with an entry outside the field fails.
    Returns one list of booleans per set, one per column."""
    fld = G.field
    w = max(len(columns) for _, columns in witnesses)
    stack = np.zeros(index.shape[:1] + (w,) + index.shape[1:], dtype=np.int64)
    checked = []  # how many rows of each set are stacked
    for s, (rows, columns) in enumerate(witnesses):
        h = min(len(rows), len(columns))
        if h:
            stack[s, :h, :len(rows[0])] = rows[:h]
        checked.append(h)
    target = np.array([[*columns, *[0] * (w - len(columns))] for _, columns in witnesses],
                      dtype=np.intp)
    in_field = True
    if stack.max(initial=0) >= fld.q:
        in_field = ~(stack >= fld.q).any(axis=2)
        stack[~in_field] = 0  # such a row fails; its product is not read
    combined = gf.matmul(fld, stack, G.matrix[:, index].transpose(1, 2, 0))
    held = ((combined == G.matrix.T[target]).all(axis=2) & in_field).tolist()
    return [ok[:h] + [False] * (len(columns) - h)
            for ok, h, (_, columns) in zip(held, checked, witnesses)]


def _padded(sets, N):
    """The positions of ``sets``, each a sequence, as one (len(sets), L)
    array, row s set s's positions then zeros, with whether they all lie
    in [0, N) and whether no position repeats; None when a position does
    not fit the array's integer type."""
    lengths = [len(R) for R in sets]
    try:
        if min(lengths) == max(lengths):  # as the k sets of a symbol are
            index = np.array(sets, dtype=np.intp)
            flat = index.ravel()
        else:
            index = np.zeros((len(sets), max(lengths)), dtype=np.intp)
            for s, R in enumerate(sets):
                index[s, :len(R)] = R
            flat = index[np.arange(index.shape[1]) < np.array(lengths)[:, None]]
    except OverflowError:
        return None
    flat = np.sort(flat)
    return (index, not flat.size or (0 <= flat[0] and flat[-1] < N),
            not (flat[1:] == flat[:-1]).any())


def _xor_holds(G: GeneratorMatrix, R, column) -> bool:
    """Whether the XOR of R's GF(2) column masks is column ``column``,
    the witness of an XOR reader, with no numpy."""
    masks = G.masks
    acc = 0
    for j in R:
        acc ^= masks[j]
    return acc == masks[column]


def _solve_recovery(G, target, R):
    """``target`` is a `_target` column."""
    cols_idx = sorted(R)
    if G.field.q == 2:
        masks = G.masks
        sol = linalg.solve_in_span_gf2([masks[j] for j in cols_idx], target)
        coeffs = None if sol is None else [sol >> t & 1 for t in range(len(cols_idx))]
    else:
        coeffs = linalg.solve_in_span(G.field, G.matrix[:, cols_idx].T, target)
    if coeffs is None:
        return False, None
    return True, {j: c for j, c in zip(cols_idx, coeffs) if c}


@dataclass
class Report:
    """Outcome of a certification run; failures are data, not errors."""

    total: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)  # (request_id, detail)
    seed: int | None = None

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.total > 0

    def record(self, request_id, detail=None):
        self.total += 1
        if detail is None:
            self.passed += 1
        else:
            self.failures.append((request_id, detail))

    def summary(self) -> dict:
        return {"total": self.total, "passed": self.passed,
                "failed": self.failed, "seed": self.seed}

    def csv_rows(self):
        yield ("request_id", "status", "detail")
        for rid, detail in self.failures:
            yield (rid, "fail", detail)
        if not self.failures:
            yield ("all", "pass", f"{self.passed} requests")


def _claim(R):
    """(positions, reader or None) of a claimed set: a set of positions
    has no reader; a reader (`codes.Reader`) carries its positions, its
    operator (None for an XOR) and one witness row per value it
    recovers."""
    positions = getattr(R, "positions", None)
    return (R, None) if positions is None else (positions, R)


def _sets_disjoint(sets):
    seen = set()
    for s in sets:
        if not seen.isdisjoint(s):
            return False
        seen.update(s)
    return True


def _columns(G, target, positions_of):
    """The generator columns a set must recover for ``target``, the
    message it names or with ``positions_of`` each of its positions, up
    to the first outside the code, and the problem of that one (None)."""
    if positions_of is None:
        if 0 <= target < G.n:
            return [G.info_positions[target]], None
        return [], f"targets message {target} outside [0, {G.n})"
    columns = []
    for j in positions_of(target):
        if not 0 <= j < G.N:
            return columns, f"targets position {j} outside [0, {G.N})"
        columns.append(j)
    return columns, None


def _claim_problems(G: GeneratorMatrix, k: int, targets, sets, positions_of):
    """The problems of a claim that k disjoint ``sets`` recover
    ``targets``, set s target s: a wrong count, an overlap, and each set
    that does not recover its target (a set past the last target is only
    counted).  A target is a message index, or with ``positions_of`` an
    id whose positions its set must recover, witness row r the r-th.

    When every set is an operator reader, their positions go into one
    padded index, tested for range and overlap as a whole; only a claim
    that fails either takes the per-set tests, which name the position.
    No column is read before its set's range test.  The witness rows of
    operator readers, and of XOR readers off GF(2), are then checked in
    one `_witnesses_hold` product; an XOR reader over GF(2) XORs the
    column masks (`_xor_holds`), so array codes never load numpy.  Only a
    value whose witness fails, or that has none, has its span solved.
    The problems joined by "; ", or None when there are none."""
    problems = []
    if len(sets) != k:
        problems.append(f"expected {k} sets, got {len(sets)}")
    sets = [_claim(R) for R in sets]
    N = G.N
    index, in_range, disjoint = None, False, False
    if sets and all(r is not None and r.operator is not None for _, r in sets):
        index, in_range, disjoint = (_padded([R for R, _ in sets], N)
                                     or (None, False, False))
    if not disjoint and not _sets_disjoint(R for R, _ in sets):
        problems.append("sets overlap")
    checks, stacked = [], []
    for si, ((R, reader), target) in enumerate(zip(sets, targets)):
        try:
            columns, error = _columns(G, target, positions_of)
            if columns and not in_range:
                _check_positions(N, R)  # before the first column is checked
        except ValueError as exc:
            columns, error = [], str(exc)
        held = [False] * len(columns)
        if reader is not None and columns:
            if reader.operator is None and G.field.q == 2:
                held[0] = _xor_holds(G, R, columns[0])
            else:
                rows = reader.witness
                if len(rows) and len(rows[0]) == len(R):  # else every row fails
                    stacked.append((si, held, (rows, columns)))
        checks.append((R, target, columns, held, error))
    if stacked:
        ids = [si for si, _, _ in stacked]
        if index is None:
            index = _padded([sets[si][0] for si in ids], N)[0]
        elif len(ids) < len(index):
            index = index[ids]
        for (_, held, _), ok in zip(stacked, _witnesses_hold(
                G, index, [witness for _, _, witness in stacked])):
            held[:] = ok
    for si, (R, target, columns, held, error) in enumerate(checks):
        for column, ok in zip(columns, held):
            if not ok and not _solve_recovery(G, _target(G, column), R)[0]:
                what = (f"message {target}" if positions_of is None
                        else f"position {column}")
                problems.append(f"set {si} does not recover {what}")
        if error:
            problems.append(f"set {si} {error}")
    return "; ".join(problems) or None


def certify_pir(G: GeneratorMatrix, claims, k: int) -> Report:
    """Check that every target's k claimed sets are valid recovering sets
    and pairwise disjoint.

    ``claims`` maps a message index to its list of claimed sets: sets of
    coordinates, or readers whose first witness row is checked before
    any span is solved.  A position outside [0, N) fails the claim.  These
    are `certify_batch`'s checks of the request (i, ..., i), keyed by i.
    """
    report = Report()
    for target, sets in claims.items():
        report.record(target, _claim_problems(G, k, itertools.repeat(target),
                                              sets, None))
    return report


def certify_batch(G: GeneratorMatrix, planner, requests, positions_of=None) -> Report:
    """Run the planner on every request and check validity plus pairwise
    disjointness of the returned sets, one per request entry in sorted
    order.

    Requests are multisets of target ids; ``positions_of`` maps a target
    id to the codeword positions its set must recover (default: the id is
    a message index).  The planner returns sets of positions or readers;
    a reader's witness row r is checked for the r-th position of its
    target before any span is solved.  A position outside [0, N) fails
    the request.  A failure's detail is the request, then the problems
    in `certify_pir`'s words.
    """
    report = Report()
    for rid, request in enumerate(requests):
        try:
            sets = planner(request)
        except Exception as exc:  # planner failures are certification data
            report.record(rid, f"planner failed on {request}: {exc}")
            continue
        detail = _claim_problems(G, len(request), sorted(request), sets, positions_of)
        report.record(rid, detail and f"{request}: {detail}")
    return report


def enumerate_requests(num_targets: int, k: int,
                       limit=DEFAULT_REQUEST_LIMIT, seed=0):
    """All size-k multisets of the targets 0 .. num_targets - 1, or a
    seeded sample when the full enumeration exceeds ``limit``, which must
    be at least 1.  Returns (requests, seed_used, sampled).
    """
    if limit < 1:
        raise ValueError(f"the request limit must be >= 1, got {limit}")
    targets = range(num_targets)
    total = 1
    for i in range(k):
        total = total * (num_targets + i) // (i + 1)  # C(n+k-1, k)
    if total <= limit:
        return itertools.combinations_with_replacement(targets, k), None, False
    rng = random.Random(seed)
    sample = (tuple(sorted(rng.choices(targets, k=k))) for _ in range(limit))
    return sample, seed, True


def min_distance(G: GeneratorMatrix, symbol_size: int = 1) -> int:
    """Exact minimum nonzero codeword weight by message enumeration: the
    messages, a chunk at a time as base-q digits, times the generator
    through `gf.matmul`.

    Weight counts nonzero blocks of ``symbol_size`` consecutive
    coordinates, so multi-component symbols can be scored as units.
    """
    fld = G.field
    q, n, N = fld.q, G.n, G.N
    if q ** n > MIN_DISTANCE_GUARD:
        raise CapacityError(f"{q}^{n} messages exceed the enumeration guard")
    if N % symbol_size:
        raise ValueError("symbol_size must divide the code length")
    total = q ** n
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best = N + 1
    chunk = 1 << 14
    for start in range(1, total, chunk):  # message 0 is the zero message
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cw = gf.matmul(fld, (idx[:, None] // radix) % q, G.matrix)
        weights = cw.reshape(cw.shape[0], -1, symbol_size).any(axis=2).sum(axis=1)
        best = min(best, int(weights.min()))
    return best


def functional_recovery_oracle(G: GeneratorMatrix, i: int, R) -> bool:
    """Brute-force check that message symbol i is determined by the
    restriction to R, by enumerating every message."""
    fld = G.field
    q, n = fld.q, G.n
    if q ** n > FUNCTIONAL_ORACLE_GUARD:
        raise CapacityError(f"{q}^{n} messages exceed the oracle guard")
    cols = [G.column(j) for j in sorted(R)]
    seen = {}
    for msg in itertools.product(range(q), repeat=n):
        key = tuple(linalg._dot(fld, msg, col) for col in cols)
        if seen.setdefault(key, msg[i]) != msg[i]:
            return False
    return True
