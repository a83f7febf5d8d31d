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
solve.  Certification checks its claims a chunk at a time (`_Checker`)
and gives each claim of a chunk one verdict, pass or fail: the positions
of every operator reader go into one index, a `codes.Recovery`'s own
when the claim is one, tested for range once and for overlaps by one
row-wise sort, and every witness row is checked in one call, over GF(2)
as XORs of the generator's packed column words, otherwise as one
`gf.matmul`.  Every claim the chunk does not pass, and every claim
without witness rows, goes through one set-by-set diagnosis that words
its problems: each set's range test, then for each target column the
set's witness (the chunk's verdict on its row, or for an XOR reader
over GF(2) the XOR of the generator's column masks), and the span solve
only when that fails.  The array codes' XOR readers take that diagnosis
alone, so array commands never load numpy.
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
# Gathered generator entries per chunk of claims checked together (one
# column word per 64 rows over GF(2), n field elements otherwise): a
# certification holds one chunk's arrays at a time, however many
# requests it checks.
CHUNK_ENTRIES = 1 << 17


class GeneratorMatrix:
    """Systematic n x N generator: rows encode the unit messages and the
    columns at info_positions form an identity.

    It keeps one form, the one it was built with: its rows as a read-only
    array in the narrowest unsigned type (`matrix`, from the rows it is
    given, which it copies), or over GF(2) its column bitmasks (`masks`,
    by `from_masks`).  The other form, the rows as tuples and over GF(2)
    the masks as uint64 words (`words`) are derived on first use and
    kept; rows, masks and words convert through `linalg`'s word packer."""

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
    def words(self):
        """Column j over GF(2) as ceil(n / 64) uint64 words, row r at bit
        r % 64 of word r // 64: a read-only (N, ceil(n / 64)) array."""
        out = linalg.word_lanes(self.masks, self.n)
        out.setflags(write=False)
        return out

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
    return is_recovering_position(G, G.info_positions[i], R, witness)


def is_recovering_position(G: GeneratorMatrix, j: int, R, witness=None):
    """Same test for an arbitrary codeword position j, which must lie in
    [0, N).  A witness that is |R| field elements is checked as a stack
    of one.  Either path returns the nonzero coefficients by position."""
    if not 0 <= j < G.N:
        raise ValueError(f"targets position {j} outside [0, {G.N})")
    _check_positions(G.N, R)
    if witness is not None:
        R, coeffs = list(R), list(witness)
        if (len(coeffs) == len(R) and linalg.in_field(coeffs, G.field.q)
                and _witnesses_hold(G, np.array([R], dtype=np.intp),
                                    np.array([[coeffs]], dtype=np.int64),
                                    np.array([[j]], dtype=np.intp))[0, 0]):
            return True, {p: c for p, c in zip(R, coeffs) if c}
    return _solve_recovery(G, j, R)


def _check_positions(N, R):
    """Refuse a position of R outside [0, N), naming the first in R's
    order.  It runs before any column is read: numpy and Python indexing
    would wrap a negative position onto another coordinate."""
    if R and not (0 <= min(R) and max(R) < N):
        bad = next(j for j in R if not 0 <= j < N)
        raise ValueError(f"reads position {bad} outside [0, {N})")


def _witnesses_hold(G: GeneratorMatrix, index, stack, target):
    """Whether witness rows combine the generator's columns into their
    targets, checked all at once.

    Row s of the (sets, L) array ``index`` holds the positions of set s,
    all in [0, N), then zeros; ``stack[s]`` holds its w witness rows, one
    non-negative coefficient per position and 0 under the padding, and
    row r must combine set s's columns into generator column
    ``target[s, r]``.  A row whose target is -1 is padding and holds; a
    row with an entry outside the field fails.  Over GF(2) a row XORs the
    packed column words (`GeneratorMatrix.words`) its ones select, so the
    gathered block is one word per 64 rows of a column; other fields take
    one `gf.matmul` of the stack against the gathered columns.  Returns a
    (sets, w) boolean array."""
    fld = G.field
    in_field = True
    if stack.max(initial=0) >= fld.q:
        in_field = (stack < fld.q).all(axis=2)
        stack = np.where(in_field[..., None], stack, 0)  # such a row fails
    if fld.q == 2:
        words = G.words
        gathered = np.take(words, index, axis=0)  # (sets, L, words)
        combined = np.stack([np.bitwise_xor.reduce(gathered * (stack[:, r] == 1)[..., None],
                                                   axis=1)
                             for r in range(stack.shape[1])], axis=1)
        want = np.take(words, target, axis=0)
    else:
        combined = gf.matmul(fld, stack, np.take(G.matrix, index, axis=1).transpose(1, 2, 0))
        want = np.take(G.matrix, target, axis=1).transpose(1, 2, 0)
    return (combined == want).all(axis=2) & in_field | (target < 0)


def _xor_holds(G: GeneratorMatrix, R, column) -> bool:
    """Whether the XOR of R's GF(2) column masks is column ``column``,
    the witness of an XOR reader, with no numpy."""
    masks = G.masks
    acc = 0
    for j in R:
        acc ^= masks[j]
    return acc == masks[column]


def _solve_recovery(G, column, R):
    """Whether R's columns span generator column ``column``: (True, the
    nonzero coefficients by position) or (False, None)."""
    cols_idx = sorted(R)
    if G.field.q == 2:
        masks = G.masks
        sol = linalg.solve_in_span_gf2([masks[j] for j in cols_idx], masks[column])
        coeffs = None if sol is None else [sol >> t & 1 for t in range(len(cols_idx))]
    else:
        coeffs = linalg.solve_in_span(G.field, G.matrix[:, cols_idx].T, G.matrix[:, column])
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


@dataclass(slots=True)
class _Claim:
    """A claim waiting for its chunk's check: ``checks`` holds one
    (positions, target, columns, error, rows, witnesses) tuple per set,
    whose first ``witnesses`` target ``columns`` have a witness: the
    first ``rows`` of an operator reader, which take rows of the chunk's
    arrays, or for an XOR reader over GF(2) (``rows`` None) the XOR of
    the column masks, for the first column.  ``fast`` says that the
    chunk's verdict alone can pass the claim: it has k sets and each has
    a witness row for each of its columns.  ``recovery`` is the claimed
    `codes.Recovery` when each of its readers has those rows, whatever
    its count; its own arrays then fill the chunk."""

    rid: object
    request: object  # the batch request its detail starts with
    k: int
    checks: list
    recovery: object
    fast: bool


class _Checker:
    """The claims of one certification, checked a chunk at a time and
    recorded into ``report`` in the order they arrive.

    `add` does a claim's per-set Python work: the set's positions and
    reader, and the columns its target names (`_columns`).  A claim
    with witness rows, from operator readers, waits for its chunk: a
    (claims, K, L) index of positions and a (claims, K, w, L) stack of
    witness rows, filled from a claimed `codes.Recovery` (its own
    ``index`` and ``stack``) when every reader has a witness row for
    each of its columns, or else from the readers.  A chunk holds as many
    claims as keep its index within `CHUNK_ENTRIES` gathered entries
    (one column word per 64 rows over GF(2), n elements otherwise), so
    memory stays bounded however many requests run.

    `check` gives each claim of the chunk one verdict, pass or fail,
    from one range test, one row-wise sort of the (claims, K·L) index,
    padding made distinct, for overlaps, and one `_witnesses_hold` call
    for every witness row.  A claim it passes is recorded.  Any other,
    and a claim without witness rows (plain sets, XOR readers), goes
    through the one set-by-set diagnosis, `_problems`, which words its
    problems.  An XOR reader over GF(2), as the array codes' sets are,
    is checked on the column masks (`_xor_holds`), so array commands
    never load numpy."""

    def __init__(self, G, positions_of, report):
        self.G, self.positions_of, self.report = G, positions_of, report
        # gathered entries per position of a set
        self.entries = -(-G.n // 64) if G.field.q == 2 else G.n
        self.pending = []
        self.shape = (0, 0, 0)  # K sets, L positions, w witness rows

    def fail(self, rid, detail):
        """Record a claim that failed before it reached the checker, after
        the claims waiting before it."""
        self.check()
        self.report.record(rid, detail)

    def add(self, rid, request, k, targets, sets):
        """Check that k disjoint ``sets`` recover ``targets``, set s target
        s, in the words of `certify_pir`; ``request`` (None for a PIR
        claim) starts the detail.  A target is a message index, or with
        ``positions_of`` an id whose positions its set must recover,
        witness row r the r-th.  A set past the last target is counted
        and range-tested only.  ``sets`` is a list of sets of positions or
        readers, or a `codes.Recovery`."""
        G, gf2 = self.G, self.G.field.q == 2
        readers = getattr(sets, "readers", sets)
        checks, fast, width, height = [], True, 0, 0
        last = found = None
        for R, target in zip(readers, itertools.chain(targets, itertools.repeat(None))):
            if found is None or target != last:  # the k sets of a PIR claim share theirs
                last, found = target, (([], None) if target is None
                                       else _columns(G, target, self.positions_of))
            columns, error = found
            positions = getattr(R, "positions", None)
            op = None if positions is None else R.operator
            if op is None:  # a set, or an XOR reader: over GF(2) the XOR is its witness
                fast = False
                checks.append((R, target, columns, error, None, 0) if positions is None
                              else (positions, target, columns, error, None, int(gf2)))
                continue
            R, rows = positions, op.matrix
            # its first `width` rows; rows of another length than R all fail
            h = min(op.width, len(rows), len(columns)) if rows.shape[1] == len(R) else 0
            if len(R) > width:
                width = len(R)
            if h > height:
                height = h
            if fast:
                fast = h == len(columns) > 0 and error is None
            checks.append((R, target, columns, error, rows, h))
        if not height:
            self.check()  # claims are recorded in the order they arrive
            self._record(request, rid, self._problems(k, checks))
            return
        claim = _Claim(rid, request, k, checks, sets if fast and sets is not readers else None,
                       fast and len(checks) == k)
        K, L, w = self.shape
        K, L = max(K, len(checks)), max(L, width)
        if self.pending and (
                (len(self.pending) + 1) * max(K * L, 1) * self.entries > CHUNK_ENTRIES):
            self.check()
            K, L, w = len(checks), width, 0
        self.pending.append(claim)
        self.shape = K, L, max(w, height)

    def check(self):
        """Check and record every waiting claim."""
        claims, self.pending = self.pending, []
        (K, L, w), self.shape = self.shape, (0, 0, 0)
        if not claims:
            return
        C, N = len(claims), self.G.N
        index = np.zeros((C, K, L), dtype=np.intp)
        stack = np.zeros((C, K, w, L), dtype=np.uint16)
        target = [-1] * (C * K * w)
        length = [0] * (C * K)
        overflow = []
        for c, claim in enumerate(claims):
            rec = claim.recovery
            if rec is not None:
                index[c, :len(rec.index), :rec.index.shape[1]] = rec.index
                witness = rec.stack[:, :w]
                stack[c, :len(witness), :witness.shape[1], :witness.shape[2]] = witness
            for s, (R, _, columns, _, rows, h) in enumerate(claim.checks):
                if rows is None:
                    continue
                row = c * K + s
                length[row] = len(R)
                target[row * w:row * w + h] = columns[:h]
                if rec is None:
                    try:
                        index[c, s, :len(R)] = R
                    except OverflowError:  # a position no index can hold
                        overflow.append(row)
                    if h:
                        stack[c, s, :h, :len(R)] = rows[:h]
        in_range = True
        if overflow or index.min(initial=0) < 0 or index.max(initial=0) >= N:
            outside = (index < 0) | (index >= N)
            outside.reshape(C * K, L)[overflow] = True
            index[outside] = 0  # no column is read at a bad position
            in_range = ~outside.reshape(C, K * L).any(axis=1)
        keyed = index
        if min(length) < L:  # padding made distinct, all at N or above
            keyed = np.where(np.arange(L) < np.reshape(length, (C, K, 1)), index,
                             np.arange(N, N + K * L).reshape(K, L))
        # every position now lies in [0, N + K L): sort in the narrowest type
        keyed = np.sort(keyed.reshape(C, K * L).astype(np.min_scalar_type(N + K * L)),
                        axis=1)
        held = _witnesses_hold(self.G, index.reshape(C * K, L), stack.reshape(C * K, w, L),
                               np.array(target, dtype=np.intp).reshape(C * K, w))
        ok = (held.reshape(C, K * w).all(axis=1)
              & ~(keyed[:, 1:] == keyed[:, :-1]).any(axis=1) & in_range).tolist()
        for c, claim in enumerate(claims):
            if claim.fast and ok[c]:
                self.report.record(claim.rid)
            else:
                self._record(claim.request, claim.rid, self._problems(
                    claim.k, claim.checks, held[c * K:c * K + K].tolist()))

    def _record(self, request, rid, detail):
        if detail and request is not None:
            detail = f"{request}: {detail}"
        self.report.record(rid, detail)

    def _problems(self, k, checks, held=None):
        """The problems of a claim, set by set: a wrong count, an overlap,
        each set that reads a position outside [0, N), and each value
        that a set does not recover, its witness tried first (the chunk's
        verdict ``held`` on an operator reader's row, the column masks
        for an XOR reader over GF(2)) and its span solved when that fails
        or it has none.  Joined by "; ", or None."""
        G = self.G
        problems = []
        if len(checks) != k:
            problems.append(f"expected {k} sets, got {len(checks)}")
        if not _sets_disjoint(c[0] for c in checks):
            problems.append("sets overlap")
        for si, (R, target, columns, error, rows, h) in enumerate(checks):
            if columns or target is None:
                try:
                    _check_positions(G.N, R)  # before the first column is read
                except ValueError as exc:
                    columns, error = [], str(exc)
            for r, column in enumerate(columns):
                if not (r < h and (_xor_holds(G, R, column) if rows is None
                                   else held[si][r])
                        or _solve_recovery(G, column, R)[0]):
                    what = (f"message {target}" if self.positions_of is None
                            else f"position {column}")
                    problems.append(f"set {si} does not recover {what}")
            if error:
                problems.append(f"set {si} {error}")
        return "; ".join(problems) or None


def certify_pir(G: GeneratorMatrix, claims, k: int) -> Report:
    """Check that every target's k claimed sets are valid recovering sets
    and pairwise disjoint.

    ``claims`` maps a message index to its claimed sets: a list of sets of
    coordinates or readers, whose first witness row is checked before any
    span is solved, or a `codes.Recovery`.  A position outside [0, N)
    fails the claim.  These are `certify_batch`'s checks of the request
    (i, ..., i), keyed by i, but for a set past the k-th, which must
    recover message i too.
    """
    report = Report()
    checker = _Checker(G, None, report)
    for target, sets in claims.items():
        checker.add(target, None, k, itertools.repeat(target), sets)
    checker.check()
    return report


def certify_batch(G: GeneratorMatrix, planner, requests, positions_of=None) -> Report:
    """Run the planner on every request and check validity plus pairwise
    disjointness of the returned sets, one per request entry in sorted
    order, the claims of a chunk at once (`_Checker`).

    Requests are multisets of target ids; ``positions_of`` maps a target
    id to the codeword positions its set must recover (default: the id is
    a message index).  The planner returns a list of sets of positions or
    readers, or a `codes.Recovery`; a reader's witness row r is checked
    for the r-th position of its target before any span is solved.  A
    position outside [0, N) fails the request, in a set past the last
    entry too.  A failure's detail is the request, then the problems in
    `certify_pir`'s words.
    """
    report = Report()
    checker = _Checker(G, positions_of, report)
    for rid, request in enumerate(requests):
        try:
            sets = planner(request)
        except Exception as exc:  # planner failures are certification data
            checker.fail(rid, f"planner failed on {request}: {exc}")
            continue
        checker.add(rid, request, len(request), sorted(request), sets)
    checker.check()
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
