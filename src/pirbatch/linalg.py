"""Dense linear algebra over a Field: elimination and span tests.

Matrices are lists of row lists of ints, or int arrays of elements, and
everything here is exact.  `rref`, numpy Gauss-Jordan over every field
that adds negated multiples of each pivot row to the others, serves span
solving, the Hermite line solvers of `mpoly` and the systematic view of
a multiplicity code.  `row_echelon_with_combos` serves only
`solve_by_elimination`, the pure-Python oracle of `solve_in_span`.
`solve_in_span_gf2` solves on GF(2) bitmasks without numpy;
`pack_words` and `unpack_words` are the one conversion between words
(ints whose bit b is entry b) and 0/1 arrays, and `word_lanes` lays the
same words out as uint64 lanes.  `_symbols` and `in_field`
check that a vector's entries lie in [0, q).  `check_generator_size`
refuses a dense generator above `MAX_GENERATOR_ENTRIES` before it is
built.
"""

from __future__ import annotations

from . import gf
from .gf import CapacityError, np

# entries of the largest dense n x N generator a code may build or a
# certification may extract: about 20 times the largest the tests build
MAX_GENERATOR_ENTRIES = 10 ** 7


def check_generator_size(n: int, N: int) -> None:
    """Refuse an n x N generator above the cap before it is built."""
    if n * N > MAX_GENERATOR_ENTRIES:
        raise CapacityError(f"a {n} x {N} generator exceeds the cap of "
                            f"{MAX_GENERATOR_ENTRIES} entries")


def matvec(field, rows, v):
    return [_dot(field, row, v) for row in rows]


def matmul(field, a_rows, b_rows):
    cols = list(zip(*b_rows))
    return [[_dot(field, row, col) for col in cols] for row in a_rows]


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def rref(field, matrix):
    """(reduced, pivots): the reduced row echelon form of a matrix of
    elements, as a new int64 array, and the pivot column of each leading
    row, by numpy Gauss-Jordan over the field.  Each pivot is the first
    column with a nonzero below the rows already reduced, so the pivot
    columns are the first ones independent of those before.

    Prime fields scale and subtract rows by int64 arithmetic mod p.
    Extension fields scale by `gf.multiply` and add negated multiples of
    the pivot row by `gf.add`, negating the factor column once per pivot.
    Each pivot costs tens of µs of numpy call overhead."""
    p, prime = field.p, field.e == 1
    work = np.array(matrix, dtype=np.int64)
    if prime:
        work %= p
    pivots = []
    col = 0
    while len(pivots) < work.shape[0]:  # at full row rank all is reduced
        r = len(pivots)
        live = np.flatnonzero(work[r:, col:].any(axis=0))
        if live.size == 0:
            break
        col += int(live[0])
        lead = r + int(np.flatnonzero(work[r:, col])[0])
        if lead != r:
            work[[r, lead]] = work[[lead, r]]
        scale = field.inv(int(work[r, col]))
        factors = work[:, col].copy()
        factors[r] = 0
        if prime:
            work[r] = work[r] * scale % p
            work = (work - factors[:, None] * work[r]) % p
        else:
            work[r] = gf.multiply(field, work[r], scale)
            negated = gf.multiply(field, factors, field.neg(1))
            work = gf.add(field, work, gf.multiply(field, negated[:, None], work[r]))
        pivots.append(col)
        col += 1
    return work, pivots


def row_echelon_with_combos(field, rows):
    """Reduce rows to echelon form, tracking each output row as a
    combination of the inputs.

    Returns (ech, combos, pivot_cols): ech[i] has leading 1 at
    pivot_cols[i], and ech[i] == combos[i] @ rows.
    """
    width = len(rows[0]) if rows else 0
    nrows = len(rows)
    ech, combos, pivot_cols = [], [], []
    for ridx, row in enumerate(rows):
        vec = list(row)
        combo = [0] * nrows
        combo[ridx] = 1
        for i, pc in enumerate(pivot_cols):
            c = vec[pc]
            if c:
                vec = [field.sub(x, field.mul(c, y)) for x, y in zip(vec, ech[i])]
                combo = [field.sub(x, field.mul(c, y)) for x, y in zip(combo, combos[i])]
        lead = next((j for j in range(width) if vec[j]), None)
        if lead is None:
            continue
        inv_l = field.inv(vec[lead])
        ech.append([field.mul(inv_l, x) for x in vec])
        combos.append([field.mul(inv_l, x) for x in combo])
        pivot_cols.append(lead)
    return ech, combos, pivot_cols


def solve_in_span(field, columns, target):
    """Coefficients expressing ``target`` as a combination of ``columns``,
    or None when target is outside their span.

    Free coefficients are set to zero, so the answer is deterministic:
    the pivot columns of a matrix do not depend on how it is reduced, so
    the rref of [columns | target] here, `solve_by_elimination` (the
    oracle) and `solve_in_span_gf2` on bitmask columns all return the
    same coefficients.
    """
    if len(columns) == 0:
        return [] if not any(target) else None
    ncols = len(columns)
    reduced, pivots = rref(field, np.column_stack(
        [np.asarray(columns, dtype=np.int64).T, np.asarray(target, dtype=np.int64)]))
    if ncols in pivots:
        return None  # pivot in the target column: inconsistent
    coeffs = [0] * ncols
    for r, col in enumerate(pivots):
        coeffs[col] = int(reduced[r, ncols])
    return coeffs


def solve_by_elimination(field, columns, target):
    """`solve_in_span` by exact elimination on lists of field elements."""
    n = len(target)
    # eliminate on rows of [columns | target]
    work = [[col[r] for col in columns] + [target[r]] for r in range(n)]
    ncols = len(columns)
    ech, _, pivot_cols = row_echelon_with_combos(field, work)
    if ncols in pivot_cols:
        return None  # pivot in the target column: inconsistent
    coeffs = [0] * ncols
    for row, pc in reversed(list(zip(ech, pivot_cols))):
        acc = row[ncols]
        for j in range(pc + 1, ncols):
            if row[j] and coeffs[j]:
                acc = field.sub(acc, field.mul(row[j], coeffs[j]))
        coeffs[pc] = acc
    return coeffs


def _word_bytes(words, width):
    """Each word as ``width`` bytes, little-endian: a (len(words), width)
    uint8 array.  A word must fit."""
    return np.frombuffer(b"".join(w.to_bytes(width, "little") for w in words),
                         dtype=np.uint8).reshape(len(words), width)


def unpack_words(words, t):
    """The low t bits of each word, bit 0 first, as a (len(words), t)
    uint8 array of 0 and 1: row j holds word j.  A word must fit in
    ceil(t / 8) bytes.  The inverse of `pack_words`."""
    return np.unpackbits(_word_bytes(words, (t + 7) // 8), axis=1, count=t,
                         bitorder="little")


def word_lanes(words, t):
    """Words of t bits as ceil(t / 64) uint64 lanes each, lane l holding
    bits 64l to 64l + 63: a (len(words), ceil(t / 64)) array."""
    return _word_bytes(words, 8 * -(-t // 64)).view("<u8")


def pack_words(bits) -> list:
    """The word of each row of a 2-D array, as an int whose bit b is set
    when the row's entry b is nonzero.  A row of at most 8 entries, as a
    single message's are, packs to one byte, which is its word; a row of
    none is the word 0."""
    count, t = bits.shape
    width = (t + 7) // 8
    raw = np.packbits(bits, axis=1, bitorder="little").tobytes()
    if width <= 1:
        return list(raw) if width else [0] * count
    return [int.from_bytes(raw[j:j + width], "little")
            for j in range(0, count * width, width)]


def _symbols(vec, q):
    """vec as bytes, or None when an entry is not an int in [0, q);
    for q <= 256."""
    try:
        # from a list, bytearray() is about twice as fast as bytes()
        raw = bytes(bytearray(vec))
    except (TypeError, ValueError):  # an entry that is not an int in [0, 256)
        return None
    return None if raw.translate(None, bytes(range(q))) else raw


def in_field(vec, q) -> bool:
    """Whether every entry of vec is an int in [0, q); in one pass in C
    through `_symbols` when q <= 256."""
    if q <= 256:
        return _symbols(vec, q) is not None
    return all(isinstance(x, int) and 0 <= x < q for x in vec)


def solve_in_span_gf2(column_masks, target_mask):
    """GF(2) span membership on bitmask columns.

    Returns a mask over column indices whose XOR equals the target, or
    None when unreachable.  The mask holds only columns independent of
    those before them, as `solve_in_span` sets free coefficients to zero.
    """
    basis = {}  # leading bit -> (vector, combo); every vector has its own
    for idx, col in enumerate(column_masks):
        v, combo = col, 1 << idx
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = (v, combo)
                break
            bv, bc = basis[top]
            v ^= bv
            combo ^= bc
    t, sol = target_mask, 0
    while t:
        top = t.bit_length() - 1
        if top not in basis:
            return None
        bv, bc = basis[top]
        t ^= bv
        sol ^= bc
    return sol
