import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pirbatch import linalg
from pirbatch.gf import Field, np

# rref for every field, and bitmasks too at q = 2: primes, among them
# 65521, the largest prime field a descriptor accepts, where products of two
# entries need 32 bits, and extension fields of characteristic 2 and odd p
ORDERS = [2, 3, 5, 7, 11, 65521, 4, 8, 9, 25, 27]
KINDS = ["consistent", "inconsistent", "rank-deficient", "empty", "zero-target"]


def _combine(fld, cols, coeffs, n):
    """sum_j coeffs[j] * cols[j] over the field, a vector of length n."""
    out = [0] * n
    for c, col in zip(coeffs, cols):
        out = [fld.add(t, fld.mul(c, x)) for t, x in zip(out, col)]
    return out


def _system(fld, kind, n, k, rng):
    """(columns, target) of one kind; consistent kinds hit the span."""
    q = fld.q

    def entry():
        return rng.choice([0, rng.randrange(q)])

    cols = [[entry() for _ in range(n)] for _ in range(k)]
    if kind == "empty":
        return [], [entry() for _ in range(n)]
    if kind == "rank-deficient" and cols:
        cols.insert(rng.randrange(k + 1), _combine(fld, cols[:1], [rng.randrange(q)], n))
        cols.append(_combine(fld, [cols[0], cols[-1]], [1, 1], n))
    if kind == "zero-target":
        return cols, [0] * n
    if kind == "inconsistent":
        return cols, [rng.randrange(q) for _ in range(n)]
    return cols, _combine(fld, cols, [rng.randrange(q) for _ in cols], n)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from(ORDERS), kind=st.sampled_from(KINDS),
       n=st.integers(0, 7), k=st.integers(1, 8), seed=st.integers(0, 2 ** 32))
def test_prime_field_solve_matches_elimination(q, kind, n, k, seed):
    fld = Field.from_order(q)
    cols, target = _system(fld, kind, n, k, random.Random(seed))
    got = linalg.solve_in_span(fld, cols, target)
    assert got == linalg.solve_by_elimination(fld, cols, target)
    if q == 2:
        sol = linalg.solve_in_span_gf2(_words(cols, n), _words([target], n)[0])
        assert got == (None if sol is None else [sol >> i & 1 for i in range(len(cols))])
    if kind in ("consistent", "rank-deficient", "zero-target"):
        assert got is not None
    if kind == "empty":
        assert (got is None) == any(target)
    if got is not None:
        assert len(got) == len(cols)
        rows = [list(r) for r in zip(*cols)]
        assert linalg.matvec(fld, rows, got) == (target if cols else [])


def _words(vectors, t):
    """The word of each 0/1 vector of length t, through `linalg.pack_words`."""
    return linalg.pack_words(np.array(vectors, dtype=np.uint8).reshape(len(vectors), t))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=300))
def test_pack_and_unpack_are_inverse(bits):
    word = _words([bits], len(bits))[0]
    assert word == sum(b << i for i, b in enumerate(bits))
    assert linalg.unpack_words([word], len(bits))[0].tolist() == bits
    assert linalg._symbols(bits, 2) == bytes(bits)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(0, 140).flatmap(lambda t: st.tuples(
    st.just(t), st.lists(st.integers(0, (1 << t) - 1) | st.just(0), max_size=12))))
@example(case=(0, [0, 0, 0]))  # no bits: every word is 0
@example(case=(1, [0, 1, 1]))
@example(case=(8, [0, 0, 255, 1]))  # one full byte
@example(case=(9, [0, 511, 256]))  # one bit past a byte
def test_word_packer_round_trip(case):
    t, words = case
    bits = linalg.unpack_words(words, t)
    assert bits.shape == (len(words), t) and bits.dtype == np.uint8
    assert bits.tolist() == [[w >> b & 1 for b in range(t)] for w in words]
    assert linalg.pack_words(bits) == words
    # any nonzero entry is a set bit
    assert linalg.pack_words(bits * 3) == words
    # the same words as uint64 lanes, one per 64 bits
    lanes = linalg.word_lanes(words, t)
    assert lanes.shape == (len(words), -(-t // 64)) and lanes.dtype == np.uint64
    assert lanes.tolist() == [[w >> 64 * l & (1 << 64) - 1 for l in range(-(-t // 64))]
                              for w in words]


def test_symbols_refuses_entries_outside_the_field():
    assert linalg._symbols([True, False, 1], 2) == b"\x01\x00\x01"
    assert linalg._symbols([0, 10, 3], 11) == b"\x00\x0a\x03"
    for q, bad in ((2, 2), (2, -1), (2, 256), (2, 0.0), (2, "1"), (2, None),
                   (11, 11), (11, -1), (256, 256)):
        assert linalg._symbols([0, bad], q) is None


@pytest.mark.parametrize("vec,q,ok", [
    ([0, 3, 1], 4, True),
    ([0, 4], 4, False),
    ([0, 65535, 300], 1 << 16, True),
    ([1 << 16], 1 << 16, False),
    ([-1], 1 << 16, False),
    (["1"], 4, False),
    (["1"], 1 << 16, False),
    ([0.0], 1 << 16, False),
])
def test_in_field(vec, q, ok):
    assert linalg.in_field(vec, q) is ok
