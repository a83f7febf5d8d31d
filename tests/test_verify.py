import itertools
import random
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirbatch import gf, pir, verify
from pirbatch.array_code import (
    ArrayCodeParams,
    _generator_columns,
    build_rk_batch,
    encode_array,
    five_batch_code,
    pir_sets_for_bit,
    to_descriptor,
)
from pirbatch.codes import Encoder, Reader, Recovery, binary_expand, build_runtime
from pirbatch.gf import CapacityError, Field, np
from pirbatch.mpoly import Poly
from pirbatch.multiplicity import (
    MultCodeParams,
    systematic_encode,
    systematic_view,
)
from pirbatch.verify import (
    GeneratorMatrix,
    certify_batch,
    certify_pir,
    enumerate_requests,
    extract_generator,
    functional_recovery_oracle,
    is_recovering_position,
    is_recovering_set,
    min_distance,
)

GF2 = Field(2)
GF3 = Field(3)


def identity_generator(fld, n):
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return GeneratorMatrix(field=fld, rows=rows, info_positions=tuple(range(n)))


def array_encoder(params):
    def enc(bits):
        return encode_array(params, bits).codeword()
    return enc


def mult_encoder(params):
    view = systematic_view(params)

    def enc(info):
        return systematic_encode(view, info).base_values()
    return enc


def test_extract_identity():
    G = extract_generator(GF3, lambda m: list(m), 4, 4)
    assert G.rows == identity_generator(GF3, 4).rows
    assert G.info_positions == (0, 1, 2, 3)


def test_extract_array_matches_unit_encodings():
    params = ArrayCodeParams(rows=2, cols=3, slopes=(0, 1))
    G = extract_generator(GF2, array_encoder(params), 6, 12)
    for i in range(6):
        unit = [0] * 6
        unit[i] = 1
        assert list(G.rows[i]) == encode_array(params, unit).codeword()
    assert G.info_positions == tuple(range(6))


def test_extract_multiplicity_vandermonde():
    params = MultCodeParams(field=GF3, m=1, d=1, s=1)
    G = extract_generator(GF3, mult_encoder(params), 2, 3)
    # systematic rows: the lines interpolating unit data at points 0 and 1
    assert G.rows == ((1, 0, 2), (0, 1, 2))
    assert G.info_positions == (0, 1)


def test_extract_rejects_nonlinear():
    def enc(m):
        return [m[0], m[0] * m[0] % 3]
    with pytest.raises(ValueError, match="additive"):
        extract_generator(GF3, enc, 1, 2)


def test_extract_rejects_nonsystematic():
    # repetition of the sum: no column is a unit vector
    def enc(m):
        s = sum(m) % 2
        return [s, s, m[0] ^ m[1]]
    with pytest.raises(ValueError, match="systematic"):
        extract_generator(GF2, enc, 2, 3)


@pytest.mark.parametrize("fld,symbol", [(GF2, 2), (GF2, -1), (GF3, 3), (GF3, -1),
                                        (Field(257), 257), (Field(257), -1)])
def test_extract_refuses_symbols_outside_the_field(fld, symbol):
    # additive over the integers, so only the range check can refuse it
    def enc(m):
        return list(m) + [symbol * m[0]]
    with pytest.raises(ValueError, match="outside"):
        extract_generator(fld, enc, 2, 3)


@pytest.mark.parametrize("fld", [GF2, GF3])
def test_extract_finds_unit_columns_after_a_parity_column(fld):
    G = extract_generator(fld, lambda m: [fld.add(m[0], m[1]), m[0], m[1]], 2, 3)
    assert G.info_positions == (1, 2)


def test_extract_refuses_gf2_encoder_off_on_one_pattern():
    # a parity that is the XOR of its bits except on one message
    bad = [1, 0, 1, 1]

    def enc(m):
        m = list(m)
        return m + [m[0] ^ m[1] ^ m[2] ^ m[3] ^ (m == bad)]
    for seed in range(5):
        with pytest.raises(ValueError, match="additive"):
            extract_generator(GF2, enc, 4, 5, rng=random.Random(seed))


def _gf2_codes():
    yield to_descriptor(ArrayCodeParams(rows=3, cols=5, slopes=(0, 1, 2)))
    yield to_descriptor(build_rk_batch(2, 2))
    yield to_descriptor(five_batch_code(7))
    yield binary_expand({"family": "multiplicity", "m": 2, "d": 2, "s": 2, "q": 8})


@pytest.mark.parametrize("desc", list(_gf2_codes()),
                         ids=["array", "rk-2-2", "five-7", "gf8-bits"])
def test_gf2_extraction_matches_generic_path(desc):
    # the column-word path, on the code's batch encoder, against the array
    # path that every other field takes, on the encoder called per message
    runtime = build_runtime(desc)
    G = extract_generator(GF2, runtime.encode, runtime.n, runtime.N)
    generic = verify._extract_array(
        GF2, verify._mapped_rows(runtime.encode, runtime.N), runtime.n, runtime.N,
        50, random.Random(0))
    assert G.rows == generic.rows
    assert G.masks == generic.masks
    assert G.info_positions == generic.info_positions
    assert G.info_positions == tuple(runtime.info_positions)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 20), N=st.integers(1, 70),
       density=st.sampled_from([0.05, 0.5, 0.95]), seed=st.integers(0, 2 ** 32))
def test_masks_equal_packed_columns(n, N, density, seed):
    rng = random.Random(seed)
    rows = [[int(rng.random() < density) for _ in range(N)] for _ in range(n)]
    rows[rng.randrange(n)] = [0] * N  # an all-zero row
    zero_col = rng.randrange(N)
    for row in rows:
        row[zero_col] = 0  # and an all-zero column
    G = GeneratorMatrix(field=GF2, rows=tuple(map(tuple, rows)), info_positions=())
    masks = tuple(sum(v << r for r, v in enumerate(col)) for col in zip(*rows))
    assert G.masks == masks
    # the same generator built from its masks derives the same rows
    H = GeneratorMatrix.from_masks(GF2, n, masks, ())
    assert H.matrix.dtype == G.matrix.dtype and np.array_equal(H.matrix, G.matrix)
    assert H.rows == G.rows == tuple(map(tuple, rows))
    assert H.masks == masks and (H.n, H.N) == (G.n, G.N) == (n, N)


def test_is_recovering_set_basics():
    params = ArrayCodeParams(rows=2, cols=3, slopes=(0, 1))
    G = extract_generator(GF2, array_encoder(params), 6, 12)
    ok, coeffs = is_recovering_set(G, 0, {0})
    assert ok and coeffs == {0: 1}
    ok, _ = is_recovering_set(G, 0, set())
    assert not ok
    # column parity set: rest of column 0 plus its parity bit
    rec = {3, 6}  # cell (1,0) and parity of column 0
    ok, coeffs = is_recovering_set(G, 0, rec)
    assert ok and set(coeffs) == rec and all(c == 1 for c in coeffs.values())


def test_recover_value_applies_coefficients():
    params = ArrayCodeParams(rows=2, cols=3, slopes=(0, 1))
    G = extract_generator(GF2, array_encoder(params), 6, 12)
    rng = random.Random(1)
    bits = [rng.randrange(2) for _ in range(6)]
    cw = encode_array(params, bits).codeword()
    for rec in pir_sets_for_bit(params, (1, 1)):
        ok, coeffs = is_recovering_set(G, 4, rec)
        assert ok and set(coeffs.values()) == {1}
        acc = 0
        for j in coeffs:
            acc ^= cw[j]
        assert acc == bits[4]


def test_negative_control_removing_coordinate_breaks_parity_set():
    params = ArrayCodeParams(rows=3, cols=5, slopes=(0, 1))
    G = extract_generator(GF2, array_encoder(params), 15, 25)
    for rec in pir_sets_for_bit(params, (1, 2)):
        ok, _ = is_recovering_set(G, 1 * 5 + 2, rec)
        assert ok
        for drop in rec:
            ok, _ = is_recovering_set(G, 1 * 5 + 2, rec - {drop})
            assert not ok


def test_is_recovering_position():
    params = MultCodeParams(field=Field(5), m=1, d=1, s=1)
    G = extract_generator(Field(5), mult_encoder(params), 2, 5)
    # any two evaluation positions determine every other position
    for j in range(5):
        ok, _ = is_recovering_position(G, j, {0, 1})
        assert ok
    ok, _ = is_recovering_position(G, 2, {3})
    assert not ok


def test_certify_pir_pass_and_fail():
    params = ArrayCodeParams(rows=3, cols=5, slopes=(0, 1, 2))
    G = extract_generator(GF2, array_encoder(params), 15, 30)
    claims = {i * 5 + j: pir_sets_for_bit(params, (i, j))
              for i in range(3) for j in range(5)}
    report = certify_pir(G, claims, 3)
    assert report.ok and report.total == 15
    # deliberately overlapping sets must be reported
    sets = pir_sets_for_bit(params, (0, 0))
    bad = {0: [sets[0], sets[0], sets[2]]}
    report = certify_pir(G, bad, 3)
    assert not report.ok
    assert "overlap" in report.failures[0][1]


def test_certify_pir_identity_k1():
    G = identity_generator(GF2, 3)
    report = certify_pir(G, {i: [{i}] for i in range(3)}, 1)
    assert report.ok


def test_certify_batch_reduces_to_pir_at_k1():
    params = ArrayCodeParams(rows=3, cols=5, slopes=(0, 1))
    G = extract_generator(GF2, array_encoder(params), 15, 25)

    def planner(request):
        (target,) = request
        return [pir_sets_for_bit(params, divmod(target, 5))[0]]

    requests, seed, sampled = enumerate_requests(15, 1)
    report = certify_batch(G, planner, requests)
    assert report.ok and report.total == 15 and not sampled


def test_certify_batch_detects_bad_planner():
    G = identity_generator(GF2, 4)

    def planner(request):
        return [{0}, {0}]  # overlapping, and wrong targets

    report = certify_batch(G, planner, [(1, 2)])
    assert not report.ok


def test_enumerate_requests_sampling():
    full, seed, sampled = enumerate_requests(4, 2)
    assert not sampled and len(list(full)) == 10
    sample, seed, sampled = enumerate_requests(100, 5, limit=50, seed=9)
    got = list(sample)
    assert sampled and seed == 9 and len(got) == 50
    assert all(tuple(sorted(r)) == r for r in got)


def test_min_distance_small_codes():
    # repetition code of length 3
    G = GeneratorMatrix(field=GF2, rows=((1, 1, 1),), info_positions=(0,))
    assert min_distance(G) == 3
    assert min_distance(identity_generator(GF2, 3)) == 1
    # single parity check over GF(3): distance 2
    rows = ((1, 0, 1), (0, 1, 1))
    G3 = GeneratorMatrix(field=GF3, rows=rows, info_positions=(0, 1))
    assert min_distance(G3) == 2


def test_min_distance_symbol_blocks():
    # two-coordinate symbols: weight counts blocks
    rows = ((1, 1, 0, 0), (0, 0, 1, 1))
    G = GeneratorMatrix(field=GF2, rows=rows, info_positions=(0, 2))
    assert min_distance(G, symbol_size=2) == 1
    assert min_distance(G) == 2


def test_min_distance_extension_field_path():
    f4 = Field.from_order(4)
    # length-3 Reed-Solomon style rows over GF(4)
    params = MultCodeParams(field=f4, m=1, d=1, s=1)
    G = extract_generator(f4, mult_encoder(params), 2, 4)
    assert min_distance(G) == 3  # evaluation code of degree <= 1 on 4 points


def test_min_distance_guard():
    G = identity_generator(Field(251), 4)
    with pytest.raises(CapacityError):
        min_distance(G)


@pytest.mark.parametrize("build", [
    lambda: (GF2, ArrayCodeParams(rows=2, cols=3, slopes=(0, 1))),
    lambda: (GF2, ArrayCodeParams(rows=2, cols=3, slopes=(0, 1, 2))),
])
def test_oracle_agreement_array(build):
    fld, params = build()
    G = extract_generator(fld, array_encoder(params), params.dim, params.length)
    rng = random.Random(13)
    universe = list(range(params.length))
    for i in range(params.dim):
        subsets = [set(), set(universe)]
        subsets += [set(rng.sample(universe, rng.randrange(1, 7))) for _ in range(40)]
        subsets += [set(s) for s in pir_sets_for_bit(params, divmod(i, params.cols))]
        for R in subsets:
            ok, _ = is_recovering_set(G, i, R)
            assert ok == functional_recovery_oracle(G, i, R)


def test_oracle_agreement_multiplicity():
    params = MultCodeParams(field=GF3, m=1, d=1, s=1)
    G = extract_generator(GF3, mult_encoder(params), 2, 3)
    for r in range(4):
        for R in itertools.combinations(range(3), r):
            ok, _ = is_recovering_set(G, 0, set(R))
            assert ok == functional_recovery_oracle(G, 0, set(R))


def _minimal_claims():
    """(G, claims, k) whose every claimed set has independent columns:
    array diagonals over GF(2), and two-point sets of Reed-Solomon codes
    over GF(5) and GF(8), where any two columns are independent."""
    params = ArrayCodeParams(rows=3, cols=5, slopes=(0, 1))
    G = extract_generator(GF2, array_encoder(params), 15, 25)
    yield G, {i: pir_sets_for_bit(params, divmod(i, 5)) for i in range(15)}, 2
    for q in (5, 8):
        fld = Field.from_order(q)
        params = MultCodeParams(field=fld, m=1, d=1, s=1)
        G = extract_generator(fld, mult_encoder(params), 2, q)
        yield G, {0: [{2, 3}, {1, 4}], 1: [{2, 3}, {0, 4}]}, 2


@pytest.mark.parametrize("G,claims,k", list(_minimal_claims()),
                         ids=["gf2-array", "gf5-rs", "gf8-rs"])
def test_changing_one_generator_entry_fails_certification(G, claims, k):
    # With c the certified coefficients of a set R for message i, adding
    # -1/c_j at row i of a column j of R makes the columns of R sum to
    # zero with weights c; as they were independent, e_i leaves their span.
    fld = G.field
    assert certify_pir(G, claims, k).ok
    for i, sets in claims.items():
        for si, R in enumerate(sets):
            ok, coeffs = is_recovering_set(G, i, R)
            assert ok
            j = min(coeffs)
            rows = [list(r) for r in G.rows]
            rows[i][j] = fld.sub(rows[i][j], fld.inv(coeffs[j]))
            bad = GeneratorMatrix(field=fld, rows=tuple(map(tuple, rows)),
                                  info_positions=G.info_positions)
            report = certify_pir(bad, claims, k)
            assert f"set {si} does not recover message {i}" in dict(report.failures)[i]
    assert certify_pir(G, claims, k).ok


# -- witnesses and the range check --------------------------------------------

@pytest.mark.parametrize("fld", [GF2, GF3])
def test_positions_outside_the_code_fail_the_claim(fld):
    # (a, b) -> (a, b, a): read as indices, -1 and -2 wrap onto positions
    # 2 and 1, which recover a and b, so the claim would pass
    G = extract_generator(fld, lambda m: [m[0], m[1], m[0]], 2, 3)
    report = certify_pir(G, {0: [{0}, {-1}], 1: [{1}, {-2}]}, 2)
    assert report.passed == 0 and dict(report.failures) == {
        0: "set 1 reads position -1 outside [0, 3)",
        1: "set 1 reads position -2 outside [0, 3)"}
    # past the end fails the claim instead of raising IndexError
    report = certify_pir(G, {0: [{0}, {3}]}, 2)
    assert dict(report.failures) == {0: "set 1 reads position 3 outside [0, 3)"}
    # the check sits before the witness path too
    report = certify_pir(G, {0: [Reader((0,), None), Reader((-1,), None)]}, 2)
    assert dict(report.failures) == {0: "set 1 reads position -1 outside [0, 3)"}
    report = certify_pir(G, {-1: [{1}, {2}]}, 2)
    assert dict(report.failures) == {
        -1: "set 0 targets message -1 outside [0, 2); "
            "set 1 targets message -1 outside [0, 2)"}
    report = certify_batch(G, lambda request: [{-1}], [(0,)])
    assert report.failures == [(0, "(0,): set 0 reads position -1 outside [0, 3)")]
    report = certify_batch(G, lambda request: [{0}], [(0,)],
                           positions_of=lambda t: (0, -1))
    assert report.failures == [
        (0, "(0,): set 0 targets position -1 outside [0, 3)")]
    for check, target in ((is_recovering_set, 0), (is_recovering_position, 2)):
        with pytest.raises(ValueError, match="outside"):
            check(G, target, (-1,), witness=[1])
        assert check(G, target, (2,), witness=[1])[0]


CLAIM_KINDS = ("valid", "operator readers", "overlapping", "wrong target",
               "out of range", "too few", "too many")


def _claim_of_kind(data, fld, kind, i, n, N, k):
    """Message i's claimed sets in a code whose columns c*n + t, c < k,
    are all message t's unit column and whose columns from k*n on are
    random parities: ``kind`` says how the k sets {c*n + i} are spoiled,
    after each set takes some parity columns of its own.  "operator
    readers" spoils nothing: every set comes as an operator reader whose
    witness reads message i off its unit column."""
    parity = data.draw(st.permutations(range(k * n, N)), label="parity order")
    sets = [{c * n + i, *parity[c::k + 1]} for c in range(k)]
    if kind == "operator readers":
        return [Reader(tuple(sorted(R)), pir.RecoveryOperator(
            fld, 1, [[int(j % n == i and j < k * n) for j in sorted(R)]])) for R in sets]
    if kind == "overlapping" and k > 1:
        sets[1].add(min(sets[0]))
    elif kind == "wrong target":
        sets[-1] = {c * n + (i + 1) % n for c in range(k)} - set().union(*sets[:-1])
    elif kind == "out of range":
        sets[-1].add(data.draw(st.sampled_from([-2, -1, N, N + 1]), label="outside"))
    elif kind == "too few":
        sets.pop()
    elif kind == "too many":
        sets.append(set(parity[k::k + 1]))
        if data.draw(st.booleans(), label="extra set outside"):
            sets[-1].add(data.draw(st.sampled_from([-2, -1, N, N + 1]), label="outside"))
    # a set may come as a reader carrying the XOR witness, right or wrong,
    # or as an operator reader with a random witness row
    return [_as_reader(data, fld, R) for R in sets]


def _as_reader(data, fld, R):
    """R as drawn: the set itself, an XOR reader or an operator reader."""
    form = data.draw(st.sampled_from(["set", "xor", "operator"]), label="form")
    if form == "set":
        return R
    positions = tuple(sorted(R))
    if form == "xor":
        return Reader(positions, None)
    row = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=len(positions),
                             max_size=len(positions)), label="witness")
    return Reader(positions, pir.RecoveryOperator(fld, 1, [row]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pir_is_batch_certification_of_the_k_fold_requests(data):
    # certify_pir(G, claims, k) and certify_batch on the requests (i, ..., i)
    # served by message i's own sets give one verdict per target, and the
    # same problems, the batch ones after the request, but that a batch
    # request only range-checks a set past its k, where certify_pir also
    # checks that the set recovers message i
    fld = data.draw(st.sampled_from([GF2, GF3]), label="field")
    n = data.draw(st.integers(2, 3), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    N = k * n + data.draw(st.integers(0, 4), label="parities")
    element = st.integers(0, fld.q - 1)
    parity = [[data.draw(element) for _ in range(N - k * n)] for _ in range(n)]
    rows = tuple(tuple(int(r == c % n) for c in range(k * n)) + tuple(parity[r])
                 for r in range(n))
    G = GeneratorMatrix(field=fld, rows=rows, info_positions=tuple(range(n)))
    kinds = [data.draw(st.sampled_from(CLAIM_KINDS), label=f"kind of {i}")
             for i in range(n)]
    claims = {i: _claim_of_kind(data, fld, kind, i, n, N, k)
              for i, kind in enumerate(kinds)}
    pir_report = certify_pir(G, claims, k)
    assert [i for i, _ in pir_report.failures] == [
        i for i, kind in enumerate(kinds)
        if kind not in ("valid", "operator readers")
        and not (kind == "overlapping" and k == 1)]
    requests = [(i,) * k for i in claims]
    batch = certify_batch(G, lambda request: claims[request[0]], requests)
    assert (pir_report.total, pir_report.passed) == (batch.total, batch.passed)
    assert [i for i, _ in batch.failures] == [i for i, _ in pir_report.failures]
    for (i, detail), (_, got) in zip(pir_report.failures, batch.failures):
        unchecked = tuple(f"set {s} does not recover " for s in range(k, len(claims[i])))
        detail = "; ".join(p for p in detail.split("; ") if not p.startswith(unchecked))
        assert got == f"{(i,) * k}: {detail}"


def _solved_problems(G, k, targets, sets, positions_of):
    """The problems of a claim through one `is_recovering_set` or
    `is_recovering_position` call per (set, value) without a witness, so
    every span is solved: the checker's definition, in its words.  A set
    past the last target only has its positions range-checked."""
    problems = []
    if len(sets) != k:
        problems.append(f"expected {k} sets, got {len(sets)}")
    positions = [getattr(R, "positions", R) for R in sets]
    seen, overlap = set(), False
    for P in positions:
        overlap = overlap or not seen.isdisjoint(P)
        seen.update(P)
    if overlap:
        problems.append("sets overlap")
    targets = iter(targets)
    for si, P in enumerate(positions):
        target = next(targets, None)
        if target is None:  # a set past the last target is range-checked only
            bad = next((j for j in P if not 0 <= j < G.N), None)
            if bad is not None:
                problems.append(f"set {si} reads position {bad} outside [0, {G.N})")
            continue
        try:
            if positions_of is None:
                if not is_recovering_set(G, target, P)[0]:
                    problems.append(f"set {si} does not recover message {target}")
                continue
            for j in positions_of(target):
                if not is_recovering_position(G, j, P)[0]:
                    problems.append(f"set {si} does not recover position {j}")
        except ValueError as exc:
            problems.append(f"set {si} {exc}")
    return "; ".join(problems) or None


READER_KINDS = ("set", "xor", "right", "random", "outside", "length")


def _claimed_set(data, G, positions, columns, kinds=READER_KINDS):
    """A claimed set over ``positions`` that must recover generator
    ``columns``: a plain set, an XOR reader, or an operator reader whose
    witness rows are the solver's coefficients ("right"), random, right
    but for one entry in [q, 256) ("outside"), or right but one entry
    longer or shorter ("length"), with random check rows below them.
    The kind is drawn from ``kinds``.  Returns (set, kind)."""
    fld, q = G.field, G.field.q
    kind = data.draw(st.sampled_from(kinds), label="reader kind")
    if kind == "set":
        return frozenset(positions), kind
    if kind == "xor":
        return Reader(positions, None), kind
    element = st.integers(0, q - 1)
    width = len(positions)
    rows = []
    for j in columns or [0]:
        row = [data.draw(element) for _ in positions]
        if kind != "random" and all(0 <= p < G.N for p in positions):
            ok, coeffs = is_recovering_position(G, j, positions)
            if ok:  # each coefficient once, at the first copy of its position
                row = [coeffs.pop(p, 0) for p in positions]
        rows.append(row)
    if kind == "outside" and width:
        t = data.draw(st.integers(0, width - 1), label="outside entry")
        rows[0][t] = data.draw(st.integers(q, 255), label="outside value")
    if kind == "length":
        shorter = width and data.draw(st.booleans(), label="shorter")
        rows = [row[:-1] if shorter else row + [data.draw(element)] for row in rows]
    checks = data.draw(st.integers(0, 2), label="check rows")
    rows += [[data.draw(element) for _ in rows[0]] for _ in range(checks)]
    return Reader(positions, pir.RecoveryOperator(fld, len(columns or [0]), rows)), kind


CHECK_FIELDS = [GF2, GF3, Field.from_order(8), Field.from_order(9)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_stacked_witness_checks_match_the_solver(data):
    # certify_batch checks a request's witness rows in one stacked product;
    # its verdict and details equal those of solving every span, for right
    # and wrong witnesses, positions outside [0, N), overlapping sets, too
    # few or too many sets and readers mixed with plain sets; a claim of
    # right operator readers solves nothing
    fld = data.draw(st.sampled_from(CHECK_FIELDS), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    N = n + data.draw(st.integers(0, 4), label="parities")
    order = data.draw(st.permutations(range(N)), label="column order")
    element = st.integers(0, fld.q - 1)
    cols = [[int(r == c) for r in range(n)] if c < n
            else [data.draw(element) for _ in range(n)] for c in range(N)]
    G = GeneratorMatrix(field=fld, rows=tuple(tuple(cols[c][r] for c in order)
                                              for r in range(n)),
                        info_positions=tuple(order.index(c) for c in range(n)))
    k = data.draw(st.integers(1, 3), label="k")
    position = st.integers(0, N - 1)
    if data.draw(st.booleans(), label="position targets"):
        wanted = {t: tuple(data.draw(st.lists(position | st.sampled_from([-1, N]),
                                              min_size=1, max_size=2), label="positions"))
                  for t in range(3)}
        positions_of = wanted.__getitem__
        request = tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    else:
        positions_of = None
        request = tuple(data.draw(st.lists(st.integers(-1, n), min_size=k, max_size=k)))
    targets = sorted(request)
    sets, kinds = [], []
    for si in range(data.draw(st.sampled_from([k, k, k, k - 1, k + 1]), label="sets")):
        positions = data.draw(st.lists(position, max_size=N), label="set")
        if data.draw(st.integers(0, 5), label="outside?") == 0:
            positions.insert(data.draw(st.integers(0, len(positions))),
                             data.draw(st.sampled_from([-2, -1, N, N + 1, 2 ** 64])))
        columns = []
        if si < k:
            t = targets[si]
            if positions_of is None:
                columns = [G.info_positions[t]] if 0 <= t < n else []
            else:
                columns = list(itertools.takewhile(lambda j: 0 <= j < N, positions_of(t)))
        R, kind = _claimed_set(data, G, tuple(positions), columns)
        sets.append(R)
        kinds.append(kind)
    want = _solved_problems(G, k, targets, sets, positions_of)
    report = certify_batch(G, lambda request: sets, [request], positions_of)
    assert report.failures == ([] if want is None else [(0, f"{request}: {want}")])
    if positions_of is None and len(set(request)) == 1:
        assert dict(certify_pir(G, {request[0]: sets}, k).failures).get(request[0]) == (
            _solved_problems(G, k, itertools.repeat(request[0]), sets, None))
    if want is None and set(kinds) == {"right"}:
        with unittest.mock.patch.object(verify, "_solve_recovery", _no_solve):
            assert certify_batch(G, lambda request: sets, [request], positions_of).ok
    if positions_of is None:
        # the solver against the functional definition, at these tiny sizes
        for P, t in zip(sets, targets):
            P = getattr(P, "positions", P)
            if 0 <= t < n and all(0 <= j < N for j in P):
                assert is_recovering_set(G, t, P)[0] == functional_recovery_oracle(G, t, P)


# a GF(2) generator of n rows packs each column into ceil(n / 64) words
CHUNK_SIZES = {GF2: [2, 63, 64, 65, 130]}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chunked_certification_matches_the_per_claim_checks(data):
    # certify_batch checks a chunk of claims at once, with chunks cut at a
    # drawn cap, so failing claims fall first, last, in the middle and on
    # both sides of a chunk boundary: every verdict and detail, in request
    # order, equals that of solving each claim's every span alone, over
    # GF(2) generators whose columns take one, two or three words too
    fld = data.draw(st.sampled_from([GF2, *CHECK_FIELDS]), label="field")
    n = data.draw(st.sampled_from(CHUNK_SIZES.get(fld, [1, 2, 3])), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    # columns c*n + t, c < k, are message t's unit column, then parities
    parities = data.draw(st.integers(0, 3), label="parities")
    N = k * n + parities
    order = list(range(N))
    data.draw(st.randoms(use_true_random=False), label="column order").shuffle(order)
    if fld.q == 2:  # one draw per parity column
        parity = [data.draw(st.integers(0, 2 ** n - 1)) for _ in range(parities)]
        parity = [[p >> r & 1 for r in range(n)] for p in parity]
    else:
        parity = [[data.draw(st.integers(0, fld.q - 1)) for _ in range(n)]
                  for _ in range(parities)]
    cols = [[int(r == c % n) for r in range(n)] for c in range(k * n)] + parity
    G = GeneratorMatrix(field=fld, rows=tuple(tuple(cols[c][r] for c in order)
                                              for r in range(n)),
                        info_positions=tuple(order.index(c) for c in range(n)))
    unit = [[order.index(c * n + t) for c in range(k)] for t in range(n)]
    kinds = ("right",) * 12 + READER_KINDS
    requests, claims = [], []
    for _ in range(data.draw(st.integers(1, 8), label="requests")):
        request = tuple(data.draw(st.integers(0, n - 1), label="target")
                        if data.draw(st.integers(0, 7), label="valid target?")
                        else data.draw(st.sampled_from([-1, n]), label="target")
                        for _ in range(k))
        targets = sorted(request)
        if data.draw(st.integers(0, 15), label="planner fails?") == 0:
            claims.append(ValueError(f"no plan for {len(request)}"))
            requests.append(request)
            continue
        sets, seen = [], {}
        for si in range(data.draw(st.sampled_from([k] * 6 + [k - 1, k + 1]), label="sets")):
            t = targets[si] if si < k else None
            positions = []
            if data.draw(st.integers(0, 3), label="other position?") == 0:
                positions.append(data.draw(st.integers(0, N - 1), label="other position"))
            if t is not None and 0 <= t < n and data.draw(st.integers(0, 7), label="unit?"):
                copy = seen.get(t, 0)  # a copy of t's unit column no set took yet
                seen[t] = copy + 1
                positions.append(unit[t][copy % k])
            if data.draw(st.integers(0, 15), label="outside?") == 0:
                positions.insert(data.draw(st.integers(0, len(positions))),
                                 data.draw(st.sampled_from([-1, N, 2 ** 64])))
            columns = [G.info_positions[t]] if t is not None and 0 <= t < n else []
            sets.append(_claimed_set(data, G, tuple(positions), columns, kinds)[0])
        if (sets and all(getattr(R, "operator", None) is not None for R in sets)
                and all(j < 2 ** 63 for R in sets for j in R.positions)
                and data.draw(st.booleans(), label="as a recovery")):
            sets = Recovery(tuple(sets))
        requests.append(request)
        claims.append(sets)
    cap = data.draw(st.integers(1, 4 * k * N * -(-n // 64)), label="chunk cap")

    def planner(request, claims=iter(claims)):
        claim = next(claims)
        if isinstance(claim, Exception):
            raise claim
        return claim

    with unittest.mock.patch.object(verify, "CHUNK_ENTRIES", cap):
        report = certify_batch(G, planner, requests)
    want = []
    for rid, (request, claim) in enumerate(zip(requests, claims)):
        if isinstance(claim, Exception):
            want.append((rid, f"planner failed on {request}: {claim}"))
            continue
        sets = list(getattr(claim, "readers", claim))
        problems = _solved_problems(G, k, sorted(request), sets, None)
        if problems is not None:
            want.append((rid, f"{request}: {problems}"))
    assert report.failures == want
    assert (report.total, report.passed) == (len(requests), len(requests) - len(want))


FIELDS = [GF2, Field(5), Field.from_order(8), Field.from_order(9)]


def _no_solve(*args):
    raise AssertionError("a correct witness still led to a span solve")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_witness_never_changes_a_verdict(data):
    fld = data.draw(st.sampled_from(FIELDS), label="field")
    q = fld.q
    n = data.draw(st.integers(1, 3), label="n")
    N = data.draw(st.integers(n, n + 4), label="N")
    element = st.integers(0, q - 1)
    parity = data.draw(st.lists(st.lists(element, min_size=N - n, max_size=N - n),
                                min_size=n, max_size=n), label="parity")
    rows = tuple(tuple(int(r == c) for c in range(n)) + tuple(parity[r])
                 for r in range(n))
    G = GeneratorMatrix(field=fld, rows=rows, info_positions=tuple(range(n)))
    R = tuple(data.draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N),
                        label="R"))
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, N - 1), label="j")
    junk = st.lists(st.integers(-1, q), min_size=max(0, len(R) - 1),
                    max_size=len(R) + 1)
    for check, target, truth in (
            (is_recovering_set, i, functional_recovery_oracle(G, i, R)),
            (is_recovering_position, j, None)):
        plain, coeffs = check(G, target, R)
        assert truth is None or plain == truth
        witnesses = [data.draw(junk, label="random witness"),
                     [data.draw(element) for _ in R]]
        if plain:
            correct = [coeffs.get(p, 0) for p in R]
            with unittest.mock.patch.object(verify, "_solve_recovery", _no_solve):
                assert check(G, target, R, correct)[0]
            if R:
                t = data.draw(st.integers(0, len(R) - 1), label="changed")
                changed = list(correct)
                changed[t] = fld.add(changed[t], data.draw(st.integers(1, q - 1)))
                witnesses.append(changed)
        for w in witnesses:
            assert check(G, target, R, w)[0] == plain


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_message_target_is_its_information_column(data):
    # is_recovering_set(G, i, ...) checks column info_positions[i], the
    # unit vector of message i in a systematic generator
    fld = data.draw(st.sampled_from(FIELDS), label="field")
    q = fld.q
    n = data.draw(st.integers(1, 3), label="n")
    N = data.draw(st.integers(n, n + 4), label="N")
    element = st.integers(0, q - 1)
    parity = [[data.draw(element) for _ in range(N - n)] for _ in range(n)]
    order = data.draw(st.permutations(range(N)), label="column order")
    rows = tuple(tuple(([int(r == c) for c in range(n)] + parity[r])[c] for c in order)
                 for r in range(n))
    G = GeneratorMatrix(field=fld, rows=rows,
                        info_positions=tuple(order.index(c) for c in range(n)))
    R = tuple(data.draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N),
                        label="R"))
    i = data.draw(st.integers(0, n - 1), label="i")
    j = G.info_positions[i]
    plain = is_recovering_set(G, i, R)
    assert plain == is_recovering_position(G, j, R)
    assert plain[0] == functional_recovery_oracle(G, i, R)
    witnesses = [data.draw(st.lists(st.integers(-1, q), min_size=max(0, len(R) - 1),
                                    max_size=len(R) + 1), label="random witness"),
                 [data.draw(element) for _ in R]]
    if plain[0]:
        witnesses.append([plain[1].get(p, 0) for p in R])
    for w in witnesses:
        assert is_recovering_set(G, i, R, w) == is_recovering_position(G, j, R, w)


def test_extract_refuses_a_gf2_encoder_that_returns_bools():
    # an encoder without a batch method takes the array path on every
    # field, and that path takes ints only
    def enc(m):
        return [bool(m[0]), bool(m[1]), bool(m[0] ^ m[1])]
    with pytest.raises(ValueError, match="outside"):
        extract_generator(GF2, enc, 2, 3)
    assert extract_generator(GF2, lambda m: list(map(int, enc(m))), 2, 3).rows == (
        (1, 0, 1), (0, 1, 1))


def test_a_set_that_does_not_recover_stays_refused():
    f8 = Field.from_order(8)
    params = MultCodeParams(field=f8, m=1, d=2, s=1)
    G = extract_generator(f8, mult_encoder(params), 3, 8)
    # three evaluations of a degree-2 polynomial recover every symbol; two
    # recover none of the three message symbols
    R = (3, 5)
    good = {i: [is_recovering_set(G, i, (3, 5, 6))[1].get(p, 0) for p in (3, 5)]
            for i in range(3)}
    for i in range(3):
        assert not functional_recovery_oracle(G, i, R)
        for w in ([0, 0], [1, 1], [7, 7], [1, 0], good[i], good[(i + 1) % 3]):
            assert is_recovering_set(G, i, R, w) == (False, None)


@pytest.mark.parametrize("G,claims,k", list(_minimal_claims()),
                         ids=["gf2-array", "gf5-rs", "gf8-rs"])
def test_changing_one_generator_entry_fails_certification_with_witnesses(G, claims, k):
    # `test_changing_one_generator_entry_fails_certification` with every set
    # claimed through a reader that carries its certified coefficients
    # (array diagonals as XORs), so certification checks witnesses first
    fld = G.field
    certified = {(i, si): is_recovering_set(G, i, R)[1]
                 for i, sets in claims.items() for si, R in enumerate(sets)}

    def reader(i, si, R):
        positions = tuple(sorted(R))
        if fld.q == 2:
            return Reader(positions, None)
        row = [certified[i, si][p] for p in positions]
        return Reader(positions, pir.RecoveryOperator(fld, 1, [row]))

    readers = {i: [reader(i, si, R) for si, R in enumerate(sets)]
               for i, sets in claims.items()}
    with unittest.mock.patch.object(verify, "_solve_recovery", _no_solve):
        assert certify_pir(G, readers, k).ok
    for (i, si), coeffs in certified.items():
        j = min(coeffs)
        rows = [list(r) for r in G.rows]
        rows[i][j] = fld.sub(rows[i][j], fld.inv(coeffs[j]))
        bad = GeneratorMatrix(field=fld, rows=tuple(map(tuple, rows)),
                              info_positions=G.info_positions)
        report = certify_pir(bad, readers, k)
        assert f"set {si} does not recover message {i}" in dict(report.failures)[i]


@pytest.mark.parametrize("desc", [
    {"family": "multiplicity", "m": 2, "d": 4, "s": 2, "q": 11, "modulus": [0, 1]},
    {"family": "replication", "copies": 2, "base": {
        "family": "binary-expansion", "base": {
            "family": "multiplicity", "m": 2, "d": 4, "s": 2, "q": 8,
            "modulus": [1, 1, 0, 1]}}},
], ids=["gf11", "mult-gf8-bits"])
def test_a_failing_claim_of_witness_readers_solves_no_span(desc):
    # each symbol's own k readers, whose witnesses hold, claimed for the
    # request of k + 1 copies: every claim fails on its count alone, and
    # its diagnosis takes each set's witness before any span solve
    code = build_runtime(desc)
    G = extract_generator(code.field, code.encode, code.n, code.N)
    K = code.k
    requests = [(i,) * (K + 1) for i in range(code.n)]
    with unittest.mock.patch.object(verify, "_solve_recovery", _no_solve):
        report = certify_batch(G, lambda request: code.recovery(request[0]), requests)
    assert report.passed == 0 and report.failures == [
        (i, f"{request}: expected {K + 1} sets, got {K}")
        for i, request in enumerate(requests)]


# -- batched extraction --------------------------------------------------------

def _word_encoder(rows):
    """The batch encoder of a GF(2) generator on column words: coordinate
    j is the XOR of the message words whose row has a 1 there."""
    def batch(words):
        out = []
        for col in zip(*rows):
            acc = 0
            for w, c in zip(words, col):
                if c:
                    acc ^= w
            out.append(acc)
        return out
    return batch


def _batch_encoder(fld, rows):
    if fld.q == 2:
        return _word_encoder(rows)
    return lambda block: gf.matmul(fld, block, rows)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batched_extraction_matches_the_per_message_adapter(data):
    fld = data.draw(st.sampled_from(FIELDS), label="field")
    n = data.draw(st.integers(1, 4), label="n")
    N = data.draw(st.integers(n, n + 4), label="N")
    element = st.integers(0, fld.q - 1)
    parity = [[data.draw(element) for _ in range(N - n)] for _ in range(n)]
    order = data.draw(st.permutations(range(N)), label="column order")
    systematic = [[int(r == c) for c in range(n)] + parity[r] for r in range(n)]
    rows = tuple(tuple(row[c] for c in order) for row in systematic)

    def per_message(m):
        return gf.matmul(fld, m, rows).tolist()

    batched = extract_generator(fld, Encoder(fld, n, _batch_encoder(fld, rows)), n, N)
    adapted = extract_generator(fld, per_message, n, N)
    assert batched.rows == adapted.rows == rows
    assert batched.masks == adapted.masks
    assert batched.info_positions == adapted.info_positions
    assert all(rows[i][j] == 1 for i, j in enumerate(batched.info_positions))


GF5 = Field(5)
T = 2 + 3 * 50  # messages in the block of a two-symbol code


def _off_on_one_pattern_words(words):
    # `test_extract_refuses_gf2_encoder_off_on_one_pattern` on column words:
    # bit r of ``match`` is set when message r is [1, 0, 1, 1]
    full = (1 << 4 + 3 * 50) - 1
    match = full
    for w, bit in zip(words, (1, 0, 1, 1)):
        match &= w if bit else ~w & full
    return list(words) + [words[0] ^ words[1] ^ words[2] ^ words[3] ^ match]


# (field, n, N, per-message encoder, batch encoder, refusal)
REFUSALS = {
    "gf2-symbol-minus-1": (GF2, 2, 3, lambda m: list(m) + [-m[0]],
                           lambda w: w + [-w[0]], "outside"),
    "gf2-symbol-2": (GF2, 2, 3, lambda m: list(m) + [2 * m[0]],
                     lambda w: w + [w[0] << T], "outside"),
    "gf5-symbol-minus-1": (GF5, 2, 3, lambda m: list(m) + [-m[0]],
                           lambda b: np.hstack([b, -b[:, :1]]), "outside"),
    "gf5-symbol-5": (GF5, 2, 3, lambda m: list(m) + [5 * m[0]],
                     lambda b: np.hstack([b, 5 * b[:, :1]]), "outside"),
    "gf2-not-additive": (GF2, 2, 3, lambda m: list(m) + [m[0] & m[1]],
                         lambda w: w + [w[0] & w[1]], "additive"),
    "gf5-not-additive": (GF5, 2, 3, lambda m: list(m) + [m[0] * m[0] % 5],
                         lambda b: np.hstack([b, b[:, :1] ** 2 % 5]), "additive"),
    "gf2-off-on-one-pattern": (
        GF2, 4, 5, lambda m: list(m) + [m[0] ^ m[1] ^ m[2] ^ m[3] ^ (m == [1, 0, 1, 1])],
        _off_on_one_pattern_words, "additive"),
    "gf2-not-systematic": (GF2, 2, 3, lambda m: [m[0] ^ m[1]] * 3,
                           lambda w: [w[0] ^ w[1]] * 3, "systematic"),
    "gf5-not-systematic": (GF5, 2, 3, lambda m: [(m[0] + m[1]) % 5] * 3,
                           lambda b: np.repeat(b.sum(axis=1, keepdims=True) % 5, 3, 1),
                           "systematic"),
    "gf2-short": (GF2, 2, 3, lambda m: list(m), lambda w: w, "length 2, expected 3"),
    "gf5-short": (GF5, 2, 3, lambda m: list(m), lambda b: b, "length 2, expected 3"),
    "gf5-missing-message": (GF5, 2, 2, None, lambda b: b[:-1], "shape"),
    "gf5-one-message": (GF5, 2, 2, None, lambda b: b[0], "shape"),
}


@pytest.mark.parametrize("name,path", [
    (name, path) for name, case in REFUSALS.items()
    # a per-message encoder cannot return a batch of the wrong shape
    for path in (["batched", "per message"] if case[3] else ["batched"])])
def test_every_refusal_holds_on_both_paths(name, path):
    fld, n, N, per_message, batch, match = REFUSALS[name]
    encoder = per_message if path == "per message" else Encoder(fld, n, batch)
    for seed in range(5):
        with pytest.raises(ValueError, match=match):
            extract_generator(fld, encoder, n, N, rng=random.Random(seed))


def test_extraction_still_certifies_the_frobenius_encoder():
    # Additive but not GF(8)-linear: (a, b) -> (a, b, (a + b)^2).  The trial
    # equation is additivity, so both paths certify it; closing this gap
    # is ROADMAP open item 1, together with the benchmark's control.
    f8 = Field.from_order(8)

    def frobenius(m):
        s = f8.add(m[0], m[1])
        return [m[0], m[1], f8.mul(s, s)]

    def batch(block):
        s = gf.add(f8, block[:, 0], block[:, 1])
        return np.column_stack([block, gf.multiply(f8, s, s)])

    for encoder in (frobenius, Encoder(f8, 2, batch)):
        G = extract_generator(f8, encoder, 2, 3)
        assert G.rows == ((1, 0, 1), (0, 1, 1)) and G.info_positions == (0, 1)


def test_a_gf2_generator_from_masks_derives_its_rows():
    params = build_rk_batch(2, 2)
    code = build_runtime(to_descriptor(params))
    G = extract_generator(GF2, code.encode, code.n, code.N)
    assert "rows" not in vars(G)  # certification reads only the masks
    assert certify_pir(G, {i: [code.reader(i, s) for s in range(code.k)]
                           for i in range(code.n)}, code.k).ok
    assert "rows" not in vars(G)
    assert G.masks == _generator_columns(params)
    for i in range(code.n):
        unit = [int(r == i) for r in range(code.n)]
        assert list(G.rows[i]) == encode_array(params, unit).codeword()
