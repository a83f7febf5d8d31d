import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirbatch.array_code import (
    ArrayCodeParams,
    BatchPlanningError,
    build_rk_batch,
    params_for_dimension,
    diagonal,
    diagonal_partition,
    encode_array,
    five_batch_code,
    greedy_slope_set,
    has_weighted_ap,
    params_from_descriptor,
    pir_sets_for_bit,
    plan_array_batch,
    plan_five_batch,
    recover_bit,
    to_descriptor,
)
from pirbatch.codes import from_array
from pirbatch.curves import batch_redundancy_exponent
from pirbatch.gf import is_prime


def test_diagonal_examples():
    assert diagonal(1, 0, 2, 3) == ((0, 0), (1, 1))
    assert diagonal(0, 2, 3, 5) == ((0, 2), (1, 2), (2, 2))  # a column
    assert diagonal(2, 4, 3, 5) == ((0, 4), (1, 1), (2, 3))
    with pytest.raises(ValueError):
        diagonal(5, 0, 2, 5)


def test_partition_exhaustive():
    for p in range(1, 14):
        for r in range(1, p + 1):
            cells = set(itertools.product(range(r), range(p)))
            for s in range(p):
                parts = diagonal_partition(s, r, p)
                assert len(parts) == p
                union = [c for d in parts for c in d]
                assert len(union) == r * p and set(union) == cells


def test_intersection_exhaustive():
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, p + 1):
            for s1, s2 in itertools.combinations(range(p), 2):
                for t1 in range(p):
                    d1 = set(diagonal(s1, t1, r, p))
                    for t2 in range(p):
                        assert len(d1 & set(diagonal(s2, t2, r, p))) <= 1


def test_encode_examples():
    params = ArrayCodeParams(rows=2, cols=3, slopes=(0, 1))
    zero = encode_array(params, [0] * 6)
    assert zero.parities == (0,) * 6
    cw = encode_array(params, [[1, 0, 0], [0, 1, 0]])
    assert cw.parities == (1, 1, 0, 0, 0, 0)
    one = encode_array(params, [1, 0, 0, 0, 0, 0])
    assert sum(one.parities) == len(params.slopes)  # one flip per slope


@st.composite
def _array_message(draw):
    """Random params with prime p <= 31, r <= p and any nonempty slope
    set, plus a message for them."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    r = draw(st.integers(1, p))
    slopes = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    params = ArrayCodeParams(rows=r, cols=p, slopes=tuple(sorted(slopes)),
                             global_parity=draw(st.booleans()))
    bits = draw(st.lists(st.integers(0, 1), min_size=r * p, max_size=r * p))
    return params, bits


@settings(max_examples=300, deadline=None)
@given(case=_array_message(), as_rows=st.booleans())
def test_encode_matches_diagonal_definition(case, as_rows):
    # the packed-word encoder against one XOR per diagonal() cell list
    params, bits = case
    p = params.cols
    parities = []
    for s in params.slopes:
        for t in range(p):
            acc = 0
            for i, j in diagonal(s, t, params.rows, p):
                acc ^= bits[i * p + j]
            parities.append(acc)
    gbit = sum(bits) % 2 if params.global_parity else None
    data = [bits[i * p:(i + 1) * p] for i in range(params.rows)] if as_rows else bits
    cw = encode_array(params, data)
    assert cw.data == tuple(bits)
    assert cw.parities == tuple(parities)
    assert cw.global_bit == gbit
    assert cw.codeword() == bits + parities + ([gbit] if params.global_parity else [])


def test_encode_validation():
    params = ArrayCodeParams(rows=2, cols=3, slopes=(0, 1))
    with pytest.raises(ValueError):
        encode_array(params, [0] * 5)
    with pytest.raises(ValueError):
        encode_array(params, [2] + [0] * 5)
    for bad in (-1, 256, 0.5, "1", None):
        with pytest.raises(ValueError):
            encode_array(params, [bad] + [0] * 5)
    with pytest.raises(ValueError):
        encode_array(params, [[1, 0, 0], [0, 2, 0]])


def test_progression_refusal_raises_on_every_call():
    # checked once per params inside a cache; exceptions are not cached
    params = ArrayCodeParams(rows=3, cols=7, slopes=(0, 1, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="weighted progression"):
            plan_array_batch(params, [(0, 0)])


def test_invalid_params_raise_on_every_call():
    # the checks sit inside the cached function; exceptions are not cached
    for params in (ArrayCodeParams(rows=2, cols=4, slopes=(0, 1)),
                   ArrayCodeParams(rows=7, cols=5, slopes=(0, 1))):
        for _ in range(2):
            with pytest.raises(ValueError, match="disjointness"):
                pir_sets_for_bit(params, (0, 0))
        runtime = from_array(params)
        for _ in range(2):
            with pytest.raises(ValueError, match="disjointness"):
                runtime.recover_info([0] * params.length, 0, 0)
    params = ArrayCodeParams(rows=3, cols=5, slopes=(0, 1))
    assert len(pir_sets_for_bit(params, (2, 4))) == 2
    for cell in ((3, 0), (0, 5), (-1, 0)):
        with pytest.raises(ValueError, match="outside"):
            pir_sets_for_bit(params, cell)


def test_params_validation():
    with pytest.raises(ValueError):
        ArrayCodeParams(rows=2, cols=5, slopes=(1, 0))
    with pytest.raises(ValueError):
        ArrayCodeParams(rows=2, cols=5, slopes=(0, 5))


def test_pir_sets_shape_and_disjoint():
    params = ArrayCodeParams(rows=5, cols=5, slopes=(0, 1, 2))
    for cell in itertools.product(range(5), range(5)):
        sets = pir_sets_for_bit(params, cell)
        assert len(sets) == 3
        assert all(len(s) == 5 for s in sets)  # r-1 data cells + 1 parity
        for a, b in itertools.combinations(sets, 2):
            assert not (a & b)


def test_pir_set_single_slope_is_column():
    params = ArrayCodeParams(rows=4, cols=7, slopes=(0,))
    (got,) = pir_sets_for_bit(params, (1, 3))
    col = {i * 7 + 3 for i in range(4)} - {1 * 7 + 3}
    assert got == col | {params.dim + 3}


def test_pir_sets_recover_by_xor():
    params = ArrayCodeParams(rows=5, cols=5, slopes=(0, 1, 2))
    rng = random.Random(5)
    data = [rng.randrange(2) for _ in range(25)]
    cw = encode_array(params, data).codeword()
    for cell in itertools.product(range(5), range(5)):
        for rec in pir_sets_for_bit(params, cell):
            assert recover_bit(cw, rec) == data[cell[0] * 5 + cell[1]]


def test_weighted_ap_examples():
    assert has_weighted_ap((0, 1, 2), 3, 7) == (0, 2, 1, 1, 1)
    assert has_weighted_ap((0, 1), 3, 7) is None  # no distinct triple
    assert has_weighted_ap((0, 1, 3), 3, 73) is None
    with pytest.raises(ValueError):
        has_weighted_ap((0, 1, 2), 3, 6)  # non-prime modulus


def test_weighted_ap_range_is_strict():
    # r = 2 leaves no admissible x, y at all
    assert has_weighted_ap((0, 1, 2), 2, 7) is None
    # r = 4 admits x, y in {1, 2}; 1*0 + 2*3 = 3*2 mod p
    assert has_weighted_ap((0, 2, 3), 4, 11) is not None


def test_greedy_examples():
    assert greedy_slope_set(3, 73, 3) == (0, 1, 3)
    assert greedy_slope_set(5, 101, 2) == (0, 1)
    assert greedy_slope_set(2, 11, 4) == (0, 1, 2, 3)  # vacuous condition
    with pytest.raises(ValueError, match="exhausted"):
        greedy_slope_set(3, 5, 5)


def test_greedy_output_is_progression_free():
    for r, k in ((3, 2), (3, 3), (4, 2)):
        p = 2 * k * k * r * r
        while True:
            p += 1
            if is_prime(p):
                break
        got = greedy_slope_set(r, p, k)
        assert len(got) == k
        assert has_weighted_ap(got, r, p) is None


def test_build_rk_batch():
    params = build_rk_batch(3, 2)
    assert params.cols == 73
    assert params.dim == 219
    assert params.redundancy == 146
    assert params.rate == Fraction(3, 5)
    assert build_rk_batch(3, 1).cols == 19  # smallest prime above 18


def test_build_rk_fixed_r_rates():
    for k in (1, 2, 3):
        params = build_rk_batch(3, k)
        assert params.rate == Fraction(3, 3 + k)
        assert has_weighted_ap(params.slopes, 3, params.cols) is None


def test_params_for_dimension():
    params = params_for_dimension(1000, 2)
    assert params.rows == 7
    assert params.cols == 397
    assert params.dim >= 1000
    assert params.redundancy == 2 * 397
    assert params_for_dimension(1000, 1).rows == 10  # ceil(1000^(1/3))
    with pytest.raises(ValueError, match="regime"):
        params_for_dimension(16, 4)


def test_plan_array_batch_basics():
    params = build_rk_batch(3, 2)
    (only,) = plan_array_batch(params, [(0, 0)])
    assert only == pir_sets_for_bit(params, (0, 0))[0]
    got = plan_array_batch(params, [(0, 0), (0, 0)])
    assert got[0] != got[1] and not (got[0] & got[1])
    both = pir_sets_for_bit(params, (0, 0))
    assert got == both


def test_plan_array_batch_random_sweep():
    params = build_rk_batch(3, 2)
    rng = random.Random(11)
    cells = list(itertools.product(range(3), range(73)))
    for _ in range(300):
        req = [cells[rng.randrange(len(cells))] for _ in range(2)]
        a, b = plan_array_batch(params, req)
        assert not (a & b)


@pytest.mark.parametrize("cell", [(0, 7), (-1, 0), (5, 0)])
def test_planners_refuse_cells_outside_the_array(cell):
    # a column index past p must not wrap onto another column, nor a
    # negative one reach a shift; both planners refuse them as
    # `pir_sets_for_bit` does, on every call, since no ValueError is cached
    five = five_batch_code(5)
    request = [cell, (1, 1), (2, 2), (3, 3), (4, 4)]
    two = ArrayCodeParams(rows=5, cols=5, slopes=(0, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the array"):
            plan_five_batch(five, request)
        with pytest.raises(ValueError, match="outside the array"):
            plan_array_batch(two, [cell, (1, 1)])
        with pytest.raises(ValueError, match="outside the array"):
            pir_sets_for_bit(two, cell)


def test_five_batch_params():
    params = five_batch_code(5)
    assert params.redundancy == 26
    assert params.length == 51
    assert encode_array(params, [0] * 25).global_bit == 0
    with pytest.raises(ValueError):
        five_batch_code(4)


def test_five_batch_plans_disjoint_and_recover():
    params = five_batch_code(5)
    rng = random.Random(13)
    data = [rng.randrange(2) for _ in range(25)]
    cw = encode_array(params, data).codeword()
    cells = list(itertools.product(range(5), range(5)))
    for _ in range(200):
        req = sorted(cells[rng.randrange(25)] for _ in range(5))
        sets = plan_five_batch(params, req)
        for a, b in itertools.combinations(sets, 2):
            assert not (a & b)
        for cell, rec in zip(req, sets):
            assert recover_bit(cw, rec) == data[cell[0] * 5 + cell[1]]


def test_five_batch_collinear_repeats():
    # (0,1), (3,3) and (4,2) share the slope-4 diagonal through (0,1);
    # doubled requests on it exhaust what diagonal sets alone can serve
    params = five_batch_code(5)
    req = [(0, 1), (0, 1), (3, 3), (3, 3), (4, 2)]
    sets = plan_five_batch(params, req)
    for a, b in itertools.combinations(sets, 2):
        assert not (a & b)
    rng = random.Random(29)
    data = [rng.randrange(2) for _ in range(25)]
    cw = encode_array(params, data).codeword()
    for cell, rec in zip(sorted(req), sets):
        assert recover_bit(cw, rec) == data[cell[0] * 5 + cell[1]]


def test_five_batch_same_cell_five_times():
    params = five_batch_code(5)
    sets = plan_five_batch(params, [(2, 2)] * 5)
    for a, b in itertools.combinations(sets, 2):
        assert not (a & b)
    assert len({frozenset(s) for s in sets}) == 5


def test_batch_redundancy_exponent():
    assert batch_redundancy_exponent(Fraction(1, 5)) == Fraction(2, 3) + Fraction(1, 3)
    assert batch_redundancy_exponent(0) == Fraction(2, 3)
    with pytest.raises(ValueError):
        batch_redundancy_exponent(Fraction(1, 2))


def test_descriptor_roundtrip():
    params = build_rk_batch(3, 2)
    desc = to_descriptor(params)
    assert desc == {"family": "array", "r": 3, "p": 73, "S": [0, 1],
                    "global_parity": False}
    assert params_from_descriptor(desc) == params
