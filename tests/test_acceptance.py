"""Acceptance suite: one test per headline claim, each printing a
PASS/FAIL line (run with ``pytest -s`` to watch them stream)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from pirbatch import codes, curves
from pirbatch.array_code import (
    ArrayCodeParams,
    build_rk_batch,
    encode_array,
    five_batch_code,
    greedy_slope_set,
    has_weighted_ap,
    plan_array_batch,
    plan_five_batch,
    recover_bit,
)
from pirbatch.batch_mult import plan_batch, recover_batch, validate_batch_params
from pirbatch.curves import (
    batch_delta_binary,
    batch_delta_qary,
    batch_redundancy_exponent,
    optimal_s_qary,
    pir_delta_binary,
    pir_delta_qary,
)
from pirbatch.gf import Field, is_prime
from pirbatch.mpoly import Poly, monomials_of_weight
from pirbatch.multiplicity import (
    MultCodeParams,
    code_points,
    code_profile,
    encode_poly,
    symbol_slots,
    systematic_encode,
    systematic_view,
)
from pirbatch.pir import pir_recovery_plans, recover_symbol
from pirbatch.verify import (
    certify_pir,
    extract_generator,
    functional_recovery_oracle,
    is_recovering_position,
    is_recovering_set,
    min_distance,
)

F = Fraction


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num}: {status} - {detail}")
    assert ok, detail


def mult_params(m, d, s, q):
    return MultCodeParams(field=Field.from_order(q), m=m, d=d, s=s)


def random_poly(field, s, d, rng):
    terms = {}
    for w in range(d + 1):
        for e in monomials_of_weight(s, w):
            terms[e] = rng.randrange(field.q)
    return Poly(field, s, terms)


def mult_generator(params):
    view = systematic_view(params)

    def enc(info):
        return systematic_encode(view, info).base_values()

    return extract_generator(params.field, enc, params.base_dim,
                             params.base_length)


def expand_plan(params, plan):
    slots = symbol_slots(params)
    return frozenset(j for w in plan.coordinates for j in slots[w])


def test_acceptance_1_multiplicity_pir():
    start = time.time()
    params = mult_params(2, 2, 2, 7)
    G = mult_generator(params)
    width = params.symbol_width
    for w0 in code_points(params):
        plans = pir_recovery_plans(params, w0)
        assert len(plans) == 3 == params.k_pir
        for a, b in itertools.combinations(plans, 2):
            assert not (a.coordinates & b.coordinates)
        base_sets = [expand_plan(params, p) for p in plans]
        assert not (base_sets[0] & base_sets[1] or base_sets[0] & base_sets[2]
                    or base_sets[1] & base_sets[2])
        for R in base_sets:
            for c in range(width):
                ok, _ = is_recovering_position(
                    G, symbol_slots(params)[w0][c], R)
                assert ok
    # the same sets phrased per information symbol
    runtime = codes.from_multiplicity(params)
    report = certify_pir(G, {i: runtime.recovering_sets(i)
                             for i in range(params.base_dim)}, 3)
    assert report.ok
    elapsed = time.time() - start
    announce(1, elapsed < 5,
             f"k=3 disjoint plans certified for all 49 symbols in {elapsed:.2f}s")


@pytest.mark.parametrize("m,d,s,q", [(2, 2, 2, 7), (2, 4, 2, 11)])
def test_acceptance_2_recovery_roundtrip(m, d, s, q):
    start = time.time()
    params = mult_params(m, d, s, q)
    pts = code_points(params)
    plans = {w: pir_recovery_plans(params, w) for w in pts}
    rng = random.Random(20240 + q)
    checks = 0
    for _ in range(200):
        P = random_poly(params.field, s, d, rng)
        cw = encode_poly(params, P)
        for w0 in pts:
            for plan in plans[w0]:
                assert recover_symbol(cw, plan) == cw[w0]
                checks += 1
    elapsed = time.time() - start
    announce(2, elapsed < 60,
             f"({m},{d},{s},{q}): {checks} exact recoveries in {elapsed:.1f}s")


def test_acceptance_3_distance_bound():
    start = time.time()
    params = mult_params(2, 2, 2, 7)
    bound = code_profile(params)["distance_bound"]
    assert bound == 42 == (1 - F(2, 14)) * 49
    G = mult_generator(params)
    dist = min_distance(G, symbol_size=params.symbol_width)
    elapsed = time.time() - start
    announce(3, dist >= 42 and elapsed < 600,
             f"exact symbol distance {dist} >= 42 over 7^6-1 messages "
             f"in {elapsed:.1f}s")


def test_acceptance_4_batch_over_multiplicity():
    start = time.time()
    params = mult_params(2, 4, 2, 11)
    bp = validate_batch_params(params, 2)
    pts = code_points(params)
    rng = random.Random(4)
    cw = encode_poly(params, random_poly(params.field, 2, 4, rng))
    budget = 2 * 2 ** 1
    count = 0
    for ia, ib in itertools.combinations_with_replacement(range(len(pts)), 2):
        batch = plan_batch(bp, [pts[ia], pts[ib]])
        a, b = batch.plans
        assert not (a.coordinates & b.coordinates)
        for plan in batch.plans:
            for _, drops in plan.lines:
                assert len(drops) <= budget
        assert recover_batch(cw, batch) == [cw[w] for w in batch.request]
        count += 1
    elapsed = time.time() - start
    announce(4, count == 7381 and elapsed < 600,
             f"all {count} pair requests planned, disjoint and exactly "
             f"recovered in {elapsed:.1f}s")


def test_acceptance_5_array_pir():
    start = time.time()
    params = ArrayCodeParams(rows=5, cols=5, slopes=(0, 1, 2))
    assert params.redundancy == 15 == 3 * 5  # k * sqrt(n) at n = 25
    runtime = codes.from_array(params)
    G = extract_generator(runtime.field, runtime.encode, 25, 40)
    report = certify_pir(G, {i: runtime.recovering_sets(i) for i in range(25)}, 3)
    assert report.ok
    for i in range(25):
        sets = runtime.recovering_sets(i)
        assert all(len(s) == 5 for s in sets)
    elapsed = time.time() - start
    announce(5, elapsed < 1,
             f"redundancy 15, 3 disjoint size-5 sets per bit in {elapsed:.2f}s")


def test_acceptance_6_array_batch():
    start = time.time()
    params = build_rk_batch(3, 2)
    assert (params.cols, params.dim, params.redundancy) == (73, 219, 146)
    assert params.rate == F(3, 5)
    runtime = codes.from_array(params)
    G = extract_generator(runtime.field, runtime.encode, 219, 365)
    valid_cache = {}
    count = 0
    for req in itertools.combinations_with_replacement(range(219), 2):
        cells = [divmod(t, 73) for t in req]
        a, b = plan_array_batch(params, cells)
        assert not (a & b)
        for target, rec in zip(sorted(req), (a, b)):
            key = (target, rec)
            if key not in valid_cache:
                valid_cache[key] = is_recovering_set(G, target, rec)[0]
            assert valid_cache[key]
        count += 1
    elapsed = time.time() - start
    announce(6, count == 24090 and elapsed < 120,
             f"all {count} pair requests certified in {elapsed:.1f}s")


def test_acceptance_7_slope_search():
    got = greedy_slope_set(3, 73, 3)
    assert got == (0, 1, 3)
    assert has_weighted_ap(got, 3, 73) is None
    sizes = []
    for r, k in ((3, 2), (3, 3), (4, 2)):
        lo = 2 * k * k * r * r
        for p in range(lo + 1, 201):
            if not is_prime(p):
                continue
            S = greedy_slope_set(r, p, k)
            assert len(S) == k
            assert has_weighted_ap(S, r, p) is None
            sizes.append((r, k, p))
    announce(7, len(sizes) > 0,
             f"greedy reached the target size for {len(sizes)} (r,k,p) triples")


def test_acceptance_8_five_batch_global_parity():
    start = time.time()
    params = five_batch_code(5)
    assert params.redundancy == 26 == 5 * 5 + 1
    rng = random.Random(8)
    data = [rng.randrange(2) for _ in range(25)]
    cw = encode_array(params, data).codeword()
    cells = list(itertools.product(range(5), range(5)))
    count = 0
    for req in itertools.combinations_with_replacement(cells, 5):
        sets = plan_five_batch(params, req)
        used = 0
        for s in sets:
            m = 0
            for j in s:
                m |= 1 << j
            assert not (m & used)
            used |= m
        for cell, rec in zip(sorted(req), sets):
            assert recover_bit(cw, rec) == data[cell[0] * 5 + cell[1]]
        count += 1
    elapsed = time.time() - start
    announce(8, count == 118755 and elapsed < 1800,
             f"all {count} size-5 requests served disjointly in {elapsed:.1f}s")


def test_acceptance_9_curve_reproduction():
    grid = [F(i, 10) for i in range(10)]
    # closed forms at every grid point, exact rationals
    assert pir_delta_binary(3, F(0)) == F(5, 6)
    assert batch_delta_binary(F(1, 5)) == F(9, 10)
    assert optimal_s_qary(F(0)) == 2 and pir_delta_qary(2, F(0)) == F(1, 2)
    rows = curves.curve_series("pir-binary", F(1, 10))
    table = {(eps, series): delta for eps, delta, series in rows}
    for eps in grid:
        if 3 * (1 - eps) > 1:
            assert table[(eps, "delta_s3")] == pir_delta_binary(3, eps)
    brows = curves.curve_series("batch", F(1, 10))
    btable = {(eps, series): delta for eps, delta, series in brows}
    for eps in grid:
        if eps < F(1, 2):
            assert btable[(eps, "mult-binary")] == batch_delta_binary(eps)
            assert btable[(eps, "mult-qary")] == batch_delta_qary(eps)
        else:
            assert btable[(eps, "tail")] == F(1, 2) + eps
    # arg-min switch point of the two batch constructions
    cross = curves.batch_crossover()
    assert cross["formula"] == F(1, 8)
    assert cross["matches_quoted"] is False  # quoted 0.0755 differs from 1/8
    for eps in [F(i, 1000) for i in range(0, 500, 7)]:
        arr, mult = batch_redundancy_exponent(eps), batch_delta_binary(eps)
        if eps < F(1, 8):
            assert arr < mult
        elif eps > F(1, 8):
            assert arr > mult
        else:
            assert arr == mult
    announce(9, True,
             "curve CSV matches the closed forms; crossover 1/8 vs quoted "
             "0.0755 flagged")


def test_acceptance_10_oracle_equivalence():
    start = time.time()
    instances = []
    for rows, cols, slopes in ((2, 3, (0, 1)), (2, 3, (0, 1, 2)), (3, 3, (0, 1))):
        params = ArrayCodeParams(rows=rows, cols=cols, slopes=slopes)
        rt = codes.from_array(params)
        instances.append(("array", rt))
    for m, d, s, q in ((1, 1, 1, 3), (1, 1, 1, 5), (1, 2, 1, 5), (2, 2, 1, 5),
                       (1, 1, 1, 4), (1, 1, 2, 3)):
        rt = codes.from_multiplicity(mult_params(m, d, s, q))
        instances.append(("multiplicity", rt))
    checked = 0
    for label, rt in instances:
        assert rt.field.q ** rt.n <= 10 ** 4
        G = extract_generator(rt.field, rt.encode, rt.n, rt.N)
        rng = random.Random(rt.n * 100 + rt.N)
        universe = list(range(rt.N))
        subsets = [set(), set(universe)]
        subsets += [set(rng.sample(universe, rng.randrange(1, min(8, rt.N))))
                    for _ in range(60)]
        for i in range(rt.n):
            for R in itertools.chain(subsets,
                                     (set(s) for s in rt.recovering_sets(i))):
                ok, _ = is_recovering_set(G, i, R)
                assert ok == functional_recovery_oracle(G, i, R)
                checked += 1
    elapsed = time.time() - start
    announce(10, True,
             f"linear and functional recovery agree on {checked} "
             f"(instance, symbol, subset) cases in {elapsed:.1f}s")
