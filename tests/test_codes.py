"""Every `LinearCode` reader against the construction it stands for."""

import json
import random

import pytest

from pirbatch import array_code, codes, linalg, multiplicity, pir
from pirbatch.codes import binary_expand, replicate
from pirbatch.gf import Field, np
from pirbatch.mpoly import DecodeFailure


def _mult(m, d, s, q):
    return multiplicity.to_descriptor(
        multiplicity.MultCodeParams(field=Field.from_order(q), m=m, d=d, s=s))


CASES = {
    "multiplicity-gf7": _mult(2, 2, 2, 7),
    "multiplicity-gf8": _mult(2, 2, 2, 8),
    "multiplicity-gf9": _mult(1, 2, 2, 9),
    "expanded-gf4": binary_expand(_mult(2, 2, 2, 4)),
    "expanded-replicated-gf8": replicate(binary_expand(_mult(2, 2, 2, 8)), 2),
    "array": {"family": "array", "r": 5, "p": 5, "S": [0, 1, 2],
              "global_parity": False},
    "replicated-five-batch": replicate(
        array_code.to_descriptor(array_code.five_batch_code(5)), 2),
}


def _oracle(desc, word, i, s):
    """Symbol i through set s by the construction's definition: the
    transforms unwound, then interpolation along the plan's lines
    (`pir.interpolate_symbol`) or the XOR of the diagonal set."""
    family = desc["family"]
    if family == "replication":
        base = codes.build_runtime(desc["base"])
        copy, base_s = divmod(s, base.k)
        return _oracle(desc["base"], word[copy * base.N:(copy + 1) * base.N],
                       i, base_s)
    if family == "binary-expansion":
        fld = codes.build_runtime(desc["base"]).field
        e = fld.e
        symbols = [fld.from_coeffs(word[j:j + e]) for j in range(0, len(word), e)]
        base_i, bit = divmod(i, e)
        return fld.coeffs(_oracle(desc["base"], symbols, base_i, s))[bit]
    if family == "multiplicity":
        params = multiplicity.params_from_descriptor(desc)
        info = multiplicity.systematic_view(params).info_positions
        point, component = divmod(info[i], params.symbol_width)
        w0 = multiplicity.code_points(params)[point]
        plan = pir.pir_recovery_plans(params, w0)[s]
        cw = multiplicity.MultCodeword.from_base_values(params, word)
        return pir.interpolate_symbol(cw, plan)[component]
    params = array_code.params_from_descriptor(desc)
    sets = array_code.pir_sets_for_bit(params, divmod(i, params.cols))
    return array_code.recover_bit(word, sets[s])


def _outcome(read, *args):
    try:
        return read(*args)
    except DecodeFailure:
        return "decode failure"


@pytest.mark.parametrize("name", list(CASES))
def test_every_reader_matches_its_construction(name):
    desc = CASES[name]
    code = codes.build_runtime(desc)
    rng = random.Random(name)
    q = code.field.q
    message = [rng.randrange(q) for _ in range(code.n)]
    cw = code.encode(message)
    noise = [rng.randrange(q) for _ in range(code.N)]
    for i in range(code.n):
        for s in range(code.k):
            assert code.recover_info(cw, i, s) == message[i] == _oracle(desc, cw, i, s)
            # off the code, reader and oracle fail together or agree
            assert (_outcome(code.recover_info, noise, i, s)
                    == _outcome(_oracle, desc, noise, i, s))


@pytest.mark.parametrize("name", list(CASES))
def test_recover_all_reads_every_set_at_once(name):
    desc = CASES[name]
    code = codes.build_runtime(desc)
    rng = random.Random(name)
    q = code.field.q
    message = [rng.randrange(q) for _ in range(code.n)]
    cw = code.encode(message)
    noise = [rng.randrange(q) for _ in range(code.N)]
    for i in range(code.n):
        per_set = [code.recover_info(cw, i, s) for s in range(code.k)]
        assert code.recover_all(cw, i) == code.recover_all(code.word(cw), i) == per_set
        assert per_set == [_oracle(desc, cw, i, s) for s in range(code.k)]
        # a symbol changed inside set s, which no other set of i reads, at
        # a position its reader does not ignore (a line reads no
        # derivative across its own direction)
        s = rng.randrange(code.k)
        reader = code.reader(i, s)
        used = (sorted(reader.positions) if reader.operator is None else
                [j for j, col in zip(reader.positions, reader.operator.matrix.T)
                 if col.any()])
        flipped = list(cw)
        j = rng.choice(used)
        flipped[j] = (flipped[j] + rng.randrange(1, q)) % q
        for word in (noise, flipped):
            outcomes = [_outcome(code.recover_info, word, i, t) for t in range(code.k)]
            failed = "decode failure" in outcomes
            assert _outcome(code.recover_all, word, i) == (
                "decode failure" if failed else outcomes)
        # on the flipped word, a checked reader refuses the change, the XOR
        # of a set takes it, and the other sets never see it
        if reader.operator is not None:
            assert outcomes[s] == "decode failure"
        assert outcomes[:s] + outcomes[s + 1:] == [message[i]] * (code.k - 1)


def test_recover_all_pads_readers_of_different_shapes():
    fld = Field(7)
    wide = pir.RecoveryOperator(fld, 1, [[1, 2, 3], [1, 1, 5]])  # one check row
    narrow = pir.RecoveryOperator(fld, 1, [[4, 1]])               # none
    rec = codes.Recovery((codes.Reader((4, 0, 2), wide), codes.Reader((1, 3), narrow)))
    assert rec.index.tolist() == [[4, 0, 2], [1, 3, 0]]
    assert rec.stack.shape == (2, 2, 3)
    code = codes.LinearCode("test", fld, 1, 5, 2, (0,), None, lambda i: rec, dict)
    for word in ([1, 2, 3, 4, 5], [0, 6, 1, 5, 1], [3, 3, 3, 3, 3]):
        # per set, the pure-Python product: the symbol row, then the checks
        per_set = []
        for r in rec.readers:
            y = linalg.matvec(fld, r.operator.matrix.tolist(),
                              [word[j] for j in r.positions])
            per_set.append("decode failure" if any(y[1:]) else y[0])
        assert [_outcome(code.recover_info, word, 0, s) for s in range(2)] == per_set
        assert _outcome(code.recover_all, word, 0) == (
            "decode failure" if "decode failure" in per_set else per_set)


@pytest.mark.parametrize("name", list(CASES))
def test_equal_descriptors_build_one_code_that_keeps_its_recoveries(name):
    desc = CASES[name]
    code = codes.build_runtime(desc)
    again = codes.build_runtime(json.loads(json.dumps(desc)))
    assert again is code
    for i in (0, code.n - 1):
        assert again.recovery(i) is code.recovery(i)


def test_replica_zero_reads_through_the_base_readers():
    desc = CASES["expanded-replicated-gf8"]
    code, base = codes.build_runtime(desc), codes.build_runtime(desc["base"])
    for i in (0, code.n - 1):
        readers, base_readers = code.recovery(i).readers, base.recovery(i).readers
        assert len(readers) == 2 * len(base_readers)
        assert all(r is b for r, b in zip(readers, base_readers))


def test_a_code_builds_each_recovery_once():
    fld = Field(7)
    rec = codes.Recovery((codes.Reader((0, 1), pir.RecoveryOperator(fld, 1, [[1, 1]])),))
    built = []

    def recovery(i):
        built.append(i)
        return rec

    code = codes.LinearCode("test", fld, 2, 3, 1, (0, 1), None, recovery, dict)
    for _ in range(3):
        for i in range(2):
            assert code.recovery(i) is rec
            assert code.recover_all([1, 2, 3], i) == [3]
            assert code.recover_info([1, 2, 3], i, 0) == 3
    assert built == [0, 1]


def test_readers_read_their_recovering_sets():
    code = codes.build_runtime(CASES["expanded-replicated-gf8"])
    assert code.k == 8 and code.batch_planner is None
    for i in (0, code.n - 1):
        sets = code.recovering_sets(i)
        for s, rec in enumerate(sets):
            reader = code.reader(i, s)
            assert frozenset(reader.positions) == rec
            assert reader.operator.matrix.shape[1] == len(reader.positions)
        copy = code.N // 2
        assert all(j < copy for rec in sets[:4] for j in rec)
        assert all(j >= copy for rec in sets[4:] for j in rec)


ENCODERS = {
    "array": array_code.to_descriptor(array_code.build_rk_batch(2, 2)),
    "five-batch": array_code.to_descriptor(array_code.five_batch_code(5)),
    "gf11": _mult(2, 4, 2, 11),
    "expanded-gf8": binary_expand(_mult(2, 2, 2, 8)),
    "replicated-array": replicate(CASES["array"], 2),
    "replicated-gf11": replicate(_mult(1, 2, 1, 11), 3),
    "replicated-expanded-gf8": CASES["expanded-replicated-gf8"],
}


@pytest.mark.parametrize("name", list(ENCODERS))
def test_encode_is_the_batch_encoder_on_a_batch_of_one(name):
    code = codes.build_runtime(ENCODERS[name])
    rng = random.Random(name)
    q = code.field.q
    # the last message is zero, so no word of the batch has its top bit set
    messages = [[rng.randrange(q) for _ in range(code.n)] for _ in range(9)]
    messages.append([0] * code.n)
    if q == 2:
        words = [sum(m[j] << r for r, m in enumerate(messages)) for j in range(code.n)]
        out = code.encode.batch(words)
        batch = [[w >> r & 1 for w in out] for r in range(len(messages))]
    else:
        batch = code.encode.batch(np.array(messages)).tolist()
    assert batch == [code.encode(m) for m in messages]
    if name == "gf11":  # the oracle: the systematic encoder, one product per message
        view = multiplicity.systematic_view(multiplicity.params_from_descriptor(
            ENCODERS[name]))
        assert batch == [multiplicity.systematic_encode(view, m).base_values()
                         for m in messages]
    for bad in ([0] * (code.n - 1), [q] + [0] * (code.n - 1), [-1] + [0] * (code.n - 1)):
        with pytest.raises(ValueError, match="message symbols"):
            code.encode(bad)
