import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pirbatch import array_code, cli, codes, curves, multiplicity
from pirbatch.codes import binary_expand, replicate
from pirbatch.gf import CapacityError, Field
from pirbatch.mpoly import DecodeFailure

MULT = {"family": "multiplicity", "m": 2, "d": 2, "s": 2, "q": 7, "modulus": [0, 1]}
ARR = {"family": "array", "r": 5, "p": 5, "S": [0, 1, 2], "global_parity": False}


def run(args):
    return cli.main(args)


def test_build_multiplicity_profile(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert run(["build", "multiplicity", "--m", "2", "--d", "2", "--s", "2",
                "--q", "7", "-o", str(out)]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["symbols"] == 49 and profile["k"] == 3
    desc = json.loads(out.read_text())
    assert desc == {"family": "multiplicity", "m": 2, "d": 2, "s": 2,
                    "q": 7, "modulus": [0, 1]}


def test_build_array_rk(tmp_path, capsys):
    out = tmp_path / "arr.json"
    assert run(["build", "array", "--r", "3", "--k", "2", "-o", str(out)]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["cols"] == 73 and profile["redundancy"] == 146
    assert profile["rate"] == "3/5"


def test_build_five_batch(capsys):
    assert run(["build", "array", "--five-batch", "--p", "5"]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["redundancy"] == 26


def test_build_usage_error(capsys):
    assert run(["build", "multiplicity", "--m", "2"]) == 2
    assert run(["build", "array"]) == 2


def test_parse_error_does_not_change_the_next_command(capsys):
    # one parser serves every call in a process
    assert cli._build_parser() is cli._build_parser()
    build = ["build", "array", "--r", "5", "--p", "5", "--slopes", "0,1,2"]
    assert run(build) == 0
    first = capsys.readouterr().out
    assert run(["build", "array", "--r", "five"]) == 2
    assert run(["certify", "code.json", "--mode", "both"]) == 2
    assert run(["build", "array", "--five-batch", "--p", "5", "--nope"]) == 2
    assert run(["encode"]) == 2
    capsys.readouterr()
    assert run(build) == 0
    assert capsys.readouterr().out == first


def test_certify_pir_array(tmp_path, capsys):
    desc = tmp_path / "arr.json"
    run(["build", "array", "--r", "5", "--p", "5", "--slopes", "0,1,2",
         "-o", str(desc)])
    capsys.readouterr()
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    assert run(["certify", str(desc), "--mode", "pir",
                "--report-csv", str(csv_path),
                "--report-json", str(json_path)]) == 0
    summary = json.loads(json_path.read_text())
    assert summary == {"total": 25, "passed": 25, "failed": 0, "seed": None}
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "request_id,status,detail"
    assert lines[1].startswith("all,pass")


def test_certify_batch_jobs_match_serial(tmp_path, capsys):
    desc = tmp_path / "arr.json"
    run(["build", "array", "--r", "3", "--k", "2", "-o", str(desc)])
    capsys.readouterr()
    assert run(["certify", str(desc), "--mode", "batch", "--limit", "200",
                "--seed", "5"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert run(["certify", str(desc), "--mode", "batch", "--limit", "200",
                "--seed", "5", "--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel
    assert serial["seed"] == 5 and serial["total"] == 200


def _no_extraction(*args, **kwargs):
    raise AssertionError("the generator was extracted")


@pytest.mark.parametrize("mode", ["pir", "batch"])
@pytest.mark.parametrize("k", [0, -2])
def test_certify_refuses_k_below_one_before_extraction(tmp_path, capsys, monkeypatch,
                                                       mode, k):
    monkeypatch.setattr(cli.verify, "extract_generator", _no_extraction)
    for name, build in (("gf11", ["multiplicity", "--m", "2", "--d", "4", "--s", "2",
                                  "--q", "11"]),
                        ("r3k2", ["array", "--r", "3", "--k", "2"])):
        desc = tmp_path / f"{name}.json"
        assert run(["build", *build, "-o", str(desc)]) == 0
        capsys.readouterr()
        assert run(["certify", str(desc), "--mode", mode, "--k", str(k)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--k must be >= 1, got {k}" in captured.err


@pytest.mark.parametrize("mode", ["pir", "batch"])
def test_certify_refuses_k_above_n_before_any_request_is_built(tmp_path, capsys,
                                                              monkeypatch, mode):
    # k disjoint sets, each reading a position, need k <= N: a larger k
    # exits 2 before the n k sets or the requests are built, and k = K + 1
    # still runs and fails
    monkeypatch.setattr(cli.verify, "extract_generator", _no_extraction)
    monkeypatch.setattr(cli.verify, "enumerate_requests", _no_extraction)
    for name, build in (("gf11", ["multiplicity", "--m", "2", "--d", "4", "--s", "2",
                                  "--q", "11"]),
                        ("r3k2", ["array", "--r", "3", "--k", "2"])):
        desc = tmp_path / f"{name}.json"
        assert run(["build", *build, "-o", str(desc)]) == 0
        capsys.readouterr()
        N = codes.build_runtime(json.loads(desc.read_text())).N
        for k in (N + 1, 10 ** 8):
            assert run(["certify", str(desc), "--mode", mode, "--k", str(k)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"--k must be <= N = {N}, got {k}" in captured.err
    monkeypatch.undo()
    assert run(["certify", str(tmp_path / "r3k2.json"), "--mode", "pir", "--k", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_certify_refuses_an_unservable_k_before_sampling_or_extraction(
        tmp_path, capsys, monkeypatch, jobs):
    # the planner refuses the k, not a pool worker after the generator
    # was extracted
    monkeypatch.setattr(cli.verify, "extract_generator", _no_extraction)
    monkeypatch.setattr(cli.verify, "enumerate_requests", _no_extraction)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for build, k, message in (
            (["array", "--r", "3", "--k", "3"], 4, "at most 3 parallel requests"),
            (["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "11"], 5,
             "d <= m*(q - k*m^(s-1) - 2) violated: d=4 > -2")):
        desc = tmp_path / "code.json"
        assert run(["build", *build, "-o", str(desc)]) == 0
        capsys.readouterr()
        assert run(["certify", str(desc), "--mode", "batch", "--k", str(k),
                    "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_certify_pir_failures_under_jobs_match_serial(tmp_path, capsys, monkeypatch):
    # PIR runs as batch certification of the requests (i, ..., i): a chunk's
    # request ids plus its offset are the symbols, under any split
    desc = tmp_path / "rk.json"
    run(["build", "array", "--r", "3", "--k", "3", "-o", str(desc)])
    n = json.loads(capsys.readouterr().out)["n"]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = []
    for jobs in ("1", "2"):
        csv_path = tmp_path / f"report-{jobs}.csv"
        assert run(["certify", str(desc), "--mode", "pir", "--k", "4",
                    "--jobs", jobs, "--report-csv", str(csv_path)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "total": n, "passed": 0, "failed": n, "seed": None}
        reports.append(csv_path.read_text())
    assert reports[0] == reports[1]
    lines = reports[0].splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(n)]
    assert lines[1] == '0,fail,"(0, 0, 0, 0): expected 4 sets, got 3"'


def test_an_array_code_without_slopes_is_refused(tmp_path, capsys):
    assert run(["build", "array", "--r", "2", "--p", "3", "--slopes", ""]) == 2
    assert "need at least one slope" in capsys.readouterr().err
    desc = tmp_path / "empty.json"
    desc.write_text(json.dumps({"family": "array", "r": 2, "p": 3, "S": [],
                                "global_parity": False}))
    cw = tmp_path / "cw.json"
    cw.write_text(json.dumps([0] * 6))
    for command in (["roundtrip", str(desc)],
                    ["recover", str(desc), "--codeword", str(cw), "--index", "0"],
                    ["certify", str(desc), "--mode", "pir"]):
        assert run(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "need at least one slope" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_certify_refuses_jobs_below_one_before_extraction(tmp_path, capsys, monkeypatch,
                                                          jobs):
    monkeypatch.setattr(cli.verify, "extract_generator", _no_extraction)
    code = tmp_path / "code.json"
    code.write_text(json.dumps(ARR))
    for mode in ("pir", "batch"):
        assert run(["certify", str(code), "--mode", mode, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--jobs must be >= 1, got {jobs}" in captured.err


def test_certify_starts_no_more_workers_than_chunks_or_cpus(tmp_path, capsys,
                                                             monkeypatch):
    import multiprocessing

    started = []

    class InProcessPool:
        # records the worker count and maps in this process: no worker starts
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    extract = cli.verify.extract_generator
    extractions = []

    def counted_extract(*args, **kwargs):
        extractions.append(1)
        return extract(*args, **kwargs)

    desc = tmp_path / "arr.json"
    run(["build", "array", "--r", "3", "--p", "5", "--slopes", "0,1", "-o", str(desc)])
    capsys.readouterr()
    assert run(["certify", str(desc), "--mode", "pir"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli.verify, "extract_generator", counted_extract)
    # 15 symbols: 100 000 jobs on 4 CPUs split them into 4 chunks, which
    # share the one generator extracted before they start
    assert run(["certify", str(desc), "--mode", "pir", "--jobs", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert len(extractions) == 1
    # 3 jobs split them into 3 chunks
    assert run(["certify", str(desc), "--mode", "pir", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == serial
    assert started == [4, 3]
    assert len(extractions) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(["certify", str(desc), "--mode", "pir", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == serial
    assert started == [4, 3]  # one CPU: the one chunk runs here
    assert len(extractions) == 3


def test_dense_generators_above_the_cap_are_refused_before_building(
        tmp_path, capsys, monkeypatch):
    # the systematic view of GF(65521) polynomials of degree < q on q
    # points is 65521 x 65521, and the five-batch code at p = 997 is
    # 994009 x 998995: neither may be built
    monkeypatch.setattr(multiplicity, "systematic_view", _no_extraction)
    monkeypatch.setattr(cli.verify, "_extract_words", _no_extraction)
    monkeypatch.setattr(cli.verify, "_extract_array", _no_extraction)
    assert run(["build", "multiplicity", "--m", "1", "--s", "1", "--d", "65520",
                "--q", "65521"]) == 2
    assert "65521 x 65521 generator exceeds the cap" in capsys.readouterr().err
    desc = tmp_path / "five.json"
    assert run(["build", "array", "--five-batch", "--p", "997", "-o", str(desc)]) == 0
    capsys.readouterr()
    assert run(["certify", str(desc), "--mode", "pir"]) == 2
    assert "994009 x 998995 generator exceeds the cap" in capsys.readouterr().err

    def no_sampling(*args, **kwargs):
        raise AssertionError("requests were sampled")

    # batch mode refuses it before sampling any request
    monkeypatch.setattr(cli.verify, "enumerate_requests", no_sampling)
    assert run(["certify", str(desc), "--mode", "batch"]) == 2
    assert "994009 x 998995 generator exceeds the cap" in capsys.readouterr().err


def test_roundtrip_families(tmp_path, capsys):
    mult = tmp_path / "m.json"
    run(["build", "multiplicity", "--m", "2", "--d", "2", "--s", "2", "--q", "7",
         "-o", str(mult)])
    assert run(["roundtrip", str(mult), "--seed", "11"]) == 0
    arr = tmp_path / "a.json"
    run(["build", "array", "--r", "5", "--p", "5", "--slopes", "0,1,2",
         "-o", str(arr)])
    assert run(["roundtrip", str(arr), "--seed", "11"]) == 0
    fb = tmp_path / "fb.json"
    run(["build", "array", "--five-batch", "--p", "5", "-o", str(fb)])
    assert run(["roundtrip", str(fb), "--seed", "11"]) == 0
    capsys.readouterr()


def test_replicated_three_pir_has_six_disjoint_sets(capsys):
    from pirbatch.verify import certify_pir, extract_generator

    arr = {"family": "array", "r": 5, "p": 5, "S": [0, 1, 2],
           "global_parity": False}
    rt = codes.build_runtime(replicate(arr, 2))
    assert rt.k == 6 and rt.N == 80
    G = extract_generator(rt.field, rt.encode, rt.n, rt.N)
    report = certify_pir(G, {i: rt.recovering_sets(i) for i in range(rt.n)}, 6)
    assert report.ok


def test_expanded_code_certifies_and_roundtrips(capsys):
    from pirbatch.verify import certify_pir, extract_generator

    desc = binary_expand({"family": "multiplicity", "m": 1, "d": 1, "s": 1,
                          "q": 4, "modulus": [1, 1, 1]})
    rt = codes.build_runtime(desc)
    G = extract_generator(rt.field, rt.encode, rt.n, rt.N)
    report = certify_pir(G, {i: rt.recovering_sets(i) for i in range(rt.n)},
                         rt.k)
    assert report.ok
    import random

    rng = random.Random(3)
    msg = [rng.randrange(2) for _ in range(rt.n)]
    cw = rt.encode(msg)
    for i in range(rt.n):
        for si in range(rt.k):
            assert rt.recover_info(cw, i, si) == msg[i]


def test_encode_recover_roundtrip(tmp_path, capsys):
    desc = tmp_path / "arr.json"
    run(["build", "array", "--r", "5", "--p", "5", "--slopes", "0,1,2",
         "-o", str(desc)])
    cw = tmp_path / "cw.json"
    assert run(["encode", str(desc), "--random", "--seed", "9",
                "-o", str(cw)]) == 0
    capsys.readouterr()
    assert run(["recover", str(desc), "--codeword", str(cw),
                "--index", "7"]) == 0
    got = json.loads(capsys.readouterr().out)
    payload = json.loads(cw.read_text())
    assert got["consistent"] and got["recovered"][0] == payload["message"][7]


def test_recover_detects_corruption(tmp_path, capsys):
    desc = tmp_path / "arr.json"
    run(["build", "array", "--r", "5", "--p", "5", "--slopes", "0,1,2",
         "-o", str(desc)])
    cw = tmp_path / "cw.json"
    run(["encode", str(desc), "--random", "--seed", "9", "-o", str(cw)])
    payload = json.loads(cw.read_text())
    payload["codeword"][25] ^= 1  # parity inside one recovering set of bit 0
    cw.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["recover", str(desc), "--codeword", str(cw),
                "--index", "0"]) == 1


def test_recover_detects_corruption_in_expanded_replica(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(["build", "multiplicity", "--m", "1", "--d", "1", "--s", "1", "--q", "4",
         "--expand-binary", "--replicate", "2", "-o", str(desc)])
    cw = tmp_path / "cw.json"
    run(["encode", str(desc), "--random", "--seed", "9", "-o", str(cw)])
    code = codes.build_runtime(json.loads(desc.read_text()))
    payload = json.loads(cw.read_text())
    # one bit that set 1 of bit 0 reads, in the second replica
    payload["codeword"][min(code.recovering_sets(0)[1])] ^= 1
    cw.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["recover", str(desc), "--codeword", str(cw), "--index", "0"]) == 1
    assert "decode failure" in capsys.readouterr().err


GF4 = {"family": "multiplicity", "m": 1, "d": 1, "s": 1, "q": 4,
       "modulus": [1, 1, 1]}


@pytest.mark.parametrize("desc,payload,extra", [
    (ARR, [0] * 40, ["--set", "9"]),
    (ARR, [0] * 40, ["--set", "-1"]),
    (ARR, [7] * 40, []),
    (GF4, [9, 0, 0, 0], []),
    (ARR, {"codeword": ["0"] * 40}, []),
    (ARR, 5, []),
], ids=["set-9", "set-minus-1", "binary-holds-7", "gf4-holds-9", "string-symbols",
        "payload-5"])
def test_recover_refuses_malformed_input(desc, payload, extra, tmp_path, capsys):
    code, cw = tmp_path / "code.json", tmp_path / "cw.json"
    code.write_text(json.dumps(desc))
    cw.write_text(json.dumps(payload))
    assert run(["recover", str(code), "--codeword", str(cw), "--index", "0",
                *extra]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corrupted_descriptor_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["certify", str(bad), "--mode", "pir"]) == 2
    bad.write_text('{"no_family": 1}')
    assert run(["certify", str(bad), "--mode", "pir"]) == 2


@pytest.mark.parametrize("error", [
    array_code.BatchPlanningError("no batch plan serves the request"),
    RuntimeError("no irreducible polynomial of degree 3 over GF(2)"),
    RuntimeError("generator map is rank deficient"),
    DecodeFailure("a consistency row does not vanish"),
], ids=["planner", "modulus", "rank", "decode"])
def test_a_runtime_error_exits_3_without_a_traceback(error, tmp_path, capsys, monkeypatch):
    # a computation that cannot complete is reported in one line with exit
    # code 3; a decode failure, also a RuntimeError, still exits 1
    code = tmp_path / "code.json"
    code.write_text(json.dumps(ARR))

    def fail(desc):
        raise error

    monkeypatch.setattr(cli, "build_runtime", fail)
    want = 1 if isinstance(error, DecodeFailure) else 3
    for command in (["certify", str(code), "--mode", "pir"], ["roundtrip", str(code)],
                    ["build", "array", "--r", "3", "--k", "2"]):
        assert run(command) == want, command
        err = capsys.readouterr().err
        assert err == f"{'decode failure' if want == 1 else 'error'}: {error}\n"


def test_roundtrip_refuses_negative_trials(tmp_path, capsys):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(ARR))
    assert run(["roundtrip", str(code), "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials" in captured.err
    assert run(["roundtrip", str(code), "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == 0


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_certify_batch_refuses_a_limit_below_one(limit, tmp_path, capsys):
    # 0 requests would fail certification (exit 1), not the usage
    code = tmp_path / "code.json"
    code.write_text(json.dumps(ARR))
    assert run(["certify", str(code), "--mode", "batch", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "limit" in captured.err


def test_deeply_nested_descriptor_exit_2(tmp_path, capsys):
    # a well-formed descriptor, 5 000 replication levels deep
    path = tmp_path / "deep.json"
    path.write_text('{"family": "replication", "copies": 1, "base": ' * 5000
                    + json.dumps(ARR) + "}" * 5000)
    assert run(["roundtrip", str(path)]) == 2
    assert "too deeply" in capsys.readouterr().err


def test_deeply_nested_codeword_exit_2(tmp_path, capsys):
    code, cw = tmp_path / "code.json", tmp_path / "cw.json"
    code.write_text(json.dumps(ARR))
    cw.write_text("[" * 5000 + "]" * 5000)
    assert run(["recover", str(code), "--codeword", str(cw), "--index", "0"]) == 2
    assert "too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("desc,field", [
    ({**MULT, "q": "7"}, "q"),
    ({**MULT, "m": 2.0}, "m"),
    ({**ARR, "S": "01"}, "S"),
    ({"family": "replication", "copies": "2", "base": ARR}, "copies"),
    ({"family": "replication", "copies": 2, "base": "arr.json"}, "base"),
])
def test_malformed_descriptor_exit_2(desc, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert run(["roundtrip", str(path)]) == 2
    assert repr(field) in capsys.readouterr().err


@pytest.mark.parametrize("desc", [
    {"family": "replication", "copies": 10 ** 9, "base": ARR},
    {"family": "multiplicity", "m": 1, "d": 0, "s": 40, "q": 2},
    {"family": "multiplicity", "m": 1, "d": 0, "s": 1, "q": 2 ** 61 - 1},
])
def test_oversized_descriptor_fails_before_building(desc, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the code was built before its size was checked")

    # enumerating q^s points, or trial division up to a prime q, would
    # run for hours; neither may start
    monkeypatch.setattr(multiplicity, "code_points", refuse)
    monkeypatch.setattr(Field, "from_order", classmethod(refuse))
    with pytest.raises(CapacityError):
        codes.build_runtime(desc)


def test_build_flags_check_field_size_before_factoring(capsys):
    # 2^31 - 1 is prime: trial division up to it would not finish
    start = time.perf_counter()
    assert run(["build", "multiplicity", "--m", "1", "--d", "0", "--s", "1",
                "--q", "2147483647"]) == 2
    assert time.perf_counter() - start < 0.5
    assert "exceeds cap" in capsys.readouterr().err


def test_transform_descriptors():
    mult = {"family": "multiplicity", "m": 1, "d": 1, "s": 1, "q": 4,
            "modulus": [1, 1, 1]}
    expanded = binary_expand(mult)
    assert expanded == {"family": "binary-expansion", "base": mult}
    runtime = codes.build_runtime(expanded)
    assert runtime.N == 8 and runtime.n == 4 and runtime.k == 1
    arr = {"family": "array", "r": 2, "p": 3, "S": [0, 1], "global_parity": False}
    assert binary_expand(arr) == arr  # one bit per symbol: identity
    assert replicate(arr, 1) == arr
    rep = replicate(arr, 2)
    rt = codes.build_runtime(rep)
    assert rt.N == 24 and rt.k == 4
    with pytest.raises(ValueError, match="characteristic 2"):
        binary_expand({"family": "multiplicity", "m": 1, "d": 1, "s": 1,
                       "q": 9, "modulus": [1, 0, 1]})


@pytest.mark.parametrize("build", [["--r", "3", "--p", "4", "--slopes", "0,1"],
                                   ["--r", "7", "--p", "5", "--slopes", "0,1"]])
def test_array_descriptors_without_disjoint_sets_exit_2(build, tmp_path, capsys):
    # two or more slopes need a prime column count and rows <= cols; the
    # build refuses such a code, and so does every command on a
    # descriptor written by hand
    desc = tmp_path / "arr.json"
    assert run(["build", "array", *build, "-o", str(desc)]) == 2
    assert capsys.readouterr().out == ""
    assert not desc.exists()
    r, p = int(build[1]), int(build[3])
    desc.write_text(json.dumps({"family": "array", "r": r, "p": p, "S": [0, 1]}))
    for argv in (["roundtrip", str(desc)], ["certify", str(desc), "--mode", "pir"],
                 ["certify", str(desc), "--mode", "batch"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "disjointness" in captured.err
    # one slope needs neither
    assert run(["build", "array", "--r", str(r), "--p", str(p), "--slopes", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 1


def test_curves_refuse_a_step_above_the_point_cap():
    # in a child with a timeout: a grid of 2e9 points would never finish
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for which in ("batch", "pir-binary"):
        done = subprocess.run(
            [sys.executable, "-m", "pirbatch.cli", "curves", "--which", which,
             "--step", "1e-9"], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout == "" and "grid points" in done.stderr
    assert len(curves.epsilon_grid("1e-5")) == curves.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="grid points"):
        curves.epsilon_grid(Fraction(2, curves.MAX_GRID_POINTS))
    assert curves.epsilon_grid(Fraction(1, 4)) == [Fraction(i, 4) for i in range(9)]
    assert curves.epsilon_grid("0.3")[-1] == Fraction(9, 5)


def test_curves_deterministic_and_exact(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["curves", "--which", "pir-binary", "--step", "0.1",
                "-o", str(out1)]) == 0
    assert run(["curves", "--which", "pir-binary", "--step", "0.1",
                "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    rows = [line.split(",") for line in out1.read_text().splitlines()[1:]]
    series = {r[2] for r in rows}
    assert {"delta_s3", "delta_s5", "delta_s7", "delta_s20", "optimal",
            "replication", "lower-bound", "prior-work"} <= series
    by_key = {(r[0], r[2]): Fraction(r[3]) for r in rows}
    assert by_key[("0", "delta_s3")] == Fraction(5, 6)
    assert by_key[("1.5", "replication")] == Fraction(3, 2)


# sha256 of the CSV `curves -o` writes, pinned from the two-pass
# implementation: every series and table row is unchanged byte for byte
CURVE_CSV_SHA256 = {
    ("pir-binary", "0.1", None):
        "e61aefe756987b2589612e0b9f48f7138a5cb5a3f8191babfe9fb5961e9c8d07",
    ("pir-binary", "0.001", None):
        "108e73dbc815b3f12935e97e2a2327e9ce6ebad79c497287b0129a8910a5d70a",
    ("pir-qary", "0.1", None):
        "06b274911e7857bc606062edbdba4dab2c901b446d55faa2a325b42d82208954",
    ("pir-qary", "0.001", None):
        "0165190922cc8afc0b54beb4f9bae258088bdc7b0c7ddf115c8c79e9d0f9a445",
    ("batch", "0.1", None):
        "76d80143b2d361ad827ca6815e72db7fc90879357e662cc3138fc349d8c9eb86",
    ("batch", "0.001", None):
        "4a4729e1ad6f3d012cb161e60ca3abbc1c42b13f4653d1fdcfb329cd018b2b76",
    ("pir-binary", "0.1", "table"):
        "cd69d9881df568381db48609048e55a100a320c6f7ba5180ac0393bd4c4186ba",
    ("pir-binary", "0.1", "2,3,5,7,20"):
        "2b914443b6833bc7321c56ab01bb1c99be14fcdb6d05068390d435bc025ff6bd",
    ("pir-binary", "0.001", "table"):
        "b7034d2b26dfff33a536fda2704960177d6c880b31a8e1dfc62fece97be82989",
    ("pir-binary", "0.001", "2,3,5,7,20"):
        "1f61dfda08b0f775bd16f71ca6ee3916bc758e86af67c6561a00f3990af0d53b",
    ("pir-qary", "0.1", "table"):
        "013cc833dca8dd907e2e01646cc6489f83fd16a4d08d7c05d556d05550a23d35",
    ("pir-qary", "0.1", "2,3,5,7,20"):
        "008cfc81b1d4dd418262921306ad579f91bf616aea907076aa3155fdbe5a4cd2",
    ("pir-qary", "0.001", "table"):
        "219394f04bb8007824c4602dc58f349235e1094621b2f636aedcb4a0549c2f38",
    ("pir-qary", "0.001", "2,3,5,7,20"):
        "b2ae96b9c2fd45b6f7e38b578b3e0734340fd52b863d503963c57315329a654b",
}


@pytest.mark.parametrize("which,step,table", list(CURVE_CSV_SHA256))
def test_curves_csv_is_pinned(which, step, table, tmp_path, capsys):
    # table: None for the series CSV, "table" for --format table, else
    # the --s-values of a table
    out = tmp_path / "curves.csv"
    argv = ["curves", "--which", which, "--step", step, "-o", str(out)]
    if table is not None:
        argv += ["--format", "table"]
    if table not in (None, "table"):
        argv += ["--s-values", table]
    assert run(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CURVE_CSV_SHA256[which, step, table]


def test_curves_batch_crossover(capsys):
    assert run(["curves", "--which", "batch", "--step", "0.1"]) == 0
    out = capsys.readouterr().out
    csv_part, json_part = out.split("{", 1)
    info = json.loads("{" + json_part)
    assert info["crossover_formula"] == "1/8"
    assert info["matches_quoted"] is False
    rows = [line.split(",") for line in csv_part.splitlines()[1:]]
    by_key = {(r[0], r[2]): Fraction(r[3]) for r in rows}
    assert by_key[("0.2", "constructions-min")] == Fraction(9, 10)
    assert by_key[("0.2", "array")] == Fraction(1)


def test_curves_table_format(capsys):
    assert run(["curves", "--which", "pir-qary", "--step", "0.5",
                "--format", "table"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "epsilon,s,delta,variant"
    assert any(line.endswith(",qary") for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ["--which", "pir-qary", "--s-values", "3"],
    ["--which", "batch", "--s-values", "3"],
    ["--which", "pir-qary", "--format", "table", "--s-values", ""],
    ["--which", "pir-binary", "--format", "table", "--s-values", ","],
    ["--which", "pir-qary", "--format", "table", "--s-values", "1"],
    ["--which", "pir-binary", "--format", "table", "--s-values", "0,-4"],
    ["--which", "pir-binary", "--format", "table", "--s-values", "3,1"],
])
def test_curves_refuse_s_values_outside_a_table_or_below_two(argv, capsys):
    # --s-values only shapes a table, and names at least one s >= 2
    assert run(["curves", "--step", "0.5", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _reference_series(which):
    """Each series of a figure as its closed form or reference curve,
    None where it is undefined, written independently of `curves._series`."""
    half = Fraction(1, 2)
    lower = lambda eps: curves.piecewise(curves.LOWER_BOUND_CURVE, eps)
    if which == "batch":
        below = lambda f: lambda eps: f(eps) if eps < half else None
        return {
            "mult-qary": below(curves.batch_delta_qary),
            "mult-binary": below(curves.batch_delta_binary),
            "array": below(curves.batch_redundancy_exponent),
            "tail": lambda eps: half + eps if eps >= half else None,
            "constructions-min": lambda eps: min(
                [curves.batch_delta_binary(eps)]
                + ([curves.batch_redundancy_exponent(eps)] if eps < half else [])),
            "lower-bound": lower,
            "prior-work": lambda eps: curves.piecewise(curves.BATCH_PRIOR_CURVE, eps)}
    delta = curves.pir_delta_binary if which == "pir-binary" else curves.pir_delta_qary

    def optimal(eps):
        # the least exponent over every admissible s up to past s+
        if eps >= 1:
            return None
        top = int(3 / (1 - eps)) + 3
        return min(delta(s, eps) for s in range(2, top) if s * (1 - eps) > 1)

    series = {"optimal": optimal, "replication": lambda eps: eps if eps >= 1 else None,
              "lower-bound": lower}
    if which == "pir-binary":
        series["prior-work"] = lambda eps: curves.piecewise(curves.PIR_PRIOR_CURVE, eps)
        for s in (3, 5, 7, 20):
            series[f"delta_s{s}"] = (lambda eps, s=s: delta(s, eps)
                                     if s * (1 - eps) > 1 else None)
    return series


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Fraction(1, k) for k in range(1, 61)] + [Fraction(2, 7)]),
       st.sampled_from(["pir-binary", "pir-qary", "batch"]))
@example(Fraction(1, 3), "batch")
@example(Fraction(2, 7), "pir-binary")
def test_curve_series_off_the_decimal_grid(step, which):
    rows = curves.curve_series(which, step)
    assert rows == sorted(rows, key=lambda row: (row[2], row[0]))
    grid = curves.epsilon_grid(step)
    reference = _reference_series(which)
    # each series covers exactly the grid points where it is defined, and
    # each of its rows holds the closed form there
    assert {series for _, _, series in rows} == set(reference)
    for name, curve in reference.items():
        assert [(eps, delta) for eps, delta, series in rows if series == name] == [
            (eps, curve(eps)) for eps in grid if curve(eps) is not None]
    # epsilon is exact: a decimal when 10^j * eps is whole, else num/den
    lines = curves.curves_csv(rows).splitlines()
    assert lines[0] == "epsilon,delta,series,delta_exact" and len(lines) == len(rows) + 1
    for line, (eps, delta, series) in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[1:] == [str(float(delta)), series, str(delta)]
        den = eps.denominator
        while den % 2 == 0:
            den //= 2
        while den % 5 == 0:
            den //= 5
        if den == 1:
            assert "/" not in cells[0] and Fraction(cells[0]) == eps
        else:
            assert cells[0] == f"{eps.numerator}/{eps.denominator}"


def test_lower_bound_at_quarter():
    assert curves.piecewise(curves.LOWER_BOUND_CURVE, Fraction(1, 4)) == Fraction(1, 2)


def test_unknown_family_errors():
    with pytest.raises(ValueError, match="unknown code family"):
        codes.build_runtime({"family": "mystery"})


_SCALAR = (st.integers() | st.booleans() | st.none() | st.text(max_size=4)
           | st.floats(allow_nan=False))
_KEY = (st.text(max_size=4), st.integers(-5, 5), st.floats(allow_nan=False),
        st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    _SCALAR,
    lambda inner: (st.lists(inner, max_size=4)
                   # one key type per dict: json refuses to sort mixed keys
                   | st.one_of(*(st.dictionaries(key, inner, max_size=4)
                                 for key in _KEY))),
    max_leaves=20))
def test_json_text_matches_the_stdlib_encoder(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_array_commands_never_load_numpy(tmp_path):
    # numpy comes in through gf.np on first use; a numpy import anywhere on
    # the array path would load it for array-only processes too
    script = """
import sys
from pirbatch import cli
for args in (["build", "array", "--r", "3", "--k", "2", "-o", "rk.json"],
             ["build", "array", "--five-batch", "--p", "5", "-o", "five.json"],
             ["certify", "rk.json", "--mode", "pir"],
             ["certify", "rk.json", "--mode", "batch"],
             ["certify", "five.json", "--mode", "batch", "--limit", "300"],
             ["encode", "rk.json", "--random", "-o", "cw.json"],
             ["recover", "rk.json", "--codeword", "cw.json", "--index", "0"],
             ["roundtrip", "five.json"]):
    assert cli.main(args) == 0, args
assert "numpy" not in sys.modules, "numpy was loaded"
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


FAST_PATH_CODES = {
    # build arguments, and the k of a batch certify (None: no planner)
    "mult-gf11": (["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "11"], 2),
    "mult-gf8-bits": (["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "8",
                       "--expand-binary", "--replicate", "2"], None),
    "mult-gf8": (["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "8"], 2),
    "array-rk": (["array", "--r", "3", "--k", "3"], 3),
    "array-five": (["array", "--five-batch", "--p", "5"], 5),
    "gf9": (["multiplicity", "--m", "1", "--d", "2", "--s", "2", "--q", "9"], 2),
    "gf4-bits": (["multiplicity", "--m", "2", "--d", "2", "--s", "2", "--q", "4",
                  "--expand-binary"], None),
}


@pytest.mark.parametrize("name", list(FAST_PATH_CODES))
def test_certify_checks_witnesses_without_solving(name, tmp_path, capsys, monkeypatch):
    # the benchmark codes (mult-gf8 is the planner of mult-gf8-bits), a
    # GF(9) code and an expanded GF(4) code: every set a construction
    # claims carries a witness that holds, so `verify` solves no span; the
    # array planners' own GF(2) solves do not go through it
    from pirbatch import verify

    solves, hits = [], []
    stacked, xor = verify._witnesses_hold, verify._xor_holds

    def stacked_hits(*args):
        held = stacked(*args)
        hits.extend(ok for row in held for ok in row)
        return held

    def xor_hits(*args):
        hits.append(xor(*args))
        return hits[-1]

    # witness checks go through the stacked product or, for XOR readers
    # over GF(2), the column masks; each checked row records its verdict
    monkeypatch.setattr(verify, "_solve_recovery",
                        lambda *args: solves.append(args) or (False, None))
    monkeypatch.setattr(verify, "_witnesses_hold", stacked_hits)
    monkeypatch.setattr(verify, "_xor_holds", xor_hits)
    build, k = FAST_PATH_CODES[name]
    desc = str(tmp_path / "code.json")
    assert run(["build", *build, "-o", desc]) == 0
    runs = [["--mode", "pir"]]
    if k is not None:
        runs.append(["--mode", "batch", "--k", str(k), "--limit", "60"])
    for args in runs:
        assert run(["certify", desc, *args]) == 0, args
    assert not solves and hits and all(hits)
    if name == "array-five":
        # a request the 5-batch matcher serves through the global-parity
        # fallback, whose support is an XOR found by a GF(2) solve
        code = codes.build_runtime(json.loads(open(desc).read()))
        G = verify.extract_generator(code.field, code.encode, code.n, code.N)
        report = verify.certify_batch(G, code.batch_planner(5), [(0, 0, 0, 1, 1)])
        assert report.ok and not solves
    capsys.readouterr()
