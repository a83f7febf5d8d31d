"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from layers import PER_LAYER, Tracer
from workloads import SMALL, WORKLOADS, Session, array_rk_profile, mult_profile

run._import_program()

HERE = os.path.dirname(os.path.abspath(__file__))


def _ops_per_round(name):
    s = SMALL
    return (1 + s.encodes + s.recovers + s.batches + 4
            + (name == "mult-gf8-bits"))


def test_closed_forms_match_the_paper_instances():
    assert mult_profile(2, 4, 2, 11) == {"n": 15, "N": 363, "k": 5}
    assert mult_profile(2, 4, 2, 8, bits=3, copies=2) == {"n": 45, "N": 1152, "k": 8}
    assert array_rk_profile(3, 3)["cols"] == 163


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_mode_passes_every_check(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False, small=True)
    assert result["correct"]
    ops = _ops_per_round(name)
    assert result["attempted"] % ops == 0
    rounds = result["attempted"] // ops
    # the linearity-gap control is the one operation that fails, every round
    assert result["failed"] == (rounds if name == "mult-gf8-bits" else 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_outputs_are_counted_as_failed(tmp_path, monkeypatch):
    """One recovered value, one profile field and one certify count are
    changed on their way out of the CLI; each must fail its check."""
    from pirbatch import cli

    session = Session(WORKLOADS["array-five"], 5, str(tmp_path), SMALL)
    session.setup()
    session.setup_control()
    real_main = cli.main
    todo = {"build": "n", "recover": "recovered", "certify": "passed"}

    def corrupting_main(argv):
        code = real_main(argv)
        key = todo.pop(argv[0], None)
        if key is not None:
            out = json.loads(sys.stdout.getvalue())
            if key == "recovered":
                out[key] = [out[key][0] + 1] + out[key][1:]
            else:
                out[key] += 1
            sys.stdout.seek(0)
            sys.stdout.truncate()
            sys.stdout.write(json.dumps(out))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    session.run_round(0)
    assert not todo
    assert session.attempted == _ops_per_round("array-five")
    assert session.failed == 3
    assert [e.split()[0] for e in session.errors] == ["build:", "recover", "certify"]


def test_trace_reaches_every_binding(monkeypatch):
    from pirbatch import array_code, batch_mult, linalg, pir

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missed() == []
        for fn in (pir.hermite_interpolate, batch_mult.recover_symbol,
                   array_code.solve_in_span_gf2, linalg.solve_in_span_gf2):
            assert hasattr(fn, "__wrapped__")
        # a binding the trace does not know about is reported
        monkeypatch.setattr(linalg, "_alias", linalg.solve_in_span_gf2.__wrapped__,
                            raising=False)
        assert tracer.missed() == ["pirbatch.linalg._alias"]
    finally:
        tracer.uninstall()
    assert not hasattr(pir.hermite_interpolate, "__wrapped__")


def _traced(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "0", "--trace", "1", "--small"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat(name):
    first, second = _traced(name), _traced(name)
    assert first["correct"] and set(first["metrics"]) == set(PER_LAYER)
    counts = [m for m in PER_LAYER if m.endswith("_calls")
              or m.startswith("gf.") or m == "array_code.five_fallback_requests"]
    assert ({m: first["metrics"][m]["value"] for m in counts}
            == {m: second["metrics"][m]["value"] for m in counts})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mult-gf11", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
