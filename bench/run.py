"""Benchmark for pirbatch: one closed-loop session per workload.

    python3 bench/run.py --workload mult-gf11 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run prints every end-to-end
metric; with ``--trace 1`` a separate traced run prints the per-layer
metrics and writes its spans under ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# pirbatch does no BLAS work, and starting numpy's BLAS thread pool (one
# thread per core) took 70 of the 165 ms of its import and varied with
# host load.  Like `certify --jobs 1`, the pool is held to one thread, in
# this process and in the set-up children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from workloads import (  # noqa: E402
    PROBE_INTERVAL_S, REFERENCE_UNIT_S, SMALL, WORKLOADS, Session, _calibration_unit)

SETUP_RUNS = 7

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "encode_ms_p50": "ms",
    "recover_ms_p50": "ms",
    "recover_ms_p99": "ms",
    "batch_ms_p50": "ms",
    "batch_ms_p99": "ms",
    "roundtrip_symbols_per_s": "checks/s",
    "certify_pir_sets_per_s": "sets/s",
    "certify_batch_requests_per_s": "requests/s",
    "peak_rss_mb": "MB",
}

# Cold import of the CLI plus the first build, timed inside a fresh
# interpreter so that interpreter start-up is left out.  Like `Clock`, it
# takes the thread's CPU time, and an interval timer times the calibration
# unit every PROBE_INTERVAL_S during the set-up; the child reports its time
# less the probes, scaled to reference speed.  Only built-in modules are imported before the timer
# starts, so the cold import is not warmed.
_SETUP_CHILD = f"""
import signal, sys, time
sys.path.insert(0, sys.argv[1])
{inspect.getsource(_calibration_unit)}
units = []

def probe(signum, frame):
    t = time.thread_time()
    _calibration_unit()
    units.append(time.thread_time() - t)

signal.signal(signal.SIGALRM, probe)
signal.setitimer(signal.ITIMER_REAL, {PROBE_INTERVAL_S}, {PROBE_INTERVAL_S})
t0 = time.thread_time()
import contextlib, io
import pirbatch.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = pirbatch.cli.main(sys.argv[2:])
dt = time.thread_time() - t0
signal.setitimer(signal.ITIMER_REAL, 0, 0)
import json
print(json.dumps({{"rc": rc, "profile": out.getvalue(),
                  "setup_s": (dt - sum(units)) * {REFERENCE_UNIT_S} * len(units) / sum(units)}}))
"""


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "pirbatch", "__init__.py")):
        raise SystemExit(f"error: no pirbatch sources under {SRC}")
    sys.path.insert(0, SRC)
    import pirbatch

    if not os.path.abspath(pirbatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: pirbatch was imported from {pirbatch.__file__}")


def measure_setup(session):
    """Median of SETUP_RUNS cold set-ups, each in a fresh interpreter."""
    times = []
    for i in range(SETUP_RUNS):
        desc = os.path.join(session.dir, f"setup-{i}.json")
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, "build",
             *session.w.build, "-o", desc],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        problems = session.check_profile(Session._json(result.get("profile", ""))) \
            if result.get("rc") == 0 else [
                f"exit {result.get('rc', proc.returncode)}: {proc.stderr.strip()}"]
        if problems:
            session.errors.append("cold build: " + "; ".join(problems))
            continue
        times.append(result["setup_s"])
    return statistics.median(times) if times else float("nan")


def run_untraced(session, seconds):
    setup_s = measure_setup(session)
    session.clock.start()
    try:
        return _timed_rounds(session, seconds, setup_s)
    finally:
        session.clock.stop()


def _timed_rounds(session, seconds, setup_s):
    session.setup()
    session.setup_control()
    # Round 0 fills the caches that requests fill lazily (interpolation
    # solvers, plan shapes); it is checked and counted, but not timed.
    t0 = time.perf_counter()
    session.run_round(0)
    session.clock.flush()
    for samples in session.samples.values():
        del samples[:]
    r = 1
    while True:
        session.run_round(r)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            break
    session.clock.flush()
    s, ms = session.samples, 1000.0

    def rate(kind):
        return session.work[kind] * len(s[kind]) / sum(s[kind])

    metrics = {
        "setup_s": setup_s,
        "encode_ms_p50": statistics.median(s["encode"]) * ms,
        "recover_ms_p50": statistics.median(s["recover"]) * ms,
        "recover_ms_p99": percentile(s["recover"], 99) * ms,
        "batch_ms_p50": statistics.median(s["batch"]) * ms,
        "batch_ms_p99": percentile(s["batch"], 99) * ms,
        # work over time summed across the run's commands
        "roundtrip_symbols_per_s": rate("roundtrip"),
        "certify_pir_sets_per_s": rate("certify_pir"),
        "certify_batch_requests_per_s": rate("certify_batch"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {session.w.name} seed {session.seed}: {r} rounds, 1 untimed; samples: "
          f"{len(s['encode'])} encode, {len(s['recover'])} recover, "
          f"{len(s['batch'])} batch, {r - 1} of each certify and roundtrip; "
          f"speed factor median {session.clock.median_factor():.3f}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(session, seconds, out_dir):
    """The cold set-up build under spans; round 0 under spans and the field
    counter, for counts that repeat exactly; then untraced and traced
    rounds in turn, in equal numbers, whose program time gives the
    tracing overhead."""
    from layers import PER_LAYER, FieldCounter, Tracer, layer_metrics

    tracer, counter = Tracer(), FieldCounter()
    phases = {}
    tracer.install()
    session.setup()
    phases["setup"] = (0, tracer.mark())
    tracer.uninstall()
    session.setup_control()
    tracer.install()
    counter.install()
    session.run_round(0)
    counter.uninstall()
    tracer.uninstall()
    phases["count"] = (phases["setup"][1], tracer.mark())

    # untraced rounds add no spans, so the traced ones form one range
    lo, untraced, traced = tracer.mark(), [], []
    t0, r = time.perf_counter(), 1
    while True:
        session.run_round(r)
        untraced.append(session.round_program_s[-1])
        tracer.install()
        session.run_round(r + 1)
        tracer.uninstall()
        traced.append(session.round_program_s[-1])
        r += 2
        if time.perf_counter() - t0 >= seconds:
            break
    phases["traced"] = (lo, tracer.mark())
    phases["traced_rounds"] = len(traced)
    phases["overhead_share"] = sum(traced) / sum(untraced) - 1

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{session.w.name}-seed{session.seed}.json.gz")
    tracer.dump(path, phases)
    print(f"# {session.w.name} seed {session.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds; {tracer.mark()} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    values = layer_metrics(tracer, counter, phases)
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}


def run_workload(name, seed, seconds, trace, small=False):
    """Run one workload in this process; returns the result object."""
    _import_program()
    # One core for the process and its set-up children: a move to the
    # other core starts it on cold caches, which showed in the tail.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        session = Session(WORKLOADS[name], seed, workdir, SMALL if small else None)
        if trace:
            metrics = run_traced(session, seconds, os.path.join(ROOT, ".bench_out"))
        else:
            metrics = run_untraced(session, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in session.errors[:10]:
        print(f"# check failed: {err}")
    return {"correct": not session.errors, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def run_all(args):
    """Every workload, each in a process of its own, as one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:<36} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="a few operations per round, for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.small)
    for metric, mv in result["metrics"].items():
        print(f"{metric} {mv['value']:.6g} {mv['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
