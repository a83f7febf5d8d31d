"""Command-line front end: build code descriptors, encode messages, run
recovery round trips, certify availability properties, and emit the
redundancy trade-off curves as CSV data.

Exit codes: 0 success, 1 certification failure or recovery mismatch,
2 usage or parse errors, a malformed or oversized descriptor among them,
3 a computation that could not complete (any other RuntimeError: a batch
planner out of options, no irreducible polynomial, a rank-deficient
generator map).
All randomized outputs record their seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache

from . import array_code, curves, linalg, multiplicity, verify
from .codes import binary_expand, build_runtime, replicate
from .gf import Field
from .mpoly import DecodeFailure


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_or_print(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.
    With an indent, json runs its pure-Python encoder; here json's C
    encoder writes every flat list and scalar, and only containers that
    hold containers are walked in Python."""
    return _indented(obj, "\n") + "\n"


# types json writes as one scalar each
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _indented(obj, pad) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # json sorts the items by key, then writes each key as a string
        return "{" + ",".join(
            f"{inner}{json.dumps(_key(key))}: {_indented(value, inner)}"
            for key, value in sorted(obj.items())) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _SCALARS.issuperset(map(type, obj)):
            return "[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1] \
                + pad + "]"
        return "[" + ",".join(inner + _indented(x, inner) for x in obj) + pad + "]"
    return json.dumps(obj)


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (bool, int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def cmd_build(args) -> int:
    if args.family == "multiplicity":
        for name in ("m", "d", "s", "q"):
            if getattr(args, name) is None:
                raise ValueError(f"build multiplicity requires --{name}")
        modulus = _parse_ints(args.modulus) if args.modulus else None
        field = Field.from_order(args.q, modulus=modulus)
        params = multiplicity.MultCodeParams(field=field, m=args.m, d=args.d,
                                             s=args.s)
        desc = multiplicity.to_descriptor(params)
    else:
        if args.five_batch:
            if args.p is None:
                raise ValueError("--five-batch requires --p")
            params = array_code.five_batch_code(args.p)
        elif args.slopes is not None:
            if args.r is None or args.p is None:
                raise ValueError("--slopes requires --r and --p")
            params = array_code.ArrayCodeParams(
                rows=args.r, cols=args.p, slopes=tuple(_parse_ints(args.slopes)))
        elif args.target_dim is not None:
            if args.k is None:
                raise ValueError("--target-dim requires --k")
            params = array_code.params_for_dimension(args.target_dim, args.k)
        elif args.r is not None and args.k is not None:
            params = array_code.build_rk_batch(args.r, args.k)
        else:
            raise ValueError("build array needs --five-batch, --slopes, "
                             "--target-dim or --r with --k")
        desc = array_code.to_descriptor(params)
    if args.expand_binary:
        desc = binary_expand(desc)
    if args.replicate is not None:
        desc = replicate(desc, args.replicate)
    runtime = build_runtime(desc)
    if args.output:
        _write_or_print(_json_text(desc), args.output)
    sys.stdout.write(_json_text(runtime.profile()))
    return 0


def _read_json(path):
    """The JSON value in a file.  A value nested too deeply for json's
    parser is malformed input, a ValueError like any other."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests its JSON too deeply") from None


def _load_descriptor(path) -> dict:
    desc = _read_json(path)
    if not isinstance(desc, dict) or "family" not in desc:
        raise ValueError(f"{path} does not contain a code descriptor")
    return desc


def _planner(runtime, mode, k):
    """(planner, positions_of) that certify checks a mode's requests with.
    A PIR request (i, ..., i) is served by symbol i's own `Recovery`,
    whose index and stack certify reads; a batch planner refuses a k it
    cannot serve with ValueError."""
    if mode == "pir":
        return (lambda request: runtime.recovery(request[0])), None
    if runtime.batch_planner is None:
        raise ValueError(f"{runtime.family} has no batch planner")
    return runtime.batch_planner(k), runtime.positions_of


def _certify_chunk(payload):
    desc, G, mode, k, chunk = payload
    planner, positions_of = _planner(build_runtime(desc), mode, k)
    report = verify.certify_batch(G, planner, chunk, positions_of=positions_of)
    return report.total, report.passed, report.failures


def cmd_certify(args) -> int:
    desc = _load_descriptor(args.descriptor)
    runtime = build_runtime(desc)
    k = args.k if args.k is not None else runtime.k
    if k < 1:
        raise ValueError(f"--k must be >= 1, got {k}")
    # an empty set recovers no symbol, so k disjoint recovering sets need
    # k <= N; refusing a larger k keeps the n k requested sets bounded
    if k > runtime.N:
        raise ValueError(f"--k must be <= N = {runtime.N}, got {k}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    # refuse a generator above the cap, and a k the planner cannot serve,
    # before sampling requests and extracting, which can take seconds
    linalg.check_generator_size(runtime.n, runtime.N)
    _planner(runtime, args.mode, k)
    if args.mode == "pir":
        work = [(i,) * k for i in range(runtime.n)]
        seed = None
    else:
        reqs, seed, _ = verify.enumerate_requests(
            runtime.batch_targets, k, limit=args.limit, seed=args.seed)
        work = list(reqs)
    G = verify.extract_generator(runtime.field, runtime.encode,
                                 runtime.n, runtime.N)
    # one chunk per worker, and no more workers than CPUs; every chunk
    # checks its claims against the one generator
    chunks = _split(work, min(args.jobs, os.cpu_count() or 1))
    payloads = [(desc, G, args.mode, k, c) for c in chunks]
    if len(chunks) > 1:
        import multiprocessing

        with multiprocessing.Pool(len(chunks)) as pool:
            results = pool.map(_certify_chunk, payloads)
    else:
        results = [_certify_chunk(payloads[0])]
    report = verify.Report(seed=seed)
    offset = 0
    for (total, passed, failures), chunk in zip(results, chunks):
        report.total += total
        report.passed += passed
        report.failures.extend((rid + offset, detail) for rid, detail in failures)
        offset += len(chunk)
    if args.report_csv:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(report.csv_rows())
        _write_or_print(buf.getvalue(), args.report_csv)
    if args.report_json:
        _write_or_print(_json_text(report.summary()), args.report_json)
    sys.stdout.write(_json_text(report.summary()))
    return 0 if report.ok else 1


def _split(items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [items]
    size = (len(items) + jobs - 1) // jobs
    return [items[i:i + size] for i in range(0, len(items), size)]


def cmd_roundtrip(args) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be >= 0")
    desc = _load_descriptor(args.descriptor)
    runtime = build_runtime(desc)
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.trials):
        message = [rng.randrange(runtime.field.q) for _ in range(runtime.n)]
        cw = runtime.encode(message)
        word = runtime.word(cw)
        for i in range(runtime.n):
            if cw[runtime.info_positions[i]] != message[i]:
                mismatches += 1
            mismatches += runtime.k - runtime.recover_all(word, i).count(message[i])
    sys.stdout.write(_json_text({
        "seed": args.seed, "trials": args.trials,
        "checks": args.trials * runtime.n * (runtime.k + 1),
        "mismatches": mismatches}))
    return 0 if mismatches == 0 else 1


def cmd_encode(args) -> int:
    desc = _load_descriptor(args.descriptor)
    runtime = build_runtime(desc)
    if args.message is not None:
        message = _parse_ints(args.message)
    elif args.random:
        rng = random.Random(args.seed)
        message = [rng.randrange(runtime.field.q) for _ in range(runtime.n)]
    else:
        raise ValueError("encode needs --message or --random")
    out = {"seed": args.seed if args.random else None,
           "message": message, "codeword": runtime.encode(message)}
    _write_or_print(_json_text(out), args.output)
    return 0


def cmd_recover(args) -> int:
    desc = _load_descriptor(args.descriptor)
    runtime = build_runtime(desc)
    payload = _read_json(args.codeword)
    codeword = payload["codeword"] if isinstance(payload, dict) else payload
    q = runtime.field.q
    if not (isinstance(codeword, list) and len(codeword) == runtime.N
            and linalg.in_field(codeword, q)):
        raise ValueError(f"expected a list of {runtime.N} codeword symbols in [0, {q})")
    if not 0 <= args.index < runtime.n:
        raise ValueError(f"index must lie in [0, {runtime.n})")
    if args.set is not None and not 0 <= args.set < runtime.k:
        raise ValueError(f"set must lie in [0, {runtime.k})")
    if args.set is None:
        values = runtime.recover_all(codeword, args.index)
    else:
        values = [runtime.recover_info(codeword, args.index, args.set)]
    agree = len(set(values)) == 1
    sys.stdout.write(_json_text({
        "index": args.index, "recovered": values, "consistent": agree}))
    return 0 if agree else 1


def cmd_curves(args) -> int:
    if args.s_values is not None and args.format != "table":
        raise ValueError("--s-values applies to --format table only")
    if args.format == "table":
        if args.which == "batch":
            raise ValueError("table format applies to the pir variants")
        variant = "qary" if args.which == "pir-qary" else "binary"
        s_values = None if args.s_values is None else _parse_ints(args.s_values)
        if s_values == []:
            raise ValueError("--s-values names no s")
        rows = curves.pir_delta_curves(
            curves.epsilon_grid(args.step), s_values=s_values, variant=variant)
        _write_or_print(curves.curve_csv(rows), args.output)
        return 0
    rows = curves.curve_series(args.which, args.step)
    _write_or_print(curves.curves_csv(rows), args.output)
    if args.which == "batch":
        cross = curves.batch_crossover()
        sys.stdout.write(_json_text({
            "crossover_formula": str(cross["formula"]),
            "crossover_formula_decimal": float(cross["formula"]),
            "crossover_quoted": cross["quoted"],
            "matches_quoted": cross["matches_quoted"]}))
    return 0


def _parse_ints(text):
    return [int(x) for x in str(text).split(",") if x != ""]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so one parser serves every `main` call."""
    top = argparse.ArgumentParser(
        prog="pirbatch",
        description="Construct, encode and certify PIR and batch codes.")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a code descriptor")
    b.add_argument("family", choices=["multiplicity", "array"])
    b.add_argument("--m", type=int)
    b.add_argument("--d", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--q", type=int)
    b.add_argument("--modulus", help="comma-separated, lowest power first")
    b.add_argument("--r", type=int)
    b.add_argument("--p", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--slopes", help="comma-separated slope set")
    b.add_argument("--five-batch", action="store_true")
    b.add_argument("--target-dim", type=int,
                   help="pick rows/prime for at least this dimension")
    b.add_argument("--expand-binary", action="store_true")
    b.add_argument("--replicate", type=int)
    b.add_argument("-o", "--output")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("certify", help="run availability certification")
    c.add_argument("descriptor")
    c.add_argument("--mode", choices=["pir", "batch"], required=True)
    c.add_argument("--k", type=int)
    c.add_argument("--limit", type=int, default=verify.DEFAULT_REQUEST_LIMIT)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--report-csv")
    c.add_argument("--report-json")
    c.set_defaults(func=cmd_certify)

    r = sub.add_parser("roundtrip", help="encode random data and recover "
                                         "every symbol via every set")
    r.add_argument("descriptor")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--trials", type=int, default=1)
    r.set_defaults(func=cmd_roundtrip)

    e = sub.add_parser("encode", help="encode a message")
    e.add_argument("descriptor")
    e.add_argument("--message", help="comma-separated symbols")
    e.add_argument("--random", action="store_true")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_encode)

    rec = sub.add_parser("recover", help="recover one symbol from a codeword")
    rec.add_argument("descriptor")
    rec.add_argument("--codeword", required=True, help="json file")
    rec.add_argument("--index", type=int, required=True)
    rec.add_argument("--set", type=int)
    rec.set_defaults(func=cmd_recover)

    cv = sub.add_parser("curves", help="emit redundancy trade-off curves")
    cv.add_argument("--which", choices=["pir-binary", "pir-qary", "batch"],
                    required=True)
    cv.add_argument("--step", default="0.1")
    cv.add_argument("--format", choices=["series", "table"], default="series")
    cv.add_argument("--s-values",
                    help="comma-separated s list, each s >= 2 (--format table only)")
    cv.add_argument("-o", "--output")
    cv.set_defaults(func=cmd_curves)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except DecodeFailure as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
