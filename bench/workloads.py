"""The four workloads and the closed-loop session that runs each of them.

One session round sends, one after another and each only after the last
has returned:

1. a warm ``build`` of the workload's code;
2. a stream of ``encode --message`` commands, written to codeword files;
3. a stream of ``recover`` commands, each reading one symbol through all
   k sets of one of those codewords;
4. a stream of k-symbol batch requests served by the library planners;
5. one ``roundtrip --trials T``;
6. ``certify --mode pir``;
7. ``certify --mode batch --limit L``;
8. a negative control: ``certify --mode pir --k K+1`` on a small code of
   the same family, which must exit 1;
9. on mult-gf8-bits, the linearity-gap control.

CLI commands go through ``pirbatch.cli.main`` in-process.  Every output
is checked against values the benchmark computes itself; every operation
counts as attempted, and as failed when its check fails.  A round always
holds the same operations, so the failed share is the same in every run.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
import random
import signal
import statistics
import time
from array import array
from dataclasses import dataclass
from math import comb


# ---------------------------------------------------------------------------
# closed forms, computed here and never read from the program
# ---------------------------------------------------------------------------

def _is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def least_prime_above(x):
    n = x + 1
    while not _is_prime(n):
        n += 1
    return n


def mult_profile(m, d, s, q, bits=1, copies=1):
    """n = C(d+s,s), N = q^s C(m-1+s,s), k = floor(q/m)^(s-1), times the
    bit-expansion and replication factors."""
    return {"n": comb(d + s, s) * bits,
            "N": q ** s * comb(m - 1 + s, s) * bits * copies,
            "k": (q // m) ** (s - 1) * copies}


def array_rk_profile(r, k):
    """Smallest-prime (r,k)-batch code: p is the least prime above 2k^2r^2."""
    p = least_prime_above(2 * k * k * r * r)
    return {"n": r * p, "N": (r + k) * p, "k": k, "rows": r, "cols": p}


def five_batch_profile(p):
    return {"n": p * p, "N": p * p + 5 * p + 1, "k": 5, "rows": p, "cols": p,
            "slopes": [0, 1, 2, 3, 4], "global_parity": True}


def array_parities(bits, rows, cols, slopes, global_parity):
    """One XOR per diagonal (i, t + i*s mod p) per slope, slope-major, then
    the optional global parity bit."""
    out = []
    for s in slopes:
        for t in range(cols):
            acc = 0
            for i in range(rows):
                acc ^= bits[i * cols + (t + i * s) % cols]
            out.append(acc)
    if global_parity:
        acc = 0
        for b in bits:
            acc ^= b
        out.append(acc)
    return out


def progression_free_r3(slopes, p):
    """No s1 + s2 = 2*s3 (mod p) over distinct slopes: the weighted
    progressions of a 3-row array."""
    return not any((a + b - 2 * c) % p == 0 for a in slopes for b in slopes
                   for c in slopes if len({a, b, c}) == 3)


def uniform_multiset(rng, n, k):
    """A size-k multiset of range(n), uniform over all C(n+k-1, k) of them,
    sorted: k distinct bars among n+k-1 slots, shifted back."""
    return [c - i for i, c in enumerate(sorted(rng.sample(range(n + k - 1), k)))]


def gf8_square(x):
    """Frobenius x -> x^2 in GF(2)[x]/(x^3 + x + 1), the modulus pirbatch
    picks for GF(8): (b0 + b1 x + b2 x^2)^2 = b0 + b2 x + (b1 + b2) x^2."""
    b0, b1, b2 = x & 1, x >> 1 & 1, x >> 2 & 1
    return b0 | b2 << 1 | (b1 ^ b2) << 2


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def _calibration_unit():
    """A fixed piece of pure-Python work: tuples, dict lookups, modular
    int arithmetic, the instruction mix pirbatch runs on."""
    acc, seen = 0, {}
    for i in range(150):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + (i * 31 + acc) % 11
        acc = (acc + seen[key]) % 1000003
    return acc


# Median seconds of one calibration unit on the reference machine (2-core
# shared VM, Python 3.11.7).
REFERENCE_UNIT_S = 0.00007

# Period of the calibration probe; one probe costs about 0.07 ms.
PROBE_INTERVAL_S = 0.005


class Clock:
    """Scales the duration of each operation to reference machine speed.

    The host this runs on changes speed by a third within a second as
    other tenants come and go, and every timing moves with it.  While the
    clock runs, an interval timer interrupts the program every
    PROBE_INTERVAL_S and times one calibration unit.  Durations are this
    thread's CPU time, which leaves out time when another task held the
    core.  An operation's duration, less the probes that ran inside it,
    is multiplied by
    REFERENCE_UNIT_S over the mean unit time of the probes inside it and
    the one on either side.  `flush` does the scaling and fills the lists
    given to `record`.
    """

    def __init__(self):
        self._probe_t = []      # start of each probe
        self._probe_s = []      # its unit time
        self._pending = []      # (list, start, end)
        self._previous = None
        self._running = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False

    @staticmethod
    def now():
        """(wall, CPU) time of this thread."""
        return time.perf_counter(), time.thread_time()

    def _probe(self, signum, frame):
        t0, c0 = self.now()
        _calibration_unit()
        self._probe_t.append(t0)
        self._probe_s.append(time.thread_time() - c0)

    def record(self, bucket, t0, t1):
        """An operation ran from t0 to t1, both from `now`; kept only while
        the clock runs, as a traced run does not scale its durations."""
        if self._running:
            self._pending.append((bucket, t0, t1))

    def flush(self):
        ts, us = self._probe_t, self._probe_s
        for bucket, (w0, c0), (w1, c1) in self._pending:
            lo, hi = bisect.bisect_left(ts, w0), bisect.bisect_right(ts, w1)
            seconds = c1 - c0 - sum(us[lo:hi])
            factor = REFERENCE_UNIT_S / statistics.fmean(us[max(lo - 1, 0):hi + 1])
            bucket.append(seconds * factor)
        self._pending.clear()

    def median_factor(self):
        return REFERENCE_UNIT_S / statistics.median(self._probe_s)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    """Operations in one session round."""

    encodes: int      # a multiple of 3: every third message is the sum of two
    recovers: int
    batches: int
    trials: int       # roundtrip --trials
    limit: int        # certify --mode batch --limit


SMALL = Sizes(encodes=3, recovers=4, batches=6, trials=1, limit=4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: tuple         # arguments after `pirbatch build`
    profile: dict        # closed-form profile fields the build must report
    alphabet: int        # message symbols: GF(11) elements or bits
    batch: str           # "mult", "mult-bits", "greedy" or "five"
    batch_k: int
    control: tuple       # build arguments of the negative-control code
    control_k: int       # its availability; certified with control_k + 1
    sizes: Sizes


def _mult(m, d, s, q):
    return ("multiplicity", "--m", str(m), "--d", str(d), "--s", str(s),
            "--q", str(q))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mult-gf11",
        why="the paper's main construction over a prime field: interpolation "
            "recovery and prime-field elimination do most of the work",
        build=_mult(2, 4, 2, 11), profile=mult_profile(2, 4, 2, 11),
        alphabet=11, batch="mult", batch_k=2,
        control=_mult(2, 2, 2, 5), control_k=2,
        sizes=Sizes(encodes=30, recovers=300, batches=600, trials=5, limit=20)),
    Workload(
        name="mult-gf8-bits",
        why="the same recovery through GF(8) table arithmetic and both "
            "descriptor transforms; certification on the GF(2) bitmask path",
        build=_mult(2, 4, 2, 8) + ("--expand-binary", "--replicate", "2"),
        profile=mult_profile(2, 4, 2, 8, bits=3, copies=2),
        alphabet=2, batch="mult-bits", batch_k=2,
        control=_mult(1, 1, 1, 4) + ("--expand-binary", "--replicate", "2"),
        control_k=2,
        sizes=Sizes(encodes=30, recovers=250, batches=400, trials=1, limit=10)),
    Workload(
        name="array-rk",
        why="GF(2) certification at the largest n, where generator columns "
            "are rebuilt and packed; XOR recovery leaves CLI overhead",
        build=("array", "--r", "3", "--k", "3"), profile=array_rk_profile(3, 3),
        alphabet=2, batch="greedy", batch_k=3,
        control=("array", "--r", "3", "--p", "5", "--slopes", "0,1"),
        control_k=2,
        sizes=Sizes(encodes=60, recovers=600, batches=4000, trials=10,
                    limit=1000)),
    Workload(
        name="array-five",
        why="the only workload on the backtracking 5-batch matcher, whose deep "
            "searches set batch_ms_p99, and on its rare global-parity fallback solve",
        build=("array", "--five-batch", "--p", "5"),
        profile=five_batch_profile(5),
        alphabet=2, batch="five", batch_k=5,
        control=("array", "--five-batch", "--p", "5"), control_k=5,
        sizes=Sizes(encodes=60, recovers=600, batches=8000, trials=200,
                    limit=2000)),
)}


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class Session:
    """One client running one workload's rounds in this process.

    Timed samples (seconds) accumulate across rounds; every operation is
    counted in ``attempted`` and, when its check fails, in ``failed``.
    A failure other than the known linearity-gap control is also kept in
    ``errors``, which makes the run incorrect.
    """

    def __init__(self, workload, seed, workdir, sizes=None):
        from pirbatch import array_code, batch_mult, cli, multiplicity, verify

        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.sizes = sizes or workload.sizes
        self.cli = cli
        self.array_code = array_code
        self.batch_mult = batch_mult
        self.multiplicity = multiplicity
        self.verify = verify
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.clock = Clock()
        # seconds at reference speed per operation, and the work of one
        # roundtrip / certify command
        # (arrays of doubles, so that the benchmark's own memory hardly
        # grows with the number of rounds and peak_rss_mb stays the program's)
        self.samples = {kind: array("d") for kind in (
            "encode", "recover", "batch", "roundtrip", "certify_pir", "certify_batch")}
        self.work = {}
        self.round_program_s = []   # time spent inside the program, per round
        self._round_s = 0.0
        self.desc_path = os.path.join(workdir, "code.json")
        self.control_path = os.path.join(workdir, "control.json")
        self.batch_desc_path = self.desc_path

    # -- plumbing ------------------------------------------------------------

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _cli(self, argv, timed=None):
        """Run one CLI command, recording its duration under ``timed``;
        returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = self.clock.now()
            rc = self.cli.main(argv)
            t1 = self.clock.now()
        self._timed(timed, t0, t1)
        return rc, out.getvalue()

    def _timed(self, kind, t0, t1):
        self._round_s += t1[0] - t0[0]
        if kind is not None:
            self.clock.record(self.samples[kind], t0, t1)

    def _op(self, ok, what, known_fault=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.errors.append(what)

    @staticmethod
    def _json(text):
        try:
            return json.loads(text)
        except ValueError:
            return None

    # -- set-up --------------------------------------------------------------

    def check_profile(self, profile):
        """Problems with a `build` profile, against the closed forms."""
        if not isinstance(profile, dict):
            return ["build printed no profile"]
        problems = [f"{key}={profile.get(key)!r}, expected {want!r}"
                    for key, want in self.w.profile.items()
                    if profile.get(key) != want]
        if self.w.name == "array-rk" and not progression_free_r3(
                profile.get("slopes") or [], self.w.profile["cols"]):
            problems.append(f"slopes {profile.get('slopes')} hold a progression")
        return problems

    def setup(self):
        """The first build in this process, and the library-side state the
        batch stream needs."""
        rc, out = self._cli(["build", *self.w.build, "-o", self.desc_path])
        problems = self.check_profile(self._json(out)) if rc == 0 else [f"exit {rc}"]
        if problems:
            self.errors.append("set-up build: " + "; ".join(problems))
        with open(self.desc_path) as fh:
            desc = json.load(fh)
        if self.w.batch.startswith("mult"):
            if self.w.batch == "mult-bits":
                # the GF(8) code under both transforms carries the planner
                desc = desc["base"]["base"]
                self.batch_desc_path = self._path("base.json")
                with open(self.batch_desc_path, "w") as fh:
                    json.dump(desc, fh)
            self.batch_params = self.batch_mult.validate_batch_params(
                self.multiplicity.params_from_descriptor(desc), self.w.batch_k)
            q, s = desc["q"], desc["s"]
            self.points = [tuple(t // q ** (s - 1 - a) % q for a in range(s))
                           for t in range(q ** s)]
            self.width = comb(desc["m"] - 1 + s, s)
            self.targets = q ** s
        else:
            self.array_params = self.array_code.params_from_descriptor(desc)
            self.slopes = desc["S"]
            self.targets = self.w.profile["n"]

    def setup_control(self):
        """Build the negative-control code."""
        rc, _ = self._cli(["build", *self.w.control, "-o", self.control_path])
        if rc != 0:
            self.errors.append(f"control build: exit {rc}")

    # -- one round -----------------------------------------------------------

    def run_round(self, r):
        rng = random.Random(f"{self.w.name}/{self.seed}/{r}")
        self.clock.flush()
        self._round_s = 0.0
        self._build()
        codewords = self._encodes(rng)
        self._recovers(rng, codewords)
        self._batches(rng, codewords)
        self._roundtrip(rng)
        self._certify_pir()
        self._certify_batch(rng)
        self._control()
        if self.w.name == "mult-gf8-bits":
            self._linearity_gap()
        self.round_program_s.append(self._round_s)

    def _build(self):
        rc, out = self._cli(["build", *self.w.build, "-o", self.desc_path])
        problems = self.check_profile(self._json(out)) if rc == 0 else [f"exit {rc}"]
        self._op(not problems, "build: " + "; ".join(problems))

    def _message(self, rng):
        return [rng.randrange(self.w.alphabet) for _ in range(self.w.profile["n"])]

    def _encode(self, msg, j):
        path = self._path(f"cw-{j}.json")
        rc, _ = self._cli(["encode", self.desc_path, "--message",
                           ",".join(map(str, msg)), "-o", path], "encode")
        if rc != 0:
            return path, None
        with open(path) as fh:
            cw = (self._json(fh.read()) or {}).get("codeword")
        N, q = self.w.profile["N"], self.w.alphabet
        if not isinstance(cw, list) or len(cw) != N or any(
                not isinstance(v, int) or not 0 <= v < q for v in cw):
            return path, None
        return path, cw

    def _encode_ok(self, msg, cw):
        """Array codewords are recomputed in full; a multiplicity codeword
        is checked through linearity and the recover stream."""
        if cw is None:
            return False
        if self.w.batch in ("greedy", "five"):
            p = self.array_params
            return cw == msg + array_parities(msg, p.rows, p.cols, self.slopes,
                                              p.global_parity)
        return True

    def _add(self, a, b):
        if self.w.alphabet == 11:
            return [(x + y) % 11 for x, y in zip(a, b)]
        return [x ^ y for x, y in zip(a, b)]

    def _encodes(self, rng):
        """Triples (a, b, a+b): the third codeword must be the field sum
        of the first two."""
        codewords = []
        for t in range(self.sizes.encodes // 3):
            a, b = self._message(rng), self._message(rng)
            triple = [(m, *self._encode(m, 3 * t + i))
                      for i, m in enumerate((a, b, self._add(a, b)))]
            (_, _, ca), (_, _, cb), (_, _, cc) = triple
            linear = None not in (ca, cb, cc) and cc == self._add(ca, cb)
            for msg, path, cw in triple:
                self._op(linear and self._encode_ok(msg, cw),
                         f"encode: codeword {path} fails its check")
                codewords.append((msg, path, cw))
        return codewords

    def _recovers(self, rng, codewords):
        k = self.w.profile["k"]
        for _ in range(self.sizes.recovers):
            msg, path, _ = codewords[rng.randrange(len(codewords))]
            i = rng.randrange(len(msg))
            rc, out = self._cli(["recover", self.desc_path, "--codeword", path,
                                 "--index", str(i)], "recover")
            got = (self._json(out) or {}).get("recovered") if rc == 0 else None
            self._op(got == [msg[i]] * k,
                     f"recover {i} of {path}: got {got}, want {[msg[i]] * k}")

    def _symbols(self, cw):
        """Point -> symbol map of a multiplicity codeword; bit codewords are
        read back to GF(8) elements from their first replica."""
        if self.w.batch == "mult-bits":
            cw = [cw[j] | cw[j + 1] << 1 | cw[j + 2] << 2
                  for j in range(0, len(cw) // 2, 3)]
        w = self.width
        return {pt: tuple(cw[t * w:(t + 1) * w]) for t, pt in enumerate(self.points)}

    def _batches(self, rng, codewords):
        k = self.w.batch_k
        mult = self.w.batch.startswith("mult")
        # a codeword that failed its encode check is None; requests on it fail
        views = [self._symbols(cw) if mult and cw else cw for _, _, cw in codewords]
        if self.w.batch == "five":
            planner = self.array_code.plan_five_batch
        else:
            planner = self.array_code.plan_array_batch
        for _ in range(self.sizes.batches):
            j = rng.randrange(len(codewords))
            request = uniform_multiset(rng, self.targets, k)
            view = views[j]
            try:
                if mult:
                    pts = [self.points[t] for t in request]
                    t0 = self.clock.now()
                    plan = self.batch_mult.plan_batch(self.batch_params, pts)
                    got = self.batch_mult.recover_batch(view, plan)
                    t1 = self.clock.now()
                    want = [view[pt] for pt in pts]
                else:
                    cols = self.array_params.cols
                    cells = [divmod(t, cols) for t in request]
                    t0 = self.clock.now()
                    sets = planner(self.array_params, cells)
                    got = [self.array_code.recover_bit(view, s) for s in sets]
                    t1 = self.clock.now()
                    want = [codewords[j][0][t] for t in request]
            except Exception as exc:  # a planner failure is a failed operation
                self._op(False, f"batch {request}: {type(exc).__name__}: {exc}")
                continue
            self._timed("batch", t0, t1)
            self._op(got == want, f"batch {request}: got {got}, want {want}")

    def _roundtrip(self, rng):
        seed, T = rng.randrange(1 << 30), self.sizes.trials
        rc, out = self._cli(["roundtrip", self.desc_path, "--seed", str(seed),
                             "--trials", str(T)], "roundtrip")
        n, k = self.w.profile["n"], self.w.profile["k"]
        want = {"seed": seed, "trials": T, "checks": T * n * (k + 1),
                "mismatches": 0}
        got = self._json(out) if rc == 0 else None
        self._op(got == want, f"roundtrip: got {got}, want {want}")
        self.work["roundtrip"] = want["checks"]

    def _certify_pir(self):
        rc, out = self._cli(["certify", self.desc_path, "--mode", "pir",
                             "--jobs", "1"], "certify_pir")
        n, k = self.w.profile["n"], self.w.profile["k"]
        got = self._json(out) if rc == 0 else None
        want = {"total": n, "passed": n, "failed": 0, "seed": None}
        self._op(got == want, f"certify pir: got {got}, want {want}")
        self.work["certify_pir"] = n * k

    def _certify_batch(self, rng):
        seed, L, k = rng.randrange(1 << 30), self.sizes.limit, self.w.batch_k
        rc, out = self._cli(["certify", self.batch_desc_path, "--mode", "batch",
                             "--k", str(k), "--limit", str(L),
                             "--seed", str(seed), "--jobs", "1"], "certify_batch")
        requests = comb(self.targets + k - 1, k)
        total = min(L, requests)
        got = self._json(out) if rc == 0 else None
        want = {"total": total, "passed": total, "failed": 0,
                "seed": seed if requests > L else None}
        self._op(got == want, f"certify batch: got {got}, want {want}")
        self.work["certify_batch"] = total

    def _control(self):
        rc, _ = self._cli(["certify", self.control_path, "--mode", "pir",
                                "--k", str(self.w.control_k + 1), "--jobs", "1"])
        self._op(rc == 1, f"negative control: certify --k {self.w.control_k + 1} "
                          f"exited {rc}, want 1")

    def _linearity_gap(self):
        """`extract_generator` must refuse an encoder that is additive but not
        GF(8)-linear: the systematic [3,2] code (a, b) -> (a, b, (a+b)^2).
        It does not today (the linearity gap), so this operation fails on
        every run until that is mended."""
        from pirbatch.gf import Field

        def frobenius(msg):
            a, b = msg
            return [a, b, gf8_square(a ^ b)]

        try:
            self.verify.extract_generator(Field(2, 3), frobenius, 2, 3)
            refused = False
        except ValueError:
            refused = True
        self._op(refused, "linearity gap: a Frobenius encoder was certified",
                 known_fault=True)
