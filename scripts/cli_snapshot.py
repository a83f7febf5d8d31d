"""Print the exit code and stdout of a fixed set of pirbatch commands, so
that two checkouts can be compared byte for byte.

Usage, from the root of each checkout, into an empty working directory,
which is made if it does not exist:

    PYTHONPATH=src python3 scripts/cli_snapshot.py WORKDIR > snapshot.txt

and then ``diff`` the two snapshots.  CI diffs the installed package's
output against the committed ``scripts/cli_snapshot.txt``.  A change
that alters the command line's output on purpose regenerates that file,
from the root of its checkout,

    PYTHONPATH=src python3 scripts/cli_snapshot.py WORKDIR > scripts/cli_snapshot.txt

and says which lines changed and why.

The codes are the four benchmark descriptors, an expanded GF(4) code,
a replicated array code, an expanded, replicated GF(4) code, whose
codeword is also read with one bit flipped inside a recovering set,
and multiplicity codes over GF(8) and GF(9), whose certification
solves spans over an extension field.
The codeword of the GF(11) benchmark code is also read with one symbol
changed inside a recovering set, through every set and through that set
alone, so that both reads fail their checks over a prime field.
Encoded codewords are printed too, and every code is certified in PIR
mode at one above its k, with the failure report printed as CSV, so
that the wording of every failure detail is compared too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from pirbatch import cli, codes

CODES = {
    "mult-gf11": ["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "11"],
    "mult-gf8-bits": ["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "8",
                      "--expand-binary", "--replicate", "2"],
    "array-rk": ["array", "--r", "3", "--k", "3"],
    "array-five": ["array", "--five-batch", "--p", "5"],
    "gf4-bits": ["multiplicity", "--m", "2", "--d", "2", "--s", "2", "--q", "4",
                 "--expand-binary"],
    "array-rep": ["array", "--r", "5", "--p", "5", "--slopes", "0,1,2",
                  "--replicate", "2"],
    "gf4-bits-rep": ["multiplicity", "--m", "1", "--d", "1", "--s", "1", "--q", "4",
                     "--expand-binary", "--replicate", "2"],
    "gf8": ["multiplicity", "--m", "2", "--d", "4", "--s", "2", "--q", "8"],
    "gf9": ["multiplicity", "--m", "1", "--d", "2", "--s", "2", "--q", "9"],
}

# codes that also get a batch certify at k = 2, sampled above 100 requests
BATCH_K2 = ("mult-gf11", "gf8", "gf9")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    print("$ pirbatch " + " ".join(argv[:1] + [os.path.basename(a) for a in argv[1:]]))
    print(f"exit {rc}")
    sys.stdout.write(out.getvalue())


def main(workdir):
    os.makedirs(workdir, exist_ok=True)
    for name, build in CODES.items():
        desc = os.path.join(workdir, f"{name}.json")
        cw = os.path.join(workdir, f"{name}-cw.json")
        run(["build", *build, "-o", desc])
        run(["encode", desc, "--random", "--seed", "3", "-o", cw])
        with open(cw) as fh:
            payload = json.load(fh)
        print(json.dumps(payload, sort_keys=True))
        n = len(payload["message"])
        for index in sorted({0, 1, n // 2, n - 1}):
            run(["recover", desc, "--codeword", cw, "--index", str(index)])
        run(["recover", desc, "--codeword", cw, "--index", "0", "--set", "1"])
        run(["roundtrip", desc, "--seed", "1", "--trials", "2"])
        run(["certify", desc, "--mode", "pir"])
        run(["certify", desc, "--mode", "batch", "--limit", "300", "--seed", "4"])
        if name in BATCH_K2:
            run(["certify", desc, "--mode", "batch", "--k", "2", "--limit", "100"])
        # a false claim, k + 1 disjoint sets per symbol: its failure details
        with open(desc) as fh:
            k = codes.build_runtime(json.load(fh)).k
        csv = os.path.join(workdir, f"{name}-fail.csv")
        run(["certify", desc, "--mode", "pir", "--k", str(k + 1), "--report-csv", csv])
        with open(csv) as fh:
            sys.stdout.write(fh.read())
        if name == "gf4-bits-rep":
            # bit 0 of the symbol at point 1 in the first replica: the sets
            # of the symbol at point 0 read it, those of point 1 do not
            payload["codeword"][2] ^= 1
            with open(cw, "w") as fh:
                json.dump(payload, fh)
            for index in range(n):
                run(["recover", desc, "--codeword", cw, "--index", str(index)])
        if name == "mult-gf11":
            # a position that set 1 of symbol 0 reads with a nonzero column
            with open(desc) as fh:
                reader = codes.build_runtime(json.load(fh)).reader(0, 1)
            j = next(j for j, col in zip(reader.positions, reader.operator.matrix.T)
                     if col.any())
            payload["codeword"][j] = (payload["codeword"][j] + 1) % 11
            with open(cw, "w") as fh:
                json.dump(payload, fh)
            run(["recover", desc, "--codeword", cw, "--index", "0"])
            run(["recover", desc, "--codeword", cw, "--index", "0", "--set", "1"])


if __name__ == "__main__":
    main(sys.argv[1])
