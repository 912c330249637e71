"""The contracts of the `rsg` command, one row per invocation, and the runner that checks them.

The runner runs the rows in order, each as its own process, in one directory,
so a row's `-o` output is a later row's input.  A row fails on the wrong exit,
a missing fragment, a traceback, or a broken bound.  A `defect` row is reported
and does not fail the run while it breaks its contract; once it keeps it, it
fails, so the change that mends the defect drops the mark (README, "Tests").
Stdlib only.

    python tests/contracts.py --exe rsg     # the installed entry point
"""

import argparse
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Row(NamedTuple):
    name: str
    argv: str                  # split on whitespace
    exit: object = 0           # an exit code, or a tuple of the allowed ones
    out: str = ""              # a fragment stdout must hold
    err: str = ""              # a fragment stderr must hold
    files: dict = None         # name -> str or bytes, written before the row runs
    seconds: float = None      # the child's timeout
    max_mb: int = None         # the child's address space (RLIMIT_AS)
    defect: bool = False


SPARSE = "rsg 60000 30000 1\n" + "".join(f"{2 * i} {2 * i + 1} {i}\n" for i in range(30000))
LATIN1 = "error: latin1.rsg: line 3: byte 0xe9 is not valid UTF-8"

ROWS = [
    # constructions and their verification
    Row("kneser", "construct kneser --k 2 -o petersen.rsg"),
    Row("verify kneser", "verify petersen.rsg", out="verdict: pass"),
    Row("double cover", "construct double-cover --input petersen.rsg -o dc.rsg"),
    Row("verify double cover", "verify dc.rsg", out="verdict: pass"),
    Row("disjoint union", "construct disjoint-union --input petersen.rsg --copies 3 -o u3.rsg"),
    Row("verify disjoint union", "verify u3.rsg", out="verdict: pass"),
    Row("hypercube", "construct hypercube --k 4 -o q4.rsg"),
    Row("hypercube-augmented", "construct hypercube-augmented --k 4 -o q4aug.rsg"),
    Row("cayley-ap 2001", "construct cayley-ap --modulus 2001 -o c2001.rsg", seconds=10),
    Row("cayley-ap behrend below 8",
        "construct cayley-ap --modulus 41 --limit 5 --apset-method behrend",
        err="note: behrend degenerate below 8"),
    Row("verify cayley-ap 2001", "verify --json c2001.rsg", out='"passed": true', seconds=10),
    Row("verify json", "verify --json k3.rsg", out='"max_edge_degree_sum": 4,',
        files={"k3.rsg": "rsg 3 3 1\n0 1 0\n1 2 1\n0 2 2\n"}),
    Row("verify sparse", "verify sparse.rsg", files={"sparse.rsg": SPARSE}, seconds=10),
    Row("verify size mismatch", "verify bad.rsg", 1, out="size-mismatch",
        files={"bad.rsg": "rsg 3 3 2\n0 1 0\n1 2 1\n0 2 2\n"}),
    Row("verify tall header", "verify tall.rsg", files={"tall.rsg": "rsg 2 200000 0\n"},
        seconds=2, max_mb=100),
    Row("verify huge header", "verify huge-header.rsg", (0, 65),
        files={"huge-header.rsg": "rsg 2000000 0 0\n"}),
    # a header's t costs nothing: only the non-empty matchings are stored
    Row("verify taller header", "verify taller.rsg", files={"taller.rsg": "rsg 2 20000000 0\n"},
        seconds=2, max_mb=100),
    Row("double cover taller header", "construct double-cover --input taller.rsg",
        out="rsg 4 20000000 0\n", seconds=2, max_mb=100),
    # at r >= 1 the empty matchings are one size-mismatch, naming their count; a MemoryError
    # inside the error handler also exits 1, so the verdict line is required
    Row("verify tall header r=1", "verify tall1.rsg", 1, out="verdict: fail",
        files={"tall1.rsg": "rsg 2 2000000 1\n"}, seconds=2, max_mb=100),
    Row("verify taller header r=1", "verify taller1.rsg", 1, out="verdict: fail",
        files={"taller1.rsg": "rsg 2 2000000000 1\n"}, seconds=2, max_mb=100),
    Row("verify json taller header r=1", "verify --json taller1.rsg", 1,
        out='"matchings": [\n        0\n      ],', seconds=2, max_mb=100),
    Row("audit taller header r=1", "audit sparse-tall.rsg", 1, err="(size-mismatch)",
        files={"sparse-tall.rsg": "rsg 4 2000000000 1\n0 1 5\n2 3 7\n"}, seconds=2, max_mb=100),
    Row("double cover taller header r=1", "construct double-cover --input sparse-tall.rsg", 64,
        err="error: double_cover requires a verified decomposition (size-mismatch)",
        seconds=2, max_mb=100),
    # audit
    Row("audit kneser", "audit petersen.rsg", out="verdict: pass"),
    Row("audit hypercube", "audit q4.rsg", out="cauchy-schwarz: pass"),
    Row("audit hypercube-augmented", "audit q4aug.rsg"),
    Row("audit json", "audit --json q2.rsg", out='"E1": 0,\n  "E0": 4,',
        files={"q2.rsg": "rsg 4 4 1\n0 1 0\n0 2 1\n2 3 2\n1 3 3\n"}),
    Row("audit sparse", "audit sparse.rsg", seconds=10),
    # a large bipartite input, audited as it is: no edge joins two equal BFS distances
    Row("audit cayley-ap 2001", "audit c2001.rsg", out="n=4002 t=2001 r=64\n", seconds=10),
    Row("audit unverified", "audit r1.rsg", 1, files={"r1.rsg": "rsg 4 1 1\n0 1 0\n2 3 0\n"},
        err="error: expansion_audit requires a verified decomposition (size-mismatch)"),
    Row("audit header-only", "audit huge.rsg", files={"huge.rsg": "rsg 200000 0 0\n"}),
    Row("audit wide header-only", "audit wide.rsg", files={"wide.rsg": "rsg 2000000000 0 0\n"},
        seconds=10),
    # bound
    Row("bound max r", "bound --n 10 --t 5", out="max r = 3"),
    Row("bound max r json", "bound --n 10 --t 5 --json", out='{"n": 10, "t": 5, "max_r": "3"}'),
    Row("bound fractional", "bound --n 6 --t 4", out="9/5"),
    Row("bound tight json", "bound --n 10 --r 3 --t 5 --json", out='"tight": true'),
    Row("bound infeasible", "bound --n 10 --r 3 --t 6", 1, out="INFEASIBLE"),
    Row("bound huge t", "bound --n 4 --r 1 --t 1000000000", 1, seconds=10),
    # search
    Row("search json", "search --n 3 --r 1 --t 3 --json", out='"certificate": "rsg 3 3 1'),
    Row("search UNSAT", "search --n 6 --r 2 --t 4", 1),
    Row("search zero node budget", "search --n 12 --r 3 --t 7 --max-nodes 0", 2,
        out="note: node budget exhausted (1 nodes)"),
    Row("search budget 20000", "search --n 11 --r 3 --t 6 --max-nodes 20000", 2,
        out="INDETERMINATE"),
    Row("search deeper than recursion", "search --n 4000 --r 1 --t 1200 -o deep.rsg",
        out="verdict: SAT  nodes=1199 "),
    Row("verify deep", "verify deep.rsg"),
    Row("search r=0", "search --n 8 --r 0 --t 1000000 -o zero.rsg", seconds=2, max_mb=100),
    Row("verify r=0", "verify zero.rsg", seconds=2, max_mb=100),
    Row("search huge t", "search --n 8 --r 2 --t 1000000000 --max-nodes 10", 2),
    Row("search r=0 huge t", "search --n 10 --r 0 --t 1000000000", out="rsg 10 1000000000 0\n",
        max_mb=100),
    Row("search huge n", "search --n 100000000 --r 1 --t 1000 --max-nodes 10", 2, seconds=10),
    Row("search huge n SAT", "search --n 100000000 --r 1 --t 1 -o wide.rsg", seconds=10),
    Row("verify huge n", "verify wide.rsg", seconds=10),
    Row("search large r", "search --n 80000 --r 20000 --t 2 --max-nodes 10", 2, max_mb=64),
    Row("search over the size budget",
        "search --n 1000000000000 --r 100000000000 --t 1 --max-nodes 1", 64, max_mb=100,
        err="error: 200000000000 vertex labels would exceed the size budget 2000000\n"),
    # usage errors
    Row("no command", "", 64),
    Row("unknown command", "frobnicate", 64),
    Row("verify no file", "verify", 64),
    Row("verify missing file", "verify absent.rsg", 64, err="error: cannot read absent.rsg: "),
    Row("construct no k", "construct kneser", 64),
    Row("construct bad k", "construct hypercube-augmented --k 3", 64),
    Row("construct foreign flag", "construct kneser --k 2 --copies 3", 64,
        err="rsg construct kneser: error: unrecognized arguments: --copies 3\n"),
    Row("construct family usage line", "construct kneser --k 1 --copies 5", 64,
        err="usage: rsg construct kneser [-h] [-o OUTPUT] --k K\n"
            "rsg construct kneser: error: unrecognized arguments: --copies 5\n"),
    Row("construct unwritable", "construct kneser --k 2 -o /nonexistent/dir/x.rsg", 64,
        err="error: cannot write /nonexistent/dir/x.rsg: "),
    Row("construct union over budget",
        "construct disjoint-union --input petersen.rsg --copies 1000000000", 64,
        err="error: 1000000000 disjoint copies: n + |E| would exceed the size budget 2000000\n"),
    Row("cayley-ap over budget", "construct cayley-ap --modulus 30000001", 64,
        err="would exceed the size budget", seconds=10),
    Row("cayley-ap limit above a third", "construct cayley-ap --modulus 7 --limit 1000000000", 64,
        err="error: --limit 1000000000 exceeds (N-1)/3 = 2\n", seconds=10),
    Row("bound 2r > n", "bound --n 10 --r 6 --t 5", 64),
    Row("bound impossible", "bound --n 5 --r 3 --t 2", 64),
    Row("bound negative r", "bound --n 10 --t 5 --r -1", 64),
    Row("bound no t", "bound --n 10", 64),
    Row("bound zero n", "bound --n 0 --r 0 --t 1", 64, err="n and t must be >= 1"),
    Row("search negative n", "search --n -1 --r 0 --t 1", 64, err="must be non-negative"),
    Row("cayley-ap zero limit", "construct cayley-ap --modulus 41 --limit 0", 64,
        err="limit must be >= 1"),
    Row("search negative nodes", "search --n 12 --r 3 --t 7 --max-nodes -1", 64, err="non-negative"),
    Row("search negative timeout", "search --n 12 --r 3 --t 7 --timeout -1", 64, err="non-negative"),
    Row("search unwritable", "search --n 6 --r 2 --t 3 -o missing/cert.rsg", 64,
        err="error: cannot write missing/cert.rsg: "),
    # parse errors
    Row("verify duplicate edge", "verify dup.rsg", 65, err="error: dup.rsg: line 3: ",
        files={"dup.rsg": "rsg 3 3 1\n0 1 0\n0 1 1\n"}),
    Row("verify not UTF-8", "verify latin1.rsg", 65, err=LATIN1,
        files={"latin1.rsg": b"rsg 3 3 1\n0 1 0\n1 2 1 \xe9\n"}),
    Row("audit not UTF-8", "audit latin1.rsg", 65, err=LATIN1),
    # a form feed is a space inside a record, not a line end
    Row("verify form feed", "verify ff.rsg", 65,
        err="error: ff.rsg: line 4: duplicate edge (0, 1), first seen on line 2",
        files={"ff.rsg": "rsg 4 1 1\n0 1 0\x0c\n2 3 0\n0 1 0\n"}),
    Row("verify not UTF-8 after a form feed", "verify ff-latin1.rsg", 65,
        err="error: ff-latin1.rsg: line 3: byte 0xe9 is not valid UTF-8",
        files={"ff-latin1.rsg": b"rsg 3 3 1\n0 1 0\x0c\n1 2 1 \xe9\n"}),
    Row("verify non-integer header", "verify word-header.rsg", 65,
        err="line 1: non-integer header fields", files={"word-header.rsg": "rsg x 3 1\n"}),
    Row("verify negative header", "verify negative-header.rsg", 65,
        err="header fields must be non-negative", files={"negative-header.rsg": "rsg 3 -1 1\n"}),
    Row("verify short record", "verify short-record.rsg", 65, err="line 2: malformed record",
        files={"short-record.rsg": "rsg 3 1 1\n0 1\n"}),
    Row("verify non-integer record", "verify word-record.rsg", 65,
        err="line 2: non-integer record fields", files={"word-record.rsg": "rsg 3 1 1\n0 1 x\n"}),
]


def check(row, exe, cwd):
    """What `row` broke when run as `exe` + its argv in `cwd`, or None if it kept its contract."""
    for name, content in (row.files or {}).items():
        with open(os.path.join(cwd, name), "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
    cap = row.max_mb and (lambda: resource.setrlimit(resource.RLIMIT_AS, (row.max_mb << 20,) * 2))
    try:
        proc = subprocess.run(exe + row.argv.split(), cwd=cwd, capture_output=True, text=True,
                              errors="replace", timeout=row.seconds, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        return f"ran over its {row.seconds} s bound"
    exits = row.exit if isinstance(row.exit, tuple) else (row.exit,)
    if proc.returncode not in exits:
        last = proc.stderr.strip().splitlines()[-1:]
        return f"exit {proc.returncode}, expected {row.exit}" + (f" ({last[0]})" if last else "")
    if "Traceback (most recent call last)" in proc.stderr:
        return "traceback on stderr"
    if row.out not in proc.stdout:
        return f"stdout lacks {row.out!r}"
    if row.err not in proc.stderr:
        return f"stderr lacks {row.err!r}: {proc.stderr!r}"
    return None


def run(rows, exe, cwd):
    """Run `rows` in order in `cwd`: the lines of the rows that fail, and of the defect rows."""
    failures, defects = [], []
    for row in rows:
        problem = check(row, exe, cwd)
        if row.defect and problem:
            defects.append(f"defect {row.name}: `{row.argv}`: {problem}")
        elif row.defect:
            failures.append(f"{row.name}: `{row.argv}`: keeps its contract, drop its defect mark")
        elif problem:
            failures.append(f"{row.name}: `{row.argv}`: {problem}")
    return failures, defects


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--exe", default="rsg", help="the command that runs rsg (default: rsg)")
    exe = shlex.split(parser.parse_args(argv).exe)
    with tempfile.TemporaryDirectory() as cwd:
        failures, defects = run(ROWS, exe, cwd)
    print("\n".join(defects + failures + [f"{len(ROWS)} rows, {len(failures)} failed"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
