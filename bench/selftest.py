"""Self-test of the benchmark's own answers.

    python3 bench/selftest.py

Checks that the reference checker accepts kneser2 and q4aug (the package's
constructions and the benchmark's own generators) and rejects every mutation
kind, that each generator matches its closed-form (n, t, r), and that one pass
of every workload under two seeds gives identical relabeling-invariant answers
with no failures.  Exits 1 if anything does not hold.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import reference as ref
import run
from workloads import WORKLOADS

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def checker_tests(pkg):
    c = pkg.constructions
    for name, dec in (("kneser2", c.kneser_rs(2)), ("q4aug", c.hypercube_rs(4, augmented=True))):
        records = [(u, v, m) for m, mt in enumerate(dec.matchings) for u, v in mt]
        reason = ref.check(dec.graph.n, dec.t, dec.r, records, dec.graph.edges)
        expect(reason is None, f"checker accepts the package's {name} ({reason})")
    for name, build in ref.FAMILIES.items():
        n, t, r, records = build()
        expect((n, t, r) == ref.SHAPE[name], f"{name} generator has the closed-form shape {ref.SHAPE[name]}")
        expect(ref.check(n, t, r, records) is None, f"checker accepts the generated {name}")
    rng = random.Random(0)
    for name in ("kneser2", "q4aug"):
        n, t, r, records = ref.FAMILIES[name]()
        for kind, allowed in ref.CHECKER_REJECTS.items():
            for _ in range(5):
                mutant, _ = ref.mutate(kind, n, t, r, records, rng)
                reason = ref.check(n, t, r, mutant)
                expect(reason is not None and reason.split(":")[0] in allowed,
                       f"checker rejects {name} {kind} ({reason})")


def answers(pkg, workload, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[workload](pkg, seed, workdir)
    out = {}
    for name in wl.order:
        res = wl.run(name)
        expect(not [f for f in res.failures if not f[2]], f"{workload} {name} seed {seed}: "
               f"{res.failures or 'answers match the reference'}")
        out[name] = res.answer
    return out


def main():
    pkg = run.import_package()
    checker_tests(pkg)
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    try:
        for workload in run.WORKLOAD_NAMES:
            first = answers(pkg, workload, 1, os.path.join(workdir, f"{workload}-1"))
            second = answers(pkg, workload, 2, os.path.join(workdir, f"{workload}-2"))
            for name in first:
                expect(first[name] == second[name],
                       f"{workload} {name}: seeds 1 and 2 agree on {first[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
