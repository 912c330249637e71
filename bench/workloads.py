"""The four workloads: certify, audit, search and reject.

Each workload builds its inputs from the seed in `__init__` (the set-up the
benchmark times) and then runs one instance at a time through `run`, which
returns the program time of every operation, the failures found by checking
each answer against `reference`, and a relabeling-invariant answer.  The first
pass over an instance runs the full reference checks; later passes must give
the same output again.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from time import perf_counter

import reference as ref
from probe import REF_PROBE_S

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
NO_BUDGET_SECONDS = 3600.0       # far above every node budget below

class Result:
    """One instance in one pass."""

    def __init__(self, probe=None):
        self.probe = probe
        self.times = {}          # op -> wall seconds spent in the program
        self.ref_times = {}      # op -> the same in reference seconds (see probe.SpeedProbe)
        self.failures = []       # (op, reason, known_defect)
        self.decided = True
        self.answer = {}         # relabeling-invariant verdicts
        self.computed = {}       # work counts derived from the instance, not measured
        self.fingerprint = None  # full output, compared across passes
        self.traceback = False   # an rsg child printed a traceback
        self.exit_mismatch = False
        self.last_op = "setup"
        self.wall = 0.0          # including the benchmark's own checks

    def call(self, op, fn, *args, **kwargs):
        self.last_op = op
        if self.probe:
            self.probe.sample()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(op, perf_counter() - start, self.probe.speed(start) if self.probe else 1.0)

    def record(self, op, elapsed, speed):
        self.times[op] = self.times.get(op, 0.0) + elapsed
        self.ref_times[op] = self.ref_times.get(op, 0.0) + elapsed * speed

    def expect(self, op, ok, reason, known_defect=False):
        if not ok:
            self.failures.append((op, reason, known_defect))

    @property
    def seconds(self):
        return sum(self.times.values())

    @property
    def ref_seconds(self):
        return sum(self.ref_times.values())

    @property
    def failed_ops(self):
        return {op for op, _, _ in self.failures}


def records_of(dec):
    return [(u, v, m) for m, matching in enumerate(dec.matchings) for u, v in matching]


def sum_dv2(n, records):
    return sum(d * d for d in ref.matching_degrees(n, records))


class Workload:
    name = ""
    instances = ()

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.order = list(self.instances)
        self.rng.shuffle(self.order)
        self._first = {}
        self.probe = None

    def run(self, instance):
        began = perf_counter()
        res = Result(self.probe)
        try:
            self.run_instance(instance, res)
        except Exception as exc:       # a raised op is a failed op, the run goes on
            res.expect(res.last_op, False, f"raised {type(exc).__name__}: {exc}")
        first = self._first.setdefault(instance, res.fingerprint)
        res.expect(res.last_op, res.fingerprint == first, "output differs from the first pass")
        res.fingerprint = None         # only the first is kept, so memory does not grow with samples
        res.wall = perf_counter() - began
        return res


class Certify(Workload):
    """construct -> emit -> parse(relabeled) -> verify -> distance_certificate."""

    name = "certify"
    instances = ("cayley301", "cayley1001", "kneser6", "q12aug")

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.perm = {name: ref.permutation(ref.SHAPE[name][0], self.rng) for name in self.instances}

    def construct(self, name, res):
        c = self.pkg.constructions
        if name.startswith("cayley"):
            modulus = int(name[len("cayley"):])
            s = res.call("construct", c.ap_free_set, "greedy-base3", (modulus - 1) // 3)
            return res.call("construct", c.cayley_rs, modulus, s)
        if name == "kneser6":
            return res.call("construct", c.kneser_rs, 6)
        return res.call("construct", c.hypercube_rs, 12, augmented=True)

    def run_instance(self, name, res):
        p = self.pkg
        dec = self.construct(name, res)
        text = res.call("emit", p.rsg_format.emit_rsg, dec)
        n, t, r, records = ref.read_records(text)
        text = ref.rsg_text(n, t, r, ref.relabel(self.perm[name], records))
        parsed = res.call("parse", p.rsg_format.parse_rsg, text)
        report = res.call("verify", p.core.verify_decomposition, parsed)
        cert = res.call("certificate", p.bounds.distance_certificate, parsed)
        res.fingerprint = (text, report.to_dict(), cert.to_dict())
        shape = (parsed.graph.n, parsed.t, parsed.r)
        res.answer = {"shape": shape, "verify": report.passed,
                      "max_pair_intersection": report.max_pair_intersection,
                      "min_distance": cert.min_pairwise_distance,
                      "pair_distance_sum": cert.pair_distance_sum}
        n, t, r = ref.SHAPE[name]
        recs = records_of(parsed)
        res.computed = {"pair_checks_per_verify": t * (t - 1) // 2, "sum_dv2": sum_dv2(n, recs)}
        if name in self._first:
            return
        res.expect("construct", (dec.graph.n, dec.t, dec.r) == (n, t, r), f"shape {shape}")
        reason = ref.check(n, t, r, records_of(dec), dec.graph.edges)
        res.expect("construct", reason is None, f"reference check: {reason}")
        res.expect("parse", shape == (n, t, r), f"shape {shape}")
        reason = ref.check(n, t, r, recs, parsed.graph.edges)
        res.expect("parse", reason is None, f"reference check: {reason}")
        deg = ref.matching_degrees(n, recs)
        res.expect("verify", report.passed, "valid decomposition rejected")
        res.expect("verify", report.max_edge_degree_sum == max(deg[u] + deg[v] for u, v, _ in recs),
                   "max edge degree sum")
        res.expect("certificate", cert.passed, "certificate failed")
        res.expect("certificate", cert.pair_distance_sum == ref.plotkin_column_sum(n, t, recs),
                   "pair distance sum differs from the Plotkin column count")
        res.expect("certificate", cert.double_count_lhs == 2 * r * math.comb(t + 1, 2), "double count")
        res.expect("certificate", cert.min_pairwise_distance >= 2 * r, "minimum distance below 2r")


class Audit(Workload):
    """parse -> expansion_audit on relabeled hypercube and Kneser inputs."""

    name = "audit"
    instances = ("q8", "q8aug", "kneser5", "q10aug")

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.inputs = {}
        for name in self.instances:
            n, t, r, records = ref.FAMILIES[name]()
            records = ref.relabel(ref.permutation(n, self.rng), records)
            self.inputs[name] = ref.rsg_text(n, t, r, records)

    def run_instance(self, name, res):
        p = self.pkg
        dec = res.call("parse", p.rsg_format.parse_rsg, self.inputs[name])
        report = res.call("audit", p.bounds.expansion_audit, dec)
        res.fingerprint = report.to_dict()
        got = (report.doubled, report.e1, report.e0, report.f_vertex_count)
        res.answer = {"audit": got, "passed": report.passed,
                      "assertions": [(a, status) for a, status, _ in report.assertions]}
        n, t, r = ref.SHAPE[name]
        res.computed = {"pair_checks_per_verify": t * (t - 1) // 2,
                        "claims": report.f_vertex_count ** 2}
        if name in self._first:
            return
        res.expect("parse", (dec.graph.n, dec.t, dec.r) == (n, t, r), "shape")
        reason = ref.check(n, t, r, records_of(dec), dec.graph.edges)
        res.expect("parse", reason is None, f"reference check: {reason}")
        res.expect("audit", got == ref.AUDIT[name], f"(doubled, E1, E0, |F|) = {got}")
        res.expect("audit", report.passed, "audit failed on a valid decomposition")
        res.expect("audit", report.n == report.f_vertex_count == sum(row.size for row in report.layers),
                   "F is not the whole audited graph or is not connected")


class Search(Workload):
    """exists_rs on SAT, UNSAT and budget-limited triples; max_t_on_graph on relabeled kneser3."""

    name = "search"
    instances = ("rs(8,2,8)", "rs(11,3,6)", "rs(12,3,7)", "rs(12,3,8)",
                 "kneser3-cover-r10", "kneser3-pack-r8")
    node_budget = {"rs(12,3,8)": 2_000_000, "kneser3-cover-r10": 2_000_000,
                   "kneser3-pack-r8": 2_000_000}

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        n, _, _, records = ref.FAMILIES["kneser3"]()
        self.k3_edges = {(u, v) for u, v, _ in ref.relabel(ref.permutation(n, self.rng), records)}
        self.k3 = pkg.core.Graph.from_edges(n, self.k3_edges)

    def run_instance(self, name, res):
        s = self.pkg.search
        budget = s.Budget(max_nodes=self.node_budget.get(name, 10_000_000),
                          max_seconds=NO_BUDGET_SECONDS)
        if name.startswith("rs("):
            n, r, t = (int(x) for x in name[3:-1].split(","))
            out = res.call("search", s.exists_rs, n, r, t, budget=budget)
        else:
            n, r, t = self.k3.n, int(name.rsplit("r", 1)[1]), None
            out = res.call("search", s.max_t_on_graph, self.k3, r, budget=budget,
                           exact_cover="cover" in name)
        res.fingerprint = (out.verdict, out.nodes_explored, out.t)
        res.decided = out.verdict in (s.SAT, s.UNSAT)
        res.answer = {"verdict": out.verdict, "t": out.t}
        if name.startswith("rs("):
            res.answer["nodes"] = out.nodes_explored
        res.computed = {"nodes": out.nodes_explored}
        if name in self._first:
            return
        cert = out.certificate
        if name.startswith("rs("):
            expected = ref.SEARCH[(n, r, t)]
            res.expect("search", expected is None or out.verdict == expected,
                       f"verdict {out.verdict}, expected {expected}")
        elif "cover" in name:
            res.expect("search", out.verdict == s.SAT and out.t == 7, f"{out.verdict} t={out.t}")
            res.expect("search", cert is not None and cert.graph.edges == self.k3_edges,
                       "cover certificate does not cover the graph")
        else:
            res.expect("search", out.verdict in (s.SAT, s.INDETERMINATE) and 7 <= out.t <= 70 // r,
                       f"{out.verdict} t={out.t}")
            res.expect("search", cert is not None and cert.graph.edges <= self.k3_edges,
                       "packing uses edges outside the graph")
        if cert is not None and out.verdict != s.UNSAT:
            reason = ref.check(cert.graph.n, cert.t, r, records_of(cert), cert.graph.edges)
            res.expect("search", reason is None, f"certificate: {reason}")


class Reject(Workload):
    """Real `rsg` processes on inputs that must be refused or cut short."""

    name = "reject"
    bases = ("cayley1001", "q12aug", "kneser6")

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.traced = False            # set per pass by the traced run
        self.src = os.path.join(os.path.dirname(BENCH_DIR), "src")
        self.ops = {}
        for base in self.bases:
            n, t, r, records = ref.FAMILIES[base]()
            records = ref.relabel(ref.permutation(n, self.rng), records)
            for kind in ref.CHECKER_REJECTS:
                recs, expected = ref.mutate(kind, n, t, r, records, self.rng)
                path = self.write(f"{base}-{kind}.rsg", ref.rsg_text(n, t, r, recs))
                self.ops[f"verify {base} {kind}"] = (["verify", "--json", path], expected, False)
        self.ops["audit kneser6 moved"] = (
            ["audit", os.path.join(workdir, "kneser6-moved.rsg")],
            {"exit": ref.EX_FAIL, "stderr": "requires a verified decomposition"}, False)
        self.ops["usage verify no file"] = (["verify"], {"exit": ref.EX_USAGE}, False)
        self.ops["usage verify missing file"] = (
            ["verify", os.path.join(workdir, "absent.rsg")], {"exit": ref.EX_USAGE}, False)
        self.ops["usage bound 2r > n"] = (["bound", "--n", "10", "--r", "6", "--t", "5"],
                                          {"exit": ref.EX_USAGE}, False)
        self.ops["usage construct no k"] = (["construct", "kneser"], {"exit": ref.EX_USAGE}, False)
        self.ops["bound n=10 t=5"] = (["bound", "--n", "10", "--t", "5"],
                                      {"exit": ref.EX_OK, "stdout": "max r = 3"}, False)
        self.ops["search budget 20000"] = (
            ["search", "--n", "11", "--r", "3", "--t", "6", "--max-nodes", "20000"],
            {"exit": ref.EX_INDETERMINATE, "stdout": "INDETERMINATE"}, False)
        # known defects, kept visible: each is expected to behave correctly
        self.ops["defect search max-nodes 0"] = (
            ["search", "--n", "12", "--r", "3", "--t", "7", "--max-nodes", "0"],
            {"exit": ref.EX_INDETERMINATE}, True)
        self.ops["defect search n=4000"] = (["search", "--n", "4000", "--r", "1", "--t", "1200"],
                                            {"exit": ref.EX_OK}, True)
        self.ops["defect huge header"] = (
            ["verify", self.write("huge-header.rsg", "rsg 2000000 0 0\n")],
            {"exit": (ref.EX_OK, ref.EX_PARSE)}, False)
        self.instances = tuple(self.ops)
        self.order = list(self.instances)
        self.rng.shuffle(self.order)
        self.child_dumps = []

    def write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def rsg(self, argv, res, op):
        """Run one `rsg` process the way the console script does, under probe.run_cli.

        The op's reference time uses the speed the probe measured in the child,
        which runs on the CPU doing the work, unlike the worker that waits.
        """
        kernel_path = os.path.join(self.workdir, "kernel.txt")
        spans_path = os.path.join(self.workdir, "spans.json") if self.traced else None
        boot = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import probe; "
                f"sys.exit(probe.run_cli({kernel_path!r}, {spans_path!r}))")
        env = {k: v for k, v in os.environ.items() if k != "RSG_DEFAULT_BUDGET"}
        env["PYTHONPATH"] = self.src
        res.last_op = op
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", boot, *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
        finally:
            elapsed = perf_counter() - start
            if os.path.exists(kernel_path):
                with open(kernel_path) as fh:
                    speed = REF_PROBE_S / float(fh.read())
                os.remove(kernel_path)
            else:                      # the child was killed; fall back on the worker's probe
                speed = self.probe.speed(start) if self.probe else 1.0
            res.record(op, elapsed, speed)
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                dump = json.load(fh)
            os.remove(spans_path)
            dump["spans"] = [s[:5] + [op] if s else s for s in dump["spans"]]
            self.child_dumps.append(dump)
        return proc

    def run_instance(self, op, res):
        argv, expected, known_defect = self.ops[op]
        proc = self.rsg(argv, res, op)
        code = proc.returncode
        res.traceback = "Traceback (most recent call last)" in proc.stderr
        res.exit_mismatch = code not in as_tuple(expected["exit"])
        res.fingerprint = (code, re.sub(r"time=\S+", "", proc.stdout))
        res.decided = code != ref.EX_INDETERMINATE
        res.answer = {"exit": code}
        res.expect(op, not res.exit_mismatch, f"exit {code}, expected {expected['exit']}", known_defect)
        res.expect(op, not res.traceback, "traceback: " + proc.stderr.strip().splitlines()[-1]
                   if res.traceback else "", known_defect)
        if "stdout" in expected:
            res.expect(op, expected["stdout"] in proc.stdout, f"stdout lacks {expected['stdout']!r}")
        if "stderr" in expected:
            res.expect(op, expected["stderr"] in proc.stderr, f"stderr lacks {expected['stderr']!r}")
        if "line" in expected:
            res.expect(op, f"line {expected['line']}: " in proc.stderr and
                       expected["message"] in proc.stderr,
                       f"parse error should name line {expected['line']}: {proc.stderr.strip()}")
            # the message rsg printed, with the seed-dependent numbers masked
            message = re.search(r"line \d+: (.*)", proc.stderr)
            res.answer["parse_error"] = re.sub(r"\d+", "#", message.group(1)) if message else None
        if "violations" in expected and not res.exit_mismatch:
            found = {(v["invariant"], tuple(v["matchings"]), tuple(v["witness"]))
                     for v in json.loads(proc.stdout)["violations"]}
            for inv, matchings, witness in expected["violations"]:
                res.expect(op, (inv, tuple(matchings), tuple(witness)) in found,
                           f"{inv} on matchings {matchings} with witness {witness} not reported")
            # which expected invariants rsg reported; others depend on the mutation site
            res.answer["invariants"] = sorted({inv for inv, _, _ in found}
                                              & {inv for inv, _, _ in expected["violations"]})


def as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


WORKLOADS = {w.name: w for w in (Certify, Audit, Search, Reject)}
