"""rsgraphs benchmark: four closed-loop workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run.  Lines above it give the
environment, every instance's median time with its computed work counts,
and every metric by name with its unit.  A per-run record (environment,
per-instance medians and quartiles, answers, failures and, when traced, the
spans) is written to .bench_build/rsgraphs-bench/.

Load model: one client, closed loop, no threads.  Each workload runs in its
own worker process, so peak RSS belongs to that workload; `reject` starts one
`rsg` child process at a time.  Set-up is timed from process start to the
first operation, in SETUPS fresh processes, and reported as the median.
Set-up and op times are corrected for the host's speed by
probe.SpeedProbe (seconds at the reference machine's speed); wall seconds
are kept beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "rsgraphs-bench")
WORKLOAD_NAMES = ("certify", "audit", "search", "reject")
SETUPS = 7
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "pass_s": "ref_s",
    "instance_geomean_s": "ref_s",
    "peak_rss_mb": "MB",
    "correct_frac": "fraction",
    "decided_frac": "fraction",
}

LAYERS = {
    "core.verify_decomposition": ("calls", "s", "self_s", "calls_per_instance", "pair_checks",
                                  "violations"),
    "core.Graph.from_edges": ("calls", "s"),
    "core.is_bipartite": ("s",),
    "rsg_format.parse_rsg": ("calls", "s", "records_per_s", "raised"),
    "rsg_format.emit_rsg": ("s",),
    "constructions.cayley_rs": ("s", "self_s"),
    "constructions.kneser_rs": ("s", "self_s"),
    "constructions.hypercube_rs": ("s", "self_s"),
    "constructions.double_cover": ("s", "self_s"),
    "constructions.ap_free_set": ("s", "self_s"),
    "constructions": ("nested_verify_s",),
    "bounds.distance_certificate": ("s", "self_s"),
    "bounds.expansion_audit": ("s", "self_s", "claims", "claims_per_s"),
    "bounds": ("nested_verify_s",),
    "search.exists_rs": ("calls", "s", "nodes", "nodes_per_s", "indeterminate"),
    "search.max_t_on_graph": ("s", "nodes", "nodes_per_s"),
    "search": ("nested_verify_s",),
    "cli": ("invocations", "startup_s", "s", "exit_mismatches", "tracebacks"),
}
PER_LAYER = {f"{layer}.{m}": m for layer, measures in LAYERS.items() for m in measures}
PER_LAYER["trace_overhead_frac"] = "frac"

# Single-run figures from the ROADMAP baseline, shown beside the measured medians.
ROADMAP_S = {
    ("certify", "cayley1001", "verify"): 2.7,
    ("certify", "kneser6", "verify"): 0.026,
    ("audit", "q8aug", "audit"): 0.55,
    ("audit", "q10aug", "audit"): 9.2,
    ("audit", "kneser5", "audit"): 1.0,
    ("search", "rs(12,3,7)", "search"): 2.6,
    ("search", "rs(11,3,6)", "search"): 3.1,
    ("reject", "defect huge header", "defect huge header"): 3.2,
}


def unit_of(measure):
    if measure.endswith("_per_s"):
        return "1/s"
    if measure == "s" or measure.endswith("_s"):
        return "s"
    if measure == "frac":
        return "fraction"
    return "count"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed}


# --- worker process ---------------------------------------------------------

def import_package():
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import rsgraphs.bounds
    import rsgraphs.constructions
    import rsgraphs.core
    import rsgraphs.rsg_format
    import rsgraphs.search
    if not os.path.abspath(rsgraphs.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rsgraphs imported from {rsgraphs.__file__}, not from {SRC}")
    return SimpleNamespace(core=rsgraphs.core, rsg_format=rsgraphs.rsg_format,
                           constructions=rsgraphs.constructions, bounds=rsgraphs.bounds,
                           search=rsgraphs.search)


def set_up(args, workdir):
    """Build the workload; returns it with the set-up time in wall and in reference seconds.

    The reference time scales the whole set-up, interpreter start included,
    by the speed the probe saw from the package import on.
    """
    sys.path.insert(0, BENCH_DIR)
    from probe import FAST_PROBE_EVERY_S, SpeedProbe
    from workloads import WORKLOADS
    probe = SpeedProbe(FAST_PROBE_EVERY_S)
    probe.warm_up()
    began = perf_counter()
    with probe:
        pkg = import_package()
        os.makedirs(workdir, exist_ok=True)
        wl = WORKLOADS[args.workload](pkg, args.seed, workdir)
        speed = probe.speed(began)
    wall = perf_counter() - args.t0
    return wl, wall, wall * speed


def run_pass(wl, tracer):
    results = {}
    for name in wl.order:
        if tracer is not None:
            tracer.instance = name
        results[name] = wl.run(name)
    return results


def measure(wl, seconds, trace):
    """Whole passes until the next one would end after `seconds`; traced runs alternate.

    An untraced run then spends the time left on extra samples of the
    instances that still fit, so cheap instances get steadier medians.
    """
    from probe import SpeedProbe
    from spans import Tracer
    tracer = Tracer() if trace else None
    with SpeedProbe() as wl.probe:
        return _measure(wl, seconds, trace, tracer)


def _measure(wl, seconds, trace, tracer):
    passes = []                    # (traced, {instance: Result}, wall seconds)
    extra = []                     # (instance, Result) outside whole passes
    start = perf_counter()
    while True:
        traced = trace and sum(1 for p in passes if not p[0]) > sum(1 for p in passes if p[0])
        if traced:
            tracer.install()
        wl.traced = traced
        began = perf_counter()
        try:
            results = run_pass(wl, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, results, perf_counter() - began))
        kinds = {p[0] for p in passes}
        if kinds != ({False, True} if trace else {False}):
            continue
        next_wall = next(p[2] for p in reversed(passes) if p[0] == (trace and not traced))
        if perf_counter() - start + next_wall > seconds:
            break
    wall = {name: res.wall for name, res in passes[-1][1].items()}
    while not trace:
        ran = False
        for name in wl.order:
            began = perf_counter()
            if began - start + wall[name] > seconds:
                continue
            res = wl.run(name)
            extra.append((name, res))
            wall[name] = res.wall
            ran = True
        if not ran:
            break
    return passes, extra, tracer


def summarize_instances(wl, passes, extra):
    rows = {}
    for name in wl.instances:
        plain = [p[1][name] for p in passes if not p[0]] + [r for x, r in extra if x == name]
        times = [r.ref_seconds for r in plain]
        ops = {op: statistics.median(r.times.get(op, 0.0) for r in plain)
               for op in plain[0].times}
        lo, hi = quartiles(times)
        rows[name] = {
            "median_ref_s": statistics.median(times), "q1_ref_s": lo, "q3_ref_s": hi,
            "samples": len(times), "median_wall_s": statistics.median(r.seconds for r in plain),
            "ops_median_wall_s": ops,
            "roadmap_single_run_s": {op: ROADMAP_S[(wl.name, name, op)] for op in ops
                                     if (wl.name, name, op) in ROADMAP_S},
            "computed": plain[0].computed,
            "answer": plain[0].answer,
        }
    return rows


def end_to_end(wl, passes, extra, rows):
    """Op counts are of distinct (instance, op) pairs, so they do not depend on how many samples fit.

    An op counts as failed if any of its samples failed.
    """
    plain = [p[1] for p in passes if not p[0]]
    pass_s = [sum(r.ref_seconds for r in results.values()) for results in plain]
    pass_wall_s = [sum(r.seconds for r in results.values()) for results in plain]
    in_passes = [r for results in plain for r in results.values()]
    everything = [(name, r) for p in passes for name, r in p[1].items()] + extra
    failed = {(name, op) for name, r in everything for op in r.failed_ops}
    attempted = {(name, op) for name, r in everything for op in r.times} | failed
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "reject"
                               else resource.RUSAGE_SELF)
    lo, hi = quartiles(pass_s)
    metrics = {
        "pass_s": statistics.median(pass_s),
        "instance_geomean_s": geomean([row["median_ref_s"] for row in rows.values()]),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "correct_frac": 1 - len(failed) / len(attempted),
        "decided_frac": sum(r.decided for r in in_passes) / len(in_passes),
    }
    spread = {"pass_s_q1": lo, "pass_s_q3": hi, "pass_samples": len(pass_s),
              "pass_wall_s": statistics.median(pass_wall_s),
              "instance_geomean_wall_s": geomean([row["median_wall_s"] for row in rows.values()])}
    counts = {"attempted": len(attempted), "failed": len(failed),
              "correct": all(known for _, r in everything for _, _, known in r.failures),
              "failures": sorted({f for _, r in everything for f in r.failures})}
    return metrics, spread, counts


def per_layer(wl, passes, tracer):
    """Per traced pass; the cli figures come from the untraced passes of `reject`."""
    from spans import summarize
    traced = [p for p in passes if p[0]]
    plain = [p for p in passes if not p[0]]
    k = len(traced)
    total, per_instance = summarize([tracer.dump()] + getattr(wl, "child_dumps", []))
    out = {name: total.get(name, 0.0) / k for name in PER_LAYER}
    verify_calls = [c.get("core.verify_decomposition.calls", 0) for c in per_instance.values()]
    out["core.verify_decomposition.calls_per_instance"] = max(verify_calls, default=0) / k

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    out["rsg_format.parse_rsg.records_per_s"] = rate(total["rsg_format.parse_rsg.records"],
                                                     total["rsg_format.parse_rsg.counted_s"])
    out["bounds.expansion_audit.claims_per_s"] = rate(total["bounds.expansion_audit.claims"],
                                                      total["bounds.expansion_audit.counted_s"])
    for fn in ("search.exists_rs", "search.max_t_on_graph"):
        out[f"{fn}.nodes_per_s"] = rate(total[f"{fn}.nodes"], total[f"{fn}.counted_s"])
    if wl.name == "reject":
        results = [r for p in plain for r in p[1].values()]
        out["cli.invocations"] = len(results) / len(plain)
        out["cli.s"] = sum(r.seconds for r in results) / len(plain)
        out["cli.startup_s"] = statistics.median(p[1]["bound n=10 t=5"].seconds for p in plain)
        out["cli.exit_mismatches"] = sum(r.exit_mismatch for r in results) / len(plain)
        out["cli.tracebacks"] = sum(r.traceback for r in results) / len(plain)
    plain_s = statistics.median(sum(r.ref_seconds for r in p[1].values()) for p in plain)
    traced_s = statistics.median(sum(r.ref_seconds for r in p[1].values()) for p in traced)
    out["trace_overhead_frac"] = traced_s / plain_s - 1
    return out


def worker(args):
    workdir = os.path.join(args.workdir, "worker")
    wl, setup_wall_s, setup_s = set_up(args, workdir)
    passes, extra, tracer = measure(wl, args.seconds, args.trace)
    rows = summarize_instances(wl, passes, extra)
    metrics, spread, counts = end_to_end(wl, passes, extra, rows)
    metrics["setup_s"] = setup_s
    spread["setup_wall_s"] = setup_wall_s
    record = {"workload": wl.name, "env": environment(args.seed), "trace": args.trace,
              "order": wl.order, "passes": len(passes), "extra_samples": len(extra),
              "instances": rows, "spread": spread, **counts, "metrics": metrics}
    if args.trace:
        record["per_layer"] = per_layer(wl, passes, tracer)
        record["spans"] = tracer.spans
        record["child_spans"] = [d["spans"] for d in getattr(wl, "child_dumps", [])]
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(record, fh)


# --- launcher ---------------------------------------------------------------

def spawn(args, role, workdir, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{role} of {args.workload} exceeded {timeout:.0f}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{role} of {args.workload} exited with {proc.returncode}")
    return out


def launch(args):
    started = perf_counter()
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setups, walls = [], []
        for k in range(SETUPS - 1):
            out = spawn(args, "setup", os.path.join(workdir, f"setup{k}"), 60).split()
            walls.append(float(out[-2]))
            setups.append(float(out[-1]))
        spawn(args, "worker", workdir, RUN_LIMIT_S - (perf_counter() - started))
        with open(os.path.join(workdir, "result.json")) as fh:
            record = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(record["metrics"]["setup_s"])
    walls.append(record["spread"]["setup_wall_s"])
    record["metrics"]["setup_s"] = statistics.median(setups)
    record["spread"]["setup_samples_s"] = setups
    record["spread"]["setup_wall_s"] = statistics.median(walls)
    record["spread"]["setup_wall_samples_s"] = walls
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    env = record["env"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"{'instance':<30} {'ref_s':>9} {'q1':>9} {'q3':>9} {'n':>2} {'wall_s':>9}  "
          "ops (median wall s)  [roadmap single run s]  work counts")
    for name, row in record["instances"].items():
        ops = " ".join(f"{op}={s:.4g}" for op, s in row["ops_median_wall_s"].items())
        roadmap = " ".join(f"{op}={s}" for op, s in row["roadmap_single_run_s"].items())
        computed = " ".join(f"{k}={v}" for k, v in row["computed"].items())
        print(f"{name:<30} {row['median_ref_s']:9.4f} {row['q1_ref_s']:9.4f} {row['q3_ref_s']:9.4f} "
              f"{row['samples']:>2} {row['median_wall_s']:9.4f}  {ops}  [{roadmap}]  {computed}")
    for op, reason, known in record["failures"]:
        print(f"FAILED {op}: {reason}" + ("  (known defect)" if known else ""))
    print(f"attempted {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    metrics = record["per_layer"] if record["trace"] else record["metrics"]
    units = {name: unit_of(m) for name, m in PER_LAYER.items()} if record["trace"] else END_TO_END
    for name in units:
        print(f"  {name:<48} {metrics[name]:.6g} {units[name]}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "worker"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rsgraphs", "__init__.py")):
        print(f"error: no rsgraphs package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.role == "setup":
        _, setup_wall_s, setup_s = set_up(args, args.workdir)
        print(repr(setup_wall_s), repr(setup_s))
        return 0
    if args.role == "worker":
        worker(args)
        return 0
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # lets spawn() stop the worker
    os.makedirs(OUT_DIR, exist_ok=True)
    print(json.dumps(report(launch(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
