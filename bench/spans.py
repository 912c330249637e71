"""Spans around the public functions of the rsgraphs modules, recorded from outside.

`Tracer.install` rebinds every public function each rsgraphs module binds
(its own and the ones it imports from sibling modules) to a timing wrapper,
plus the `Graph.from_edges` classmethod.  Because the package calls its
helpers through those module-level names, a nested call such as `cayley_rs`
-> `verify_decomposition` becomes a child span.  No package file is edited;
`uninstall` restores the original bindings.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("rsg_format", "core", "constructions", "bounds", "search", "cli")


def _verify_counts(args, result):
    t = args[0].t
    return {"pair_checks": t * (t - 1) // 2, "violations": len(result.violations)}


def _parse_counts(args, result):
    return {"records": sum(len(matching) for matching in result.matchings)}


def _audit_counts(args, result):
    # computed, not measured: one claim per ordered pair of F vertices in one
    # component; every audited instance has a connected F
    return {"claims": result.f_vertex_count ** 2}


def _search_counts(args, result):
    return {"nodes": result.nodes_explored, "indeterminate": int(result.verdict == "INDETERMINATE")}


COUNTERS = {
    "core.verify_decomposition": _verify_counts,
    "rsg_format.parse_rsg": _parse_counts,
    "bounds.expansion_audit": _audit_counts,
    "search.exists_rs": _search_counts,
    "search.max_t_on_graph": _search_counts,
}


class Tracer:
    """Spans (id, parent id, name, start, end, instance) and per-span counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = []          # (span id, {count: value})
        self.raised = defaultdict(int)
        self.instance = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, self.instance)
            if counter is not None:
                self.counts.append((sid, counter(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"rsgraphs.{short}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("rsgraphs.")):
                    continue
                origin = obj.__module__.split(".", 1)[1]
                self._saved.append((module, attr, obj))
                setattr(module, attr, self.wrap(f"{origin}.{obj.__name__}", obj))
        graph = importlib.import_module("rsgraphs.core").Graph
        raw = graph.__dict__["from_edges"]
        self._saved.append((graph, "from_edges", raw))
        graph.from_edges = classmethod(self.wrap("core.Graph.from_edges", raw.__func__))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def dump(self):
        return {"spans": self.spans, "counts": self.counts, "raised": dict(self.raised)}


def summarize(dumps):
    """Per-layer totals from Tracer.dump() records (several processes may contribute)."""
    total = defaultdict(float)
    per_instance = defaultdict(lambda: defaultdict(int))
    for d in dumps:
        spans = {s[0]: s for s in d["spans"] if s is not None}
        child = defaultdict(float)
        for sid, parent, name, start, end, instance in spans.values():
            if parent is not None:
                child[parent] += end - start
        for sid, parent, name, start, end, instance in spans.values():
            dur = end - start
            total[f"{name}.calls"] += 1
            total[f"{name}.s"] += dur
            total[f"{name}.self_s"] += dur - child[sid]
            per_instance[instance][f"{name}.calls"] += 1
            if name == "core.verify_decomposition" and parent is not None:
                layer = spans[parent][2].split(".", 1)[0]
                total[f"{layer}.nested_verify_s"] += dur
        for sid, counts in d["counts"]:
            _, _, name, start, end, _ = spans[sid]
            total[f"{name}.counted_s"] += end - start     # calls that returned, so have counts
            for key, value in counts.items():
                total[f"{name}.{key}"] += value
        for name, n in d["raised"].items():
            total[f"{name}.raised"] += n
    return total, per_instance


def run_cli(spans_path):
    """Entry for a traced `rsg` child process: run the CLI under a Tracer, then write its spans."""
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("rsgraphs.cli")
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
