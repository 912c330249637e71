"""The package's public surface, resolved lazily, the modules each `rsg` subcommand loads, and the
public names the subcommands reach."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import rsgraphs
from rsgraphs import emit_rsg, hypercube_rs, kneser_rs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ("core", "constructions", "bounds", "search", "rsg_format")


def defining_modules(name):
    """The rsgraphs modules that define `name`, not merely import it."""
    found = []
    for short in MODULES:
        module = importlib.import_module(f"rsgraphs.{short}")
        if name in vars(module) and getattr(vars(module)[name], "__module__",
                                            module.__name__) == module.__name__:
            found.append(module)
    return found


@pytest.mark.parametrize("name", rsgraphs.__all__)
def test_each_public_name_is_its_defining_modules_object(name):
    [module] = defining_modules(name)
    assert getattr(rsgraphs, name) is getattr(module, name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from rsgraphs import *", namespace)
    assert set(rsgraphs.__all__) <= set(namespace)
    assert set(rsgraphs.__all__) <= set(dir(rsgraphs))


def test_submodules_import_by_name():
    namespace = {}
    exec("from rsgraphs import cli, bounds", namespace)
    assert namespace["cli"] is sys.modules["rsgraphs.cli"]
    assert namespace["bounds"] is sys.modules["rsgraphs.bounds"] is rsgraphs.bounds


def test_the_bare_package_loads_no_submodule_until_one_is_named():
    child = ("import sys, rsgraphs; assert not [m for m in sys.modules if m.startswith('rsgraphs.')]; "
             "assert rsgraphs.search.exists_rs is rsgraphs.exists_rs")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'rsgraphs' has no attribute 'no_such_name'"):
        rsgraphs.no_such_name


# run argv as the `rsg` console script does, print the rsgraphs modules and which of
# `fractions`, `json`, `dataclasses` and `inspect` were loaded, and exit as rsg did
CHILD = ("import sys; from rsgraphs.cli import main; code = main(sys.argv[1:]); "
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rsgraphs' "
         "or m in ('fractions', 'json', 'dataclasses', 'inspect'))); "
         "sys.exit(code)")
BASE = {"rsgraphs", "rsgraphs.cli", "rsgraphs.core", "rsgraphs.rsg_format"}


B, C, S, F, J = "rsgraphs.bounds", "rsgraphs.constructions", "rsgraphs.search", "fractions", "json"


@pytest.mark.parametrize("argv, extra", [
    (["verify", "petersen.rsg"], set()),
    (["bound", "--n", "10", "--t", "5", "--r", "3"], {B, F}),
    (["search", "--n", "6", "--r", "2", "--t", "3"], {B, S, F}),
    (["audit", "petersen.rsg"], {B, F}),            # audited on its double cover, never built
    (["audit", "q2.rsg"], {B, F}),                  # bipartite
    (["construct", "kneser", "--k", "2", "-o", "out.rsg"], {C}),
    (["verify", "--json", "petersen.rsg"], {J}),    # `json` loads only under --json
    (["bound", "--n", "10", "--t", "5", "--r", "3", "--json"], {B, F, J}),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    (tmp_path / "petersen.rsg").write_text(emit_rsg(kneser_rs(2)))
    (tmp_path / "q2.rsg").write_text(emit_rsg(hypercube_rs(2, augmented=False)))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp_path, text=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == BASE | extra


@pytest.mark.parametrize("short", ("__init__", "cli") + MODULES)
def test_every_imported_name_is_read(short):
    # imports at any depth, function-level ones included; `__future__` binds no name
    with open(os.path.join(SRC, "rsgraphs", f"{short}.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read, sorted(imported - read)


@pytest.mark.parametrize("short", ("__init__", "cli") + MODULES)
def test_every_parameter_is_read(short):
    # lambdas and nested functions included; a closure reading a parameter
    # counts; a protocol dunder keeps the signature its protocol fixes
    with open(os.path.join(SRC, "rsgraphs", f"{short}.py")) as fh:
        tree = ast.parse(fh.read())
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}:{node.lineno} {p.arg}" for p in params if p.arg not in read]
    assert not unread, unread


@pytest.mark.parametrize("short", ("__init__", "cli") + MODULES)
def test_no_module_reads_the_matchings_with_their_empties(short):
    # a decomposition stores its non-empty matchings as `listed`; the t-long
    # `matchings` and the union `graph` are built on read, for readers outside the package
    with open(os.path.join(SRC, "rsgraphs", f"{short}.py")) as fh:
        tree = ast.parse(fh.read())
    reads = [f"{node.lineno} .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("matchings", "_listed", "graph")]
    assert not reads, reads


REFUSALS = {"ParameterError", "PreconditionError", "ResourceLimitError"}


@pytest.mark.parametrize("short", ("__init__", "cli") + MODULES)
def test_each_refusal_is_decided_in_one_place(short):
    # `cli.main` maps the package's refusals to exit 64, and `rsg audit` keeps its exit-1
    # refusal, so no other `except` names them; `core._check_size` alone tests the size budget
    with open(os.path.join(SRC, "rsgraphs", f"{short}.py")) as fh:
        tree = ast.parse(fh.read())
    stray = []
    allowed = {("cli.main", "except"), ("cli.cmd_audit", "except"),
               ("core._check_size", "SIZE_BUDGET comparison")}

    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            kind = None
            if isinstance(child, ast.ExceptHandler) and child.type and names(child.type) & REFUSALS:
                kind = "except"
            elif isinstance(child, ast.Compare) and "SIZE_BUDGET" in names(child):
                kind = "SIZE_BUDGET comparison"
            if kind and (where, kind) not in allowed:
                stray.append(f"{where}:{child.lineno} {kind}")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            walk(child, f"{short}.{child.name}" if named else where)

    walk(tree, short)
    assert not stray, stray


# one `rsg` run of each kind, with its exit: every construct family, verify's pass, fail and
# parse error, bound with and without --r, search's three verdicts, audit's pass and refusal
SURFACE_ARGV = [
    ("construct kneser --k 2 -o petersen.rsg", 0),
    ("construct hypercube --k 3 -o q3.rsg", 0),
    ("construct hypercube-augmented --k 2 -o q2aug.rsg", 0),
    ("construct disjoint-union --input petersen.rsg --copies 2 -o u2.rsg", 0),
    ("construct double-cover --input petersen.rsg -o dc.rsg", 0),
    ("construct cayley-ap --modulus 41 -o c41.rsg", 0),
    ("verify petersen.rsg", 0),
    ("verify bad.rsg", 1),
    ("verify dup.rsg", 65),
    ("bound --n 10 --t 5", 0),
    ("bound --n 10 --t 5 --r 3", 0),
    ("search --n 3 --r 1 --t 3", 0),
    ("search --n 6 --r 2 --t 4", 1),
    ("search --n 11 --r 3 --t 6 --max-nodes 100", 2),
    ("audit petersen.rsg", 0),
    ("audit bad.rsg", 1),
]

# run each argv through `rsg`'s main under a profiler, and print the exits and every name that
# an executed function body under src/rsgraphs loads (its co_names; module and class bodies,
# which bind the names rather than reach them, are not CO_OPTIMIZED)
SURFACE_CHILD = """
import contextlib, inspect, io, json, os, sys
import rsgraphs
from rsgraphs.cli import main
package = os.path.dirname(rsgraphs.__file__) + os.sep
reached = set()
def profile(frame, event, arg):
    code = frame.f_code
    if (event == "call" and code.co_flags & inspect.CO_OPTIMIZED
            and code.co_filename.startswith(package)):
        reached.update(code.co_names)
exits = []
sys.setprofile(profile)
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(main(argv.split()))
sys.setprofile(None)
print(json.dumps({"exits": exits, "reached": sorted(reached)}))
"""

# the public names no subcommand reaches, each with why it stays (ROADMAP item 17)
UNREACHED = {
    "Graph": "the bench builds one (bench/workloads.py:217), and max_t_on_graph takes one",
    "DistanceCertificate": "distance_certificate's result; item 12 decides both",
    "distance_certificate": "the bench calls it (bench/workloads.py:139); item 12 decides it",
    "max_t_on_graph": "the bench calls it; no subcommand takes a graph",
}


def test_every_public_name_is_reached_by_a_subcommand_or_allowlisted(tmp_path):
    (tmp_path / "bad.rsg").write_text("rsg 3 3 2\n0 1 0\n1 2 1\n0 2 2\n")
    (tmp_path / "dup.rsg").write_text("rsg 3 3 1\n0 1 0\n0 1 1\n")
    argv, exits = zip(*SURFACE_ARGV)
    proc = subprocess.run([sys.executable, "-c", SURFACE_CHILD, *argv], cwd=tmp_path, text=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert tuple(result["exits"]) == exits
    assert set(rsgraphs.__all__) - set(result["reached"]) == UNREACHED.keys()
