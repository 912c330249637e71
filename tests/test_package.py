"""The package's public surface, resolved lazily, and the modules each `rsg` subcommand loads."""

import ast
import importlib
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
    # `matchings` is built per read, for readers outside the package
    with open(os.path.join(SRC, "rsgraphs", f"{short}.py")) as fh:
        tree = ast.parse(fh.read())
    reads = [f"{node.lineno} .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("matchings", "_listed")]
    assert not reads, reads
