"""Command-line surface tying constructions, verification, bounds and search together.

Exit codes: 0 pass/SAT/feasible, 1 fail/UNSAT/infeasible, 2 INDETERMINATE,
64 usage error, 65 parse error, 70 internal error (an unexpected exception,
reported in one line, so that it never reads as a verdict).  `main` maps every
refusal of an argument (ParameterError, ResourceLimitError among them) or of an
input (PreconditionError) to 64; only `rsg audit` decides its own refusal.
"""

from __future__ import annotations

import argparse
import sys

from .core import ParameterError, PreconditionError, verify_decomposition
from .rsg_format import RsgParseError, emit_rsg, parse_rsg

# every other module is imported by the command that calls it, so that an `rsg`
# process loads only what its subcommand runs: `verify` loads core and rsg_format

EX_OK = 0
EX_FAIL = 1
EX_INDETERMINATE = 2
EX_USAGE = 64
EX_PARSE = 65
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class _FamilyParser(_Parser):
    """A `construct` family, which refuses a flag it does not declare under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _load(path: str):
    """The decomposition in the file; a byte that is not UTF-8 is a parse error on its line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    try:
        return parse_rsg(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # the bad byte's line, with lines ended at "\n" as parse_rsg ends them
        error = RsgParseError(data.count(b"\n", 0, exc.start) + 1,
                              f"byte 0x{data[exc.start]:02x} is not valid UTF-8")
    except RsgParseError as exc:
        error = exc
    print(f"error: {path}: {error}", file=sys.stderr)
    raise SystemExit(EX_PARSE)


def _write_output(text: str, path):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            raise SystemExit(EX_USAGE)
    else:
        sys.stdout.write(text)


def _print_json(payload, indent=2):
    import json     # only under --json, as each command imports its own modules
    print(json.dumps(payload, indent=indent))


def _cayley_ap(c, args):
    c.check_cayley_modulus(args.modulus)   # before building S, whose cost grows with the limit
    limit = args.limit if args.limit is not None else (args.modulus - 1) // 3
    if 3 * limit > args.modulus - 1:
        raise ParameterError(f"--limit {limit} exceeds (N-1)/3 = {(args.modulus - 1) // 3}")
    s = c.ap_free_set(args.apset_method, limit)
    if s.note:
        print(f"note: {s.note}", file=sys.stderr)
    return c.cayley_rs(args.modulus, s)


def cmd_construct(args) -> int:
    from . import constructions     # each family builds from it: build(constructions, args)

    _write_output(emit_rsg(args.build(constructions, args)), args.output)
    return EX_OK


def cmd_verify(args) -> int:
    dec = _load(args.file)
    report = verify_decomposition(dec)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"n={dec.n} t={dec.t} r={dec.r} edges={sum(len(m) for _, m in dec.listed)}")
        print(f"max edge degree sum: {report.max_edge_degree_sum}")
        for note in report.notes:
            print(f"note: {note}")
        if report.passed:
            print("verdict: pass")
        else:
            print("verdict: fail")
            for v in report.violations:
                print(f"  {v.invariant}: {v.detail}")
    return EX_OK if report.passed else EX_FAIL


def cmd_bound(args) -> int:
    from .bounds import feasibility_verdict, max_r

    if args.r is None:
        cap = max_r(args.n, args.t)
        if args.json:
            _print_json({"n": args.n, "t": args.t, "max_r": str(cap)}, indent=None)
        else:
            print(f"max r = {cap}")
        return EX_OK
    verdict = feasibility_verdict(args.n, args.r, args.t)
    if args.json:
        _print_json(verdict.to_dict())
    else:
        print(f"regime: {verdict.regime}")
        if verdict.hard_bound is not None:
            print(f"hard bound on r: {verdict.hard_bound}" + (" (tight)" if verdict.tight else ""))
        print(f"verdict: {'feasible' if verdict.feasible else 'INFEASIBLE'} ({verdict.witness})")
        for line in verdict.advisory:
            print(f"advisory: {line}")
    return EX_OK if verdict.feasible else EX_FAIL


def cmd_search(args) -> int:
    from .search import SAT, UNSAT, Budget, exists_rs

    given = {"max_nodes": args.max_nodes, "max_seconds": args.timeout}
    budget = Budget(**{k: v for k, v in given.items() if v is not None})
    outcome = exists_rs(args.n, args.r, args.t, budget=budget,
                        eq1_shortcut=not args.no_eq1_shortcut)
    payload = outcome.to_dict()
    if outcome.certificate is not None and args.output:
        _write_output(emit_rsg(outcome.certificate), args.output)
    if args.json:
        if outcome.certificate is not None:
            payload["certificate"] = emit_rsg(outcome.certificate)
        _print_json(payload)
    else:
        print(f"verdict: {outcome.verdict}  nodes={outcome.nodes_explored}  "
              f"time={outcome.wall_time:.2f}s")
        if outcome.note:
            print(f"note: {outcome.note}")
        if outcome.certificate is not None and not args.output:
            sys.stdout.write(emit_rsg(outcome.certificate))
    return {SAT: EX_OK, UNSAT: EX_FAIL}.get(outcome.verdict, EX_INDETERMINATE)


def cmd_audit(args) -> int:
    from .bounds import expansion_audit

    dec = _load(args.file)
    try:
        report = expansion_audit(dec)
    except PreconditionError as exc:
        # an input that fails verification is a verdict on the file, exit 1 as `rsg verify`
        # gives it, and not a usage error: the arguments were well formed
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"n={report.n} t={report.t} r={report.r}"
              + (" (audited on double cover)" if report.doubled else ""))
        print(f"E1={report.e1} E0={report.e0} s={report.s} s'={report.s_prime}")
        print(f"F: {report.f_vertex_count} vertices, achieved min degree "
              f"{report.f_achieved_min_degree} (threshold {report.f_min_degree_threshold})")
        for name, status, detail in report.assertions:
            print(f"  {name}: {status} ({detail})")
        for row in report.layers:
            print(f"  layer {row.index}: |N_i|={row.size}, floor C(s,i)={row.binomial_floor}"
                  f" {'ok' if row.meets else 'below'}")
        print("verdict: pass")       # a lemma of verification: see expansion_audit
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rsg", description="Induced-matching decomposition workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a decomposition family")
    p.set_defaults(func=cmd_construct)
    families = p.add_subparsers(dest="family", required=True, parser_class=_FamilyParser)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")
    for name, build in (("kneser", lambda c, a: c.kneser_rs(a.k)),
                        ("hypercube", lambda c, a: c.hypercube_rs(a.k, augmented=False)),
                        ("hypercube-augmented", lambda c, a: c.hypercube_rs(a.k, augmented=True))):
        f = families.add_parser(name, parents=[output])
        f.add_argument("--k", type=int, required=True)
        f.set_defaults(build=build)
    f = families.add_parser("disjoint-union", parents=[output])
    f.add_argument("--input", required=True, help="input .rsg file")
    f.add_argument("--copies", type=int, required=True)
    f.set_defaults(build=lambda c, a: c.disjoint_union(_load(a.input), a.copies))
    f = families.add_parser("double-cover", parents=[output])
    f.add_argument("--input", required=True, help="input .rsg file")
    f.set_defaults(build=lambda c, a: c.double_cover(_load(a.input)))
    f = families.add_parser("cayley-ap", parents=[output])
    f.add_argument("--modulus", type=int, required=True)
    f.add_argument("--apset-method", choices=["greedy-base3", "behrend"], default="greedy-base3")
    f.add_argument("--limit", type=int)
    f.set_defaults(build=_cayley_ap)

    p = sub.add_parser("verify", help="verify a .rsg decomposition file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="hard cap on r, or full feasibility verdict with --r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("search", help="exhaustive existence search for (n, r, t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--no-eq1-shortcut", action="store_true",
                   help="search without the max_r cap, at the root and on each matching's "
                        "first edge: the theorem-free cross-check search")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", help="write the SAT certificate here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("audit", help="run the expansion audit on a .rsg file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    except (ParameterError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}" + (f": {message}" if message else ""),
              file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
