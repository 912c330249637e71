"""Workbench for graphs decomposable into equal-size induced matchings.

`import rsgraphs` loads no submodule: each public name imports its module on
first use (PEP 562), so an `rsg` process loads only what its subcommand runs.
"""

import importlib

# each public name, under the module that defines it
_PUBLIC = {
    "core": ("Graph", "GraphError", "MatchingDecomposition", "ParameterError",
             "PreconditionError", "ResourceLimitError", "VerificationReport", "Violation",
             "verify_decomposition"),
    "constructions": ("APFreeSet", "ap_free_set", "cayley_rs", "disjoint_union",
                      "double_cover", "has_three_term_progression", "hypercube_rs", "kneser_rs"),
    "bounds": ("AuditReport", "BoundVerdict", "DistanceCertificate", "distance_certificate",
               "expansion_audit", "feasibility_verdict", "max_r"),
    "search": ("INDETERMINATE", "SAT", "UNSAT", "Budget", "SearchOutcome", "exists_rs",
               "max_t_on_graph"),
    "rsg_format": ("RsgParseError", "emit_rsg", "parse_rsg"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _PUBLIC:        # a submodule, reachable after `import rsgraphs` as before
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
