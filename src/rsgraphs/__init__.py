"""Workbench for graphs decomposable into equal-size induced matchings."""

from .core import (
    Graph,
    GraphError,
    MatchingDecomposition,
    ParameterError,
    PreconditionError,
    VerificationReport,
    Violation,
    is_bipartite,
    verify_decomposition,
)
from .constructions import (
    APFreeSet,
    ResourceLimitError,
    ap_free_set,
    cayley_rs,
    disjoint_union,
    double_cover,
    has_three_term_progression,
    hypercube_rs,
    kneser_rs,
)
from .bounds import (
    AuditReport,
    BoundVerdict,
    DistanceCertificate,
    distance_certificate,
    expansion_audit,
    feasibility_verdict,
    max_r,
)
from .search import (
    INDETERMINATE,
    SAT,
    UNSAT,
    Budget,
    SearchOutcome,
    exists_rs,
    max_t_on_graph,
)
from .rsg_format import RsgParseError, emit_rsg, parse_rsg

__all__ = [
    "APFreeSet", "AuditReport", "BoundVerdict", "Budget", "DistanceCertificate",
    "Graph", "GraphError", "INDETERMINATE", "MatchingDecomposition",
    "ParameterError", "PreconditionError", "ResourceLimitError",
    "RsgParseError", "SAT", "SearchOutcome", "UNSAT", "VerificationReport",
    "Violation", "ap_free_set", "cayley_rs", "disjoint_union",
    "distance_certificate", "double_cover", "emit_rsg", "exists_rs",
    "expansion_audit", "feasibility_verdict", "has_three_term_progression",
    "hypercube_rs", "is_bipartite", "kneser_rs",
    "max_r", "max_t_on_graph", "parse_rsg", "verify_decomposition",
]
