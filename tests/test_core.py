"""Verifier unit tests, including exhaustive agreement with a brute-force oracle."""

import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import degrees
from rsgraphs import (
    APFreeSet,
    AuditReport,
    BoundVerdict,
    Budget,
    DistanceCertificate,
    Graph,
    GraphError,
    MatchingDecomposition,
    ParameterError,
    PreconditionError,
    SearchOutcome,
    VerificationReport,
    Violation,
    disjoint_union,
    distance_certificate,
    double_cover,
    emit_rsg,
    expansion_audit,
    hypercube_rs,
    kneser_rs,
    parse_rsg,
    verify_decomposition,
)
from rsgraphs import core
from rsgraphs.bounds import LayerRow


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def triangle_dec(r=1):
    return MatchingDecomposition.from_matchings(3, [[(0, 1)], [(1, 2)], [(0, 2)]], r)


def brute_force_induced_matching(g, m):
    """Independent oracle: check the definition over all vertex pairs of V(m)."""
    edges = sorted(tuple(sorted(e)) for e in m)
    counts = {}
    for u, v in edges:
        counts[u] = counts.get(u, 0) + 1
        counts[v] = counts.get(v, 0) + 1
    if any(c > 1 for c in counts.values()) or len(set(edges)) < len(edges):
        return False
    covered = set(counts)
    for u, v in itertools.combinations(sorted(covered), 2):
        if (u, v) in g.edges and (u, v) not in set(edges):
            return False
    return True


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 3)])

    def test_normalizes_and_dedupes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2)])
        assert g.edges == frozenset({(0, 2)})
        assert degrees(g)[0] == 1 and degrees(g)[1] == 0

    def test_bipartite_detection(self):
        # the audit decides bipartiteness: a non-bipartite input is audited on its double cover
        path = MatchingDecomposition.from_matchings(4, [[(0, 1)], [(1, 2)], [(2, 3)]], 1)
        assert expansion_audit(path).doubled is False
        assert expansion_audit(triangle_dec()).doubled is True


def inducedness_witness(g, m):
    """Check edge list m of g through the verifier, as matching 0 of a decomposition of g.

    Every other edge of g is a one-edge matching, which is always induced, so
    the union of the matchings is g.  Returns None when m is an induced
    matching of g, otherwise the verifier's `not-a-matching` or `not-induced`
    witness for matching 0.
    """
    rest = [[e] for e in sorted(g.edges - set(m))]
    report = verify_decomposition(MatchingDecomposition.from_matchings(g.n, [m, *rest], len(m)))
    for v in report.violations:
        if v.invariant in ("not-a-matching", "not-induced"):
            assert v.matchings == (0,)
            return v.witness
    return None


class TestInducedMatchingCheck:
    def test_single_edge_in_triangle_passes(self):
        assert inducedness_witness(triangle(), [(0, 1)]) is None

    def test_path_middle_edge_witness(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert inducedness_witness(g, [(0, 1), (2, 3)]) == (1, 2)

    def test_petersen_slice_is_induced(self):
        # the three disjoint pairs missing one fixed element form an induced matching
        dec = kneser_rs(2)
        for m in dec.matchings:
            assert inducedness_witness(dec.graph, m) is None

    def test_shared_endpoint_is_witnessed(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        assert inducedness_witness(g, [(0, 1), (0, 2)]) == (0, 2)

    def test_exhaustive_agreement_n5(self):
        # every graph on 5 vertices, every candidate matching of <= 2 edges
        pairs = list(itertools.combinations(range(5), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if len(edges) < 1:
                continue
            g = Graph.from_edges(5, edges)
            for size in (1, 2):
                for m in itertools.combinations(edges, size):
                    got = inducedness_witness(g, list(m)) is None
                    assert got == brute_force_induced_matching(g, m)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_randomized_agreement_n8(self, data):
        n = data.draw(st.integers(2, 8))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
        g = Graph.from_edges(n, edges)
        size = data.draw(st.integers(1, min(3, len(edges))))
        m = data.draw(st.lists(st.sampled_from(sorted(g.edges)), min_size=size,
                               max_size=size, unique=True))
        got = inducedness_witness(g, m) is None
        assert got == brute_force_induced_matching(g, m)


class TestVerifyDecomposition:
    def test_triangle_decomposition_passes(self):
        report = verify_decomposition(triangle_dec())
        assert report.passed
        assert report.max_edge_degree_sum == 4  # = t + 1

    def test_failing_verification_leaves_the_incidence_map_unchanged(self):
        # matching 1 lists two edges and fails: its vertices count all the same
        lists = {0: [0, 1, 2], 1: [0, 1], 2: [1, 2], 3: [1]}
        for bits, expected in ((True, {v: sum(1 << i for i in a) for v, a in lists.items()}),
                               (False, lists)):
            dec = MatchingDecomposition.from_matchings(4, [[(0, 1)], [(1, 2), (0, 3)], [(0, 2)]], 1)
            with mock.patch.object(core, "_bitsets", lambda *args, bits=bits: bits):
                assert dec._matchings_at == (bits, expected)
                assert not verify_decomposition(dec).passed
            assert dec._matchings_at == (bits, expected)

    def test_a_built_decomposition_leaves_certified_or_as_a_defect(self):
        # `_certified` is the postcondition of the Cayley construction and the search certificates
        dec = triangle_dec()
        assert core._certified(dec, "a builder") is dec
        with pytest.raises(AssertionError, match=r"^a builder fails verification \(size-mismatch\)$"):
            core._certified(triangle_dec(r=2), "a builder")

    def test_kneser2_degree_sum_is_tplus1(self):
        report = verify_decomposition(kneser_rs(2))
        assert report.passed
        assert report.max_edge_degree_sum == 6

    def test_hypercube2_passes(self):
        report = verify_decomposition(hypercube_rs(2))
        assert report.passed

    def test_size_mismatch_reported_not_raised(self):
        report = verify_decomposition(triangle_dec(r=2))
        assert not report.passed
        assert {v.invariant for v in report.violations} == {"size-mismatch"}

    def test_duplicated_edge_across_matchings(self):
        dec = MatchingDecomposition.from_matchings(3, [[(0, 1)], [(0, 1)], [(1, 2)], [(0, 2)]], 1)
        report = verify_decomposition(dec)
        assert any(v.invariant == "not-edge-disjoint" for v in report.violations)

    def test_non_induced_matching_flagged(self):
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1), (2, 3)], [(1, 2)]], 0)
        report = verify_decomposition(dec)
        assert any(v.invariant == "not-induced" and v.witness == (1, 2)
                   for v in report.violations)

    def test_all_violations_collected(self):
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1), (1, 2)], [(0, 1)], [(2, 3)]], 2)
        report = verify_decomposition(dec)
        kinds = {v.invariant for v in report.violations}
        assert kinds == {"size-mismatch", "not-edge-disjoint", "not-a-matching"}

    def test_graph_is_the_union_built_on_first_read(self):
        dec = parse_rsg(emit_rsg(kneser_rs(2)))
        assert dec._fields == ("n", "t", "r", "listed")
        assert verify_decomposition(dec).passed and emit_rsg(dec)
        assert "graph" not in vars(dec)     # verifier and emitter read the matchings alone
        assert dec.graph == Graph.from_edges(dec.n, [e for m in dec.matchings for e in m])
        assert dec.graph is dec.graph
        with pytest.raises(AttributeError):
            dec.graph = triangle()

    def test_isolated_vertices_flagged_in_notes(self):
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1)]], 1)
        report = verify_decomposition(dec)
        assert report.passed
        assert report.isolated_vertices == 2
        assert report.notes

    def test_huge_header_builds_no_adjacency(self):
        # degrees come from the edge list: a few n-long lists, no per-vertex
        # set (over 200 bytes each) or list for 200,000 isolated vertices
        n = 200_000
        tracemalloc.start()
        try:
            passed = verify_decomposition(parse_rsg(f"rsg {n} 0 0\n")).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < 32 * n


class TestDecompositionStats:
    """Exact parameters of a decomposition, read from its verification report."""

    def stats(self, dec):
        report = verify_decomposition(dec)
        assert report.passed
        hist = report.degree_histogram
        n = sum(hist.values())
        assert sum(d * count for d, count in hist.items()) == 2 * dec.r * dec.t
        return n, hist

    def test_kneser2(self):
        dec = kneser_rs(2)
        n, _ = self.stats(dec)
        assert (n, dec.r, dec.t) == (10, 3, 5)
        assert Fraction(dec.r, n) == Fraction(3, 10)

    def test_hypercube4_augmented(self):
        dec = hypercube_rs(4, augmented=True)
        n, hist = self.stats(dec)
        assert (n, dec.r, dec.t) == (16, 4, 10)
        assert Fraction(dec.r, n) == Fraction(1, 4)
        assert min(hist) == max(hist) == 5

    def test_empty_decomposition(self):
        dec = MatchingDecomposition.from_matchings(4, [], 0)
        n, hist = self.stats(dec)
        assert (n, dec.r, dec.t) == (4, 0, 0)
        assert hist == {0: 4}

    def test_refuses_unverified(self):
        dec = triangle_dec(r=2)
        report = verify_decomposition(dec)
        assert not report.passed
        assert report.violations[0].invariant == "size-mismatch"
        with pytest.raises(PreconditionError):
            distance_certificate(dec)

    @pytest.mark.parametrize("what, call", [
        ("disjoint_union", lambda dec: disjoint_union(dec, 2)),
        ("double_cover", double_cover),
        ("distance_certificate", distance_certificate),
        ("expansion_audit", expansion_audit),
    ])
    def test_refusal_names_the_failing_invariant(self, what, call):
        message = rf"^{what} requires a verified decomposition \(size-mismatch\)$"
        with pytest.raises(PreconditionError, match=message):
            call(triangle_dec(r=2))


# each record class: the fields of one instance, its repr, and whether it hashes
RECORDS = [
    (Graph, (3, frozenset({(0, 1)})), "Graph(n=3, edges=frozenset({(0, 1)}))", True),
    (MatchingDecomposition, (2, 3, 1, ((1, ((0, 1),)),)),
     "MatchingDecomposition(n=2, t=3, r=1, listed=((1, ((0, 1),)),))", True),
    (Violation, ("x", (0,), (1,), "d"),
     "Violation(invariant='x', matchings=(0,), witness=(1,), detail='d')", True),
    (VerificationReport, ((), {2: 3}, 4, 0),
     "VerificationReport(violations=(), degree_histogram={2: 3}, max_edge_degree_sum=4, "
     "isolated_vertices=0, notes=(), edge_degree_sums={})", False),
    (BoundVerdict, (10, 3, 5, True, "above-quarter", Fraction(3), True, "w", ("a",)),
     "BoundVerdict(n=10, r=3, t=5, feasible=True, regime='above-quarter', "
     "hard_bound=Fraction(3, 1), tight=True, witness='w', advisory=('a',))", True),
    (DistanceCertificate, (10, 3, 5, 6, 90, 90, Fraction(90), 0, True),
     "DistanceCertificate(n=10, r=3, t=5, min_pairwise_distance=6, double_count_lhs=90, "
     "pair_distance_sum=90, column_product_cap=Fraction(90, 1), slack=0, passed=True)", True),
    (LayerRow, (1, 5, 5, True), "LayerRow(index=1, size=5, binomial_floor=5, meets=True)", True),
    (AuditReport, (4, 1, 4, False, {0: 4}, 0, 4, Fraction(1), Fraction(0), Fraction(1, 2), 4, 2,
                   (("a", "pass", "d"),), (), ()),
     "AuditReport(n=4, r=1, t=4, doubled=False, edge_classes={0: 4}, e1=0, e0=4, "
     "s=Fraction(1, 1), s_prime=Fraction(0, 1), f_min_degree_threshold=Fraction(1, 2), "
     "f_vertex_count=4, f_achieved_min_degree=2, assertions=(('a', 'pass', 'd'),), "
     "bfs_violations=(), layers=())", False),
    (Budget, (10, 1.5), "Budget(max_nodes=10, max_seconds=1.5)", True),
    (SearchOutcome, ("SAT",),
     "SearchOutcome(verdict='SAT', certificate=None, nodes_explored=0, wall_time=0.0, t=None, "
     "note='')", True),
    (APFreeSet, (4, (1, 2, 4), "manual"),
     "APFreeSet(limit=4, elements=(1, 2, 4), method='manual', note='')", True),
]


@pytest.mark.parametrize("cls, args, text, hashable", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_records_are_frozen_values(cls, args, text, hashable):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert by_position == by_keyword and by_position is not by_keyword
    assert by_position != args
    assert repr(by_position) == text
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(by_position)
    with pytest.raises(AttributeError):
        setattr(by_position, cls._fields[0], None)
    for bad in ({"no_such_field": None}, {cls._fields[0]: args[0]}):     # unknown, given twice
        with pytest.raises(TypeError):
            cls(*args, **bad)


def test_a_report_owns_its_default_dict_and_a_budget_checks_itself():
    first, second = VerificationReport((), {}, 0, 0), VerificationReport((), {}, 0, 0)
    assert first.edge_degree_sums == {} and first.edge_degree_sums is not second.edge_degree_sums
    with pytest.raises(TypeError):      # isolated_vertices has no default
        VerificationReport((), {}, 0)
    # the benchmark's one read of the dropped statistic: a class attribute, no field
    assert first.max_pair_intersection is None and "max_pair_intersection" not in first._fields
    with pytest.raises(ParameterError):
        Budget(max_nodes=-1)
