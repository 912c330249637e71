"""Bound engine and audit tests; all comparisons are exact rational."""

import tracemalloc
from fractions import Fraction

import pytest

from oracles import max_pair_intersection
from rsgraphs import (
    MatchingDecomposition,
    ParameterError,
    PreconditionError,
    disjoint_union,
    distance_certificate,
    double_cover,
    expansion_audit,
    feasibility_verdict,
    hypercube_rs,
    kneser_rs,
    max_r,
    parse_rsg,
    verify_decomposition,
)
from rsgraphs import bounds
from rsgraphs.bounds import NOT_APPLICABLE, PASS


class TestMaxR:
    def test_odd_branch(self):
        assert max_r(10, 5) == 3

    def test_even_branch(self):
        assert max_r(6, 4) == Fraction(9, 5)

    def test_even_branch_petersen_point(self):
        assert max_r(10, 6) == Fraction(20, 7)

    def test_large_t_cross_multiplied(self):
        n, t = 4 * 10 ** 6, 10 ** 6 + 1
        value = max_r(n, t)
        # (n/4)(1 + 1/t) for odd t, checked by cross multiplication
        assert value * 4 * t == n * (t + 1)
        assert value > Fraction(n, 4)

    def test_decreasing_in_t_per_parity(self):
        for n in (7, 16):
            odd = [max_r(n, t) for t in (1, 3, 5, 7, 9)]
            even = [max_r(n, t) for t in (2, 4, 6, 8)]
            assert odd == sorted(odd, reverse=True)
            assert even == sorted(even, reverse=True)

    def test_always_above_quarter(self):
        for n in (4, 10, 1000):
            for t in range(1, 30):
                assert max_r(n, t) > Fraction(n, 4)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            max_r(0, 5)
        with pytest.raises(ParameterError):
            max_r(5, 0)


class TestFeasibilityVerdict:
    def test_infeasible_above_cap(self):
        v = feasibility_verdict(10, 3, 6)
        assert not v.feasible
        assert v.regime == "above-quarter"
        assert v.hard_bound == Fraction(20, 7)

    def test_tight_at_kneser_point(self):
        v = feasibility_verdict(10, 3, 5)
        assert v.feasible and v.tight
        assert v.hard_bound == 3

    def test_quarter_regime_cap_not_violated(self):
        v = feasibility_verdict(16, 4, 40)
        assert v.feasible
        assert v.regime == "exactly-quarter"
        assert v.hard_bound is None
        assert v.advisory

    def test_quarter_regime_cap_violated(self):
        v = feasibility_verdict(16, 4, 41)
        assert not v.feasible

    def test_log2_cap_without_the_power_of_two(self):
        for n in range(1, 301):
            for t in range(1, 121):
                assert bounds._log2_cap_holds(t, n) == (2 ** t <= (2 * n) ** 8), (n, t)

    def test_quarter_regime_huge_t_is_cheap(self):
        tracemalloc.start()
        try:
            v = feasibility_verdict(4, 1, 10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not v.feasible and v.regime == "exactly-quarter"
        assert peak < 2 ** 20

    def test_below_quarter_is_advisory_only(self):
        v = feasibility_verdict(100, 22, 1000)
        assert v.feasible
        assert v.regime == "below-quarter"
        assert any("K = " in line for line in v.advisory)

    def test_impossible_parameters(self):
        with pytest.raises(ParameterError):
            feasibility_verdict(5, 3, 2)

    def test_negative_r_refused(self):
        with pytest.raises(ParameterError):
            feasibility_verdict(10, -1, 5)


class TestDistanceCertificate:
    def test_kneser2(self):
        cert = distance_certificate(kneser_rs(2))
        assert cert.min_pairwise_distance == 6 == 2 * cert.r
        assert cert.double_count_lhs <= cert.pair_distance_sum <= cert.column_product_cap

    def test_t1_trivial(self):
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1), (2, 3)]], 2)
        cert = distance_certificate(dec)
        assert cert.min_pairwise_distance == 4 == 2 * cert.r
        assert cert.double_count_lhs <= cert.pair_distance_sum <= cert.column_product_cap

    def test_hypercube4_augmented(self):
        cert = distance_certificate(hypercube_rs(4, augmented=True))
        assert cert.min_pairwise_distance >= 8
        assert cert.double_count_lhs <= cert.pair_distance_sum <= cert.column_product_cap

    def test_partial_matchings_rejected(self):
        # isolated vertex keeps |V_1| = 2 but r = 1 on a 3-vertex graph is fine;
        # force |V_i| != 2r with an undersized matching instead
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1)], [(2, 3)]], 1)
        cert = distance_certificate(dec)  # all |V_i| = 2 = 2r: fine
        assert cert.double_count_lhs <= cert.pair_distance_sum <= cert.column_product_cap
        bad = MatchingDecomposition.from_matchings(4, [[(0, 1), (2, 3)], []], 2)
        with pytest.raises(PreconditionError):
            distance_certificate(bad)

    def test_unverified_rejected(self):
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1)], [(2, 3)]], 2)    # sizes 1 != r
        with pytest.raises(PreconditionError):
            distance_certificate(dec)

    def test_consistent_with_intersection_bound(self):
        # pairwise distance >= 2r is implied by |V_i cap V_j| <= r; cross-validate
        for dec in (kneser_rs(2), kneser_rs(3), hypercube_rs(3), hypercube_rs(4, True)):
            assert verify_decomposition(dec).passed and max_pair_intersection(dec) <= dec.r
            assert distance_certificate(dec).min_pairwise_distance >= 2 * dec.r


class TestExpansionAudit:
    def _assertion(self, report, name):
        return next(status for key, status, _ in report.assertions if key == name)

    def test_hypercube2_tight(self):
        report = expansion_audit(hypercube_rs(2))
        assert not report.doubled
        assert (report.e1, report.e0) == (0, 4)
        assert 4 * (2 * report.e1 + report.e0) == report.n * report.t
        assert self._assertion(report, "cauchy-schwarz") == PASS
        assert report.passed

    def test_hypercube4_augmented_tight_on_double_cover(self):
        report = expansion_audit(hypercube_rs(4, augmented=True))
        assert report.doubled  # antipodal edges create odd cycles
        assert report.e1 == 0
        assert 4 * (2 * report.e1 + report.e0) == report.n * report.t
        assert self._assertion(report, "cauchy-schwarz") == PASS
        assert report.passed

    def test_path_decomposition_quarter_point(self):
        # P4 with singleton matchings sits exactly at r = n/4 = 1
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1)], [(1, 2)], [(2, 3)]], 1)
        report = expansion_audit(dec)
        assert self._assertion(report, "degree-sum-classes") == PASS
        assert self._assertion(report, "cauchy-schwarz") == PASS
        assert report.passed

    def test_not_applicable_off_quarter(self):
        # same path plus an isolated vertex: r = 1 != n/4 = 5/4
        dec = MatchingDecomposition.from_matchings(5, [[(0, 1)], [(1, 2)], [(2, 3)]], 1)
        report = expansion_audit(dec)
        assert self._assertion(report, "degree-sum-classes") == PASS
        assert self._assertion(report, "cauchy-schwarz") == NOT_APPLICABLE
        assert report.passed

    @pytest.mark.parametrize("k", range(2, 8))
    def test_hypercube_sweep(self, k):
        report = expansion_audit(hypercube_rs(k))
        assert self._assertion(report, "degree-sum-classes") == PASS
        assert self._assertion(report, "bfs-distance-claims") == PASS
        assert self._assertion(report, "incidence-degree") == PASS
        assert self._assertion(report, "cauchy-schwarz") == PASS
        assert not report.bfs_violations

    def test_kneser_families_audit_cleanly(self):
        for dec in (kneser_rs(1), kneser_rs(2), double_cover(kneser_rs(2)),
                    disjoint_union(kneser_rs(1), 3)):
            report = expansion_audit(dec)
            assert self._assertion(report, "degree-sum-classes") == PASS
            assert self._assertion(report, "bfs-distance-claims") == PASS

    def test_huge_header_builds_no_adjacency(self):
        # the bipartiteness walk and H keep lists only for vertices with an
        # edge: no per-vertex set (over 200 bytes each) or list
        n = 200_000
        dec = parse_rsg(f"rsg {n} 0 0\n")
        tracemalloc.start()
        try:
            report = expansion_audit(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and not report.doubled
        assert report.f_vertex_count == 0
        assert peak < 32 * n

    def test_wide_header_colors_only_vertices_with_an_edge(self):
        # the bipartiteness colouring is a dict over the vertices with an
        # edge, so a header's n costs the audit no memory at all
        dec = parse_rsg("rsg 10000000 0 0\n")
        tracemalloc.start()
        try:
            report = expansion_audit(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and not report.doubled
        assert peak < 1 << 20

    def test_cover_audit_builds_no_cover_lists(self):
        # both are audited on the double cover, which the audit peels and walks
        # on the input's own lists (the lift lemma): peaks of 0.71 and 0.26 MiB
        # on Python 3.11, against 1.80 and 0.58 MiB when the audit built the cover's
        for dec, mib in ((hypercube_rs(10, augmented=True), 1.2), (kneser_rs(5), 0.4)):
            assert verify_decomposition(dec).passed     # the verifier's memory is not the audit's
            tracemalloc.start()
            try:
                report = expansion_audit(dec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.doubled and report.f_vertex_count == report.n
            assert peak < mib * 2 ** 20

    def test_memory_linear_in_t(self):
        # t disjoint one-edge matchings: F is empty, so the audit keeps no
        # t-bit mask per vertex and its peak grows like the edge lists
        def peak(t):
            edges = [(2 * i, 2 * i + 1) for i in range(t)]
            dec = MatchingDecomposition.from_matchings(2 * t, [[e] for e in edges], 1)
            tracemalloc.start()
            try:
                report = expansion_audit(dec)
                used = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.passed and report.f_vertex_count == 0
            return used

        small, large = peak(1_500), peak(6_000)
        assert large < 5.5 * small

    def test_unverified_rejected(self):
        dec = MatchingDecomposition.from_matchings(4, [[(0, 1)], [(2, 3)]], 2)    # sizes 1 != r
        with pytest.raises(PreconditionError):
            expansion_audit(dec)


class TestTightnessAcrossFamilies:
    def test_kneser_meets_cap_exactly(self):
        for k in (1, 2, 3):
            dec = kneser_rs(k)
            assert Fraction(dec.r) == max_r(dec.graph.n, dec.t)

    def test_disjoint_union_stays_tight(self):
        dec = disjoint_union(kneser_rs(2), 3)
        assert Fraction(dec.r) == max_r(dec.graph.n, dec.t)

    def test_double_cover_not_above_cap(self):
        dec = double_cover(kneser_rs(2))
        assert Fraction(dec.r) <= max_r(dec.graph.n, dec.t)
