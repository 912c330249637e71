"""Search tests: soundness of certificates, agreement with the hard cap,
cross-checks between the pruned and unpruned explorations, pinned node
counts, and the incremental search state against the verifier."""

import itertools
import os
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rsgraphs import (
    Budget,
    Graph,
    INDETERMINATE,
    MatchingDecomposition,
    ParameterError,
    ResourceLimitError,
    SAT,
    UNSAT,
    double_cover,
    emit_rsg,
    exists_rs,
    hypercube_rs,
    kneser_rs,
    max_r,
    max_t_on_graph,
    verify_decomposition,
)
from rsgraphs import core, search
from rsgraphs.bounds import min_vertices
from oracles import OracleState

FAST = Budget(max_nodes=500_000, max_seconds=20.0)


class TestExistsRS:
    def test_triangle(self):
        out = exists_rs(3, 1, 3)
        assert out.verdict == SAT
        assert out.certificate.graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_two_triangles(self):
        out = exists_rs(6, 2, 3)
        assert out.verdict == SAT
        assert verify_decomposition(out.certificate).passed

    def test_unsat_by_shortcut(self):
        out = exists_rs(6, 2, 4)
        assert out.verdict == UNSAT
        assert "shortcut" in out.note

    def test_unsat_without_shortcut(self):
        out = exists_rs(6, 2, 4, eq1_shortcut=False)
        assert out.verdict == UNSAT
        assert out.nodes_explored > 0

    def test_10_3_6_unsat_both_ways(self):
        assert exists_rs(10, 3, 6).verdict == UNSAT
        full = exists_rs(10, 3, 6, eq1_shortcut=False,
                         budget=Budget(max_nodes=5_000_000, max_seconds=120.0))
        assert full.verdict in (UNSAT, INDETERMINATE)
        assert full.verdict != SAT

    def test_impossible_parameters(self):
        with pytest.raises(ParameterError):
            exists_rs(5, 3, 2)

    def test_degenerate_parameters(self):
        assert exists_rs(4, 0, 3).verdict == SAT
        assert exists_rs(4, 2, 0).verdict == SAT

    def test_single_matching(self):
        out = exists_rs(4, 2, 1)
        assert out.verdict == SAT
        assert len(out.certificate.graph.edges) == 2

    def test_determinism(self):
        a = exists_rs(6, 2, 3)
        b = exists_rs(6, 2, 3)
        assert a.verdict == b.verdict
        assert a.certificate == b.certificate
        assert a.nodes_explored == b.nodes_explored

    def test_budget_indeterminate(self):
        out = exists_rs(7, 2, 6, eq1_shortcut=False, budget=Budget(max_nodes=50, max_seconds=30))
        assert out.verdict == INDETERMINATE
        assert out.note == "node budget exhausted (50 nodes)"

    def test_zero_time_budget_stops_at_first_node(self):
        out = exists_rs(12, 3, 7, budget=Budget(max_seconds=0))
        assert out.verdict == INDETERMINATE
        assert out.nodes_explored == 1
        assert out.note == "time budget exhausted (0 s, 1 nodes)"

    def test_budget_stops_before_memory_grows_with_t(self):
        # matching slots open with the search, so a 10-node budget on a
        # million matchings stops before any t-long allocation
        tracemalloc.start()
        try:
            out = exists_rs(8, 2, 10 ** 6, Budget(max_nodes=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.verdict, out.nodes_explored) == (INDETERMINATE, 10)
        assert out.note == "node budget exhausted (10 nodes)"
        assert peak < 2 ** 20

    @pytest.mark.parametrize("t, verdict", [(1, SAT), (1000, INDETERMINATE)])
    def test_state_sized_by_reachable_labels(self, t, verdict):
        # labels stay below 2rt, so n = 10^8 allocates nothing n-long: not in
        # the search state, nor in verifying the one-edge certificate
        tracemalloc.start()
        try:
            out = exists_rs(10 ** 8, 1, t, Budget(max_nodes=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.verdict == verdict
        assert out.nodes_explored == (0 if verdict == SAT else 10)
        assert peak < 2 ** 20

    def test_degenerate_certificate_is_small_and_verified(self):
        # t empty matchings are not stored, so a billion of them cost nothing
        t = 10 ** 9
        tracemalloc.start()
        try:
            out = exists_rs(8, 0, t, Budget(max_nodes=10))
            assert verify_decomposition(out.certificate).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.verdict, out.certificate.t, out.certificate.listed) == (SAT, t, ())
        assert peak < 2 ** 16

    def test_labels_over_the_size_budget_are_refused_before_the_state(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the search state was built over the size budget")
        with monkeypatch.context() as patch:
            patch.setattr(search, "_State", unreachable)
            with pytest.raises(ResourceLimitError, match="^200000000000 vertex labels would "
                                                         "exceed the size budget 2000000$"):
                exists_rs(10 ** 12, 10 ** 11, 1, Budget(max_nodes=1))
        # the budget's one class for constructions and search, a usage error to `rsg`
        assert issubclass(ResourceLimitError, ParameterError)
        # the budget bounds min(n, 2rt), the labels the state allocates
        monkeypatch.setattr(core, "SIZE_BUDGET", 100)
        assert exists_rs(1000, 1, 50, Budget(max_nodes=1)).verdict == INDETERMINATE
        assert exists_rs(100, 1, 51, Budget(max_nodes=1)).verdict == INDETERMINATE
        with pytest.raises(ParameterError, match="^102 vertex labels"):
            exists_rs(1000, 1, 51, Budget(max_nodes=1))

    @pytest.mark.parametrize("t, nodes, bound", [
        # headroom over the tracemalloc peaks (Python 3.11) of the search that walked
        # A_x for each row: 3.2 MiB at t = 2, where only the seeded M_0 is closed,
        # and 5.7 MiB at t = 3, which closes a 1,000-edge M_1; with `apart`, 3.1
        # and 6.6 MiB
        (2, 3_000_997, 4 << 20),
        (3, 7_998_995, 8 << 20),
    ])
    def test_large_r_memory(self, t, nodes, bound):
        # apart[v] holds up to n bits for each of the 2rt labels, as nbr[v] does
        tracemalloc.start()
        try:
            out = exists_rs(4000, 1000, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.verdict, out.nodes_explored) == (SAT, nodes)
        assert peak < bound, peak

    def test_deep_search_needs_no_recursion(self):
        # 1,199 edges placed one below the other: deeper than the recursion limit
        out = exists_rs(4000, 1, 1200)
        assert (out.verdict, out.nodes_explored) == (SAT, 1_199)
        assert out.certificate.t == 1200
        assert verify_decomposition(out.certificate).passed

    def test_kneser_tightness_witness_k1(self):
        # the smallest tight point: n = 3, t = 3, r = formula value 1
        out = exists_rs(3, 1, 3)
        assert out.verdict == SAT
        assert Fraction(1) == max_r(3, 3)


class TestSearchConsistency:
    def test_pruned_matches_unpruned_small_sweep(self):
        for n in range(2, 7):
            for r in (1, 2):
                if 2 * r > n:
                    continue
                for t in range(1, 5):
                    fast = exists_rs(n, r, t, eq1_shortcut=False, budget=FAST)
                    slow = exists_rs(n, r, t, eq1_shortcut=False, budget=FAST,
                                     matching_order_pruning=False)
                    assert fast.verdict == slow.verdict, (n, r, t)

    def test_never_sat_above_cap(self):
        for n in range(2, 8):
            for r in (1, 2, 3):
                if 2 * r > n:
                    continue
                for t in range(1, 7):
                    if Fraction(r) <= max_r(n, t):
                        continue
                    out = exists_rs(n, r, t, eq1_shortcut=False, budget=FAST)
                    assert out.verdict != SAT, (n, r, t)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_row_cap_matches_theorem_free_search(self, n):
        # the per-matching row cap prunes only subtrees without a SAT leaf:
        # same verdict, same first certificate, a subset of the nodes; with
        # matching_order_pruning off the cap is off, so past the root
        # shortcut the two searches are the same search, to the same stop
        cert = lambda out: out.certificate and emit_rsg(out.certificate)
        for r, t in itertools.product((1, 2, 3), range(1, 9)):
            if 2 * r > n:
                continue
            capped = exists_rs(n, r, t)
            free = exists_rs(n, r, t, eq1_shortcut=False)
            assert capped.verdict == free.verdict != INDETERMINATE, (n, r, t)
            assert cert(capped) == cert(free), (n, r, t)
            assert capped.nodes_explored <= free.nodes_explored, (n, r, t)
            plain = exists_rs(n, r, t, budget=FAST, matching_order_pruning=False)
            if "shortcut" not in plain.note:
                free = exists_rs(n, r, t, budget=FAST, eq1_shortcut=False,
                                 matching_order_pruning=False)
                assert (plain.verdict, plain.nodes_explored, cert(plain)) == \
                    (free.verdict, free.nodes_explored, cert(free)), (n, r, t)

    def test_min_vertices_matches_max_r(self):
        for r, t in itertools.product(range(1, 17), range(1, 65)):
            m = min_vertices(r, t)
            for n in range(1, 65):
                assert (Fraction(r) <= max_r(n, t)) == (n >= m), (n, r, t)


class TestSearchSpace:
    """Node counts pinned so that a change to pruning or ordering states its effect."""

    @pytest.mark.parametrize("args, kwargs, nodes", [
        ((8, 2, 8), {"eq1_shortcut": False}, 59_835),
        ((7, 2, 5), {"eq1_shortcut": False}, 1_754),
        ((6, 2, 4), {"eq1_shortcut": False}, 142),
    ])
    def test_unsat_node_count(self, args, kwargs, nodes):
        out = exists_rs(*args, **kwargs)
        assert (out.verdict, out.nodes_explored) == (UNSAT, nodes)

    @pytest.mark.parametrize("args, verdict, nodes", [
        ((11, 3, 6), UNSAT, 2_051_456),
        ((12, 3, 7), SAT, 1_269_991),
    ])
    def test_ladder_node_count(self, args, verdict, nodes):
        # the theorem-free search
        out = exists_rs(*args, eq1_shortcut=False)
        assert (out.verdict, out.nodes_explored) == (verdict, nodes)

    @pytest.mark.parametrize("args, verdict, nodes", [
        ((7, 2, 5), UNSAT, 596),
        ((8, 2, 8), UNSAT, 10_600),
        ((10, 3, 4), SAT, 497),
        ((11, 3, 6), UNSAT, 972_981),
        ((12, 3, 7), SAT, 596_344),
    ])
    def test_row_capped_node_count(self, args, verdict, nodes):
        out = exists_rs(*args)
        assert (out.verdict, out.nodes_explored) == (verdict, nodes)

    @pytest.mark.parametrize("args", [(7, 2, 5), (10, 3, 4)])
    def test_row_capped_node_budget_stops(self, args):
        full = exists_rs(*args)
        fields = lambda out: (out.verdict, out.nodes_explored, out.note,
                              out.certificate and emit_rsg(out.certificate))
        # a budget of B nodes stops at node B, the last node of the search
        # included; only a larger one lets the search end
        for max_nodes in range(full.nodes_explored + 3):
            out = exists_rs(*args, budget=Budget(max_nodes=max_nodes, max_seconds=1e9))
            if max_nodes <= full.nodes_explored:
                stop = max(max_nodes, 1)
                assert fields(out) == (INDETERMINATE, stop, f"node budget exhausted ({stop} nodes)",
                                       None), max_nodes
            else:
                assert fields(out) == fields(full), max_nodes

    @pytest.mark.parametrize("graph, r, exact_cover, verdict, t, nodes", [
        ("petersen", 3, True, SAT, 5, 105),
        ("petersen", 3, False, SAT, 5, 105),
        ("q4aug", 4, True, SAT, 10, 914),
        ("petersen-double-cover", 3, True, SAT, 10, 69_673),
        ("petersen-double-cover", 3, False, SAT, 10, 309_934),
    ])
    def test_fixed_graph_node_count(self, graph, r, exact_cover, verdict, t, nodes):
        g = {"petersen": lambda: kneser_rs(2).graph,
             "q4aug": lambda: hypercube_rs(4, augmented=True).graph,
             "petersen-double-cover": lambda: double_cover(kneser_rs(2)).graph}[graph]()
        out = max_t_on_graph(g, r, exact_cover=exact_cover)
        assert (out.verdict, out.t, out.nodes_explored) == (verdict, t, nodes)

    @pytest.mark.skipif(os.environ.get("RSG_SLOW_TESTS") != "1",
                        reason="minutes of search; set RSG_SLOW_TESTS=1")
    @pytest.mark.parametrize("kwargs, nodes", [
        ({}, 130_278_810),
        ({"eq1_shortcut": False}, 275_881_966),
    ])
    def test_12_3_8_unsat(self, kwargs, nodes):
        out = exists_rs(12, 3, 8, budget=Budget(max_nodes=nodes + 1, max_seconds=1e9), **kwargs)
        assert (out.verdict, out.nodes_explored) == (UNSAT, nodes)


def _masks(n, t, matchings, closed=()):
    """The masks a `_State` should hold for these matchings, the indices in `closed` closed,
    rebuilt from scratch."""
    apart, nbr, members = [0] * n, [0] * n, [0] * t
    for i, m in enumerate(matchings):
        for x, y in m:
            nbr[x] |= 1 << y
            nbr[y] |= 1 << x
            members[i] |= (1 << x) | (1 << y)
    for j in closed:
        for v in range(n):
            if members[j] >> v & 1:
                apart[v] |= members[j]
    used = max((y + 1 for m in matchings for _, y in m), default=0)
    return apart, nbr, members, used


class TestStateOracle:
    """The three tests of `search._candidates`, one candidate at a time, against the verifier.

    `OracleState.try_add` makes the tests; the verifier is the package's root
    of trust, and `TestCandidates` checks `_candidates` against `try_add`.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_try_add_and_remove_match_verifier(self, data):
        n = data.draw(st.integers(2, 8))
        t = data.draw(st.integers(1, 4))
        pairs = list(itertools.combinations(range(n), 2))
        state = OracleState(n, t)
        matchings = [[] for _ in range(t)]
        added = []
        for _ in range(data.draw(st.integers(1, 40))):
            if added and data.draw(st.booleans()):
                i, x, y, prev_used = added.pop()
                state.remove(i, x, y, prev_used)
                matchings[i].remove((x, y))
                assert (state.apart, state.nbr, state.members, state.used) == \
                    _masks(n, t, matchings)
                continue
            i = data.draw(st.integers(0, t - 1))
            x, y = data.draw(st.sampled_from(pairs))
            trial = [list(m) + [(x, y)] * (j == i) for j, m in enumerate(matchings)]
            report = verify_decomposition(MatchingDecomposition.from_matchings(n, trial, 0))
            expected = not any(v.invariant in ("not-a-matching", "not-induced", "not-edge-disjoint")
                               for v in report.violations)
            prev_used = state.used
            assert state.try_add(i, x, y) == expected, (matchings, i, (x, y))
            if expected:
                matchings[i].append((x, y))
                added.append((i, x, y, prev_used))
            assert (state.apart, state.nbr, state.members, state.used) == \
                _masks(n, t, matchings)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_apart_tracks_the_closed_matchings(self, data):
        # edges pushed and popped in the search's order: each joins M_{d // r} at
        # depth d, the edge that fills a matching closes it, and popping that
        # edge reopens it first
        n = data.draw(st.integers(2, 9))
        r = data.draw(st.integers(1, n // 2))
        t = data.draw(st.integers(1, 4))
        pairs = list(itertools.combinations(range(n), 2))
        state = OracleState(n, t)
        matchings = [[] for _ in range(t)]
        placed = []                    # (i, x, y, prev_used, what `close` saved or None)
        for _ in range(data.draw(st.integers(1, 60))):
            if placed and (len(placed) == t * r or data.draw(st.booleans())):
                i, x, y, prev_used, saved = placed.pop()
                if saved is not None:
                    state.reopen(saved)
                state.remove(i, x, y, prev_used)
                matchings[i].remove((x, y))
            else:
                i = len(placed) // r
                x, y = data.draw(st.sampled_from(pairs))
                prev_used = state.used
                if not state.try_add(i, x, y):
                    continue
                matchings[i].append((x, y))
                saved = state.close(i) if len(matchings[i]) == r else None
                placed.append((i, x, y, prev_used, saved))
            closed = [j for j in range(t) if len(matchings[j]) == r]
            assert (state.apart, state.nbr, state.members, state.used) == \
                _masks(n, t, matchings, closed)


class TestMaxTOnGraph:
    def test_petersen_exact_cover(self):
        g = kneser_rs(2).graph
        out = max_t_on_graph(g, 3, exact_cover=True)
        assert out.verdict == SAT and out.t == 5
        assert verify_decomposition(out.certificate).passed

    def test_augmented_hypercube_exact_cover(self):
        g = hypercube_rs(4, augmented=True).graph
        out = max_t_on_graph(g, 4, exact_cover=True)
        assert out.verdict == SAT and out.t == 10
        assert verify_decomposition(out.certificate).passed

    def test_star_has_no_size2_induced_matching(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        out = max_t_on_graph(g, 2)
        assert out.verdict == SAT and out.t == 0

    def test_zero_time_budget_stops_at_first_node(self):
        for exact_cover in (False, True):
            out = max_t_on_graph(kneser_rs(2).graph, 3, budget=Budget(max_seconds=0),
                                 exact_cover=exact_cover)
            assert out.verdict == INDETERMINATE
            assert out.nodes_explored == 1

    def test_one_node_budget_bounds_all_the_work(self):
        # this graph has 6.4M induced matchings of size 4; the search places
        # edges one at a time, so it builds none of them before node 1
        g = hypercube_rs(6, augmented=True).graph
        for exact_cover in (False, True):
            tracemalloc.start()
            try:
                started = time.monotonic()
                out = max_t_on_graph(g, 4, budget=Budget(max_nodes=1, max_seconds=100),
                                     exact_cover=exact_cover)
                elapsed = time.monotonic() - started
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (out.verdict, out.nodes_explored) == (INDETERMINATE, 1)
            assert out.note.startswith("node budget exhausted (1 nodes)")
            assert elapsed < 1.0 and peak < 100 << 20, (elapsed, peak)

    def test_packing_on_petersen(self):
        out = max_t_on_graph(kneser_rs(2).graph, 3)
        assert out.verdict == SAT and out.t == 5

    def test_exact_cover_divisibility(self):
        g = kneser_rs(2).graph  # 15 edges
        with pytest.raises(ParameterError):
            max_t_on_graph(g, 4, exact_cover=True)

    def test_exact_cover_unsat(self):
        # triangle with r = 3: no induced matching of size 3 exists at all
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        out = max_t_on_graph(g, 3, exact_cover=True)
        assert out.verdict == UNSAT
