"""Generator tests: parameter identities plus verifier certification of every family."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest

from oracles import degrees, is_bipartite
from rsgraphs import (
    APFreeSet,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    ap_free_set,
    cayley_rs,
    disjoint_union,
    emit_rsg,
    double_cover,
    has_three_term_progression,
    hypercube_rs,
    kneser_rs,
    verify_decomposition,
    MatchingDecomposition,
)


def adjacency(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def raises_before_allocating(build):
    """build() raises ResourceLimitError with under 64 KB traced: it built no output."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="size budget 2000000"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def girth(g):
    """Shortest cycle length via BFS from every vertex (None if forest)."""
    adj = adjacency(g)
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: None}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


class TestKneser:
    def test_k1_is_triangle(self):
        dec = kneser_rs(1)
        assert (dec.graph.n, dec.t, dec.r) == (3, 3, 1)
        assert dec.graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})
        assert verify_decomposition(dec).passed

    def test_k2_is_petersen(self):
        dec = kneser_rs(2)
        assert (dec.graph.n, dec.t, dec.r) == (10, 5, 3)
        assert all(d == 3 for d in degrees(dec.graph))
        assert girth(dec.graph) == 5
        assert verify_decomposition(dec).passed

    def test_k3_formula(self):
        dec = kneser_rs(3)
        assert (dec.graph.n, dec.t, dec.r) == (35, 7, 10)
        assert Fraction(dec.r) == Fraction(35, 4) * Fraction(8, 7)
        assert verify_decomposition(dec).passed

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parameter_identity(self, k):
        dec = kneser_rs(k)
        n, t, r = dec.graph.n, dec.t, dec.r
        assert r * 4 * t == n * (t + 1)
        assert n == math.comb(2 * k + 1, k)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            kneser_rs(10)

    def test_budget_refuses_any_k_at_once(self):
        raises_before_allocating(lambda: kneser_rs(10))
        raises_before_allocating(lambda: kneser_rs(10 ** 9))

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            kneser_rs(0)


class TestHypercube:
    def test_k2_plain(self):
        dec = hypercube_rs(2)
        assert (dec.graph.n, dec.t, dec.r) == (4, 4, 1)
        assert verify_decomposition(dec).passed

    def test_k3_plain(self):
        dec = hypercube_rs(3)
        assert (dec.graph.n, dec.t, dec.r) == (8, 6, 2)
        assert verify_decomposition(dec).passed

    def test_k4_augmented(self):
        dec = hypercube_rs(4, augmented=True)
        assert (dec.graph.n, dec.t, dec.r) == (16, 10, 4)
        assert len(dec.graph.edges) == 40
        assert all(d == 5 for d in degrees(dec.graph))
        assert verify_decomposition(dec).passed

    @pytest.mark.parametrize("k", range(2, 9))
    def test_quarter_ratio(self, k):
        dec = hypercube_rs(k)
        assert 4 * dec.r == dec.graph.n
        assert dec.t == 2 * k

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_augmented_regularity(self, k):
        dec = hypercube_rs(k, augmented=True)
        assert dec.t == 2 * k + 2
        assert all(d == k + 1 for d in degrees(dec.graph))

    @pytest.mark.parametrize("k, augmented", [(18, False), (18, True), (10 ** 9, False)])
    def test_over_budget(self, k, augmented):
        # Q_17 has n + |E| = 1,245,184; Q_18 has 2,621,440
        raises_before_allocating(lambda: hypercube_rs(k, augmented))

    def test_augmented_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            hypercube_rs(3, augmented=True)


class TestDisjointUnion:
    def test_triangle_times_two(self):
        dec = disjoint_union(kneser_rs(1), 2)
        assert (dec.graph.n, dec.t, dec.r) == (6, 3, 2)
        assert verify_decomposition(dec).passed

    def test_identity(self):
        base = kneser_rs(2)
        dec = disjoint_union(base, 1)
        assert dec == base

    def test_petersen_times_three(self):
        dec = disjoint_union(kneser_rs(2), 3)
        assert (dec.graph.n, dec.t, dec.r) == (30, 5, 9)
        assert verify_decomposition(dec).passed

    def test_ratio_preserved(self):
        base = kneser_rs(2)
        dec = disjoint_union(base, 4)
        assert Fraction(dec.r, dec.graph.n) == Fraction(base.r, base.graph.n)

    def test_zero_copies_rejected(self):
        with pytest.raises(ParameterError):
            disjoint_union(kneser_rs(1), 0)

    def test_over_budget(self):
        base = kneser_rs(2)     # n + |E| = 25
        raises_before_allocating(lambda: disjoint_union(base, 80_001))
        raises_before_allocating(lambda: disjoint_union(base, 10 ** 9))

    def test_empty_matchings_cost_nothing_per_copy(self):
        # the budget counts n + |E|, not t: 1000 empty matchings times 10^6
        # copies must not be 10^9 steps
        base = MatchingDecomposition.from_matchings(1, [[]] * 1000, 0)
        dec = disjoint_union(base, 10 ** 6)
        assert (dec.graph.n, dec.t, dec.r) == (10 ** 6, 1000, 0)
        assert dec.graph.edges == frozenset() and set(dec.matchings) == {()}

    def test_unverified_input_rejected(self):
        bad = MatchingDecomposition.from_matchings(3, [[(0, 1)]], 2)
        with pytest.raises(PreconditionError):
            disjoint_union(bad, 2)


class TestDoubleCover:
    def test_triangle_gives_six_cycle(self):
        dec = double_cover(kneser_rs(1))
        assert (dec.graph.n, dec.r, dec.t) == (6, 2, 3)
        assert all(d == 2 for d in degrees(dec.graph))
        assert girth(dec.graph) == 6
        assert verify_decomposition(dec).passed

    def test_petersen_gives_desargues_parameters(self):
        dec = double_cover(kneser_rs(2))
        assert (dec.graph.n, dec.r, dec.t) == (20, 6, 5)
        assert verify_decomposition(dec).passed

    def test_output_is_bipartite_with_equal_parts(self):
        base = kneser_rs(2)
        dec = double_cover(base)
        coloring = is_bipartite(dec.graph)
        assert coloring is not None
        n = base.graph.n
        assert all(u < n <= v for u, v in dec.graph.edges)

    def test_bipartite_input_gives_two_copies(self):
        base = hypercube_rs(2)
        dec = double_cover(base)
        assert (dec.graph.n, dec.r, dec.t) == (8, 2, 4)
        assert verify_decomposition(dec).passed
        # Q2 is a 4-cycle; its double cover splits into two disjoint 4-cycles
        assert all(d == 2 for d in degrees(dec.graph))


class TestAPFreeSet:
    def test_greedy_base3_13(self):
        s = ap_free_set("greedy-base3", 13)
        assert s.elements == (1, 2, 4, 5, 10, 11, 13)

    def test_two_elements_trivial(self):
        for method in ("greedy-base3", "behrend"):
            s = ap_free_set(method, 2)
            assert s.elements == (1, 2)

    def test_behrend_small_falls_back(self):
        s = ap_free_set("behrend", 5)
        assert s.method == "greedy-base3"
        assert s.note

    def test_behrend_never_falls_back_from_8_up(self):
        # the digit range of every limit >= 8 is non-empty (the bound in _behrend_layer)
        for limit in [*range(8, 600), 208_981, 10 ** 6]:
            s = ap_free_set("behrend", limit)
            assert s.method == "behrend" and "fell back" not in s.note, limit

    @pytest.mark.parametrize("limit", [10, 100, 1000, 10000])
    def test_behrend_oracle(self, limit):
        s = ap_free_set("behrend", limit)
        assert len(s) >= 1
        assert all(1 <= x <= limit for x in s.elements)
        assert not has_three_term_progression(s.elements)

    @pytest.mark.parametrize("limit", [1, 7, 50, 365, 10000])
    def test_greedy_oracle(self, limit):
        s = ap_free_set("greedy-base3", limit)
        assert not has_three_term_progression(s.elements)

    def test_oracle_detects_progressions(self):
        assert has_three_term_progression([1, 2, 3])
        assert has_three_term_progression([1, 5, 9])
        assert not has_three_term_progression([1, 2, 4, 5])


class TestCayley:
    def test_single_difference(self):
        dec = cayley_rs(5, ap_free_set("greedy-base3", 1))
        assert (dec.graph.n, dec.t, dec.r) == (10, 5, 1)
        assert verify_decomposition(dec).passed

    def test_modulus_13(self):
        s = APFreeSet(4, (1, 2, 4), "manual")
        dec = cayley_rs(13, s)
        assert (dec.graph.n, dec.t, dec.r) == (26, 13, 3)
        assert verify_decomposition(dec).passed

    def test_modulus_41_greedy13(self):
        dec = cayley_rs(41, ap_free_set("greedy-base3", 13))
        assert (dec.graph.n, dec.t, dec.r) == (82, 41, 7)
        assert verify_decomposition(dec).passed

    def test_edge_count_and_bijection(self):
        s = ap_free_set("greedy-base3", 13)
        dec = cayley_rs(41, s)
        assert len(dec.graph.edges) == 41 * len(s)
        # each edge determines its matching index as (2y - x) mod N
        for z, m in enumerate(dec.matchings):
            for x, y in m:
                assert (2 * (y - 41) - x) % 41 == z

    def test_even_modulus_rejected(self):
        with pytest.raises(ParameterError):
            cayley_rs(10, ap_free_set("greedy-base3", 2))

    def test_range_restriction_enforced(self):
        with pytest.raises(ParameterError):
            cayley_rs(13, APFreeSet(6, (1, 2, 6), "manual"))

    def test_over_budget(self):
        # n + |E| = 2N + N|S|: 1,999,998 at N = 666,667 with |S| = 1 is allowed
        raises_before_allocating(lambda: cayley_rs(666_669, APFreeSet(1, (1,), "manual")))


# sha256 of emit_rsg for kneser_rs(1..6) and the other three constructions the
# certify benchmark builds, taken before kneser_rs moved to bit masks
EMIT_DIGESTS = {
    "kneser1": "671c17ba6da7a03b4188a601c85d370a64bf2dabab5fa5904d37214d46e056af",
    "kneser2": "a0d6cca0578bea41a26ca8783affc24ba553db62d71f9f4bf13f238da0287a1a",
    "kneser3": "f7624426ec0d991b241054084ceaacf508494eee8abc30b5247f461087522dbf",
    "kneser4": "ad72a4f3d7f5103cf7dd83627be857dc4236a2a34e5ca406d98686edeb3ad014",
    "kneser5": "76db8cade61cd5e5f89a8286fe2dc2cd02202764d807163a8ce8c28195f82e99",
    "kneser6": "d13eed80f16685c0b396a348df0aa82217a466b9b53bc74c55e54741589bc321",
    "cayley301": "07431914b7f066e06da248dc5a8a430dc9a93c25b5c050f1fcc4cbeea7364522",
    "cayley1001": "5d3640ae0c5efed6e03c3bdd6920c4230726d4acf470bbe224e66a48a678e01c",
    "q12aug": "26b302a32dc7ff04ee03dc7080182dc6fb08fedfc3d4e364009be2857eea9a8e",
}

CONSTRUCTIONS = {
    **{f"kneser{k}": (lambda k=k: kneser_rs(k)) for k in range(1, 7)},
    "cayley301": lambda: cayley_rs(301, ap_free_set("greedy-base3", 100)),
    "cayley1001": lambda: cayley_rs(1001, ap_free_set("greedy-base3", 333)),
    "q12aug": lambda: hypercube_rs(12, augmented=True),
}


@pytest.mark.parametrize("name", sorted(EMIT_DIGESTS))
def test_construction_bytes_are_pinned(name):
    assert hashlib.sha256(emit_rsg(CONSTRUCTIONS[name]()).encode()).hexdigest() == EMIT_DIGESTS[name]
