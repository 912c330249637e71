"""The one-pass verifier and the arithmetic distance certificate against pairwise oracles.

`pairwise_verify` and `hamming_certificate` are the package's original
implementations, kept as test-only references (the oracle builds the
degree list from per-vertex neighbour sets, as the package's graph then did, and
certifies with `pairwise_verify`; `adjacency` and `endpoint_sets` build those
sets here, as the test-only `Graph.adjacency` and
`MatchingDecomposition.endpoint_sets` did).  The first scans each matching's
adjacency for chords; the second sums the Hamming distances of every pair of
characteristic vectors.  The first changed in one rule, the package's since
its witness loop stopped stepping over empty matchings: at r >= 1 the empty
matchings are one size-mismatch, first in the report, at the least empty
index and naming their count.  The package must agree with them field for field,
witnesses and violation order included, on valid decompositions and on
mutants of them.  Neither the first nor the package counts |V_i cap V_j|:
by the pair bound in the `core` docstring it is at most r once the other
checks pass, and `oracles.max_pair_intersection` counts it where a test
checks that bound.
"""

import math
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate, count
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rsgraphs import (
    Graph,
    GraphError,
    MatchingDecomposition,
    PreconditionError,
    ap_free_set,
    cayley_rs,
    distance_certificate,
    emit_rsg,
    hypercube_rs,
    kneser_rs,
    parse_rsg,
    verify_decomposition,
)
from rsgraphs import cli, core
from rsgraphs.bounds import DistanceCertificate
from rsgraphs.core import VerificationReport, Violation

from oracles import examples, max_pair_intersection, random_decomposition

EXAMPLES = examples(300)     # per property test


def adjacency(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def endpoint_sets(dec):
    """V_i = set of vertices covered by matching i (repeats included only once)."""
    return [{x for e in m for x in e} for m in dec.matchings]


def pairwise_verify(dec: MatchingDecomposition) -> VerificationReport:
    g = dec.graph
    adj = adjacency(g)
    t = dec.t
    r = dec.r
    violations = []

    owner = {}
    empty = [i for i, m in enumerate(dec.matchings) if not m]
    if r and empty:
        violations.append(
            Violation("size-mismatch", (empty[0],), (0,),
                      f"matching {empty[0]} has 0 edges, declared r = {r}; empty matchings: {len(empty)}")
        )
    for i, m in enumerate(dec.matchings):
        if m and len(m) != r:
            violations.append(
                Violation("size-mismatch", (i,), (len(m),),
                          f"matching {i} has {len(m)} edges, declared r = {r}")
            )
        for e in m:
            if e in owner:
                j = owner[e]
                violations.append(
                    Violation("not-edge-disjoint", (j, i) if j != i else (i,), e,
                              f"edge {e} appears in matchings {j} and {i}")
                )
            else:
                owner[e] = i

    for i, m in enumerate(dec.matchings):
        covered = set()
        matching_ok = True
        for u, v in sorted(m):
            if u in covered or v in covered:
                violations.append(
                    Violation("not-a-matching", (i,), (u, v),
                              f"edge ({u}, {v}) shares an endpoint with an earlier edge of matching {i}")
                )
                matching_ok = False
                break
            covered.add(u)
            covered.add(v)
        if matching_ok:
            eset = set(m)
            witness = None
            for u in sorted(covered):
                for w in adj[u]:
                    if u < w and w in covered and (u, w) not in eset:
                        if witness is None or (u, w) < witness:
                            witness = (u, w)
            if witness is not None:
                violations.append(
                    Violation("not-induced", (i,), witness,
                              f"edge {witness} of the graph joins two covered vertices of matching {i}")
                )

    deg = [len(a) for a in adj]
    max_sum = 0
    degsum_witness = None
    for u, v in sorted(g.edges):
        s = deg[u] + deg[v]
        max_sum = max(max_sum, s)
        if s > t + 1 and degsum_witness is None:
            degsum_witness = (u, v)
    if degsum_witness is not None:
        u, v = degsum_witness
        violations.append(
            Violation("degree-sum", (), degsum_witness,
                      f"edge ({u}, {v}) has d_u + d_v = {deg[u] + deg[v]} > t + 1 = {t + 1}")
        )

    isolated = deg.count(0)
    notes = []
    if isolated:
        notes.append(f"{isolated} isolated vertices present; they count toward n")

    return VerificationReport(
        violations=tuple(violations),
        degree_histogram=dict(Counter(deg)),
        max_edge_degree_sum=max_sum,
        isolated_vertices=isolated,
        notes=tuple(notes),
    )


def hamming_certificate(dec: MatchingDecomposition) -> DistanceCertificate:
    report = pairwise_verify(dec)
    if not report.passed:
        raise PreconditionError("distance_certificate requires a verified decomposition")
    g = dec.graph
    t = dec.t
    r = dec.r
    vsets = endpoint_sets(dec)
    for i, vs in enumerate(vsets):
        if len(vs) != 2 * r:
            raise PreconditionError(
                f"|V_{i}| = {len(vs)} != 2r = {2 * r}; the all-zero extension needs full matchings"
            )

    masks = [0]
    for vs in vsets:
        m = 0
        for v in vs:
            m |= 1 << v
        masks.append(m)

    min_dist = None
    dist_sum = 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            d = bin(masks[i] ^ masks[j]).count("1")
            dist_sum += d
            if min_dist is None or d < min_dist:
                min_dist = d
    if min_dist is None:
        min_dist = 2 * r  # t = 0: vacuous

    lhs = 2 * r * math.comb(t + 1, 2)
    if t % 2 == 1:
        cap = Fraction(g.n * (t + 1) ** 2, 4)
    else:
        cap = Fraction(g.n * t * (t + 2), 4)
    slack = dist_sum - lhs
    passed = min_dist >= 2 * r and slack >= 0 and dist_sum <= cap
    return DistanceCertificate(
        n=g.n, r=r, t=t,
        min_pairwise_distance=min_dist,
        double_count_lhs=lhs,
        pair_distance_sum=dist_sum,
        column_product_cap=cap,
        slack=slack,
        passed=passed,
    )


def cayley(modulus):
    return cayley_rs(modulus, ap_free_set("greedy-base3", (modulus - 1) // 3))


BASES = {
    "kneser1": lambda: kneser_rs(1),
    "kneser2": lambda: kneser_rs(2),
    "kneser3": lambda: kneser_rs(3),
    "q2": lambda: hypercube_rs(2),
    "q3": lambda: hypercube_rs(3),
    "q4aug": lambda: hypercube_rs(4, augmented=True),
    "q5": lambda: hypercube_rs(5),
    "cayley7": lambda: cayley(7),
    "cayley13": lambda: cayley(13),
    "cayley31": lambda: cayley(31),
    "cayley101": lambda: cayley(101),       # t = 101: A_v spans two 64-bit words
}


@cache
def base(name):
    return BASES[name]()


MUTATIONS = ("moved", "deleted", "chord", "relisted", "wrong-r")


def mutate(data, kind, matchings, r):
    """Apply one mutation in place to the matching lists, whose union is the graph; return the new r."""
    t = len(matchings)
    full = [i for i in range(t) if matchings[i]]
    if kind == "wrong-r":
        return max(0, r + data.draw(st.sampled_from((-1, 1))))
    if kind == "chord":
        i = data.draw(st.integers(0, t - 1))
        covered = sorted({x for e in matchings[i] for x in e})
        edges = {e for m in matchings for e in m}
        chords = [(u, v) for u in covered for v in covered if u < v and (u, v) not in edges]
        if chords:
            matchings[data.draw(st.integers(0, t - 1))].append(data.draw(st.sampled_from(chords)))
        return r
    if not full:
        return r
    i = data.draw(st.sampled_from(full))
    e = data.draw(st.sampled_from(matchings[i]))
    if kind == "moved":
        matchings[i].remove(e)
        matchings[data.draw(st.integers(0, t - 1))].append(e)
    elif kind == "deleted":
        matchings[i].remove(e)
    else:  # relisted: a second matching, or the same one, lists the edge again
        matchings[data.draw(st.integers(0, t - 1))].append(e)
    return r


class TestAgainstPairwiseOracle:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_valid_instances(self, name):
        dec = base(name)
        report = verify_decomposition(dec)
        assert report.passed
        assert report.to_dict() == pairwise_verify(dec).to_dict()
        assert distance_certificate(dec).to_dict() == hamming_certificate(dec).to_dict()

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_mutants(self, data):
        check_mutant(data)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_verdict_needs_no_pair_count(self, data):
        check_verdict(data)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_mutants_on_the_list_path(self, data):
        with list_path():
            check_mutant(data)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_verdict_needs_no_pair_count_on_the_list_path(self, data):
        with list_path():
            check_verdict(data)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_edge_degree_sums(self, data):
        check_edge_degree_sums(data)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_edge_degree_sums_on_the_list_path(self, data):
        with list_path():
            check_edge_degree_sums(data)


def draw_mutant(data, min_mutations):
    src = base(data.draw(st.sampled_from(sorted(BASES))))
    matchings = [list(m) for m in src.matchings]
    r = src.r
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=min_mutations, max_size=3)):
        r = mutate(data, kind, matchings, r)
    return MatchingDecomposition.from_matchings(src.n, matchings, r)


def check_mutant(data):
    dec = draw_mutant(data, 1)
    expected = pairwise_verify(dec)
    report = verify_decomposition(dec)
    assert report.to_dict() == expected.to_dict()
    if expected.passed:
        assert distance_certificate(dec).to_dict() == hamming_certificate(dec).to_dict()
    else:
        with pytest.raises(PreconditionError):
            distance_certificate(dec)


def check_verdict(data):
    # the pair bound in the core docstring: once the verifier passes, no
    # pair count and no degree sum exceeds its cap; and the screen's lemma:
    # on the bitsets the witness loop runs exactly when the verdict fails
    dec = draw_mutant(data, 0)
    expected = pairwise_verify(dec)
    with witness_loop_runs() as runs:
        report = verify_decomposition(dec)
    assert report.to_dict() == expected.to_dict()
    assert runs == ([] if report.passed and dec._matchings_at[0] else [dec])
    if expected.passed:
        assert max_pair_intersection(dec) <= dec.r
        assert expected.max_edge_degree_sum <= dec.t + 1


def check_edge_degree_sums(data):
    dec = draw_mutant(data, 0)
    deg = [len(a) for a in adjacency(dec.graph)]
    assert verify_decomposition(dec).edge_degree_sums == Counter(deg[u] + deg[v] for u, v in dec.graph.edges)


@contextmanager
def witness_loop_runs():
    """The decompositions the verifier's witness loop runs on inside the block, in order."""
    runs = []
    loop = core._witnesses
    with mock.patch.object(core, "_witnesses", lambda dec: runs.append(dec) or loop(dec)):
        yield runs


@contextmanager
def degree_walks_run():
    """The functions that take the degree statistics of the edges inside the block, one per walk."""
    runs = []
    walks = core._degree_stats

    def spy(edges):
        runs.append(sys._getframe(1).f_code.co_name)
        return walks(edges)

    with mock.patch.object(core, "_degree_stats", spy):
        yield runs


@contextmanager
def list_path():
    """Keep A_v as lists in the maps built inside the block, as the memory gate does on sparse inputs."""
    with mock.patch.object(core, "_bitsets", lambda *args: False):
        yield


@contextmanager
def builds():
    """How often the incidence map is built inside the block, by its one `_bitsets` decision;
    the non-empty matchings are a field, built with the decomposition."""
    counts = Counter()
    decide = core._bitsets
    with mock.patch.object(core, "_bitsets", lambda *args: counts.update(["map"]) or decide(*args)):
        yield counts


class TestIncidenceGate:
    """Bitsets only where they take no more words than the incidence lists hold entries."""

    def test_one_edge_matchings_take_the_list_path(self):
        t = 300
        dec = MatchingDecomposition.from_matchings(2 * t, [[(2 * i, 2 * i + 1)] for i in range(t)], 1)
        assert dec._matchings_at == (False, {x: [x // 2] for x in range(2 * t)})

    def test_many_copies_of_one_edge_shift_each_power(self):
        # t = 3000 > 2 |A|, where a table of the t powers would take about
        # t^2/16 bytes (560 KB) against the two lists' 48 KB and ints' 750 bytes
        t = 3000
        dec = MatchingDecomposition.from_matchings(2, [[(0, 1)]] * t, 1)
        tracemalloc.start()
        try:
            bits, a_of = dec._matchings_at
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits and a_of == {0: (1 << t) - 1, 1: (1 << t) - 1}
        assert peak < 100_000

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_oracle_bases_take_the_bitset_path(self, name):
        # cayley31 and kneser3 among them, so the oracle tests above run both paths
        dec = base(name)
        bits, a_of = dec._matchings_at
        vsets = endpoint_sets(dec)
        assert bits
        assert {v: [i for i in range(dec.t) if a >> i & 1] for v, a in a_of.items()} == {
            v: [i for i, vs in enumerate(vsets) if v in vs] for v in set().union(*vsets)}


class TestEveryInvariantOnBothForms:
    """One decomposition that breaks all six invariants, with its witnesses fixed, on either form."""

    @pytest.mark.parametrize("lists", [False, True], ids=["bits", "lists"])
    def test_each_invariant_is_reported(self, lists):
        # M_0 has a chord listed by M_1 and M_2, which share it; M_3 is a star
        # at 3, whose degree 4 gives d_2 + d_3 = 6 > t + 1
        dec = MatchingDecomposition.from_matchings(
            7, [[(0, 1), (2, 3)], [(1, 2)], [(1, 2)], [(3, 4), (3, 5), (3, 6)]], 1)
        with list_path() if lists else nullcontext(), witness_loop_runs() as runs:
            assert dec._matchings_at[0] != lists
            report = verify_decomposition(dec)
        assert runs == [dec]
        assert [(v.invariant, v.matchings, v.witness) for v in report.violations] == [
            ("size-mismatch", (0,), (2,)),
            ("not-edge-disjoint", (1, 2), (1, 2)),
            ("size-mismatch", (3,), (3,)),
            ("not-induced", (0,), (1, 2)),
            ("not-a-matching", (3,), (3, 5)),
            ("degree-sum", (), (2, 3)),
        ]
        assert report.to_dict() == pairwise_verify(dec).to_dict()


class TestFailingPairs:
    """Three failing inputs whose matchings overlap, one with |V_0 cap V_1| > r: the report
    is the oracle's on either form, found by the witness loop."""

    CASES = {
        # (0, 1) is listed by M_0 and M_1, so |V_0 cap V_1| = 2 > r
        "relisted-edge": ([[(0, 1)], [(0, 1)]], 1, 2),
        # M_0 lists (0, 1) twice, so it is no matching: |V_0 cap V_1| = 1 = r
        "edge-twice": ([[(0, 1), (0, 1)], [(0, 2)]], 1, 1),
        # M_0 is no matching and V_0 = {1, 2, 3} is odd: |V_0 cap V_1| = 1
        "odd-non-matching": ([[(1, 2), (2, 3)], [(0, 3)]], 2, 1),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_on_both_forms(self, name):
        matchings, r, max_inter = self.CASES[name]
        dec = MatchingDecomposition.from_matchings(4, matchings, r)
        assert max_pair_intersection(dec) == max_inter
        assert dec._matchings_at[0]
        with witness_loop_runs() as runs:
            report = verify_decomposition(dec)
        assert runs == [dec] and not report.passed
        assert report.to_dict() == pairwise_verify(dec).to_dict()
        lists_dec = MatchingDecomposition.from_matchings(4, matchings, r)
        with list_path(), witness_loop_runs() as runs:
            lists = verify_decomposition(lists_dec)
        assert runs == [lists_dec] and not lists_dec._matchings_at[0]
        assert repr(lists) == repr(report)


def one_mutant(kind):
    """kneser_rs(2) with one mutation of `kind` (as `mutate` makes them) at M_0's first edge."""
    src = kneser_rs(2)
    matchings = [list(m) for m in src.matchings]
    r = src.r
    if kind == "moved":
        matchings[1].append(matchings[0].pop(0))
    elif kind == "deleted":
        matchings[0].pop(0)
    elif kind == "chord":
        covered = sorted({x for e in matchings[0] for x in e})
        matchings[1].append(min((u, v) for u in covered for v in covered
                                if u < v and (u, v) not in src.graph.edges))
    elif kind == "relisted":
        matchings[1].append(matchings[0][0])
    else:
        r += 1
    return MatchingDecomposition.from_matchings(src.n, matchings, r)


class TestScreenRouting:
    """The verifier's screen passes valid input without the witness loop, and sends it failing input."""

    VALID = {
        **{f"kneser{k}": (lambda k=k: kneser_rs(k)) for k in range(1, 7)},
        "q12aug": lambda: hypercube_rs(12, augmented=True),
        **{f"cayley{m}": (lambda m=m: cayley(m)) for m in (31, 301, 1001)},
    }

    @pytest.mark.parametrize("name", VALID)
    def test_valid_input_skips_the_witness_loop(self, name):
        with witness_loop_runs() as runs, degree_walks_run() as walks:
            dec = self.VALID[name]()
            assert verify_decomposition(dec).passed
        assert runs == [] and walks == []

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_screened_report_is_the_witness_loops(self, data):
        # dropping whole matchings keeps a decomposition valid and seldom
        # regular, so the histogram has several keys, whose order repr shows
        src = base(data.draw(st.sampled_from(sorted(BASES))))
        keep = data.draw(st.lists(st.booleans(), min_size=src.t, max_size=src.t))
        matchings = [m for m, k in zip(src.matchings, keep) if k]
        dec, twin = (MatchingDecomposition.from_matchings(src.n, matchings, src.r) for _ in range(2))
        with witness_loop_runs() as runs:
            screened = verify_decomposition(dec)
        with mock.patch.object(core, "_screen", lambda dec: None):
            looped = verify_decomposition(twin)
        assert runs == [] and screened.passed
        assert repr(screened) == repr(looped)

    # one degree: the one-degree lemma gives the statistics without an edge walk
    REGULAR = {
        **{f"kneser{k}": (lambda k=k: kneser_rs(k)) for k in range(1, 7)},
        **{f"q{k}aug": (lambda k=k: hypercube_rs(k, augmented=True)) for k in range(2, 13, 2)},
        **{f"cayley{m}": (lambda m=m: cayley(m)) for m in (31, 101, 301)},
    }

    # two degrees: two families of one r side by side, M_i of the first
    # family before those of the second, so the first family's degree is
    # the histogram's first key
    MIXED = {
        "kneser1+q2aug": (kneser_rs(1), hypercube_rs(2, augmented=True), [2, 3]),
        "q4+q4aug": (hypercube_rs(4), hypercube_rs(4, augmented=True), [4, 5]),
        "q4aug+q4": (hypercube_rs(4, augmented=True), hypercube_rs(4), [5, 4]),
    }

    @pytest.mark.parametrize("name", REGULAR)
    def test_regular_input_skips_the_degree_walks(self, name):
        src = self.REGULAR[name]()
        screened, walks = screened_verdict(src)
        assert walks == []
        assert len(screened.degree_histogram) == 1 + (screened.isolated_vertices > 0)
        assert_reports_equal(screened, looped_verdict(src))

    @pytest.mark.parametrize("name", MIXED)
    def test_mixed_degrees_take_the_degree_walks(self, name):
        a, b, keys = self.MIXED[name]
        matchings = a.matchings + tuple(tuple((u + a.n, v + a.n) for u, v in m) for m in b.matchings)
        src = MatchingDecomposition.from_matchings(a.n + b.n, matchings, a.r)
        screened, walks = screened_verdict(src)
        assert walks == ["_screen"]
        assert list(screened.degree_histogram) == keys
        assert_reports_equal(screened, looped_verdict(src))

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data(), rng=st.randoms(use_true_random=False))
    def test_random_decompositions(self, data, rng):
        n = data.draw(st.integers(2, 12))
        src = random_decomposition(n, data.draw(st.integers(1, n // 2)), data.draw(st.integers(1, 8)), rng)
        screened, walks = screened_verdict(src)
        degrees = len(screened.degree_histogram) - (screened.isolated_vertices > 0)
        assert walks == ([] if degrees == 1 else ["_screen"])
        assert_reports_equal(screened, looped_verdict(src))

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_a_mutant_of_each_kind_runs_it(self, kind):
        dec = one_mutant(kind)
        assert dec._matchings_at[0]
        with witness_loop_runs() as runs, degree_walks_run() as walks:
            verdict = verify_decomposition(dec)
        assert runs == [dec] and walks == ["_witnesses"]
        assert verdict.to_dict() == pairwise_verify(dec).to_dict()


def screened_verdict(src):
    """The report on a fresh copy of src, passed by the screen, and the functions that walked its edges."""
    dec = MatchingDecomposition.from_matchings(src.n, src.matchings, src.r)
    with witness_loop_runs() as runs, degree_walks_run() as walks:
        verdict = verify_decomposition(dec)
    assert runs == [] and verdict.passed
    return verdict, walks


def looped_verdict(src):
    """The report on a fresh copy of src by the witness loop, the screen skipped."""
    dec = MatchingDecomposition.from_matchings(src.n, src.matchings, src.r)
    return core._witnesses(dec)


def assert_reports_equal(a, b):
    # repr shows the order of the histogram's keys and of the degree sums
    assert repr(a) == repr(b)
    assert a.to_dict() == b.to_dict()
    assert a.edge_degree_sums == b.edge_degree_sums


class TestReportCache:
    def test_second_call_returns_the_same_report(self):
        dec = kneser_rs(2)
        assert verify_decomposition(dec) is verify_decomposition(dec)

    def test_certificate_of_a_construction_verifies_once(self, monkeypatch):
        calls = []
        uncached = core._verify
        monkeypatch.setattr(core, "_verify", lambda dec: calls.append(dec) or uncached(dec))
        dec = cayley(31)
        assert distance_certificate(dec).passed
        assert len(calls) == 1 and calls[0] is dec

    # each first caller, and by how much the file it reads overstates r: a
    # construction verifies itself, so only the other two meet failing input
    FIRST_CALLERS = {
        "construction": (lambda path: cayley(31), 0),
        "certificate": (lambda path: distance_certificate(parse_rsg(path.read_text())), 0),
        "rsg-verify": (lambda path: cli.main(["verify", str(path)]), 0),
        "refused-certificate": (lambda path: distance_certificate(parse_rsg(path.read_text())), 1),
        "failing-rsg-verify": (lambda path: cli.main(["verify", str(path)]), 1),
    }

    @pytest.mark.parametrize("first", FIRST_CALLERS)
    def test_first_caller_verifies_once(self, first, tmp_path, capsys):
        # the verifier runs on the object the first caller verifies; the
        # report and the refusal check of the certificate and the audit read its cache
        call, extra = self.FIRST_CALLERS[first]
        src = cayley(31)
        path = tmp_path / "c31.rsg"
        path.write_text(emit_rsg(MatchingDecomposition.from_matchings(src.n, src.matchings, src.r + extra)))
        calls = []
        uncached = core._verify
        with mock.patch.object(core, "_verify", lambda dec: calls.append(dec) or uncached(dec)), \
                builds() as counts:
            with pytest.raises(PreconditionError) if first == "refused-certificate" else nullcontext():
                call(path)
            dec, = calls
            report = verify_decomposition(dec)
            with nullcontext() if report.passed else pytest.raises(PreconditionError):
                distance_certificate(dec)
            with nullcontext() if report.passed else pytest.raises(PreconditionError):
                assert core._require_verified(dec, "expansion_audit") is report
        assert calls == [dec] and counts == {"map": 1}
        assert report.passed == (not extra) and report.to_dict() == pairwise_verify(dec).to_dict()
        lines = capsys.readouterr().out.splitlines()
        assert (f"verdict: {'pass' if report.passed else 'fail'}" in lines) == ("rsg-verify" in first)

    def test_report_builds_the_incidence_once(self):
        dec = parse_rsg(emit_rsg(cayley(31)))      # a fresh object: no report cached
        with builds() as counts:
            report = verify_decomposition(dec)
            assert verify_decomposition(dec) is report
        assert counts == {"map": 1}
        assert report.to_dict() == pairwise_verify(dec).to_dict()

    def test_report_after_the_verdict_builds_the_incidence_no_second_time(self):
        # `_require_verified` is how the certificate and the audit take the verdict
        dec = parse_rsg(emit_rsg(cayley(31)))
        with builds() as counts:
            verdict = core._require_verified(dec, "expansion_audit")
            report = verify_decomposition(dec)
        assert counts == {"map": 1} and report is verdict
        assert report.to_dict() == pairwise_verify(dec).to_dict()

    @pytest.mark.parametrize("lists", [False, True], ids=["bits", "lists"])
    def test_failing_verdict_and_its_report_read_one_map_and_listing(self, lists):
        # the refusal names the first violation of the report it caches
        src = kneser_rs(2)
        dec = MatchingDecomposition.from_matchings(src.n, src.matchings, src.r + 1)
        with list_path() if lists else nullcontext(), builds() as counts:
            with pytest.raises(PreconditionError, match=r"\(size-mismatch\)$"):
                distance_certificate(dec)
            report = verify_decomposition(dec)
        assert counts == {"map": 1}
        assert dec._matchings_at[0] != lists and not report.passed
        assert report.to_dict() == pairwise_verify(dec).to_dict()


class TestEdgeNormalisation:
    """`from_edges` and `from_matchings` normalise in one pass and name the first bad edge."""

    BAD = (
        ([(1, 0), (2, 2), (0, 5)], "self-loop at vertex 2"),
        ([(2, 1), (4, 0), (1, 1)], "vertex out of range in edge (4, 0); n = 3"),
        ([(0, 1), (-1, 2)], "vertex out of range in edge (-1, 2); n = 3"),
        ([(0, 1), (-1, -1)], "self-loop at vertex -1"),
        ([(0, 3), (1, 1)], "vertex out of range in edge (0, 3); n = 3"),
    )

    @pytest.mark.parametrize("pairs, message", BAD)
    def test_first_bad_edge_is_named(self, pairs, message):
        with pytest.raises(GraphError) as err:
            Graph.from_edges(3, pairs)
        assert str(err.value) == message
        with pytest.raises(GraphError) as err:
            Graph.from_edges(3, iter(pairs))
        assert str(err.value) == message
        for matchings in ([[(1, 0)], pairs], [[(1, 0)], iter(pairs)], [pairs, [(5, 5)]]):
            with pytest.raises(GraphError) as err:
                MatchingDecomposition.from_matchings(3, matchings, -1)
            assert str(err.value) == message

    def test_out_of_order_edges_are_normalised(self):
        g = Graph.from_edges(4, iter([(3, 0), (1, 2), (0, 3)]))
        assert g.edges == frozenset({(0, 3), (1, 2)})
        assert all(type(e) is tuple for e in g.edges)
        union = MatchingDecomposition.from_matchings(4, [iter([(3, 0), (2, 1)]), [], [(3, 2)]], 2)
        assert union.matchings == (((0, 3), (1, 2)), (), ((2, 3),))
        assert union.graph == Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)])
        assert all(type(e) is tuple for m in union.matchings for e in m)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(n=st.integers(-1, 5), r=st.integers(-1, 2),
           matchings=st.lists(st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)),
                                       max_size=4), max_size=4))
    def test_from_matchings_graph_is_from_edges(self, n, r, matchings):
        # the graph is the union of the matchings, and a bad edge is named as
        # from_edges names it, before a negative r
        def outcome(build):
            try:
                return build()
            except GraphError as exc:
                return str(exc)
        expected = outcome(lambda: Graph.from_edges(n, [e for m in matchings for e in m]))
        if r < 0 and isinstance(expected, Graph):
            expected = "claimed matching size must be non-negative"
        assert outcome(lambda: MatchingDecomposition.from_matchings(n, matchings, r).graph) == expected


class TestLargeSparse:
    def test_disjoint_one_edge_matchings(self):
        n, t = 10 ** 6, 5000
        edges = [(2 * i, 2 * i + 1) for i in range(t)]
        dec = MatchingDecomposition.from_matchings(n, [[e] for e in edges], 1)
        tracemalloc.start()
        try:
            report = verify_decomposition(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert report.isolated_vertices == n - 2 * t
        assert peak < 32 * n           # a few n-long lists, no per-vertex set or list

    def test_one_chord_among_sparse_matchings(self):
        # t two-edge matchings on disjoint vertices; the chord (1, 2) joins
        # two vertices of M_0 and is listed by the last matching
        n, t = 10 ** 5, 1000
        matchings = [[(4 * i, 4 * i + 1), (4 * i + 2, 4 * i + 3)] for i in range(t)]
        matchings[-1].append((1, 2))
        dec = MatchingDecomposition.from_matchings(n, matchings, 2)
        assert not dec._matchings_at[0]
        report = verify_decomposition(dec)
        assert [(v.invariant, v.matchings) for v in report.violations] == [
            ("size-mismatch", (t - 1,)), ("not-induced", (0,))]
        assert report.to_dict() == pairwise_verify(dec).to_dict()


class TestEmptyMatchings:
    """At r >= 1 the empty matchings are one leading size-mismatch naming their count, so a
    header's t costs the verifier nothing."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_raising_t_changes_only_the_count(self, data):
        # a mutant's matchings spread over ascending indices, so at
        # t = max index + 2 at least the last one is empty; degree-sum tests
        # d_u + d_v against t + 1, so it is the one other violation that
        # raising t may drop
        src = draw_mutant(data, 0)
        gaps = data.draw(st.lists(st.integers(0, 3), min_size=src.t, max_size=src.t))
        index = [i + g for i, g in enumerate(accumulate(gaps))]
        pairs = list(zip(index, src.matchings))
        small = MatchingDecomposition.from_listed(src.n, index[-1] + 2, src.r, pairs)
        big = MatchingDecomposition.from_listed(src.n, 10 ** 9, src.r, pairs)
        report = verify_decomposition(small)
        assert report.to_dict() == pairwise_verify(small).to_dict()
        expected = [v for v in report.violations if v.invariant != "degree-sum"]
        if src.r:
            listed = {i for i, _ in small.listed}
            first = next(i for i in count() if i not in listed)
            lead = f"matching {first} has 0 edges, declared r = {src.r}; empty matchings: "
            assert expected[0] == Violation("size-mismatch", (first,), (0,),
                                            lead + str(small.t - len(small.listed)))
            expected[0] = Violation("size-mismatch", (first,), (0,), lead + str(big.t - len(big.listed)))
        raised = verify_decomposition(big)
        assert list(raised.violations) == expected
        assert raised.to_dict()["stats"] == report.to_dict()["stats"]

    @pytest.mark.parametrize("r", [0, 1])
    def test_a_header_t_costs_nothing(self, r):
        dec = MatchingDecomposition(2, 10 ** 12, r, ())
        tracemalloc.start()
        try:
            report = verify_decomposition(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert report.violations == (() if not r else (Violation(
            "size-mismatch", (0,), (0,),
            "matching 0 has 0 edges, declared r = 1; empty matchings: 1000000000000"),))
        assert report.degree_histogram == {0: 2} and report.max_edge_degree_sum == 0
