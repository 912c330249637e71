"""The expansion audit against the per-source audit it replaced.

`per_source_audit` is the package's earlier `expansion_audit`, kept verbatim
as a test-only reference, with its H-and-strip step factored out as
`per_source_core`, its incidence build as `incidences` and its BFS claim
loop as `per_source_claims`.  That loop runs one dict-and-deque BFS from
every vertex of F and tests every reached pair.  The package states those
claims as a lemma of verification (`expansion_audit`'s docstring) and must
agree with the oracle field for field, so every instance here machine-checks
the lemma.

The oracle costs seconds per instance from about a thousand audited vertices
up, so the largest sweep instances are compared through SHA-256 digests of
the oracle's `to_dict()` JSON, recorded from `per_source_audit`; every other
instance is compared live.
"""

import hashlib
import json
import math
import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rsgraphs import (
    Graph,
    MatchingDecomposition,
    PreconditionError,
    ap_free_set,
    cayley_rs,
    disjoint_union,
    double_cover,
    expansion_audit,
    hypercube_rs,
    kneser_rs,
    verify_decomposition,
)
from rsgraphs.bounds import NOT_APPLICABLE, PASS, AuditReport, LayerRow
from oracles import degrees, examples, is_bipartite, random_decomposition

FAIL = "fail"       # the package's assertions are lemmas and never fail; the oracle's can

EXAMPLES = examples(300)     # per property test


def per_source_claims(f_vertices, h_adj, alive, incidence, t):
    full_mask = (1 << t) - 1
    bfs_violations = []
    first_layers = None
    for v in f_vertices:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in h_adj[u]:
                if w in alive and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if first_layers is None:
            sizes = Counter(dist.values())
            first_layers = [sizes[i] for i in range(max(sizes) + 1)] if sizes else []
        av = incidence[v]
        for u, k in dist.items():
            if k % 2 == 1:
                overlap = (incidence[u] & av).bit_count()
            else:
                overlap = (incidence[u] & ~av & full_mask).bit_count()
            if overlap > k:
                bfs_violations.append((v, u, k, overlap))
    return bfs_violations, first_layers


def per_source_core(g, deg, t):
    n = g.n
    threshold = Fraction(t, 8)
    h_adj = [set() for _ in range(n)]
    for u, v in g.edges:
        if deg[u] + deg[v] >= t:
            h_adj[u].add(v)
            h_adj[v].add(u)
    alive = set(v for v in range(n) if h_adj[v])
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            d = sum(1 for w in h_adj[v] if w in alive)
            if Fraction(d) < threshold:
                alive.discard(v)
                changed = True
    return h_adj, alive


def incidences(dec):
    """A_v as a bitmask, for every vertex of dec."""
    incidence = [0] * dec.n
    for i, m in enumerate(dec.matchings):
        for u, v in m:
            incidence[u] |= 1 << i
            incidence[v] |= 1 << i
    return incidence


def per_source_audit(dec: MatchingDecomposition) -> AuditReport:
    report = verify_decomposition(dec)
    if not report.passed:
        raise PreconditionError("expansion_audit requires a verified decomposition")

    doubled = False
    if is_bipartite(dec.graph) is None:
        dec = double_cover(dec)
        doubled = True

    g = dec.graph
    n, t, r = g.n, dec.t, dec.r
    deg = degrees(g)

    incidence = incidences(dec)

    assertions = []

    bad = [v for v in range(n) if incidence[v].bit_count() != deg[v]]
    assertions.append((
        "incidence-degree",
        PASS if not bad else FAIL,
        "|A_v| = d_v for every vertex" if not bad else f"first offender vertex {bad[0]}",
    ))

    classes = Counter()
    for u, v in g.edges:
        classes[deg[u] + deg[v] - t] += 1
    e1 = classes.get(1, 0)
    e0 = classes.get(0, 0)
    over = [i for i in classes if i > 1]
    assertions.append((
        "degree-sum-classes",
        PASS if not over else FAIL,
        "no edge exceeds degree sum t + 1" if not over else f"classes above +1 present: {sorted(over)}",
    ))

    quarter = 4 * r == n
    if quarter:
        ok = 4 * (2 * e1 + e0) >= n * t
        assertions.append((
            "cauchy-schwarz",
            PASS if ok else FAIL,
            f"2*E1 + E0 = {2 * e1 + e0} vs nt/4 = {Fraction(n * t, 4)}",
        ))
    else:
        assertions.append((
            "cauchy-schwarz", NOT_APPLICABLE, f"r = {r} != n/4 = {Fraction(n, 4)}",
        ))

    s = Fraction(e1 + e0, n) if n else Fraction(0)
    s_prime = Fraction(e1, n) if n else Fraction(0)
    threshold = Fraction(t, 8)

    h_adj, alive = per_source_core(g, deg, t)
    f_vertices = sorted(alive)
    f_degrees = {v: sum(1 for w in h_adj[v] if w in alive) for v in f_vertices}
    achieved = min(f_degrees.values()) if f_degrees else 0

    bfs_violations, first_layers = per_source_claims(f_vertices, h_adj, alive, incidence, t)
    assertions.append((
        "bfs-distance-claims",
        PASS if not bfs_violations else FAIL,
        "incidence overlaps bounded by distance on F"
        if not bfs_violations else f"{len(bfs_violations)} offending pairs, first {bfs_violations[0]}",
    ))

    layers = []
    if first_layers:
        s_int = t // 8
        for i, size in enumerate(first_layers):
            floor_val = math.comb(s_int, i) if i <= s_int else 0
            layers.append(LayerRow(i, size, floor_val, size >= floor_val))

    return AuditReport(
        n=n, r=r, t=t, doubled=doubled,
        edge_classes=dict(classes),
        e1=e1, e0=e0, s=s, s_prime=s_prime,
        f_min_degree_threshold=threshold,
        f_vertex_count=len(f_vertices),
        f_achieved_min_degree=achieved,
        assertions=tuple(assertions),
        bfs_violations=tuple(bfs_violations),
        layers=tuple(layers),
    )


def side_by_side(a, b):
    """a and b on disjoint labels, b's after a's, matching i the union of their M_i."""
    shifted = ([(u + a.n, v + a.n) for u, v in m] for m in b.matchings)
    return MatchingDecomposition.from_matchings(
        a.n + b.n, [list(ma) + mb for ma, mb in zip(a.matchings, shifted)], a.r + b.r)


def sweep():
    """The acceptance sweep (tests/test_acceptance.py) and its covers, by name, one input
    whose strip removes vertices (every built family is regular, so its F is all of H),
    and one that is not bipartite while its F is."""
    base = (
        [(f"kneser{k}", lambda k=k: kneser_rs(k)) for k in range(1, 5)]
        + [(f"q{k}", lambda k=k: hypercube_rs(k)) for k in range(2, 11)]
        + [(f"q{k}aug", lambda k=k: hypercube_rs(k, augmented=True)) for k in (2, 4, 6, 8, 10)]
    )
    covers = [(f"cover-{name}", lambda make=make: double_cover(make())) for name, make in base]
    extra = [
        ("cayley41", lambda: cayley_rs(41, ap_free_set("greedy-base3", 13))),
        ("union-kneser2x3", lambda: disjoint_union(kneser_rs(2), 3)),
        # t = 10: the draw's H peels away in a cascade, and q4aug's survives as F
        ("draw-beside-q4aug", lambda: side_by_side(
            random_decomposition(16, 3, 10, random.Random(2777)), hypercube_rs(4, augmented=True))),
        # t = 6 on 9 vertices: the draw has an odd cycle, and its F is a 6-cycle
        ("draw-bipartite-f", lambda: random_decomposition(9, 2, 11, random.Random(717))),
    ]
    return dict(base + covers + extra)


SWEEP = sweep()

# sha256 of json.dumps(per_source_audit(dec).to_dict(), sort_keys=True)
ORACLE_DIGESTS = {
    "q10": "c15a1f903a7018b493cdd80bc4a832fefc96d9d8af08ff2d15f44a12c7875199",
    "cover-q9": "ae9d81db502f3ef402b52a1678440344e178269cda9c944ad991eae0f071f761",
    "cover-q10": "9df259af6ac501ff41a20f1377672679fcf34bd5547c74d74cf464c2b2ed7976",
    "q10aug": "100541d369a326b9e3beb8e6a160600d3069c3634770628a519b90e4e9c7de32",
    "cover-q10aug": "1a0d488d9482edda61e4d1d735fd619ce9f75118643b5e39479576f5a64930fb",
}


def digest(report):
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


class TestSweep:
    @pytest.mark.parametrize("name", sorted(set(SWEEP) - set(ORACLE_DIGESTS)))
    def test_against_oracle(self, name):
        dec = SWEEP[name]()
        assert expansion_audit(dec).to_dict() == per_source_audit(dec).to_dict()

    @pytest.mark.parametrize("name", sorted(ORACLE_DIGESTS))
    def test_against_recorded_oracle(self, name):
        assert digest(expansion_audit(SWEEP[name]())) == ORACLE_DIGESTS[name]

    def test_the_strip_removes_vertices(self):
        dec = SWEEP["draw-beside-q4aug"]()
        report = expansion_audit(dec)
        audited = double_cover(dec) if report.doubled else dec
        h_adj, _ = per_source_core(audited.graph, degrees(audited.graph), dec.t)
        assert 0 < report.f_vertex_count < sum(map(bool, h_adj))

    def test_a_bipartite_f_splits_on_the_cover(self):
        # the cover's F is two copies of the input's, and the BFS reaches one
        dec = SWEEP["draw-bipartite-f"]()
        report = expansion_audit(dec)
        assert report.doubled and is_bipartite(dec.graph) is None
        _, alive = per_source_core(dec.graph, degrees(dec.graph), dec.t)
        f_edges = [(u, v) for u, v in dec.graph.edges if u in alive and v in alive]
        assert is_bipartite(Graph.from_edges(dec.n, f_edges)) is not None
        assert 2 * sum(row.size for row in report.layers) == report.f_vertex_count == 2 * len(alive)

    def test_kneser5(self):
        dec = kneser_rs(5)
        assert expansion_audit(dec).to_dict() == per_source_audit(dec).to_dict()


class TestLiftLemma:
    """A non-bipartite input audits as its double cover, which `expansion_audit`
    reads off the input's own H and peel (the lift lemma in its docstring).
    `double_cover` labels (v, 1) as v + n, as the audit's walk does."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(n=st.integers(2, 16), data=st.data(), seed=st.integers(0, 2 ** 32))
    def test_the_input_audits_as_its_cover(self, n, data, seed):
        # a drawn seed: st.randoms draws every shuffle through hypothesis, which
        # tripled this test's time; t >= 3, as two matchings make only paths and
        # even cycles, which are bipartite
        r = data.draw(st.integers(1, n // 2))
        dec = random_decomposition(n, r, data.draw(st.integers(3, 12)), random.Random(seed))
        assert verify_decomposition(dec).passed
        report = expansion_audit(dec).to_dict()
        assume(report["doubled"])
        cover = expansion_audit(double_cover(dec)).to_dict()
        assert not cover["doubled"]
        assert report == {**cover, "doubled": True}


class TestRandomDecompositions:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(quarter=st.booleans(), data=st.data(), rng=st.randoms(use_true_random=False))
    def test_against_oracle(self, quarter, data, rng):
        # half the examples sit at r = n/4, where the oracle recomputes the
        # cauchy-schwarz check that the package states as a lemma
        if quarter:
            n = data.draw(st.sampled_from([4, 8, 12]))
            r = n // 4
        else:
            n = data.draw(st.integers(2, 14))
            r = data.draw(st.integers(1, n // 2))
        t = data.draw(st.integers(1, 12))
        dec = random_decomposition(n, r, t, rng)
        assert verify_decomposition(dec).passed
        assert expansion_audit(dec).to_dict() == per_source_audit(dec).to_dict()


def claims_on_h(dec):
    """The oracle's failing distance claims over all of H, before the strip to F."""
    h_adj, _ = per_source_core(dec.graph, degrees(dec.graph), dec.t)
    h_vertices = [v for v in range(dec.n) if h_adj[v]]
    violations, _ = per_source_claims(h_vertices, h_adj, set(h_vertices), incidences(dec), dec.t)
    return violations


class TestDistanceLemma:
    """The distance claims hold on H of every verified decomposition and cover,
    which is what lets `expansion_audit` state them instead of checking them."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(n=st.integers(2, 14), data=st.data(), rng=st.randoms(use_true_random=False))
    def test_no_violation_on_h(self, n, data, rng):
        r = data.draw(st.integers(1, n // 2))
        dec = random_decomposition(n, r, data.draw(st.integers(1, 12)), rng)
        assert claims_on_h(dec) == []
        assert claims_on_h(double_cover(dec)) == []

    def test_an_unverified_input_breaks_them(self):
        # M_0 is not induced: (1, 2) of M_1 joins two of its covered vertices,
        # so A_1 and A_2 share both matchings at distance 1
        dec = MatchingDecomposition.from_matchings(6, [[(0, 1), (2, 3)], [(1, 2), (4, 5)]], 2)
        assert (1, 2, 1, 2) in claims_on_h(dec)
        with pytest.raises(PreconditionError, match=r"\(not-induced\)"):
            expansion_audit(dec)
