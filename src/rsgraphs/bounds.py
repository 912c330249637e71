"""Exact bound evaluation and audits of the proof machinery on concrete inputs.

All bound arithmetic is exact rational; floats appear only in rendered text.
The hard cap on r comes from a Plotkin-style double count over characteristic
vectors of the matching endpoint sets.  For the r = n/4 regime the audit
reports the degree-sum / edge-class / expansion quantities of one input.
Every check of the distance certificate and the audit that follows from
verification alone is proved once, in the docstring of the function that
relies on it, and not recomputed; only the audit's layer floors are computed.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from fractions import Fraction

from .core import (
    MatchingDecomposition,
    ParameterError,
    _plain,
    _record,
    _require_verified,
)


def max_r(n: int, t: int) -> Fraction:
    """Largest possible matching size in an (r, t) decomposition on n vertices.

    (n/4)(1 + 1/t) for odd t, (n/4)(1 + 1/(t+1)) for even t, exact.
    """
    if n < 1 or t < 1:
        raise ParameterError("n and t must be >= 1")
    odd = t % 2 == 1
    return Fraction(n, 4) * (1 + Fraction(1, t if odd else t + 1))


def min_vertices(r: int, t: int) -> int:
    """The fewest vertices n with r <= max_r(n, t), in exact integers.

    r <= (n/4)(1 + 1/s), with s = t for odd t and t + 1 for even t, is
    n >= 4rs/(s + 1).
    """
    s = t if t % 2 else t + 1
    return -(-4 * r * s // (s + 1))


def _log2_cap_holds(t: int, n: int) -> bool:
    # t <= 8(log2 n + 1)  <=>  2^t <= (2n)^8  <=>  t <= floor(log2 (2n)^8), exact in integers
    return t <= ((2 * n) ** 8).bit_length() - 1


@_record
class BoundVerdict:
    n: int
    r: int
    t: int
    feasible: bool
    regime: str                      # above-quarter | exactly-quarter | below-quarter
    hard_bound: Fraction = None      # cap on r, present only above quarter
    tight: bool = False              # r meets hard_bound exactly
    witness: str = ""
    advisory: tuple = ()

    to_dict = _plain


def feasibility_verdict(n: int, r: int, t: int) -> BoundVerdict:
    """Decide what the finite bounds say about an (r, t) decomposition on n vertices.

    The r cap is hard above n/4; at r = n/4 exactly, t <= 8(log2 n + 1) is
    enforced as a hard cap and the sharper asymptotic statements are reported
    as advisory text.  Below n/4 only advisory asymptotics apply.
    """
    if n < 1 or t < 1:
        raise ParameterError("n and t must be >= 1")
    if r < 0:
        raise ParameterError("r must be >= 0")
    if 2 * r > n:
        raise ParameterError(f"impossible parameters: a matching of size {r} needs 2r <= n vertices")

    quarter = Fraction(n, 4)
    cap, tight, advisory = None, False, []
    if r > quarter:
        regime, cap = "above-quarter", max_r(n, t)
        feasible, tight = r <= cap, r == cap
        witness = (f"r = {r} <= {cap} = max_r({n}, {t})" + (" (tight)" if tight else "")
                   if feasible else f"r = {r} exceeds the hard cap {cap} = max_r({n}, {t})")
    elif r == quarter:
        regime, feasible = "exactly-quarter", _log2_cap_holds(t, n)
        advisory += ["asymptotically t <= (6+o(1)) log2 n when r = n/4",
                     "if the graph is regular, t <= 2(log2 n + 1)"]
        log_cap = f"8(log2 {n} + 1) = {8 * (math.log2(n) + 1):.3f}"
        witness = f"t = {t} <= {log_cap}" if feasible else f"t = {t} exceeds the hard cap {log_cap}"
    else:
        regime, feasible = "below-quarter", True
        c = Fraction(r, n)
        if c > Fraction(1, 5):
            eps = c - Fraction(1, 5)
            advisory.append(
                f"for r = cn with c = {c} >= 1/5 + eps, t = O(n/log n) with proof constant "
                f"K = 100/eps = {Fraction(100) / eps} (advisory only, not enforced at finite n)"
            )
        advisory.append(
            "for r >= (1/4 - b)n with a small absolute b > 0, t = n/((log n) 2^Omega(log* n)) "
            "(advisory only, constants not explicit)"
        )
        witness = "no hard finite-n cap applies below r = n/4"
    return BoundVerdict(n, r, t, feasible=feasible, regime=regime, hard_bound=cap, tight=tight,
                        witness=witness, advisory=tuple(advisory))


@_record
class DistanceCertificate:
    n: int
    r: int
    t: int
    min_pairwise_distance: int
    double_count_lhs: int            # 2r * C(t+1, 2)
    pair_distance_sum: int           # sum over coordinates of a_i * b_i
    column_product_cap: Fraction     # n floor((t+1)^2 / 4)
    slack: int
    passed: bool = True              # a lemma: see distance_certificate

    to_dict = _plain


def distance_certificate(dec: MatchingDecomposition) -> DistanceCertificate:
    """Hamming-distance certificate over the characteristic vectors of V_1..V_t.

    Requires a verified decomposition; verification makes every |V_i| = 2r,
    so the all-zero vector can join the code.  Reports the minimum pairwise
    distance over all 0 <= i < j <= t and both sides of Plotkin's (1960)
    double count, exactly, from the verifier's cached report alone
    (`core.verify_decomposition`, which compares no pair of matchings).

    The distance sum is a column count: stack the t + 1 vectors as rows;
    column v holds d_v ones (each edge at v lies in exactly one matching, and
    no matching covers v twice), so it adds d_v (t+1-d_v) to the sum over all
    pairs of rows.  For the minimum, d(0, V_i) = 2r and d(V_i, V_j) =
    4r - 2|V_i cap V_j|, so it is min(2r, 4r - 2 max|V_i cap V_j|).  That is
    2r on any decomposition that passes: inducedness lets each edge of M_j
    put at most one end in V_i, so |V_i cap V_j| <= r (the lemma in the
    `core` docstring), and no pair maximum is needed.

    The certificate passes on every input it accepts, so `passed` is a
    constant.  Each of the C(t+1, 2) pairs of rows is at least 2r apart, so
    the sum is at least 2r C(t+1, 2): slack >= 0.  A column's d (t+1-d) is a
    product of two non-negative integers summing to t + 1, at most
    floor((t+1)^2 / 4), so the sum is at most n floor((t+1)^2 / 4), the cap:
    n(t+1)^2/4 for odd t and nt(t+2)/4 for even t.
    """
    verdict = _require_verified(dec, "distance_certificate")
    n, t, r = dec.n, dec.t, dec.r
    dist_sum = sum(count * d * (t + 1 - d) for d, count in verdict.degree_histogram.items())
    lhs = 2 * r * math.comb(t + 1, 2)
    return DistanceCertificate(
        n=n, r=r, t=t,
        min_pairwise_distance=2 * r,
        double_count_lhs=lhs,
        pair_distance_sum=dist_sum,
        column_product_cap=Fraction(n * ((t + 1) ** 2 // 4)),
        slack=dist_sum - lhs,
    )


PASS = "pass"
NOT_APPLICABLE = "not-applicable"


@_record
class LayerRow:
    index: int
    size: int
    binomial_floor: int
    meets: bool


@_record
class AuditReport:
    n: int
    r: int
    t: int
    doubled: bool                    # input was non-bipartite; audited its double cover
    edge_classes: dict               # offset i -> count of edges with degree sum t + i
    e1: int
    e0: int
    s: Fraction                      # (E1 + E0) / n
    s_prime: Fraction                # E1 / n
    f_min_degree_threshold: Fraction # t / 8
    f_vertex_count: int
    f_achieved_min_degree: int
    assertions: tuple                # (name, status, detail)
    bfs_violations: tuple            # always empty: (d) is a lemma of verification
    layers: tuple                    # LayerRow from the lexicographically first F vertex

    passed = True                    # every assertion is a lemma: see expansion_audit

    def to_dict(self):
        return {
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "doubled": self.doubled,
            "edge_classes": _plain(self.edge_classes),
            "E1": self.e1,
            "E0": self.e0,
            "s": str(self.s),
            "s_prime": str(self.s_prime),
            "f_min_degree_threshold": str(self.f_min_degree_threshold),
            "f_vertex_count": self.f_vertex_count,
            "f_achieved_min_degree": self.f_achieved_min_degree,
            "assertions": _plain(self.assertions),
            "bfs_violations": _plain(self.bfs_violations),
            "layers": [
                {"i": row.index, "size": row.size, "binomial_floor": row.binomial_floor, "meets": row.meets}
                for row in self.layers
            ],
            "passed": self.passed,
        }


def _bfs(nbrs, source):
    """Distance from source to every vertex it reaches, in BFS discovery order."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def expansion_audit(dec: MatchingDecomposition) -> AuditReport:
    """Run the r = n/4 proof machinery on one decomposition.

    Non-bipartite inputs are audited on their double cover (the proof's own
    reduction).  One adjacency of the input gives the degrees (d_v is the
    length of v's list), H, and the test that decides this, one BFS from the
    first vertex of each component:

        Lemma (parity).  With BFS distances taken in each component from
        its source, the graph is bipartite exactly when no edge joins two
        vertices at equal distance.
        Proof.  A BFS distance is a shortest-path length, so the distances
        at the ends of an edge differ by at most 1.  If no edge joins equal
        distances, each edge joins distances of opposite parity, and parity
        2-colours the graph.  If an edge uv joins two vertices at distance
        k, the shortest paths from the source to u and to v, closed by uv,
        form a closed walk of odd length 2k + 1, which holds an odd cycle.

    Steps: (a) every edge has degree sum <= t + 1; (b) when r = n/4 exactly,
    2*E1 + E0 >= nt/4; (c) strip vertices of degree < t/8 from H, the
    subgraph of the edges with degree sum >= t, and report whether anything
    survives as F; (d) for u, v in F at odd distance k the matching incidence
    sets satisfy |A_u cap A_v| <= k, at even k |A_u minus A_v| <= k; (e)
    layer sizes against binomial floors, from a BFS out of the first F
    vertex.  (a), (b) and (d) are lemmas of verification, stated here and not
    computed, so every assertion passes and `passed` is a constant.  The
    floors in (e) are computed: no proof of them is on record.

    (a) is the verifier's degree-sum invariant, which the input has passed.

    (b) The t matchings of size r are edge-disjoint, so |E| = rt and
    sum_v d_v = 2rt.  By Cauchy-Schwarz, sum_e (d_u + d_v) = sum_v d_v^2 >=
    (2rt)^2 / n, which at r = n/4 is nt^2/4 = t|E|.  So the terms d_u + d_v - t
    sum to at least 0; by (a) each is at most 1, so E1 is at least the number
    of negative terms, |E| - E1 - E0, and 2*E1 + E0 >= |E| = nt/4.  A double
    cover is itself a verified decomposition with the input's degrees and t,
    and n, r and each class doubled, so (b) holds there too.

    (d) Let M_o be the matching that lists the edge xy.  Then A_x cap A_y =
    {o}: a second shared index j would make xy a chord of M_j.  On an H edge
    |A_x cup A_y| = |A_x| + |A_y| - 1 >= t - 1, so at most one matching m
    misses both ends.  A step from x_j to x_{j+1} along a path of H edges
    from u gives

        A_u cap A_{x_{j+1}}    lies in  {o} cup (A_u minus A_{x_j}),
        A_u minus A_{x_{j+1}}  lies in  (A_u cap A_{x_j}) cup {m}.

    Alternating these from A_u minus A_u = {} adds at most one index per step,
    which gives both claims at every length k.  F edges are H edges and a BFS
    distance is the length of a path, so (d) holds on F.  A cover edge
    (u, v + n) carries the input's A_u and A_v, so it holds on a cover too;
    bfs_violations is always empty.
    """
    verdict = _require_verified(dec, "expansion_audit")
    n_in, t = dec.n, dec.t

    # a verified decomposition lists each edge once, so len(adj[v]) = d_v; on
    # a cover v and v + n_in both have the input's d_v
    edges = [e for _, m in dec.listed for e in m]
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    # the parity lemma in the docstring
    dist = {}
    for v in adj:
        if v not in dist:
            dist.update(_bfs(adj, v))
    doubled = any(dist[u] == dist[v] for u, v in edges)
    n, r = (2 * n_in, 2 * dec.r) if doubled else (n_in, dec.r)

    # on a verified decomposition every edge at v lies in exactly one matching
    # and no matching covers v twice, so |A_v| = d_v holds for every vertex
    assertions = [("incidence-degree", PASS, "|A_v| = d_v for every vertex")]

    # the verdict counts the input's edges by degree sum; on a cover each input
    # edge (u, v) gives (u, v + n_in) and (v, u + n_in), both of that degree sum
    classes = {s - t: k * (1 + doubled) for s, k in verdict.edge_degree_sums.items()}
    e1 = classes.get(1, 0)
    e0 = classes.get(0, 0)
    # (a) and (b), the lemmas in the docstring
    assertions.append(("degree-sum-classes", PASS, "no edge exceeds degree sum t + 1"))
    if 4 * r == n:
        assertions.append((
            "cauchy-schwarz", PASS, f"2*E1 + E0 = {2 * e1 + e0} vs nt/4 = {Fraction(n * t, 4)}",
        ))
    else:
        assertions.append((
            "cauchy-schwarz", NOT_APPLICABLE, f"r = {r} != n/4 = {Fraction(n, 4)}",
        ))

    s = Fraction(e1 + e0, n) if n else Fraction(0)
    s_prime = Fraction(e1, n) if n else Fraction(0)
    threshold = Fraction(t, 8)

    # H: edges with degree sum >= t, neighbour lists only for vertices with an
    # H edge, taken from adj; then strip H-degree < t/8 in one peel.  Each
    # removal lowers its neighbours' degrees, and a vertex joins the work list
    # once, when its degree first drops below t/8, so the peel costs O(|H|).
    # Whatever the order, what survives is the largest subgraph of H with
    # minimum degree >= t/8, so F is the one a repeated sweep would leave.
    h_adj = defaultdict(list)
    for u, v in edges:
        if len(adj[u]) + len(adj[v]) >= t:
            for x, y in ((u, v + n_in), (v, u + n_in)) if doubled else ((u, v),):
                h_adj[x].append(y)
                h_adj[y].append(x)
    h_deg = {v: len(ws) for v, ws in h_adj.items()}
    stripped = [v for v, d in h_deg.items() if 8 * d < t]
    for v in stripped:              # the list grows as the peel goes
        for w in h_adj[v]:
            h_deg[w] -= 1
            if 8 * h_deg[w] < t <= 8 * h_deg[w] + 8:
                stripped.append(w)
    alive = h_deg.keys() - stripped
    nbrs = {v: [w for w in h_adj[v] if w in alive] for v in alive}
    achieved = min(map(len, nbrs.values()), default=0)

    # (d), the lemma in the docstring
    assertions.append(("bfs-distance-claims", PASS, "incidence overlaps bounded by distance on F"))

    layers = []
    if nbrs:
        sizes = Counter(_bfs(nbrs, min(nbrs)).values())
        s_int = t // 8
        for i in range(max(sizes) + 1):
            floor_val = math.comb(s_int, i) if i <= s_int else 0
            layers.append(LayerRow(i, sizes[i], floor_val, sizes[i] >= floor_val))

    return AuditReport(
        n=n, r=r, t=t, doubled=doubled,
        edge_classes=classes,
        e1=e1, e0=e0, s=s, s_prime=s_prime,
        f_min_degree_threshold=threshold,
        f_vertex_count=len(nbrs),
        f_achieved_min_degree=achieved,
        assertions=tuple(assertions),
        bfs_violations=(),
        layers=tuple(layers),
    )
