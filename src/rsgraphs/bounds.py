"""Exact bound evaluation and executable audits of the proof machinery.

All bound arithmetic is exact rational; floats appear only in rendered text.
The hard cap on r comes from a Plotkin-style double count over characteristic
vectors of the matching endpoint sets.  For the r = n/4 regime the audit
re-runs the degree-sum / edge-class / expansion argument on concrete inputs
as checkable assertions rather than asymptotics.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from fractions import Fraction

from .core import (
    MatchingDecomposition,
    ParameterError,
    PreconditionError,
    _record,
    is_bipartite,
    verification_verdict,
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

    def to_dict(self):
        return {
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "feasible": self.feasible,
            "regime": self.regime,
            "hard_bound": str(self.hard_bound) if self.hard_bound is not None else None,
            "tight": self.tight,
            "witness": self.witness,
            "advisory": list(self.advisory),
        }


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
    rr = Fraction(r)
    advisory = []

    if rr > quarter:
        cap = max_r(n, t)
        if rr > cap:
            return BoundVerdict(
                n, r, t, feasible=False, regime="above-quarter", hard_bound=cap,
                witness=f"r = {r} exceeds the hard cap {cap} = max_r({n}, {t})",
            )
        return BoundVerdict(
            n, r, t, feasible=True, regime="above-quarter", hard_bound=cap,
            tight=(rr == cap),
            witness=f"r = {r} <= {cap} = max_r({n}, {t})" + (" (tight)" if rr == cap else ""),
        )

    if rr == quarter:
        advisory.append("asymptotically t <= (6+o(1)) log2 n when r = n/4")
        advisory.append("if the graph is regular, t <= 2(log2 n + 1)")
        if not _log2_cap_holds(t, n):
            return BoundVerdict(
                n, r, t, feasible=False, regime="exactly-quarter",
                witness=f"t = {t} exceeds the hard cap 8(log2 {n} + 1) = {8 * (math.log2(n) + 1):.3f}",
                advisory=tuple(advisory),
            )
        return BoundVerdict(
            n, r, t, feasible=True, regime="exactly-quarter",
            witness=f"t = {t} <= 8(log2 {n} + 1) = {8 * (math.log2(n) + 1):.3f}",
            advisory=tuple(advisory),
        )

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
    return BoundVerdict(
        n, r, t, feasible=True, regime="below-quarter",
        witness="no hard finite-n cap applies below r = n/4",
        advisory=tuple(advisory),
    )


@_record
class DistanceCertificate:
    n: int
    r: int
    t: int
    min_pairwise_distance: int
    double_count_lhs: int            # 2r * C(t+1, 2)
    pair_distance_sum: int           # sum over coordinates of a_i * b_i
    column_product_cap: Fraction     # n(t+1)^2/4 or nt(t+2)/4 by parity of t
    slack: int
    passed: bool

    def to_dict(self):
        return {
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "min_pairwise_distance": self.min_pairwise_distance,
            "double_count_lhs": self.double_count_lhs,
            "pair_distance_sum": self.pair_distance_sum,
            "column_product_cap": str(self.column_product_cap),
            "slack": self.slack,
            "passed": self.passed,
        }


def distance_certificate(dec: MatchingDecomposition) -> DistanceCertificate:
    """Hamming-distance certificate over the characteristic vectors of V_1..V_t.

    Requires a verified decomposition; verification makes every |V_i| = 2r,
    so the all-zero vector can join the code.  Asserts pairwise distance
    >= 2r over all 0 <= i < j <= t and evaluates both sides of the double
    count exactly, from the verifier's cached verdict alone
    (`core.verification_verdict`, which skips the pair count).

    The distance sum is Plotkin's (1960) column count: stack the t + 1
    vectors as rows; column v holds d_v ones (each edge at v lies in exactly
    one matching, and no matching covers v twice), so it adds d_v (t+1-d_v)
    to the sum over all pairs of rows.  For the minimum, d(0, V_i) = 2r and
    d(V_i, V_j) = 4r - 2|V_i cap V_j|, so it is min(2r, 4r - 2 max|V_i cap V_j|).
    That is 2r on any decomposition that passes: inducedness lets each edge
    of M_j put at most one end in V_i, so |V_i cap V_j| <= r (the lemma in
    the `core` docstring), and no pair maximum is needed.
    """
    verdict = verification_verdict(dec)
    if not verdict.passed:
        raise PreconditionError("distance_certificate requires a verified decomposition")
    n, t, r = dec.n, dec.t, dec.r
    dist_sum = sum(count * d * (t + 1 - d) for d, count in verdict.degree_histogram.items())

    lhs = 2 * r * math.comb(t + 1, 2)
    if t % 2 == 1:
        cap = Fraction(n * (t + 1) ** 2, 4)
    else:
        cap = Fraction(n * t * (t + 2), 4)
    slack = dist_sum - lhs
    passed = slack >= 0 and dist_sum <= cap
    return DistanceCertificate(
        n=n, r=r, t=t,
        min_pairwise_distance=2 * r,
        double_count_lhs=lhs,
        pair_distance_sum=dist_sum,
        column_product_cap=cap,
        slack=slack,
        passed=passed,
    )


PASS = "pass"
FAIL = "fail"
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
    bfs_violations: tuple
    layers: tuple                    # LayerRow from the lexicographically first F vertex

    @property
    def passed(self) -> bool:
        return all(status != FAIL for _, status, _ in self.assertions)

    def to_dict(self):
        return {
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "doubled": self.doubled,
            "edge_classes": {str(k): v for k, v in sorted(self.edge_classes.items())},
            "E1": self.e1,
            "E0": self.e0,
            "s": str(self.s),
            "s_prime": str(self.s_prime),
            "f_min_degree_threshold": str(self.f_min_degree_threshold),
            "f_vertex_count": self.f_vertex_count,
            "f_achieved_min_degree": self.f_achieved_min_degree,
            "assertions": [list(a) for a in self.assertions],
            "bfs_violations": [list(v) for v in self.bfs_violations],
            "layers": [
                {"i": row.index, "size": row.size, "binomial_floor": row.binomial_floor, "meets": row.meets}
                for row in self.layers
            ],
            "passed": self.passed,
        }


# The claim check runs its BFS from this many sources at a time: its memory is
# a few |F|-long lists of SOURCE_BLOCK-bit ints, whatever the size of F.
SOURCE_BLOCK = 256


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


def _claim_violations(nbrs, covering):
    """Every failing distance claim (v, u, k, overlap) on the graph nbrs.

    Vertices are indices into nbrs (lists of neighbour indices) and
    covering (the matching set A_v of each vertex, ascending).  The graph
    must be bipartite with no isolated vertex, as F is: it lies in the
    audited graph, and every F vertex has an F-neighbour (8 d >= t > 0).
    For u at distance k from v the claim is |A_u cap A_v| <= k for odd k
    and |A_u minus A_v| <= k for even k.  Violations come ordered by source
    v, then by discovery order of a BFS from v that walks nbrs in list order.
    """
    incidence = [sum(1 << m for m in a) for a in covering]
    degree = list(map(len, covering))
    columns = max(incidence, default=0).bit_length()
    seen = [False] * len(nbrs)
    local = [0] * len(nbrs)            # each vertex's index in its part
    hit_sources = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        # the two sides of the component alternate by level
        parts = ([], [])
        for u, k in _bfs(nbrs, root).items():
            seen[u] = True
            parts[k % 2].append(u)
        for part in parts:
            for i, u in enumerate(part):
                local[u] = i
        hit_sources += _component_hits(parts, nbrs, local, covering, degree, columns)

    # slow path, for the few sources with a failing claim: recheck every
    # vertex in discovery order to list the witnesses
    violations = []
    for v in sorted(set(hit_sources)):
        av = incidence[v]
        for u, k in _bfs(nbrs, v).items():
            overlap = (incidence[u] & (av if k % 2 else ~av)).bit_count()
            if overlap > k:
                violations.append((v, u, k, overlap))
    return violations


def _overlap_planes(targets, covering, degree, col):
    """For each target u, c_u(v) = |A_u cap A_v| over a block's sources v, as bit-planes.

    col[m] holds the block's sources covered by matching m; c_u is the sum of
    col[m] over m in A_u, kept as bitsets planes[p] = bit p of c_u.
    """
    out = []
    for u in targets:
        planes = [0] * degree[u].bit_length()
        for m in covering[u]:
            carry, p = col[m], 0
            while carry:
                planes[p], carry = planes[p] ^ carry, planes[p] & carry
                p += 1
        out.append(planes)
    return out


def _component_hits(parts, nbrs, local, covering, degree, columns):
    """Sources of one component of F with a failing claim.

    parts is the component's two sides, both non-empty (the component is
    bipartite and has an edge).  Level k from a source in parts[s] lies in
    parts[(s + k) % 2], so each BFS level walks one part.  Claims
    across the two sides are at odd k and symmetric in u and v: they are
    checked from the sources in parts[0] only, and a failing one marks its
    target as a failing source too.
    """
    part_nbrs = [[[local[w] for w in nbrs[u]] for u in part] for part in parts]
    part_degree = [[degree[u] for u in part] for part in parts]
    depth = max(map(max, part_degree))
    found = []
    for s, sources in enumerate(parts):
        skip = 0 if s == 1 else None           # the part whose claims were checked from parts[0]
        for lo in range(0, len(sources), SOURCE_BLOCK):
            block = sources[lo:lo + SOURCE_BLOCK]
            ones = (1 << len(block)) - 1
            col = [0] * columns                # col[m]: the block's sources in V_m
            for j, v in enumerate(block):
                for m in covering[v]:
                    col[m] |= 1 << j
            planes = [_overlap_planes(part, covering, degree, col) if q != skip else None
                      for q, part in enumerate(parts)]
            front = [[0] * len(part) for part in parts]
            unseen = [[ones] * len(part) for part in parts]
            for j in range(len(block)):
                front[s][lo + j] = 1 << j
                unseen[s][lo + j] = ones ^ 1 << j
            hits = 0
            # overlaps are at most min(d_u, d_v), so no claim at k >= d_u can fail
            for k in range(1, depth):
                q = (s + k) % 2
                prev = front[(s + k - 1) % 2]
                open_ = unseen[q]
                new = [0] * len(open_)
                for i, ws in enumerate(part_nbrs[q]):
                    reached = 0
                    for w in ws:
                        reached |= prev[w]
                    reached &= open_[i]
                    if not reached:
                        continue
                    new[i] = reached
                    open_[i] ^= reached
                    d = part_degree[q][i]
                    if k < d and q != skip:
                        # over: sources with c > bound, the carry out of
                        # c + (2^P - 1 - bound) over the P planes
                        bound = k if k % 2 else d - k - 1
                        over = 0
                        for p, x in enumerate(planes[q][i]):
                            over = over & x if bound >> p & 1 else over | x
                        bad = reached & (over if k % 2 else ~over)
                        if bad:
                            hits |= bad
                            if q != s:
                                found.append(parts[q][i])
                if not any(new):
                    break
                front[q] = new
            found.extend(v for j, v in enumerate(block) if hits >> j & 1)
    return found


def expansion_audit(dec: MatchingDecomposition) -> AuditReport:
    """Run the r = n/4 proof machinery as concrete checks on one decomposition.

    Non-bipartite inputs are first replaced by their double cover (the proof's
    own reduction).  Checks: (a) every edge has degree sum <= t + 1; (b) when
    r = n/4 exactly, 2*E1 + E0 >= nt/4; (c) strip vertices of degree < t/8
    from the degree-sum >= t subgraph and report whether anything survives;
    (d) for u, v in the surviving subgraph F at odd distance k the matching
    incidence sets satisfy |A_u cap A_v| <= k, at even k |A_u minus A_v| <= k;
    (e) informational layer sizes against binomial floors, from a BFS out of
    the first F vertex.

    (d) runs a BFS from SOURCE_BLOCK sources of F at once, block after block,
    which bounds its memory.  Each F vertex holds an int bitset of the block's
    sources that reached it, and level k + 1 at u is the OR of level k over
    u's F-neighbours, minus the sources seen before.  F is bipartite (it lies
    in the audited graph), so a level from sources on one side lies wholly on
    one side.  For each target u the overlaps |A_u cap A_v| with the block's
    sources v are summed as bit-planes of the matching columns in A_u, so
    each (u, k) claim is one compare against a constant.  The overlap is at
    most min(d_u, d_v), so no claim at k >= D, the largest |A_v| on F, can
    fail and the BFS stops at depth D - 1.  A source with a failing claim is
    walked again by a plain BFS, which lists its witnesses in the order of a
    per-source check: by source, then by discovery order.
    """
    verdict = verification_verdict(dec)
    if not verdict.passed:
        raise PreconditionError("expansion_audit requires a verified decomposition")

    # cover vertices v and v + n lie in the matchings holding v in the input
    covering, n_in = dec.covering, dec.n
    doubled = False
    if is_bipartite(dec.graph) is None:
        from .constructions import double_cover     # here, so `rsg bound` and `search` skip it
        dec = double_cover(dec)
        doubled = True

    g = dec.graph
    n, t, r = g.n, dec.t, dec.r

    # on a verified decomposition every edge at v lies in exactly one matching
    # and no matching covers v twice, so |A_v| = d_v holds for every vertex:
    # the audit reads a degree as len(covering[v % n_in]), on a cover too
    assertions = [("incidence-degree", PASS, "|A_v| = d_v for every vertex")]

    # the verdict counts the input's edges by degree sum; on a cover each input
    # edge (u, v) gives (u, v + n_in) and (v, u + n_in), both of that degree sum
    classes = {s - t: k * (1 + doubled) for s, k in verdict.edge_degree_sums.items()}
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

    # H: edges with degree sum >= t, neighbour lists only for vertices with an
    # H edge; then iteratively strip H-degree < t/8
    h_adj = defaultdict(list)
    for u, v in g.edges:
        if len(covering[u % n_in]) + len(covering[v % n_in]) >= t:
            h_adj[u].append(v)
            h_adj[v].append(u)
    alive = set(h_adj)
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            d = sum(1 for w in h_adj[v] if w in alive)
            if 8 * d < t:
                alive.discard(v)
                changed = True
    f_vertices = sorted(alive)
    index = {v: i for i, v in enumerate(f_vertices)}
    # F-index neighbour lists, each in the iteration order of a set of the
    # vertex's H-neighbours filled in edge order: this fixes the BFS order in
    # which bfs_violations are listed
    nbrs = [[index[w] for w in set(h_adj[v]) if w in alive] for v in f_vertices]
    f_covering = [covering[v % n_in] for v in f_vertices]
    achieved = min(map(len, nbrs), default=0)
    # nothing below reads the audited graph: drop it (and a double cover
    # built above) before the claim check allocates its bitsets
    del dec, g, h_adj, index, alive, covering

    # (d) BFS distance claims inside F
    bfs_violations = [
        (f_vertices[v], f_vertices[u], k, overlap)
        for v, u, k, overlap in _claim_violations(nbrs, f_covering)
    ]
    assertions.append((
        "bfs-distance-claims",
        PASS if not bfs_violations else FAIL,
        "incidence overlaps bounded by distance on F"
        if not bfs_violations else f"{len(bfs_violations)} offending pairs, first {bfs_violations[0]}",
    ))

    layers = []
    if f_vertices:
        sizes = Counter(_bfs(nbrs, 0).values())
        s_int = t // 8
        for i in range(max(sizes) + 1):
            floor_val = math.comb(s_int, i) if i <= s_int else 0
            layers.append(LayerRow(i, sizes[i], floor_val, sizes[i] >= floor_val))

    return AuditReport(
        n=n, r=r, t=t, doubled=doubled,
        edge_classes=classes,
        e1=e1, e0=e0, s=s, s_prime=s_prime,
        f_min_degree_threshold=threshold,
        f_vertex_count=len(f_vertices),
        f_achieved_min_degree=achieved,
        assertions=tuple(assertions),
        bfs_violations=tuple(bfs_violations),
        layers=tuple(layers),
    )
