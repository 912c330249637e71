"""Graph / decomposition data model and the certifying verifier.

A decomposition lists t matchings on n vertices, and its graph is their union,
as in the paper's definition.  It claims that they are pairwise edge-disjoint
induced matchings of a common size r.  Nothing in this module trusts that
claim: `verify_decomposition` re-checks every invariant and returns a report
with explicit witnesses.  It is the package's one batch inducedness check;
`search` keeps its own incremental one.

The verifier runs in two phases.  Phase 1 checks the sizes, edge-disjointness,
the matching property and inducedness, and takes the degree statistics in the
same edge pass (d_u + d_v <= t + 1 among them).  Phase 2 counts |V_i cap V_j|
over all pairs i < j.  Phase 2 cannot fail after phase 1 passes: when M_i is
induced, an edge of M_j (j != i, so not listed by M_i) with both ends in V_i
would be a chord of M_i, so each of the r edges of M_j puts at most one vertex
in V_i and |V_i cap V_j| <= r.  (The same argument on the matchings covering an
edge's two ends gives d_u + d_v <= 2 + (t - 1).)

Phase 1 is computed once per decomposition and cached on it as its verdict:
a `MatchingDecomposition` is frozen and its matchings are sorted tuples, so
repeat verification of one object costs nothing.  A failing verdict runs phase
2 at once and is the full report.  Callers that need only pass/fail read
`verification_verdict`: the Cayley construction's self-certification and the
search certificate checks.  `disjoint_union`, `double_cover`,
`distance_certificate` and `expansion_audit` take their input through
`_require_verified`, which refuses it naming the first failing invariant.
`verify_decomposition` (the `rsg verify` report) adds phase 2 to a passing
verdict once, for its max_pair_intersection statistic.

Both phases read the incidence map A_v = {i : v in V_i} as a t-bit int per
covered vertex where that takes no more 64-bit words than the `covering`
lists hold entries (`_incidence`), and as those lists otherwise (thousands of
one-edge matchings would make the ints n*t/64 words).

On the ints, phase 1 is a screen (`_screen`) that needs no witness:

    Lemma (the screen).  If every |M_i| = r, sum_v |A_v| = 2 sum_i |M_i|,
    and A_u & A_w = {o} on every edge (u, w) of every M_o, phase 1 passes;
    and every input that passes phase 1 passes these checks.
    Proof.  sum_v |A_v| = sum_i |V_i|, and |V_i| <= 2 |M_i| with equality
    only when no two edges listed by M_i share an endpoint (an edge listed
    twice shares both), so the identity makes every M_i a matching.  An edge
    (u, w) of M_o that M_j (j != o) lists too, or that joins two vertices of
    V_j as a chord of M_j, puts j in A_u & A_w, which always holds o.  So the
    checks leave edge-disjoint induced matchings of size r, and the lemma
    above gives d_u + d_v <= t + 1.  Conversely, on such matchings an extra
    j in A_u & A_w would be one of those two faults.

On a passing screen d_v = |A_v|, a popcount: each matching covering v adds
one edge at v, and no edge is listed twice.  So the screen's statistics need
no edge walk when the degrees agree:

    Lemma (one degree).  If the screen passes and |A_v| = d for every
    covered vertex v, the covered vertices' degree histogram is {d: their
    count} and the edges counted by d_u + d_v (`edge_degree_sums`, the
    audit's edge classes) are {2d: r t}.
    Proof.  d_v = |A_v| = d at both ends of every edge, and the t matchings
    list r t distinct edges.

Every family that `rsg construct` builds from scratch is regular, and its
copies and double cover stay so.  The screen checks the sizes first, then
the identity, then one matching at a time the AND of its two endpoint
columns, in C.  Only where the degrees of a passing input differ does it
walk the edges (`_degree_walks`), twice: once for the order in which they
first name the vertices, which fixes the histogram's key order, and once to
count them by d_u + d_v.  On the lists, or at the screen's first flag,
phase 1 runs the witness loop (`_witnesses`): one pass over the edges that
finds every witness and counts the edges by d_u + d_v, the form deciding
only how it tests A_u cap A_w.  So a failing input pays for the screen up
to its first flag, next to nothing on a size mismatch, plus the loop.
Phase 2 sums the ints in bit-planes, or counts the lists with a `Counter`.
Its bit-plane sum adds A_u + A_w = (A_u ^ A_w) + 2 (A_u & A_w) once per
edge (u, w) of M_i: the edges of a matching cover V_i once each, so the
work is sum_i |M_i| adds, half the sum_i |V_i| of one per vertex; a
matching that phase 1 found sharing an endpoint pairs its sorted vertices
instead.  The two forms give the same report.  `covering` and phase 2 skip
the empty matchings in C (`_listed`), and no phase allocates per vertex of
n.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain, compress, count
from operator import add, and_


class GraphError(ValueError):
    """Structurally malformed input (bad vertex ids, loops, unknown edges)."""


class ParameterError(ValueError):
    """Arguments outside a routine's documented domain."""


class PreconditionError(ValueError):
    """An operation was handed input that fails its stated precondition."""


def _record(cls):
    """`cls` as a frozen value record, as `dataclass(frozen=True)` makes one, minus `inspect`:
    the fields (`_fields`) in annotation order, a default with a `copy` method copied per instance."""
    fields, names = tuple(cls.__annotations__), set(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}

    def values(self):
        return tuple(getattr(self, name) for name in fields)

    def __init__(self, *args, **kwargs):
        given = {name: d.copy() if hasattr(d, "copy") else d for name, d in defaults.items()}
        given.update(zip(fields, args), **kwargs)
        if given.keys() != names or len(args) > len(fields) or kwargs.keys() & fields[:len(args)]:
            raise TypeError(f"{cls.__name__}() takes each field of {fields} once or its default")
        self.__dict__.update(given)
        getattr(self, "__post_init__", lambda: None)()

    def __setattr__(self, name, value=None):        # __delattr__ too
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    def __eq__(self, other):
        return values(self) == values(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        pairs = map("{}={!r}".format, fields, values(self))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__setattr__ = cls.__delattr__ = __setattr__
    cls.__hash__, cls._fields = lambda self: hash(values(self)), fields
    return cls


def _norm_edges(pairs, n: int):
    """Each pair (u, v) as the edge (min, max), in order; GraphError at the first bad pair."""
    for u, v in pairs:
        if 0 <= u < v < n:
            yield (u, v)
        elif 0 <= v < u < n:
            yield (v, u)
        elif u == v:
            raise GraphError(f"self-loop at vertex {u}")
        else:
            raise GraphError(f"vertex out of range in edge ({u}, {v}); n = {n}")


def _canonical(matchings, n: int):
    """Each matching as the sorted tuple of its normalised edges."""
    return tuple(tuple(sorted(_norm_edges(m, n))) for m in matchings)


@_record
class Graph:
    """Undirected simple graph on vertices 0..n-1, edges stored as (u, v) with u < v."""

    n: int
    edges: frozenset

    @classmethod
    def from_edges(cls, n, edge_iter) -> "Graph":
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        edges = frozenset(_norm_edges(edge_iter, n))
        return cls(n, edges)


def is_bipartite(g: Graph):
    """A 0/1 coloring of the vertices with an edge, as a dict, if g is bipartite, else None.

    An isolated vertex is left out and counts as color 0, so nothing grows
    with n.  Each component's smallest vertex gets color 0.
    """
    adj = defaultdict(list)
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            other = 1 - color[u]
            for w in adj[u]:
                if w not in color:
                    color[w] = other
                    queue.append(w)
                elif color[w] != other:
                    return None
    return color


@_record
class MatchingDecomposition:
    """t edge lists on vertices 0..n-1, claimed to be induced matchings of size r.

    The graph is the union of the matchings, as in the paper's definition of an
    (r, t)-RS graph, so the lists are the whole object: `graph` is derived from
    them on first read.  Each matching is a tuple of edges (u, v), u < v, in
    ascending order, which no reader sorts again: only `from_matchings`,
    `parse_rsg` and `search`'s empty certificate build a decomposition.
    """

    n: int
    matchings: tuple
    r: int

    @classmethod
    def from_matchings(cls, n: int, matchings, r: int) -> "MatchingDecomposition":
        """The decomposition of `matchings` on n vertices, each edge normalised once.

        GraphError names what `Graph.from_edges(n, <their edges>)` would, then a negative r.
        """
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        normed = _canonical(matchings, n)
        if r < 0:
            raise GraphError("claimed matching size must be non-negative")
        return cls(n, normed, r)

    @cached_property
    def graph(self) -> Graph:
        """The union of the matchings, built on first read and kept."""
        return Graph(self.n, frozenset(chain.from_iterable(self.matchings)))

    @property
    def t(self) -> int:
        return len(self.matchings)

    @cached_property
    def covering(self):
        """A_v: each vertex of a listed edge -> ascending indices of the matchings listing it.

        The map is sized by the edge lists, whatever n and t are.  It is
        computed once and shared: do not mutate it.
        """
        covering = defaultdict(list)
        for i, m in _listed(self.matchings):
            for x in {x for e in m for x in e}:
                covering[x].append(i)
        covering.default_factory = None     # a vertex outside the map raises KeyError
        return covering

    @cached_property
    def _verdict(self) -> "VerificationReport":
        """Phase 1 of the verifier, computed once; read it through `verification_verdict`."""
        return _verify(self, _incidence(self))

    @cached_property
    def _report(self) -> "VerificationReport":
        """The verifier's full report, computed once; read it through `verify_decomposition`."""
        if "_verdict" in vars(self):
            verdict = self._verdict
            inc = _incidence(self) if verdict.passed else None
        else:       # phase 1 runs here, so phase 2 reads the `_incidence` it built
            inc = _incidence(self)
            verdict = vars(self)["_verdict"] = _verify(self, inc)
        if not verdict.passed:
            return verdict
        max_inter, violations = _pair_intersections(self, inc)
        return VerificationReport(**{**vars(verdict), "violations": violations,
                                     "max_pair_intersection": max_inter})


@_record
class Violation:
    invariant: str
    matchings: tuple      # indices of the matchings involved (may be empty)
    witness: tuple        # offending vertices / edges / sizes
    detail: str


@_record
class VerificationReport:
    violations: tuple
    degree_histogram: dict
    max_edge_degree_sum: int
    max_pair_intersection: int
    isolated_vertices: int
    notes: tuple = ()
    edge_degree_sums: dict = {}      # d_u + d_v -> edge count, one dict per report; not in to_dict

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "passed": self.passed,
            "violations": [
                {
                    "invariant": v.invariant,
                    "matchings": list(v.matchings),
                    "witness": list(v.witness),
                    "detail": v.detail,
                }
                for v in self.violations
            ],
            "stats": {
                "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
                "max_edge_degree_sum": self.max_edge_degree_sum,
                "max_pair_intersection": self.max_pair_intersection,
                "isolated_vertices": self.isolated_vertices,
            },
            "notes": list(self.notes),
        }


def verify_decomposition(dec: MatchingDecomposition) -> VerificationReport:
    """Certify the (r, t)-RS property of dec, collecting all violated invariants.

    Besides the size, disjointness, matching and inducedness invariants this
    checks the two edge-local consequences used throughout: d_u + d_v <= t + 1
    on every edge, and |V_i cap V_j| <= r for i != j.  Witnesses are the lexicographically
    first offenders.  Stats are reported whether or not the verdict is pass.
    The report is computed on the first call and cached on dec.
    """
    return dec._report


def verification_verdict(dec: MatchingDecomposition) -> VerificationReport:
    """The verifier's phase 1 (module docstring): its `passed` is the verdict.

    A failing verdict is `verify_decomposition`'s report.  A passing one
    equals it except that max_pair_intersection is None: the pair count that
    fills it cannot turn a pass into a fail.  Computed once and cached on dec.
    """
    return dec._verdict


def _require_verified(dec: MatchingDecomposition, what: str) -> VerificationReport:
    """The passing verdict of dec, or PreconditionError naming `what` and the first failing invariant."""
    verdict = verification_verdict(dec)
    if not verdict.passed:
        raise PreconditionError(
            f"{what} requires a verified decomposition ({verdict.violations[0].invariant})")
    return verdict


def _incidence(dec: MatchingDecomposition):
    """A_v as a t-bit int (bit i set iff matching i covers v), for each vertex of `covering`.

    None when the ints would take more 64-bit words than the `covering` lists
    hold entries, so memory stays linear in the edge lists.  Each list is
    summed from a table of the t powers 1 << i, which needs no shift per
    entry; the table takes about t^2/128 words, so past t = 2 |covering| (t
    copies of one edge, say), where it would outgrow the ints themselves,
    each power is shifted instead.  Both phases of one `verify_decomposition`
    call read one build; a report on an already cached verdict builds them
    again, as caching them on the decomposition would keep them alive beside
    the lists.
    """
    covering = dec.covering
    t = dec.t
    if len(covering) * -(-t // 64) > sum(map(len, covering.values())):
        return None
    power = [1 << i for i in range(t)].__getitem__ if t <= 2 * len(covering) else (1).__lshift__
    return {v: sum(map(power, c)) for v, c in covering.items()}


def _verify(dec: MatchingDecomposition, inc) -> VerificationReport:
    """Phase 1 on `inc` = `_incidence(dec)`: the screen on the ints, the witness loop where it flags.

    By the screen's lemma (module docstring) the screen passes exactly the
    input that passes phase 1; `_witnesses` finds the witnesses of the rest,
    and of any input on the lists.
    """
    stats = None if inc is None else _screen(dec, inc)
    if stats is None:
        return _witnesses(dec, inc)
    return _phase_1_report(dec, inc, [], *stats)


def _screen(dec: MatchingDecomposition, inc):
    """(histogram, edge_degree_sums) if the screen (module docstring) passes dec, else None.

    The checks run cheapest first and stop at the first flag: the sizes (at
    r = 0 all there is to check), the identity sum_v |A_v| = 2 sum_i |M_i|
    on the popcounts, then one matching at a time the AND of its two
    endpoint columns, mapped in C.  `histogram` counts the covered vertices
    by degree.  With one degree both statistics follow from the one-degree
    lemma; otherwise `_degree_walks` takes them from the edges.
    """
    r, matchings = dec.r, dec.matchings
    if not r:
        return None if any(matchings) else ({}, {})
    if not set(map(len, matchings)) <= {r}:
        return None
    degrees = list(map(int.bit_count, inc.values()))       # |A_v|, which is d_v if the screen passes
    if sum(degrees) != 2 * r * len(matchings):
        return None
    a_of = inc.__getitem__
    for o, m in enumerate(matchings):
        us, ws = zip(*m)
        if list(map(and_, map(a_of, us), map(a_of, ws))).count(1 << o) != r:
            return None
    if len(set(degrees)) == 1:
        d = degrees[0]
        return {d: len(degrees)}, {2 * d: r * len(matchings)}
    return _degree_walks(matchings, inc)


def _degree_walks(matchings, inc):
    """The passing screen's statistics where no one degree is shared, from two walks over the edges.

    The first keys d_v = |A_v| in the order the edges first name the
    vertices, as the witness loop does, which fixes the histogram's key
    order; the second counts the edges by d_u + d_v.
    """
    ends = list(chain.from_iterable(chain.from_iterable(matchings)))       # u, w of each edge in turn
    deg = {v: inc[v].bit_count() for v in dict.fromkeys(ends)}
    d = list(map(deg.__getitem__, ends))
    return Counter(deg.values()), dict(sorted(Counter(map(add, d[::2], d[1::2])).items()))


def _witnesses(dec: MatchingDecomposition, inc) -> VerificationReport:
    # Phase 1's witness loop, on either form of `inc`: one pass over the
    # matchings and one over the edges, memory O(|E| + t) whatever n is.  An
    # empty matching costs O(1).
    t = dec.t
    r = dec.r
    violations = []

    owner = {}          # edge of the graph -> first matching listing it
    relisted = set()    # (edge, i): matching i lists an edge listed before
    not_matching = {}   # i -> first edge of matching i sharing an endpoint
    for i, m in enumerate(dec.matchings):
        if len(m) != r:
            violations.append(
                Violation("size-mismatch", (i,), (len(m),),
                          f"matching {i} has {len(m)} edges, declared r = {r}")
            )
        if not m:
            continue
        for e in m:
            if e in owner:
                j = owner[e]
                relisted.add((e, i))
                violations.append(
                    Violation("not-edge-disjoint", (j, i) if j != i else (i,), e,
                              f"edge {e} appears in matchings {j} and {i}")
                )
            else:
                owner[e] = i
        covered = set()
        for u, v in m:
            if u in covered or v in covered:
                not_matching[i] = (u, v)
                break
            covered.add(u)
            covered.add(v)

    # Each matching's inducedness witness is its least graph edge joining two
    # of its covered vertices without being listed by it.  A_u cap A_w holds
    # owner(e), so only a second index is a candidate.  sums is a list: faster
    # to index than a Counter.
    deg = Counter(chain.from_iterable(owner))       # d_v of each vertex with an edge
    sums = [0] * (2 * max(deg.values(), default=0) + 1)
    not_induced = {}
    look = dec.covering if inc is None else inc
    for e, o in owner.items():
        u, w = e
        sums[deg[u] + deg[w]] += 1
        if inc is None:
            a, b = look[u], look[w]
            if len(a) < 2 or len(b) < 2:
                continue
            common = set(a).intersection(b)
        else:
            bits = look[u] & look[w]
            if not bits & (bits - 1):
                continue
            common = _indices(bits)
        for i in common:
            if i != o and (e, i) not in relisted and (i not in not_induced or e < not_induced[i]):
                not_induced[i] = e

    for i in sorted(not_matching.keys() | not_induced.keys()):
        if i in not_matching:
            u, v = not_matching[i]
            violations.append(
                Violation("not-a-matching", (i,), (u, v),
                          f"edge ({u}, {v}) shares an endpoint with an earlier edge of matching {i}")
            )
        else:
            witness = not_induced[i]
            violations.append(
                Violation("not-induced", (i,), witness,
                          f"edge {witness} of the graph joins two covered vertices of matching {i}")
            )

    edge_degree_sums = {s: k for s, k in enumerate(sums) if k}
    if max(edge_degree_sums, default=0) > t + 1:
        u, v = min((u, v) for u, v in owner if deg[u] + deg[v] > t + 1)
        violations.append(
            Violation("degree-sum", (), (u, v),
                      f"edge ({u}, {v}) has d_u + d_v = {deg[u] + deg[v]} > t + 1 = {t + 1}")
        )

    return _phase_1_report(dec, inc, violations, Counter(deg.values()), edge_degree_sums, not_matching)


def _phase_1_report(dec: MatchingDecomposition, inc, violations, covered, edge_degree_sums,
                    not_matching=()):
    """The phase-1 report from the violations found, the covered vertices by
    degree (`covered`, in the histogram's key order) and the edges by d_u + d_v.

    The isolated vertices join the histogram last, at degree 0.  A failing
    report takes phase 2 at once.
    """
    isolated = dec.n - sum(covered.values())
    histogram = dict(covered)
    if isolated:
        histogram[0] = isolated
    notes = (f"{isolated} isolated vertices present; they count toward n",) if isolated else ()
    max_inter = None
    if violations:
        max_inter, pair_violations = _pair_intersections(dec, inc, not_matching)
        violations.extend(pair_violations)
    return VerificationReport(
        violations=tuple(violations),
        degree_histogram=histogram,
        max_edge_degree_sum=max(edge_degree_sums, default=0),
        edge_degree_sums=edge_degree_sums,
        max_pair_intersection=max_inter,
        isolated_vertices=isolated,
        notes=notes,
    )


def _listed(matchings):
    """(i, M_i) for each non-empty matching, ascending; the empty ones cost no Python step."""
    return zip(compress(count(), matchings), filter(None, matchings))


def _indices(bits: int):
    """The positions of the set bits of `bits`, ascending."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


def _pair_intersections(dec: MatchingDecomposition, inc, not_matching=()):
    """Phase 2: max |V_i cap V_j| over i < j (0 if t < 2), and an
    endpoint-intersection violation for each pair above r.

    `inc` is `_incidence(dec)`, from the caller, and `not_matching` holds the
    matchings that phase 1 found sharing an endpoint.  With the bitsets, bit
    j of the sum of A_x >> (i + 1) over x in V_i is |V_i cap V_{i+1+j}|, kept
    as bit-planes by a ripple-carry add.  The sum runs over pairs (u, w) that
    cover V_i once each: the edges of M_i, whose ends are V_i and distinct
    when M_i is a matching, and otherwise V_i's sorted vertices two by two,
    a lone last one paired with 0.  A pair adds the exact identity
    A_u + A_w = (A_u ^ A_w) + 2 (A_u & A_w), the XOR at plane 0 and the AND
    at plane 1.  On an edge that passes phase 1 the AND is {i}, which the
    shift clears, so that term costs one test.  The maximum takes one
    top-down pass over the planes, and the mask of counts above r one more.
    The work is about sum_i |M_i| adds of t-bit ints, half of one per vertex.
    """
    if inc is None:
        return _pair_counts(dec)
    if not_matching:
        inc = {**inc, None: 0}
    r = dec.r
    max_inter = 0
    violations = []
    for i, m in _listed(dec.matchings):
        planes = [0] * (2 * len(m)).bit_length()
        if i in not_matching:
            xs = sorted({x for e in m for x in e})
            m = zip(xs[::2], xs[1::2] + [None])
        s = i + 1
        for u, w in m:
            a, b = inc[u], inc[w]
            carry, p = (a ^ b) >> s, 0
            while carry:
                planes[p], carry = planes[p] ^ carry, planes[p] & carry
                p += 1
            carry, p = (a & b) >> s, 1
            while carry:
                planes[p], carry = planes[p] ^ carry, planes[p] & carry
                p += 1
        top, at_top = 0, -1             # at_top: the bits whose count is top on the planes so far
        for p in reversed(range(len(planes))):
            if at_top & planes[p]:
                at_top &= planes[p]
                top |= 1 << p
        max_inter = max(max_inter, top)
        if top > r:
            above, tied = 0, -1         # tied: the bits whose count has every 1 of r seen so far
            for p in reversed(range(len(planes))):
                if r >> p & 1:
                    tied &= planes[p]
                else:
                    above |= tied & planes[p]
            for j in _indices(above):
                count = sum(1 << p for p, plane in enumerate(planes) if plane >> j & 1)
                j += i + 1
                violations.append(
                    Violation("endpoint-intersection", (i, j), (count,),
                              f"|V_{i} cap V_{j}| = {count} > r = {r}")
                )
    return max_inter, tuple(violations)


def _pair_counts(dec: MatchingDecomposition):
    """`_pair_intersections` on the covering lists, where `_incidence` declines.

    |V_i cap V_j| for every j > i sharing a vertex with V_i comes from
    counting the matchings that cover V_i's vertices, so the work is
    sum_v c_v^2, c_v = #{i : v in V_i}.  A reversed copy of each covering
    list longer than one ends in the smallest matching not yet handled,
    which at step i is i itself: popping it leaves the matchings after i.
    A matching sharing no vertex with another costs O(|M_i|).
    """
    rest = {x: c[::-1] for x, c in dec.covering.items() if len(c) > 1}
    r = dec.r
    max_inter = 0
    violations = []
    for i, m in _listed(dec.matchings):
        lists = [rest[x] for x in {x for e in m for x in e} if x in rest]
        if not lists:
            continue
        for after in lists:
            after.pop()
        shared = Counter(chain.from_iterable(lists))
        top = max(shared.values(), default=0)
        max_inter = max(max_inter, top)
        if top > r:
            for j in sorted(shared):
                if shared[j] > r:
                    violations.append(
                        Violation("endpoint-intersection", (i, j), (shared[j],),
                                  f"|V_{i} cap V_{j}| = {shared[j]} > r = {r}")
                    )

    return max_inter, tuple(violations)
