"""Graph / decomposition data model and the certifying verifier.

A decomposition lists t matchings on n vertices, and its graph is their union,
as in the paper's definition.  It claims that they are pairwise edge-disjoint
induced matchings of a common size r.  Nothing in this module trusts that
claim: `verify_decomposition` re-checks every invariant and returns a report
with explicit witnesses.  It is the package's one batch inducedness check;
`search` keeps its own incremental one.

The verifier checks the sizes, edge-disjointness, the matching property and
inducedness, and takes the degree statistics in the same edge pass (d_u + d_v
<= t + 1 among them).  No pair of matchings is compared, since the checks
settle every pairwise intersection:

    Lemma (the pair bound).  If every M_i is an induced matching of size r
    and no edge is listed twice, |V_i cap V_j| <= r for all i != j, and
    d_u + d_v <= t + 1 on every edge (u, v).
    Proof.  An edge of M_j (j != i, so not listed by M_i) with both ends in
    V_i would be a chord of M_i, so each of the r edges of M_j puts at most
    one vertex in V_i.  The same argument on the matchings covering an
    edge's two ends gives d_u + d_v <= 2 + (t - 1).

`distance_certificate` and `search` rest on it.  The report is computed once
per decomposition and cached on it: a `MatchingDecomposition` is frozen and
its matchings are sorted tuples, so repeat verification of one object costs
nothing.  Its `passed` is the verdict.  `disjoint_union`, `double_cover`,
`distance_certificate` and `expansion_audit` take their input through
`_require_verified`, which refuses it naming the first failing invariant;
the Cayley construction and the search certificates leave through
`_certified`, which reads the same report and raises AssertionError on a
failure, a defect of the builder.  So whichever caller comes first runs the
verifier and the rest read its report.

A decomposition stores t and only its non-empty matchings (`listed`), so an
empty matching costs nothing; only at r >= 1 does the witness loop step over
each, as a size mismatch.  Each decomposition builds the incidence map
A_v = {i : v in V_i} of each covered vertex once and keeps it
(`_matchings_at`).  A_v is a t-bit int where that takes no more 64-bit words
than the ascending lists hold entries (`_bitsets` decides), and the list
otherwise (thousands of one-edge matchings would make the ints n*t/64
words).  Only the verifier reads it, so its two forms are decided and read
in this module alone.

On the ints, the verifier is first a screen (`_screen`) that needs no witness:

    Lemma (the screen).  If every |M_i| = r, sum_v |A_v| = 2 sum_i |M_i|,
    and A_u & A_w = {o} on every edge (u, w) of every M_o, the verifier
    passes; and every input that it passes passes these checks.
    Proof.  sum_v |A_v| = sum_i |V_i|, and |V_i| <= 2 |M_i| with equality
    only when no two edges listed by M_i share an endpoint (an edge listed
    twice shares both), so the identity makes every M_i a matching.  An edge
    (u, w) of M_o that M_j (j != o) lists too, or that joins two vertices of
    V_j as a chord of M_j, puts j in A_u & A_w, which always holds o.  So the
    checks leave edge-disjoint induced matchings of size r, and the pair
    bound gives d_u + d_v <= t + 1.  Conversely, on such matchings an extra
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
walk the edges, through the one routine that takes the degree statistics of
distinct edges (`_degree_stats`): the order in which the edges first name
the vertices fixes the histogram's key order, and the edges are counted by
d_u + d_v.  On the lists, or at the screen's first flag, the verifier runs
the witness loop (`_witnesses`): one pass over the edges that finds every
witness, the form deciding only how it tests A_u cap A_w, then that routine
on the distinct edges it met.  So a failing input pays for the screen up to
its first flag, next to nothing on a size mismatch, plus the loop.  The two
forms give the same report, and nothing allocates per vertex of n.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain
from operator import add, and_


class GraphError(ValueError):
    """Structurally malformed input (bad vertex ids, loops, unknown edges)."""


class ParameterError(ValueError):
    """Arguments outside a routine's documented domain."""


class PreconditionError(ValueError):
    """An operation was handed input that fails its stated precondition."""


class ResourceLimitError(ParameterError):
    """A construction or a search would exceed the size budget."""


SIZE_BUDGET = 2_000_000     # on a construction's n + |E| and a search's labels, before either is built


def _check_size(what: str, size: int) -> None:
    """ResourceLimitError naming `what` if `size` is over SIZE_BUDGET, the budget's one test."""
    if size > SIZE_BUDGET:
        raise ResourceLimitError(f"{what} would exceed the size budget {SIZE_BUDGET}")


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


def _plain(value):
    """`value` as the JSON reports print it, each part in turn: a record's `_fields` as a dict in
    field order, a tuple as a list, a dict with str keys in ascending order, None, bool, int,
    float and str as they are, and any other value (a Fraction) as its str."""
    if hasattr(value, "_fields"):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return list(map(_plain, value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    return value if value is None or isinstance(value, (int, float, str)) else str(value)


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


@_record
class MatchingDecomposition:
    """t edge lists on vertices 0..n-1, claimed to be induced matchings of size r.

    The graph is the union of the matchings, as in the paper's definition of an
    (r, t)-RS graph, so the lists are the whole object: `graph` is derived from
    them on first read, for readers outside the package.  Only the non-empty
    matchings are stored, in `listed`, which the package reads, so t costs
    nothing.  Each is a tuple of edges (u, v), u < v, in ascending
    order, which no reader sorts again: only `from_listed` (which
    `from_matchings` calls), `parse_rsg` and `search`'s empty certificate
    build a decomposition.
    """

    n: int
    t: int
    r: int
    listed: tuple       # (i, M_i) for each non-empty matching, ascending i

    @classmethod
    def from_matchings(cls, n: int, matchings, r: int) -> "MatchingDecomposition":
        """The decomposition of the t edge lists that `matchings` yields, on n vertices."""
        matchings = tuple(matchings)
        return cls.from_listed(n, len(matchings), r, enumerate(matchings))

    @classmethod
    def from_listed(cls, n: int, t: int, r: int, pairs) -> "MatchingDecomposition":
        """The decomposition with the edge list M_i of each (i, M_i) in `pairs`, ascending i < t,
        and every other matching empty; each edge is normalised once and empty lists dropped.

        GraphError names what `Graph.from_edges(n, <their edges>)` would, then a negative r.
        """
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        normed = ((i, tuple(sorted(_norm_edges(m, n)))) for i, m in pairs)
        listed = tuple((i, m) for i, m in normed if m)
        if r < 0:
            raise GraphError("claimed matching size must be non-negative")
        return cls(n, t, r, listed)

    @property
    def matchings(self) -> tuple:
        """All t matchings, the empty ones included, built per read: the package reads `listed`."""
        out = [()] * self.t
        for i, m in self.listed:
            out[i] = m
        return tuple(out)

    @cached_property
    def graph(self) -> Graph:
        """The union of the matchings, built on first read and kept."""
        return Graph(self.n, frozenset(chain.from_iterable(m for _, m in self.listed)))

    @cached_property
    def _matchings_at(self):
        """(bits, A): A_v = {i : v in V_i} for each vertex of a listed edge, and the form it takes.

        A_v is the ascending list of the matchings listing v, turned in place
        into a t-bit int (bit i set iff i is in A_v) when `_bitsets` admits the
        ints, so only one form is kept; `bits` says which.  The map is sized by
        the edge lists, whatever n and t are.  Each list is summed from a table
        of the t powers 1 << i, which needs no shift per entry; the table takes
        about t^2/128 words, so past t = 2 |A| (t copies of one edge, say),
        where it would outgrow the ints themselves, each power is shifted
        instead.  Built once and read by the verifier alone: do not mutate it.
        """
        a = defaultdict(list)
        for i, m in self.listed:
            for x in {x for e in m for x in e}:
                a[x].append(i)
        a.default_factory = None     # a vertex outside the map raises KeyError
        t = self.t
        bits = _bitsets(t, len(a), sum(map(len, a.values())))
        if bits:
            power = [1 << i for i in range(t)].__getitem__ if t <= 2 * len(a) else (1).__lshift__
            for x, c in a.items():
                a[x] = sum(map(power, c))
        return bits, a

    @cached_property
    def _report(self) -> "VerificationReport":
        """The verifier's report, computed once; read it through `verify_decomposition`."""
        return _verify(self)


def _bitsets(t: int, vertices: int, entries: int) -> bool:
    """Whether A_v is kept as a t-bit int: when the ints of `vertices` covered
    vertices take no more 64-bit words than their lists hold `entries`, so
    memory stays linear in the edge lists (thousands of one-edge matchings
    would make the ints n*t/64 words)."""
    return vertices * -(-t // 64) <= entries


@_record
class Violation:
    invariant: str
    matchings: tuple      # indices of the matchings involved (may be empty)
    witness: tuple        # offending vertices / edges / sizes
    detail: str

    to_dict = _plain


@_record
class VerificationReport:
    violations: tuple
    degree_histogram: dict
    max_edge_degree_sum: int
    isolated_vertices: int
    notes: tuple = ()
    edge_degree_sums: dict = {}      # d_u + d_v -> edge count, one dict per report; not in to_dict

    # not a field, and no statistic: only the benchmark's certify answer reads it
    # (bench/workloads.py:143), to report it; ROADMAP item 1 drops that read and this line
    max_pair_intersection = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "passed": self.passed,
            "violations": _plain(self.violations),
            "stats": {
                "degree_histogram": _plain(self.degree_histogram),
                "max_edge_degree_sum": self.max_edge_degree_sum,
                "isolated_vertices": self.isolated_vertices,
            },
            "notes": _plain(self.notes),
        }


def verify_decomposition(dec: MatchingDecomposition) -> VerificationReport:
    """Certify the (r, t)-RS property of dec, collecting all violated invariants.

    The invariants are the sizes, edge-disjointness, the matching property,
    inducedness and d_u + d_v <= t + 1 on every edge; by the pair bound
    (module docstring) they also give |V_i cap V_j| <= r for i != j.
    Witnesses are the lexicographically first offenders.  Stats are reported
    whether or not the verdict is pass.  The report is computed on the first
    call and cached on dec.
    """
    return dec._report


def _require_verified(dec: MatchingDecomposition, what: str) -> VerificationReport:
    """The passing report of dec, or PreconditionError naming `what` and the first failing invariant."""
    report = verify_decomposition(dec)
    if not report.passed:
        raise PreconditionError(
            f"{what} requires a verified decomposition ({report.violations[0].invariant})")
    return report


def _certified(dec: MatchingDecomposition, what: str) -> MatchingDecomposition:
    """dec, once the verifier passes it: the postcondition of every construction and certificate
    built in the package, so a failure is a defect of `what` (AssertionError), not of its input."""
    report = verify_decomposition(dec)
    if not report.passed:
        raise AssertionError(f"{what} fails verification ({report.violations[0].invariant})")
    return dec


def _verify(dec: MatchingDecomposition) -> VerificationReport:
    """The screen where A_v is an int, the witness loop where it flags or A_v is a list.

    By the screen's lemma (module docstring) the screen passes exactly the
    input that the verifier passes; `_witnesses` finds the witnesses of the
    rest, and of any input on the lists.
    """
    stats = _screen(dec) if dec._matchings_at[0] else None
    if stats is None:
        return _witnesses(dec)
    return _report_of(dec, [], *stats)


def _screen(dec: MatchingDecomposition):
    """(histogram, edge_degree_sums) if the screen (module docstring) passes dec, else None.

    The checks run cheapest first and stop at the first flag: the sizes (at
    r = 0 all there is to check), the identity sum_v |A_v| = 2 sum_i |M_i|
    on the popcounts, then one matching at a time the AND of its two
    endpoint columns, mapped in C.  `histogram` counts the covered vertices
    by degree.  With one degree both statistics follow from the one-degree
    lemma; otherwise `_degree_stats` takes them from the edges.
    """
    r, t, listed = dec.r, dec.t, dec.listed
    if not r:
        return None if listed else ({}, {})
    if len(listed) != t or any(len(m) != r for _, m in listed):
        return None
    at = dec._matchings_at[1]
    degrees = list(map(int.bit_count, at.values()))       # |A_v|, which is d_v if the screen passes
    if sum(degrees) != 2 * r * t:
        return None
    a_of = at.__getitem__
    for o, m in listed:
        us, ws = zip(*m)
        if list(map(and_, map(a_of, us), map(a_of, ws))).count(1 << o) != r:
            return None
    if len(set(degrees)) == 1:
        d = degrees[0]
        return {d: len(degrees)}, {2 * d: r * t}
    return _degree_stats(chain.from_iterable(m for _, m in listed))[1:]


def _degree_stats(edges):
    """(d, histogram, edge_degree_sums) of distinct `edges`, from two walks over their ends.

    d_v counts the edges at v, keyed in the order the edges first name the
    vertices, which fixes the histogram's key order; the histogram counts
    the vertices by d_v and edge_degree_sums the edges by d_u + d_v, in
    ascending order.
    """
    ends = list(chain.from_iterable(edges))       # u, w of each edge in turn
    d = Counter(ends)
    at = list(map(d.__getitem__, ends))
    return d, Counter(d.values()), dict(sorted(Counter(map(add, at[::2], at[1::2])).items()))


def _witnesses(dec: MatchingDecomposition) -> VerificationReport:
    # The verifier's witness loop, on either form of A_v: one pass over the
    # matchings and one over the edges, memory O(|E| + t) whatever n is.  At
    # r = 0 it steps over the listed matchings only: an empty one has size r.
    t, r = dec.t, dec.r
    violations = []

    owner = {}          # edge of the graph -> first matching listing it
    relisted = set()    # (edge, i): matching i lists an edge listed before
    not_matching = {}   # i -> first edge of matching i sharing an endpoint
    listed = dict(dec.listed)
    for i in range(t) if r else listed:
        m = listed.get(i, ())
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
    # owner(e), so only a second index is a candidate.
    bits, a_of = dec._matchings_at
    not_induced = {}
    for e, o in owner.items():
        u, w = e
        if bits:
            common = a_of[u] & a_of[w]
            if not common & (common - 1):
                continue
            common = _indices(common)
        else:
            a, b = a_of[u], a_of[w]
            if len(a) < 2 or len(b) < 2:
                continue
            common = set(a).intersection(b)
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

    deg, histogram, edge_degree_sums = _degree_stats(owner)
    if max(edge_degree_sums, default=0) > t + 1:
        u, v = min((u, v) for u, v in owner if deg[u] + deg[v] > t + 1)
        violations.append(
            Violation("degree-sum", (), (u, v),
                      f"edge ({u}, {v}) has d_u + d_v = {deg[u] + deg[v]} > t + 1 = {t + 1}")
        )

    return _report_of(dec, violations, histogram, edge_degree_sums)


def _report_of(dec: MatchingDecomposition, violations, covered, edge_degree_sums):
    """The report from the violations found, the covered vertices by degree
    (`covered`, in the histogram's key order) and the edges by d_u + d_v.

    The isolated vertices join the histogram last, at degree 0.
    """
    isolated = dec.n - sum(covered.values())
    histogram = dict(covered)
    if isolated:
        histogram[0] = isolated
    notes = (f"{isolated} isolated vertices present; they count toward n",) if isolated else ()
    return VerificationReport(
        violations=tuple(violations),
        degree_histogram=histogram,
        max_edge_degree_sum=max(edge_degree_sums, default=0),
        edge_degree_sums=edge_degree_sums,
        isolated_vertices=isolated,
        notes=notes,
    )


def _indices(bits: int):
    """The positions of the set bits of `bits`, ascending."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1
