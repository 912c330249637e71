"""Exact decision procedures for small induced-matching decomposition questions.

`exists_rs` searches over decompositions directly: edges only ever enter the
graph as members of some matching, so the search state needs only three
tests per candidate edge (see `_candidates`).  Each keeps every matching a
matching and induced in the current graph, and the other invariants follow:

  * if M_i is induced and owns edge (u, v), no other matching covers both u
    and v, so A_u and A_v (the matchings covering each end) meet only in i
    and d_u + d_v = |A_u| + |A_v| <= t + 1;
  * each M_i edge has at most one endpoint in V_j (j != i), otherwise it
    would join two covered vertices of M_j, so |V_i cap V_j| <= |M_i| <= r;
  * V_i always has room for the rest of M_i, since n >= 2r is checked first.

Reductions (all reachable up to relabeling, so UNSAT stays exhaustive):
  * the first matching is pinned to (0,1), (2,3), ..., (2r-2, 2r-1);
  * a never-used vertex label may only enter as the smallest unused one;
  * edges within a matching are generated in increasing lexicographic order
    and the first edges of successive matchings strictly increase;
  * with both the `max_r` shortcut and that order on, the first edge (a_i, b)
    of M_i (i >= 1) has a_i <= n - m, m the fewest vertices with
    r <= max_r(m, t - i) (`bounds.min_vertices`).  Sound because every edge
    of M_i..M_{t-1} comes after (a_i, b), so both its ends are >= a_i; those
    t - i matchings are induced in their own union, a graph on the n - a_i
    labels a_i..n-1, so r <= max_r(n - a_i, t - i).  The cap bounds the rows
    x of M_i's first edge only, not the labels y.
Every SAT certificate is re-verified before being returned (`core._certified`).

The search is a loop over an explicit stack, so its depth is not bounded by
Python's recursion limit.  Every matching holds exactly r edges, so depth d
(edges placed, the pinned first matching included) fixes the matching index
i = d // r.  The path holds each placed edge with the label counter before
it, and the stack each open depth's `_candidates` generator with its
B_i = V_i | N(V_i) and, if its edge filled a matching, the `apart` values
that the fill replaced.  The generator walks the depth: rows x < u, u the
smallest unused label, take labels y up to u; row u takes only u + 1, the
pair of fresh labels.  The three tests fail for (x, y) exactly when x or y
lies in B_i or y lies in some V_j with j in A_x, so a row x in B_i fails
whole, and the passing y of any other row are one mask, walked by lowest
set bit.  B_i is carried down the stack: a new matching starts from 0, and
placing (x, y) in M_i adds N(x) | N(y), which hold y and x, except a seed
label's partner in the pinned M_0, which stays out of `_State.nbr`: its
pairs would take r^2 bits before node 1.

Lemma (the row mask is one AND).  Matchings open in order and each holds
exactly r edges, so while M_i is open, M_0..M_{i-1} are complete and no
later matching has an edge.  A row x outside B_i is not in V_i, so A_x lies
in {0..i-1}.  Hence the y that test 2 excludes, the union of V_j over j in
A_x, is `apart[x]`: the union of V_j over the complete matchings j that
cover x.  The row's mask is then (lo..hi) & ~(B_i | apart[x]), with no
walk over A_x.  `apart` is kept so: the seed sets it to V_0 on
M_0's 2r labels; when an edge fills M_i and another matching follows,
`_State.close` ORs V_i into apart[v] for each v in V_i and returns the old
values, which go on the stack with that edge and are put back by
`_State.reopen` when the edge is popped.  A fill costs O(r) big-int ORs,
and `apart` takes O(labels * n) bits, the bound `nbr` already has.

Nodes are counted one per candidate edge generated, passing or not: the
generator reports with each passing candidate, and at the end of its depth,
how many it generated since it last reported.  So node counts, budget stops
and the pinned counts in the tests describe the same search space as a
per-candidate loop.  Every search loop stops by one rule (`_Meter`): a
node budget stops at exactly its node, the clock is read at each multiple of
`CLOCK_PERIOD` nodes below it, however many one jump crosses, and a zero
budget or a deadline passed before node 1 stops at node 1.

`max_t_on_graph` places the edges of a given graph G with the same loop,
generator and stop rule, one depth per edge and M_i = depth // r, counting a
node per candidate pair generated.  G's labels are not interchangeable, so
no M_0 is pinned and the fresh-label rule is off (`used` = n).  A candidate
must be an unused edge of G: `apart[x]` holds every other label, ~adj_G[x]
with the y of each placed edge (x, y) ORed in.  B_i = V_i | N_G(V_i) comes
from G, and a matching induced in G needs no A_x test.  Three facts keep it
exact:
  * the first edges of successive matchings increase, as in `exists_rs`:
    any packing lists its matchings in that order;
  * under `exact_cover`, the lowest unused edge of G is M_i's only first
    edge: every edge of M_i..M_{t-1} comes at or after M_i's first edge, so
    a higher one leaves the lowest unused edge uncovered;
  * the room cap: the next edge (x, y) of M_i, which holds j edges, and
    M_i's later edges have 2(r - j) distinct ends, all at or above x and
    outside B_i, so x is at most the (2(r - j))-th highest label outside B_i.
    The cap is `_candidates`' `rows`, so pairs past it are not generated.
Packing keeps the longest completed prefix and stops at SAT once it holds
floor(|E| / r) matchings; the free-edge bound i + floor((|E| - ir) / r) is
that same number for every i, so it prunes nothing more.  The search holds
no more than G's adjacency and one path: a budget bounds all of its work.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import repeat

from .core import (
    Graph,
    MatchingDecomposition,
    ParameterError,
    _certified,
    _check_size,
    _record,
)
from .bounds import max_r, min_vertices

SAT = "SAT"
UNSAT = "UNSAT"
INDETERMINATE = "INDETERMINATE"

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_TIME_BUDGET = 60.0

CLOCK_PERIOD = 4096            # nodes (or pool steps) between reads of the clock


@_record
class Budget:
    max_nodes: int = DEFAULT_NODE_BUDGET
    max_seconds: float = DEFAULT_TIME_BUDGET

    def __post_init__(self):
        if self.max_nodes < 0 or not self.max_seconds >= 0:   # refuses NaN too
            raise ParameterError(f"budget must be non-negative, got max_nodes = {self.max_nodes}, "
                                 f"max_seconds = {self.max_seconds}")

    def exhausted(self, timed_out: bool, nodes: int) -> str:
        """The INDETERMINATE note: which budget ran out, after how many nodes."""
        if timed_out:
            return f"time budget exhausted ({self.max_seconds:g} s, {nodes} nodes)"
        return f"node budget exhausted ({nodes} nodes)"


@_record
class SearchOutcome:
    verdict: str
    certificate: MatchingDecomposition = None
    nodes_explored: int = 0
    wall_time: float = 0.0
    t: int = None          # achieved t for the fixed-graph variant
    note: str = ""

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "t": self.t,
            "note": self.note,
        }


class _Meter:
    """The stop rule of the module docstring for one loop, which keeps its node count and
    `limit` as locals and calls `stop` only when the count is about to reach `limit`."""

    def __init__(self, max_nodes, deadline):
        self.deadline = deadline
        self.timed_out = time.monotonic() >= deadline      # before node 1
        self.max_nodes = 1 if self.timed_out else max(max_nodes, 1)
        self.clock_at = CLOCK_PERIOD   # the node at which the clock is read next
        self.limit = min(CLOCK_PERIOD, self.max_nodes)

    def stop(self, end):
        """The node a loop counting up to `end` (>= `limit`) stops at, or None and a new `limit`."""
        while self.clock_at <= end and self.clock_at < self.max_nodes:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return self.clock_at
            self.clock_at += CLOCK_PERIOD
        self.limit = min(self.clock_at, self.max_nodes)
        return self.max_nodes if end >= self.max_nodes else None


class _State:
    """Incremental decomposition state over n vertex labels and t matching slots.

    Every set is an int bitmask: `nbr[v]` holds the neighbours of v,
    `members[i]` the vertices of V_i and `apart[v]` the union of V_j over the
    closed matchings j that cover v (module docstring; `max_t_on_graph` keeps
    G's non-edges and used edges there instead).  The search calls
    `close` when an edge fills a matching and `reopen` when it pops that edge.
    A search that opens the matchings in order may start with one slot and
    append the next as it opens, so no memory grows with t before a node.
    The three tests of `_candidates` keep each matching an induced matching
    of the graph built so far, which is all the search has to maintain: the
    caps on d_u + d_v and |V_i cap V_j| follow (module docstring).
    """

    def __init__(self, n, t):
        self.apart = [0] * n
        self.nbr = [0] * n
        self.members = [0] * t
        self.used = 0                  # labels 0..used-1 have appeared

    def add(self, i, x, y):
        """Add edge (x, y) to matching i; the caller has made `_candidates`' tests."""
        self.nbr[x] |= 1 << y
        self.nbr[y] |= 1 << x
        self.members[i] |= (1 << x) | (1 << y)
        if y >= self.used:
            self.used = y + 1

    def remove(self, i, x, y, prev_used):
        self.nbr[x] ^= 1 << y
        self.nbr[y] ^= 1 << x
        self.members[i] ^= (1 << x) | (1 << y)
        self.used = prev_used

    def close(self, i):
        """OR V_i into `apart[v]` for each v in V_i; return the old values for `reopen`."""
        vi = self.members[i]
        apart = self.apart
        saved = []
        rest = vi
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            saved.append((v, apart[v]))
            apart[v] |= vi
            rest ^= low
        return saved

    def reopen(self, saved):
        """Undo the `close` that returned `saved`."""
        apart = self.apart
        for v, old in saved:
            apart[v] = old


_EXHAUSTED = repeat((None, None, 0))   # a depth with no candidates left


def _candidates(state, n, lo, rows, blocked):
    """One depth's candidates: the edges (x, y) after `lo` in lex order with x <= `rows`.

    Yields (x, y, k) for each that passes the three tests, k the candidates
    generated since the last yield, this one included, then (None, None, k)
    for the rest.  The tests: no end in V_i (1) or N(V_i) (3), so M_i stays
    an induced matching, which `blocked` = B_i = V_i | N(V_i) checks; and
    A_x & A_y = 0 (2), the edge inside no V_j, which fails exactly when y
    lies in some V_j with j in A_x.  The caller undoes its own placements
    before it resumes, and has closed every matching before M_i, the one
    that the edges join, so for a row x outside B_i that union is
    `apart[x]` (module docstring) and the row's mask is one AND.
    """
    apart = state.apart
    u = state.used
    top = u if u < n else n - 1
    rows = rows if rows < top else top
    x, y = (lo[0], lo[1] + 1) if lo else (0, 1)
    k = 0
    while x <= rows:
        # rows x < u take labels y up to top; row u holds one candidate, the two
        # smallest unused labels (u, u + 1), which comes after lo as lo's labels are used
        hi = top if x < u else min(u + 1, n - 1)
        if y <= hi:
            ok = 0 if blocked >> x & 1 else ((2 << hi) - (1 << y)) & ~(blocked | apart[x])
            while ok:
                low = ok & -ok
                take = low.bit_length() - 1
                yield x, take, k + take - y + 1
                k = 0
                ok ^= low
                y = take + 1
            k += hi - y + 1
        x += 1
        y = x + 1
    yield None, None, k


def exists_rs(n, r, t, budget: Budget = Budget(), eq1_shortcut: bool = True,
              matching_order_pruning: bool = True) -> SearchOutcome:
    """Decide whether some n-vertex graph splits into t induced matchings of size r.

    SAT returns a verified certificate; UNSAT means the reduced space was
    exhausted; INDETERMINATE means the node or time budget ran out first.
    `matching_order_pruning` turns off the increasing-first-edge reduction;
    verdicts must not change, so the slower run serves as a cross-check.
    `eq1_shortcut=False` turns off the `max_r` cap, at the root and on the
    first edge of each matching, for a search that uses no theorem.
    """
    if n < 0 or r < 0 or t < 0:
        raise ParameterError("n, r, t must be non-negative")
    if 2 * r > n:
        raise ParameterError(f"impossible parameters: 2r = {2 * r} > n = {n}")
    started = time.monotonic()

    if r == 0 or t == 0:
        dec = MatchingDecomposition(n, t, r, ())      # t empty matchings, stored as none
        return SearchOutcome(SAT, certificate=_certified(dec, "the degenerate certificate"),
                             wall_time=time.monotonic() - started,
                             note="degenerate parameters, empty edge set")

    if eq1_shortcut and Fraction(r) > max_r(n, t):
        return SearchOutcome(
            UNSAT, wall_time=time.monotonic() - started,
            note=f"r = {r} > max_r({n}, {t}) = {max_r(n, t)}; hard cap shortcut",
        )

    # labels enter as the smallest unused one, at most two per edge, so all stay below 2rt
    labels = min(n, 2 * r * t)
    _check_size(f"{labels} vertex labels", labels)
    state = _State(labels, 1)
    seeded = 2 * r                     # M_0: the pairs (2j, 2j + 1), n >= 2r, with no `nbr` bits
    state.members[0] = (1 << seeded) - 1
    state.apart[:seeded] = [state.members[0]] * seeded     # what `close(0)` leaves, one shared int
    state.used = seeded
    meter = _Meter(budget.max_nodes, started + budget.max_seconds)

    # placed edges, one per depth d, as (x, y, prev_used); the seed fills
    # depths 0..r-1 and is never removed
    path = [(2 * j, 2 * j + 1, None) for j in range(r)]
    # (candidates, B_i, what `close` saved if the depth's edge closed M_i, else None)
    # of each depth from r below the open one
    stack = []
    nodes = 0
    limit = meter.limit
    end = t * r                        # the depth of a SAT leaf
    d = r
    blocked = 0                        # B_i of depth d: M_1 starts empty
    candidates = None                  # depth d's generator, None until it opens
    while True:
        if candidates is None:
            if d == end:
                verdict = SAT
                break
            # open depth d, with the suffix cap (module docstring) on M_i's first edge
            rows = n
            if d % r:
                lo = path[d - 1]
            else:                          # M_i opens
                i = d // r
                if i == len(state.members):
                    state.members.append(0)
                lo = path[d - r] if matching_order_pruning else None
                if lo and eq1_shortcut:
                    rows = n - min_vertices(r, t - i)
            candidates = _candidates(state, n, lo, rows, blocked)
        x, y, k = next(candidates)
        if k and nodes + k >= limit:
            stop = meter.stop(nodes + k)
            if stop is not None:
                nodes, verdict = stop, INDETERMINATE
                break
            limit = meter.limit
        nodes += k
        if x is None:
            if not stack:
                verdict = UNSAT
                break
            d -= 1
            px, py, prev_used = path.pop()
            candidates, blocked, saved = stack.pop()
            if saved is not None:
                state.reopen(saved)
            state.remove(d // r, px, py, prev_used)
            continue
        path.append((x, y, state.used))
        state.add(d // r, x, y)
        d += 1
        if d % r:
            stack.append((candidates, blocked, None))
            # a seed label v < 2r adds its M_0 partner v ^ 1
            blocked |= (state.nbr[x] | state.nbr[y] | (x < seeded) << (x ^ 1)
                        | (y < seeded) << (y ^ 1))
        else:                          # the edge fills M_i; M_{i+1}, if any, starts empty
            stack.append((candidates, blocked, state.close(d // r - 1) if d < end else None))
            blocked = 0
        candidates = None

    note = ""
    certificate = None
    if verdict == INDETERMINATE:
        note = budget.exhausted(meter.timed_out, nodes)
    elif verdict == SAT:
        placed = [(x, y) for x, y, _ in path]
        matchings = [placed[j:j + r] for j in range(0, end, r)]
        certificate = _certified(MatchingDecomposition.from_matchings(n, matchings, r), "exists_rs")
    return SearchOutcome(
        verdict, certificate=certificate, nodes_explored=nodes,
        wall_time=time.monotonic() - started, note=note,
    )


def max_t_on_graph(g: Graph, r: int, budget: Budget = Budget(),
                   exact_cover: bool = False) -> SearchOutcome:
    """Pack as many edge-disjoint induced matchings of size r into g as possible.

    With `exact_cover`, the union must equal E(g), forcing t = |E|/r; the
    procedure then decides decomposability.  Without it, the certificate's
    graph is the packed subgraph and the outcome carries the maximal t.
    """
    if r < 1:
        raise ParameterError("r must be >= 1")
    started = time.monotonic()
    n, size = g.n, len(g.edges)
    if exact_cover and size % r:
        raise ParameterError(f"exact cover impossible: r = {r} does not divide |E| = {size}")

    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    state = _State(n, 0)
    # (x, y) may join a matching only as an unused edge of g: apart[x] holds
    # every other label, as the negative ~adj[x], no longer than adj[x]
    state.apart = apart = [~a for a in adj]
    state.used = n                     # g's labels are fixed: no fresh-label rule
    meter = _Meter(budget.max_nodes, started + budget.max_seconds)

    end = size - size % r              # the depth of floor(|E| / r) matchings, a SAT leaf
    path = []                          # placed edges, one per depth d
    stack = []                         # (candidates, B_i) of each depth below the open one
    best = []                          # the longest completed prefix of path, for packing
    nodes = 0
    limit = meter.limit
    d = 0
    blocked = 0                        # B_i of depth d
    everyone = (1 << n) - 1
    candidates = None
    while True:
        if candidates is None:
            if not d % r:              # M_i opens, M_0..M_{i-1} complete
                if d > len(best):
                    best = path[:]
                if d == end:
                    verdict = SAT
                    break
            # the room cap: the row x of the next edge leaves at least 2(r - j)
            # labels outside B_i at or above x, j = d % r the edges M_i holds
            room = everyone & ~blocked
            for _ in range(2 * (r - d % r) - 1):
                room ^= 1 << room.bit_length() >> 1
            lo = path[d - 1] if d % r else path[d - r] if d else None
            candidates = _candidates(state, n, lo, room.bit_length() - 1, blocked)
        x, y, k = next(candidates)
        if k and nodes + k >= limit:
            stop = meter.stop(nodes + k)
            if stop is not None:
                nodes, verdict = stop, INDETERMINATE
                break
            limit = meter.limit
        nodes += k
        if x is None:
            if not stack:
                verdict = UNSAT if exact_cover else SAT
                break
            d -= 1
            x, y = path.pop()
            apart[x] ^= 1 << y
            candidates, blocked = stack.pop()
            continue
        if exact_cover and not d % r:
            candidates = _EXHAUSTED    # the lowest unused edge is M_i's only first edge
        stack.append((candidates, blocked))
        path.append((x, y))
        apart[x] |= 1 << y
        d += 1
        blocked = blocked | adj[x] | adj[y] if d % r else 0
        candidates = None

    note = budget.exhausted(meter.timed_out, nodes) if verdict == INDETERMINATE else ""
    certificate = achieved = None
    if verdict == SAT or not exact_cover:
        # a SAT cover's matchings cover E(g), so their edges rebuild g itself
        achieved = len(best) // r
        certificate = _certified(MatchingDecomposition.from_matchings(
            n, [best[j:j + r] for j in range(0, len(best), r)], r), "max_t_on_graph")
        if verdict == INDETERMINATE:
            note += f"; best found t = {achieved}"
    return SearchOutcome(verdict, certificate=certificate, nodes_explored=nodes,
                         wall_time=time.monotonic() - started, t=achieved, note=note)
