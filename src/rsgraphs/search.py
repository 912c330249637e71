"""Exact decision procedures for small induced-matching decomposition questions.

`exists_rs` searches over decompositions directly: edges only ever enter the
graph as members of some matching, so the search state needs only three
tests per candidate edge (see `_State.try_add`).  Each keeps every matching a
matching and induced in the current graph, and the other invariants follow:

  * if M_i is induced and owns edge (u, v), no other matching covers both u
    and v, so A_u and A_v (the matchings covering each end) meet only in i
    and d_u + d_v = |A_u| + |A_v| <= t + 1;
  * each M_i edge has at most one endpoint in V_j (j != i), otherwise it
    would join two covered vertices of M_j, so |V_i cap V_j| <= |M_i| <= r;
  * V_i always has room for the rest of M_i, since n >= 2r is checked first.

Symmetry reduction (all reachable up to relabeling, so UNSAT stays exhaustive):
  * the first matching is pinned to (0,1), (2,3), ..., (2r-2, 2r-1);
  * a never-used vertex label may only enter as the smallest unused one;
  * edges within a matching are generated in increasing lexicographic order
    and the first edges of successive matchings strictly increase.
Every SAT certificate is re-verified before being returned.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Graph,
    MatchingDecomposition,
    ParameterError,
    verify_decomposition,
)
from .bounds import max_r

SAT = "SAT"
UNSAT = "UNSAT"
INDETERMINATE = "INDETERMINATE"

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_TIME_BUDGET = 60.0


@dataclass(frozen=True)
class Budget:
    max_nodes: int = DEFAULT_NODE_BUDGET
    max_seconds: float = DEFAULT_TIME_BUDGET

    def __post_init__(self):
        if self.max_nodes < 0 or not self.max_seconds >= 0:   # refuses NaN too
            raise ParameterError(f"budget must be non-negative, got max_nodes = {self.max_nodes}, "
                                 f"max_seconds = {self.max_seconds}")

    @classmethod
    def default(cls) -> "Budget":
        env = os.environ.get("RSG_DEFAULT_BUDGET")
        if env:
            try:
                max_nodes = int(env)
            except ValueError:
                raise ParameterError(f"RSG_DEFAULT_BUDGET must be an integer node count, got {env!r}")
            return cls(max_nodes=max_nodes)
        return cls()


@dataclass(frozen=True)
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


class _BudgetExceeded(Exception):
    pass


class _Found(Exception):
    pass


class _State:
    """Incremental decomposition state over n vertex labels and t matching slots.

    Every set is an int bitmask: `incidence[v]` holds the matchings covering
    v, `nbr[v]` the neighbours of v and `members[i]` the vertices of V_i.
    The three tests of `try_add` keep each matching an induced matching of
    the graph built so far, which is all the search has to maintain: the
    degree-sum and endpoint-intersection caps follow (module docstring).
    """

    def __init__(self, n, t):
        self.incidence = [0] * n
        self.nbr = [0] * n
        self.members = [0] * t
        self.used = 0                  # labels 0..used-1 have appeared

    def try_add(self, i, x, y):
        """Add edge (x, y) to matching i if all invariants survive; return success."""
        bit = 1 << i
        ax, ay = self.incidence[x], self.incidence[y]
        if (ax | ay) & bit:
            return False               # endpoint already matched in M_i
        if ax & ay:
            return False               # edge would sit inside some V_j (or already exists)
        nbr = self.nbr
        if (nbr[x] | nbr[y]) & self.members[i]:
            return False               # an endpoint joins V_i while adjacent to it
        self.incidence[x] = ax | bit
        self.incidence[y] = ay | bit
        nbr[x] |= 1 << y
        nbr[y] |= 1 << x
        self.members[i] |= (1 << x) | (1 << y)
        if y >= self.used:
            self.used = y + 1
        return True

    def remove(self, i, x, y, prev_used):
        bit = 1 << i
        self.incidence[x] ^= bit
        self.incidence[y] ^= bit
        self.nbr[x] ^= 1 << y
        self.nbr[y] ^= 1 << x
        self.members[i] ^= (1 << x) | (1 << y)
        self.used = prev_used


def _trivial_outcome(n, r, t, started):
    if r == 0 or t == 0:
        graph = Graph.from_edges(n, [])
        dec = MatchingDecomposition.make(graph, [[]] * t if r == 0 else [], r)
        return SearchOutcome(SAT, certificate=dec, wall_time=time.monotonic() - started,
                             note="degenerate parameters, empty edge set")
    return None


def exists_rs(n, r, t, budget: Budget = None, eq1_shortcut: bool = True,
              matching_order_pruning: bool = True) -> SearchOutcome:
    """Decide whether some n-vertex graph splits into t induced matchings of size r.

    SAT returns a verified certificate; UNSAT means the reduced space was
    exhausted; INDETERMINATE means the node or time budget ran out first.
    `matching_order_pruning` turns off the increasing-first-edge reduction;
    verdicts must not change, so the slower run serves as a cross-check.
    """
    if n < 0 or r < 0 or t < 0:
        raise ParameterError("n, r, t must be non-negative")
    if 2 * r > n:
        raise ParameterError(f"impossible parameters: 2r = {2 * r} > n = {n}")
    budget = budget or Budget.default()
    started = time.monotonic()

    trivial = _trivial_outcome(n, r, t, started)
    if trivial is not None:
        return trivial

    if eq1_shortcut and Fraction(r) > max_r(n, t):
        return SearchOutcome(
            UNSAT, wall_time=time.monotonic() - started,
            note=f"r = {r} > max_r({n}, {t}) = {max_r(n, t)}; hard cap shortcut",
        )

    state = _State(n, t)
    seed = [(2 * j, 2 * j + 1) for j in range(r)]
    for x, y in seed:
        if not state.try_add(0, x, y):
            return SearchOutcome(UNSAT, wall_time=time.monotonic() - started,
                                 note="canonical first matching infeasible")
    matchings = [list(seed)]
    nodes = 0
    deadline = started + budget.max_seconds
    # the clock is read every 4096 nodes; a deadline already passed stops the
    # search at its first node, as max_nodes = 0 does
    max_nodes = 1 if time.monotonic() >= deadline else budget.max_nodes

    def candidates(after):
        """Edges > after in lex order, respecting the smallest-unused-label rule."""
        u = state.used
        lo_x, lo_y = after if after is not None else (-1, -1)
        top = min(u, n - 1)
        for x in range(max(lo_x, 0), top + 1):
            y_start = x + 1
            if x == lo_x:
                y_start = max(y_start, lo_y + 1)
            if x == u:
                # both endpoints new: forced to be the two smallest unused labels
                if x + 1 < n and (after is None or (x, x + 1) > after):
                    yield (x, x + 1)
                return
            for y in range(y_start, top + 1):
                yield (x, y)

    def extend(i, cur, last, first_floor):
        nonlocal nodes
        if len(cur) == r:
            matchings.append(list(cur))
            if len(matchings) == t:
                raise _Found
            extend(i + 1, [], None, cur[0] if matching_order_pruning else None)
            matchings.pop()
            return
        start = last if last is not None else first_floor
        for x, y in candidates(start):
            nodes += 1
            if nodes >= max_nodes:
                raise _BudgetExceeded
            if not nodes % 4096 and time.monotonic() > deadline:
                raise _BudgetExceeded
            prev_used = state.used
            if state.try_add(i, x, y):
                cur.append((x, y))
                extend(i, cur, (x, y), first_floor)
                cur.pop()
                state.remove(i, x, y, prev_used)

    verdict = UNSAT
    note = ""
    try:
        if t == 1:
            raise _Found
        extend(1, [], None, seed[0] if matching_order_pruning else None)
    except _Found:
        verdict = SAT
    except _BudgetExceeded:
        verdict = INDETERMINATE
        note = f"budget exhausted ({nodes} nodes)"

    certificate = None
    if verdict == SAT:
        edges = [e for m in matchings for e in m]
        graph = Graph.from_edges(n, edges)
        certificate = MatchingDecomposition.make(graph, matchings, r)
        report = verify_decomposition(certificate)
        if not report.passed:
            raise AssertionError("search produced a certificate that fails verification")
    return SearchOutcome(
        verdict, certificate=certificate, nodes_explored=nodes,
        wall_time=time.monotonic() - started, note=note,
    )


def _enumerate_induced_matchings(g: Graph, r: int):
    """All induced matchings of g with exactly r edges, as sorted edge tuples."""
    edges = sorted(g.edges)
    nbr = [0] * g.n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    # an edge may join the matching iff the closed neighbourhood of its ends
    # misses every vertex covered so far: no shared endpoint, no edge between
    reach = [nbr[u] | nbr[v] | (1 << u) | (1 << v) for u, v in edges]
    out = []

    def rec(start, cur, covered):
        if len(cur) == r:
            out.append(tuple(cur))
            return
        for idx in range(start, len(edges)):
            if not reach[idx] & covered:
                x, y = e = edges[idx]
                cur.append(e)
                rec(idx + 1, cur, covered | (1 << x) | (1 << y))
                cur.pop()

    rec(0, [], 0)
    return out


def max_t_on_graph(g: Graph, r: int, budget: Budget = None,
                   exact_cover: bool = False) -> SearchOutcome:
    """Pack as many edge-disjoint induced matchings of size r into g as possible.

    With `exact_cover`, the union must equal E(g), forcing t = |E|/r; the
    procedure then decides decomposability.  Without it, the certificate's
    graph is the packed subgraph and the outcome carries the maximal t.
    """
    if r < 1:
        raise ParameterError("r must be >= 1")
    budget = budget or Budget.default()
    started = time.monotonic()
    if exact_cover and len(g.edges) % r:
        raise ParameterError(f"exact cover impossible: r = {r} does not divide |E| = {len(g.edges)}")

    pool = _enumerate_induced_matchings(g, r)
    nodes = 0
    deadline = started + budget.max_seconds
    max_nodes = 1 if time.monotonic() >= deadline else budget.max_nodes   # as in exists_rs

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes >= max_nodes or (not nodes % 4096 and time.monotonic() > deadline):
            raise _BudgetExceeded

    if exact_cover:
        target = len(g.edges) // r
        by_edge = {}
        for idx, m in enumerate(pool):
            for e in m:
                by_edge.setdefault(e, []).append(idx)
        chosen = []
        used_edges = set()

        def cover():
            if len(used_edges) == len(g.edges):
                raise _Found
            uncovered = min(e for e in g.edges if e not in used_edges)
            for idx in by_edge.get(uncovered, ()):
                m = pool[idx]
                tick()
                if used_edges.isdisjoint(m):
                    chosen.append(m)
                    used_edges.update(m)
                    cover()
                    chosen.pop()
                    used_edges.difference_update(m)

        verdict = UNSAT
        note = ""
        try:
            cover()
        except _Found:
            verdict = SAT
        except _BudgetExceeded:
            verdict = INDETERMINATE
            note = f"budget exhausted ({nodes} nodes)"
        certificate = None
        achieved = None
        if verdict == SAT:
            certificate = MatchingDecomposition.make(g, chosen, r)
            if not verify_decomposition(certificate).passed:
                raise AssertionError("exact cover certificate fails verification")
            achieved = target
        return SearchOutcome(verdict, certificate=certificate, nodes_explored=nodes,
                             wall_time=time.monotonic() - started, t=achieved, note=note)

    best = []
    chosen = []
    used_edges = set()

    def pack(start):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        free = len(g.edges) - len(used_edges)
        if len(chosen) + free // r <= len(best):
            return
        for idx in range(start, len(pool)):
            m = pool[idx]
            tick()
            if used_edges.isdisjoint(m):
                chosen.append(m)
                used_edges.update(m)
                pack(idx + 1)
                chosen.pop()
                used_edges.difference_update(m)

    verdict = SAT
    note = ""
    try:
        pack(0)
    except _BudgetExceeded:
        verdict = INDETERMINATE
        note = f"budget exhausted ({nodes} nodes); best found t = {len(best)}"

    packed_edges = [e for m in best for e in m]
    sub = Graph.from_edges(g.n, packed_edges)
    certificate = MatchingDecomposition.make(sub, best, r)
    if not verify_decomposition(certificate).passed:
        raise AssertionError("packing certificate fails verification")
    return SearchOutcome(verdict, certificate=certificate, nodes_explored=nodes,
                         wall_time=time.monotonic() - started, t=len(best), note=note)
