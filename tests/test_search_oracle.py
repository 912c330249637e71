"""The explicit-stack searches against the recursive searches they replaced.

`recursive_exists_rs`, `recursive_enumerate_induced_matchings` and
`recursive_max_t_on_graph` are the package's earlier `exists_rs`,
`_enumerate_induced_matchings` and `max_t_on_graph`, kept verbatim as
test-only references (renamed, with `_Found` and `_BudgetExceeded` defined
here).  `recursive_exists_rs` tests every candidate edge with
`OracleState.try_add` inside a recursive `extend`, and `exists_rs` must
return its verdict, node count and certificate bytes; its INDETERMINATE
notes say which budget ran out, where the oracle's say only "budget
exhausted".  `recursive_max_t_on_graph` enumerates every induced r-matching
of g and covers or packs with them, counting one node per matching tried,
where `max_t_on_graph` counts one per candidate edge: the two must agree on
the verdict and t wherever both close, and a stopped packing's best t is at
most a closed one's.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rsgraphs import (
    Budget,
    Graph,
    INDETERMINATE,
    MatchingDecomposition,
    ParameterError,
    SAT,
    UNSAT,
    double_cover,
    emit_rsg,
    exists_rs,
    hypercube_rs,
    kneser_rs,
    max_t_on_graph,
    verify_decomposition,
)
from rsgraphs import search
from rsgraphs.bounds import max_r
from rsgraphs.search import SearchOutcome
from oracles import OracleState, examples


class _BudgetExceeded(Exception):
    pass


class _Found(Exception):
    pass


def recursive_exists_rs(n, r, t, budget: Budget = None, eq1_shortcut: bool = True,
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
    budget = budget or Budget()
    started = time.monotonic()

    if r == 0 or t == 0:        # the empty certificate, which the search builds before any node
        return exists_rs(n, r, t)

    if eq1_shortcut and Fraction(r) > max_r(n, t):
        return SearchOutcome(
            UNSAT, wall_time=time.monotonic() - started,
            note=f"r = {r} > max_r({n}, {t}) = {max_r(n, t)}; hard cap shortcut",
        )

    state = OracleState(n, t)
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
        certificate = MatchingDecomposition.from_matchings(n, matchings, r)
        report = verify_decomposition(certificate)
        if not report.passed:
            raise AssertionError("search produced a certificate that fails verification")
    return SearchOutcome(
        verdict, certificate=certificate, nodes_explored=nodes,
        wall_time=time.monotonic() - started, note=note,
    )


def recursive_enumerate_induced_matchings(g: Graph, r: int):
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


def recursive_max_t_on_graph(g: Graph, r: int, budget: Budget = None,
                   exact_cover: bool = False) -> SearchOutcome:
    """Pack as many edge-disjoint induced matchings of size r into g as possible.

    With `exact_cover`, the union must equal E(g), forcing t = |E|/r; the
    procedure then decides decomposability.  Without it, the certificate's
    graph is the packed subgraph and the outcome carries the maximal t.
    """
    if r < 1:
        raise ParameterError("r must be >= 1")
    budget = budget or Budget()
    started = time.monotonic()
    if exact_cover and len(g.edges) % r:
        raise ParameterError(f"exact cover impossible: r = {r} does not divide |E| = {len(g.edges)}")

    pool = recursive_enumerate_induced_matchings(g, r)
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
            certificate = MatchingDecomposition.from_matchings(g.n, chosen, r)
            if certificate.graph != g or not verify_decomposition(certificate).passed:
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

    certificate = MatchingDecomposition.from_matchings(g.n, best, r)
    if not verify_decomposition(certificate).passed:
        raise AssertionError("packing certificate fails verification")
    return SearchOutcome(verdict, certificate=certificate, nodes_explored=nodes,
                         wall_time=time.monotonic() - started, t=len(best), note=note)


def _fields(out):
    cert = emit_rsg(out.certificate) if out.certificate is not None else None
    return out.verdict, out.nodes_explored, out.t, out.note, cert


def _oracle_fields(out):
    verdict, nodes, t, note, cert = _fields(out)
    if note.startswith("budget exhausted"):
        note = "node " + note
    return verdict, nodes, t, note, cert


GRID_BUDGET = Budget(max_nodes=200_000, max_seconds=1e9)


class TestExistsRsOracle:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_grid(self, n):
        for r, t, pruning in itertools.product((1, 2, 3), range(1, 9), (True, False)):
            if 2 * r > n:
                continue
            kwargs = dict(budget=GRID_BUDGET, eq1_shortcut=False, matching_order_pruning=pruning)
            assert _fields(exists_rs(n, r, t, **kwargs)) == \
                _oracle_fields(recursive_exists_rs(n, r, t, **kwargs)), (n, r, t, pruning)

    @pytest.mark.parametrize("args, kwargs", [
        ((8, 2, 8), {"eq1_shortcut": False}),
        ((9, 2, 7), {"eq1_shortcut": False}),
        ((7, 2, 5), {"eq1_shortcut": False, "matching_order_pruning": False}),
    ])
    def test_node_budget_stops(self, args, kwargs):
        # every count up to 300 includes stops inside rows that are masked in
        # one step, at a failing candidate and at a passing one
        counts = [0, *range(1, 301), 4095, 4096, 4097, 8191, 8192, 12_345]
        for max_nodes in counts:
            budget = Budget(max_nodes=max_nodes, max_seconds=1e9)
            assert _fields(exists_rs(*args, budget=budget, **kwargs)) == \
                _oracle_fields(recursive_exists_rs(*args, budget=budget, **kwargs)), max_nodes

    def test_zero_time_budget(self):
        budget = Budget(max_seconds=0)
        new = exists_rs(12, 3, 7, budget=budget)
        old = recursive_exists_rs(12, 3, 7, budget=budget)
        assert (new.verdict, new.nodes_explored) == (old.verdict, old.nodes_explored) == \
            (INDETERMINATE, 1)
        assert new.note == "time budget exhausted (0 s, 1 nodes)"


class _Clock:
    """A monotonic clock that reads 0 for its first `reads` calls, then far past any deadline."""

    def __init__(self, reads):
        self.reads = reads

    def monotonic(self):
        self.reads -= 1
        return 0.0 if self.reads >= 0 else 1e9


class TestTimeBudgetStops:
    """The node a time budget stops at, with a clock that runs out on a chosen read.

    Each search reads the clock at its start and before its first node, then
    at every multiple of 4096 nodes; the stop must land on the same multiple
    as the oracle's.
    """

    @pytest.mark.parametrize("periods", [0, 1, 3])
    def test_exists_rs(self, monkeypatch, periods):
        budget = Budget(max_seconds=1.0)
        monkeypatch.setattr(search, "time", _Clock(2 + periods))
        new = exists_rs(11, 3, 6, budget=budget)
        monkeypatch.setitem(globals(), "time", _Clock(2 + periods))
        old = recursive_exists_rs(11, 3, 6, budget=budget)
        assert new.nodes_explored == old.nodes_explored == 4096 * (periods + 1)
        assert new.note == f"time budget exhausted (1 s, {4096 * (periods + 1)} nodes)"

    @pytest.mark.parametrize("periods", [0, 1, 3])
    @pytest.mark.parametrize("exact_cover", [False, True])
    def test_max_t_on_graph(self, monkeypatch, exact_cover, periods):
        # both run past 16,384 nodes on either side: the package's cover takes
        # 69,673 nodes to SAT, its packing over 10M to close, and the oracle's
        # pools are under 4096 enumeration steps, so it reads no clock before its search
        if exact_cover:
            g = double_cover(kneser_rs(2)).graph
        else:
            g = hypercube_rs(4, augmented=True).graph
        budget = Budget(max_seconds=1.0)
        monkeypatch.setattr(search, "time", _Clock(2 + periods))
        new = max_t_on_graph(g, 3, budget=budget, exact_cover=exact_cover)
        monkeypatch.setitem(globals(), "time", _Clock(2 + periods))
        old = recursive_max_t_on_graph(g, 3, budget=budget, exact_cover=exact_cover)
        nodes = 4096 * (periods + 1)
        assert (new.verdict, new.nodes_explored) == (old.verdict, old.nodes_explored) == \
            (INDETERMINATE, nodes)
        assert new.note.startswith(f"time budget exhausted (1 s, {nodes} nodes)")


def per_candidate_stop(candidates, max_nodes):
    """Where a loop that counts `candidates` candidate edges one at a time stops: its node and
    whether the clock stopped it, or (candidates, None) when it tests them all.  It reads the
    clock as `max_t_on_graph` does: at its start, before node 1 and at each multiple of 4096."""
    deadline = time.monotonic() + 1.0
    if time.monotonic() >= deadline:
        return 1, True
    for nodes in range(1, candidates + 1):
        if nodes >= max_nodes:
            return nodes, False
        if not nodes % 4096 and time.monotonic() > deadline:
            return nodes, True
    return candidates, None


class TestPackJumps:
    """`max_t_on_graph` packing across more than one multiple of 4096 failing candidates at once.

    The graph on 150 vertices has two edges: (0, 1) and the 10,001st pair in
    lex order.  Once (0, 1) opens M_0, every pair up to the other edge fails,
    so `_candidates` reports 9,999 failing candidates and the passing one in
    one step, across the clock reads at 4096 and 8192, and that edge fills
    M_0: SAT with t = 1 at node 10,001.  Each stop must land where the loop
    that counts each candidate in turn stops.
    """

    FAR = list(itertools.combinations(range(150), 2))[10_000]

    @pytest.mark.parametrize("reads", [0, 1, 2, 3, 10**6])
    @pytest.mark.parametrize("max_nodes", [0, 1, 2, 4096, 5_000, 8_192, 10_001, 10_002, 10**9])
    def test_stops_match_per_index_loop(self, monkeypatch, reads, max_nodes):
        g = Graph.from_edges(150, [(0, 1), self.FAR])
        budget = Budget(max_nodes=max_nodes, max_seconds=1.0)
        monkeypatch.setattr(search, "time", _Clock(reads))
        out = max_t_on_graph(g, 2, budget=budget)
        monkeypatch.setitem(globals(), "time", _Clock(reads))
        nodes, timed_out = per_candidate_stop(10_001, max_nodes)
        if timed_out is None:
            assert (out.verdict, out.nodes_explored, out.t, out.note) == (SAT, nodes, 1, "")
            assert out.certificate.graph == g
        else:
            which = f"time budget exhausted (1 s, {nodes} nodes)" if timed_out else \
                f"node budget exhausted ({nodes} nodes)"
            assert (out.verdict, out.nodes_explored, out.t, out.note) == \
                (INDETERMINATE, nodes, 0, f"{which}; best found t = 0")


class TestMeter:
    """`_Meter.stop` on its own, with a clock that runs out on a chosen read.

    Building the meter reads the clock once, so `_Clock(1 + k)` lets the
    first k reads of `stop` find time left.
    """

    @pytest.mark.parametrize("reads", [0, 1, 2])
    def test_one_stop_reads_each_multiple_crossed(self, monkeypatch, reads):
        clock = _Clock(1 + reads)
        monkeypatch.setattr(search, "time", clock)
        meter = search._Meter(10**9, 1.0)
        assert meter.limit == 4096
        assert meter.stop(3 * 4096 + 5) == 4096 * (reads + 1)
        assert meter.timed_out and clock.reads == -1

    def test_one_stop_passes_every_multiple_in_time(self, monkeypatch):
        clock = _Clock(4)
        monkeypatch.setattr(search, "time", clock)
        meter = search._Meter(10**9, 1.0)
        assert meter.stop(3 * 4096 + 5) is None
        assert (meter.limit, meter.timed_out, clock.reads) == (4 * 4096, False, 0)

    @pytest.mark.parametrize("max_nodes", [4096, 2 * 4096])
    def test_node_budget_on_a_multiple_reads_no_clock_there(self, monkeypatch, max_nodes):
        clock = _Clock(max_nodes // 4096)
        monkeypatch.setattr(search, "time", clock)
        meter = search._Meter(max_nodes, 1.0)
        assert meter.stop(max_nodes + 100) == max_nodes
        assert not meter.timed_out and clock.reads == 0

    def test_zero_node_budget_stops_at_node_1(self):
        meter = search._Meter(0, time.monotonic() + 1e9)
        assert meter.limit == 1
        assert meter.stop(1) == 1
        assert not meter.timed_out

    def test_passed_deadline_stops_at_node_1(self, monkeypatch):
        clock = _Clock(0)
        monkeypatch.setattr(search, "time", clock)
        meter = search._Meter(10**9, 1.0)
        assert meter.timed_out and meter.limit == 1
        assert meter.stop(5000) == 1
        assert clock.reads == -1


def _random_graph(draw, n_max=9):
    n = draw(st.integers(2, n_max))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph.from_edges(n, edges)


def _holds(g, r, out, exact_cover):
    """`out`'s certificate, if any, verifies, lies in g, equals g under `exact_cover` and holds t
    matchings of size r; only a cover that did not end SAT has none."""
    cert = out.certificate
    if cert is None:
        assert exact_cover and out.verdict != SAT and out.t is None
        return
    assert verify_decomposition(cert).passed
    assert (cert.t, cert.r) == (out.t, r)
    assert cert.graph == g if exact_cover else cert.graph.edges <= g.edges


def _agree(out, ref):
    """Two runs on one input agree: closed runs on the verdict and t, and a stopped packing's best
    t is at most a closed packing's t."""
    closed = [run for run in (out, ref) if run.verdict != INDETERMINATE]
    if len(closed) == 2:
        assert (out.verdict, out.t) == (ref.verdict, ref.t)
    elif closed and out.certificate is not None and ref.certificate is not None:
        assert max(out.t, ref.t) == closed[0].t


class TestMaxTOnGraphOracle:
    @settings(max_examples=examples(300), deadline=None)
    @given(data=st.data())
    def test_random_graphs(self, data):
        g = _random_graph(data.draw)
        r = data.draw(st.integers(1, 4))
        budget = Budget(max_nodes=data.draw(st.sampled_from([1, 2, 3, 10, 100, 100_000])),
                        max_seconds=1e9)
        for exact_cover in (False, True) if len(g.edges) % r == 0 else (False,):
            ref = recursive_max_t_on_graph(g, r, exact_cover=exact_cover)
            assert ref.verdict != INDETERMINATE
            out = max_t_on_graph(g, r, budget=budget, exact_cover=exact_cover)
            _holds(g, r, out, exact_cover)
            _agree(out, ref)

    @pytest.mark.parametrize("r, exact_cover, max_nodes", [
        (10, True, 100_000), (8, False, 50_000), (7, True, 3_000), (5, False, 4_096),
    ])
    def test_relabeled_kneser3(self, r, exact_cover, max_nodes):
        k3 = kneser_rs(3).graph
        perm = list(range(k3.n))
        random.Random(5).shuffle(perm)
        g = Graph.from_edges(k3.n, [(perm[u], perm[v]) for u, v in k3.edges])
        budget = Budget(max_nodes=max_nodes, max_seconds=1e9)
        out = max_t_on_graph(g, r, budget=budget, exact_cover=exact_cover)
        _holds(g, r, out, exact_cover)
        _agree(out, recursive_max_t_on_graph(g, r, budget=budget, exact_cover=exact_cover))


class TestCandidates:
    """`search._candidates` against the candidates of one depth listed one by one.

    The depth's candidates are the edges (x, y) after `lo` in lex order with
    x <= min(rows, top), top = min(u, n - 1), and y <= top in rows x < u or
    y <= min(u + 1, n - 1) in row u, u the smallest unused label; a candidate
    passes when `OracleState.try_add` accepts it.  Every matching but M_i is
    closed before the check, as the caller's precondition asks.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_yields_the_passing_candidates_and_counts_every_one(self, data):
        n = data.draw(st.integers(2, 10))
        t = data.draw(st.integers(1, 5))
        pairs = list(itertools.combinations(range(n), 2))
        state = OracleState(n, t)
        for _ in range(data.draw(st.integers(0, 30))):
            x, y = data.draw(st.sampled_from(pairs))
            state.try_add(data.draw(st.integers(0, t - 1)), x, y)
        i = data.draw(st.integers(0, t - 1))
        for j in range(t):             # the caller's precondition
            if j != i:
                state.close(j)
        lo = data.draw(st.none() | st.sampled_from(pairs))
        rows = data.draw(st.integers(0, n))
        blocked = state.members[i]     # B_i = V_i | N(V_i)
        for v in range(n):
            if state.members[i] >> v & 1:
                blocked |= state.nbr[v]
        before = (list(state.apart), list(state.nbr), list(state.members), state.used)

        u = state.used
        top = min(u, n - 1)
        generated = [(x, y) for x, y in pairs
                     if x <= min(rows, top) and y <= (top if x < u else min(u + 1, n - 1))
                     and (lo is None or (x, y) > lo)]
        passing = []
        for x, y in generated:
            prev_used = state.used
            if state.try_add(i, x, y):
                state.remove(i, x, y, prev_used)
                passing.append((x, y))

        got = list(search._candidates(state, n, lo, rows, blocked))
        assert got[-1][:2] == (None, None)
        assert [(x, y) for x, y, _ in got[:-1]] == passing
        assert sum(k for _, _, k in got) == len(generated)
        # each k runs up to its own candidate: the running sum is its place in the order
        assert list(itertools.accumulate(k for _, _, k in got[:-1])) == \
            [generated.index(c) + 1 for c in passing]
        assert (state.apart, state.nbr, state.members, state.used) == before
