"""Test-only references that the package no longer carries.

The package places search edges only through `search._candidates`' tests and
`_State.add`; the tests that check `_candidates`, the search oracle and the
audit's random decompositions test one candidate at a time with
`OracleState.try_add`, which reads the matchings covering a vertex off
`_State.members` alone.  The package reads degrees off a decomposition's
matchings; the tests count them from a graph's edges with `degrees`.
`is_bipartite` is the package's 2-colouring as it was before the
audit decided bipartiteness from its own BFS, kept verbatim: the audit's
oracle and the double-cover tests read it.  `examples` scales a property
test's example count tenfold under RSG_SLOW_TESTS=1.
`parse_rsg` is the package's parser as it was before its records were read
in one loop, kept verbatim: it checks each record field by field, and the
package's parser must agree with it on every document.
`random_decomposition` grows valid decompositions for the audit and verifier
oracles.  `max_pair_intersection` counts max |V_i cap V_j| by brute force,
which the verifier does not report: a lemma of its checks bounds it by r.
"""

import os
from collections import defaultdict

from rsgraphs import Graph, MatchingDecomposition
from rsgraphs.rsg_format import RsgParseError
from rsgraphs.search import _State


def examples(n):
    """n examples per property test, or ten times as many under RSG_SLOW_TESTS=1, as CI
    runs them."""
    return 10 * n if os.environ.get("RSG_SLOW_TESTS") == "1" else n


def degrees(g):
    """Vertex degrees of graph g, counted from its edge list."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


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


class OracleState(_State):
    def try_add(self, i, x, y):
        """Add edge (x, y) to matching i if all invariants survive; return success.

        A_x and A_y, the matchings covering each end, are read off `members`
        (bit j is set iff the vertex lies in V_j), not off the state's own masks.
        """
        bit = 1 << i
        ax, ay = (sum(1 << j for j, m in enumerate(self.members) if m >> v & 1) for v in (x, y))
        if (ax | ay) & bit:
            return False               # endpoint already matched in M_i
        if ax & ay:
            return False               # edge would sit inside some V_j (or already exists)
        if (self.nbr[x] | self.nbr[y]) & self.members[i]:
            return False               # an endpoint joins V_i while adjacent to it
        self.add(i, x, y)
        return True


def random_decomposition(n, r, t, rng):
    """Up to t induced matchings of size r on n vertices, grown edge by edge at random."""
    state = OracleState(n, t)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    matchings = []
    for i in range(t):
        rng.shuffle(pairs)
        cur = []
        for x, y in pairs:
            if state.try_add(i, x, y):
                cur.append((x, y))
                if len(cur) == r:
                    break
        if len(cur) < r:
            break
        matchings.append(cur)
    return MatchingDecomposition.from_matchings(n, matchings, r)


def max_pair_intersection(dec):
    """max |V_i cap V_j| over i < j (0 if t < 2), from the vertex sets of the matchings."""
    vsets = [{x for e in m for x in e} for m in dec.matchings]
    return max((len(a & b) for i, a in enumerate(vsets) for b in vsets[i + 1:]), default=0)


def parse_rsg(text: str) -> MatchingDecomposition:
    # Lines end at "\n" only: `str.splitlines` would also end one at \x0b,
    # \x0c, \x1c-\x1e, \x85, U+2028 and U+2029, which `split()` reads as
    # spaces inside a record, and so would misnumber the lines after them.
    # A "\r\n" ending leaves a "\r", which `split()` drops too.
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()     # the text after the last newline, if empty, is no line
    if not lines:
        raise RsgParseError(1, "empty document, expected 'rsg n t r' header")
    tokens = lines[0].split()
    if len(tokens) != 4 or tokens[0] != "rsg":
        raise RsgParseError(1, f"malformed header {lines[0]!r}, expected 'rsg n t r'")
    try:
        n, t, r = (int(tok) for tok in tokens[1:])
    except ValueError:
        raise RsgParseError(1, f"non-integer header fields in {lines[0]!r}")
    if n < 0 or t < 0 or r < 0:
        raise RsgParseError(1, "header fields must be non-negative")

    records = defaultdict(list)     # matching index -> its edges, for indices with records
    seen = {}
    for offset, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != 3:
            raise RsgParseError(offset, f"malformed record {line!r}, expected 'u v m'")
        try:
            u, v, m = map(int, tokens)
        except ValueError:
            raise RsgParseError(offset, f"non-integer record fields in {line!r}")
        if not (0 <= u < v < n):
            raise RsgParseError(offset, f"vertex pair ({u}, {v}) violates 0 <= u < v < n = {n}")
        if not (0 <= m < t):
            raise RsgParseError(offset, f"matching index {m} out of range [0, {t})")
        e = (u, v)
        if e in seen:
            raise RsgParseError(offset, f"duplicate edge ({u}, {v}), first seen on line {seen[e]}")
        seen[e] = offset
        records[m].append(e)

    # a matching without records is empty; from_matchings sorts each matching's edges
    return MatchingDecomposition.from_matchings(n, [records[i] for i in range(t)], r)
