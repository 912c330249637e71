"""Test-only references that the package no longer carries.

The package places search edges only through `_State.row_mask` and
`_State.add`; the tests that check `row_mask`, the search oracle and the
audit's random decompositions test one candidate at a time with
`OracleState.try_add`.  The package reads degrees from a decomposition's
`covering` lists; the tests count them from a graph's edges with `degrees`.
"""

from rsgraphs.search import _State


def degrees(g):
    """Vertex degrees of graph g, counted from its edge list."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


class OracleState(_State):
    def try_add(self, i, x, y):
        """Add edge (x, y) to matching i if all invariants survive; return success."""
        bit = 1 << i
        ax, ay = self.incidence[x], self.incidence[y]
        if (ax | ay) & bit:
            return False               # endpoint already matched in M_i
        if ax & ay:
            return False               # edge would sit inside some V_j (or already exists)
        if (self.nbr[x] | self.nbr[y]) & self.members[i]:
            return False               # an endpoint joins V_i while adjacent to it
        self.add(i, x, y)
        return True
