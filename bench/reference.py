"""Answers the benchmark holds independently of the rsgraphs package.

Nothing here imports rsgraphs.  The generators build the benchmark's own
copies of the paper's families as plain `(u, v, m)` records, the checker
re-derives the induced-matching property from records alone, and the
hand-written tables (SHAPE, AUDIT, SEARCH and the mutation
expectations) every verdict of the package is compared against.
"""

from __future__ import annotations

import math
from itertools import combinations


def check(n, t, r, records, edges=None):
    """Return None if records split into t induced matchings of size r, else the broken invariant.

    records are (u, v, m) triples; edges, when given, is the graph's edge set
    and must equal the set of recorded edges (the partition property).
    """
    owner, inc, sizes = {}, [0] * n, [0] * t
    for u, v, m in records:
        if not (0 <= u < n and 0 <= v < n and u != v and 0 <= m < t):
            return f"range: record {(u, v, m)} outside n = {n}, t = {t}"
        e, bit = (min(u, v), max(u, v)), 1 << m
        if e in owner:
            return f"disjointness: edge {e} in matchings {owner[e]} and {m}"
        if (inc[u] | inc[v]) & bit:
            return f"matching: edge {e} shares an endpoint with another edge of matching {m}"
        owner[e] = m
        inc[u] |= bit
        inc[v] |= bit
        sizes[m] += 1
    if edges is not None and set(edges) != set(owner):
        return f"partition: {len(set(edges) ^ set(owner))} edges differ between graph and matchings"
    for (u, v), m in owner.items():
        if inc[u] & inc[v] != 1 << m:
            return f"inducedness: edge {(u, v)} of matching {m} joins two vertices of another matching"
    for m, size in enumerate(sizes):
        if size != r:
            return f"size: matching {m} has {size} edges, r = {r}"
    return None


def matching_degrees(n, records):
    """d_v = number of matchings covering v."""
    deg = [0] * n
    for u, v, _ in records:
        deg[u] += 1
        deg[v] += 1
    return deg


def plotkin_column_sum(n, t, records):
    """Sum of pairwise Hamming distances of the code {0, 1_{V_1}, ..., 1_{V_t}}, counted by column."""
    return sum(d * (t + 1 - d) for d in matching_degrees(n, records))


# --- the benchmark's own generators ----------------------------------------

def base3_set(limit):
    """x in [1, limit] with no digit 2 in x - 1 written in base 3."""
    def no_two(v):
        while v:
            if v % 3 == 2:
                return False
            v //= 3
        return True
    return [x for x in range(1, limit + 1) if no_two(x - 1)]


def cayley(modulus):
    """(n, t, r, records) of the Cayley family over Z_N with the base-3 set up to (N-1)/3."""
    s = base3_set((modulus - 1) // 3)
    records = [((z - 2 * a) % modulus, modulus + (z - a) % modulus, z)
               for z in range(modulus) for a in s]
    return 2 * modulus, modulus, len(s), records


def kneser(k):
    """KG(2k+1, k): vertex = k-subset bitmask, matching i pairs disjoint sets missing element i."""
    m = 2 * k + 1
    masks = [sum(1 << x for x in c) for c in combinations(range(m), k)]
    index = {mask: i for i, mask in enumerate(masks)}
    full = (1 << m) - 1
    records = []
    for i in range(m):
        for a in masks:
            b = full & ~a & ~(1 << i)
            if not a >> i & 1 and a < b:
                records.append((index[a], index[b], i))
    return len(masks), m, math.comb(2 * k, k) // 2, records


def hypercube(k, augmented=False):
    """Q_k split by direction and parity of the lower endpoint; augmented adds antipodal pairs."""
    n = 1 << k
    records = []
    for parity in (0, 1):
        for i in range(k):
            records += [(v, v | 1 << i, parity * k + i) for v in range(n)
                        if not v >> i & 1 and bin(v).count("1") % 2 == parity]
        if augmented:
            records += [(v, v ^ (n - 1), 2 * k + parity) for v in range(n)
                        if v < v ^ (n - 1) and bin(v).count("1") % 2 == parity]
    return n, 2 * k + 2 * augmented, n // 4, records


FAMILIES = {
    "cayley301": lambda: cayley(301),
    "cayley1001": lambda: cayley(1001),
    "kneser2": lambda: kneser(2),
    "kneser3": lambda: kneser(3),
    "kneser5": lambda: kneser(5),
    "kneser6": lambda: kneser(6),
    "q4aug": lambda: hypercube(4, True),
    "q8": lambda: hypercube(8),
    "q8aug": lambda: hypercube(8, True),
    "q10aug": lambda: hypercube(10, True),
    "q12aug": lambda: hypercube(12, True),
}


def permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(perm, records):
    """Rename vertex v to perm[v]; records come back sorted by (m, u, v)."""
    out = []
    for u, v, m in records:
        a, b = perm[u], perm[v]
        out.append((a, b, m) if a < b else (b, a, m))
    out.sort(key=lambda rec: (rec[2], rec[0], rec[1]))
    return out


def rsg_text(n, t, r, records):
    return "".join([f"rsg {n} {t} {r}\n"] + [f"{u} {v} {m}\n" for u, v, m in records])


def read_records(text):
    """Header and records of .rsg text, without any validation."""
    lines = text.splitlines()
    n, t, r = (int(x) for x in lines[0].split()[1:])
    return n, t, r, [tuple(int(x) for x in line.split()) for line in lines[1:]]


# --- expected answers (hand-written) ----------------------------------------

def _closed_form(family, k):
    if family == "cayley":
        return 2 * k, k, len(base3_set((k - 1) // 3))
    if family == "kneser":
        return math.comb(2 * k + 1, k), 2 * k + 1, math.comb(2 * k, k) // 2
    if family == "q":
        return 2 ** k, 2 * k, 2 ** k // 4
    return 2 ** k, 2 * k + 2, 2 ** k // 4          # qaug


SHAPE = {
    "cayley301": _closed_form("cayley", 301),
    "cayley1001": _closed_form("cayley", 1001),
    "kneser2": _closed_form("kneser", 2),
    "kneser3": _closed_form("kneser", 3),
    "kneser5": _closed_form("kneser", 5),
    "kneser6": _closed_form("kneser", 6),
    "q4aug": _closed_form("qaug", 4),
    "q8": _closed_form("q", 8),
    "q8aug": _closed_form("qaug", 8),
    "q10aug": _closed_form("qaug", 10),
    "q12aug": _closed_form("qaug", 12),
}

# Expansion audit: q_k and q_k-aug put every edge in E0 (degree sum = t),
# Kneser puts every edge in E1 (degree sum = t + 1).  Non-bipartite inputs are
# audited on their double cover, which doubles n and the edge count.  Every
# vertex survives the t/8 strip, so |F| is the audited n, F is connected and
# the BFS claim count is |F|^2.
AUDIT = {
    # name: (doubled, E1, E0, |F|)
    "q8": (False, 0, 1024, 256),
    "q8aug": (True, 0, 2304, 512),
    "kneser5": (True, 2772, 0, 924),
    "q10aug": (True, 0, 11264, 2048),
}

# exists_rs verdicts.  The decided ones were also established with
# matching_order_pruning=False: (8,2,8) UNSAT after 2,558,622 nodes,
# (11,3,6) UNSAT after 16,299,652 nodes, (12,3,7) SAT after 7,081,639 nodes.
# (12,3,8) is open: SAT must pass `check`, UNSAT or INDETERMINATE are reported.
SEARCH = {
    (8, 2, 8): "UNSAT",
    (11, 3, 6): "UNSAT",
    (12, 3, 7): "SAT",
    (12, 3, 8): None,
}

# Exit codes of the rsg CLI (see its module docstring).
EX_OK, EX_FAIL, EX_INDETERMINATE, EX_USAGE, EX_PARSE = 0, 1, 2, 64, 65

# What the reference checker names for each mutation kind.
CHECKER_REJECTS = {
    "moved": {"size", "matching", "inducedness"},
    "deleted": {"size", "partition"},
    "chord": {"inducedness"},
    "duplicate": {"disjointness"},
    "out-of-range": {"range"},
}


def mutate(kind, n, t, r, records, rng):
    """Seeded mutant of a valid record list.

    Returns (records in file order, expectation).  The expectation holds the
    exit code, the (invariant, matchings, witness) triples `rsg verify --json`
    must report, and for parse errors the line number and message fragment.
    """
    recs = list(records)
    p = rng.randrange(len(recs))
    u, v, i = recs[p]
    if kind == "moved":
        j = rng.choice([x for x in range(t) if x != i])
        recs[p] = (u, v, j)
        recs.sort(key=lambda rec: (rec[2], rec[0], rec[1]))
        return recs, {"exit": EX_FAIL, "violations": [("size-mismatch", [i], [r - 1]),
                                                      ("size-mismatch", [j], [r + 1])]}
    if kind == "deleted":
        del recs[p]
        return recs, {"exit": EX_FAIL, "violations": [("size-mismatch", [i], [r - 1])]}
    if kind == "chord":
        edges = {(a, b) for a, b, _ in recs}
        cover = [set() for _ in range(t)]
        for a, b, m in recs:
            cover[m].update((a, b))
        while True:
            host = rng.randrange(t)
            a, b = sorted(rng.sample(sorted(cover[host]), 2))
            if (a, b) in edges:
                continue
            free = [m for m in range(t) if m != host and a not in cover[m] and b not in cover[m]]
            if free:
                recs.append((a, b, rng.choice(free)))
                recs.sort(key=lambda rec: (rec[2], rec[0], rec[1]))
                return recs, {"exit": EX_FAIL, "violations": [("not-induced", [host], [a, b])]}
    if kind == "duplicate":
        q = rng.randrange(p + 1, len(recs) + 1)
        recs.insert(q, recs[p])
        return recs, {"exit": EX_PARSE, "line": q + 2, "message": "duplicate edge"}
    if kind == "out-of-range":
        recs[p] = (u, v, t + rng.randrange(3))
        return recs, {"exit": EX_PARSE, "line": p + 2, "message": "out of range"}
    raise ValueError(f"unknown mutation {kind!r}")
