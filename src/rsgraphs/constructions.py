"""Deterministic generators for the induced-matching graph families.

Each generator returns a MatchingDecomposition with a fixed canonical vertex
labeling (colex subset order for the Kneser family, integer bit values for the
hypercube, part offsets for the bipartite families) so serialized output is
reproducible byte for byte.  The Cayley construction is additionally certified
by the verifier before being returned; it is never trusted on faith.
A construction whose n + |E| would exceed SIZE_BUDGET raises ResourceLimitError
(`core._check_size`) before it builds any list; `double_cover` only doubles an
input already in memory.
"""

from __future__ import annotations

import math
from itertools import combinations

from .core import (
    SIZE_BUDGET,
    MatchingDecomposition,
    ParameterError,
    _certified,
    _check_size,
    _record,
    _require_verified,
)

_K_CLIP = SIZE_BUDGET.bit_length()      # n >= 2^k: k-families are sized at min(k, _K_CLIP)


def kneser_rs(k: int) -> MatchingDecomposition:
    """Kneser graph KG(2k+1, k) split into 2k+1 induced matchings.

    Vertices are the k-subsets of {1, ..., 2k+1} in colexicographic order;
    matching i pairs up the subsets that are disjoint and miss element i.
    Parameters: n = C(2k+1, k), t = 2k+1, r = C(2k, k)/2 = (n/4)(1 + 1/t).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    m = 2 * k + 1
    c = min(k, _K_CLIP)
    _check_size(f"KG({m}, {k}): n + |E|", math.comb(2 * c + 1, c) * (c + 3) // 2)   # n + n(k+1)/2
    n = math.comb(m, k)

    # Element e + 1 is bit e of a mask, so colex order is numeric mask order.
    full = (1 << m) - 1
    subsets = sorted(sum(1 << e for e in s) for s in combinations(range(m), k))
    index = {a: i for i, a in enumerate(subsets)}

    matchings = [[] for _ in range(m)]
    for ia, a in enumerate(subsets):
        rest = left = full ^ a
        while left:                     # each bit of the complement, lowest first
            bit = left & -left
            left ^= bit
            b = rest ^ bit              # the partner: the rest of the complement
            if a < b:
                matchings[bit.bit_length() - 1].append((ia, index[b]))

    r = math.comb(2 * k, k) // 2
    return MatchingDecomposition.from_matchings(n, matchings, r)


def hypercube_rs(k: int, augmented: bool = False) -> MatchingDecomposition:
    """k-dimensional hypercube split into 2k induced matchings of size n/4.

    Vertices are bit vectors labeled by integer value.  Matching i (1-based,
    i <= k) holds the direction-i edges whose lower endpoint has even parity
    and a zero i-th bit; matching k+i is the odd-parity counterpart.  With k
    even, `augmented` adds the even- and odd-antipodal perfect pairings,
    giving t = 2k + 2 at the same r = n/4.
    """
    if k < 2:
        raise ParameterError("k must be >= 2 so that n/4 matchings are nonempty")
    if augmented and k % 2:
        raise ParameterError("augmented variant requires even k")
    c = min(k, _K_CLIP)
    _check_size(f"Q_{k}: n + |E|", (1 << c) * (c + 2 + augmented) // 2)      # n + nt/4
    n = 1 << k

    matchings = []
    for parity in (0, 1):
        for i in range(k):
            bit = 1 << i
            mi = [
                (v, v | bit)
                for v in range(n)
                if not v & bit and v.bit_count() % 2 == parity
            ]
            matchings.append(mi)

    if augmented:
        ones = n - 1
        for parity in (0, 1):
            mi = [
                (v, v ^ ones)
                for v in range(n)
                if v < v ^ ones and v.bit_count() % 2 == parity
            ]
            matchings.append(mi)

    return MatchingDecomposition.from_matchings(n, matchings, n // 4)


def disjoint_union(dec: MatchingDecomposition, copies: int) -> MatchingDecomposition:
    """Vertex-disjoint copies; matching i of the output unions the copy translates.

    t is unchanged, r scales by `copies`, so the ratio r/n is preserved exactly.
    """
    if copies < 1:
        raise ParameterError("copies must be >= 1")
    n = dec.n
    _check_size(f"{copies} disjoint copies: n + |E|",
                copies * (n + sum(len(m) for _, m in dec.listed)))
    _require_verified(dec, "disjoint_union")
    # from_listed sorts each matching's edges
    listed = [(i, [(u + c * n, v + c * n) for (u, v) in mi for c in range(copies)])
              for i, mi in dec.listed]
    return MatchingDecomposition.from_listed(copies * n, dec.t, dec.r * copies, listed)


def double_cover(dec: MatchingDecomposition) -> MatchingDecomposition:
    """Bipartite double cover G x K2: a (2r, t) decomposition on 2n vertices.

    Vertex (v, 0) keeps label v; (v, 1) becomes v + n.  Each matching edge
    (u, v) contributes both cross edges (u, v+n) and (v, u+n).
    """
    _require_verified(dec, "double_cover")
    n = dec.n
    listed = [(i, [e for u, v in mi for e in ((u, v + n), (v, u + n))]) for i, mi in dec.listed]
    return MatchingDecomposition.from_listed(2 * n, dec.t, 2 * dec.r, listed)


@_record
class APFreeSet:
    """Strictly increasing positive integers <= limit with no 3-term progression."""

    limit: int
    elements: tuple
    method: str
    note: str = ""

    def __len__(self):
        return len(self.elements)


def has_three_term_progression(elements) -> bool:
    """Brute-force oracle: is there x + z = 2y with x, y, z in the set, x != z?"""
    values = sorted(set(elements))
    present = set(values)
    for i, x in enumerate(values):
        for z in values[i + 1:]:
            if (x + z) % 2 == 0 and (x + z) // 2 in present:
                return True
    return False


AP_VERIFY_LIMIT = 10 ** 5


def _greedy_base3(m: int):
    # x is kept iff x - 1 has no digit 2 in base 3
    out = []
    for x in range(1, m + 1):
        v = x - 1
        while v:
            if v % 3 == 2:
                break
            v //= 3
        else:
            out.append(x)
    return out


def _behrend_layer(m: int):
    # for m >= 8, sqrt(ln m) > 1.4 so d >= 1, and the digit range is never empty:
    # d = 1 gives q = m, and d >= 2 needs ln m >= (d - 1/2)^2, so
    # m^(1/d) >= e^(9/8) > 3, q >= 3 and half >= 1
    d = round(math.sqrt(math.log(m)))
    q = int(round(m ** (1.0 / d)))
    while q ** d > m:
        q -= 1
    half = q // 2
    layers = {}

    def rec(pos, value, sq):
        if pos == d:
            layers.setdefault(sq, []).append(value + 1)
            return
        for x in range(half):
            rec(pos + 1, value + x * q ** pos, sq + x * x)

    rec(0, 0, 0)
    best = max(layers.values(), key=lambda vals: (len(vals), -min(vals)))
    return sorted(best)


def ap_free_set(method: str, limit: int) -> APFreeSet:
    """Construct a 3-AP-free subset of [limit] and brute-force verify it.

    `greedy-base3` keeps x when x-1 has no base-3 digit 2.  `behrend` encodes
    the densest sphere layer of small digit vectors in base q; for tiny limits
    it falls back to greedy-base3 (noted in the output).
    """
    if limit < 1:
        raise ParameterError("limit must be >= 1")
    if method not in ("greedy-base3", "behrend"):
        raise ParameterError(f"unknown method {method!r}")

    note = ""
    used = method
    if method == "behrend":
        if limit < 8:
            elements = _greedy_base3(limit)
            used = "greedy-base3"
            note = "behrend degenerate below 8; fell back to greedy-base3"
        else:
            elements = _behrend_layer(limit)
    else:
        elements = _greedy_base3(limit)

    if limit <= AP_VERIFY_LIMIT:
        if has_three_term_progression(elements):
            raise AssertionError("constructed set contains a 3-term progression")
    else:
        note = (note + "; " if note else "") + f"limit above {AP_VERIFY_LIMIT}, brute-force check skipped"
    if elements and (elements[-1] > limit or elements[0] < 1):
        raise AssertionError("constructed set leaves [limit]")
    return APFreeSet(limit, tuple(elements), used, note)


def check_cayley_modulus(modulus: int) -> None:
    """Refuse a modulus N that is even, below 5 (no S fits in [1, (N-1)/3]), or
    whose Cayley graph is over budget for every S (n + |E| >= 3N), before any S is built."""
    if modulus < 1 or modulus % 2 == 0:
        raise ParameterError(f"modulus must be odd and >= 1, got {modulus}")
    if modulus < 5:
        raise ParameterError(f"modulus {modulus} is below 5: "
                             "no difference set fits in [1, (N-1)/3]")
    _check_size(f"Cayley graph on Z_{modulus}: n + |E|", 3 * modulus)


def cayley_rs(modulus: int, s: APFreeSet) -> MatchingDecomposition:
    """Bipartite Cayley-style family over Z_N driven by a 3-AP-free difference set.

    Parts X = {0..N-1} and Y = {N..2N-1}; (x, N+y) is an edge iff (y - x) mod N
    is in S.  Matching M_z (z in Z_N) is {(z-2a, N + z-a) : a in S}.  N odd
    makes each M_z a matching; S being 3-AP-free and confined to [1, (N-1)/3]
    makes it induced.  The output is certified by the verifier before return.
    """
    n_mod = modulus
    check_cayley_modulus(n_mod)
    elems = s.elements
    if not elems:
        raise ParameterError("difference set is empty")
    if 3 * max(elems) > n_mod - 1:
        raise ParameterError(
            f"max(S) = {max(elems)} exceeds (N-1)/3; wraparound would create spurious progressions"
        )
    _check_size(f"Cayley graph on Z_{n_mod} with |S| = {len(elems)}: n + |E|",
                n_mod * (2 + len(elems)))

    matchings = []
    for z in range(n_mod):
        mz = [((z - 2 * a) % n_mod, n_mod + (z - a) % n_mod) for a in elems]
        matchings.append(mz)
    return _certified(MatchingDecomposition.from_matchings(2 * n_mod, matchings, len(elems)),
                      "cayley_rs")
