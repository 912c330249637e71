"""Plain-text .rsg serialization: header `rsg n t r`, then `u v m` edge records.

Parsing builds the decomposition but never verifies it; corrupt or
inconsistent files stay inspectable.  A matching with no record is empty and
is not stored, so the header's t costs nothing in either direction.  Emission
is canonical (records sorted by (m, u, v), newline-terminated) so
parse-then-emit is byte-identical.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from .core import MatchingDecomposition


class RsgParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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

    # One lean loop: every fault raises ValueError (a token count other than
    # three on unpacking, a non-integer token in `int`, a failed range test or
    # a repeated edge), and only the first failing line is read again, by
    # `_record_error`, which names the fault.
    records = defaultdict(list)     # matching index -> its edges, for indices with records
    seen = {}                       # edge -> the line listing it
    try:
        for offset, line in enumerate(lines[1:], start=2):
            u, v, m = line.split()
            u, v, m = int(u), int(v), int(m)
            e = (u, v)
            if not (0 <= u < v < n and 0 <= m < t) or e in seen:
                raise ValueError
            seen[e] = offset
            records[m].append(e)
    except ValueError:
        raise _record_error(offset, line, n, t, seen) from None

    # The records are checked distinct edges with 0 <= u < v < n, the form
    # MatchingDecomposition.from_listed produces, so the decomposition is
    # built directly, from the matchings with records only.
    return MatchingDecomposition(n, t, r, tuple((i, tuple(sorted(m))) for i, m in sorted(records.items())))


def _record_error(offset: int, line: str, n: int, t: int, seen) -> RsgParseError:
    """The error naming the first fault of record `line`, on line `offset`, checked in this
    order: the token count, the integers, the vertex pair, the matching index, a repeated edge."""
    tokens = line.split()
    if len(tokens) != 3:
        return RsgParseError(offset, f"malformed record {line!r}, expected 'u v m'")
    try:
        u, v, m = map(int, tokens)
    except ValueError:
        return RsgParseError(offset, f"non-integer record fields in {line!r}")
    if not (0 <= u < v < n):
        return RsgParseError(offset, f"vertex pair ({u}, {v}) violates 0 <= u < v < n = {n}")
    if not (0 <= m < t):
        return RsgParseError(offset, f"matching index {m} out of range [0, {t})")
    return RsgParseError(offset, f"duplicate edge ({u}, {v}), first seen on line {seen[u, v]}")


def emit_rsg(dec: MatchingDecomposition) -> str:
    # one `%` per matching over its flattened edges, its index written once
    out = [f"rsg {dec.n} {dec.t} {dec.r}\n"]
    out.extend(("%d %d " + str(m) + "\n") * len(matching) % tuple(chain.from_iterable(matching))
               for m, matching in dec.listed)
    return "".join(out)
