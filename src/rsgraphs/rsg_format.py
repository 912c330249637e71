"""Plain-text .rsg serialization: header `rsg n t r`, then `u v m` edge records.

Parsing builds the decomposition but never verifies it; corrupt or
inconsistent files stay inspectable.  Emission is canonical (records sorted by
(m, u, v), newline-terminated) so parse-then-emit is byte-identical.
"""

from __future__ import annotations

from collections import defaultdict

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

    # The records are checked distinct edges with 0 <= u < v < n, the form
    # MatchingDecomposition.from_matchings produces, so the decomposition is
    # built directly.  A matching without records is the shared empty tuple:
    # a header's t costs one pointer per matching.
    matchings = tuple(tuple(sorted(records[i])) if i in records else () for i in range(t))
    return MatchingDecomposition(n, matchings, r)


def emit_rsg(dec: MatchingDecomposition) -> str:
    out = [f"rsg {dec.n} {dec.t} {dec.r}"]
    out.extend(f"{u} {v} {m}" for m, matching in enumerate(dec.matchings) for u, v in matching)
    return "\n".join(out) + "\n"
