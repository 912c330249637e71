"""Round-trip and error-reporting tests for the .rsg format."""

import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rsgraphs import (
    Graph,
    MatchingDecomposition,
    RsgParseError,
    double_cover,
    emit_rsg,
    hypercube_rs,
    kneser_rs,
    parse_rsg,
    verify_decomposition,
)

from oracles import examples, parse_rsg as field_by_field_parse_rsg

EXAMPLES = examples(300)     # per property test

# the line breaks of str.splitlines other than "\n", which split() reads as spaces
SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

TRIANGLE_DOC = "rsg 3 3 1\n0 1 0\n1 2 1\n0 2 2\n"


class TestParse:
    def test_triangle(self):
        dec = parse_rsg(TRIANGLE_DOC)
        assert dec.graph.n == 3 and dec.t == 3 and dec.r == 1
        assert verify_decomposition(dec).passed

    def test_parser_is_not_the_verifier(self):
        text = "rsg 3 3 2\n0 1 0\n1 2 1\n0 2 2\n"
        dec = parse_rsg(text)  # parses fine
        report = verify_decomposition(dec)
        assert any(v.invariant == "size-mismatch" for v in report.violations)

    def test_tall_header_costs_a_pointer_per_matching(self):
        # 200,000 matchings without records share one empty tuple
        tracemalloc.start()
        try:
            dec = parse_rsg("rsg 2 200000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert dec.matchings == ((),) * 200_000
        assert verify_decomposition(dec).passed

    def test_verifying_empty_matchings_costs_about_a_parse(self):
        # the verifier skips empty matchings when it maps vertices to
        # matchings and counts pairs, so verifying 10^6 of them costs about
        # what parsing the header does; the ratio is bounded, not the host's speed
        parse_s, verify_s = [], []
        for _ in range(2):
            start = time.perf_counter()
            dec = parse_rsg("rsg 8 1000000 0\n")
            parse_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            assert verify_decomposition(dec).passed
            verify_s.append(time.perf_counter() - start)
        assert min(verify_s) < 5 * min(parse_s)

    def test_duplicate_edge_line_number(self):
        text = "rsg 3 3 1\n0 1 0\n0 1 1\n"
        with pytest.raises(RsgParseError) as err:
            parse_rsg(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_only_a_newline_ends_a_line(self, sep):
        # str.splitlines ends a line at each of these; in a record they are spaces
        with pytest.raises(RsgParseError) as err:
            parse_rsg(f"rsg 4 1 1\n0 1 0{sep}\n2 3 0\n0 1 0\n")
        assert str(err.value) == "line 4: duplicate edge (0, 1), first seen on line 2"
        assert parse_rsg(f"rsg 4 1 2\n0 1{sep}0\n2 3 0{sep}").matchings == (((0, 1), (2, 3)),)

    def test_crlf_line_endings(self):
        assert parse_rsg(TRIANGLE_DOC.replace("\n", "\r\n")) == parse_rsg(TRIANGLE_DOC)
        with pytest.raises(RsgParseError) as err:
            parse_rsg("rsg 3 3 1\r\n0 1 0\r\n0 1 1\r\n")
        assert err.value.line == 3

    def test_malformed_header(self):
        with pytest.raises(RsgParseError):
            parse_rsg("graph 3 3 1\n")
        with pytest.raises(RsgParseError):
            parse_rsg("rsg 3 3\n")
        with pytest.raises(RsgParseError):
            parse_rsg("")

    def test_out_of_range_vertex(self):
        with pytest.raises(RsgParseError) as err:
            parse_rsg("rsg 3 1 1\n0 3 0\n")
        assert err.value.line == 2

    def test_out_of_range_matching_index(self):
        with pytest.raises(RsgParseError):
            parse_rsg("rsg 3 1 1\n0 1 5\n")

    def test_unordered_pair_rejected(self):
        with pytest.raises(RsgParseError):
            parse_rsg("rsg 3 1 1\n1 0 0\n")


class TestEmit:
    def test_triangle_exact_bytes(self):
        dec = parse_rsg(TRIANGLE_DOC)
        assert emit_rsg(dec) == TRIANGLE_DOC

    def test_kneser2_is_16_lines(self):
        text = emit_rsg(kneser_rs(2))
        assert text.endswith("\n")
        assert len(text.splitlines()) == 16
        assert text == emit_rsg(kneser_rs(2))  # stable across runs

    def test_empty_decomposition(self):
        dec = MatchingDecomposition.from_matchings(0, [], 0)
        assert emit_rsg(dec) == "rsg 0 0 0\n"


class TestRoundTrip:
    @pytest.mark.parametrize("dec", [
        kneser_rs(1), kneser_rs(2), kneser_rs(3),
        hypercube_rs(2), hypercube_rs(3), hypercube_rs(4, augmented=True),
        double_cover(kneser_rs(2)),
    ], ids=["kneser1", "kneser2", "kneser3", "q2", "q3", "q4aug", "petersen-cover"])
    def test_families(self, dec):
        text = emit_rsg(dec)
        again = parse_rsg(text)
        assert again == dec
        assert emit_rsg(again) == text

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_documents(self, data):
        # format-level identity holds for arbitrary labeled edge partitions,
        # verified or not: parsing never verifies
        n = data.draw(st.integers(1, 9))
        t = data.draw(st.integers(0, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                          if pairs else st.just([]))
        labels = [data.draw(st.integers(0, t - 1)) if t else None for _ in edges]
        if t == 0 and edges:
            return
        matchings = [[] for _ in range(t)]
        for e, m in zip(edges, labels):
            matchings[m].append(e)
        dec = MatchingDecomposition.from_matchings(n, matchings, data.draw(st.integers(0, 4)))
        text = emit_rsg(dec)
        assert parse_rsg(text) == dec
        assert emit_rsg(parse_rsg(text)) == text
        records = [tuple(map(int, line.split())) for line in text.splitlines()[1:]]
        assert records == sorted(records, key=lambda rec: (rec[2], rec[0], rec[1]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_records_in_any_order_parse_as_from_matchings_builds(self, data):
        # parse builds the decomposition from its checked records without
        # from_matchings; in any record order it must equal what from_matchings
        # builds, and its graph must be the records' edges
        n = data.draw(st.integers(2, 9))
        t = data.draw(st.integers(1, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        records = [(u, v, data.draw(st.integers(0, t - 1))) for u, v in edges]
        r = data.draw(st.integers(0, 4))
        text = f"rsg {n} {t} {r}\n" + "".join(f"{u} {v} {m}\n" for u, v, m in records)
        matchings = [[(u, v) for u, v, m in records if m == i] for i in range(t)]
        expected = MatchingDecomposition.from_matchings(n, matchings, r)
        assert parse_rsg(text) == expected
        assert parse_rsg(text).graph == Graph.from_edges(n, edges)


def corrupt(data, fault, records, n, t):
    """One record line with `fault`, drawn against the valid records before it."""
    u, v, m = records[-1] if records else (0, 1, 0)
    if fault == "token-count":
        tokens = data.draw(st.lists(st.integers(-2, n + 1).map(str), max_size=6).filter(lambda x: len(x) != 3))
        return data.draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)
    if fault == "non-integer":
        tokens = [str(u), str(v), str(m)]
        tokens[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(["x", "1.5", "0x1", "--1", "1e3"]))
        return " ".join(tokens)
    if fault in ("u>=v", "negative-u", "v>=n"):
        m = data.draw(st.sampled_from([m, t]))      # the vertex fault is named before a bad m
    if fault == "u>=v":
        u = data.draw(st.integers(0, n - 1))
        return f"{u} {data.draw(st.integers(0, u))} {m}"
    if fault == "negative-u":
        return f"{data.draw(st.integers(-5, -1))} {v} {m}"
    if fault == "v>=n":
        return f"{u} {data.draw(st.integers(n, n + 3))} {m}"
    if fault == "m-range":
        return f"{u} {v} {data.draw(st.sampled_from([-1, t, t + 7]))}"
    if fault == "duplicate":
        u, v, _ = data.draw(st.sampled_from(records)) if records else (u, v, m)
        return f"{u} {v} {data.draw(st.integers(0, t - 1))}"
    sep = data.draw(st.sampled_from(SEPARATORS))        # a record still valid, or a second copy
    return data.draw(st.sampled_from([f"{u}{sep}{v} {m}", f"{u} {v} {m}{sep}", f"{sep}{u} {v} {m}"]))


FAULTS = ("token-count", "non-integer", "u>=v", "negative-u", "v>=n", "m-range", "duplicate", "separator")


def outcome(parse, text):
    try:
        return parse(text)
    except RsgParseError as err:
        return err.line, str(err)


class TestAgainstTheFieldByFieldParser:
    """The one-loop parser reads only a failing line twice; its verdicts are the
    field-by-field parser's, decompositions, messages and line numbers alike."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_one_corrupted_line(self, data):
        n = data.draw(st.integers(2, 9))
        t = data.draw(st.integers(1, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        records = data.draw(st.permutations([(u, v, data.draw(st.integers(0, t - 1))) for u, v in edges]))
        lines = [f"{u} {v} {m}" for u, v, m in records]
        at = data.draw(st.integers(0, len(lines)))
        fault = data.draw(st.sampled_from(FAULTS))
        bad = corrupt(data, fault, records[:at], n, t)
        if at < len(lines) and data.draw(st.booleans()):
            lines[at] = bad
        else:
            lines.insert(at, bad)
        text = f"rsg {n} {t} {data.draw(st.integers(0, 4))}\n" + "".join(line + "\n" for line in lines)
        expected = outcome(field_by_field_parse_rsg, text)
        assert outcome(parse_rsg, text) == expected
        if fault not in ("separator", "duplicate"):
            assert isinstance(expected, tuple)
