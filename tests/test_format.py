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

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
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
