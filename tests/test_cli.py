"""CLI tests through main(): the checks a row of `contracts.py` cannot state, such as a library
output, a monkeypatched module, a drawn argv or file, or an empty stdout."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import contracts
from oracles import examples
from rsgraphs.cli import (
    EX_FAIL,
    EX_INDETERMINATE,
    EX_OK,
    EX_PARSE,
    EX_SOFTWARE,
    EX_USAGE,
    main,
)
from rsgraphs import constructions, search
from rsgraphs.constructions import (
    ap_free_set,
    cayley_rs,
    disjoint_union,
    double_cover,
    hypercube_rs,
    kneser_rs,
)
from rsgraphs.core import MatchingDecomposition
from rsgraphs.rsg_format import emit_rsg, parse_rsg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructVerify:
    def test_verify_never_builds_the_union_graph(self, tmp_path, capsys, monkeypatch):
        doc = tmp_path / "petersen.rsg"
        doc.write_text(emit_rsg(kneser_rs(2)))

        def unreachable(self):
            raise AssertionError("rsg verify built the union graph")
        monkeypatch.setattr(MatchingDecomposition, "graph", property(unreachable))
        code, stdout, err = run(capsys, "verify", str(doc))
        assert (code, err) == (EX_OK, "")
        assert stdout.startswith("n=10 t=5 r=3 edges=15\n")

    @pytest.mark.parametrize("r", [3, 4], ids=["pass", "fail"])
    def test_verify_output_shape(self, tmp_path, capsys, r):
        # the shape a first versioned JSON schema starts from; no pair statistic
        # is printed or keyed, since the verifier does not count one
        doc = tmp_path / "petersen.rsg"
        doc.write_text(emit_rsg(MatchingDecomposition.from_matchings(10, kneser_rs(2).matchings, r)))
        code, stdout, _ = run(capsys, "verify", "--json", str(doc))
        report = json.loads(stdout)
        assert (code, report["passed"]) == ((EX_OK, True) if r == 3 else (EX_FAIL, False))
        assert list(report) == ["passed", "violations", "stats", "notes"]
        assert list(report["stats"]) == ["degree_histogram", "max_edge_degree_sum", "isolated_vertices"]
        lines = run(capsys, "verify", str(doc))[1].splitlines()
        assert lines[:3] == [f"n=10 t=5 r={r} edges=15", "max edge degree sum: 6",
                             "verdict: pass" if r == 3 else "verdict: fail"]

    def test_over_size_budget_usage(self, tmp_path, capsys):
        base = tmp_path / "petersen.rsg"
        assert run(capsys, "construct", "kneser", "--k", "2", "-o", str(base))[0] == EX_OK
        code, out, err = run(capsys, "construct", "disjoint-union", "--input", str(base),
                             "--copies", "1000000000")
        assert code == EX_USAGE and out == ""
        assert err == ("error: 1000000000 disjoint copies: n + |E| would exceed"
                       " the size budget 2000000\n")

    def test_cayley_over_budget_before_the_difference_set(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("ap_free_set ran for a modulus over the size budget")
        monkeypatch.setattr(constructions, "ap_free_set", unreachable)
        code, out, err = run(capsys, "construct", "cayley-ap", "--modulus", "30000001")
        assert code == EX_USAGE and out == ""
        assert err == ("error: Cayley graph on Z_30000001: n + |E| would exceed"
                       " the size budget 2000000\n")

    def test_cayley_limit_above_a_third_before_the_difference_set(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("ap_free_set ran for a limit above (N-1)/3")
        monkeypatch.setattr(constructions, "ap_free_set", unreachable)
        code, out, err = run(capsys, "construct", "cayley-ap", "--modulus", "7",
                             "--limit", "1000000000")
        assert code == EX_USAGE and out == ""
        assert err == "error: --limit 1000000000 exceeds (N-1)/3 = 2\n"
        # a limit whose S would fit, but above (N-1)/3, is refused the same way
        assert run(capsys, "construct", "cayley-ap", "--modulus", "7", "--limit", "3")[0] == EX_USAGE

    @pytest.mark.parametrize("modulus", ["666666", "2", "0", "-7"])
    def test_cayley_modulus_checked_before_the_difference_set(self, capsys, monkeypatch, modulus):
        def unreachable(*args):
            raise AssertionError("ap_free_set ran for an even or non-positive modulus")
        monkeypatch.setattr(constructions, "ap_free_set", unreachable)
        code, out, err = run(capsys, "construct", "cayley-ap", "--modulus", modulus)
        assert code == EX_USAGE and out == ""
        assert err == f"error: modulus must be odd and >= 1, got {modulus}\n"

    @pytest.mark.parametrize("modulus", ["1", "3"])
    def test_cayley_modulus_below_five_is_refused_by_name(self, capsys, monkeypatch, modulus):
        # the default limit (N-1)/3 is 0 here, but the user gave no --limit to blame
        def unreachable(*args):
            raise AssertionError("ap_free_set ran for a modulus with no difference set")
        monkeypatch.setattr(constructions, "ap_free_set", unreachable)
        code, out, err = run(capsys, "construct", "cayley-ap", "--modulus", modulus)
        assert code == EX_USAGE and out == ""
        assert err.startswith(f"error: modulus {modulus} ") and "limit" not in err


# the flags each construct family reads; all but OPTIONAL_FLAGS are required
FAMILY_FLAGS = {
    "kneser": {"--k"},
    "hypercube": {"--k"},
    "hypercube-augmented": {"--k"},
    "disjoint-union": {"--input", "--copies"},
    "double-cover": {"--input"},
    "cayley-ap": {"--modulus", "--apset-method", "--limit"},
}
OPTIONAL_FLAGS = {"--apset-method", "--limit"}
ALL_FLAGS = sorted(set().union(*FAMILY_FLAGS.values()))
# passing flags for each family and their library call; {base} is petersen.rsg
FAMILY_CASES = {
    "kneser": (["--k", "2"], lambda base: kneser_rs(2)),
    "hypercube": (["--k", "3"], lambda base: hypercube_rs(3)),
    "hypercube-augmented": (["--k", "4"], lambda base: hypercube_rs(4, augmented=True)),
    "disjoint-union": (["--input", "{base}", "--copies", "3"],
                       lambda base: disjoint_union(base, 3)),
    "double-cover": (["--input", "{base}"], double_cover),
    "cayley-ap": (["--modulus", "41", "--limit", "13"],
                  lambda base: cayley_rs(41, ap_free_set("greedy-base3", 13))),
}


@pytest.fixture(scope="module")
def petersen(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar") / "petersen.rsg"
    path.write_text(emit_rsg(kneser_rs(2)))
    return path


def family_argv(family, petersen):
    return ["construct", family] + [a.format(base=petersen) for a in FAMILY_CASES[family][0]]


class TestConstructGrammar:
    @pytest.mark.parametrize("family", sorted(FAMILY_FLAGS))
    def test_each_family_emits_its_library_call(self, capsys, petersen, family):
        code, out, err = run(capsys, *family_argv(family, petersen))
        assert (code, err) == (EX_OK, "")
        assert out == emit_rsg(FAMILY_CASES[family][1](parse_rsg(petersen.read_text())))

    @pytest.mark.parametrize("family, flag", [
        (family, flag) for family in sorted(FAMILY_FLAGS)
        for flag in ALL_FLAGS if flag not in FAMILY_FLAGS[family]])
    def test_each_family_refuses_a_flag_it_does_not_read(self, capsys, petersen, family, flag):
        value = {"--input": str(petersen), "--apset-method": "behrend"}.get(flag, "2")
        code, out, err = run(capsys, *family_argv(family, petersen), flag, value)
        assert code == EX_USAGE and out == ""
        # under the family's own usage line, not the top-level one
        assert err.startswith(f"usage: rsg construct {family} [-h] [-o OUTPUT] ")
        assert err.endswith(f"\nrsg construct {family}: error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("argv", [["--k", "1", "kneser"],
                                      ["-o", "{out}", "kneser", "--k", "1"]])
    def test_a_flag_before_the_family_name_is_refused(self, tmp_path, capsys, argv):
        out_path = tmp_path / "x.rsg"
        code, out, _ = run(capsys, "construct", *[a.format(out=out_path) for a in argv])
        assert code == EX_USAGE and out == "" and not out_path.exists()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_drawn_argv_exits_by_the_grammar(self, petersen, data):
        # these ints keep every build tiny, or refused by the size budget before it allocates
        ints = st.sampled_from(["-1", "0", "1", "2", "3", "5", "41", str(10**9), str(2**63)])
        values = {"--input": st.just(str(petersen)),
                  "--apset-method": st.sampled_from(["greedy-base3", "behrend"]),
                  "-o": st.just(str(petersen.parent / "drawn.rsg"))}
        family = data.draw(st.sampled_from(sorted(FAMILY_FLAGS)))
        flags = data.draw(st.lists(st.sampled_from(ALL_FLAGS + ["-o"]), unique=True))
        argv = ["construct", family]
        for flag in flags:
            argv += [flag, data.draw(values.get(flag, ints))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EX_OK, EX_USAGE, EX_PARSE)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        foreign = set(flags) - FAMILY_FLAGS[family] - {"-o"}
        missing = FAMILY_FLAGS[family] - OPTIONAL_FLAGS - set(flags)
        if foreign or missing:
            assert code == EX_USAGE


class TestBound:
    def test_negative_r_usage(self, capsys):
        code, stdout, _ = run(capsys, "bound", "--n", "10", "--t", "5", "--r", "-1")
        assert code == EX_USAGE
        assert "feasible" not in stdout


class TestSearch:
    def test_indeterminate(self, capsys):
        code, stdout, _ = run(capsys, "search", "--n", "7", "--r", "2", "--t", "6",
                              "--no-eq1-shortcut", "--max-nodes", "40")
        assert code == EX_INDETERMINATE

    @pytest.mark.parametrize("flag, note", [("--max-nodes", "node budget exhausted (1 nodes)"),
                                            ("--timeout", "time budget exhausted (0 s, 1 nodes)")])
    def test_zero_budget(self, capsys, flag, note):
        code, stdout, _ = run(capsys, "search", "--n", "12", "--r", "3", "--t", "7", flag, "0")
        assert code == EX_INDETERMINATE
        assert "nodes=1 " in stdout and f"note: {note}\n" in stdout


# the contract table's small documents, the seeds of the mutated files below; the tall
# headers are left out, as their t costs time before any record is read (ROADMAP item 4)
SEED_DOCUMENTS = sorted({
    doc if isinstance(doc, bytes) else doc.encode()
    for row in contracts.ROWS if "tall" not in row.name
    for doc in (row.files or {}).values() if len(doc) < 300
})


@st.composite
def mutated_documents(draw):
    """A seed document after one to three line deletions, duplications or swaps,
    or replacements of one token by a drawn one of at most 6 characters."""
    lines = draw(st.sampled_from(SEED_DOCUMENTS)).rstrip(b"\n").split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
        if edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token":
            tokens = lines[i].split(b" ")
            token = draw(st.integers(-99999, 99999).map(str) | st.text(max_size=6))
            tokens[draw(st.integers(0, len(tokens) - 1))] = token.encode()
            lines[i] = b" ".join(tokens)
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "drawn.rsg"


class TestDrawnFiles:
    """Audit refuses exactly what verify fails, and neither crashes."""

    def check(self, path, data):
        path.write_bytes(data)
        codes = []
        for command in ("verify", "audit"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(main([command, str(path)]))
            assert "Traceback" not in out.getvalue() + err.getvalue()
        assert codes[0] in (EX_OK, EX_FAIL, EX_PARSE)
        assert codes[1] == codes[0]

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes(self, fuzz_path, data):
        self.check(fuzz_path, data)

    @settings(max_examples=120, deadline=None)
    @given(data=mutated_documents())
    def test_mutated_documents(self, fuzz_path, data):
        self.check(fuzz_path, data)


ARGV_EXAMPLES = examples(150)     # per argv draw

# a flag's value: a small or extreme int, or a float, NaN, inf or word spelling
EXTREMES = st.sampled_from([2 ** 31, 10 ** 12, 2 ** 63, 10 ** 40, -(10 ** 18)])
SPELLINGS = st.sampled_from(["nan", "inf", "-inf", "1.5", "1e9", "-0", "0x10", "", "x"])
VALUES = st.one_of(st.integers(-3, 12), EXTREMES, SPELLINGS).map(str)

# what `verify` and `audit` read: a pass, a fail, a tall header, a parse error, no file
DOCUMENTS = {"petersen.rsg": emit_rsg(kneser_rs(2)), "bad.rsg": "rsg 3 3 2\n0 1 0\n1 2 1\n0 2 2\n",
             "taller.rsg": "rsg 2 20000000 0\n", "dup.rsg": "rsg 3 3 1\n0 1 0\n0 1 1\n"}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    where = tmp_path_factory.mktemp("argv")
    for name, text in DOCUMENTS.items():
        (where / name).write_text(text)
    (where / "out").mkdir()      # construct's -o
    return where


def sizes(top):
    """A flag's value, an int from -3 to `top` two times in three, else an extreme or spelling."""
    small = st.integers(-3, top)
    return small.map(str) | st.one_of(small, EXTREMES, SPELLINGS).map(str)


# what a draw gives each construct flag: --k is at most 6 apart from the extremes, which the
# size budget refuses before building
CONSTRUCT_VALUES = {"--k": sizes(6), "--copies": sizes(12), "--modulus": sizes(12),
                    "--limit": sizes(12),
                    "--apset-method": st.sampled_from(["greedy-base3", "behrend", "x"]),
                    "--input": st.sampled_from(sorted(DOCUMENTS) + ["absent.rsg"])}


class TestDrawnArgv:
    """Every subcommand on drawn argv: a verdict or a usage or parse error, never a traceback
    or an internal error."""

    @staticmethod
    def flags(data, names):
        """Each of `names`, or not, with a drawn value."""
        argv = []
        for name in names:
            if data.draw(st.booleans()):
                argv += [name, data.draw(VALUES)]
        return argv

    @settings(max_examples=ARGV_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_exit_is_a_verdict_or_a_refusal(self, documents, data):
        command = data.draw(st.sampled_from(["verify", "bound", "search", "audit"]))
        as_json = ["--json"] * data.draw(st.booleans())
        if command in ("verify", "audit"):
            name = data.draw(st.sampled_from(sorted(DOCUMENTS) + ["absent.rsg"]))
            argv = [command] + [str(documents / name)] * data.draw(st.booleans()) + as_json
        elif command == "bound":
            argv = ["bound"] + self.flags(data, ["--n", "--t", "--r"]) + as_json
        else:
            # the node budget is always small, so each drawn search stops within a few nodes
            argv = (["search"] + self.flags(data, ["--n", "--r", "--t", "--timeout"]) + as_json
                    + ["--max-nodes", str(data.draw(st.integers(-2, 30)))]
                    + ["--no-eq1-shortcut"] * data.draw(st.booleans()))
        self.check(argv)

    @settings(max_examples=ARGV_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_construct_exit_is_a_build_or_a_refusal(self, documents, data):
        # each of the family's own flags three times in four, and a flag of any family once in four
        family = data.draw(st.sampled_from(sorted(FAMILY_FLAGS)))
        names = [name for name in sorted(FAMILY_FLAGS[family]) if data.draw(st.integers(0, 3))]
        if not data.draw(st.integers(0, 3)):
            names.append(data.draw(st.sampled_from(ALL_FLAGS)))
        argv = ["construct", family, "-o", str(documents / "out" / "built.rsg")]
        for name in names:
            value = data.draw(CONSTRUCT_VALUES[name])
            argv += [name, str(documents / value) if name == "--input" else value]
        self.check(argv)

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EX_OK, EX_FAIL, EX_INDETERMINATE, EX_USAGE, EX_PARSE), (argv, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()


class TestUsage:
    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        # an exception no handler expects must not exit 1, which reads as UNSAT
        def boom(*args, **kwargs):
            raise RuntimeError("search state\ncorrupted")
        monkeypatch.setattr(search, "exists_rs", boom)
        code, stdout, err = run(capsys, "search", "--n", "6", "--r", "2", "--t", "3")
        assert code == EX_SOFTWARE == 70
        assert stdout == ""
        assert err == "internal error: RuntimeError: search state corrupted\n"
        assert "Traceback" not in err

    def test_an_exception_without_text_names_only_its_type(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(search, "exists_rs", out_of_memory)
        code, stdout, err = run(capsys, "search", "--n", "6", "--r", "2", "--t", "3")
        assert (code, stdout, err) == (EX_SOFTWARE, "", "internal error: MemoryError\n")
