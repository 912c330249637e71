"""The `rsg` contract table, run as child processes of `python -m rsgraphs.cli`, and its runner."""

import os
import sys
import warnings

import pytest

import contracts
from contracts import Row

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contracts")


# one test per row, in table order in one directory: a row may read what an earlier one wrote
@pytest.mark.parametrize("row", contracts.ROWS, ids=lambda row: row.name)
def test_row(row, workdir, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)      # the rows run in workdir
    failures, defects = contracts.run([row], [sys.executable, "-m", "rsgraphs.cli"], workdir)
    for line in defects:
        warnings.warn(line)
    assert not failures, failures[0]


# a stand-in for rsg: sleeps argv[1] seconds, allocates argv[2] MB, exits argv[3]
STAND_IN = [sys.executable, "-c", "import sys, time; time.sleep(float(sys.argv[1])); "
            "b = bytearray(int(sys.argv[2]) << 20); sys.exit(int(sys.argv[3]))"]


@pytest.mark.parametrize("row, report", [
    (Row("exits 1", "0 0 1", 2), (["exits 1: `0 0 1`: exit 1, expected 2"], [])),
    (Row("sleeps", "5 0 0", seconds=0.2), (["sleeps: `5 0 0`: ran over its 0.2 s bound"], [])),
    (Row("allocates", "0 200 0", max_mb=100),
     (["allocates: `0 200 0`: exit 1, expected 0 (MemoryError)"], [])),
    (Row("fits", "0 20 0", max_mb=100), ([], [])),
    (Row("silent", "0 0 0", out="verdict"), (["silent: `0 0 0`: stdout lacks 'verdict'"], [])),
    (Row("raises", "x 0 0", 1), (["raises: `x 0 0`: traceback on stderr"], [])),
    # an open defect row is reported and does not fail the run; a mended one fails until
    # the change that mends it drops the mark
    (Row("open", "0 0 1", defect=True), ([], ["defect open: `0 0 1`: exit 1, expected 0"])),
    (Row("mended", "0 0 0", defect=True),
     (["mended: `0 0 0`: keeps its contract, drop its defect mark"], [])),
], ids=lambda x: getattr(x, "name", None))
def test_the_runner_reports_a_row_by_name_and_argv(tmp_path, row, report):
    assert contracts.run([row], STAND_IN, tmp_path) == report
