"""Command output, byte for byte, against files written by an earlier tree.

Each query case runs `kgfuse query` in process over bundled fixtures and
compares its stdout as a table and as CSV, and the `--explain` stderr, with
the files under `tests/golden/`.  Each command case runs `fuse`, `link`,
`align` or `lint` over bundled fixtures in an empty directory and compares
its exit code, its stdout (`golden/<case>/stdout`) and every file it writes
(`golden/<case>/<file>`).  Each usage case runs `kgfuse` with help or
usage-error arguments at a terminal width of 80 columns and compares its
exit code, stdout and stderr with `golden/usage/<case>.stdout` and
`.stderr`; argparse writes that text, so another Python version may word
it differently.  A change that alters output on purpose rewrites them with
`PYTHONPATH=src python tests/test_golden.py`, and its diff shows which
bytes moved.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from kgfuse import cli, fixtures
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, PCP_NS

GOLDEN = Path(__file__).parent / "golden"

# case -> (query file, graph fixtures queried as a union)
CASES = {
    "qualification_by_faculty_year": (
        fixtures.fixture_path("qualification_by_faculty_year.rq"),
        ["documents.ttl"],
    ),
    "dates_desc": (GOLDEN / "dates_desc.rq", ["documents.ttl"]),
    "faculty_desc_professor_asc": (GOLDEN / "faculty_desc_professor_asc.rq", ["documents.ttl"]),
    "count_by_unprojected_key": (GOLDEN / "count_by_unprojected_key.rq", ["documents.ttl"]),
    "count_no_matches": (GOLDEN / "count_no_matches.rq", ["documents.ttl"]),
    "labels_limit": (
        GOLDEN / "labels_limit.rq",
        ["documents.ttl", "leipzig_persons.ttl", "helmstedt_persons.ttl"],
    ),
}

# form -> extra `kgfuse query` arguments; `explain` keeps the stderr
FORMS = {"table": [], "csv": ["--format", "csv"], "explain": ["--explain"]}


def _fixture(name: str) -> str:
    return str(fixtures.fixture_path(name))


_LEFT, _RIGHT = _fixture("leipzig_persons.ttl"), _fixture("helmstedt_persons.ttl")
_PERSONS = ["--left", _LEFT, "--right", _RIGHT]

# command case -> (argv, exit code, the files it writes in the working directory)
COMMANDS = {
    "fuse": (["fuse", *_PERSONS, "--left-ns", LEIPZIG_NS, "--right-ns", HELMSTEDT_NS,
              "--target-ns", PCP_NS, "--mapping", _fixture("renames.tsv"), "--out", "fused.nt"],
             0, ["fused.nt"]),
    "link": (["link", "--config", _fixture("link_person_names.cfg"), *_PERSONS,
              "--out", "report.csv", "--sameas", "links.nt"], 0, ["report.csv", "links.nt"]),
    "align": (["align", "--graphs", f"{_LEFT},{_RIGHT}", "--out", "align.csv"],
              0, ["align.csv"]),
    "lint": (["lint", "--graph", _fixture("quality.ttl"), "--out", "lint.csv", "--strict"],
             1, ["lint.csv"]),
}

# usage case -> (argv, exit code); argparse wraps help text to the terminal width
USAGE = {
    "help": (["--help"], 0),
    **{f"{name}-help": ([name, "--help"], 0) for name in (
        "query", "link", "fuse", "align", "lint", "enrich", "log", "diff", "checkout")},
    "no-arguments": ([], 2),
    "unknown-command": (["chekout"], 2),
    "help-before-command": (["-h", "checkout"], 0),
    "unrecognized-argument": (["log", "--store", "s", "extra"], 2),
    "missing-options": (["checkout"], 2),
    "bad-choice": (["query", "--graphs", "g.ttl", "--query", "q.rq", "--format", "xml"], 2),
}
USAGE_COLUMNS = "80"


def query_argv(case: str, form: str) -> list[str]:
    query, graphs = CASES[case]
    return [
        "query",
        "--graphs",
        ",".join(str(fixtures.fixture_path(g)) for g in graphs),
        "--query",
        str(query),
        *FORMS[form],
    ]


def _output(case: str, form: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(query_argv(case, form))
    assert code == 0, err.getvalue()
    return (err if form == "explain" else out).getvalue().encode("utf-8")


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", CASES)
def test_query_output_matches_its_golden_file(case, form):
    assert _output(case, form) == (GOLDEN / f"{case}.{form}").read_bytes()


def _command_output(case: str) -> dict[str, bytes]:
    """stdout and each written file of a command case, run in the current
    directory; its exit code is checked here."""
    argv, code, written = COMMANDS[case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.run(argv) == code, err.getvalue()
    assert err.getvalue() == ""
    return {"stdout": out.getvalue().encode("utf-8")} | {
        name: Path(name).read_bytes() for name in written
    }


@pytest.mark.parametrize("case", COMMANDS)
def test_command_output_matches_its_golden_files(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = _command_output(case)
    assert sorted(os.listdir(tmp_path)) == sorted(COMMANDS[case][2])
    for name, data in outputs.items():
        assert data == (GOLDEN / case / name).read_bytes(), name


def _usage_output(case: str) -> dict[str, bytes]:
    """stdout and stderr of a usage case; its exit code is checked here."""
    argv, code = USAGE[case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.run(argv) == code, err.getvalue()
    return {"stdout": out.getvalue().encode("utf-8"), "stderr": err.getvalue().encode("utf-8")}


@pytest.mark.parametrize("case", USAGE)
def test_usage_output_matches_its_golden_files(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", USAGE_COLUMNS)
    for stream, data in _usage_output(case).items():
        assert data == (GOLDEN / "usage" / f"{case}.{stream}").read_bytes(), stream


if __name__ == "__main__":
    for case in CASES:
        for form in FORMS:
            (GOLDEN / f"{case}.{form}").write_bytes(_output(case, form))
    home = os.getcwd()
    for case in COMMANDS:
        (GOLDEN / case).mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                outputs = _command_output(case)
            finally:
                os.chdir(home)
        for name, data in outputs.items():
            (GOLDEN / case / name).write_bytes(data)
    os.environ["COLUMNS"] = USAGE_COLUMNS
    (GOLDEN / "usage").mkdir(exist_ok=True)
    for case in USAGE:
        for stream, data in _usage_output(case).items():
            (GOLDEN / "usage" / f"{case}.{stream}").write_bytes(data)
