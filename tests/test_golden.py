"""Command output, byte for byte, against files written by an earlier tree.

Each query case runs `kgfuse query` in process over bundled fixtures and
compares its stdout as a table and as CSV, and the `--explain` stderr, with
the files under `tests/golden/`.  Each command case runs `fuse`, `link`,
`align` or `lint` over bundled fixtures in an empty directory and compares
its exit code, its stdout (`golden/<case>/stdout`) and every file it writes
(`golden/<case>/<file>`).  Each store case writes its inputs in an empty
directory, runs a sequence of `fuse`, `enrich`, `log`, `diff` and
`checkout` steps there with the commit time pinned, and compares each
step's exit code, stdout and stderr (`golden/<case>/<step>.stdout` and
`.stderr`) and every file the steps write, the store's `HEAD` and commit
files included.  The generated case runs `fuse`, `link` and a `query` per
report over the catalogues under `golden/generated/input/`, which
`bench/gen.py` wrote once, and compares the same (`golden/generated/`).
Each usage case runs `kgfuse` with help or
usage-error arguments at a terminal width of 80 columns and compares its
exit code, stdout and stderr with `golden/usage/<case>.stdout` and
`.stderr`; argparse writes that text, and Python 3.13 words three of the
cases differently, so their files for it are under `golden/usage-3.13/`.
A change that alters output on purpose rewrites them with
`PYTHONPATH=src python tests/test_golden.py`, and its diff shows which
bytes moved.  `golden/csv-quoting.csv`, the CSV of a query over literals
that need quoting, is compared by `test_cli.py` and by CI's quick tour, and
is not rewritten here.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from kgfuse import cli, fixtures
from kgfuse.enrich import RecordedTransport
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
    "faculty_pairs": (GOLDEN / "faculty_pairs.rq", ["documents.ttl"]),
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


def _given_mapping() -> None:
    Path("given.tsv").write_text("forename\tgivenName\n", encoding="utf-8")


def _dnb_recording() -> None:
    recorded = RecordedTransport("recorded")
    recorded.record(
        "https://d-nb.info/gnd/118755951/about/lds",
        body="<https://d-nb.info/gnd/118755951> <http://www.w3.org/2000/01/rdf-schema#label> \"H\" .\n",
    )
    recorded.record("https://d-nb.info/gnd/11875595X/about/lds", status=404)
    Path("gnds.txt").write_text("118755951\n11875595X\n", encoding="utf-8")


_FUSE_INTO_STORE = ["fuse", *_PERSONS, "--left-ns", LEIPZIG_NS, "--right-ns", HELMSTEDT_NS,
                    "--target-ns", PCP_NS, "--store", "store", "--author", "you"]

# store case -> (writer of its inputs, steps in order: name -> (argv, exit
# code)); "{0}" and "{1}" in an argument are the ids of the store's first
# and second commit, "{0:.12}" the 12-digit prefix that `log` prints
STORES = {
    "store-fuse": (_given_mapping, {
        "fuse": ([*_FUSE_INTO_STORE, "--mapping", _fixture("renames.tsv"), "--out", "fused.nt",
                  "--message", "fuse catalogues"], 0),
        "fuse-given": ([*_FUSE_INTO_STORE, "--mapping", "given.tsv", "--out", "given.nt",
                        "--message", "rename forename"], 0),
        "log": (["log", "--store", "store"], 0),
        "diff": (["diff", "--store", "store", "{0}", "{1}"], 0),
        "checkout": (["checkout", "--store", "store", "{0:.12}", "-o", "restored.nt"], 0),
    }),
    "store-enrich": (_dnb_recording, {
        "enrich": (["enrich", "--endpoint", "dnb", "--gnds", "gnds.txt", "--fixtures", "recorded",
                    "--delay", "1", "--out", "dnb.nt", "--report", "dnb.csv", "--store", "store",
                    "--author", "you", "--message", "dnb extraction"], 0),
    }),
}
# the time every store case commits at, 2020-01-01T00:00:00Z
COMMIT_TIME = 1577836800

# Written once by `bench/gen.py`: `gen.catalogues(random.Random("30:golden"),
# 20, 20, 10)` as Turtle exports, `gen.RENAMES`, `gen.LINK_CONFIG` and the
# four `gen.REPORTS` queries.  Both exports hold `_:b0` and `_:b1`, so the
# fuse exercises the merge and the canonical relabeling.  They are files, so
# tier-1 does not import `bench/`.
GENERATED_INPUT = GOLDEN / "generated" / "input"
REPORTS = ("qualification_by_faculty_year", "persons_per_faculty", "births_per_year",
           "documents_per_praeses")


def _generated(name: str) -> str:
    return str(GENERATED_INPUT / name)


_GENERATED_PERSONS = ["--left", _generated("leipzig.ttl"), "--right", _generated("helmstedt.ttl")]

# steps of the generated case in order: name -> (argv, exit code)
GENERATED = {
    "fuse": (["fuse", *_GENERATED_PERSONS, "--left-ns", LEIPZIG_NS, "--right-ns", HELMSTEDT_NS,
              "--target-ns", PCP_NS, "--mapping", _generated("renames.tsv"), "--out", "fused.nt"],
             0),
    "link": (["link", "--config", _generated("link.cfg"), *_GENERATED_PERSONS,
              "--out", "report.csv", "--sameas", "links.nt"], 0),
    **{report: (["query", "--graphs", "fused.nt", "--query", _generated(f"{report}.rq"),
                 "--format", "csv", "--out", f"{report}.csv"], 0) for report in REPORTS},
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
# usage cases whose help argparse wraps differently from Python 3.13 on
USAGE_3_13 = {"fuse-help", "enrich-help", "checkout-help"}


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


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def _golden_outputs(case: str) -> dict[str, bytes]:
    """The golden files of a case, less the inputs kept under `input/`."""
    return {name: data for name, data in _files(GOLDEN / case).items()
            if not name.startswith("input/")}


def _store_output(case: str) -> dict[str, bytes]:
    write_inputs, steps = STORES[case]
    write_inputs()
    return _steps_output(steps)


def _steps_output(steps: dict[str, tuple[list[str], int]]) -> dict[str, bytes]:
    """stdout and stderr of each step, run in order in the current directory,
    and each file the steps write; exit codes are checked here."""
    inputs = set(_files(Path.cwd()))
    outputs, commits = {}, []
    with mock.patch("time.time", return_value=COMMIT_TIME):
        for step, (argv, code) in steps.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.run([arg.format(*commits) for arg in argv]) == code, err.getvalue()
            outputs[f"{step}.stdout"] = out.getvalue().encode("utf-8")
            outputs[f"{step}.stderr"] = err.getvalue().encode("utf-8")
            head = Path("store", "HEAD")
            if head.exists() and (commit := head.read_text(encoding="utf-8").strip()) not in commits:
                commits.append(commit)
    return outputs | {name: data for name, data in _files(Path.cwd()).items() if name not in inputs}


@pytest.mark.parametrize("case", STORES)
def test_store_output_matches_its_golden_files(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _store_output(case) == _golden_outputs(case)


def test_generated_output_matches_its_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _steps_output(GENERATED) == _golden_outputs("generated")


def _usage_golden(case: str, stream: str) -> Path:
    """The golden file of a usage case's stream for the running Python."""
    folder = "usage-3.13" if sys.version_info >= (3, 13) and case in USAGE_3_13 else "usage"
    return GOLDEN / folder / f"{case}.{stream}"


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
        assert data == _usage_golden(case, stream).read_bytes(), stream


if __name__ == "__main__":
    for case in CASES:
        for form in FORMS:
            (GOLDEN / f"{case}.{form}").write_bytes(_output(case, form))
    home = os.getcwd()
    for cases, output in ((COMMANDS, _command_output), (STORES, _store_output),
                          (["generated"], lambda case: _steps_output(GENERATED))):
        for case in cases:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    outputs = output(case)
                finally:
                    os.chdir(home)
            # commit ids name store files, so a case's old outputs go first; inputs stay
            for name in _golden_outputs(case):
                (GOLDEN / case / name).unlink()
            for name, data in outputs.items():
                (GOLDEN / case / name).parent.mkdir(parents=True, exist_ok=True)
                (GOLDEN / case / name).write_bytes(data)
    os.environ["COLUMNS"] = USAGE_COLUMNS
    for case in USAGE:
        for stream, data in _usage_output(case).items():
            _usage_golden(case, stream).parent.mkdir(exist_ok=True)
            _usage_golden(case, stream).write_bytes(data)
