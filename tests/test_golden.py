"""Query output, byte for byte, against files written by an earlier tree.

Each case runs `kgfuse query` in process over bundled fixtures and compares
its stdout as a table and as CSV, and the `--explain` stderr, with the files
under `tests/golden/`.  A change that alters query output on purpose
rewrites them with `PYTHONPATH=src python tests/test_golden.py`, and its
diff shows which bytes moved.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from kgfuse import cli, fixtures

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


def _output(case: str, form: str) -> bytes:
    query, graphs = CASES[case]
    argv = [
        "query",
        "--graphs",
        ",".join(str(fixtures.fixture_path(g)) for g in graphs),
        "--query",
        str(query),
        *FORMS[form],
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 0, err.getvalue()
    return (err if form == "explain" else out).getvalue().encode("utf-8")


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", CASES)
def test_query_output_matches_its_golden_file(case, form):
    assert _output(case, form) == (GOLDEN / f"{case}.{form}").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        for form in FORMS:
            (GOLDEN / f"{case}.{form}").write_bytes(_output(case, form))
