"""What a `kgfuse` process imports, and how its errors exit.

Each command runs in its own process, so `kgfuse.cli` imports only what
every command needs and each command imports the rest when it runs.  The
error classes declare their own exit codes, so `run` reports an error of a
module it has not imported with that error's code and one line.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from kgfuse import cli, fixtures
from kgfuse.enrich import EndpointConfigError, GndError, MissingRecordingError, RecordedTransport
from kgfuse.fusion import FusionError
from kgfuse.linkdisc import LinkConfigError
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, PCP_NS, PrefixFileError
from kgfuse.rdf import Graph, RdfError, Triple, TurtleSyntaxError, iri, literal
from kgfuse.sparql import SparqlError, UnsupportedFeatureError
from kgfuse.versioning import ChangeStore, EmptyDiffError, StoreError, UnknownCommitError

DEFERRED = {"kgfuse.enrich", "kgfuse.fusion", "kgfuse.linkdisc", "kgfuse.versioning"}

# Runs `cli.run(argv)` in a fresh interpreter, then prints its exit code and
# the kgfuse modules it loaded on the last line.
_PROBE = (
    "import sys\n"
    "from kgfuse import cli\n"
    "code = cli.run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('kgfuse.')))\n"
)
_GND_URL = "https://d-nb.info/gnd/118755951/about/lds"


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


@pytest.fixture
def workdir(tmp_path):
    for name in ("leipzig_persons.ttl", "helmstedt_persons.ttl", "documents.ttl", "quality.ttl",
                 "link_person_names.cfg", "qualification_by_faculty_year.rq"):
        shutil.copy(fixtures.fixture_path(name), tmp_path / name)
    RecordedTransport(tmp_path / "recorded").record(
        _GND_URL,
        body='<https://d-nb.info/gnd/118755951> <http://www.w3.org/2000/01/rdf-schema#label> "H" .\n',
    )
    (tmp_path / "gnds.txt").write_text("118755951\n")
    return tmp_path


def _fuse_argv(workdir, *extra):
    return ["fuse", "--left", str(workdir / "leipzig_persons.ttl"),
            "--right", str(workdir / "helmstedt_persons.ttl"), "--left-ns", LEIPZIG_NS,
            "--right-ns", HELMSTEDT_NS, "--target-ns", PCP_NS, *extra]


def _commands(workdir, first: str, second: str) -> dict[str, tuple[list[str], set[str]]]:
    """argv of each command, and the deferred modules a run of it loads."""
    store = str(workdir / "store")
    enrich = ["enrich", "--endpoint", "dnb", "--gnds", str(workdir / "gnds.txt"),
              "--fixtures", str(workdir / "recorded"), "--out", str(workdir / "dnb.nt")]
    return {
        "import only": ([], set()),
        "query": (["query", "--graphs", str(workdir / "documents.ttl"),
                   "--query", str(workdir / "qualification_by_faculty_year.rq")], set()),
        "link": (["link", "--config", str(workdir / "link_person_names.cfg"),
                  "--left", str(workdir / "leipzig_persons.ttl"),
                  "--right", str(workdir / "helmstedt_persons.ttl"),
                  "--out", str(workdir / "report.csv"), "--sameas", str(workdir / "links.nt")],
                 {"kgfuse.linkdisc"}),
        "checkout": (["checkout", "--store", store, second, "-o", str(workdir / "restored.nt")],
                     {"kgfuse.versioning"}),
        "log": (["log", "--store", store], {"kgfuse.versioning"}),
        "diff": (["diff", "--store", store, first, second], {"kgfuse.versioning"}),
        "fuse": (_fuse_argv(workdir, "--out", str(workdir / "fused.nt")), {"kgfuse.fusion"}),
        "fuse --store": (_fuse_argv(workdir, "--out", str(workdir / "fused2.nt"),
                                    "--store", str(workdir / "other")),
                         {"kgfuse.fusion", "kgfuse.versioning"}),
        "align": (["align", "--graphs", str(workdir / "documents.ttl")], {"kgfuse.fusion"}),
        "lint": (["lint", "--graph", str(workdir / "quality.ttl")], {"kgfuse.fusion"}),
        "enrich": (enrich, {"kgfuse.enrich"}),
    }


def _two_commits(path) -> tuple[str, str]:
    store = ChangeStore(path)
    ids = []
    for n in range(2):
        state = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:p:1"), literal(f"v{n}"))])
        ids.append(store.commit("urn:x:g", state, "t", f"step {n}", timestamp=n).id)
    return ids[0], ids[1]


def test_each_command_loads_only_the_modules_it_runs(workdir):
    commands = _commands(workdir, *_two_commits(workdir / "store"))

    def probe(argv):
        return subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=workdir, env=_env(),
                              capture_output=True, text=True, timeout=60)

    with ThreadPoolExecutor(max_workers=4) as pool:
        done = dict(zip(commands, pool.map(probe, [argv for argv, _ in commands.values()])))
    for name, (_, deferred) in commands.items():
        code, *modules = done[name].stdout.splitlines()[-1].split()
        assert code == "0", (name, done[name].stderr)
        assert set(modules) & DEFERRED == deferred, name


# Each error class `run` reports, some subclasses among them, with its exit
# code and line prefix.
_ERRORS = [
    (RdfError("bad data"), 1, "error"),
    (TurtleSyntaxError("expected '.'", 3, 7, "x"), 1, "error"),
    (SparqlError("bad query"), 1, "error"),
    (UnsupportedFeatureError("DISTINCT", 1, 8), 1, "error"),
    (FusionError("bad rename"), 1, "error"),
    (GndError("not a valid GND number: 'x'"), 1, "error"),
    (StoreError("cannot read HEAD"), 1, "error"),
    (EmptyDiffError(), 1, "error"),
    (UnknownCommitError("abcd"), 1, "error"),
    (cli.UsageError("--store is not a directory: x"), 2, "config error"),
    (LinkConfigError("no [link] section"), 2, "config error"),
    (EndpointConfigError("unknown endpoint"), 2, "config error"),
    (PrefixFileError("p.txt:1: expected 'prefix namespace'"), 2, "config error"),
    (MissingRecordingError("no recorded response for urn:x"), 2, "config error"),
]


@pytest.mark.parametrize("error, code, label", _ERRORS, ids=lambda v: type(v).__name__)
def test_each_error_class_exits_with_its_code_and_one_line(monkeypatch, capsys, error, code, label):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_log", fail)
    assert cli.run(["log", "--store", "unused"]) == code
    assert capsys.readouterr().err == f"{label}: {error}\n"


def test_an_error_kgfuse_does_not_report_still_raises(monkeypatch):
    def fail(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_log", fail)
    with pytest.raises(KeyError):
        cli.run(["log", "--store", "unused"])


def test_errors_of_modules_a_command_imports_exit_with_their_codes(workdir):
    # Under `python -m kgfuse.cli` the module runs as `__main__`.
    assert cli.run(_fuse_argv(workdir, "--out", str(workdir / "fused.nt"),
                              "--store", str(workdir / "store"))) == 0
    bad_cfg = workdir / "bad.cfg"
    bad_cfg.write_text("no section header\n")
    bad_gnds = workdir / "bad-gnds.txt"
    bad_gnds.write_text("118755951\nnot-a-gnd\n")
    other_gnds = workdir / "other-gnds.txt"
    other_gnds.write_text("4000001-1\n")
    enrich = ["enrich", "--endpoint", "dnb", "--fixtures", str(workdir / "recorded"),
              "--out", str(workdir / "dnb.nt"), "--gnds"]
    cases = {
        "LinkConfigError": (["link", "--config", str(bad_cfg), "--left",
                             str(workdir / "leipzig_persons.ttl"), "--right",
                             str(workdir / "helmstedt_persons.ttl"), "--out",
                             str(workdir / "r.csv")], 2, f"config error: {bad_cfg}: "),
        "MissingRecordingError": (enrich + [str(other_gnds)], 2,
                                  "config error: no recorded response for "),
        "GndError": (enrich + [str(bad_gnds)], 1,
                     f"error: {bad_gnds}:2: neither a GND number nor a DNB GND URL: 'not-a-gnd'"),
        "EmptyDiffError": (_fuse_argv(workdir, "--out", str(workdir / "again.nt"),
                                      "--store", str(workdir / "store")), 1,
                           "error: new state is identical to the current head; nothing to commit"),
    }

    def command(argv):
        return subprocess.run([sys.executable, "-m", "kgfuse.cli", *argv], cwd=workdir,
                              env=_env(), capture_output=True, text=True, timeout=60)

    with ThreadPoolExecutor(max_workers=4) as pool:
        done = dict(zip(cases, pool.map(command, [argv for argv, _, _ in cases.values()])))
    for name, (_, code, start) in cases.items():
        err = done[name].stderr
        assert (done[name].returncode, len(err.splitlines())) == (code, 1), (name, err)
        assert err.startswith(start), (name, err)
