"""End-to-end subcommand checks through run(argv)."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgfuse import fixtures, versioning
from kgfuse.cli import run
from kgfuse.enrich import RecordedTransport
from kgfuse.linkdisc import load_link_config
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, PCP_NS
from kgfuse.rdf import Graph, iri, parse_turtle
from kgfuse.versioning import ChangeStore


@pytest.fixture
def workdir(tmp_path):
    for name in (
        "leipzig_persons.ttl",
        "helmstedt_persons.ttl",
        "documents.ttl",
        "quality.ttl",
        "link_person_names.cfg",
        "renames.tsv",
        "qualification_by_faculty_year.rq",
    ):
        shutil.copy(fixtures.fixture_path(name), tmp_path / name)
    return tmp_path


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_0():
    assert run(["--help"]) == 0


@pytest.mark.parametrize(
    "command",
    ["query", "link", "fuse", "align", "lint", "enrich", "log", "diff", "checkout"],
)
def test_every_subcommand_has_help(command, capsys):
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert command in out or "usage" in out.lower()


def test_query_star_over_two_graphs(workdir, capsys):
    query = workdir / "star.rq"
    query.write_text("select * where {?s ?p ?o}")
    code = run(
        [
            "query",
            "--graphs",
            f"{workdir}/leipzig_persons.ttl,{workdir}/helmstedt_persons.ttl",
            "--query",
            str(query),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "?s" in out
    assert "heinrichmatthiasheinrichs" in out


def test_query_grouped_to_csv_file(workdir, capsys):
    out_file = workdir / "result.csv"
    code = run(
        [
            "query",
            "--graphs",
            str(workdir / "documents.ttl"),
            "--query",
            str(workdir / "qualification_by_faculty_year.rq"),
            "--format",
            "csv",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].strip() == "docN,faculty,year"
    assert len(lines) == 7
    assert lines[1].strip().startswith("1,")


def test_query_missing_graph_file_is_config_error(workdir, capsys):
    query = workdir / "star.rq"
    query.write_text("select * where {?s ?p ?o}")
    code = run(["query", "--graphs", str(workdir / "nope.ttl"), "--query", str(query)])
    assert code == 2


def test_query_bad_query_is_domain_error(workdir, capsys):
    query = workdir / "bad.rq"
    query.write_text("select * where {?s ?p ?o . OPTIONAL {?s ?q ?r}}")
    code = run(
        ["query", "--graphs", str(workdir / "documents.ttl"), "--query", str(query)]
    )
    assert code == 1
    assert "OPTIONAL" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_query_explain_prints_plan_and_leaves_output_unchanged(workdir, capsys, fmt):
    base = [
        "query",
        "--graphs",
        str(workdir / "documents.ttl"),
        "--query",
        str(workdir / "qualification_by_faculty_year.rq"),
        "--format",
        fmt,
    ]
    assert run(base) == 0
    plain = capsys.readouterr()
    assert run(base + ["--explain"]) == 0
    explained = capsys.readouterr()
    assert explained.out == plain.out
    assert plain.err == ""
    plan = explained.err.splitlines()
    assert len(plan) == 5
    assert all(line.startswith(f"plan {i}: ") for i, line in enumerate(plan, 1))
    assert all("estimate " in line and "solutions " in line for line in plan)

    assert run(base + ["--out", str(workdir / "plain.out")]) == 0
    assert run(base + ["--out", str(workdir / "explained.out"), "--explain"]) == 0
    assert (workdir / "plain.out").read_bytes() == (workdir / "explained.out").read_bytes()


def test_query_bad_unicode_escape_is_domain_error(workdir, capsys):
    graph = workdir / "bad.ttl"
    graph.write_text('<urn:s:1> <urn:p:1> "\\uZZZZ" .\n')
    query = workdir / "star.rq"
    query.write_text("select * where {?s ?p ?o}")
    assert run(["query", "--graphs", str(graph), "--query", str(query)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_malformed_prefix_file_is_config_error(workdir, capsys):
    prefixes = workdir / "bad.prefixes"
    prefixes.write_text("pcp: http://purl.org/pcp-on-web/ontology#\nlonely\n")
    query = workdir / "star.rq"
    query.write_text("select * where {?s ?p ?o}")
    code = run(
        ["query", "--graphs", str(workdir / "documents.ttl"), "--query", str(query),
         "--prefixes", str(prefixes)]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {prefixes}:2: expected 'prefix namespace', got 'lonely'\n"
    )
    code = run(
        ["link", "--config", str(workdir / "link_person_names.cfg"),
         "--left", str(workdir / "leipzig_persons.ttl"),
         "--right", str(workdir / "helmstedt_persons.ttl"),
         "--out", str(workdir / "report.csv"), "--prefixes", str(prefixes)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {prefixes}:2: ")


def test_link_writes_report_with_printed_score(workdir, capsys):
    report = workdir / "report.csv"
    code = run(
        [
            "link",
            "--config",
            str(workdir / "link_person_names.cfg"),
            "--left",
            str(workdir / "leipzig_persons.ttl"),
            "--right",
            str(workdir / "helmstedt_persons.ttl"),
            "--out",
            str(report),
            "--sameas",
            str(workdir / "links.nt"),
        ]
    )
    assert code == 0
    content = report.read_text()
    assert "0.8164965809277261" in content
    assert len(content.splitlines()) == 2
    links = (workdir / "links.nt").read_text()
    assert "sameAs" in links and "13084" in links


def test_fuse_shifts_and_commits(workdir, capsys):
    fused = workdir / "fused.nt"
    store = workdir / "store"
    code = run(
        [
            "fuse",
            "--left",
            str(workdir / "leipzig_persons.ttl"),
            "--right",
            str(workdir / "helmstedt_persons.ttl"),
            "--left-ns",
            LEIPZIG_NS,
            "--right-ns",
            HELMSTEDT_NS,
            "--target-ns",
            PCP_NS,
            "--mapping",
            str(workdir / "renames.tsv"),
            "--out",
            str(fused),
            "--store",
            str(store),
            "--author",
            "tester",
            "--message",
            "initial fuse",
        ]
    )
    assert code == 0
    g = parse_turtle(fused.read_text())
    predicates = {t.p.value for t in g.triples}
    assert PCP_NS + "surname" in predicates
    assert LEIPZIG_NS + "surname" not in predicates
    entries = ChangeStore(store).log()
    assert len(entries) == 1
    assert entries[0].commit.message == "initial fuse"
    out = capsys.readouterr().out
    assert "properties: joint" in out


def test_fuse_output_is_reproducible(workdir):
    args = [
        "fuse",
        "--left", str(workdir / "leipzig_persons.ttl"),
        "--right", str(workdir / "helmstedt_persons.ttl"),
        "--left-ns", LEIPZIG_NS,
        "--right-ns", HELMSTEDT_NS,
        "--target-ns", PCP_NS,
    ]
    first = workdir / "a.nt"
    second = workdir / "b.nt"
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_fuse_bytes_with_renames_are_pinned(workdir, capsys, monkeypatch):
    # The exact bytes of a fixed run: a change here is a change of kgfuse's output.
    monkeypatch.chdir(workdir)
    code = run(
        [
            "fuse",
            "--left", "leipzig_persons.ttl",
            "--right", "helmstedt_persons.ttl",
            "--left-ns", LEIPZIG_NS,
            "--right-ns", HELMSTEDT_NS,
            "--target-ns", PCP_NS,
            "--mapping", "renames.tsv",
            "--out", "fused.nt",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "fused 5 + 5 triples into 10 -> fused.nt\n"
        "properties: joint 5, disjoint 0/0, union 5/5\n"
        "classes: joint 1, disjoint 0/0, union 1/1\n"
    )
    assert (
        hashlib.sha256((workdir / "fused.nt").read_bytes()).hexdigest()
        == "ec6756fbe5f96be8bd7ae37918dcb575a1ce419012fb1edf72d63513328e6735"
    )


def test_fuse_never_probes_a_graph(workdir, monkeypatch):
    # no graph on the fuse path is queried, so none should build its indexes
    probes = []
    for method in ("match", "count"):
        original = getattr(Graph, method)
        monkeypatch.setattr(
            Graph, method,
            lambda g, *a, _m=method, _f=original, **k: probes.append(_m) or _f(g, *a, **k),
        )
    code = run(
        [
            "fuse",
            "--left", str(workdir / "leipzig_persons.ttl"),
            "--right", str(workdir / "helmstedt_persons.ttl"),
            "--left-ns", LEIPZIG_NS,
            "--right-ns", HELMSTEDT_NS,
            "--target-ns", PCP_NS,
            "--mapping", str(workdir / "renames.tsv"),
            "--out", str(workdir / "fused.nt"),
            "--store", str(workdir / "store"),
        ]
    )
    assert code == 0
    assert len(ChangeStore(workdir / "store").log()) == 1
    assert probes == []


def test_outputs_do_not_depend_on_the_hash_seed(workdir):
    # Index order is set iteration order, which the hash seed changes.
    commands = [
        ["fuse", "--left", "leipzig_persons.ttl", "--right", "helmstedt_persons.ttl",
         "--left-ns", LEIPZIG_NS, "--right-ns", HELMSTEDT_NS, "--target-ns", PCP_NS,
         "--mapping", "renames.tsv", "--out", "fused.nt"],
        ["query", "--graphs", "documents.ttl,fused.nt",
         "--query", "qualification_by_faculty_year.rq"],
        ["link", "--config", "link_person_names.cfg", "--left", "leipzig_persons.ttl",
         "--right", "helmstedt_persons.ttl", "--out", "report.csv", "--sameas", "links.nt"],
    ]
    outputs = []
    for seed in ("1", "2"):
        cwd = workdir / f"seed{seed}"
        shutil.copytree(workdir, cwd, ignore=shutil.ignore_patterns("seed*"))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        stdout = []
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "kgfuse.cli", *command],
                cwd=cwd, env=env, capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            stdout.append(done.stdout)
        files = {name: (cwd / name).read_bytes() for name in ("fused.nt", "report.csv", "links.nt")}
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1]
    assert b"sameAs" in outputs[0][1]["links.nt"]


def test_align_prints_overlap_for_two_graphs(workdir, capsys):
    code = run(
        [
            "align",
            "--graphs",
            f"{workdir}/leipzig_persons.ttl,{workdir}/helmstedt_persons.ttl",
            "--out",
            str(workdir / "stats.csv"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "leipzig_persons: 5 properties, 1 classes\n"
        "helmstedt_persons: 5 properties, 1 classes\n"
        "deduplicated union: 8 properties, 2 classes\n"
        "property overlap: joint 5, disjoint 0/0, union 5/5\n"
        "class overlap: joint 1, disjoint 0/0, union 1/1\n"
    )
    assert (workdir / "stats.csv").read_bytes() == (
        b"graph,properties,classes\n"
        b"leipzig_persons,5,1\n"
        b"helmstedt_persons,5,1\n"
        b"union,8,2\n"
        b"property-overlap,5,0,0\n"
        b"class-overlap,1,0,0\n"
    )


def test_align_keeps_one_row_per_file_when_stems_repeat(workdir, capsys):
    for folder, name in (("a", "leipzig_persons.ttl"), ("b", "helmstedt_persons.ttl")):
        (workdir / folder).mkdir()
        shutil.copy(workdir / name, workdir / folder / "x.ttl")
    code = run(["align", "--graphs", f"{workdir}/a/x.ttl,{workdir}/b/x.ttl"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "x: 5 properties, 1 classes",
        "x: 5 properties, 1 classes",
        "deduplicated union: 8 properties, 2 classes",
    ]


def test_lint_strict_exits_1_on_findings(workdir, capsys):
    code = run(
        [
            "lint",
            "--graph",
            str(workdir / "quality.ttl"),
            "--strict",
            "--out",
            str(workdir / "issues.csv"),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "naming-pattern" in out
    assert (workdir / "issues.csv").read_text().startswith("subject,kind,detail")


def test_lint_without_strict_exits_0(workdir):
    assert run(["lint", "--graph", str(workdir / "quality.ttl")]) == 0


@pytest.mark.parametrize(
    "languages, suggestion",
    [
        ("de", '"Matrikel"@de and "matriculation"'),
        ("", '"Matrikel" and "matriculation"'),
        ("de,en", '"Matrikel"@de and "matriculation"@en'),
    ],
)
def test_lint_tags_a_mixed_label_with_the_languages_given(workdir, capsys, languages, suggestion):
    args = ["lint", "--graph", str(workdir / "quality.ttl"), "--languages", languages]
    assert run(args) == 0
    mixed = [line for line in capsys.readouterr().out.splitlines() if "multilingual-label" in line]
    assert len(mixed) == 1 and mixed[0].endswith(f"(suggest: {suggestion})")
    assert run(args + ["--strict"]) == 1


def test_enrich_from_recorded_fixtures_and_versioning_flow(workdir, capsys):
    recorded = workdir / "recorded"
    transport = RecordedTransport(recorded)
    transport.record(
        "https://d-nb.info/gnd/118755951/about/lds",
        body='<https://d-nb.info/gnd/118755951> <http://www.w3.org/2000/01/rdf-schema#label> "Heinrichs" .\n',
    )
    transport.record(
        "https://d-nb.info/gnd/118535794/about/lds",
        body='<https://d-nb.info/gnd/118535794> <http://www.w3.org/2000/01/rdf-schema#label> "Matthias" .\n',
    )
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\nhttps://d-nb.info/gnd/118535794\n")
    out_graph = workdir / "dnb.nt"
    report = workdir / "dnb.csv"
    store = workdir / "store"
    code = run(
        [
            "enrich",
            "--endpoint", "dnb",
            "--gnds", str(gnds),
            "--fixtures", str(recorded),
            "--out", str(out_graph),
            "--report", str(report),
            "--delay", "1",
            "--timeout", "100",
            "--retries", "0",
            "--store", str(store),
            "--author", "tester",
            "--message", "dnb extraction",
        ]
    )
    assert code == 0
    g = parse_turtle(out_graph.read_text())
    assert len(g) == 2
    assert report.read_text().count("ok") == 2

    entries = ChangeStore(store).log()
    assert len(entries) == 1
    head = entries[0].commit.id

    capsys.readouterr()
    assert run(["log", "--store", str(store)]) == 0
    assert "dnb extraction" in capsys.readouterr().out

    checkout_file = workdir / "restored.nt"
    assert run(["checkout", "--store", str(store), head, "-o", str(checkout_file)]) == 0
    assert parse_turtle(checkout_file.read_text()) == g


def test_each_enrich_into_a_store_commits_its_batch_as_the_whole_state(workdir, capsys):
    recorded = workdir / "recorded"
    transport = RecordedTransport(recorded)
    store = workdir / "store"
    for gnd, label in (("118755951", "Heinrichs"), ("118535794", "Matthias")):
        url = f"https://d-nb.info/gnd/{gnd}"
        body = f'<{url}> <http://www.w3.org/2000/01/rdf-schema#label> "{label}" .\n'
        transport.record(f"{url}/about/lds", body=body)
        gnds = workdir / f"{gnd}.txt"
        gnds.write_text(f"{gnd}\n")
        argv = ["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures", str(recorded),
                "--out", str(workdir / f"{gnd}.nt"), "--delay", "1", "--store", str(store)]
        assert run(argv) == 0
    # the second batch replaced the first: its commit removes the first triple
    head = ChangeStore(store).log()[0].commit.id
    assert run(["checkout", "--store", str(store), head, "-o", str(workdir / "head.nt")]) == 0
    assert (workdir / "head.nt").read_bytes() == (workdir / "118535794.nt").read_bytes()
    change = ChangeStore(store).read_changeset(head)
    assert [line.split()[2] for line in change.removed] == ['"Heinrichs"']


def test_enrich_without_transport_choice_is_config_error(workdir, capsys):
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    code = run(
        [
            "enrich",
            "--endpoint", "dnb",
            "--gnds", str(gnds),
            "--out", str(workdir / "x.nt"),
        ]
    )
    assert code == 2
    assert "--fixtures" in capsys.readouterr().err


def test_diff_between_commits(workdir, capsys):
    store_dir = workdir / "store"
    store = ChangeStore(store_dir)
    g1 = parse_turtle('<urn:s:1> <urn:p:1> "a" .')
    g1.name = "urn:x-store:demo"
    g2 = parse_turtle('<urn:s:1> <urn:p:1> "a" . <urn:s:1> <urn:p:1> "b" .')
    c1 = store.commit("urn:x-store:demo", g1, "t", "one", timestamp=1)
    c2 = store.commit("urn:x-store:demo", g2, "t", "two", timestamp=2)
    assert run(["diff", "--store", str(store_dir), c1.id, c2.id]) == 0
    out = capsys.readouterr().out
    assert out.startswith("+ <urn:s:1>")
    assert '"b"' in out


def test_empty_commit_via_store_flag_is_domain_error(workdir, capsys):
    store = workdir / "store"
    args = [
        "fuse",
        "--left", str(workdir / "leipzig_persons.ttl"),
        "--right", str(workdir / "helmstedt_persons.ttl"),
        "--left-ns", LEIPZIG_NS,
        "--right-ns", HELMSTEDT_NS,
        "--target-ns", PCP_NS,
        "--out", str(workdir / "fused.nt"),
        "--store", str(store),
    ]
    assert run(args) == 0
    # same fuse again: identical graph, empty changeset
    assert run(args) == 1
    assert "nothing to commit" in capsys.readouterr().err


def test_log_on_missing_store_is_config_error(workdir):
    assert run(["log", "--store", str(workdir / "no-store")]) == 2


@pytest.mark.parametrize("command", [["log"], ["diff", "a", "b"], ["checkout", "a", "-o", "g.nt"]])
def test_store_commands_on_a_missing_store_create_no_directory(workdir, capsys, command):
    store = workdir / "no-store"
    assert run([command[0], "--store", str(store), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --store path does not exist: {store}\n"
    assert not store.exists()


@pytest.mark.parametrize("command", [["log"], ["diff", "a", "b"], ["checkout", "a", "-o"]])
def test_store_commands_on_an_existing_directory_write_nothing_into_it(workdir, command):
    store = workdir / "empty-store"
    store.mkdir()
    out = [str(workdir / "g.nt")] if command[-1] == "-o" else []
    assert run([command[0], "--store", str(store), *command[1:], *out]) in (0, 1)
    assert list(store.iterdir()) == []


def _fuse_argv(workdir, *extra):
    return ["fuse", "--left", str(workdir / "leipzig_persons.ttl"),
            "--right", str(workdir / "helmstedt_persons.ttl"), "--left-ns", LEIPZIG_NS,
            "--right-ns", HELMSTEDT_NS, "--target-ns", PCP_NS,
            "--out", str(workdir / "fused.nt"), *extra]


@pytest.mark.parametrize("command", ["log", "diff", "checkout", "fuse", "enrich"])
def test_a_store_that_is_not_a_directory_is_a_config_error_before_any_output(
    workdir, capsys, command
):
    store = workdir / "store-file"
    store.write_text("not a store\n")
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    out = workdir / "out.nt"
    argv = {
        "log": ["log"],
        "diff": ["diff", "a", "b"],
        "checkout": ["checkout", "a", "-o", str(out)],
        "fuse": _fuse_argv(workdir, "--out", str(out)),
        "enrich": ["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures", str(workdir),
                   "--out", str(out)],
    }[command]
    assert run(argv + ["--store", str(store)]) == 2
    assert capsys.readouterr().err == f"config error: --store is not a directory: {store}\n"
    assert not out.exists()
    assert store.read_text() == "not a store\n"


@pytest.mark.parametrize(
    "flag, value", [("--author", "x\udcff"), ("--message", "x\udcff"), ("--graph-name", "urn:x\udcff")]
)
def test_a_commit_field_that_is_not_utf8_is_a_one_line_error_before_any_write(
    workdir, capsys, flag, value
):
    # A command-line byte that is not UTF-8 reaches Python as a lone surrogate.
    store = workdir / "store"
    store.mkdir()
    assert run(_fuse_argv(workdir, "--store", str(store), flag, value)) == 1
    err = capsys.readouterr().err
    if flag == "--graph-name":
        # the graph-name rule of `rdf`, with or without a store
        start = "error: graph name must be an absolute IRI that N-Triples can write"
    else:
        start = f"error: commit {flag[2:]} is not UTF-8 text"
    assert err.startswith(start) and len(err.splitlines()) == 1
    assert list(store.iterdir()) == []


@pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize("name", ["urn:a b", "urn:a<b>", "fused"])
def test_a_graph_name_ntriples_cannot_write_is_one_error_with_or_without_a_store(
    workdir, capsys, name, with_store
):
    store = workdir / "store"
    extra = ["--store", str(store)] if with_store else []
    assert run(_fuse_argv(workdir, "--graph-name", name, *extra)) == 1
    assert capsys.readouterr().err == (
        f"error: graph name must be an absolute IRI that N-Triples can write: {name!r}\n"
    )
    assert not (workdir / "fused.nt").exists() and not store.exists()


@pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
def test_a_graph_name_with_a_lone_surrogate_exits_1_before_any_write(
    workdir, capsys, with_store
):
    # A command-line byte that is not UTF-8 reaches Python as a lone surrogate.
    name = "urn:x\udcff"
    store = workdir / "store"
    extra = ["--store", str(store)] if with_store else []
    assert run(_fuse_argv(workdir, "--graph-name", name, *extra)) == 1
    err = capsys.readouterr().err
    assert err == f"error: graph name must be an absolute IRI that N-Triples can write: {name!r}\n"
    assert not (workdir / "fused.nt").exists() and not store.exists()


def _two_commits(store_dir):
    store = ChangeStore(store_dir)
    g1 = parse_turtle('<urn:s:1> <urn:p:1> "a" . <urn:s:1> <urn:p:1> _:x .')
    g2 = parse_turtle('<urn:s:1> <urn:p:1> "b" . <urn:s:1> <urn:p:1> _:x .')
    c1 = store.commit("urn:x-store:demo", g1, "t", "one", timestamp=1)
    c2 = store.commit("urn:x-store:demo", g2, "t", "two", timestamp=2)
    return c1, c2


def test_checkout_and_diff_take_the_printed_short_id(workdir, capsys):
    store = workdir / "store"
    c1, c2 = _two_commits(store)
    out = workdir / "checkout.nt"
    outputs = []
    for a, b in ((c1.id, c2.id), (c1.short_id, c2.short_id), (c1.id[:4], c2.id[:7])):
        assert run(["checkout", "--store", str(store), b, "-o", str(out)]) == 0
        assert run(["diff", "--store", str(store), a, b]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert f"at {c2.short_id} to " in outputs[0][1].out
    with pytest.raises(versioning.UnknownCommitError):
        ChangeStore(store).read_changeset(c2.short_id).commit


@pytest.mark.parametrize("ref", ["abcd", "abcd0", "ffff", "xyz0", "abc"])
def test_an_ambiguous_or_unknown_short_id_is_a_one_line_error(workdir, capsys, ref):
    store = workdir / "store"
    _two_commits(store)
    for tail in ("0" * 60, "01" * 30):
        (store / "commits" / ("abcd" + tail)).mkdir()
    assert run(["checkout", "--store", str(store), ref, "-o", str(workdir / "g.nt")]) == 1
    err = capsys.readouterr().err
    reason = f"ambiguous commit id {ref}: 2 commits" if ref.startswith("abcd") else "unknown commit id"
    assert err.startswith(f"error: {reason}") and len(err.splitlines()) == 1
    assert not (workdir / "g.nt").exists()


@pytest.mark.parametrize("ref", ["", ".", "..", "../HEAD", "HEAD"])
def test_a_reference_that_is_not_an_id_is_an_unknown_commit(workdir, capsys, ref):
    # none of these may reach the filesystem: "" and "." name commits/
    # itself, and "../HEAD" a file outside it
    store = workdir / "store"
    _, c2 = _two_commits(store)
    out = workdir / "g.nt"
    for argv in (["checkout", "--store", str(store), ref, "-o", str(out)],
                 ["diff", "--store", str(store), ref, c2.id]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown commit id: {ref}\n"
    assert not out.exists()


def test_count_alias_that_is_already_in_scope_is_a_domain_error(workdir, capsys):
    graph = workdir / "g.nt"
    graph.write_text(
        '<urn:x:a> <urn:p:v> "1" .\n<urn:x:a> <urn:p:v> "2" .\n<urn:x:b> <urn:p:v> "3" .\n'
    )
    query = workdir / "q.rq"
    query.write_text("select ?s (count(?o) as ?s) where {?s ?p ?o} group by ?s order by desc(?s)")
    assert run(["query", "--graphs", str(graph), "--query", str(query)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count alias ?s is already in scope\n"


def test_link_names_every_missing_input_on_one_line(workdir, capsys):
    code = run(
        [
            "link",
            "--config", str(workdir / "missing.cfg"),
            "--left", str(workdir / "missing-left.ttl"),
            "--right", str(workdir / "helmstedt_persons.ttl"),
            "--out", str(workdir / "r.csv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "missing-left.ttl" in err and "missing.cfg" in err


def test_fuse_reports_all_missing_paths_at_once(workdir, capsys):
    code = run(
        [
            "fuse",
            "--left", str(workdir / "missing-left.ttl"),
            "--right", str(workdir / "missing-right.ttl"),
            "--left-ns", LEIPZIG_NS,
            "--right-ns", HELMSTEDT_NS,
            "--target-ns", PCP_NS,
            "--out", str(workdir / "fused.nt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "missing-left.ttl" in err and "missing-right.ttl" in err


def test_fuse_rejects_relative_namespace(workdir, capsys):
    code = run(
        [
            "fuse",
            "--left", str(workdir / "leipzig_persons.ttl"),
            "--right", str(workdir / "helmstedt_persons.ttl"),
            "--left-ns", "not-a-namespace",
            "--right-ns", HELMSTEDT_NS,
            "--target-ns", PCP_NS,
            "--out", str(workdir / "fused.nt"),
        ]
    )
    assert code == 2
    assert "absolute IRI" in capsys.readouterr().err


@pytest.mark.parametrize(
    "renames, target_ns, code, err",
    [
        (
            "surname\tsur name\n",
            PCP_NS,
            1,
            "error: IRI holds a character N-Triples cannot write: "
            "'http://purl.org/pcp-on-web/ontology#sur name'\n",
        ),
        (
            "",
            "http://purl.org/pcp on-web/ontology#",
            2,
            "config error: --target-ns is not an absolute IRI N-Triples can write: "
            "'http://purl.org/pcp on-web/ontology#'\n",
        ),
    ],
    ids=["rename", "namespace"],
)
def test_fuse_into_an_iri_ntriples_cannot_write_is_a_one_line_error_and_no_output(
    workdir, capsys, renames, target_ns, code, err
):
    # kgfuse could not read such an output back: `align` would fail on it
    mapping = workdir / "bad-renames.tsv"
    mapping.write_text(renames, encoding="utf-8")
    store = workdir / "store"
    argv = _fuse_argv(workdir, "--mapping", str(mapping), "--target-ns", target_ns, "--store", str(store))
    assert run(argv) == code
    assert capsys.readouterr().err == err
    assert not (workdir / "fused.nt").exists()
    assert not (store / "HEAD").exists()


def test_enrich_with_custom_template(workdir, capsys):
    template = workdir / "lookup.rq"
    template.write_text(
        "PREFIX wdt: <http://www.wikidata.org/prop/direct/>\n"
        'CONSTRUCT { ?s ?p ?o } WHERE { ?s wdt:P227 "{gnd}" . ?s ?p ?o }\n'
    )
    # record the exact request URL the endpoint will issue
    from kgfuse.enrich import GndId, builtin_endpoint, request_url
    from kgfuse.sparql import QueryTemplate

    endpoint = builtin_endpoint(
        "wikidata",
        lookup_template=QueryTemplate.from_text(template.read_text()),
        politeness_delay_ms=1,
        timeout_ms=100,
        max_retries=0,
    )
    url = request_url(endpoint, GndId("118755951"))
    recorded = workdir / "recorded"
    RecordedTransport(recorded).record(
        url, body='<urn:wd:Q1> <http://www.w3.org/2000/01/rdf-schema#label> "Heinrichs" .\n'
    )
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    code = run(
        [
            "enrich",
            "--endpoint", "wikidata",
            "--gnds", str(gnds),
            "--fixtures", str(recorded),
            "--template", str(template),
            "--delay", "1",
            "--timeout", "100",
            "--retries", "0",
            "--out", str(workdir / "wd.nt"),
        ]
    )
    assert code == 0
    assert "urn:wd:Q1" in (workdir / "wd.nt").read_text()


def test_enrich_base_url_moves_dnb_requests_to_the_mirror(workdir, capsys):
    recorded = workdir / "recorded"
    RecordedTransport(recorded).record(
        "https://mirror.example.org/gnd/118755951/about/lds",
        body='<urn:gnd:1> <http://www.w3.org/2000/01/rdf-schema#label> "Heinrichs" .\n',
    )
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    code = run(
        [
            "enrich",
            "--endpoint", "dnb",
            "--gnds", str(gnds),
            "--fixtures", str(recorded),
            "--base-url", "https://mirror.example.org/gnd",
            "--delay", "1",
            "--out", str(workdir / "dnb.nt"),
        ]
    )
    assert code == 0
    assert "(1/1 ok)" in capsys.readouterr().out
    assert "urn:gnd:1" in (workdir / "dnb.nt").read_text()


def test_enrich_dnb_with_a_template_is_config_error(workdir, capsys):
    template = workdir / "lookup.rq"
    template.write_text('select * where {?s ?p "{gnd}"}')
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    recorded = workdir / "recorded"
    recorded.mkdir()
    code = run(
        [
            "enrich",
            "--endpoint", "dnb",
            "--gnds", str(gnds),
            "--fixtures", str(recorded),
            "--template", str(template),
            "--out", str(workdir / "dnb.nt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "template" in err and len(err.splitlines()) == 1
    assert not (workdir / "dnb.nt").exists()


def test_enrich_template_without_placeholder_is_config_error(workdir, capsys):
    template = workdir / "bad.rq"
    template.write_text("select * where {?s ?p ?o}")
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    recorded = workdir / "recorded"
    recorded.mkdir()
    code = run(
        [
            "enrich",
            "--endpoint", "wikidata",
            "--gnds", str(gnds),
            "--fixtures", str(recorded),
            "--template", str(template),
            "--out", str(workdir / "wd.nt"),
        ]
    )
    assert code == 2
    assert "{gnd}" in capsys.readouterr().err


def _latin1(path, text):
    path.write_bytes(text.encode("latin-1"))
    return path


@pytest.mark.parametrize("bad", ["graph", "query"])
def test_non_utf8_graph_or_query_is_a_one_line_domain_error(workdir, capsys, bad):
    files = {"graph": workdir / "documents.ttl", "query": workdir / "star.rq"}
    files["query"].write_text("select * where {?s ?p ?o}")
    files["graph"] = _latin1(workdir / "latin1.ttl", '<urn:s:1> <urn:p:1> "Müller" .\n')
    if bad == "query":
        files["graph"] = workdir / "documents.ttl"
        files["query"] = _latin1(workdir / "latin1.rq", 'select * where {?s ?p "Müller"}')
    code = run(["query", "--graphs", str(files["graph"]), "--query", str(files["query"])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[bad]}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--prefixes", "--mapping", "--gnds", "--template", "--config"])
def test_non_utf8_config_file_is_a_one_line_config_error(workdir, capsys, flag):
    bad = _latin1(workdir / "latin1.txt", "Müller\tMüller\n")
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    left, right = str(workdir / "leipzig_persons.ttl"), str(workdir / "helmstedt_persons.ttl")
    argv = {
        "--prefixes": ["query", "--graphs", left, "--query",
                       str(workdir / "qualification_by_faculty_year.rq")],
        "--mapping": ["fuse", "--left", left, "--right", right, "--left-ns", LEIPZIG_NS,
                      "--right-ns", HELMSTEDT_NS, "--target-ns", PCP_NS,
                      "--out", str(workdir / "fused.nt")],
        "--gnds": ["enrich", "--endpoint", "dnb", "--fixtures", str(workdir),
                   "--out", str(workdir / "dnb.nt")],
        "--template": ["enrich", "--endpoint", "wikidata", "--gnds", str(gnds),
                       "--fixtures", str(workdir), "--out", str(workdir / "wd.nt")],
        "--config": ["link", "--left", left, "--right", right, "--out", str(workdir / "r.csv")],
    }[flag]
    assert run(argv + [flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flag",
    ["--graphs", "--query", "--prefixes", "--mapping", "--config", "--gnds", "--template",
     "--left", "--right"],
)
def test_directory_given_as_a_file_is_a_one_line_config_error(workdir, capsys, flag):
    folder = workdir / "folder"
    folder.mkdir()
    left, right = str(workdir / "leipzig_persons.ttl"), str(workdir / "helmstedt_persons.ttl")
    query = str(workdir / "qualification_by_faculty_year.rq")
    config = str(workdir / "link_person_names.cfg")
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    argv = {
        "--graphs": ["query", "--query", query],
        "--query": ["query", "--graphs", left],
        "--prefixes": ["query", "--graphs", left, "--query", query],
        "--mapping": ["fuse", "--left", left, "--right", right, "--left-ns", LEIPZIG_NS,
                      "--right-ns", HELMSTEDT_NS, "--target-ns", PCP_NS,
                      "--out", str(workdir / "fused.nt")],
        "--config": ["link", "--left", left, "--right", right, "--out", str(workdir / "r.csv")],
        "--gnds": ["enrich", "--endpoint", "dnb", "--fixtures", str(workdir),
                   "--out", str(workdir / "dnb.nt")],
        "--template": ["enrich", "--endpoint", "wikidata", "--gnds", str(gnds),
                       "--fixtures", str(workdir), "--out", str(workdir / "wd.nt")],
        "--left": ["link", "--config", config, "--right", right, "--out", str(workdir / "r.csv")],
        "--right": ["link", "--config", config, "--left", left, "--out", str(workdir / "r.csv")],
    }[flag]
    assert run(argv + [flag, str(folder)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {folder}: ") and len(err.splitlines()) == 1


def test_a_bad_gnd_line_names_its_file_and_line(workdir, capsys):
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\nnot-a-gnd\n")
    code = run(["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures", str(workdir),
                "--out", str(workdir / "dnb.nt")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {gnds}:2: neither a GND number nor a DNB GND URL: 'not-a-gnd'\n"
    )


def test_enrich_without_a_recording_is_a_one_line_config_error(workdir, capsys):
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    empty = workdir / "recordings"
    empty.mkdir()
    code = run(["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures", str(empty),
                "--out", str(workdir / "dnb.nt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: no recorded response for ") and len(err.splitlines()) == 1


_DIRECTORY = "<directory>"


def _enrich_from_one_recording(workdir, capsys, content):
    """Run `enrich` for one GND whose recording file is replaced by `content`:
    bytes, _DIRECTORY for a directory, or None for no file.  Returns the exit
    code, stderr and the recording's path."""
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    recordings = workdir / "recordings"
    RecordedTransport(recordings).record("https://d-nb.info/gnd/118755951/about/lds", body="")
    (path,) = recordings.iterdir()
    path.unlink()
    if content == _DIRECTORY:
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code = run(["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures",
                str(recordings), "--delay", "1", "--out", str(workdir / "dnb.nt")])
    return code, capsys.readouterr().err, path


@pytest.mark.parametrize("text", ["{not json", "[]", '{"0123456789abcdef": 5}', _DIRECTORY])
def test_malformed_recording_index_is_a_one_line_config_error(workdir, capsys, text):
    content = text if text == _DIRECTORY else text.encode()
    code, err, path = _enrich_from_one_recording(workdir, capsys, content)
    reason = os.strerror(errno.EISDIR) if text == _DIRECTORY else "not a recording: "
    assert code == 2
    assert err.startswith(f"config error: {path}: {reason}")
    assert len(err.splitlines()) == 1


# What the recording file can hold instead of a recording; each is a config
# error naming the file, except a missing file, which names the URL.
_BROKEN_RECORDINGS = {
    "missing-file": None,
    "no-body": b'{"status": 200}',
    "no-status": b'{"body": ""}',
    "text-status": b'{"body": "", "status": "ok"}',
    "unreadable": _DIRECTORY,
    "not-utf8": "Müller".encode("latin-1"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_RECORDINGS))
def test_broken_recording_is_a_one_line_config_error(workdir, capsys, case):
    content = _BROKEN_RECORDINGS[case]
    code, err, path = _enrich_from_one_recording(workdir, capsys, content)
    assert code == 2
    start = "no recorded response for " if content is None else f"{path}: "
    assert err.startswith(f"config error: {start}")
    assert len(err.splitlines()) == 1


def _broken_inputs(workdir):
    """name -> (argv, exit code, start of the one stderr line) for inputs that
    cannot be opened, decoded or used, each naming the file or field."""
    folder = workdir / "folder"
    folder.mkdir()
    left, right = str(workdir / "leipzig_persons.ttl"), str(workdir / "helmstedt_persons.ttl")
    config = str(workdir / "link_person_names.cfg")
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    recordings = workdir / "recordings"
    RecordedTransport(recordings).record("https://d-nb.info/gnd/118755951/about/lds")
    (recording,) = recordings.iterdir()
    recording.unlink()
    recording.mkdir()
    graph = parse_turtle("<urn:s:1> <urn:p:1> 1 .")
    for name in ("head-dir", "head-latin1", "commit-dir", "tracked"):
        commit = ChangeStore(workdir / name).commit("urn:x:g", graph, "t", "one", timestamp=1)
    head_dir, head_latin1 = workdir / "head-dir" / "HEAD", workdir / "head-latin1" / "HEAD"
    commit_dir = workdir / "commit-dir" / "commits" / commit.id
    for path in (head_dir, commit_dir):
        path.unlink()
        path.mkdir()
    _latin1(head_latin1, "Müller\n")
    store_file = workdir / "store-file"
    store_file.write_text("")
    link = ["link", "--left", left, "--right", right, "--config", config,
            "--out", str(workdir / "r.csv")]
    enrich = ["enrich", "--endpoint", "wikidata", "--gnds", str(gnds), "--fixtures",
              str(workdir), "--out", str(workdir / "wd.nt")]
    dir_error = f"config error: {folder}: "
    commit_to = _fuse_argv(workdir, "--store", str(workdir / "new-store"))
    return {
        "--config dir": (link + ["--config", str(folder)], 2, dir_error),
        "--left dir": (link + ["--left", str(folder)], 2, dir_error),
        "--right dir": (link + ["--right", str(folder)], 2, dir_error),
        "--gnds dir": (enrich + ["--gnds", str(folder)], 2, dir_error),
        "--template dir": (enrich + ["--template", str(folder)], 2, dir_error),
        "recording dir": (["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures",
                           str(recordings), "--out", str(workdir / "dnb.nt")], 2,
                          f"config error: {recording}: "),
        "HEAD dir": (["log", "--store", str(head_dir.parent)], 1,
                     f"error: cannot read HEAD: {head_dir}: "),
        "fuse HEAD dir": (_fuse_argv(workdir, "--store", str(head_dir.parent),
                                     "--out", str(workdir / "head-dir.nt")), 1,
                          f"error: cannot read HEAD: {head_dir}: "),
        "HEAD latin-1": (["log", "--store", str(head_latin1.parent)], 1,
                         f"error: cannot read HEAD: {head_latin1}: "),
        "commit dir": (["checkout", "--store", str(commit_dir.parents[1]), commit.id, "-o",
                        str(workdir / "g.nt")], 1,
                       f"error: commit {commit.short_id}: {commit_dir} is a directory: "
                       "the store has the old layout"),
        "log --store file": (["log", "--store", str(store_file)], 2,
                             f"config error: --store is not a directory: {store_file}"),
        "fuse --store file": (_fuse_argv(workdir, "--store", str(store_file)), 2,
                              f"config error: --store is not a directory: {store_file}"),
        "enrich --fixtures file": (enrich + ["--fixtures", str(store_file)], 2,
                                   f"config error: --fixtures is not a directory: {store_file}"),
        "--author": (commit_to + ["--author", "x\udcff"], 1, "error: commit author is not UTF-8"),
        "--message": (commit_to + ["--message", "x\udcff"], 1,
                      "error: commit message is not UTF-8"),
        "--graph-name": (commit_to + ["--graph-name", "urn:x\udcff"], 1,
                         "error: graph name must be an absolute IRI that N-Triples can write"),
        "--author into a store": (_fuse_argv(workdir, "--store", str(workdir / "tracked"),
                                             "--out", str(workdir / "author.nt"),
                                             "--author", "x\udcff"), 1,
                                  "error: commit author is not UTF-8"),
        "--graph-name of another graph": (_fuse_argv(workdir, "--store", str(workdir / "tracked"),
                                                     "--out", str(workdir / "other-graph.nt"),
                                                     "--graph-name", "urn:other"), 1,
                                          "error: store tracks graph 'urn:x:g', got 'urn:other'"),
    }


def test_broken_inputs_exit_with_one_line_and_no_traceback_from_the_command(workdir):
    # A subprocess sees what escapes main(); a surrogate in argv reaches it
    # as the byte that is not UTF-8.
    cases = _broken_inputs(workdir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def command(argv):
        return subprocess.run([sys.executable, "-m", "kgfuse.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, timeout=60)

    with ThreadPoolExecutor(max_workers=4) as pool:
        done = dict(zip(cases, pool.map(command, [argv for argv, _, _ in cases.values()])))
    for name, (_, code, start) in cases.items():
        err = done[name].stderr.decode("utf-8", "backslashreplace")
        assert (done[name].returncode, len(err.splitlines())) == (code, 1), (name, err)
        assert err.startswith(start) and "Traceback" not in err, (name, err)
    # a damaged store, or a commit field it refuses, fails before fuse writes its output
    for out in ("head-dir.nt", "author.nt", "other-graph.nt"):
        assert not (workdir / out).exists(), out


def test_malformed_link_config_is_a_one_line_config_error(workdir, capsys):
    config = workdir / "bad.cfg"
    config.write_text("no section header\n")
    code = run(
        ["link", "--config", str(config), "--left", str(workdir / "leipzig_persons.ttl"),
         "--right", str(workdir / "helmstedt_persons.ttl"), "--out", str(workdir / "r.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--out", "--sameas", "--report"])
def test_output_into_a_missing_directory_is_a_config_error(workdir, capsys, flag):
    target = workdir / "missing-dir" / "out.txt"
    left, right = str(workdir / "leipzig_persons.ttl"), str(workdir / "helmstedt_persons.ttl")
    recorded = workdir / "recorded"
    RecordedTransport(recorded).record(
        "https://d-nb.info/gnd/118755951/about/lds",
        body='<https://d-nb.info/gnd/118755951> <http://www.w3.org/2000/01/rdf-schema#label> "H" .\n',
    )
    gnds = workdir / "gnds.txt"
    gnds.write_text("118755951\n")
    argv = {
        "--out": ["query", "--graphs", str(workdir / "documents.ttl"), "--query",
                  str(workdir / "qualification_by_faculty_year.rq")],
        "--sameas": ["link", "--config", str(workdir / "link_person_names.cfg"), "--left", left,
                     "--right", right, "--out", str(workdir / "r.csv")],
        "--report": ["enrich", "--endpoint", "dnb", "--gnds", str(gnds), "--fixtures",
                     str(recorded), "--delay", "1", "--out", str(workdir / "dnb.nt")],
    }[flag]
    assert run(argv + [flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


# Fragments of both grammars, so that generated files reach the parsers'
# error paths; a file starts with a head that parses on its own.
_HEADS = [
    "",
    '@prefix ex: <urn:x:> .\nex:s ex:p "o", 1 ; a ex:C .\n<urn:x:t> ex:p ex:s .\n',
    "prefix ex: <urn:x:>\nselect * where {?s ?p ?o}\n",
    "select ?p (count(?o) as ?n) where {?s ?p ?o} group by ?p order by desc(?n)\n",
]
_SOUP = [
    "@base <urn:b:> .", '<urn:x:s> <urn:x:p> "o" .', "ex:s ex:p ex:o .", "?s ?p ?o .",
    "}", "<urn:x:s>", "<rel>", "_:b", "?x", "?y", '"v"', '"\\u12"', '"a\\tb"', "@en", "^^",
    "ex:", "ex:a", ":z", "1", "-2.5", "a", "A", "true", "FALSE", "@prefix", "@base",
    "select", "SELECT", "where", "*", "{", "}", "(", ")", ".", ";", ",", "count", "as",
    "bind", "year", "group", "by", "order", "asc", "desc", "limit", "filter",
    "# note", "$", ">", "é", "Müller",
]
_SOUP_TEXT = st.tuples(
    st.sampled_from(_HEADS),
    st.just([])
    | st.lists(st.tuples(st.sampled_from(_SOUP), st.sampled_from(["", " ", "\n"])), max_size=20),
).map(lambda head_parts: head_parts[0] + "".join(tok + sep for tok, sep in head_parts[1]))
_FILE_BYTES = st.one_of(
    st.binary(max_size=100),
    st.tuples(_SOUP_TEXT, st.sampled_from(["utf-8", "latin-1"])).map(
        lambda text_enc: text_enc[0].encode(text_enc[1])
    ),
)


@settings(max_examples=100, deadline=None)
@given(graph=_FILE_BYTES, query=_FILE_BYTES)
def test_query_on_arbitrary_files_exits_cleanly(graph, query):
    with tempfile.TemporaryDirectory() as d:
        graph_path, query_path = Path(d, "g.ttl"), Path(d, "q.rq")
        graph_path.write_bytes(graph)
        query_path.write_bytes(query)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["query", "--graphs", str(graph_path), "--query", str(query_path)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


def test_query_over_two_files_keeps_their_blank_nodes_apart(tmp_path, capsys):
    a, b = tmp_path / "a.ttl", tmp_path / "b.ttl"
    a.write_text('_:x <urn:p:name> "A" ; <urn:p:born> "1600" .\n')
    b.write_text('_:x <urn:p:name> "B" ; <urn:p:born> "1700" .\n')
    query = tmp_path / "q.rq"
    query.write_text("select ?name ?born where {?x <urn:p:name> ?name . ?x <urn:p:born> ?born}")
    code = run(["query", "--graphs", f"{a},{b}", "--query", str(query), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["name,born", "A,1600", "B,1700"]


def test_fuse_keeps_blank_nodes_of_the_two_catalogues_apart(tmp_path, capsys):
    left, right = tmp_path / "left.ttl", tmp_path / "right.ttl"
    left.write_text(f'_:b0 a <{LEIPZIG_NS}Person> ; <{LEIPZIG_NS}surname> "Heinrichs" .\n')
    right.write_text(f'_:b0 a <{HELMSTEDT_NS}Person> ; <{HELMSTEDT_NS}surname> "Matthias" .\n')
    fused = tmp_path / "fused.nt"
    code = run(
        ["fuse", "--left", str(left), "--right", str(right), "--left-ns", LEIPZIG_NS,
         "--right-ns", HELMSTEDT_NS, "--target-ns", PCP_NS, "--out", str(fused)]
    )
    assert code == 0
    assert "fused 2 + 2 triples into 4" in capsys.readouterr().out
    g = parse_turtle(fused.read_text())
    assert len(g) == 4 and len({t.s for t in g.match(None, iri(PCP_NS + "surname"))}) == 2


def test_percent_encoded_iri_in_link_config_is_taken_literally(workdir, capsys):
    gruender = "http://example.org/catalogus/helmstedt/Gr%C3%BCnder"
    plain = (workdir / "link_person_names.cfg").read_text()
    config = workdir / "percent.cfg"
    config.write_text(plain.replace("http://example.org/catalogus/helmstedt/Person", gruender))
    code = run(
        ["link", "--config", str(config), "--left", str(workdir / "leipzig_persons.ttl"),
         "--right", str(workdir / "helmstedt_persons.ttl"), "--out", str(workdir / "r.csv")]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert load_link_config(config).target_class == gruender


# Lines and fragments of the prefix, rename, GND-list and link-config formats.
_CONFIG_SOUP = [
    "[classes]", "[properties]", "[thresholds]", "[options]", "[", "]", "=", ":", "%",
    "source = http://example.org/catalogus/leipzig/Person",
    "target = http://example.org/catalogus/helmstedt/Gr%C3%BCnder",
    "source = rdfs:label", "target = rdfs:label, urn:b:surname", "source = x:y",
    "mode = paired", "mode = cross", "mode = other", "accept = 0.8", "review = 0.5",
    "review = -1", "accept = x", "blocking = true", "%(source)s", "%%", "key",
    "ex <urn:x:>", "pcp: <http://example.org/pcp/>", "rdfs http://www.w3.org/2000/01/rdf-schema#",
    "surname_lat\tlatinSurname", "old\t", "\tnew", "a\tb\tc", "118755951",
    "https://d-nb.info/gnd/118755951", "11875595X", "gnd:118755951", "--", "# note", "é",
]
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=100),
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(_CONFIG_SOUP), st.sampled_from(["", " ", "\n", "\t"])),
            max_size=20,
        ),
        st.sampled_from(["utf-8", "latin-1"]),
    ).map(lambda parts_enc: "".join(a + b for a, b in parts_enc[0]).encode(parts_enc[1])),
)
_FIXTURE = fixtures.fixture_path
_CONFIG_ARGV = {
    "--prefixes": lambda d: ["query", "--graphs", str(_FIXTURE("documents.ttl")),
                             "--query", str(_FIXTURE("qualification_by_faculty_year.rq"))],
    "--mapping": lambda d: ["fuse", "--left", str(_FIXTURE("leipzig_persons.ttl")),
                            "--right", str(_FIXTURE("helmstedt_persons.ttl")),
                            "--left-ns", LEIPZIG_NS, "--right-ns", HELMSTEDT_NS,
                            "--target-ns", PCP_NS, "--out", str(Path(d, "fused.nt"))],
    "--gnds": lambda d: ["enrich", "--endpoint", "dnb", "--fixtures", d,
                         "--out", str(Path(d, "dnb.nt"))],
    "--config": lambda d: ["link", "--left", str(_FIXTURE("leipzig_persons.ttl")),
                           "--right", str(_FIXTURE("helmstedt_persons.ttl")),
                           "--out", str(Path(d, "r.csv"))],
}


@pytest.mark.parametrize("flag", sorted(_CONFIG_ARGV))
@settings(max_examples=50, deadline=None)
@given(content=_CONFIG_BYTES)
@example(content=b"[classes]\nsource = urn:a:Person\ntarget = urn:b:Gr%C3%BCnder\n")
def test_config_files_of_any_content_exit_cleanly(flag, content):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "config")
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(_CONFIG_ARGV[flag](d) + [flag, str(path)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


# Query fragments plus the {gnd} placeholder in each context a template can
# put it: in a literal, in an IRI, and bare.
_TEMPLATE_SOUP = _SOUP + [
    "{gnd}", '"{gnd}"', "<https://d-nb.info/gnd/{gnd}>", "{", "gnd}", "construct", "CONSTRUCT",
    "wdt:P227", "prefix wdt: <http://www.wikidata.org/prop/direct/>",
]
_TEMPLATE_BYTES = st.one_of(
    st.binary(max_size=100),
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(_TEMPLATE_SOUP), st.sampled_from(["", " ", "\n"])),
            max_size=20,
        ),
        st.sampled_from(["utf-8", "latin-1"]),
    ).map(lambda parts_enc: "".join(a + b for a, b in parts_enc[0]).encode(parts_enc[1])),
)


@settings(max_examples=100, deadline=None)
@given(template=_TEMPLATE_BYTES)
@example(template=b'construct { ?s ?p ?o } where { ?s wdt:P227 "{gnd}" . ?s ?p ?o }')
def test_template_files_of_any_content_exit_cleanly(template):
    with tempfile.TemporaryDirectory() as d:
        path, gnds, recordings = Path(d, "lookup.rq"), Path(d, "gnds.txt"), Path(d, "recorded")
        path.write_bytes(template)
        gnds.write_text("118755951\n")
        recordings.mkdir()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["enrich", "--endpoint", "wikidata", "--gnds", str(gnds), "--fixtures",
                        str(recordings), "--template", str(path), "--out", str(Path(d, "wd.nt"))])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


def test_importing_the_cli_loads_no_http_ssl_or_email_module():
    # Only `enrich` against a live endpoint needs them; HttpTransport imports
    # them on its first request.
    heavy = ["http.client", "urllib.request", "urllib.error", "ssl", "email"]
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kgfuse.cli\n"
        f"loaded = sorted(m for m in {heavy!r} if m in set(sys.modules) - before)\n"
        "sys.exit(' '.join(loaded) or None)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
