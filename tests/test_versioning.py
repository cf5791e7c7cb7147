"""Commit store checks: diff/checkout/log against set-difference and replay oracles.

The store speaks N-Triples lines, so each oracle states its expected triples
as the lines `ntriples_line` writes for them (`_lines`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import shutil
import tempfile
from pathlib import Path

import catalogues
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import fixtures, rdf, versioning
from kgfuse.cli import run
from kgfuse.fusion import shift_namespace
from kgfuse.prefixes import PCP_NS, XSD_NS
from kgfuse.rdf import Graph, RdfError, Triple, blank, iri, literal, ntriples_line, serialize_canonical
from kgfuse.versioning import (
    ChangeStore,
    EmptyDiffError,
    StoreError,
    UnknownCommitError,
    format_log,
)

GRAPH_NAME = "urn:x-store:test"


def _lines(triples) -> frozenset[str]:
    return frozenset(map(ntriples_line, triples))


def _graph(*values: str) -> Graph:
    return Graph(GRAPH_NAME, [Triple(iri("urn:s:1"), iri("urn:p:value"), literal(v)) for v in values])


def test_first_commit_is_root_with_all_triples_added(tmp_path):
    store = ChangeStore(tmp_path / "store")
    g = _graph("a", "b", "c")
    commit = store.commit(GRAPH_NAME, g, "tester", "initial import", timestamp=1_000)
    assert commit.parent is None
    changeset = store.read_changeset(commit.id)
    assert len(changeset.added) == 3
    assert len(changeset.removed) == 0
    assert store.head_id == commit.id


def test_recommitting_same_state_is_rejected(tmp_path):
    store = ChangeStore(tmp_path / "store")
    g = _graph("a")
    store.commit(GRAPH_NAME, g, "tester", "initial", timestamp=1)
    with pytest.raises(EmptyDiffError):
        store.commit(GRAPH_NAME, g, "tester", "again", timestamp=2)


def test_rename_fix_changeset_matches_set_difference_oracle(tmp_path):
    store = ChangeStore(tmp_path / "store")
    before = fixtures.load("quality.ttl")
    before_named = Graph(GRAPH_NAME, before.triples)
    store.commit(GRAPH_NAME, before_named, "historian", "import vocabulary", timestamp=10)
    after = shift_namespace(
        before, PCP_NS, PCP_NS, renames={"surname_lat": "latinSurname", "lecture": "lecturer"}
    )
    commit = store.commit(GRAPH_NAME, after, "historian", "rename fixes", timestamp=20)
    changeset = store.read_changeset(commit.id)
    # oracle: plain set differences of the two states
    assert changeset.added == _lines(after.triples - before.triples)
    assert changeset.removed == _lines(before.triples - after.triples)
    assert changeset.commit == commit
    assert len(changeset.added) == len(changeset.removed)
    assert len(changeset.added) > 0


def test_diff_of_commit_with_itself_is_empty(tmp_path):
    store = ChangeStore(tmp_path / "store")
    c = store.commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    d = store.diff(c.id, c.id)
    assert d.added == frozenset() and d.removed == frozenset()


def test_diff_root_to_head_equals_full_state_difference(tmp_path):
    store = ChangeStore(tmp_path / "store")
    g1 = _graph("a", "b")
    g2 = _graph("b", "c")
    g3 = _graph("c", "d", "e")
    c1 = store.commit(GRAPH_NAME, g1, "t", "one", timestamp=1)
    store.commit(GRAPH_NAME, g2, "t", "two", timestamp=2)
    c3 = store.commit(GRAPH_NAME, g3, "t", "three", timestamp=3)
    d = store.diff(c1.id, c3.id)
    assert d.added == _lines(g3.triples - g1.triples)
    assert d.removed == _lines(g1.triples - g3.triples)
    assert d.commit is None
    # antisymmetry
    inverse = store.diff(c3.id, c1.id)
    assert inverse.added == d.removed and inverse.removed == d.added


def test_diff_applied_to_state_a_reproduces_state_b(tmp_path):
    store = ChangeStore(tmp_path / "store")
    g1, g2 = _graph("a", "b"), _graph("b", "x", "y")
    c1 = store.commit(GRAPH_NAME, g1, "t", "one", timestamp=1)
    c2 = store.commit(GRAPH_NAME, g2, "t", "two", timestamp=2)
    d = store.diff(c1.id, c2.id)
    assert d.apply(_lines(g1.triples)) == store.checkout(c2.id) == _lines(g2.triples)


def test_checkout_root_and_head(tmp_path):
    store = ChangeStore(tmp_path / "store")
    g1 = _graph("a", "b", "c")
    g2 = _graph("b", "c", "d")
    c1 = store.commit(GRAPH_NAME, g1, "t", "one", timestamp=1)
    c2 = store.commit(GRAPH_NAME, g2, "t", "two", timestamp=2)
    assert store.checkout(c1.id) == _lines(g1.triples)
    assert store.checkout(c2.id) == _lines(g2.triples)
    assert store.read_changeset(store.head_id).commit.graph_name == GRAPH_NAME


def test_unknown_commit_id(tmp_path):
    store = ChangeStore(tmp_path / "store")
    with pytest.raises(UnknownCommitError):
        store.checkout("feedfacefeedface")


def test_lineage_tracks_one_graph_name(tmp_path):
    store = ChangeStore(tmp_path / "store")
    store.commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    with pytest.raises(StoreError):
        store.commit("urn:x-store:other", _graph("a", "b"), "t", "two", timestamp=2)


@pytest.mark.parametrize(
    "name", ["not-an-iri", "", "/relative/path", "1urn:x", "urn:x:a b", "urn:x:a\nb", "urn:x:<g>"]
)
def test_commit_rejects_a_graph_name_that_is_not_an_absolute_iri(tmp_path, name):
    store = ChangeStore(tmp_path / "store")
    with pytest.raises(StoreError, match="absolute IRI"):
        store.commit(name, _graph("a"), "t", "one", timestamp=1)
    assert store.head_id is None
    assert not (tmp_path / "store").exists()


def test_a_graph_with_a_lone_surrogate_never_reaches_a_commit(tmp_path):
    # its text has no UTF-8 form: the term is refused before any store file is written
    store = ChangeStore(tmp_path / "store")
    with pytest.raises(RdfError, match="lone surrogate"):
        store.commit(GRAPH_NAME, _graph("ok", "bad \ud800"), "t", "surrogate")
    assert store.head_id is None
    assert not (tmp_path / "store").exists()


def test_replay_oracle_on_random_history(tmp_path):
    rng = random.Random(42)
    store = ChangeStore(tmp_path / "store")
    pool = [f"v{i}" for i in range(12)]
    states = []
    commit_ids = []
    current: set[str] = set()
    timestamp = 100
    while len(commit_ids) < 10:
        target = {v for v in pool if rng.random() < 0.5}
        if target == current:
            continue
        current = target
        g = _graph(*sorted(current))
        c = store.commit(GRAPH_NAME, g, "t", f"step {len(commit_ids)}", timestamp=timestamp)
        states.append(_lines(g.triples))
        commit_ids.append(c.id)
        timestamp += 1
    # oracle: left-fold the stored changesets and compare at every commit
    replayed: frozenset = frozenset()
    previous: frozenset = frozenset()
    for idx, cid in enumerate(commit_ids):
        changeset = store.read_changeset(cid)
        replayed = changeset.apply(replayed)
        assert replayed == states[idx]
        assert store.checkout(cid) == states[idx]
        # minimality: the changeset is exactly the symmetric difference
        assert len(changeset.added) + len(changeset.removed) == len(previous ^ states[idx])
        previous = states[idx]


def test_identical_histories_yield_identical_ids(tmp_path):
    ids = []
    for name in ("one", "two"):
        store = ChangeStore(tmp_path / name)
        store.commit(GRAPH_NAME, _graph("a", "b"), "t", "first", timestamp=11)
        store.commit(GRAPH_NAME, _graph("b", "c"), "t", "second", timestamp=22)
        ids.append([e.commit.id for e in store.log()])
    assert ids[0] == ids[1]


def test_log_is_head_to_root_with_recounted_sizes(tmp_path):
    store = ChangeStore(tmp_path / "store")
    assert store.log() == []
    store.commit(GRAPH_NAME, _graph("a", "b", "c"), "alice", "one", timestamp=1)
    store.commit(GRAPH_NAME, _graph("b"), "bob", "two", timestamp=2)
    store.commit(GRAPH_NAME, _graph("b", "z"), "carol", "three", timestamp=3)
    entries = store.log()
    assert [e.commit.message for e in entries] == ["three", "two", "one"]
    assert [(e.added, e.removed) for e in entries] == [(1, 0), (0, 2), (3, 0)]
    for entry in entries:
        changeset = store.read_changeset(entry.commit.id)
        assert entry.added == len(changeset.added)
        assert entry.removed == len(changeset.removed)
    text = format_log(entries)
    assert "+1 -0" in text and "carol: three" in text
    assert text.index("three") < text.index("one")


def test_no_temp_leftovers_after_commits(tmp_path):
    store = ChangeStore(tmp_path / "store")
    store.commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    store.commit(GRAPH_NAME, _graph("a", "b"), "t", "two", timestamp=2)
    leftovers = [p for p in store.commits_dir.iterdir() if p.name.startswith(".tmp")]
    assert leftovers == []
    assert sorted(os.listdir(store.path)) == ["HEAD", "commits"]


def test_messages_with_tabs_and_newlines_round_trip(tmp_path):
    store = ChangeStore(tmp_path / "store")
    message = "line one\nline two\twith tab"
    c = store.commit(GRAPH_NAME, _graph("a"), "t", message, timestamp=1)
    assert store.read_changeset(c.id).commit.message == message


def test_commit_round_trip_for_fixture_graphs(tmp_path):
    for idx, (name, g) in enumerate(catalogues.corpus().items()):
        store = ChangeStore(tmp_path / f"store{idx}")
        named = Graph(GRAPH_NAME, g.triples)
        c = store.commit(GRAPH_NAME, named, "t", f"import {name}", timestamp=idx + 1)
        assert store.checkout(c.id) == _lines(named.triples), name


def _escaped_history() -> list[tuple[frozenset, str, str]]:
    """States with escaped literals, language tags, datatypes and blank nodes."""
    s1, s2, value = iri("urn:s:1"), iri("urn:s:2"), iri("urn:p:value")
    base = frozenset({
        Triple(s1, value, literal('line one\nline "two" \\ end')),
        Triple(s1, value, literal("tab\there\x01bell\x1f", language="de-AT")),
        Triple(s1, value, literal("1655", datatype=XSD_NS + "gYear")),
        Triple(s2, value, literal("Leipzig", language="la")),
        Triple(s2, iri("urn:p:note"), blank("n1")),
        Triple(blank("n1"), value, literal("cr\rhere")),
    })
    second = (base - {Triple(s1, value, literal("1655", datatype=XSD_NS + "gYear"))}) | {
        Triple(s1, value, literal("1656", datatype=XSD_NS + "gYear")),
        Triple(s2, value, literal("x", language="base")),
        Triple(blank("n2"), iri("urn:p:next"), blank("n1")),
    }
    third = second - {Triple(s2, iri("urn:p:note"), blank("n1"))}
    return [
        (base, "alice", "import\tcatalogue"),
        (second, "bob", "curate\nbirth years"),
        (third, "carol", "drop note"),
    ]


def test_commit_ids_are_stable_for_a_fixed_history(tmp_path):
    store = ChangeStore(tmp_path / "store")
    ids = [
        store.commit(GRAPH_NAME, Graph(GRAPH_NAME, state), author, message, timestamp=n * 1000).id
        for n, (state, author, message) in enumerate(_escaped_history(), 1)
    ]
    assert ids == [
        "228b2a7ecf1d356e89969e97acba31e5d0e895005313e4ccb69dc19b0f3c9463",
        "6e6bc692e34119534c362c92ff0580e13622843a867c6bc9bcad5207b7e4439b",
        "5fd1539af1effd169333935de6d3d06f4b90b4560db6017012c7880efc54e9e5",
    ]
    for cid, (state, _, _) in zip(ids, _escaped_history()):
        assert ChangeStore(tmp_path / "store").checkout(cid) == _lines(state)
    log = ChangeStore(tmp_path / "store").log()
    assert [(e.added, e.removed) for e in log] == [(0, 1), (3, 1), (6, 0)]


def _edit_text(f, old, new):
    text = f.read_text(encoding="utf-8")
    assert old in text
    f.write_text(text.replace(old, new, 1), encoding="utf-8")


def _append_statement(f):
    _edit_text(f, "\nadd\n", '\nadd\n<urn:s:1> <urn:p:value> "z" .\n')


def _unremove_statement(f):
    _edit_text(f, "\nremove\n", '\nremove\n<urn:s:1> <urn:p:value> "z" .\n')


def _reword_message(f):
    _edit_text(f, "\nmessage two\n", "\nmessage two!\n")


def _point_parent_at_itself(f):
    lines = f.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("parent ")
    lines[0] = "parent " + f.name
    f.write_text("\n".join(lines), encoding="utf-8")


def _drop_timestamp(f):
    lines = f.read_text(encoding="utf-8").split("\n")
    f.write_text("\n".join(x for x in lines if not x.startswith("timestamp")), encoding="utf-8")


def _write_latin1(f):
    f.write_bytes('<urn:s:1> <urn:p:value> "M\u00fcller" .\n'.encode("latin-1"))


def _as_directory(f):
    f.unlink()
    f.mkdir()


_MISMATCH = "commit {short}: content does not match its id"
_OLD_LAYOUT = "commit {short}: {path} is a directory: the store has the old layout"
_EDITS = {
    # edits that still parse
    "statement added": (_append_statement, _MISMATCH),
    "statement unremoved": (_unremove_statement, _MISMATCH),
    "message reworded": (_reword_message, _MISMATCH),
    "parent loops": (_point_parent_at_itself, _MISMATCH),
    "field dropped": (_drop_timestamp, _MISMATCH),
    # and files that no longer parse or read
    "not UTF-8": (_write_latin1, _MISMATCH),
    "file deleted": (Path.unlink, "unknown commit id: {id}"),
    "a directory in its place": (_as_directory, _OLD_LAYOUT),
}


def _assert_reads_fail(path, capsys, c1, bad, reason):
    """Every read of the store at `path` that reaches commit `bad` fails with
    one line starting with `reason`, from the library and from the CLI; the
    store's HEAD is `bad` or one of its descendants."""
    fresh = ChangeStore(path)
    for read in (lambda: fresh.checkout(bad.id), lambda: fresh.diff(c1.id, bad.id), fresh.log):
        with pytest.raises(StoreError, match="^" + re.escape(reason)):
            read()
    out = path.parent / "out.nt"
    store = ["--store", str(path)]
    for argv in (["checkout", *store, bad.id, "-o", str(out)], ["log", *store]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {reason}") and len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_commit_files_edited_after_commit_are_an_error(tmp_path, capsys, edit):
    change, reason = _EDITS[edit]
    path = tmp_path / "store"
    store = ChangeStore(path)
    c1 = store.commit(GRAPH_NAME, _graph("a", "b"), "t", "one", timestamp=1)
    c2 = store.commit(GRAPH_NAME, _graph("b", "c"), "t", "two", timestamp=2)
    target = store.commits_dir / c2.id
    change(target)
    reason = reason.format(short=c2.short_id, id=c2.id, path=target)
    _assert_reads_fail(path, capsys, c1, c2, reason)


def test_commit_file_is_its_hashed_content(tmp_path):
    store = ChangeStore(tmp_path / "store")
    c1 = store.commit(GRAPH_NAME, _graph("a", "b"), "ann\tlee", "one\ntwo", timestamp=1)
    c2 = store.commit(GRAPH_NAME, _graph("b", "c"), "t", "two", timestamp=2)
    assert sorted(p.name for p in store.commits_dir.iterdir()) == sorted([c1.id, c2.id])
    assert (store.commits_dir / c2.id).read_bytes() == (
        f"parent {c1.id}\ngraph {GRAPH_NAME}\nauthor t\nmessage two\ntimestamp 2\nadd\n"
        '<urn:s:1> <urn:p:value> "c" .\n\nremove\n<urn:s:1> <urn:p:value> "a" .\n'
    ).encode("utf-8")
    assert (store.commits_dir / c1.id).read_bytes().startswith(
        f"parent -\ngraph {GRAPH_NAME}\nauthor ann\\tlee\nmessage one\\ntwo\n".encode("utf-8")
    )


_MALFORMED = {
    "not UTF-8": "parent -\ngraph urn:x:g\nauthor M\xfcller\n".encode("latin-1"),
    "field dropped": b"parent -\ngraph urn:x:g\nauthor t\nmessage m\nadd\n\nremove\n",
    "no remove mark": b"parent -\ngraph urn:x:g\nauthor t\nmessage m\ntimestamp 1\nadd\n",
    "timestamp not a number": b"parent -\ngraph g\nauthor t\nmessage m\ntimestamp 1_0\nadd\n"
                              b"\nremove\n",
    "parent not an id": b"parent \ngraph g\nauthor t\nmessage m\ntimestamp 1\nadd\n\nremove\n",
    "empty": b"",
    # timestamps that `time.gmtime` cannot format: too large for time_t, and
    # a year past the C library's range
    "timestamp overflows": b"parent -\ngraph urn:x:g\nauthor t\nmessage m\n"
                           b"timestamp 100000000000000000000\nadd\n\nremove\n",
    "timestamp year out of range": b"parent -\ngraph urn:x:g\nauthor t\nmessage m\n"
                                   b"timestamp 4611686018427387904\nadd\n\nremove\n",
}


@pytest.mark.parametrize("body", sorted(_MALFORMED))
def test_a_file_named_by_its_own_hash_but_malformed_is_an_error(tmp_path, capsys, body):
    path = tmp_path / "store"
    store = ChangeStore(path)
    c1 = store.commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    data = _MALFORMED[body]
    bad = versioning.Commit(hashlib.sha256(data).hexdigest(), None, "t", "m", 1, GRAPH_NAME)
    (store.commits_dir / bad.id).write_bytes(data)
    (path / "HEAD").write_text(bad.id + "\n")
    _assert_reads_fail(path, capsys, c1, bad, f"commit {bad.short_id}: malformed commit: ")


def test_a_file_named_by_its_own_hash_that_adds_and_removes_a_line_is_an_error(tmp_path, capsys):
    path = tmp_path / "store"
    store = ChangeStore(path)
    c1 = store.commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    line = '<urn:s:1> <urn:p:value> "b" .\n'
    data = f"parent {c1.id}\ngraph {GRAPH_NAME}\nauthor t\nmessage m\ntimestamp 2\nadd\n{line}" \
           f"\nremove\n{line}"
    data = data.encode("utf-8")
    bad = versioning.Commit(hashlib.sha256(data).hexdigest(), c1.id, "t", "m", 2, GRAPH_NAME)
    (store.commits_dir / bad.id).write_bytes(data)
    (path / "HEAD").write_text(bad.id + "\n")
    reason = f"commit {bad.short_id}: a changeset cannot add and remove the same line"
    _assert_reads_fail(path, capsys, c1, bad, reason)


@pytest.mark.parametrize("timestamp", [10**20, 2**62, -(2**62)])
def test_commit_rejects_a_timestamp_that_cannot_be_formatted(tmp_path, capsys, timestamp):
    path = tmp_path / "store"
    with pytest.raises(StoreError, match=f"^commit timestamp is out of range: {timestamp}$"):
        ChangeStore(path).commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=timestamp)
    assert not path.exists()
    c1 = ChangeStore(path).commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    with pytest.raises(StoreError, match="out of range"):
        ChangeStore(path).commit(GRAPH_NAME, _graph("b"), "t", "two", timestamp=timestamp)
    assert [p.name for p in (path / "commits").iterdir()] == [c1.id]
    assert ChangeStore(path).head_id == c1.id
    assert run(["log", "--store", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"{c1.short_id}  1970-01-01 00:00:01Z  +1 -0  ")


def test_a_store_in_the_old_layout_is_a_one_line_error(tmp_path, capsys):
    # one directory per commit, holding `meta`, `add.nt` and `remove.nt`
    path = tmp_path / "store"
    old = path / "commits" / ("ab" * 32)
    old.mkdir(parents=True)
    (old / "meta").write_text("parent\t\ngraph\turn:x:g\nauthor\tt\nmessage\tm\ntimestamp\t1\n")
    (old / "add.nt").write_text('<urn:s:1> <urn:p:value> "a" .\n')
    (old / "remove.nt").write_text("")
    (path / "HEAD").write_text(old.name + "\n")
    reason = _OLD_LAYOUT.format(short=old.name[:12], path=old)
    commit = versioning.Commit(old.name, None, "t", "m", 1, GRAPH_NAME)
    _assert_reads_fail(path, capsys, commit, commit, reason)
    with pytest.raises(StoreError, match="^" + re.escape(reason)):
        ChangeStore(path).commit(GRAPH_NAME, _graph("b"), "t", "two", timestamp=2)
    assert sorted(p.name for p in (path / "commits").iterdir()) == [old.name]


@pytest.mark.parametrize("edit", [_as_directory, _write_latin1])
def test_a_head_that_does_not_read_is_a_one_line_error(tmp_path, capsys, edit):
    path = tmp_path / "store"
    ChangeStore(path).commit(GRAPH_NAME, _graph("a"), "t", "one", timestamp=1)
    edit(path / "HEAD")
    fresh = ChangeStore(path)
    for read in (fresh.log, lambda: fresh.commit(GRAPH_NAME, _graph("b"), "t", "two")):
        with pytest.raises(StoreError, match=f"^cannot read HEAD: {re.escape(str(path / 'HEAD'))}: "):
            read()
    assert run(["log", "--store", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read HEAD: {path / 'HEAD'}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("depth", [2, 30])
def test_the_store_never_parses(tmp_path, monkeypatch, depth):
    def parse(*args, **kwargs):
        raise AssertionError("the store parsed N-Triples")

    monkeypatch.setattr(rdf, "parse_ntriples", parse)
    monkeypatch.setattr(versioning, "parse_ntriples", parse)
    path = tmp_path / "store"
    for step in range(depth):
        # a fresh handle per commit replays the head state from disk
        state = _graph(*(f"v{i}" for i in range(step % 7, step + 3)))
        head = ChangeStore(path).commit(GRAPH_NAME, state, "t", f"step {step}", timestamp=step)
    fresh = ChangeStore(path)
    assert fresh.checkout(head.id) == _lines(state.triples)
    assert fresh.diff(head.id, head.id) == versioning.ChangeSet(frozenset(), frozenset())
    assert len(fresh.log()) == depth


def test_line_separators_in_literals_and_metadata_round_trip(tmp_path):
    # U+0085, U+2028 and U+2029 are written unescaped, and "\r" is not
    # escaped in metadata; none of them may end a line when read back.
    path = tmp_path / "store"
    g = _graph("a\x85b", "c\u2028d", "e\u2029f", "plain")
    c = ChangeStore(path).commit(GRAPH_NAME, g, "ann\rlee", "fix\u2028dates", timestamp=1)
    fresh = ChangeStore(path)
    assert fresh.checkout(c.id) == _lines(g.triples)
    assert fresh.read_changeset(c.id).commit == c
    assert [(e.added, e.removed) for e in fresh.log()] == [(4, 0)]


def test_state_cache_stays_bounded(tmp_path):
    # a handle remembers one state, the last it read or wrote
    store = ChangeStore(tmp_path / "store")
    ids = [
        store.commit(GRAPH_NAME, _graph(*(f"v{i}" for i in range(n + 1))), "t", "m", timestamp=n).id
        for n in range(12)
    ]
    for n, cid in enumerate(ids):
        assert len(store.checkout(cid)) == n + 1
        assert store._last[0].id == cid
    # a log reads every commit file and keeps none of them
    assert len(store.log()) == len(ids)
    assert set(vars(store)) == {"path", "commits_dir", "_last"}
    assert store._last[0].id == ids[-1]
    # a commit onto a head the handle no longer remembers replays it, and
    # writes the commit a fresh handle writes
    store.checkout(ids[0])
    shutil.copytree(store.path, tmp_path / "copy")
    g = _graph("v0", "w")
    c = store.commit(GRAPH_NAME, g, "t", "m", timestamp=12)
    assert c.parent == ids[-1]
    assert c == ChangeStore(tmp_path / "copy").commit(GRAPH_NAME, g, "t", "m", timestamp=12)
    assert (tmp_path / "store" / "commits" / c.id).read_bytes() == (
        tmp_path / "copy" / "commits" / c.id).read_bytes()
    assert store._last == (c, _lines(g.triples))


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _fuse_into(store: Path, out: Path) -> list[str]:
    """`kgfuse fuse` of the bundled person fixtures, committed into `store`
    under GRAPH_NAME."""
    return ["fuse", "--left", str(fixtures.fixture_path("leipzig_persons.ttl")),
            "--right", str(fixtures.fixture_path("helmstedt_persons.ttl")),
            "--left-ns", "urn:l:", "--right-ns", "urn:r:", "--target-ns", "urn:t:",
            "--out", str(out), "--graph-name", GRAPH_NAME, "--store", str(store)]


def test_each_command_reads_only_the_commit_files_it_needs(tmp_path, monkeypatch):
    reads = []
    read_changeset = ChangeStore.read_changeset

    def counted(self, commit_id):
        reads.append(commit_id)
        return read_changeset(self, commit_id)

    monkeypatch.setattr(ChangeStore, "read_changeset", counted)
    path = tmp_path / "store"
    ids = [
        ChangeStore(path).commit(GRAPH_NAME, _graph(*(f"v{i}" for i in range(n + 1))), "t", "m", n).id
        for n in range(5)
    ]
    reads.clear()
    # the head is replayed once, before the output is written, and the
    # commit diffs against that state
    assert _cli(_fuse_into(path, tmp_path / "fused.nt"))[0] == 0
    assert reads == ids[::-1]
    ids.append(ChangeStore(path).head_id)
    out = str(tmp_path / "out.nt")
    for argv, expected in [
        (["checkout", "--store", path, ids[5], "-o", out], [5, 4, 3, 2, 1, 0]),
        (["checkout", "--store", path, ids[2], "-o", out], [2, 1, 0]),
        # the replay of a descendant stops at the state of its ancestor
        (["diff", "--store", path, ids[1], ids[4]], [1, 0, 4, 3, 2]),
        (["diff", "--store", path, ids[4], ids[1]], [4, 3, 2, 1, 0, 1, 0]),
        (["log", "--store", path], [5, 4, 3, 2, 1, 0]),
    ]:
        reads.clear()
        assert _cli(list(map(str, argv)))[0] == 0
        assert reads == [ids[i] for i in expected], argv


def test_a_second_writer_between_head_write_and_rename_costs_no_error(tmp_path, monkeypatch):
    # Another process commits after this writer wrote its new HEAD and
    # before it renames it into place: each writes HEAD through a name of
    # its own, so neither rename fails.  The other commit is not on the
    # log; serializing writers is a lock's work.
    path = tmp_path / "store"
    base = ChangeStore(path).commit(GRAPH_NAME, _graph("a"), "t", "base", timestamp=0)
    replace, getpid = os.replace, os.getpid
    others = []

    def racing_replace(src, dst):
        # the other writer, with a pid of its own, renames without a race
        if Path(dst).name == "HEAD" and os.getpid() == getpid() and not others:
            monkeypatch.setattr(os, "getpid", lambda: getpid() + 1)
            others.append(ChangeStore(path).commit(GRAPH_NAME, _graph("b"), "u", "other", timestamp=2))
            monkeypatch.setattr(os, "getpid", getpid)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    mine = ChangeStore(path).commit(GRAPH_NAME, _graph("a", "c"), "t", "mine", timestamp=1)
    assert others[0].parent == mine.parent == base.id
    assert ChangeStore(path).head_id == mine.id
    assert sorted(os.listdir(path)) == ["HEAD", "commits"]
    assert sorted(os.listdir(path / "commits")) == sorted([base.id, mine.id, others[0].id])


def test_a_head_that_cannot_be_written_is_a_one_line_error(tmp_path, monkeypatch):
    path = tmp_path / "store"
    ChangeStore(path).commit(GRAPH_NAME, _graph("a"), "t", "base", timestamp=0)
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "HEAD":
            raise PermissionError(13, "Permission denied")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(StoreError, match=f"^cannot write HEAD: {re.escape(str(path / 'HEAD'))}: "
                                         "Permission denied$"):
        ChangeStore(path).commit(GRAPH_NAME, _graph("b"), "t", "next", timestamp=1)
    code, _, err = _cli(_fuse_into(path, tmp_path / "fused.nt"))
    assert (code, err) == (1, f"error: cannot write HEAD: {path / 'HEAD'}: Permission denied\n")
    assert sorted(os.listdir(path)) == ["HEAD", "commits"]


def _opened_then_full(file, *args, **kwargs):
    """`open` that creates the file, then fails as a full disk would."""
    open(file, *args, **kwargs).close()
    raise OSError(28, "No space left on device")


def _refused(src, dst):
    raise PermissionError(13, "Permission denied")


# the store's own `open`, so that the command still reads its inputs
@pytest.mark.parametrize("module, name, real, failing, reason", [
    (versioning, "open", open, _opened_then_full, "No space left on device"),
    (os, "replace", os.replace, _refused, "Permission denied"),
], ids=["open", "replace"])
def test_a_commit_file_that_cannot_be_written_is_a_one_line_error(
    tmp_path, monkeypatch, module, name, real, failing, reason
):
    path = tmp_path / "store"
    base = ChangeStore(path).commit(GRAPH_NAME, _graph("a"), "t", "base", timestamp=0)

    def failing_for_the_commit_temp(file, *args, **kwargs):
        if Path(file).parent.name == "commits" and Path(file).name.startswith(".tmp-"):
            return failing(file, *args, **kwargs)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(module, name, failing_for_the_commit_temp, raising=False)
    error = (rf"cannot write commit ([0-9a-f]{{12}}): {re.escape(str(path / 'commits') + os.sep)}"
             rf"\1[0-9a-f]{{52}}: {reason}")
    with pytest.raises(StoreError, match=f"^{error}$"):
        ChangeStore(path).commit(GRAPH_NAME, _graph("b"), "t", "next", timestamp=1)
    code, _, err = _cli(_fuse_into(path, tmp_path / "fused.nt"))
    assert code == 1
    assert re.fullmatch(f"error: {error}\n", err), err
    assert sorted(os.listdir(path)) == ["HEAD", "commits"]
    assert os.listdir(path / "commits") == [base.id]
    assert ChangeStore(path).head_id == base.id


def test_a_commits_folder_that_cannot_be_made_is_a_one_line_error(tmp_path):
    path = tmp_path / "store"
    path.mkdir()
    (path / "commits").touch()
    code, _, err = _cli(_fuse_into(path, tmp_path / "fused.nt"))
    assert code == 1
    assert re.fullmatch(r"error: cannot write commit [0-9a-f]{12}: .*: File exists\n", err), err
    assert os.listdir(path) == ["commits"]


def _pinned_history() -> list[tuple[frozenset, str, str]]:
    """`_escaped_history` plus a state with `_:` inside a literal and text on
    both sides of U+FFFF."""
    history = _escaped_history()
    fourth = history[-1][0] | {
        Triple(iri("urn:s:\ufffd"), iri("urn:p:value"), literal("_:n1 \U00010000 \u00fcber")),
        Triple(iri("urn:s:\U00010000"), iri("urn:p:value"), literal("\ufffd")),
        Triple(blank("n3"), iri("urn:p:next"), blank("n2")),
    }
    return history + [(fourth, "dan", "link notes")]


def test_checkout_and_diff_output_is_pinned(tmp_path):
    path = tmp_path / "store"
    store = ChangeStore(path)
    ids = [
        store.commit(GRAPH_NAME, Graph(GRAPH_NAME, state), author, message, timestamp=n * 1000).id
        for n, (state, author, message) in enumerate(_pinned_history(), 1)
    ]
    out = tmp_path / "out.nt"
    checkouts = []
    for cid in ids:
        code, stdout, stderr = _cli(["checkout", "--store", str(path), cid, "-o", str(out)])
        assert (code, stderr) == (0, "")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        checkouts.append((stdout.replace(str(out), "OUT"), digest))
    assert checkouts == [
        ("wrote 6 triple(s) at 228b2a7ecf1d to OUT\n",
         "51ba57b6e4d4a35c182eedd54f1a0fa42076ac9bba0366e287548d69b8727c40"),
        ("wrote 8 triple(s) at 6e6bc692e341 to OUT\n",
         "272da46fe01c373e1f822dda0a3529ad7c903b70a1bcf92ffab7d3f3eab48719"),
        ("wrote 7 triple(s) at 5fd1539af1ef to OUT\n",
         "7f00e5a6daed0b6c0c9edeb4bf0573600370062734ced75b81d403ba8c087189"),
        ("wrote 10 triple(s) at fd1707080e7c to OUT\n",
         "3afddbc4f0064531e70486a0b8acddbb0e3d9eea8b074c0b743b29b760f4e746"),
    ]
    gyear = "^^<http://www.w3.org/2001/XMLSchema#gYear> ."
    assert _cli(["diff", "--store", str(path), ids[0], ids[1]]) == (
        0,
        f'- <urn:s:1> <urn:p:value> "1655"{gyear}\n'
        f'+ <urn:s:1> <urn:p:value> "1656"{gyear}\n'
        '+ <urn:s:2> <urn:p:value> "x"@base .\n'
        "+ _:n2 <urn:p:next> _:n1 .\n",
        "3 added, 1 removed\n",
    )
    assert _cli(["diff", "--store", str(path), ids[3], ids[0]]) == (
        0,
        f'- <urn:s:1> <urn:p:value> "1656"{gyear}\n'
        '- <urn:s:2> <urn:p:value> "x"@base .\n'
        '- <urn:s:\ufffd> <urn:p:value> "_:n1 \U00010000 \u00fcber" .\n'
        '- <urn:s:\U00010000> <urn:p:value> "\ufffd" .\n'
        "- _:n2 <urn:p:next> _:n1 .\n"
        "- _:n3 <urn:p:next> _:n2 .\n"
        f'+ <urn:s:1> <urn:p:value> "1655"{gyear}\n'
        "+ <urn:s:2> <urn:p:note> _:n1 .\n",
        "2 added, 6 removed\n",
    )


_SUBJECTS = [iri("urn:s:0"), iri("urn:s:\ufffd"), iri("urn:s:\U00010000"), blank("a"), blank("b")]
_PREDICATES = [iri("urn:p:0"), iri("urn:p:1")]
_TEXT = st.lists(
    st.sampled_from(["a", "_", ":", "_:b0", "\n", "\r", "\u2028", '"', "\\", "\t", "\x01", " ",
                     "\u00fc", "\ufffd", "\U00010000"]),
    max_size=5,
).map("".join)
_TAGS = [
    (None, None), ("en", None), ("de-AT", None), (None, XSD_NS + "gYear"), (None, "urn:dt:\ufffd")
]
_LITERALS = st.tuples(_TEXT, st.sampled_from(_TAGS)).map(lambda t: literal(t[0], *t[1]))
_TRIPLES = st.builds(
    Triple, st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
    st.sampled_from(_SUBJECTS + [iri("urn:o:0"), blank("c")]) | _LITERALS,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.frozensets(_TRIPLES, max_size=8), min_size=1, max_size=4))
def test_cli_checkout_and_diff_match_the_model(states):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "store")
        store = ChangeStore(path)
        model = {}
        for n, state in enumerate(states):
            with contextlib.suppress(EmptyDiffError):
                model[store.commit(GRAPH_NAME, Graph(GRAPH_NAME, state), "t", "m", n).id] = state
        out = Path(d, "out.nt")
        for cid, state in model.items():
            code, stdout, _ = _cli(["checkout", "--store", str(path), cid, "-o", str(out)])
            assert code == 0
            assert out.read_bytes() == serialize_canonical(Graph(triples=state)).encode("utf-8")
            assert stdout.startswith(f"wrote {len(state)} triple(s) ")
        for a, state_a in model.items():
            for b, state_b in model.items():
                removed = _lines(state_a) - _lines(state_b)
                added = _lines(state_b) - _lines(state_a)
                expected = "".join(
                    f"{sign} {line}\n"
                    for sign, lines in (("-", removed), ("+", added))
                    for line in sorted(lines)
                )
                counts = f"{len(added)} added, {len(removed)} removed\n"
                assert _cli(["diff", "--store", str(path), a, b]) == (0, expected, counts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.frozensets(_TRIPLES, max_size=8), _TEXT, _TEXT), max_size=8))
def test_commit_files_are_content_addressed_and_replay_the_model(history):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "store")
        model = []
        previous: frozenset[str] = frozenset()
        for n, (state, author, message) in enumerate(history):
            lines = frozenset(map(ntriples_line, state))
            if lines != previous:
                c = ChangeStore(path).commit(GRAPH_NAME, Graph(GRAPH_NAME, state), author, message, n)
                model.append((c, lines, len(lines - previous), len(previous - lines)))
                previous = lines
        files = sorted(Path(path, "commits").iterdir()) if model else []
        assert [f.name for f in files] == sorted(c.id for c, *_ in model)
        for f in files:
            assert hashlib.sha256(f.read_bytes()).hexdigest() == f.name
        for c, lines, _, _ in model:
            fresh = ChangeStore(path)
            assert fresh.checkout(c.id) == lines
            assert fresh.read_changeset(c.id).commit == c
        log = [(e.commit, e.added, e.removed) for e in ChangeStore(path).log()]
        assert log == [(c, added, removed) for c, _, added, removed in reversed(model)]
