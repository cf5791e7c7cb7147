"""Commit-based changeset store over one named graph.

Each commit records the triples added and removed against its parent as
sorted N-Triples files plus line-oriented metadata; the commit id is a
content hash over all of it, so identical histories always produce
identical ids.  History is linear: one root, every commit has at most one
child in the stored chain, and the whole store tracks a single graph name.

Commits are written into a temporary directory and renamed into place
before HEAD moves, so a crash leaves either the previous head or the new
one, never a half-written commit.

The store works on N-Triples lines as `ntriples_line` writes them: a state
is the frozenset of its lines (`state_lines`), and replay is set algebra
over them.  The `kgfuse checkout` and `kgfuse diff` commands answer from
those lines; triples are parsed only for the library calls that return
them (`checkout`, `diff`, `read_changeset`).  Every read of a changeset
recomputes its commit id, so a file edited after commit is an error rather
than a silently different history.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .rdf import _SURROGATE_RE, ABSOLUTE_IRI_RE, Graph, Triple, ntriples_line, parse_ntriples

# States a store handle keeps for later reads; older ones are replayed again.
_STATE_CACHE_SIZE = 4

# A commit reference shorter than a full id: at least 4 hex digits.
_SHORT_ID_RE = re.compile(r"[0-9a-f]{4,63}")


class StoreError(RuntimeError):
    pass


class EmptyDiffError(StoreError):
    def __init__(self):
        super().__init__("new state is identical to the current head; nothing to commit")


class UnknownCommitError(StoreError):
    def __init__(self, commit_id: str):
        self.commit_id = commit_id
        super().__init__(f"unknown commit id: {commit_id}")


@dataclass(frozen=True)
class Commit:
    id: str
    parent: Optional[str]
    author: str
    message: str
    timestamp: int
    graph_name: str

    @property
    def short_id(self) -> str:
        return self.id[:12]


@dataclass(frozen=True)
class ChangeSet:
    added: frozenset[Triple]
    removed: frozenset[Triple]
    graph_name: str

    def __post_init__(self):
        if self.added & self.removed:
            raise StoreError("a changeset cannot add and remove the same triple")

    def apply(self, state: frozenset[Triple]) -> frozenset[Triple]:
        return (state - self.removed) | self.added


@dataclass(frozen=True)
class LogEntry:
    commit: Commit
    added: int
    removed: int


def _lines_to_text(lines: Iterable[str]) -> str:
    ordered = sorted(lines)
    return "\n".join(ordered) + ("\n" if ordered else "")


def _triples(lines: Iterable[str]) -> frozenset[Triple]:
    return parse_ntriples("\n".join(lines)).triples


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t")


def _unescape(value: str) -> str:
    if "\\" not in value:
        return value
    out = []
    i = 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", "n": "\n", "t": "\t"}.get(nxt, nxt))
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


def _read_store_file(path: Path, problem: str) -> str:
    """A store file's text, decoded from its bytes so that no newline is
    translated; one that cannot be read or is not UTF-8 is a StoreError."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else err
        raise StoreError(f"{problem}: {path}: {reason}") from None


def _commit_id(
    parent: Optional[str],
    graph_name: str,
    author: str,
    message: str,
    timestamp: int,
    add_text: str,
    remove_text: str,
) -> str:
    # The sha256 of every field joined by "\n"; the changeset texts are fed
    # in as they are, never copied into one joined payload.
    header = "\n".join(
        [
            "parent " + (parent or "-"),
            "graph " + graph_name,
            "author " + _escape(author),
            "message " + _escape(message),
            "timestamp " + str(timestamp),
            "add",
            "",
        ]
    )
    digest = hashlib.sha256(header.encode("utf-8"))
    digest.update(add_text.encode("utf-8"))
    digest.update(b"\nremove\n")
    digest.update(remove_text.encode("utf-8"))
    return digest.hexdigest()


class ChangeStore:
    """On-disk store: `HEAD` plus one directory per commit under `commits/`."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # created by the first commit, so reading a store writes nothing
        self.commits_dir = self.path / "commits"
        # Committed data is immutable, so read caches never invalidate.
        self._commit_cache: dict[str, Commit] = {}
        self._state_cache: dict[str, frozenset[str]] = {}

    # -- basics --------------------------------------------------------------

    @property
    def head_id(self) -> Optional[str]:
        head = self.path / "HEAD"
        if not head.exists():
            return None
        return _read_store_file(head, "cannot read HEAD").strip() or None

    def _write_head(self, commit_id: str) -> None:
        tmp = self.path / "HEAD.tmp"
        tmp.write_text(commit_id + "\n", encoding="utf-8")
        os.replace(tmp, self.path / "HEAD")

    def _commit_path(self, commit_id: str) -> Path:
        return self.commits_dir / commit_id

    def resolve(self, ref: str) -> str:
        """The id of the one commit whose id starts with `ref`.  A full id, or
        anything that is not 4 to 63 hex digits, is returned unscanned, so an
        unknown one fails where it is read."""
        if not _SHORT_ID_RE.fullmatch(ref):
            return ref
        names = os.listdir(self.commits_dir) if self.commits_dir.is_dir() else []
        matches = [name for name in names if name.startswith(ref)]
        if len(matches) > 1:
            raise StoreError(f"ambiguous commit id {ref}: {len(matches)} commits start with it")
        return matches[0] if matches else ref

    def read_commit(self, commit_id: str) -> Commit:
        cached = self._commit_cache.get(commit_id)
        if cached is not None:
            return cached
        meta = self._commit_path(commit_id) / "meta"
        if not meta.exists():
            raise UnknownCommitError(commit_id)
        malformed = f"commit {commit_id[:12]}: malformed meta"
        fields: dict[str, str] = {}
        try:
            # split at "\n" only: a message may hold a raw "\r" or U+2028
            for line in _read_store_file(meta, malformed).split("\n"):
                key, _, value = line.partition("\t")
                fields[key] = _unescape(value)
            commit = Commit(
                id=commit_id,
                parent=fields["parent"] or None,
                author=fields["author"],
                message=fields["message"],
                timestamp=int(fields["timestamp"]),
                graph_name=fields["graph"],
            )
        except (KeyError, ValueError) as err:
            raise StoreError(f"{malformed}: {err}") from None
        self._commit_cache[commit_id] = commit
        return commit

    def _changeset_lines(self, commit_id: str) -> tuple[frozenset[str], frozenset[str]]:
        """The added and removed lines of a commit, checked against its id."""
        commit = self.read_commit(commit_id)
        base = self._commit_path(commit_id)
        problem = f"commit {commit.short_id}: cannot read changeset"
        add_text = _read_store_file(base / "add.nt", problem)
        remove_text = _read_store_file(base / "remove.nt", problem)
        expected = _commit_id(
            commit.parent,
            commit.graph_name,
            commit.author,
            commit.message,
            commit.timestamp,
            add_text,
            remove_text,
        )
        if expected != commit_id:
            raise StoreError(f"commit {commit.short_id}: content does not match its id")
        return (
            frozenset(filter(None, add_text.split("\n"))),
            frozenset(filter(None, remove_text.split("\n"))),
        )

    def read_changeset(self, commit_id: str) -> ChangeSet:
        added, removed = self._changeset_lines(commit_id)
        return ChangeSet(
            added=_triples(added),
            removed=_triples(removed),
            graph_name=self.read_commit(commit_id).graph_name,
        )

    # -- operations ------------------------------------------------------------

    def commit(
        self,
        graph_name: str,
        new_state: Graph,
        author: str,
        message: str,
        timestamp: Optional[int] = None,
    ) -> Commit:
        for label, text in (("graph name", graph_name), ("author", author), ("message", message)):
            if m := _SURROGATE_RE.search(text):
                raise StoreError(
                    f"commit {label} is not UTF-8 text "
                    f"(lone surrogate U+{ord(m.group()):04X}): {text!r}"
                )
        if not ABSOLUTE_IRI_RE.match(graph_name):
            raise StoreError(f"graph name must be an absolute IRI: {graph_name!r}")
        head = self.head_id
        if head is not None:
            lineage_name = self.read_commit(head).graph_name
            if graph_name != lineage_name:
                raise StoreError(
                    f"store tracks graph {lineage_name!r}, got {graph_name!r}"
                )
            old_state = self.state_lines(head)
        else:
            old_state = frozenset()
        new_lines = frozenset(map(ntriples_line, new_state.triples))
        added = new_lines - old_state
        removed = old_state - new_lines
        if not added and not removed:
            raise EmptyDiffError()
        if timestamp is None:
            timestamp = int(time.time())
        add_text = _lines_to_text(added)
        remove_text = _lines_to_text(removed)
        commit_id = _commit_id(head, graph_name, author, message, timestamp, add_text, remove_text)
        target = self._commit_path(commit_id)
        if not target.exists():
            tmp = self.commits_dir / f".tmp-{os.getpid()}-{commit_id[:12]}"
            tmp.mkdir(parents=True)
            (tmp / "add.nt").write_text(add_text, encoding="utf-8")
            (tmp / "remove.nt").write_text(remove_text, encoding="utf-8")
            meta_lines = [
                "parent\t" + (head or ""),
                "graph\t" + _escape(graph_name),
                "author\t" + _escape(author),
                "message\t" + _escape(message),
                "timestamp\t" + str(timestamp),
            ]
            (tmp / "meta").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
            os.replace(tmp, target)
        self._write_head(commit_id)
        commit = Commit(
            id=commit_id,
            parent=head,
            author=author,
            message=message,
            timestamp=timestamp,
            graph_name=graph_name,
        )
        self._commit_cache[commit_id] = commit
        self._remember(commit_id, new_lines)
        return commit

    def _remember(self, commit_id: str, state: frozenset[str]) -> None:
        self._state_cache[commit_id] = state
        if len(self._state_cache) > _STATE_CACHE_SIZE:
            del self._state_cache[next(iter(self._state_cache))]

    def state_lines(self, commit_id: str) -> frozenset[str]:
        """The N-Triples lines of the graph at `commit_id`."""
        cached = self._state_cache.get(commit_id)
        if cached is not None:
            return cached
        # Walk back to the root or to the nearest cached state; each
        # changeset is checked against its id on the way, so an edited
        # parent pointer fails before it can lead anywhere.
        pending = []
        state: set[str] = set()
        cursor: Optional[str] = commit_id
        while cursor is not None:
            known = self._state_cache.get(cursor)
            if known is not None:
                state = set(known)
                break
            pending.append(self._changeset_lines(cursor))
            cursor = self.read_commit(cursor).parent
        for added, removed in reversed(pending):
            state -= removed
            state |= added
        frozen = frozenset(state)
        self._remember(commit_id, frozen)
        return frozen

    def checkout(self, commit_id: str) -> Graph:
        commit = self.read_commit(commit_id)
        return parse_ntriples("\n".join(self.state_lines(commit_id)), name=commit.graph_name)

    def diff(self, a: str, b: str) -> ChangeSet:
        state_a = self.state_lines(a)
        state_b = self.state_lines(b)
        graph_name = self.read_commit(b).graph_name
        return ChangeSet(
            added=_triples(state_b - state_a),
            removed=_triples(state_a - state_b),
            graph_name=graph_name,
        )

    def log(self) -> list[LogEntry]:
        """Head-to-root entries with changeset sizes recounted from disk."""
        entries = []
        cursor = self.head_id
        while cursor is not None:
            commit = self.read_commit(cursor)
            added, removed = self._changeset_lines(cursor)
            entries.append(LogEntry(commit=commit, added=len(added), removed=len(removed)))
            cursor = commit.parent
        return entries


def format_log(entries: Iterable[LogEntry]) -> str:
    lines = []
    for entry in entries:
        c = entry.commit
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(c.timestamp))
        lines.append(
            f"{c.short_id}  {stamp}Z  +{entry.added} -{entry.removed}  "
            f"{c.author}: {c.message}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
