"""Commit-based changeset store over one named graph.

Each commit is one file, `commits/<id>`: a header of line-oriented
metadata, then the sorted N-Triples lines added and removed against its
parent.  The id is the sha256 of the file's bytes, so identical histories
always produce identical ids.  History is linear: one root, every commit
has at most one child in the stored chain, and the whole store tracks a
single graph name.

A commit file is written under a temporary name and renamed into place
before HEAD moves, so a crash leaves either the previous head or the new
one, never a half-written commit.

The store works on N-Triples lines as `ntriples_line` writes them: a state
is the frozenset of its lines (`state_lines`), and replay is set algebra
over them.  The `kgfuse checkout` and `kgfuse diff` commands answer from
those lines; triples are parsed only for the library calls that return
them (`checkout`, `diff`, `read_changeset`).  Every read of a commit
rehashes its file, so a file edited after commit is an error rather than a
silently different history.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .rdf import (
    _IRI_TEXT, _SURROGATE_RE, ABSOLUTE_IRI_RE, Graph, Triple, ntriples_line, parse_ntriples,
)

# States a store handle keeps for later reads; older ones are replayed again.
_STATE_CACHE_SIZE = 4

# A commit reference shorter than a full id: at least 4 hex digits.
_SHORT_ID_RE = re.compile(r"[0-9a-f]{4,63}")

# A graph name is stored as it is, so it must be an IRI that N-Triples can
# write: that keeps line breaks out of it.
_GRAPH_NAME_RE = re.compile(ABSOLUTE_IRI_RE.pattern + _IRI_TEXT + r"\Z")

# A commit file up to its added lines; "\nremove\n" then ends them.  Lines
# are split at "\n" only: a message may hold a raw "\r" or U+2028.
_HEADER_RE = re.compile(
    "parent (-|[0-9a-f]{64})\ngraph ([^\n]*)\nauthor ([^\n]*)\nmessage ([^\n]*)\n"
    "timestamp (-?[0-9]+)\nadd\n"
)
_REMOVE_MARK = "\nremove\n"


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


def _commit_parts(
    parent: Optional[str],
    graph_name: str,
    author: str,
    message: str,
    timestamp: int,
    add_text: str,
    remove_text: str,
) -> tuple[bytes, ...]:
    """The bytes of a commit file in the four parts that are hashed and
    written one after the other, never copied into one joined payload."""
    header = (
        f"parent {parent or '-'}\ngraph {graph_name}\nauthor {_escape(author)}\n"
        f"message {_escape(message)}\ntimestamp {timestamp}\nadd\n"
    )
    return tuple(part.encode("utf-8") for part in (header, add_text, _REMOVE_MARK, remove_text))


class ChangeStore:
    """On-disk store: `HEAD` plus one file per commit under `commits/`."""

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

    def _read_commit_file(self, commit_id: str) -> tuple[Commit, frozenset[str], frozenset[str]]:
        """A commit with its added and removed lines, read from its one file
        and checked against its id."""
        path = os.path.join(self.commits_dir, commit_id)
        short = commit_id[:12]
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            raise UnknownCommitError(commit_id) from None
        except IsADirectoryError:
            raise StoreError(
                f"commit {short}: {path} is a directory: the store has the old layout of "
                "one directory per commit, which is not read"
            ) from None
        except OSError as err:
            raise StoreError(f"commit {short}: cannot read {path}: {err.strerror}") from None
        if hashlib.sha256(data).hexdigest() != commit_id:
            raise StoreError(f"commit {short}: content does not match its id")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = ""  # malformed, as below
        header = _HEADER_RE.match(text)
        split = text.find(_REMOVE_MARK, header.end()) if header else -1
        if split < 0:
            raise StoreError(f"commit {short}: malformed commit: {path}")
        parent, graph_name, author, message, timestamp = header.groups()
        commit = Commit(
            id=commit_id,
            parent=None if parent == "-" else parent,
            author=_unescape(author),
            message=_unescape(message),
            timestamp=int(timestamp),
            graph_name=graph_name,
        )
        self._commit_cache[commit_id] = commit
        return (
            commit,
            frozenset(filter(None, text[header.end():split].split("\n"))),
            frozenset(filter(None, text[split + len(_REMOVE_MARK):].split("\n"))),
        )

    def read_commit(self, commit_id: str) -> Commit:
        cached = self._commit_cache.get(commit_id)
        if cached is not None:
            return cached
        return self._read_commit_file(commit_id)[0]

    def _changeset_lines(self, commit_id: str) -> tuple[frozenset[str], frozenset[str]]:
        """The added and removed lines of a commit, checked against its id."""
        _, added, removed = self._read_commit_file(commit_id)
        return added, removed

    def read_changeset(self, commit_id: str) -> ChangeSet:
        added, removed = self._changeset_lines(commit_id)
        return ChangeSet(
            added=_triples(added),
            removed=_triples(removed),
            graph_name=self.read_commit(commit_id).graph_name,
        )

    # -- operations ------------------------------------------------------------

    def check_commit(self, graph_name: str, author: str, message: str) -> Optional[str]:
        """Check the fields of a commit into this store before anything is
        written, and return the head it would go onto.  The head state is
        replayed and checked here too, so a damaged store fails now."""
        for label, text in (("graph name", graph_name), ("author", author), ("message", message)):
            if m := _SURROGATE_RE.search(text):
                raise StoreError(
                    f"commit {label} is not UTF-8 text "
                    f"(lone surrogate U+{ord(m.group()):04X}): {text!r}"
                )
        if not _GRAPH_NAME_RE.match(graph_name):
            raise StoreError(
                f"graph name must be an absolute IRI that N-Triples can write: {graph_name!r}"
            )
        head = self.head_id
        if head is not None:
            self.state_lines(head)
            lineage_name = self.read_commit(head).graph_name
            if graph_name != lineage_name:
                raise StoreError(f"store tracks graph {lineage_name!r}, got {graph_name!r}")
        return head

    def commit(
        self,
        graph_name: str,
        new_state: Graph,
        author: str,
        message: str,
        timestamp: Optional[int] = None,
    ) -> Commit:
        head = self.check_commit(graph_name, author, message)
        old_state = self.state_lines(head) if head is not None else frozenset()
        new_lines = frozenset(map(ntriples_line, new_state.triples))
        added = new_lines - old_state
        removed = old_state - new_lines
        if not added and not removed:
            raise EmptyDiffError()
        if timestamp is None:
            timestamp = int(time.time())
        parts = _commit_parts(
            head, graph_name, author, message, timestamp,
            _lines_to_text(added), _lines_to_text(removed),
        )
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        commit_id = digest.hexdigest()
        self.commits_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.commits_dir / f".tmp-{os.getpid()}-{commit_id[:12]}"
        with open(tmp, "wb") as f:
            f.writelines(parts)
        os.replace(tmp, self.commits_dir / commit_id)
        self._write_head(commit_id)
        commit = Commit(commit_id, head, author, message, timestamp, graph_name)
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
        # Walk back to the root or to the nearest cached state; each commit
        # file is checked against its id on the way, so an edited parent
        # pointer fails before it can lead anywhere.
        pending = []
        state: set[str] = set()
        cursor: Optional[str] = commit_id
        while cursor is not None:
            known = self._state_cache.get(cursor)
            if known is not None:
                state = set(known)
                break
            commit, added, removed = self._read_commit_file(cursor)
            pending.append((added, removed))
            cursor = commit.parent
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
            commit, added, removed = self._read_commit_file(cursor)
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
