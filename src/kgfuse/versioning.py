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

The store works on N-Triples lines as `ntriples_line` writes them and
never parses them: `checkout` returns a state as the frozenset of its
lines, `diff` and `read_changeset` return a `ChangeSet` of lines, and
replay is set algebra over them.  `read_changeset` is the one reader of a
commit file: `checkout`, `log` and the head check before a commit all go
through it.  It rehashes the file, so a file edited after commit is an
error rather than a silently different history, and it rejects a line both
added and removed.

A handle keeps one bounded cache: the last `_STATE_CACHE_SIZE` states it
read or wrote, each with its `Commit`.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .prefixes import KgfuseError
from .rdf import _SURROGATE_RE, Graph, check_graph_name, ntriples_line
# unused here; bench/tracing.py looks it up in this module
from .rdf import parse_ntriples  # noqa: F401

# States a store handle keeps for later reads; older ones are replayed again.
_STATE_CACHE_SIZE = 4

# A commit id, and a reference shorter than one: at least 4 hex digits.
_ID_RE = re.compile(r"[0-9a-f]{64}")
_SHORT_ID_RE = re.compile(r"[0-9a-f]{4,63}")

# A commit file up to its added lines; "\nremove\n" then ends them.  Lines
# are split at "\n" only: a message may hold a raw "\r" or U+2028.  A
# timestamp of more than 19 digits could never be formatted (`_stamp`).
_HEADER_RE = re.compile(
    "parent (-|[0-9a-f]{64})\ngraph ([^\n]*)\nauthor ([^\n]*)\nmessage ([^\n]*)\n"
    "timestamp (-?[0-9]{1,19})\nadd\n"
)
_REMOVE_MARK = "\nremove\n"
# A backslash and the character it escapes in a header field.
_ESCAPED_RE = re.compile(r"\\(.)", re.DOTALL)


class StoreError(KgfuseError, RuntimeError):
    pass


class EmptyDiffError(StoreError):
    def __init__(self):
        super().__init__("new state is identical to the current head; nothing to commit")


class UnknownCommitError(StoreError):
    def __init__(self, commit_id: str):
        self.commit_id = commit_id
        super().__init__(f"unknown commit id: {commit_id}")


class Commit(NamedTuple):
    id: str
    parent: Optional[str]
    author: str
    message: str
    timestamp: int
    graph_name: str

    @property
    def short_id(self) -> str:
        return self.id[:12]


class ChangeSet(NamedTuple):
    """N-Triples lines added and removed, two disjoint sets; `commit` is the
    commit whose file holds them, None for a `diff`."""

    added: frozenset[str]
    removed: frozenset[str]
    commit: Optional[Commit] = None

    def apply(self, state: frozenset[str]) -> frozenset[str]:
        return (state - self.removed) | self.added


class LogEntry(NamedTuple):
    commit: Commit
    added: int
    removed: int


def _lines_to_text(lines: Iterable[str]) -> str:
    ordered = sorted(lines)
    return "\n".join(ordered) + ("\n" if ordered else "")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t")


def _unescape(value: str) -> str:
    """`_escape` undone: `\\n` and `\\t` are a newline and a tab, a backslash
    before any other character is dropped, and a trailing one stays."""
    return _ESCAPED_RE.sub(lambda m: {"n": "\n", "t": "\t"}.get(m[1], m[1]), value)


def _stamp(timestamp: int) -> Optional[str]:
    """A commit time as `format_log` writes it, or None if `time.gmtime`
    cannot format it."""
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(timestamp))
    except (OverflowError, OSError, ValueError):
        return None


class ChangeStore:
    """On-disk store: `HEAD` plus one file per commit under `commits/`."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # created by the first commit, so reading a store writes nothing
        self.commits_dir = self.path / "commits"
        # Committed data is immutable, so the cache never invalidates.
        self._state_cache: dict[str, tuple[Commit, frozenset[str]]] = {}

    # -- basics --------------------------------------------------------------

    @property
    def head_id(self) -> Optional[str]:
        head = self.path / "HEAD"
        if not head.exists():
            return None
        # decoded from its bytes, so that no newline is translated
        try:
            return head.read_bytes().decode("utf-8").strip() or None
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            raise StoreError(f"cannot read HEAD: {head}: {reason}") from None

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

    def read_changeset(self, commit_id: str) -> ChangeSet:
        """A commit's added and removed lines, with the commit, read from its
        one file and checked against its id.  Anything but a full id is
        unknown before a path is opened."""
        if not _ID_RE.fullmatch(commit_id):
            raise UnknownCommitError(commit_id)
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
        if split < 0 or _stamp(int(header.group(5))) is None:
            raise StoreError(f"commit {short}: malformed commit: {path}")
        added = frozenset(filter(None, text[header.end():split].split("\n")))
        removed = frozenset(filter(None, text[split + len(_REMOVE_MARK):].split("\n")))
        if not added.isdisjoint(removed):
            raise StoreError(f"commit {short}: a changeset cannot add and remove the same line")
        parent, graph_name, author, message, timestamp = header.groups()
        return ChangeSet(
            added,
            removed,
            Commit(
                id=commit_id,
                parent=None if parent == "-" else parent,
                author=_unescape(author),
                message=_unescape(message),
                timestamp=int(timestamp),
                graph_name=graph_name,
            ),
        )

    # -- operations ------------------------------------------------------------

    def check_commit(self, graph_name: str, author: str, message: str) -> Optional[str]:
        """Check the fields of a commit into this store before anything is
        written, and return the head it would go onto.  The head state is
        replayed and checked here too, so a damaged store fails now."""
        # stored as it is: an IRI N-Triples can write holds no line break
        check_graph_name(graph_name, StoreError)
        for label, text in (("author", author), ("message", message)):
            if m := _SURROGATE_RE.search(text):
                raise StoreError(
                    f"commit {label} is not UTF-8 text "
                    f"(lone surrogate U+{ord(m.group()):04X}): {text!r}"
                )
        head = self.head_id
        if head is not None:
            lineage_name = self._replay(head)[0].graph_name
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
        old_state = self.checkout(head) if head is not None else frozenset()
        new_lines = frozenset(map(ntriples_line, new_state.triples))
        added = new_lines - old_state
        removed = old_state - new_lines
        if not added and not removed:
            raise EmptyDiffError()
        if timestamp is None:
            timestamp = int(time.time())
        if _stamp(timestamp) is None:
            raise StoreError(f"commit timestamp is out of range: {timestamp}")
        header = (
            f"parent {head or '-'}\ngraph {graph_name}\nauthor {_escape(author)}\n"
            f"message {_escape(message)}\ntimestamp {timestamp}\nadd\n"
        )
        # Encoded part by part and joined as bytes: joining the text first
        # raised the peak RSS of a 0.9 MB commit by about as much again
        # (CPython 3.11, glibc malloc).
        data = b"".join(
            part.encode("utf-8")
            for part in (header, _lines_to_text(added), _REMOVE_MARK, _lines_to_text(removed))
        )
        commit_id = hashlib.sha256(data).hexdigest()
        self.commits_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.commits_dir / f".tmp-{os.getpid()}-{commit_id[:12]}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, self.commits_dir / commit_id)
        self._write_head(commit_id)
        commit = Commit(commit_id, head, author, message, timestamp, graph_name)
        self._remember(commit, new_lines)
        return commit

    def _remember(self, commit: Commit, state: frozenset[str]) -> tuple[Commit, frozenset[str]]:
        entry = self._state_cache[commit.id] = (commit, state)
        if len(self._state_cache) > _STATE_CACHE_SIZE:
            del self._state_cache[next(iter(self._state_cache))]
        return entry

    def checkout(self, commit_id: str) -> frozenset[str]:
        """The N-Triples lines of the graph at `commit_id`."""
        return self._replay(commit_id)[1]

    def _replay(self, commit_id: str) -> tuple[Commit, frozenset[str]]:
        """The commit at `commit_id` and its state, from the cache or replayed
        into it."""
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
                state = set(known[1])
                break
            changeset = self.read_changeset(cursor)
            pending.append(changeset)
            cursor = changeset.commit.parent
        for changeset in reversed(pending):
            state -= changeset.removed
            state |= changeset.added
        return self._remember(pending[0].commit, frozenset(state))

    def diff(self, a: str, b: str) -> ChangeSet:
        """The lines that take the state at `a` to the state at `b`."""
        state_a = self.checkout(a)
        state_b = self.checkout(b)
        return ChangeSet(added=state_b - state_a, removed=state_a - state_b)

    def log(self) -> list[LogEntry]:
        """Head-to-root entries with changeset sizes recounted from disk."""
        entries = []
        cursor = self.head_id
        while cursor is not None:
            changeset = self.read_changeset(cursor)
            commit = changeset.commit
            entries.append(LogEntry(commit, len(changeset.added), len(changeset.removed)))
            cursor = commit.parent
        return entries


def format_log(entries: Iterable[LogEntry]) -> str:
    lines = []
    for entry in entries:
        c = entry.commit
        lines.append(
            f"{c.short_id}  {_stamp(c.timestamp)}Z  +{entry.added} -{entry.removed}  "
            f"{c.author}: {c.message}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
