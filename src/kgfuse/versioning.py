"""Commit-based changeset store over one named graph.

Each commit records the triples added and removed against its parent as
sorted N-Triples files plus line-oriented metadata; the commit id is a
content hash over all of it, so identical histories always produce
identical ids.  History is linear: one root, every commit has at most one
child in the stored chain, and the whole store tracks a single graph name.

Commits are written into a temporary directory and renamed into place
before HEAD moves, so a crash leaves either the previous head or the new
one, never a half-written commit.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .rdf import Graph, Triple, TurtleSyntaxError, ntriples_line, parse_ntriples, parse_turtle


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


def _triples_to_text(triples: Iterable[Triple]) -> str:
    lines = sorted(ntriples_line(t) for t in triples)
    return "\n".join(lines) + ("\n" if lines else "")


def _triples_from_text(text: str) -> frozenset[Triple]:
    try:
        return parse_ntriples(text).triples
    except TurtleSyntaxError:
        # hand-edited changeset files may use the wider Turtle subset
        return parse_turtle(text).triples


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t")


def _unescape(value: str) -> str:
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


def _commit_id(
    parent: Optional[str],
    graph_name: str,
    author: str,
    message: str,
    timestamp: int,
    add_text: str,
    remove_text: str,
) -> str:
    payload = "\n".join(
        [
            "parent " + (parent or "-"),
            "graph " + graph_name,
            "author " + _escape(author),
            "message " + _escape(message),
            "timestamp " + str(timestamp),
            "add",
            add_text,
            "remove",
            remove_text,
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ChangeStore:
    """On-disk store: `HEAD` plus one directory per commit under `commits/`."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.commits_dir = self.path / "commits"
        self.commits_dir.mkdir(parents=True, exist_ok=True)
        # Committed data is immutable, so read caches never invalidate.
        self._commit_cache: dict[str, Commit] = {}
        self._changeset_cache: dict[str, ChangeSet] = {}
        self._state_cache: dict[str, frozenset[Triple]] = {}

    # -- basics --------------------------------------------------------------

    @property
    def head_id(self) -> Optional[str]:
        head = self.path / "HEAD"
        if not head.exists():
            return None
        content = head.read_text(encoding="utf-8").strip()
        return content or None

    def _write_head(self, commit_id: str) -> None:
        tmp = self.path / "HEAD.tmp"
        tmp.write_text(commit_id + "\n", encoding="utf-8")
        os.replace(tmp, self.path / "HEAD")

    def _commit_path(self, commit_id: str) -> Path:
        return self.commits_dir / commit_id

    def read_commit(self, commit_id: str) -> Commit:
        cached = self._commit_cache.get(commit_id)
        if cached is not None:
            return cached
        meta = self._commit_path(commit_id) / "meta"
        if not meta.exists():
            raise UnknownCommitError(commit_id)
        fields: dict[str, str] = {}
        for line in meta.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("\t")
            fields[key] = _unescape(value)
        parent = fields["parent"] or None
        commit = Commit(
            id=commit_id,
            parent=parent,
            author=fields["author"],
            message=fields["message"],
            timestamp=int(fields["timestamp"]),
            graph_name=fields["graph"],
        )
        self._commit_cache[commit_id] = commit
        return commit

    def read_changeset(self, commit_id: str) -> ChangeSet:
        cached = self._changeset_cache.get(commit_id)
        if cached is not None:
            return cached
        base = self._commit_path(commit_id)
        if not base.exists():
            raise UnknownCommitError(commit_id)
        commit = self.read_commit(commit_id)
        changeset = ChangeSet(
            added=_triples_from_text((base / "add.nt").read_text(encoding="utf-8")),
            removed=_triples_from_text((base / "remove.nt").read_text(encoding="utf-8")),
            graph_name=commit.graph_name,
        )
        self._changeset_cache[commit_id] = changeset
        return changeset

    def _chain(self, commit_id: str) -> list[str]:
        """Commit ids from the root down to `commit_id`."""
        chain = []
        cursor: Optional[str] = commit_id
        while cursor is not None:
            chain.append(cursor)
            cursor = self.read_commit(cursor).parent
        chain.reverse()
        return chain

    # -- operations ------------------------------------------------------------

    def commit(
        self,
        graph_name: str,
        new_state: Graph,
        author: str,
        message: str,
        timestamp: Optional[int] = None,
    ) -> Commit:
        head = self.head_id
        if head is not None:
            lineage_name = self.read_commit(head).graph_name
            if graph_name != lineage_name:
                raise StoreError(
                    f"store tracks graph {lineage_name!r}, got {graph_name!r}"
                )
            old_state = self._state_at(head)
        else:
            old_state = frozenset()
        new_triples = new_state.triples
        added = new_triples - old_state
        removed = old_state - new_triples
        if not added and not removed:
            raise EmptyDiffError()
        if timestamp is None:
            timestamp = int(time.time())
        add_text = _triples_to_text(added)
        remove_text = _triples_to_text(removed)
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
        self._changeset_cache[commit_id] = ChangeSet(
            added=frozenset(added), removed=frozenset(removed), graph_name=graph_name
        )
        self._state_cache[commit_id] = frozenset(new_triples)
        return commit

    def _state_at(self, commit_id: str) -> frozenset[Triple]:
        cached = self._state_cache.get(commit_id)
        if cached is not None:
            return cached
        chain = self._chain(commit_id)
        # resume from the deepest ancestor whose state is already known
        state: frozenset[Triple] = frozenset()
        start = 0
        for idx in range(len(chain) - 1, -1, -1):
            known = self._state_cache.get(chain[idx])
            if known is not None:
                state = known
                start = idx + 1
                break
        for cid in chain[start:]:
            state = self.read_changeset(cid).apply(state)
            self._state_cache[cid] = state
        return state

    def checkout(self, commit_id: str) -> Graph:
        commit = self.read_commit(commit_id)
        return Graph(name=commit.graph_name, triples=self._state_at(commit_id))

    def diff(self, a: str, b: str) -> ChangeSet:
        state_a = self._state_at(a)
        state_b = self._state_at(b)
        graph_name = self.read_commit(b).graph_name
        return ChangeSet(
            added=state_b - state_a, removed=state_a - state_b, graph_name=graph_name
        )

    def log(self) -> list[LogEntry]:
        """Head-to-root entries with changeset sizes recounted from disk."""
        entries = []
        cursor = self.head_id
        while cursor is not None:
            commit = self.read_commit(cursor)
            changeset = self.read_changeset(cursor)
            entries.append(
                LogEntry(commit=commit, added=len(changeset.added), removed=len(changeset.removed))
            )
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
