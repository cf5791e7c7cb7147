"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces each traced kgfuse name, at the place where the
program looks it up, with a wrapper, and `uninstall()` puts the originals
back; nothing under `src/` changes.  Stage functions get spans; hot
functions get counters only, because a span per call would cost more than
the call.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time of the spans directly
inside it.  Each span also records how much the hot counters grew while it
was open, which is how per-row ratios of the query evaluator are measured
where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import kgfuse.cli
import kgfuse.enrich
import kgfuse.fusion
import kgfuse.linkdisc
import kgfuse.rdf
import kgfuse.sparql
import kgfuse.versioning

cli, enrich, fusion, linkdisc, rdf, sparql, versioning = (
    kgfuse.cli, kgfuse.enrich, kgfuse.fusion, kgfuse.linkdisc, kgfuse.rdf,
    kgfuse.sparql, kgfuse.versioning,
)
ChangeStore = versioning.ChangeStore


def _rows(table):
    return {"sparql.rows": len(table.rows)}


def _triples(graph):
    return {"rdf.parse_turtle.triples": len(graph)}


def _candidates(found):
    return {"linkdisc.candidates": len(found)}


def _extraction(result):
    report = result[1]
    return {
        "enrich.items": len(report.items),
        "enrich.ok": report.ok_count,
        "enrich.retries": sum(item.attempts - 1 for item in report.items),
    }


# (owner, attribute, span name, counts taken from the result).  A name is
# patched where the workloads' calls look it up: `kgfuse.cli` holds its own
# bindings, `enrich.parse_response_body` imports `rdf.parse_turtle` when it
# runs, and the benchmark's library calls go through `kgfuse.rdf` and
# `kgfuse.sparql`.
SPANS = [
    (cli, "cmd_fuse", "cli.fuse", None),
    (cli, "cmd_query", "cli.query", None),
    (cli, "cmd_link", "cli.link", None),
    (cli, "cmd_checkout", "cli.checkout", None),
    (cli, "cmd_diff", "cli.diff", None),
    (cli, "cmd_log", "cli.log", None),
    (rdf, "parse_turtle", "rdf.parse_turtle", _triples),
    (cli, "parse_turtle", "rdf.parse_turtle", _triples),
    (versioning, "parse_ntriples", "rdf.parse_ntriples", None),
    (cli, "serialize_canonical", "rdf.serialize_canonical", None),
    (fusion, "extract_vocabulary", "fusion.extract_vocabulary", None),
    (fusion, "shift_namespace", "fusion.shift_namespace", None),
    (linkdisc, "find_links", "linkdisc.find_links", _candidates),
    (linkdisc, "emit_review_report", "linkdisc.emit_review_report", None),
    (sparql, "parse_query", "sparql.parse_query", None),
    (cli, "parse_query", "sparql.parse_query", None),
    (sparql, "evaluate", "sparql.evaluate", _rows),
    (cli, "evaluate", "sparql.evaluate", _rows),
    (ChangeStore, "commit", "versioning.commit", None),
    (ChangeStore, "checkout", "versioning.checkout", None),
    (ChangeStore, "diff", "versioning.diff", None),
    (ChangeStore, "log", "versioning.log", None),
    (enrich, "lazy_extract", "enrich.lazy_extract", _extraction),
]

# (owner, attribute, counter name); Graph.match also counts triples returned.
# The counters in HOT are also recorded per span name, as growth while open.
COUNTERS = [
    (rdf.Graph, "match", "rdf.match.calls"),
    (linkdisc, "tokenize_name", "linkdisc.tokenize_name.calls"),
    (linkdisc, "cosine", "linkdisc.cosine.calls"),
    (ChangeStore, "read_changeset", "versioning.read_changeset.calls"),
    (enrich.RecordedTransport, "get", "enrich.requests"),
]
HOT = ("rdf.match.calls", "rdf.match.triples")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s)
        self.counts: dict[str, float] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inside: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # [id, name, start, child_s, counts at entry]
        self._next_id = 0
        self._op = 0
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        if not self._stack:
            self._op += 1
        self._next_id += 1
        hot = [self.counts[key] for key in HOT]
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, hot])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s, hot = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, self._op, name, start, end, self_s))
        self.self_s[name] += self_s
        self.calls[name] += 1
        grown = self.inside[name]
        for key, before in zip(HOT, hot):
            grown[key] += self.counts[key] - before

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, fn, name, counted):
        enter, exit_, counts = self.enter, self.exit, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if counted is not None:
                for key, value in counted(result).items():
                    counts[key] += value
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts
        if key == "rdf.match.calls":
            @functools.wraps(fn)
            def match(*args, **kwargs):
                found = fn(*args, **kwargs)
                counts["rdf.match.calls"] += 1
                counts["rdf.match.triples"] += len(found)
                return found

            return match

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counted in SPANS:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name, counted))
        for owner, attr, key in COUNTERS:
            self._patch(owner, attr, self._counted(getattr(owner, attr), key))

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write(self, path: Path, label: str) -> None:
        with path.open("a", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "pass": label, "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")


def layer_metrics(t: Tracer, waits: list[float]) -> dict[str, float]:
    """Per-layer values of one traced pass (see BENCHMARK.json `per_layer`)."""
    c, s, calls = t.counts, t.self_s, t.calls

    def ratio(a, b):
        return a / b if b else 0.0

    rows = c["sparql.rows"]
    in_eval = t.inside["sparql.evaluate"]
    store_ops = sum(calls[f"versioning.{op}"] for op in ("commit", "checkout", "diff", "log"))
    return {
        "rdf.parse_turtle.self_s": s["rdf.parse_turtle"],
        "rdf.parse_turtle.triples_per_s": ratio(c["rdf.parse_turtle.triples"], s["rdf.parse_turtle"]),
        "rdf.parse_ntriples.self_s": s["rdf.parse_ntriples"],
        "rdf.serialize_canonical.self_s": s["rdf.serialize_canonical"],
        "rdf.match.calls": c["rdf.match.calls"],
        "rdf.match.triples": c["rdf.match.triples"],
        "fusion.extract_vocabulary.calls": calls["fusion.extract_vocabulary"],
        "fusion.extract_vocabulary.self_s": s["fusion.extract_vocabulary"],
        "fusion.shift_namespace.self_s": s["fusion.shift_namespace"],
        "linkdisc.find_links.self_s": s["linkdisc.find_links"],
        "linkdisc.tokenize_name.calls": c["linkdisc.tokenize_name.calls"],
        "linkdisc.cosine.calls": c["linkdisc.cosine.calls"],
        "linkdisc.candidates": c["linkdisc.candidates"],
        "linkdisc.candidate_ratio": ratio(c["linkdisc.candidates"], c["linkdisc.cosine.calls"]),
        "linkdisc.emit_review_report.self_s": s["linkdisc.emit_review_report"],
        "sparql.parse_query.self_s": s["sparql.parse_query"],
        "sparql.evaluate.self_s": s["sparql.evaluate"],
        "sparql.rows": rows,
        "sparql.match_calls_per_row": ratio(in_eval["rdf.match.calls"], rows),
        "sparql.triples_per_row": ratio(in_eval["rdf.match.triples"], rows),
        "versioning.commit.self_s": s["versioning.commit"],
        "versioning.checkout.self_s": s["versioning.checkout"],
        "versioning.diff.self_s": s["versioning.diff"],
        "versioning.log.self_s": s["versioning.log"],
        "versioning.read_changeset.calls": c["versioning.read_changeset.calls"],
        "versioning.changesets_per_op": ratio(c["versioning.read_changeset.calls"], store_ops),
        "enrich.lazy_extract.self_s": s["enrich.lazy_extract"],
        "enrich.requests": c["enrich.requests"],
        "enrich.retries": c["enrich.retries"],
        "enrich.ok_frac": ratio(c["enrich.ok"], c["enrich.items"]),
        "enrich.politeness_wait_s": sum(waits),
        "cli.fuse.self_s": s["cli.fuse"],
        "cli.query.self_s": s["cli.query"],
        "cli.link.self_s": s["cli.link"],
        "cli.checkout.self_s": s["cli.checkout"],
    }
