"""The benchmark workloads: set-up, one timed pass, and the output checks.

Each workload is a closed loop with one curator: the next operation starts
when the previous one has returned.  A pass is the workload's whole
operation sequence on fresh output paths; `run.py` repeats passes until the
run's time is used up.  Only the calls into kgfuse are timed; the checks
run between operations, outside the timed region, and compare the
program's outputs with what the generator's model says they must be.

kgfuse is reached only through its public surface: `kgfuse.cli.run([...])`
in-process, plus the library calls shown in the README.  Module attributes
are looked up at call time so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import kgfuse.cli
import kgfuse.enrich
import kgfuse.rdf
import kgfuse.sparql
import kgfuse.versioning
from kgfuse.prefixes import DEFAULT_PREFIXES

import gen

KNOWN_DEFECT = "known-defect"


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool = True
    note: str = ""


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    digest: str = ""
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


class Pass:
    """Runs and records the operations of one pass."""

    def __init__(self, directory: Path, tracer=None):
        self.dir = directory
        self.tracer = tracer
        self.result = PassResult()
        self._digest = hashlib.sha256()

    def op(self, kind: str, fn, *args):
        """Time one call into kgfuse; an exception fails the op, not the pass."""
        span = self.tracer.span("op." + kind) if self.tracer else contextlib.nullcontext()
        error = ""
        value = None
        with span:
            started = time.perf_counter()
            try:
                value = fn(*args)
            except Exception as exc:  # the benchmark keeps going and counts it
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - started
        self.result.ops.append(Op(kind, seconds, not error, error))
        return value

    def cli(self, kind: str, argv: list[str]) -> str:
        """One in-process `kgfuse` command; returns what it printed."""
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = kgfuse.cli.run(argv)
            if code != 0:
                raise RuntimeError(f"kgfuse {argv[0]} exited {code}")

        self.op(kind, call)
        return out.getvalue()

    def check(self, ok: bool, note: str = "failed its output check") -> None:
        """Mark the last op failed unless `ok` (a raised op stays failed)."""
        last = self.result.ops[-1]
        if last.ok and not ok:
            last.ok = False
            last.note = note

    def feed(self, data) -> None:
        self._digest.update(data if isinstance(data, bytes) else data.encode("utf-8"))
        self._digest.update(b"\0")

    def finish(self) -> PassResult:
        self.result.digest = self._digest.hexdigest()
        return self.result


def term_nt(term) -> str:
    """N-Triples form of a kgfuse term, written here rather than by kgfuse."""
    if term.kind == "iri":
        return f"<{term.value}>"
    if term.kind == "blank":
        return f"_:{term.value}"
    body = f'"{term.value}"'
    if term.language:
        return f"{body}@{term.language}"
    return f"{body}^^<{term.datatype}>" if term.datatype else body


def triple_nt(t) -> str:
    return f"{term_nt(t.s)} {term_nt(t.p)} {term_nt(t.o)} ."


def read_csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

class Catalogue:
    """Fuse two exports, run whole-graph reports, then name lookups."""

    name = "catalogue"

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.n_persons = max(20, int(400 * scale))
        self.n_documents = max(10, int(200 * scale))
        self.n_lookups = max(10, int(100 * scale))

    def sizes(self) -> dict:
        return {"persons_per_export": self.n_persons, "documents": self.n_documents,
                "lookups": self.n_lookups, "reports": len(gen.REPORTS)}

    def setup(self, d: Path) -> None:
        rng = random.Random(f"{self.seed}:catalogue")
        self.cat = gen.catalogues(rng, self.n_persons, self.n_persons, self.n_documents)
        self.names = gen.lookup_names(rng, self.cat, self.n_lookups)
        d.mkdir(parents=True, exist_ok=True)
        (d / "leipzig.ttl").write_text(self.cat.left.turtle(), encoding="utf-8")
        (d / "helmstedt.ttl").write_text(self.cat.right.turtle(), encoding="utf-8")
        (d / "renames.tsv").write_text(gen.RENAMES, encoding="utf-8")
        for name, text in gen.REPORTS.items():
            (d / f"{name}.rq").write_text(text, encoding="utf-8")
        self.inputs = d
        self._expected = None

    def load_input(self) -> Path:
        return self.inputs / "leipzig.ttl"

    def expected(self) -> dict:
        if self._expected is None:
            merged = gen.fused_lines(self.cat, scoped_blanks=True)
            self._expected = {
                "merge": len(merged),
                "union": len(gen.fused_lines(self.cat, scoped_blanks=False)),
                "iri_lines": {line for line in merged if "_:" not in line},
                "reports": gen.expected_reports(self.cat),
                "lookups": {n: gen.expected_lookup(self.cat, n) for n in set(self.names)},
            }
        return self._expected

    def run_pass(self, p: Pass) -> None:
        src, d = self.inputs, p.dir
        fused = d / "fused.nt"
        p.cli("fuse", [
            "fuse", "--left", str(src / "leipzig.ttl"), "--right", str(src / "helmstedt.ttl"),
            "--left-ns", gen.LEIPZIG_NS, "--right-ns", gen.HELMSTEDT_NS,
            "--target-ns", gen.PCP_NS, "--mapping", str(src / "renames.tsv"),
            "--out", str(fused), "--store", str(d / "store"),
            "--author", gen.HISTORY_AUTHOR, "--message", "fuse catalogues",
        ])
        fused_count = self._check_fuse(p, fused)
        for name in gen.REPORTS:
            out = d / f"{name}.csv"
            p.cli("report", ["query", "--graphs", str(fused), "--query", str(src / f"{name}.rq"),
                             "--format", "csv", "--out", str(out)])
            if p.result.ops[-1].ok:
                rows = read_csv(out)
                p.check(rows == self.expected()["reports"][name], f"report {name} differs")
                p.feed(out.read_bytes())

        def load():
            return kgfuse.rdf.parse_turtle(fused.read_text(encoding="utf-8"))

        graph = p.op("load", load)
        p.check(graph is not None and len(graph) == fused_count,
                "loaded graph size differs from the fused file")
        template = kgfuse.sparql.QueryTemplate.from_text(gen.LOOKUP_TEMPLATE)

        def lookup(name):
            text = kgfuse.sparql.instantiate(template, {"name": name})
            query = kgfuse.sparql.parse_query(text, prefixes=DEFAULT_PREFIXES)
            return kgfuse.sparql.evaluate(query, graph)

        for name in self.names:
            table = p.op("lookup", lookup, name)
            if table is not None:
                rows = [tuple(term_nt(t) for t in row) for row in table.rows]
                p.check(rows == self.expected()["lookups"][name], f"lookup {name!r} differs")
                p.feed(repr(rows))

    def _check_fuse(self, p: Pass, fused: Path) -> int:
        """Checks the fused file; returns its triple count (-1 if there is none)."""
        if not p.result.ops[-1].ok:
            return -1
        text = fused.read_text(encoding="utf-8")
        p.feed(text)
        lines = text.splitlines()
        exp = self.expected()
        iri_ok = {line for line in lines if "_:" not in line} == exp["iri_lines"]
        if iri_ok and len(lines) == exp["merge"]:
            return len(lines)
        if iri_ok and len(lines) == exp["union"]:
            # Blank nodes with equal labels in the two exports were merged
            # (ROADMAP item 4).  The op still counts as failed.
            p.check(False, f"{KNOWN_DEFECT}: fused {len(lines)} triples, RDF merge "
                           f"expects {exp['merge']}; {exp['merge'] - len(lines)} "
                           "blank-node triples were merged across files")
        else:
            p.check(False, f"fused {len(lines)} triples, RDF merge expects {exp['merge']}")
        return len(lines)


# ---------------------------------------------------------------------------
# link
# ---------------------------------------------------------------------------

class Link:
    """One `kgfuse link --sameas` call with the bundled cross-mode config."""

    name = "link"

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.n_persons = max(20, int(130 * scale))

    def sizes(self) -> dict:
        return {"persons_per_export": self.n_persons}

    def setup(self, d: Path) -> None:
        rng = random.Random(f"{self.seed}:link")
        self.cat = gen.catalogues(rng, self.n_persons, self.n_persons, 0, duplicate_share=0.15)
        d.mkdir(parents=True, exist_ok=True)
        (d / "leipzig.ttl").write_text(self.cat.left.turtle(), encoding="utf-8")
        (d / "helmstedt.ttl").write_text(self.cat.right.turtle(), encoding="utf-8")
        (d / "link.cfg").write_text(gen.LINK_CONFIG, encoding="utf-8")
        self.inputs = d
        self._oracle = None

    def load_input(self) -> Path:
        return self.inputs / "leipzig.ttl"

    def oracle(self) -> dict[tuple[str, str], float]:
        """Every pair the token-cosine oracle scores at or above review."""
        if self._oracle is None:
            right = [(q.iri, gen.name_values(q)) for q in self.cat.right_persons]
            self._oracle = {}
            for a in self.cat.left_persons:
                va = gen.name_values(a)
                for iri, vb in right:
                    score = gen.oracle_score(va, vb)
                    if score >= gen.LINK_REVIEW:
                        self._oracle[(a.iri, iri)] = score
        return self._oracle

    def run_pass(self, p: Pass) -> None:
        src, d = self.inputs, p.dir
        p.cli("link", ["link", "--config", str(src / "link.cfg"), "--left", str(src / "leipzig.ttl"),
                       "--right", str(src / "helmstedt.ttl"), "--out", str(d / "report.csv"),
                       "--sameas", str(d / "links.nt")])
        if not p.result.ops[-1].ok:
            return
        report = (d / "report.csv").read_bytes()
        links = (d / "links.nt").read_text(encoding="utf-8")
        p.feed(report)
        p.feed(links)
        p.check(*self._check(read_csv(d / "report.csv"), links))

    def _check(self, rows, links: str) -> tuple[bool, str]:
        oracle = self.oracle()
        got = {}
        for row in rows[1:]:
            source, target, score, status = row[:4]
            got[(source, target)] = (score, status)
        if len(got) != len(rows) - 1:
            return False, "the review report lists a pair twice"
        if set(got) != set(oracle):
            return False, (f"{len(set(oracle) - set(got))} oracle pairs missing, "
                           f"{len(set(got) - set(oracle))} extra candidates")
        accepted = set()
        for pair, (score, status) in got.items():
            want = oracle[pair]
            if score != repr(want):
                return False, f"score of {pair} is {score}, oracle says {want!r}"
            if status != ("accepted" if want >= gen.LINK_ACCEPT else "review"):
                return False, f"status of {pair} is {status}"
            if status == "accepted":
                accepted.add(pair)
        missing = [pair for pair in self.cat.planted if pair not in accepted]
        if missing:
            return False, f"{len(missing)} planted duplicate(s) not accepted"
        sameas = {f"<{s}> <{gen.OWL_SAMEAS}> <{t}> ." for s, t in accepted}
        if links != gen.canonical_text(sameas):
            return False, "owl:sameAs output differs from the accepted pairs"
        return True, ""


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------

class History:
    """Enrichment batches and curation edits, each committed; reads after writes."""

    name = "history"

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.n_persons = max(4, int(100 * scale))
        self.n_writes = max(4, int(60 * scale))

    def sizes(self) -> dict:
        return {"base_persons": self.n_persons, "writes": self.n_writes,
                "enrich_batch": gen.enrich_batch(self.n_persons, self.n_writes)}

    def setup(self, d: Path) -> None:
        rng = random.Random(f"{self.seed}:history")
        self.hist = gen.history(rng, self.n_persons, self.n_writes)
        d.mkdir(parents=True, exist_ok=True)
        (d / "base.ttl").write_text(self.hist.base.turtle(), encoding="utf-8")
        recorded = kgfuse.enrich.RecordedTransport(d / "recorded")
        for gnd in sorted(self.hist.outcomes):
            status, timeout = self.hist.outcomes[gnd]
            body = gen.gnd_body(self.hist.documents.get(gnd, ()))
            recorded.record(gen.dnb_url(gnd), body=body, status=status or 200, timeout=timeout)
        self.inputs = d

    def load_input(self) -> Path:
        return self.inputs / "base.ttl"

    def run_pass(self, p: Pass) -> None:
        hist, d = self.hist, p.dir
        store = d / "store"
        endpoint = kgfuse.enrich.builtin_endpoint("dnb")
        waits = []
        p.result.facts["politeness_wait_s"] = waits
        expected = {gen.nt_line(t, gen.PCP_NS) for t in hist.base.triples()}
        state = None
        commits: list[str] = []
        digests: list[str] = []
        window: dict[int, frozenset[str]] = {}
        log_rows: list[tuple] = []
        for w in range(self.n_writes):
            timestamp = gen.HISTORY_EPOCH + 60 * w
            if w == 0:
                message = "import base catalogue"
                base = p.op("load", lambda: kgfuse.rdf.parse_turtle(
                    self.load_input().read_text(encoding="utf-8")))
                p.check(base is not None and {triple_nt(t) for t in base} == expected,
                        "base graph differs from the generator's")
                state = set(base.triples) if base is not None else set()
            elif hist.plan[w - 1][0] == "enrich":
                batch = hist.plan[w - 1][1]
                message = f"enrich {len(batch)} persons from dnb"
                added = self._enrich(p, batch, endpoint, waits)
                state |= added
                for idx in batch:
                    gnd = hist.persons[idx].gnd
                    if hist.outcomes[gnd][0] == 200:
                        expected |= {gen.nt_line(t) for t in hist.documents[gnd]}
                        expected.add(f"<{hist.persons[idx].iri}> <{gen.OWL_SAMEAS}> <{gen.GND_NS}{gnd}> .")
            else:
                _, removed, readded = hist.plan[w - 1]
                message = f"curate: drop {len(removed)} and restore {len(readded)} birth dates"
                state = (state - {self._triple(t) for t in removed}) | {self._triple(t) for t in readded}
                expected = (expected - {gen.nt_line(t) for t in removed}) | {gen.nt_line(t) for t in readded}
            graph = kgfuse.rdf.Graph(name=gen.HISTORY_GRAPH, triples=state)

            def commit():
                return kgfuse.versioning.ChangeStore(store).commit(
                    gen.HISTORY_GRAPH, graph, gen.HISTORY_AUTHOR, message, timestamp)

            before = window.get(w - 1, frozenset())
            made = p.op("commit", commit)
            parent = commits[-1] if commits else None
            p.check(made is not None and made.parent == parent, "commit parent differs")
            commits.append(made.id if made is not None else "")
            window[w] = frozenset(expected)
            window.pop(w - 11, None)
            text = gen.canonical_text(expected)
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            log_rows.append((timestamp, len(expected - before), len(before - expected), message))
            p.feed(commits[-1])

            c = hist.checkouts[w]
            out = d / "checkout.nt"
            p.cli("checkout", ["checkout", "--store", str(store), commits[c], "-o", str(out)])
            if p.result.ops[-1].ok:
                data = out.read_bytes()
                p.check(hashlib.sha256(data).hexdigest() == digests[c],
                        f"checkout of commit {c} differs from the expected state")
                p.feed(data)
            if w % 10 == 9:
                a = w - 10 if w >= 10 else 0
                shown = p.cli("diff", ["diff", "--store", str(store), commits[a], commits[w]])
                if p.result.ops[-1].ok:
                    p.check(shown == self._expected_diff(window[a], window[w]),
                            f"diff {a}..{w} differs")
                    p.feed(shown)
                shown = p.cli("log", ["log", "--store", str(store)])
                if p.result.ops[-1].ok:
                    p.check(shown == self._expected_log(commits, log_rows), "log differs")
                    p.feed(shown)
        head_bytes = len(gen.canonical_text(expected).encode("utf-8"))
        store_bytes = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
        p.result.facts["store_bytes_per_user_byte"] = store_bytes / head_bytes

    @staticmethod
    def _triple(t):
        s, pr, o = t
        return kgfuse.rdf.Triple(kgfuse.rdf.iri(s[1]), kgfuse.rdf.iri(pr[1]),
                                 kgfuse.rdf.literal(o[1], datatype=o[2]))

    def _enrich(self, p: Pass, batch, endpoint, waits) -> set:
        hist = self.hist
        gnds = [hist.persons[i].gnd for i in batch]

        def extract():
            transport = kgfuse.enrich.RecordedTransport(self.inputs / "recorded")
            ids = [kgfuse.enrich.normalize_gnd(g) for g in gnds]
            return kgfuse.enrich.lazy_extract(ids, endpoint, transport, sleep=waits.append)

        result = p.op("enrich", extract)
        if result is None:
            return set()
        graph, report = result
        want_lines = set()
        ok = True
        for item, gnd in zip(report.items, gnds):
            status, timeout = hist.outcomes[gnd]
            if status == 200:
                want = ("ok", 1)
                want_lines |= {gen.nt_line(t) for t in hist.documents[gnd]}
            elif status == 404:
                want = ("not-found", 1)
            else:
                want = ("failed", endpoint.max_retries + 1)
            ok = ok and (item.gnd, item.outcome, item.attempts) == (gnd,) + want
        got_lines = {triple_nt(t) for t in graph}
        p.check(ok and len(report.items) == len(gnds) and got_lines == want_lines,
                "extraction differs from the recorded responses")
        p.feed("\n".join(sorted(got_lines)))
        sameas = kgfuse.rdf.iri(gen.OWL_SAMEAS)
        links = {
            kgfuse.rdf.Triple(kgfuse.rdf.iri(hist.persons[i].iri), sameas,
                              kgfuse.rdf.iri(gen.GND_NS + item.gnd))
            for i, item in zip(batch, report.items) if item.outcome == "ok"
        }
        return set(graph.triples) | links

    @staticmethod
    def _expected_diff(a: frozenset[str], b: frozenset[str]) -> str:
        removed = sorted(a - b)
        added = sorted(b - a)
        return "".join(f"- {line}\n" for line in removed) + "".join(f"+ {line}\n" for line in added)

    @staticmethod
    def _expected_log(commits: list[str], rows: list[tuple]) -> str:
        lines = []
        for cid, (ts, added, removed, message) in zip(reversed(commits), reversed(rows)):
            stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))
            lines.append(f"{cid[:12]}  {stamp}Z  +{added} -{removed}  {gen.HISTORY_AUTHOR}: {message}")
        return "".join(line + "\n" for line in lines)


WORKLOADS = {cls.name: cls for cls in (Catalogue, Link, History)}
