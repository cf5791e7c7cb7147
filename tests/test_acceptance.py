"""Acceptance gate: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines.  Oracles here are independent of the code paths they check: raw
triple-set scans, an all-assignments evaluator, exhaustive pair loops, and
manual changeset replay.
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import fixtures
from kgfuse.enrich import GndId, RecordedTransport, builtin_endpoint, dnb_document_url, lazy_extract, normalize_gnd
from kgfuse.fusion import compute_overlap, extract_vocabulary
from kgfuse.linkdisc import ACCEPTED, LinkConfig, cosine, find_links
from kgfuse.prefixes import (
    DEFAULT_PREFIXES,
    HELMSTEDT_NS,
    LEIPZIG_NS,
    PCP_NS,
    RDF_TYPE,
    RDFS_LABEL,
)
from kgfuse.rdf import Graph, Triple, iri, literal, ntriples_line, parse_turtle, serialize_canonical
from kgfuse.sparql import evaluate, parse_query
from kgfuse.versioning import ChangeStore

from test_sparql import ORACLE_QUERIES, _random_graph, naive_evaluate

PERSON_CONFIG = LinkConfig(
    source_class=LEIPZIG_NS + "Person",
    target_class=HELMSTEDT_NS + "Person",
    compare_properties=tuple(
        (s, t)
        for s in (RDFS_LABEL, LEIPZIG_NS + "surname", LEIPZIG_NS + "forename")
        for t in (RDFS_LABEL, HELMSTEDT_NS + "surname", HELMSTEDT_NS + "forename")
    ),
    accept_threshold=0.8,
    review_threshold=0.5,
)


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_similarity_reproduction():
    started = time.perf_counter()
    score = cosine({"heinrich", "matthias"}, {"andreas", "heinrich", "matthias"})
    assert repr(score) == "0.8164965809277261"
    assert score == 2 / math.sqrt(6)
    candidates = find_links(
        fixtures.persons_leipzig(), fixtures.persons_helmstedt(), PERSON_CONFIG
    )
    accepted = [c for c in candidates if c.status == ACCEPTED]
    assert len(candidates) == 1 and accepted == candidates
    only = accepted[0]
    assert only.source == LEIPZIG_NS + "heinrichmatthiasheinrichs"
    assert only.target == HELMSTEDT_NS + "13084"
    assert repr(only.score) == "0.8164965809277261"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"token-cosine prints 0.8164965809277261 and links exactly one pair ({elapsed:.3f}s)")


def test_criterion_2_exact_match_emptiness():
    started = time.perf_counter()
    cfg = LinkConfig(
        source_class=PERSON_CONFIG.source_class,
        target_class=PERSON_CONFIG.target_class,
        compare_properties=PERSON_CONFIG.compare_properties,
        accept_threshold=1.0,
        review_threshold=0.5,
    )
    candidates = find_links(fixtures.persons_leipzig(), fixtures.persons_helmstedt(), cfg)
    assert [c for c in candidates if c.status == ACCEPTED] == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"threshold 1.0 accepts no person pair ({elapsed:.3f}s)")


def test_criterion_3_gnd_normalization():
    assert normalize_gnd("https://d-nb.info/gnd/118755951").number == "118755951"
    assert (
        dnb_document_url(GndId("118755951"))
        == "https://d-nb.info/gnd/118755951/about/lds"
    )
    _report(3, "GND URL normalizes to 118755951 and document URL is byte-exact")


@settings(max_examples=1000, deadline=None)
@given(
    st.sets(st.text("abcdefghij", min_size=1, max_size=4), max_size=40),
    st.sets(st.text("abcdefghij", min_size=1, max_size=4), max_size=40),
)
def test_criterion_4_overlap_identity_property(names_a, names_b):
    stats = compute_overlap(
        {f"http://a.example/#{n}" for n in names_a},
        {f"http://b.example/#{n}" for n in names_b},
    )
    assert stats.union_a == stats.joint + stats.disjoint_a
    assert stats.union_b == stats.joint + stats.disjoint_b


def test_criterion_4_overlap_table_values():
    props_a, classes_a = extract_vocabulary(fixtures.leipzig_catalogue())
    props_b, classes_b = extract_vocabulary(fixtures.helmstedt_catalogue())
    prop_stats = compute_overlap(props_a, props_b)
    assert (prop_stats.joint, prop_stats.disjoint_a, prop_stats.disjoint_b) == (21, 51, 35)
    assert (prop_stats.union_a, prop_stats.union_b) == (72, 56)
    class_stats = compute_overlap(classes_a, classes_b)
    assert (class_stats.joint, class_stats.disjoint_a, class_stats.disjoint_b) == (16, 23, 5)
    assert (class_stats.union_a, class_stats.union_b) == (39, 21)
    _report(4, "overlap fixtures report 21/51/35 (72,56) and 16/23/5 (39,21); identity property holds")


def _tally_documents(g: Graph) -> dict[tuple[str, int], int]:
    """Brute-force enumeration over raw triples, no evaluator involved."""
    triples = {(t.s.value, t.p.value, t.o) for t in g.triples if t.s.kind == "iri"}
    doc_type = PCP_NS + "QualificationDocument"
    prof_type = PCP_NS + "Professor"
    typed = lambda cls: {s for (s, p, o) in triples if p == RDF_TYPE and o == iri(cls)}
    docs = typed(doc_type)
    professors = typed(prof_type)
    counts: dict[tuple[str, int], int] = {}
    for doc in sorted(docs):
        praeses = {o.value for (s, p, o) in triples if s == doc and p == PCP_NS + "praeses" and o.kind == "iri"}
        if not praeses & professors:
            continue
        faculties = [o.value for (s, p, o) in triples if s == doc and p == PCP_NS + "faculty" and o.kind == "iri"]
        dates = [o.value for (s, p, o) in triples if s == doc and p == PCP_NS + "date" and o.kind == "literal"]
        for faculty in faculties:
            for date in dates:
                if len(date) >= 4 and date[:4].isdigit() and (len(date) == 4 or date[4] in "-T"):
                    key = (faculty, int(date[:4]))
                    counts[key] = counts.get(key, 0) + 1
    return counts


def test_criterion_5_query_evaluation_oracle():
    started = time.perf_counter()
    g = fixtures.qualification_documents()
    expected_counts = _tally_documents(g)
    assert sum(expected_counts.values()) == 12
    assert len(expected_counts) == 6
    query = fixtures.fixture_path("qualification_by_faculty_year.rq").read_text()
    ast = parse_query(query, prefixes=DEFAULT_PREFIXES)
    table = evaluate(ast, g)
    assert table.header == ["docN", "faculty", "year"]
    got_counts = {
        (row[1].value, int(row[2].value)): int(row[0].value) for row in table.rows
    }
    assert got_counts == expected_counts
    # ordering: ascending year, then ascending faculty IRI
    order = [(int(row[2].value), row[1].value) for row in table.rows]
    assert order == sorted(order)

    rng = random.Random(1685)
    parsed = [parse_query(q) for q in ORACLE_QUERIES]
    rounds = 0
    for _ in range(100):
        graph = _random_graph(rng)
        assert len(graph) <= 200
        for ast in parsed:
            expected_rows, _ = naive_evaluate(ast, graph)
            assert Counter(evaluate(ast, graph).rows) == expected_rows
        rounds += 1
    elapsed = time.perf_counter() - started
    assert rounds >= 100
    assert elapsed < 30.0
    _report(5, f"6 groups match the hand tally; {rounds} random graphs match the naive evaluator ({elapsed:.1f}s)")


def test_criterion_6_roundtrip_and_determinism():
    corpus = fixtures.corpus()
    for name, g in corpus.items():
        assert parse_turtle(serialize_canonical(g)).triples == g.triples, name
    for name, g in corpus.items():
        triples = list(g.triples)
        rng = random.Random(hash(name) & 0xFFFF)
        baseline = serialize_canonical(g)
        for _ in range(3):
            rng.shuffle(triples)
            permuted = Graph(triples=triples)
            assert serialize_canonical(permuted) == baseline, name
    _report(6, f"round-trip and canonical determinism hold for all {len(corpus)} fixture graphs")


BODIES = {
    "118755951": '<https://d-nb.info/gnd/118755951> <http://www.w3.org/2000/01/rdf-schema#label> "Heinrichs, Heinrich Matthias" .\n',
    "118535794": '<https://d-nb.info/gnd/118535794> <http://www.w3.org/2000/01/rdf-schema#label> "Matthias, Andreas Heinrich" .\n',
    "7": '<https://d-nb.info/gnd/7> <http://www.w3.org/2000/01/rdf-schema#label> "Testeintrag" .\n',
}


def test_criterion_7_lazy_extractor_contract():
    gnds = [GndId("118755951"), GndId("118535794"), GndId("7")]
    endpoint = builtin_endpoint("dnb", politeness_delay_ms=1, timeout_ms=100, max_retries=0)
    urls = [f"https://d-nb.info/gnd/{g.number}/about/lds" for g in gnds]
    with tempfile.TemporaryDirectory() as tmp:
        clean = RecordedTransport(tmp + "/clean")
        for url, (number, body) in zip(urls, BODIES.items()):
            clean.record(url, body=body)
        graph_clean, report_clean = lazy_extract(gnds, endpoint, clean, sleep=lambda s: None)
        assert clean.requests == urls  # exactly 3, sequential, input order
        assert [i.outcome for i in report_clean.items] == ["ok", "ok", "ok"]

        broken = RecordedTransport(tmp + "/broken")
        for url, (number, body) in zip(urls, BODIES.items()):
            if number == "118535794":
                broken.record(url, body="", status=500)
            else:
                broken.record(url, body=body)
        graph_broken, report_broken = lazy_extract(gnds, endpoint, broken, sleep=lambda s: None)
        assert [i.outcome for i in report_broken.items] == ["ok", "failed", "ok"]
        surviving = parse_turtle(BODIES["118755951"]).triples | parse_turtle(BODIES["7"]).triples
        assert graph_broken.triples == surviving
        # items 1 and 3 are byte-identical to the clean run
        item2_triples = parse_turtle(BODIES["118535794"]).triples
        assert graph_clean.triples - item2_triples == graph_broken.triples
    _report(7, "3 sequential requests in order; failing item 2 leaves items 1 and 3 unchanged")


def _random_history(rng: random.Random, store: ChangeStore, length: int = 10):
    pool = [
        Triple(iri(f"urn:s:{i}"), iri(f"urn:p:{i % 3}"), literal(f"v{i}"))
        for i in range(14)
    ]
    states: list[frozenset[str]] = []  # each state's N-Triples lines, as the store keeps them
    ids: list[str] = []
    current: frozenset = frozenset()
    timestamp = 1_000
    while len(ids) < length:
        target = frozenset(t for t in pool if rng.random() < 0.5)
        if target == current:
            continue
        g = Graph(name="urn:x-store:history", triples=target)
        c = store.commit("urn:x-store:history", g, "t", f"step {len(ids)}", timestamp=timestamp)
        current = target
        states.append(frozenset(map(ntriples_line, target)))
        ids.append(c.id)
        timestamp += 1
    return states, ids


def _fast_scratch() -> str | None:
    """Prefer tmpfs for the many tiny stores this test writes."""
    import os

    return "/dev/shm" if os.path.isdir("/dev/shm") else None


def test_criterion_8_versioning_replay():
    started = time.perf_counter()
    rng = random.Random(20260808)
    histories = 0
    with tempfile.TemporaryDirectory(dir=_fast_scratch()) as tmp:
        for history_no in range(200):
            store = ChangeStore(f"{tmp}/store{history_no}")
            states, ids = _random_history(rng, store)
            # a fresh handle forces every changeset to be re-read from disk
            cold = ChangeStore(f"{tmp}/store{history_no}")
            replayed: frozenset = frozenset()
            for idx, cid in enumerate(ids):
                changeset = cold.read_changeset(cid)
                assert not changeset.added & changeset.removed
                replayed = changeset.apply(replayed)
                assert cold.checkout(cid) == replayed == states[idx]
            for _ in range(3):
                a = rng.randrange(len(ids))
                b = rng.randrange(len(ids))
                d = cold.diff(ids[a], ids[b])
                assert d.apply(states[a]) == states[b]
                assert len(d.added) + len(d.removed) == len(states[a] ^ states[b])
            histories += 1
    elapsed = time.perf_counter() - started
    assert histories >= 200
    assert elapsed < 10.0
    _report(8, f"{histories} random 10-commit histories replay and diff-apply exactly ({elapsed:.1f}s)")
