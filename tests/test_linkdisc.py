"""Link discovery checks against an exhaustive double-loop oracle.

The oracle re-implements tokenizing and scoring inline (plain splits and
set arithmetic) and enumerates every instance pair, so candidate
generation (the prefix filter), thresholds, and ordering are all checked
against an independent path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import fixtures
from kgfuse.linkdisc import (
    ACCEPTED,
    LinkConfig,
    LinkConfigError,
    cosine,
    emit_review_report,
    find_links,
    load_link_config,
    sameas_triples,
    tokenize_name,
)
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, OWL_SAMEAS, RDF_TYPE, RDFS_LABEL
from kgfuse.rdf import Graph, Triple, iri, literal

PAPER_SCORE = 0.8164965809277261

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


# --- scalar pieces ---------------------------------------------------------------

def test_tokenize_empty():
    assert tokenize_name("") == frozenset()


def test_tokenize_two_and_three_token_names():
    assert tokenize_name("Heinrich Matthias") == {"heinrich", "matthias"}
    assert tokenize_name("Andreas Heinrich Matthias") == {"andreas", "heinrich", "matthias"}


def test_tokenize_separators_and_duplicates():
    assert tokenize_name("Meyer, Hans-Georg.  hans") == {"meyer", "hans", "georg"}


def test_cosine_identity_and_empty():
    assert cosine({"a", "b"}, {"a", "b"}) == 1.0
    assert cosine(frozenset(), {"x"}) == 0.0


def test_cosine_reproduces_printed_similarity():
    score = cosine({"heinrich", "matthias"}, {"andreas", "heinrich", "matthias"})
    assert repr(score) == "0.8164965809277261"
    assert score == 2 / math.sqrt(6)


@settings(max_examples=300)
@given(
    st.sets(st.text("abcdef", min_size=1, max_size=3), max_size=8),
    st.sets(st.text("abcdef", min_size=1, max_size=3), max_size=8),
)
def test_cosine_bounds_and_symmetry(a, b):
    s = cosine(a, b)
    assert 0.0 <= s <= 1.0
    assert s == cosine(b, a)
    if a:
        assert cosine(a, a) == 1.0


# --- the two-person fixture --------------------------------------------------------

def test_two_person_fixture_accepts_exactly_the_near_match():
    ga = fixtures.load("leipzig_persons.ttl")
    gb = fixtures.load("helmstedt_persons.ttl")
    candidates = find_links(ga, gb, PERSON_CONFIG)
    accepted = [c for c in candidates if c.status == ACCEPTED]
    assert len(accepted) == 1
    c = accepted[0]
    assert c.source == LEIPZIG_NS + "heinrichmatthiasheinrichs"
    assert c.target == HELMSTEDT_NS + "13084"
    assert repr(c.score) == "0.8164965809277261"
    best = max(c.evidence, key=lambda e: e.score)
    assert best.source_property == LEIPZIG_NS + "forename"
    assert best.target_property == RDFS_LABEL


def test_full_match_threshold_accepts_nothing():
    ga = fixtures.load("leipzig_persons.ttl")
    gb = fixtures.load("helmstedt_persons.ttl")
    cfg = LinkConfig(
        source_class=PERSON_CONFIG.source_class,
        target_class=PERSON_CONFIG.target_class,
        compare_properties=PERSON_CONFIG.compare_properties,
        accept_threshold=1.0,
        review_threshold=0.5,
    )
    candidates = find_links(ga, gb, cfg)
    assert [c for c in candidates if c.status == ACCEPTED] == []
    # the near match is still surfaced for review
    assert any(c.score == PAPER_SCORE for c in candidates)


def test_exact_token_match_scores_one():
    ga = Graph(triples=[
        Triple(iri("urn:a:1"), iri(RDF_TYPE), iri(PERSON_CONFIG.source_class)),
        Triple(iri("urn:a:1"), iri(RDFS_LABEL), literal("Johann Arndt")),
    ])
    gb = Graph(triples=[
        Triple(iri("urn:b:1"), iri(RDF_TYPE), iri(PERSON_CONFIG.target_class)),
        Triple(iri("urn:b:1"), iri(RDFS_LABEL), literal("Arndt, Johann")),
    ])
    cfg = LinkConfig(
        source_class=PERSON_CONFIG.source_class,
        target_class=PERSON_CONFIG.target_class,
        compare_properties=((RDFS_LABEL, RDFS_LABEL),),
        accept_threshold=1.0,
        review_threshold=0.5,
    )
    candidates = find_links(ga, gb, cfg)
    assert len(candidates) == 1 and candidates[0].status == ACCEPTED
    assert candidates[0].score == 1.0


def test_graphs_without_typed_instances_produce_empty_list():
    assert find_links(Graph(), Graph(), PERSON_CONFIG) == []


# --- synthetic corpus vs oracle -------------------------------------------------------

FORENAMES = [
    "johann", "caspar", "andreas", "heinrich", "matthias", "georg", "paul",
    "martin", "nikolaus", "valentin", "christoph", "daniel",
]
SURNAMES = [
    "arndt", "westphal", "heinrichs", "meyer", "schulze", "krause", "vogel",
    "brandt", "winkler", "lorenz",
]


def _synthetic_side(rng: random.Random, ns: str, class_iri: str, n: int) -> Graph:
    triples = []
    for i in range(n):
        inst = iri(f"{ns}{i:03d}")
        triples.append(Triple(inst, iri(RDF_TYPE), iri(class_iri)))
        forename = " ".join(
            rng.sample(FORENAMES, rng.choice([1, 1, 2]))
        ).title()
        surname = rng.choice(SURNAMES).title()
        triples.append(Triple(inst, iri(ns + "forename"), literal(forename)))
        triples.append(Triple(inst, iri(ns + "surname"), literal(surname)))
        triples.append(Triple(inst, iri(RDFS_LABEL), literal(f"{forename} {surname}")))
    return Graph(triples=triples)


def _synthetic_config(review: float = 0.5, accept: float = 0.8):
    a_ns = "urn:cat:a:"
    b_ns = "urn:cat:b:"
    props_a = (RDFS_LABEL, a_ns + "surname", a_ns + "forename")
    props_b = (RDFS_LABEL, b_ns + "surname", b_ns + "forename")
    return LinkConfig(
        source_class=a_ns + "Person",
        target_class=b_ns + "Person",
        compare_properties=tuple((s, t) for s in props_a for t in props_b),
        accept_threshold=accept,
        review_threshold=review,
    )


def _oracle_tokens(value: str) -> set[str]:
    cleaned = value.lower()
    for ch in ",.-":
        cleaned = cleaned.replace(ch, " ")
    return {piece for piece in cleaned.split() if piece}


def _oracle_cosine(sval: str, tval: str) -> float:
    a, b = _oracle_tokens(sval), _oracle_tokens(tval)
    return len(a & b) / math.sqrt(len(a) * len(b)) if a and b else 0.0


def _oracle_values(g: Graph, inst: str, prop: str) -> list[str]:
    return sorted(
        t.o.value
        for t in g.triples
        if t.s.value == inst and t.s.kind == "iri" and t.p.value == prop and t.o.kind == "literal"
    )


def _oracle_typed(g: Graph, cls: str) -> list[str]:
    return sorted(
        t.s.value
        for t in g.triples
        if t.p.value == RDF_TYPE and t.o.kind == "iri" and t.o.value == cls and t.s.kind == "iri"
    )


def _oracle_links(ga: Graph, gb: Graph, cfg: LinkConfig):
    rows = []
    for s in _oracle_typed(ga, cfg.source_class):
        for t in _oracle_typed(gb, cfg.target_class):
            best = 0.0
            for sprop, tprop in cfg.compare_properties:
                for sval in _oracle_values(ga, s, sprop):
                    for tval in _oracle_values(gb, t, tprop):
                        best = max(best, _oracle_cosine(sval, tval))
            if best >= cfg.review_threshold:
                status = ACCEPTED if best >= cfg.accept_threshold else "review"
                rows.append((s, t, best, status))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows


def _oracle_evidence(ga: Graph, gb: Graph, cfg: LinkConfig, s: str, t: str) -> tuple:
    """Per compared property pair with values on both sides: the first value
    pair, in sorted order, whose cosine no later pair exceeds."""
    evidence = []
    for sprop, tprop in cfg.compare_properties:
        best = None
        for sval in _oracle_values(ga, s, sprop):
            for tval in _oracle_values(gb, t, tprop):
                score = _oracle_cosine(sval, tval)
                if best is None or score > best[-1]:
                    best = (sprop, tprop, sval, tval, score)
        if best is not None:
            evidence.append(best)
    return tuple(evidence)


def test_find_links_matches_exhaustive_oracle_on_synthetic_corpus():
    rng = random.Random(1683)
    ga = _synthetic_side(rng, "urn:cat:a:", "urn:cat:a:Person", 50)
    gb = _synthetic_side(rng, "urn:cat:b:", "urn:cat:b:Person", 50)
    cfg = _synthetic_config()
    got = [(c.source, c.target, c.score, c.status) for c in find_links(ga, gb, cfg)]
    expected = _oracle_links(ga, gb, cfg)
    assert got == expected
    assert expected  # corpus is dense enough to produce candidates


def test_accept_threshold_monotonicity():
    rng = random.Random(99)
    ga = _synthetic_side(rng, "urn:cat:a:", "urn:cat:a:Person", 30)
    gb = _synthetic_side(rng, "urn:cat:b:", "urn:cat:b:Person", 30)
    previous: set[tuple[str, str]] | None = None
    for accept in (0.5, 0.7, 0.9, 1.0):
        cfg = _synthetic_config(review=0.5, accept=accept)
        candidates = find_links(ga, gb, cfg)
        accepted = {(c.source, c.target) for c in candidates if c.status == ACCEPTED}
        assert accepted == {
            (c.source, c.target) for c in candidates if c.score >= accept
        }
        if previous is not None:
            assert accepted <= previous
        previous = accepted


def test_scores_are_symmetric_under_swap():
    ga = fixtures.load("leipzig_persons.ttl")
    gb = fixtures.load("helmstedt_persons.ttl")
    forward = find_links(ga, gb, PERSON_CONFIG)
    swapped_cfg = LinkConfig(
        source_class=PERSON_CONFIG.target_class,
        target_class=PERSON_CONFIG.source_class,
        compare_properties=tuple((t, s) for s, t in PERSON_CONFIG.compare_properties),
        accept_threshold=PERSON_CONFIG.accept_threshold,
        review_threshold=PERSON_CONFIG.review_threshold,
    )
    backward = find_links(gb, ga, swapped_cfg)
    assert {(c.source, c.target, c.score) for c in forward} == {
        (c.target, c.source, c.score) for c in backward
    }


def test_emitted_scores_stay_within_review_band():
    rng = random.Random(3)
    ga = _synthetic_side(rng, "urn:cat:a:", "urn:cat:a:Person", 25)
    gb = _synthetic_side(rng, "urn:cat:b:", "urn:cat:b:Person", 25)
    for c in find_links(ga, gb, _synthetic_config(review=0.5)):
        assert 0.5 <= c.score <= 1.0


# --- prefix filter: exact at the threshold and against the oracle ------------------

def _single_pair(source_name: str, target_name: str, review: float):
    ga = Graph(triples=[
        Triple(iri("urn:a:1"), iri(RDF_TYPE), iri("urn:a:Person")),
        Triple(iri("urn:a:1"), iri(RDFS_LABEL), literal(source_name)),
    ])
    gb = Graph(triples=[
        Triple(iri("urn:b:1"), iri(RDF_TYPE), iri("urn:b:Person")),
        Triple(iri("urn:b:1"), iri(RDFS_LABEL), literal(target_name)),
    ])
    cfg = LinkConfig(
        source_class="urn:a:Person",
        target_class="urn:b:Person",
        compare_properties=((RDFS_LABEL, RDFS_LABEL),),
        accept_threshold=1.0,
        review_threshold=review,
    )
    return find_links(ga, gb, cfg)


def test_pair_scoring_exactly_the_review_threshold_is_emitted():
    # 1 shared token of 1 and 4: cosine 1/sqrt(4) == 0.5, the size filter's edge
    candidates = _single_pair("Anna", "Anna Maria Sophie Luise", 0.5)
    assert [(c.source, c.target, c.score) for c in candidates] == [("urn:a:1", "urn:b:1", 0.5)]


def test_paper_pair_survives_review_at_its_own_score():
    cfg = dataclasses.replace(PERSON_CONFIG, accept_threshold=1.0, review_threshold=PAPER_SCORE)
    candidates = find_links(fixtures.load("leipzig_persons.ttl"), fixtures.load("helmstedt_persons.ttl"), cfg)
    assert [(c.source, c.target, repr(c.score)) for c in candidates] == [
        (LEIPZIG_NS + "heinrichmatthiasheinrichs", HELMSTEDT_NS + "13084", "0.8164965809277261")
    ]


NAME_TOKENS = ["anna", "maria", "hans", "georg", "meyer", "vogel", "x"]
SEPARATORS = [" ", "-", ", ", ".", " - "]


@st.composite
def _name_value(draw):
    """A name of 0-4 pool tokens joined by separators; 0 tokens gives a
    separator-only value with an empty token set."""
    tokens = draw(st.lists(st.sampled_from(NAME_TOKENS), max_size=4))
    if not tokens:
        return draw(st.sampled_from(SEPARATORS))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    return "".join(sep + tok.title() for sep, tok in zip(seps, tokens)).lstrip(" ")


@st.composite
def _catalogue(draw, ns: str, props: tuple[str, ...]):
    triples = []
    for i in range(draw(st.integers(0, 5))):
        inst = iri(f"{ns}{i}")
        triples.append(Triple(inst, iri(RDF_TYPE), iri(ns + "Person")))
        for prop in props:
            for value in draw(st.lists(_name_value(), max_size=3)):
                triples.append(Triple(inst, iri(prop), literal(value)))
    return Graph(triples=triples)


# exact cosines that land on or next to a threshold, plus arbitrary ones
REVIEWS = st.one_of(
    st.sampled_from([1.0, 0.5, 1 / math.sqrt(2), 1 / math.sqrt(3), 2 / math.sqrt(6), 2 / 3, 0.75]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prefix_filter_matches_oracle_and_exhaustive_report(data):
    n_props = data.draw(st.integers(1, 3))
    props_a = tuple(f"urn:a:p{k}" for k in range(n_props))
    props_b = tuple(f"urn:b:p{k}" for k in range(n_props))
    ga = data.draw(_catalogue("urn:a:", props_a))
    gb = data.draw(_catalogue("urn:b:", props_b))
    if data.draw(st.booleans()):
        pairs = tuple((s, t) for s in props_a for t in props_b)  # cross
    else:
        pairs = tuple(zip(props_a, props_b))  # paired
    review = data.draw(REVIEWS)
    accept = data.draw(st.floats(min_value=review, max_value=1.0))
    cfg = LinkConfig("urn:a:Person", "urn:b:Person", pairs, accept, review)

    found = find_links(ga, gb, cfg)
    assert [(c.source, c.target, c.score, c.status) for c in found] == _oracle_links(ga, gb, cfg)

    exhaustive = find_links(ga, gb, dataclasses.replace(cfg, review_threshold=0.0))
    kept = [c for c in exhaustive if c.score >= review]
    assert emit_review_report(found) == emit_review_report(kept)


TIE_TOKENS = ["anna", "maria", "hans", "georg"]


@st.composite
def _tied_value(draw):
    """1-3 tokens of a four-token pool: equal token sets in another order, and
    equal overlaps of equal sizes, give many tied cosines."""
    tokens = draw(st.lists(st.sampled_from(TIE_TOKENS), min_size=1, max_size=3, unique=True))
    return draw(st.sampled_from([" ", "-", ", "])).join(t.title() for t in tokens)


@st.composite
def _many_valued_catalogue(draw, ns: str, props: tuple[str, ...]):
    triples = []
    for i in range(draw(st.integers(1, 4))):
        inst = iri(f"{ns}{i}")
        triples.append(Triple(inst, iri(RDF_TYPE), iri(ns + "Person")))
        for prop in props:
            for value in draw(st.lists(_tied_value(), min_size=2, max_size=4, unique=True)):
                triples.append(Triple(inst, iri(prop), literal(value)))
    return Graph(triples=triples)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evidence_is_the_first_top_value_pair_of_each_property_pair(data):
    props_a = ("urn:a:p0", "urn:a:p1")
    props_b = ("urn:b:p0", "urn:b:p1")
    ga = data.draw(_many_valued_catalogue("urn:a:", props_a))
    gb = data.draw(_many_valued_catalogue("urn:b:", props_b))
    pairs = tuple((s, t) for s in props_a for t in props_b)
    review = data.draw(st.sampled_from([0.0, 1 / math.sqrt(6), 0.5, 2 / 3, 1.0]))
    cfg = LinkConfig("urn:a:Person", "urn:b:Person", pairs, max(review, 0.8), review)

    found = find_links(ga, gb, cfg)
    assert [(c.source, c.target, c.evidence) for c in found] == [
        (s, t, _oracle_evidence(ga, gb, cfg, s, t)) for s, t, _, _ in _oracle_links(ga, gb, cfg)
    ]


def test_a_tie_keeps_the_first_value_pair_in_sorted_order():
    ga = Graph(triples=[Triple(iri("urn:a:1"), iri(RDF_TYPE), iri("urn:a:Person"))] + [
        Triple(iri("urn:a:1"), iri("urn:a:name"), literal(value)) for value in ("Maria Anna", "Hans")
    ])
    gb = Graph(triples=[Triple(iri("urn:b:1"), iri(RDF_TYPE), iri("urn:b:Person"))] + [
        Triple(iri("urn:b:1"), iri("urn:b:name"), literal(value))
        for value in ("Anna Maria", "Anna-Maria", "Hans Georg")
    ])
    cfg = LinkConfig("urn:a:Person", "urn:b:Person", (("urn:a:name", "urn:b:name"),), 0.8, 0.5)
    [found] = find_links(ga, gb, cfg)
    # "Maria Anna" scores 1.0 against both "Anna Maria" and "Anna-Maria"
    assert found.evidence == (("urn:a:name", "urn:b:name", "Maria Anna", "Anna Maria", 1.0),)


def test_link_records_are_named_tuples_that_equal_plain_tuples():
    [found] = [
        c
        for c in find_links(fixtures.load("leipzig_persons.ttl"), fixtures.load("helmstedt_persons.ttl"), PERSON_CONFIG)
        if c.status == ACCEPTED
    ]
    assert not hasattr(found, "__dict__") and not hasattr(found.evidence[0], "__dict__")
    source, target, score, evidence, status = found
    assert found == (source, target, score, evidence, status)
    assert found._fields == ("source", "target", "score", "evidence", "status")
    assert evidence[0]._fields == (
        "source_property", "target_property", "source_value", "target_value", "score"
    )


def _many_valued_side(rng: random.Random, ns: str, n: int) -> Graph:
    triples = []
    for i in range(n):
        inst = iri(f"{ns}{i:02d}")
        triples.append(Triple(inst, iri(RDF_TYPE), iri(ns + "Person")))
        for prop in ("name", "alias"):
            for _ in range(rng.randint(2, 3)):
                tokens = rng.sample(NAME_TOKENS[:5], rng.randint(1, 3))
                name = rng.choice([" ", ", "]).join(tokens).title()  # a comma is quoted
                triples.append(Triple(inst, iri(ns + prop), literal(name)))
    return Graph(triples=triples)


REPORT_ROWS = 144
REPORT_SHA256 = "0b689d4975067ca40b7bbdcbd4d42bf61ef624528a5517e68d550327d165af46"


def test_review_report_bytes_are_fixed_for_a_many_valued_corpus():
    rng = random.Random(4242)
    ga = _many_valued_side(rng, "urn:a:", 12)
    gb = _many_valued_side(rng, "urn:b:", 12)
    props_a, props_b = ("urn:a:name", "urn:a:alias"), ("urn:b:name", "urn:b:alias")
    cfg = LinkConfig(
        "urn:a:Person", "urn:b:Person", tuple((s, t) for s in props_a for t in props_b), 0.8, 0.4
    )
    report = emit_review_report(find_links(ga, gb, cfg)).encode("utf-8")
    # a golden digest: scores, evidence, tie-breaks, value lists and CSV quoting
    assert len(report.splitlines()) == REPORT_ROWS + 1
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256


# --- report and sameAs ----------------------------------------------------------------

def test_empty_candidates_give_header_only_csv():
    report = emit_review_report([])
    assert report.splitlines() == [
        "source,target,score,status,best_source_property,best_target_property,"
        "source_values,target_values"
    ]


def test_report_contains_full_precision_score():
    candidates = find_links(fixtures.load("leipzig_persons.ttl"), fixtures.load("helmstedt_persons.ttl"), PERSON_CONFIG)
    report = emit_review_report(candidates)
    lines = report.splitlines()
    assert len(lines) == 1 + len(candidates)
    assert "0.8164965809277261" in lines[1]
    assert "accepted" in lines[1]


def test_report_row_count_matches_oracle():
    rng = random.Random(11)
    ga = _synthetic_side(rng, "urn:cat:a:", "urn:cat:a:Person", 35)
    gb = _synthetic_side(rng, "urn:cat:b:", "urn:cat:b:Person", 35)
    cfg = _synthetic_config()
    report = emit_review_report(find_links(ga, gb, cfg))
    assert len(report.splitlines()) == 1 + len(_oracle_links(ga, gb, cfg))


def test_sameas_triples_only_for_accepted():
    candidates = find_links(fixtures.load("leipzig_persons.ttl"), fixtures.load("helmstedt_persons.ttl"), PERSON_CONFIG)
    links = sameas_triples(candidates)
    assert len(links) == 1
    assert links[0].p == iri(OWL_SAMEAS)


# --- config file ------------------------------------------------------------------------

def test_bundled_link_config_parses():
    cfg = load_link_config(fixtures.fixture_path("link_person_names.cfg"))
    assert cfg.source_class == LEIPZIG_NS + "Person"
    assert cfg.accept_threshold == 0.8
    assert cfg.review_threshold == 0.5
    assert len(cfg.compare_properties) == 9
    assert (RDFS_LABEL, RDFS_LABEL) in cfg.compare_properties


def test_invalid_threshold_order_rejected():
    with pytest.raises(LinkConfigError):
        LinkConfig(
            source_class="urn:a:C",
            target_class="urn:b:C",
            compare_properties=((RDFS_LABEL, RDFS_LABEL),),
            accept_threshold=0.5,
            review_threshold=0.8,
        )


def test_paired_mode_config(tmp_path):
    cfg_file = tmp_path / "link.cfg"
    cfg_file.write_text(
        """
[classes]
source = urn:a:Person
target = urn:b:Person

[properties]
source = rdfs:label, urn:a:surname
target = rdfs:label, urn:b:surname
mode = paired

[thresholds]
accept = 0.9
review = 0.4
"""
    )
    cfg = load_link_config(cfg_file)
    assert cfg.compare_properties == (
        (RDFS_LABEL, RDFS_LABEL),
        ("urn:a:surname", "urn:b:surname"),
    )


def test_config_with_blocking_option_still_loads(tmp_path):
    plain = fixtures.fixture_path("link_person_names.cfg").read_text()
    cfg_file = tmp_path / "link.cfg"
    cfg_file.write_text(plain + "\n[options]\nblocking = true\n")
    assert load_link_config(cfg_file) == load_link_config(fixtures.fixture_path("link_person_names.cfg"))
