"""Vocabulary extraction, overlap statistics, namespace shift, lint rules."""

from __future__ import annotations

from collections import Counter

import catalogues
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import fixtures
from kgfuse.fusion import (
    FusionError,
    OverlapStats,
    compute_overlap,
    extract_vocabulary,
    lint_report_csv,
    lint_vocabulary,
    load_renames,
    local_name,
    shift_namespace,
    suggest_name,
    vocabulary_report,
)
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, PCP_NS, RDFS_LABEL
from kgfuse.rdf import Graph, parse_turtle

LEIPZIG_SNIPPET = """
@prefix leipzig: <http://example.org/catalogus/leipzig/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

leipzig:heinrichmatthiasheinrichs leipzig:surname "Heinrichs" ;
    leipzig:forename "Heinrich Matthias" ;
    rdfs:label "Heinrich Matthias Heinrichs" .
"""


def test_extract_vocabulary_on_empty_graph():
    props, classes = extract_vocabulary(Graph())
    assert props == frozenset() and classes == frozenset()


def test_extract_vocabulary_on_snippet():
    props, classes = extract_vocabulary(parse_turtle(LEIPZIG_SNIPPET))
    assert props == frozenset(
        {LEIPZIG_NS + "surname", LEIPZIG_NS + "forename", RDFS_LABEL}
    )
    assert classes == frozenset()


def test_catalogue_counts_match_subset_statistics():
    props, classes = extract_vocabulary(catalogues.helmstedt_catalogue())
    assert (len(props), len(classes)) == (56, 21)
    props, classes = extract_vocabulary(catalogues.leipzig_catalogue())
    assert (len(props), len(classes)) == (72, 39)


def test_declared_terms_are_extracted():
    g = parse_turtle(
        """
        @prefix ex: <http://example.org/v#> .
        @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:unusedProp a rdf:Property .
        ex:UnusedClass a rdfs:Class .
        """
    )
    props, classes = extract_vocabulary(g)
    assert "http://example.org/v#unusedProp" in props
    assert "http://example.org/v#UnusedClass" in classes
    # declaration objects are themselves type objects
    assert "http://www.w3.org/2000/01/rdf-schema#Class" in classes


# --- overlap -----------------------------------------------------------------

def test_identical_vocabularies_are_fully_joint():
    vocab = {f"http://a.example/#p{i}" for i in range(7)}
    other = {f"http://b.example/#p{i}" for i in range(7)}
    stats = compute_overlap(vocab, other)
    assert stats == OverlapStats(7, 0, 0, 7, 7)


def test_property_overlap_matches_catalogue_design():
    props_a, _ = extract_vocabulary(catalogues.leipzig_catalogue())
    props_b, _ = extract_vocabulary(catalogues.helmstedt_catalogue())
    stats = compute_overlap(props_a, props_b)
    assert stats == OverlapStats(21, 51, 35, 72, 56)


def test_class_overlap_matches_catalogue_design():
    _, classes_a = extract_vocabulary(catalogues.leipzig_catalogue())
    _, classes_b = extract_vocabulary(catalogues.helmstedt_catalogue())
    stats = compute_overlap(classes_a, classes_b)
    assert stats == OverlapStats(16, 23, 5, 39, 21)


names_strategy = st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=4), max_size=30)


@settings(max_examples=1000)
@given(names_strategy, names_strategy)
def test_overlap_identity_holds_on_random_vocabularies(names_a, names_b):
    a = {f"http://a.example/#{n}" for n in names_a}
    b = {f"http://b.example/#{n}" for n in names_b}
    stats = compute_overlap(a, b)
    assert stats.union_a == stats.joint + stats.disjoint_a
    assert stats.union_b == stats.joint + stats.disjoint_b
    swapped = compute_overlap(b, a)
    assert swapped.joint == stats.joint
    assert (swapped.disjoint_a, swapped.disjoint_b) == (stats.disjoint_b, stats.disjoint_a)


def test_overlap_stats_invariant_is_enforced():
    with pytest.raises(FusionError):
        OverlapStats(joint=2, disjoint_a=1, disjoint_b=1, union_a=4, union_b=3)


# --- namespace shift -----------------------------------------------------------

def test_identity_auto_shift_moves_vocabulary_only():
    g = parse_turtle(LEIPZIG_SNIPPET)
    shifted = shift_namespace(g, LEIPZIG_NS, PCP_NS)
    assert len(shifted) == len(g)
    props, _ = extract_vocabulary(shifted)
    assert PCP_NS + "surname" in props
    assert LEIPZIG_NS + "surname" not in props
    # the instance IRI shares the source namespace but is not vocabulary
    subjects = {t.s.value for t in shifted.triples}
    assert subjects == {LEIPZIG_NS + "heinrichmatthiasheinrichs"}


def test_rename_entries_rewrite_accordingly():
    g = parse_turtle(
        """
        @prefix pcp: <http://purl.org/pcp-on-web/ontology#> .
        <urn:inst:p1> pcp:surname_lat "Heinricius" .
        <urn:inst:p2> pcp:lecture <urn:inst:c1> .
        """
    )
    shifted = shift_namespace(
        g, PCP_NS, PCP_NS, renames={"surname_lat": "latinSurname", "lecture": "lecturer"}
    )
    props, _ = extract_vocabulary(shifted)
    assert props == frozenset({PCP_NS + "latinSurname", PCP_NS + "lecturer"})


def test_shift_preserves_triple_count_and_literals():
    g = catalogues.leipzig_catalogue()
    shifted = shift_namespace(g, LEIPZIG_NS, PCP_NS, renames={"surname": "familyName"})
    assert len(shifted) == len(g)
    literals = Counter(t.o for t in g.triples if t.o.kind == "literal")
    shifted_literals = Counter(t.o for t in shifted.triples if t.o.kind == "literal")
    assert literals == shifted_literals


def test_shift_is_idempotent():
    g = catalogues.helmstedt_catalogue()
    once = shift_namespace(g, HELMSTEDT_NS, PCP_NS)
    twice = shift_namespace(once, HELMSTEDT_NS, PCP_NS)
    assert once == twice
    inplace = {"praeses": "chair"}
    renamed = shift_namespace(g, PCP_NS, PCP_NS, renames=inplace)
    assert shift_namespace(renamed, PCP_NS, PCP_NS, renames=inplace) == renamed


def test_shift_builds_one_term_per_rewritten_iri():
    g = catalogues.leipzig_catalogue()
    before = {term.value for t in g.triples for term in (t.s, t.p, t.o)}
    shifted = shift_namespace(g, LEIPZIG_NS, PCP_NS, renames={"surname": "familyName"})
    objects: dict[str, set[int]] = {}
    uses = Counter()
    for t in shifted.triples:
        for term in (t.s, t.p, t.o):
            if term.value not in before:
                objects.setdefault(term.value, set()).add(id(term))
                uses[term.value] += 1
    assert PCP_NS + "familyName" in objects
    assert max(uses.values()) > 1
    assert all(len(ids) == 1 for ids in objects.values())


def test_colliding_rename_targets_are_rejected():
    g = parse_turtle(
        """
        @prefix ex: <http://example.org/v/> .
        <urn:i:1> ex:alpha "a" ; ex:beta "b" .
        """
    )
    with pytest.raises(FusionError) as exc:
        shift_namespace(
            g, "http://example.org/v/", PCP_NS, renames={"alpha": "gamma", "beta": "gamma"}
        )
    assert "collide" in str(exc.value)


def test_rename_onto_existing_term_is_rejected():
    g = parse_turtle(
        """
        @prefix pcp: <http://purl.org/pcp-on-web/ontology#> .
        <urn:i:1> pcp:surname_lat "Heinricius" ; pcp:latinSurname "Heinricius" .
        """
    )
    with pytest.raises(FusionError) as exc:
        shift_namespace(g, PCP_NS, PCP_NS, renames={"surname_lat": "latinSurname"})
    assert "merged" in str(exc.value)


def test_fused_union_vocabulary_size():
    left = shift_namespace(catalogues.leipzig_catalogue(), LEIPZIG_NS, PCP_NS)
    right = shift_namespace(catalogues.helmstedt_catalogue(), HELMSTEDT_NS, PCP_NS)
    fused = Graph.union([left, right])
    props, classes = extract_vocabulary(fused)
    # 72 + 56 - 21 properties, 39 + 21 - 16 classes after fusing
    assert len(props) == 107
    assert len(classes) == 44


# --- lint ---------------------------------------------------------------------

def test_clean_bilingual_term_has_no_issues():
    g = parse_turtle(
        """
        @prefix pcp: <http://purl.org/pcp-on-web/ontology#> .
        @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        pcp:surname a rdf:Property ;
            rdfs:label "Nachname"@de, "surname"@en ;
            rdfs:comment "Familienname"@de, "family name"@en .
        """
    )
    assert lint_vocabulary(g) == []


def test_quality_fixture_issue_inventory():
    issues = lint_vocabulary(fixtures.load("quality.ttl"))
    by_subject_kind = {(i.subject, i.kind) for i in issues}
    assert (PCP_NS + "hasMatrikel", "multilingual-label") in by_subject_kind
    assert (PCP_NS + "surname_lat", "naming-pattern") in by_subject_kind
    assert (PCP_NS + "matNumber", "missing-label") in by_subject_kind
    assert (PCP_NS + "matNumber", "missing-description") in by_subject_kind
    assert (PCP_NS + "qualification_document", "naming-pattern") in by_subject_kind
    assert all(i.subject != PCP_NS + "surname" for i in issues)
    assert all(i.subject != PCP_NS + "lecture" for i in issues)
    fix = next(i for i in issues if i.kind == "naming-pattern" and "surname_lat" in i.subject)
    assert fix.suggested_fix == "latinSurname"
    fix = next(
        i for i in issues if i.kind == "naming-pattern" and "qualification_document" in i.subject
    )
    assert fix.suggested_fix == "QualificationDocument"


def test_multilingual_label_detail_quotes_the_label():
    issues = lint_vocabulary(fixtures.load("quality.ttl"))
    issue = next(i for i in issues if i.kind == "multilingual-label")
    assert "Matrikel / matriculation" in issue.detail


def test_lint_report_csv_shape():
    issues = lint_vocabulary(fixtures.load("quality.ttl"))
    report = lint_report_csv(issues)
    lines = report.splitlines()
    assert lines[0] == "subject,kind,detail,suggested-fix"
    assert len(lines) == len(issues) + 1


def test_suggest_name_cases():
    assert suggest_name("surname_lat", is_class=False) == "latinSurname"
    assert suggest_name("qualification_document", is_class=True) == "QualificationDocument"
    assert suggest_name("Surname", is_class=False) == "surname"
    assert suggest_name("person", is_class=True) == "Person"


# --- files and reports -----------------------------------------------------------

def test_load_renames(tmp_path):
    path = tmp_path / "renames.tsv"
    path.write_text("# comment\nsurname_lat\tlatinSurname\nlecture\tlecturer\n")
    assert load_renames(path) == {"surname_lat": "latinSurname", "lecture": "lecturer"}


def test_load_renames_rejects_malformed_lines(tmp_path):
    path = tmp_path / "renames.tsv"
    path.write_text("only-one-column\n")
    with pytest.raises(FusionError):
        load_renames(path)


def test_bundled_renames_file_parses():
    renames = load_renames(fixtures.fixture_path("renames.tsv"))
    assert renames["surname_lat"] == "latinSurname"


def test_vocabulary_report_deduplicates_union():
    report = vocabulary_report(
        [
            ("leipzig", extract_vocabulary(catalogues.leipzig_catalogue())),
            ("helmstedt", extract_vocabulary(catalogues.helmstedt_catalogue())),
        ]
    )
    assert report.per_graph == [("leipzig", 72, 39), ("helmstedt", 56, 21)]
    # shared rdf/rdfs terms dedupe; catalogue terms differ by namespace
    assert report.union_properties == 72 + 56 - 3
    assert report.union_classes == 39 + 21


def test_local_name():
    assert local_name("http://purl.org/pcp-on-web/ontology#surname") == "surname"
    assert local_name("http://example.org/catalogus/leipzig/surname") == "surname"
    assert local_name("urn:example:thing") == "thing"
