"""Query parser and evaluator checks.

`naive_evaluate` is the independent oracle: it enumerates every assignment
of query variables to graph terms and filters by pattern satisfaction,
with its own grouping and year extraction.  The document-corpus expected
rows below were tallied by hand from the fixture before the evaluator
existed: philosophy/1600=1, theology/1600=3, philosophy/1601=2,
theology/1601=2, philosophy/1602=3, theology/1602=1.
"""

from __future__ import annotations

import itertools
import pickle
import random
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import fixtures
from kgfuse.prefixes import (
    DEFAULT_PREFIXES,
    PCP_DATA_NS,
    PCP_NS,
    RDF_TYPE,
    RDFS_LABEL,
    XSD_BOOLEAN,
    XSD_INTEGER,
)
from kgfuse.rdf import Graph, RdfError, Triple, blank, iri, literal, ntriples_term, parse_turtle
from kgfuse.sparql import (
    CountAgg,
    QueryTemplate,
    SparqlSyntaxError,
    TemplateError,
    UnsupportedFeatureError,
    Var,
    _UNSUPPORTED,
    evaluate,
    instantiate,
    parse_query,
)

STAR_QUERY = "select * where {?s ?p ?o}"

GROUPED_QUERY = fixtures.fixture_path("qualification_by_faculty_year.rq").read_text()


def _count_int(n: int):
    return literal(str(n), datatype=XSD_INTEGER)


EXPECTED_DOCUMENT_ROWS = [
    (_count_int(1), iri(PCP_DATA_NS + "philosophy"), _count_int(1600)),
    (_count_int(3), iri(PCP_DATA_NS + "theology"), _count_int(1600)),
    (_count_int(2), iri(PCP_DATA_NS + "philosophy"), _count_int(1601)),
    (_count_int(2), iri(PCP_DATA_NS + "theology"), _count_int(1601)),
    (_count_int(3), iri(PCP_DATA_NS + "philosophy"), _count_int(1602)),
    (_count_int(1), iri(PCP_DATA_NS + "theology"), _count_int(1602)),
]


# --- independent oracle -------------------------------------------------------

def _oracle_year(term):
    if term is None or term.kind != "literal":
        return None
    m = re.match(r"(\d{4})($|[-T])", term.value)
    return int(m.group(1)) if m else None


def naive_evaluate(ast, graph: Graph):
    """All-assignments evaluation; returns (Counter of rows, solution list)."""
    triple_tuples = {(t.s, t.p, t.o) for t in graph.triples}
    terms = sorted(
        {x for t in graph.triples for x in (t.s, t.p, t.o)},
        key=lambda t: (t.kind, t.value, t.language or "", t.datatype or ""),
    )
    names: list[str] = []
    for pattern in ast.patterns:
        for v in pattern.variables():
            if v not in names:
                names.append(v)
    solutions = []
    for combo in itertools.product(terms, repeat=len(names)):
        mu = dict(zip(names, combo))

        def subst(pos):
            return mu[pos.name] if isinstance(pos, Var) else pos

        if all(
            (subst(p.s), subst(p.p), subst(p.o)) in triple_tuples for p in ast.patterns
        ):
            solutions.append(dict(mu))
    for bind in ast.binds:
        kept = []
        for mu in solutions:
            year = _oracle_year(mu.get(bind.source))
            if year is not None:
                mu = dict(mu)
                mu[bind.target] = literal(str(year), datatype=XSD_INTEGER)
                kept.append(mu)
        solutions = kept
    has_agg = any(isinstance(p, CountAgg) for p in ast.projection)
    rows: list[tuple] = []
    if ast.group_by or has_agg:
        # without GROUP BY: one group, even of no solutions (SPARQL 1.1 §11.1)
        groups: dict[tuple, list[dict]] = {} if ast.group_by else {(): []}
        for mu in solutions:
            groups.setdefault(tuple(mu.get(v) for v in ast.group_by), []).append(mu)
        for key, members in groups.items():
            env = dict(zip(ast.group_by, key))
            row = []
            for p in ast.projection:
                if isinstance(p, CountAgg):
                    row.append(_count_int(sum(1 for m in members if m.get(p.var) is not None)))
                else:
                    row.append(env.get(p.name))
            rows.append(tuple(row))
    else:
        rows = [tuple(mu.get(p.name) for p in ast.projection) for mu in solutions]
    return Counter(rows), solutions


# --- parsing -------------------------------------------------------------------

def test_select_star_expands_in_first_appearance_order():
    ast = parse_query(STAR_QUERY)
    assert len(ast.patterns) == 1
    assert ast.header == ["s", "p", "o"]


def test_grouped_query_shape():
    ast = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    # five triple patterns plus the year() bind make up the WHERE block
    assert len(ast.patterns) == 5
    assert len(ast.binds) == 1
    assert ast.binds[0].source == "docDate" and ast.binds[0].target == "year"
    aggs = [p for p in ast.projection if isinstance(p, CountAgg)]
    assert aggs == [CountAgg("doc", "docN")]
    assert ast.group_by == ["faculty", "year"]
    assert [(k.var, k.ascending) for k in ast.order_by] == [("year", True), ("faculty", True)]
    assert any(
        isinstance(p.p, type(iri("urn:x:y"))) and p.p == iri(PCP_NS + "praeses")
        for p in ast.patterns
    )


def test_empty_bgp_is_an_error():
    with pytest.raises(SparqlSyntaxError):
        parse_query("select ?x where {}")


def test_unsupported_features_are_named():
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_query("select * where {?s ?p ?o . OPTIONAL {?s ?q ?r}}")
    assert "OPTIONAL" in str(exc.value)
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_query('select * where {?s ?p ?o . FILTER(?o > 3)}')
    assert "FILTER" in str(exc.value)


# Where an unsupported keyword can stand; `{kw}` marks it.
_GATE_POSITIONS = {
    "after-select": "select {kw} ?s where { ?s ?p ?o }",
    "in-where": "select ?s\nwhere {\n  ?s ?p ?o .\n  {kw} }",
    "after-block": "select ?s where { ?s ?p ?o }\n{kw}",
    "limit-argument": "select ?s where { ?s ?p ?o } limit {kw}",
}


@pytest.mark.parametrize("position", _GATE_POSITIONS)
@pytest.mark.parametrize("word", sorted(_UNSUPPORTED))
def test_an_unsupported_keyword_is_named_wherever_it_stands(word, position):
    template = _GATE_POSITIONS[position]
    before = template[: template.index("{kw}")]
    line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_query(template.replace("{kw}", word))
    assert (exc.value.feature, exc.value.line, exc.value.column) == (word.upper(), line, column)
    assert str(exc.value) == f"unsupported SPARQL feature: {word.upper()} at {line}:{column}"


def test_only_keyword_tokens_meet_the_gate():
    ast = parse_query(
        'prefix ex: <urn:x:> select ?filter where { ?filter ex:union "distinct" . '
        "?filter <urn:x:optional> ?o }"
    )
    assert ast.header == ["filter"] and len(ast.patterns) == 2


def test_mixed_case_keywords():
    ast = parse_query("Select * Where {?s ?p ?o} LIMIT 2")
    assert ast.limit == 2


def test_bad_escape_in_query_literal_is_a_query_syntax_error():
    with pytest.raises(SparqlSyntaxError) as exc:
        parse_query('select * where {?s ?p "\\u12"}')
    assert (exc.value.line, exc.value.column) == (1, 23)


def test_a_is_case_sensitive_other_keywords_are_not():
    assert parse_query("SELECT * WHERE {?s a ?o}").patterns[0].p == iri(RDF_TYPE)
    with pytest.raises(SparqlSyntaxError) as exc:
        parse_query("select * where {?s A ?o}")
    assert (exc.value.line, exc.value.column) == (1, 20)
    ast = parse_query("select * where {?s ?p TRUE . ?s ?q False}")
    assert [p.o for p in ast.patterns] == [
        literal("true", datatype=XSD_BOOLEAN),
        literal("false", datatype=XSD_BOOLEAN),
    ]


def test_projected_var_must_be_grouped():
    with pytest.raises(SparqlSyntaxError):
        parse_query("select ?s (count(?o) as ?n) where {?s ?p ?o} group by ?p")


@pytest.mark.parametrize(
    "query",
    [
        "select ?s (count(?o) as ?s) where {?s ?p ?o} group by ?s order by desc(?s)",
        "select (count(?o) as ?p) where {?s ?p ?o}",
        "select (count(?o) as ?y) where {?s ?p ?o . bind (year(?o) as ?y)}",
        "select (count(?o) as ?n) (count(?s) as ?n) where {?s ?p ?o}",
    ],
)
def test_count_alias_must_not_be_in_scope(query):
    with pytest.raises(SparqlSyntaxError, match="is already in scope"):
        parse_query(query)


def test_order_by_var_must_be_visible():
    with pytest.raises(SparqlSyntaxError):
        parse_query("select ?s where {?s ?p ?o} order by asc(?missing)")


def test_bind_target_must_be_fresh():
    with pytest.raises(SparqlSyntaxError):
        parse_query("select ?s ?o where {?s ?p ?o . bind (year(?o) as ?s)}")


def test_undeclared_prefix_fails():
    with pytest.raises(SparqlSyntaxError):
        parse_query("select * where {?s nope:p ?o}")


def test_prefix_declaration_in_text_wins():
    ast = parse_query(
        "prefix pcp: <urn:other:ns#> select * where {?s pcp:praeses ?o}",
        prefixes=DEFAULT_PREFIXES,
    )
    assert ast.patterns[0].p == iri("urn:other:ns#praeses")


# --- evaluation ----------------------------------------------------------------

def test_any_query_over_empty_graph_has_zero_rows():
    empty = Graph()
    assert evaluate(parse_query(STAR_QUERY), empty).rows == []
    grouped = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    table = evaluate(grouped, empty)
    assert table.header == ["docN", "faculty", "year"]
    assert table.rows == []


def test_star_query_over_three_statement_snippet_yields_three_rows():
    g = fixtures.load("helmstedt_persons.ttl")
    snippet = Graph(
        triples=[t for t in g.triples if t.o.kind == "literal" and t.p.value != "http://example.org/catalogus/helmstedt/gnd"]
    )
    assert len(snippet) == 3
    table = evaluate(parse_query(STAR_QUERY), snippet)
    assert len(table.rows) == 3


def test_document_corpus_grouped_counts_match_hand_tally():
    g = fixtures.qualification_documents()
    ast = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    table = evaluate(ast, g)
    assert table.header == ["docN", "faculty", "year"]
    assert table.rows == EXPECTED_DOCUMENT_ROWS


def test_document_corpus_matches_naive_oracle():
    g = fixtures.qualification_documents()
    ast = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    expected_rows, _ = naive_evaluate(ast, g)
    got = Counter(evaluate(ast, g).rows)
    assert got == expected_rows


def test_ragged_dates_drop_rows_not_queries():
    g = fixtures.qualification_documents()
    g2 = Graph(g.name, g.triples | {
        Triple(iri(PCP_DATA_NS + "d13"), iri(RDF_TYPE), iri(PCP_NS + "QualificationDocument")),
        Triple(iri(PCP_DATA_NS + "d13"), iri(PCP_NS + "praeses"), iri(PCP_DATA_NS + "arndt")),
        Triple(iri(PCP_DATA_NS + "d13"), iri(PCP_NS + "faculty"), iri(PCP_DATA_NS + "theology")),
        Triple(iri(PCP_DATA_NS + "d13"), iri(PCP_NS + "date"), literal("o. J.")),
    })
    ast = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    assert evaluate(ast, g2).rows == EXPECTED_DOCUMENT_ROWS


def test_union_of_graphs_equals_single_union_graph():
    g = fixtures.qualification_documents()
    triples = sorted(g.triples, key=str)
    g1 = Graph(triples=triples[: len(triples) // 2])
    g2 = Graph(triples=triples[len(triples) // 2 :])
    ast = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    split = evaluate(ast, [g1, g2])
    merged = evaluate(ast, Graph.union([g1, g2]))
    assert split.rows == merged.rows


def test_output_is_byte_deterministic():
    g = fixtures.qualification_documents()
    ast = parse_query(GROUPED_QUERY, prefixes=DEFAULT_PREFIXES)
    first = evaluate(ast, g).to_csv()
    permuted = Graph(triples=sorted(g.triples, key=str, reverse=True))
    second = evaluate(ast, permuted).to_csv()
    assert first == second


def _random_graph(rng: random.Random, max_triples: int = 200) -> Graph:
    subjects = [iri(f"urn:s:{i}") for i in range(5)] + [blank("n0")]
    predicates = [iri(f"urn:p:{i}") for i in range(3)]
    objects = (
        [literal(str(i)) for i in range(3)]
        + [literal("1600-05-02"), literal("x", language="de")]
        + subjects[:3]
    )
    return Graph(triples=[
        Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(rng.randrange(0, max_triples + 1))
    ])


ORACLE_QUERIES = [
    "select * where {?s ?p ?o}",
    "select ?s ?o where {?s <urn:p:0> ?o}",
    "select * where {?s <urn:p:0> ?x . ?x <urn:p:1> ?o}",
    "select ?x where {?x <urn:p:0> ?x}",
    "select ?s where {?s ?p \"1\"}",
    "select (count(?o) as ?n) ?s where {?s <urn:p:0> ?o} group by ?s",
    "select (count(?x) as ?n) ?p where {?s ?p ?x . ?x <urn:p:2> ?y} group by ?p",
    "select (count(?o) as ?n) where {?s <urn:p:0> ?o}",
    "select (count(?x) as ?n) (count(?y) as ?m) where {?s ?p ?x . ?x <urn:p:2> ?y}",
    "select ?s ?y where {?s <urn:p:0> ?o . bind (year(?o) as ?y)}",
    "select ?y (count(?s) as ?n) where {?s ?p ?o . bind (year(?o) as ?y)} group by ?y",
    "select ?s (count(?z) as ?n) where {?s <urn:p:0> ?o} group by ?s",
]


def test_evaluator_matches_naive_oracle_on_random_graphs():
    rng = random.Random(1685)
    parsed = [parse_query(q) for q in ORACLE_QUERIES]
    for round_no in range(100):
        g = _random_graph(rng)
        for ast in parsed:
            expected_rows, solutions = naive_evaluate(ast, g)
            table = evaluate(ast, g)
            assert Counter(table.rows) == expected_rows, (round_no, ast)
            # aggregation soundness: counts add up to exactly the number of
            # pre-aggregation solution rows where the counted variable is bound
            for agg in (p for p in ast.projection if isinstance(p, CountAgg)):
                idx = ast.header.index(agg.alias)
                total = sum(int(row[idx].value) for row in table.rows)
                bound = sum(1 for mu in solutions if mu.get(agg.var) is not None)
                assert total == bound
            # the last plan step counts the solutions before binds drop any
            before_binds = naive_evaluate(ast._replace(binds=[]), g)[1] if ast.binds else solutions
            assert table.plan[-1].solutions == len(before_binds), (round_no, ast)


def test_order_by_descending_and_limit():
    g = parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        ex:a ex:year "1601" . ex:b ex:year "1599" . ex:c ex:year "1600" .
        """
    )
    ast = parse_query("select ?s ?y where {?s <http://example.org/year> ?y} order by desc(?y) limit 2")
    table = evaluate(ast, g)
    assert [row[1].value for row in table.rows] == ["1601", "1600"]


def test_count_without_group_by_is_one_row_even_over_no_matches():
    # SPARQL 1.1 §11.1: without GROUP BY the solutions form one group
    query = parse_query("select (count(?s) as ?n) (count(?o) as ?m) where {?s <urn:p> ?o}")
    other = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:q"), literal("x"))])
    for g in (Graph(), other):
        table = evaluate(query, g)
        assert table.rows == [(_count_int(0), _count_int(0))]
        assert table.to_csv().splitlines() == ["n,m", "0,0"]
    matched = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:p"), literal("x"))])
    assert evaluate(query, matched).rows == [(_count_int(1), _count_int(1))]
    # with GROUP BY, no solutions make no groups and so no rows
    grouped = parse_query("select ?o (count(?s) as ?n) where {?s <urn:p> ?o} group by ?o")
    assert evaluate(grouped, other).rows == []


def test_numeric_order_beats_lexical():
    g = Graph(triples=[
        Triple(iri("urn:s:a"), iri("urn:p:v"), literal("999", datatype=XSD_INTEGER)),
        Triple(iri("urn:s:b"), iri("urn:p:v"), literal("1700", datatype=XSD_INTEGER)),
    ])
    ast = parse_query("select ?s ?v where {?s <urn:p:v> ?v} order by asc(?v)")
    table = evaluate(ast, g)
    assert [row[1].value for row in table.rows] == ["999", "1700"]


# --- ORDER BY against a reference comparator ------------------------------------

_ORDER_SUBJECTS = [iri("urn:s:a"), iri("urn:s:b"), blank("b1"), blank("b2")]
_ORDER_PREDICATES = [iri("urn:p:0"), iri("urn:p:1")]
_ORDER_OBJECTS = [
    literal("10"), literal("9"), literal("-1.5"), literal("+3"), literal("010"),
    literal("9", datatype=XSD_INTEGER), literal("1600-05-02"), literal("abc"),
    literal("Abc", language="de"), literal("abc", language="en"),
    literal("true", datatype=XSD_BOOLEAN), iri("urn:s:a"), iri("urn:o:z"), blank("b1"),
]
_ORDER_VARS = ["s", "p", "o", "y"]


def _readme_class(t) -> int:
    """README rule: unbound < blank < IRI < literal, numeric literals first."""
    if t is None:
        return 0
    if t.kind == "blank":
        return 1
    if t.kind == "iri":
        return 2
    return 3 if re.fullmatch(r"[+-]?\d+(\.\d+)?", t.value) else 4


def _readme_term_cmp(a, b) -> int:
    ca, cb = _readme_class(a), _readme_class(b)
    if ca != cb:
        return -1 if ca < cb else 1
    if ca == 0:
        return 0
    if ca == 3 and Fraction(a.value) != Fraction(b.value):
        return -1 if Fraction(a.value) < Fraction(b.value) else 1
    for x, y in (
        (a.value, b.value),
        (a.language or "", b.language or ""),
        (a.datatype or "", b.datatype or ""),
    ):
        if x != y:
            return -1 if x < y else 1
    return 0


def _reference_order(ast, solutions) -> list[tuple]:
    """Rows with their ORDER BY environments, sorted by the README rule
    with ties broken by the rows' N-Triples text."""
    records = []
    if ast.group_by or any(isinstance(p, CountAgg) for p in ast.projection):
        groups: dict[tuple, list[dict]] = {} if ast.group_by else {(): []}
        for mu in solutions:
            groups.setdefault(tuple(mu.get(v) for v in ast.group_by), []).append(mu)
        for key, members in groups.items():
            env = dict(zip(ast.group_by, key))
            row = []
            for p in ast.projection:
                if isinstance(p, CountAgg):
                    row.append(_count_int(sum(1 for m in members if m.get(p.var) is not None)))
                else:
                    row.append(env[p.name])
            env.update((k, v) for k, v in zip(ast.header, row) if k not in env)
            records.append((tuple(row), env))
    else:
        records = [(tuple(mu.get(p.name) for p in ast.projection), mu) for mu in solutions]

    def text(row):
        return tuple("" if t is None else ntriples_term(t) for t in row)

    def compare(a, b):
        for key in ast.order_by:
            c = _readme_term_cmp(a[1].get(key.var), b[1].get(key.var))
            if c:
                return c if key.ascending else -c
        ta, tb = text(a[0]), text(b[0])
        return -1 if ta < tb else (1 if ta > tb else 0)

    rows = [row for row, _ in sorted(records, key=cmp_to_key(compare))]
    return rows if ast.limit is None else rows[: ast.limit]


@st.composite
def _ordered_queries(draw) -> str:
    with_year = draw(st.booleans())
    bound = _ORDER_VARS if with_year else _ORDER_VARS[:3]
    where = "?s ?p ?o" + (" . bind (year(?o) as ?y)" if with_year else "")
    if draw(st.booleans()):
        group_by = draw(st.lists(st.sampled_from(bound), max_size=3, unique=True))
        shown = []
        if group_by:
            shown = draw(st.lists(st.sampled_from(group_by), max_size=len(group_by), unique=True))
        counted = draw(st.sampled_from(bound))
        select = " ".join("?" + v for v in shown) + f" (count(?{counted}) as ?n)"
        visible = group_by + ["n"]
        tail = " group by " + " ".join("?" + v for v in group_by) if group_by else ""
    else:
        shown = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=len(bound), unique=True))
        select = " ".join("?" + v for v in shown)
        visible = shown
        tail = ""
    keys = draw(st.lists(st.sampled_from(visible), min_size=1, max_size=3, unique=True))
    tail += " order by " + " ".join(
        f"{draw(st.sampled_from(['asc', 'desc']))}(?{k})" for k in keys
    )
    limit = draw(st.none() | st.integers(min_value=0, max_value=6))
    if limit is not None:
        tail += f" limit {limit}"
    return f"select {select} where {{{where}}}{tail}"


@settings(max_examples=300, deadline=None)
@given(
    triples=st.lists(
        st.tuples(
            st.sampled_from(_ORDER_SUBJECTS),
            st.sampled_from(_ORDER_PREDICATES),
            st.sampled_from(_ORDER_OBJECTS),
        ),
        max_size=14,
    ),
    query=_ordered_queries(),
)
def test_order_by_matches_a_reference_comparator(triples, query):
    g = Graph(triples=[Triple(s, p, o) for s, p, o in triples])
    ast = parse_query(query)
    solutions = [{"s": t.s, "p": t.p, "o": t.o} for t in g.triples]
    if ast.binds:
        solutions = [
            {**mu, "y": _count_int(_oracle_year(mu["o"]))}
            for mu in solutions
            if _oracle_year(mu["o"]) is not None
        ]
    assert evaluate(ast, g).rows == _reference_order(ast, solutions), query


# --- join planning -------------------------------------------------------------

def _random_bgp(rng: random.Random) -> str:
    """2-4 patterns over ?a ?b ?c mixed with constants of `_random_graph`."""
    variables = ["?a", "?b", "?c"]
    subjects = ["<urn:s:0>", "<urn:s:3>"]
    predicates = ["<urn:p:0>", "<urn:p:1>", "<urn:p:2>"]
    objects = ['"1"', '"x"@de', "<urn:s:1>", '"1600-05-02"']
    patterns = []
    for _ in range(rng.randint(2, 4)):
        s = rng.choice(subjects) if rng.random() < 0.15 else rng.choice(variables)
        p = rng.choice(variables) if rng.random() < 0.2 else rng.choice(predicates)
        o = rng.choice(objects) if rng.random() < 0.3 else rng.choice(variables)
        patterns.append(f"{s} {p} {o}")
    return "select * where {" + " . ".join(patterns) + "}"


def test_pattern_order_does_not_change_rows():
    rng = random.Random(2008)
    for round_no in range(150):
        g = _random_graph(rng)
        ast = parse_query(_random_bgp(rng))
        expected_rows, _ = naive_evaluate(ast, g)
        rows = evaluate(ast, g).rows
        assert Counter(rows) == expected_rows, (round_no, ast)
        for perm in itertools.permutations(ast.patterns):
            permuted = ast._replace(patterns=list(perm))
            assert evaluate(permuted, g).rows == rows, (round_no, perm)


def _persons_graph(n: int) -> Graph:
    triples = []
    for i in range(n):
        person = iri(f"{PCP_DATA_NS}person{i}")
        triples += [
            Triple(person, iri(RDF_TYPE), iri(PCP_NS + "Person")),
            Triple(person, iri(PCP_NS + "faculty"), iri(f"{PCP_DATA_NS}faculty{i % 3}")),
            Triple(person, iri(PCP_NS + "birthDate"), literal(f"{1550 + i % 50}-01-01")),
            Triple(person, iri(RDFS_LABEL), literal(f"Person {i}")),
        ]
    return Graph(triples=triples)


LOOKUP_QUERY = """\
select ?person ?faculty ?born
where {
    ?person a pcp:Person .
    ?person pcp:faculty ?faculty .
    ?person pcp:birthDate ?born .
    ?person rdfs:label "Person 7" .
} order by asc(?person)
"""


def test_lookup_match_calls_do_not_grow_with_the_graph(monkeypatch):
    ast = parse_query(LOOKUP_QUERY, prefixes=DEFAULT_PREFIXES)
    calls = []
    match = Graph.match

    def counting_match(self, *args, **kwargs):
        calls.append(args)
        return match(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "match", counting_match)
    counts = []
    for n in (50, 500):
        g = _persons_graph(n)
        calls.clear()
        table = evaluate(ast, g)
        assert [row[0] for row in table.rows] == [iri(f"{PCP_DATA_NS}person7")]
        counts.append(len(calls))
    # the label pattern first, then one probe per remaining pattern
    assert counts == [4, 4]


def test_plan_reports_estimates_and_solutions_per_pattern():
    ast = parse_query(LOOKUP_QUERY, prefixes=DEFAULT_PREFIXES)
    plan = evaluate(ast, _persons_graph(50)).plan
    assert [step.pattern for step in plan] == [ast.patterns[i] for i in (3, 0, 1, 2)]
    assert [step.estimate for step in plan] == [1, 50, 50, 50]
    assert [step.solutions for step in plan] == [1, 1, 1, 1]


# every ordered pair of members of one group: 10 groups of 100 members give
# 10**5 solutions for a 10-row answer
SELF_JOIN_QUERY = """\
select ?g (count(?b) as ?pairs)
where { ?a <urn:p:member> ?g . ?b <urn:p:member> ?g } group by ?g
"""
# Traced peak, in bytes: about 0.2 MB while the join holds at most the 1,000
# matches of the first pattern, about 20 MB if it holds every solution.
SELF_JOIN_PEAK_BOUND = 2_000_000


def test_a_count_over_a_self_join_holds_its_groups_not_its_solutions():
    member = iri("urn:p:member")
    g = Graph(triples=[Triple(iri(f"urn:m:{i}"), member, iri(f"urn:g:{i % 10}")) for i in range(1000)])
    ast = parse_query(SELF_JOIN_QUERY)
    evaluate(ast, g)  # builds the graph's indexes outside the measurement
    tracemalloc.start()
    try:
        table = evaluate(ast, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [step.solutions for step in table.plan] == [1000, 100_000]
    assert sorted(table.rows) == sorted((iri(f"urn:g:{i}"), _count_int(10_000)) for i in range(10))
    assert peak < SELF_JOIN_PEAK_BOUND, peak


# --- templates -------------------------------------------------------------------

WIKIDATA_TEMPLATE = QueryTemplate.from_text(
    'select ?person where { ?person <http://www.wikidata.org/prop/direct/P227> "{gnd}" }'
)


def test_instantiate_fills_literal_context():
    text = instantiate(WIKIDATA_TEMPLATE, {"gnd": "118755951"})
    assert '"118755951"' in text
    assert "{gnd}" not in text


def test_instantiate_missing_placeholder():
    with pytest.raises(Exception) as exc:
        instantiate(WIKIDATA_TEMPLATE, {})
    assert "gnd" in str(exc.value)


def test_instantiate_unused_binding():
    with pytest.raises(Exception) as exc:
        instantiate(WIKIDATA_TEMPLATE, {"gnd": "1", "extra": "2"})
    assert "extra" in str(exc.value)


_TRICKY = {
    "quotes-and-backslashes": 'has "quotes" and \\slashes\\',
    "c0-controls": "C0 \x01 \x0c \r \x1f controls",
    "trailing-backslash": "a\\",
}


@pytest.mark.parametrize(
    "prefix, tricky",
    [pytest.param("", value, id=name) for name, value in _TRICKY.items()]
    + [pytest.param("pre-", value, id=f"pre-{name}") for name, value in _TRICKY.items()],
)
def test_literal_escaping_round_trips_through_parser(prefix, tricky):
    template = QueryTemplate.from_text(f'select ?s where {{ ?s ?p "{prefix}{{x}}" }}')
    ast = parse_query(instantiate(template, {"x": tricky}))
    assert ast.patterns[0].o == literal(prefix + tricky)


def test_iri_context_rejects_illegal_characters():
    template = QueryTemplate.from_text("select ?s where { ?s <urn:same:{gnd}> ?o }")
    assert "<urn:same:118755951>" in instantiate(template, {"gnd": "118755951"})
    for value, bad in (("a|b", ["|"]), ("has space", [" "])):
        with pytest.raises(TemplateError) as err:
            instantiate(template, {"gnd": value})
        assert str(err.value) == f"value for {{gnd}} is illegal in IRI context: {bad}"


# Characters that N-Triples forbids in an IRI and ones it allows, then any
# text without a lone surrogate.
_IRI_VALUES = st.text(st.sampled_from(' <>"{}|^`\\\x00\x1f\x7f\x85a:/#%\u00e9')) | st.text(
    st.characters(exclude_categories=("Cs",))
)


@given(_IRI_VALUES)
def test_an_iri_placeholder_takes_exactly_the_values_that_make_an_iri(value):
    template = QueryTemplate.from_text("select ?p where { <{x}> ?p ?o }")
    try:
        iri("urn:x:" + value)
    except RdfError:
        bad = sorted({c for c in value if c in ' <>"{}|^`\\' or ord(c) < 0x21})
        with pytest.raises(TemplateError) as err:
            instantiate(template, {"x": value})
        assert str(err.value) == f"value for {{x}} is illegal in IRI context: {bad}"
    else:
        assert instantiate(template, {"x": value}) == f"select ?p where {{ <{value}> ?p ?o }}"


def test_placeholders_are_read_off_the_text():
    assert QueryTemplate("select {x} where { ?s <urn:{y}> {x} }").placeholders == {"x", "y"}
    assert QueryTemplate.from_text("select *").placeholders == frozenset()
    with pytest.raises(TypeError):
        QueryTemplate("select {x}", frozenset({"x", "y"}))


def test_a_template_is_derived_from_its_text_alone():
    text = "select {x} where { ?s <urn:{y}> {x} }"
    template = QueryTemplate(text)
    assert template == QueryTemplate.from_text(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(template, protocol)) == template
    assert template._make([text, frozenset(), ()]) == template
    assert template._replace(text="select {z}") == QueryTemplate("select {z}")
    # a field `_make` leaves unread: ValueError, and TypeError from Python 3.13 on
    unread = TypeError if sys.version_info >= (3, 13) else ValueError
    with pytest.raises(unread) as err:
        template._replace(placeholders=frozenset())
    assert type(err.value) is unread


BARE_TEMPLATE = QueryTemplate("prefix : <urn:x:> select ?s where { ?s ?p {x} }")


@pytest.mark.parametrize("value", [":a.:b:c:d", "?o#", ":a;:q:r"])
def test_a_bare_value_that_is_not_one_token_is_refused(value):
    # one would add the pattern <urn:x:b> <urn:x:c> <urn:x:d>, one comments
    # out the closing brace, one adds a predicate-object pair
    with pytest.raises(TemplateError) as err:
        instantiate(BARE_TEMPLATE, {"x": value})
    assert str(err.value) == f"value for {{x}} is not one query token: {value!r}"


@pytest.mark.parametrize("value", [":a", "?o", "42", "1.5", "ex:a.b", "*"])
def test_a_bare_value_of_one_token_fills_as_before(value):
    text = instantiate(BARE_TEMPLATE, {"x": value})
    assert text == f"prefix : <urn:x:> select ?s where {{ ?s ?p {value} }}"
