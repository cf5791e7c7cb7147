"""Model, parser, canonical serialization, and index checks.

The match() oracle is a plain linear scan over the triple set; the parser
round-trip is checked against every bundled fixture graph.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgfuse import fixtures, rdf
from kgfuse.prefixes import (
    RDF_LANGSTRING,
    RDF_TYPE,
    RDFS_LABEL,
    XSD_DATE,
    XSD_INTEGER,
    XSD_STRING,
)
from kgfuse.rdf import (
    Graph,
    RdfError,
    RelativeIriError,
    Term,
    Triple,
    TurtleSyntaxError,
    _nt_lines,
    _TurtleParser,
    blank,
    iri,
    literal,
    ntriples_line,
    parse_ntriples,
    parse_turtle,
    serialize_canonical,
)
from kgfuse.sparql import evaluate, parse_query

LEIPZIG_SNIPPET = """
@prefix leipzig: <http://example.org/catalogus/leipzig/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

leipzig:heinrichmatthiasheinrichs leipzig:surname "Heinrichs" ;
    leipzig:forename "Heinrich Matthias" ;
    rdfs:label "Heinrich Matthias Heinrichs" .
"""

HELMSTEDT_SNIPPET = """
@prefix helmstedt: <http://example.org/catalogus/helmstedt/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

helmstedt:13084 rdfs:label "Andreas Heinrich Matthias" .
helmstedt:13084 helmstedt:forename "Andreas Heinrich" .
helmstedt:13084 helmstedt:surname "Matthias" .
"""


def scan_match(g: Graph, s, p, o):
    """Brute-force oracle: filter the raw triple set, sort canonically."""
    hits = [
        t
        for t in g.triples
        if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)
    ]
    return sorted(hits, key=ntriples_line)


# --- terms -----------------------------------------------------------------

def test_literal_language_is_case_insensitive():
    assert literal("Haus", language="DE") == literal("Haus", language="de")
    assert literal("Haus", language="DE").language == "de"


def test_literal_cannot_have_language_and_datatype():
    with pytest.raises(RdfError):
        literal("x", language="de", datatype=XSD_INTEGER)


def test_xsd_string_collapses_to_plain():
    assert literal("x", datatype=XSD_STRING) == literal("x")


def test_literal_equality_is_lexical():
    assert literal("1", datatype=XSD_INTEGER) != literal("01", datatype=XSD_INTEGER)


def test_iri_must_be_absolute():
    with pytest.raises(RdfError):
        iri("relative/path")
    iri("urn:example:x")
    iri("https://d-nb.info/gnd/118755951")


@pytest.mark.parametrize(
    "build",
    [
        lambda: literal("M\u00fcller \ud800"),
        lambda: literal("x", language="de-\udfff"),
        lambda: literal("1", datatype="urn:dt:\udc00"),
        lambda: iri("urn:x:\ud83d"),
        lambda: blank("b\udbff"),
    ],
    ids=["literal", "language", "datatype", "iri", "blank"],
)
def test_a_lone_surrogate_is_a_one_line_rdf_error(build):
    # such text has no UTF-8 form, so no serialization of it could be written
    with pytest.raises(RdfError, match=r"lone surrogate U\+D[89A-F][0-9A-F]{2}") as err:
        build()
    assert "\n" not in str(err.value)


def test_predicate_must_be_iri():
    with pytest.raises(RdfError):
        Triple(iri("urn:s"), literal("p"), iri("urn:o"))
    with pytest.raises(RdfError):
        Triple(literal("s"), iri("urn:p"), iri("urn:o"))


# Term fields that construct and fields that do not: characters N-Triples
# forbids in an IRI, in a blank label or in a language tag, line breaks, a
# lone surrogate, empty text, and the datatypes a literal normalizes away.
_PLAIN = "aZ9_-.:/#\u00e9"
_TRICKY = _PLAIN + ' <>"{}|^`\\\n\r\t\x00\x7f\x85\u2028\ud800'
_TEXT = st.text(alphabet=_PLAIN, max_size=6) | st.text(alphabet=_TRICKY, max_size=6)
_TERM_FIELDS = st.tuples(
    st.sampled_from(["iri", "blank", "literal", "literal", "uri"]),
    st.tuples(st.sampled_from(["", "urn:x:", "http://e.org/a#", "a"]), _TEXT).map("".join),
    st.none() | st.sampled_from(["", "de", "EN-us"]) | st.text(alphabet="aZ9- _\n", max_size=6),
    st.none()
    | st.sampled_from(["", XSD_STRING, RDF_LANGSTRING, XSD_INTEGER])
    | st.tuples(st.sampled_from(["urn:dt:", "dt"]), _TEXT).map("".join),
)



@st.composite
def _valid_term_fields(draw):
    """Fields of a term that constructs: the checked parts keep their
    N-Triples form, and a literal's text holds no lone surrogate."""
    kind = draw(st.sampled_from(["iri", "blank", "literal", "literal"]))
    if kind == "iri":
        prefix = draw(st.sampled_from(["urn:x:", "http://e.org/a#"]))
        return kind, prefix + draw(st.text(alphabet=_PLAIN, max_size=6)), None, None
    if kind == "blank":
        return kind, draw(st.from_regex(rdf._BLANK_LABEL, fullmatch=True)), None, None
    value = draw(st.text(alphabet=_TRICKY.replace("\ud800", ""), max_size=6))
    language = draw(st.none() | st.sampled_from(["", "de", "EN-us"]))
    datatypes = [RDF_LANGSTRING] if language else [XSD_STRING, XSD_INTEGER, "urn:dt:x"]
    return kind, value, language, draw(st.none() | st.sampled_from(datatypes))


_VALID_TERM_FIELDS = _valid_term_fields()


def _term_or_none(fields):
    try:
        return Term(*fields)
    except RdfError:
        return None


def _copy(text):
    """An equal string that is not the same object."""
    return None if text is None else "".join(list(text))


@given(_VALID_TERM_FIELDS, _VALID_TERM_FIELDS)
def test_terms_and_triples_from_equal_fields_are_equal_and_hash_equal(fields, o_fields):
    term = Term(*fields)
    again = Term(*map(_copy, fields))
    assert term == again and hash(term) == hash(again)
    assert Term._make(fields) == term and term == tuple(term)
    obj = Term(*o_fields)
    s = term if term.kind != "literal" else blank("b")
    triple = Triple(s, iri("urn:p:1"), obj)
    same = Triple(Term(*map(_copy, s)), iri(_copy("urn:p:1")), Term(*map(_copy, obj)))
    assert triple == same and hash(triple) == hash(same) and triple == (s, iri("urn:p:1"), obj)


@given(_VALID_TERM_FIELDS)
def test_terms_and_triples_round_trip_through_pickle(fields):
    term = Term(*fields)
    s = term if term.kind != "literal" else blank("b")
    triple = Triple(s, iri("urn:p:1"), term)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for value in (term, triple):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is type(value) and hash(back) == hash(value)
    assert type(pickle.loads(pickle.dumps(triple)).o) is Term


@given(_TERM_FIELDS)
def test_make_and_replace_check_fields_as_the_constructor_does(fields):
    term = _term_or_none(fields)
    start = literal("x", language="de")
    if term is None:
        with pytest.raises(RdfError):
            Term._make(fields)
        with pytest.raises(RdfError):
            start._replace(**dict(zip(Term._fields, fields)))
    else:
        assert Term._make(fields) == term
        assert start._replace(**dict(zip(Term._fields, fields))) == term
        assert type(start._replace(value="y")) is Term


def test_make_and_replace_check_triple_positions():
    t = Triple(iri("urn:s:1"), iri("urn:p:1"), literal("x"))
    with pytest.raises(RdfError, match="triple subject must be IRI or blank"):
        t._replace(s=literal("s"))
    with pytest.raises(RdfError, match="triple predicate must be IRI"):
        Triple._make((t.s, blank("p"), t.o))
    assert t._replace(o=blank("o")) == Triple(t.s, t.p, blank("o"))
    assert type(Triple._make(t)) is Triple


_S = ("iri", "urn:s", None, None)
_P = ("iri", "urn:p", None, None)


@settings(max_examples=300)
@given(_TERM_FIELDS, _TERM_FIELDS, _TERM_FIELDS)
@example(_S, ("iri", "urn:x:sur name", None, None), ("literal", "", None, None))
@example(("iri", "http://x/a>b", None, None), _P, ("literal", "", None, None))
@example(("blank", "a b", None, None), _P, ("literal", "x", "en us", None))
@example(_S, _P, ("literal", "", None, "urn:d t"))
@example(_S, _P, ("literal", "x", "", None))
def test_every_triple_that_constructs_reads_back_from_its_ntriples_line(s, p, o):
    # each position keeps a drawn term that constructs and that it accepts
    s, p, o = (_term_or_none(fields) for fields in (s, p, o))
    triple = Triple(
        s if s is not None and s.kind != "literal" else blank("s"),
        p if p is not None and p.kind == "iri" else iri("urn:p:1"),
        o if o is not None else literal("o"),
    )
    assert parse_ntriples(ntriples_line(triple)).triples == {triple}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: iri("http://x/a>b"), "IRI holds a character N-Triples cannot write"),
        (lambda: iri("urn:x:sur name"), "IRI holds a character N-Triples cannot write"),
        (lambda: literal("x", datatype="urn:d t"), "datatype IRI holds a character"),
        (lambda: literal("x", language="en us"), "language tag is not one N-Triples can write"),
        (lambda: blank("a b"), "blank node label is not one N-Triples can write"),
        (lambda: blank("a."), "blank node label is not one N-Triples can write"),
    ],
)
def test_a_term_ntriples_cannot_write_is_an_rdf_error(build, message):
    with pytest.raises(RdfError, match=f"^{message}"):
        build()


def test_terms_are_tuples_of_their_fields():
    assert iri("urn:x:1") == ("iri", "urn:x:1", None, None)
    assert literal("x", language="DE") == ("literal", "x", "de", None)
    assert literal("x", language="") == literal("x")
    assert sorted([iri("urn:x:2"), blank("b"), iri("urn:x:1")]) == [
        blank("b"), iri("urn:x:1"), iri("urn:x:2")
    ]
    s, p, o = t = Triple(iri("urn:s:1"), iri("urn:p:1"), literal("x"))
    assert (s, p, o) == (t.s, t.p, t.o)
    assert repr(t.o) == 'Term("x")' and repr(t) == "Triple('<urn:s:1> <urn:p:1> \"x\" .')"


# --- parsing ---------------------------------------------------------------

def test_empty_document_parses_to_empty_graph():
    g = parse_turtle("")
    assert len(g) == 0


def test_person_snippet_three_triples_one_subject():
    g = parse_turtle(LEIPZIG_SNIPPET)
    assert len(g) == 3
    subjects = {t.s for t in g.triples}
    assert subjects == {iri("http://example.org/catalogus/leipzig/heinrichmatthiasheinrichs")}
    assert (
        Triple(
            iri("http://example.org/catalogus/leipzig/heinrichmatthiasheinrichs"),
            iri("http://example.org/catalogus/leipzig/surname"),
            literal("Heinrichs"),
        )
        in g
    )


def test_object_lists_and_typed_literals():
    text = """
    @prefix ex: <http://example.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    ex:a ex:p "x", "y"@de, "1600-03-12"^^xsd:date, 42, 3.5, true .
    """
    g = parse_turtle(text)
    assert len(g) == 6
    objects = {t.o for t in g.triples}
    assert literal("y", language="de") in objects
    assert literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer") in objects


def test_blank_node_labels():
    g = parse_turtle("_:b0 <urn:p:x> _:b1 .")
    assert Triple(blank("b0"), iri("urn:p:x"), blank("b1")) in g


def test_syntax_error_has_position_and_token():
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle("@prefix ex: <http://example.org/> .\nex:a ex:b ; .")
    assert exc.value.line == 2


def test_unsupported_syntax_rejected_loudly():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle("<urn:a:b> <urn:p:c> ( 1 2 ) .")
    with pytest.raises(TurtleSyntaxError):
        parse_turtle("<urn:a:b> <urn:p:c> [ <urn:p:d> 1 ] .")


@pytest.mark.parametrize("stray", ["$", "?x", "{", "}", "(", "*"])
def test_stray_character_is_reported_at_its_position(stray):
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle(f'<urn:s:1> <urn:p:1> 1 .\n  <urn:s:2> {stray} 2 .')
    assert str(exc.value).startswith("unexpected character at 2:13 ")
    assert (exc.value.line, exc.value.column) == (2, 13)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_error_positions_count_cr_lf_and_crlf_as_one_line_end(eol):
    text = eol.join(["@prefix ex: <urn:x:> .", "ex:a ex:b ex:c .", "ex:a ex:b ; ."])
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle(text)
    assert (exc.value.line, exc.value.column) == (3, 11)


def test_relative_iri_without_base_fails():
    with pytest.raises(RelativeIriError):
        parse_turtle("<a> <urn:p:x> <urn:o:y> .")
    with pytest.raises(RelativeIriError) as exc:
        parse_turtle("<urn:s:x> <urn:p:x> <urn:o:y> .\n<urn:s:y> <urn:p:x>  <b> .")
    assert str(exc.value).endswith(" at 2:22")
    assert (exc.value.line, exc.value.column) == (2, 22)


def test_relative_iri_with_base_resolves():
    g = parse_turtle("<a> <urn:p:x> <urn:o:y> .", base="http://example.org/dir/")
    assert Triple(iri("http://example.org/dir/a"), iri("urn:p:x"), iri("urn:o:y")) in g


def test_undeclared_prefix_fails():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle("ex:a ex:p ex:o .")


# A name's term is built once per document, until a directive changes what
# names mean; these check that the directive wins over the earlier term.

def test_a_prefix_redeclared_mid_document_applies_from_there_on():
    g = parse_turtle(
        "@prefix ex: <http://e.org/a/> .\nex:s ex:p ex:o .\n"
        "@prefix ex: <http://e.org/b/> .\nex:s ex:p ex:o .\n"
    )
    assert serialize_canonical(g) == (
        "<http://e.org/a/s> <http://e.org/a/p> <http://e.org/a/o> .\n"
        "<http://e.org/b/s> <http://e.org/b/p> <http://e.org/b/o> .\n"
    )


def test_a_base_change_applies_to_the_relative_iris_after_it():
    g = parse_turtle(
        "@base <http://e.org/x/> .\n<s> <p> <o> .\n"
        "@base <http://f.org/y/> .\n<s> <p> <o> , <../q> .\n"
    )
    assert serialize_canonical(g) == (
        "<http://e.org/x/s> <http://e.org/x/p> <http://e.org/x/o> .\n"
        "<http://f.org/y/s> <http://f.org/y/p> <http://f.org/q> .\n"
        "<http://f.org/y/s> <http://f.org/y/p> <http://f.org/y/o> .\n"
    )


def test_an_undeclared_prefix_after_a_known_name_is_reported_at_its_token():
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle("@prefix ex: <http://e.org/> .\nex:s ex:p ex:o .\nex:s zz:p ex:o .\n")
    assert str(exc.value) == "undeclared prefix 'zz' at 3:6 (near 'zz:p')"


_PREFIX_NAMES = ["", "ex", "a", "b"]
_NAMESPACES = ["http://e.org/1/", "http://e.org/2#", "urn:x:"]
_BASES = ["http://b.org/1/", "http://b.org/2/d/"]
_LOCALS = ["s", "p", "o", "x-1", "a.b", "_u", "9"]
_GAPS = [" ", "\n", "\r\n", "\r", "\t", " # note\n", "\n\n"]


@st.composite
def _prefix_heavy_turtle(draw):
    """A Turtle document that redeclares prefixes and the base as it goes, and
    its N-Triples form, built from the bindings in force at each name."""
    prefixes: dict[str, str] = {}
    base = None
    turtle: list[str] = []
    lines: list[str] = []

    def gap():
        return draw(st.sampled_from(_GAPS))

    def named(allow_blank: bool, allow_a: bool) -> tuple[str, str]:
        forms = ["iri"] + ["pname"] * 3 * bool(prefixes) + ["relative"] * bool(base)
        forms += ["blank"] * allow_blank + ["a"] * allow_a
        form = draw(st.sampled_from(forms))
        local = draw(st.sampled_from(_LOCALS))
        if form == "pname":
            prefix = draw(st.sampled_from(sorted(prefixes)))
            return f"{prefix}:{local}", f"<{prefixes[prefix]}{local}>"
        if form == "relative":
            return f"<{local}>", f"<{base}{local}>"
        if form == "blank":
            return f"_:b{local[0]}", f"_:b{local[0]}"
        if form == "a":
            return "a", f"<{RDF_TYPE}>"
        return f"<urn:n:{local}>", f"<urn:n:{local}>"

    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["prefix", "base", "triples", "triples", "triples"]))
        if kind == "prefix":
            name = draw(st.sampled_from(_PREFIX_NAMES))
            prefixes[name] = draw(st.sampled_from(_NAMESPACES))
            turtle.append(f"@prefix {name}: <{prefixes[name]}>{gap()}.")
        elif kind == "base":
            base = draw(st.sampled_from(_BASES))
            turtle.append(f"@base{gap()}<{base}> .")
        else:
            s_text, s_nt = named(allow_blank=True, allow_a=False)
            predicates = []
            for _ in range(draw(st.integers(1, 3))):
                p_text, p_nt = named(allow_blank=False, allow_a=True)
                objects = []
                for _ in range(draw(st.integers(1, 3))):
                    if draw(st.booleans()):
                        o_text, o_nt = named(allow_blank=True, allow_a=False)
                    else:
                        o_text = o_nt = f'"{draw(st.sampled_from(_LOCALS))}"'
                    objects.append(o_text)
                    lines.append(f"{s_nt} {p_nt} {o_nt} .")
                predicates.append(f"{p_text}{gap()}{f'{gap()},{gap()}'.join(objects)}")
            turtle.append(f"{s_text}{gap()}{f'{gap()};{gap()}'.join(predicates)}{gap()}.")
    return gap().join(turtle), "\n".join(lines)


@settings(max_examples=300)
@given(_prefix_heavy_turtle())
def test_prefix_heavy_turtle_parses_to_its_ntriples_form(doc):
    turtle, ntriples = doc
    assert parse_turtle(turtle) == parse_ntriples(ntriples)


def _reference_line_column(text: str, offset: int) -> tuple[int, int]:
    line, column, i = 1, 1, 0
    while i < offset:
        if text[i] == "\r" and i + 1 < offset and text[i + 1] == "\n":
            i += 2
        elif text[i] in "\r\n":
            i += 1
        else:
            column += 1
            i += 1
            continue
        line, column = line + 1, 1
    return line, column


_GAP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\r\n]*)*")


@settings(max_examples=300)
@given(
    st.text(alphabet=' \t\r\n#"<>:._-;,@^?{ab1\\\u2028\x85', max_size=60)
    | st.lists(st.sampled_from(["@prefix", "ex:a", "<urn:x>", '"s"', "\r\n", "\r", "\n", " ", "# c",
                                "_:b1", "1.5", "^^", "@de", ".", ";"]), max_size=20).map("".join)
)
def test_token_positions_count_cr_lf_and_crlf_before_their_offset(text):
    tokens = rdf._lex(text)
    parser = _TurtleParser(text, None)
    end = 0
    for tok in tokens:
        # only white space and comments lie between tokens
        assert _GAP_RE.fullmatch(text, end, tok.offset), (text, tok)
        assert text.startswith(tok.value, tok.offset)
        assert parser._at(tok) == _reference_line_column(text, tok.offset)
        end = tok.offset + len(tok.value)
    assert tokens[-1].type == "EOF" and end == len(text)


# The lexer pattern with each alternative after every one that can match where
# it does, and strings read one character per repetition: the reference that
# the frequency-ordered `rdf._LEXER_RE` and the unrolled `rdf._STRING` match.
_REFERENCE_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_REFERENCE_LEXER_RE = re.compile(
    r'(?:[ \t\r\n]+|#[^\r\n]*)*(?:(?P<PREFIX_DIR>(?<!")@prefix\b)'
    r'|(?P<BASE_DIR>(?<!")@base\b)'
    r'|(?P<IRIREF><([^<>\"{}|^`\\\x00-\x20]*)>)'
    r'|(?P<BLANK>_:([A-Za-z0-9](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?))'
    r'|(?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)'
    r'|(?P<STRING>"((?:[^"\\\n\r]|\\.)*)")'
    r'|(?P<DTYPE_SEP>\^\^)'
    r'|(?P<LANGTAG>@([A-Za-z]+(?:-[A-Za-z0-9]+)*))'
    r'|(?P<DECIMAL>[+-]?\d+\.\d+)'
    r'|(?P<INTEGER>[+-]?\d+)'
    r'|(?P<PNAME>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?)'
    r'|(?P<KEYWORD>[A-Za-z][A-Za-z0-9_]*)'
    r'|(?P<LBRACE>\{)'
    r'|(?P<RBRACE>\})'
    r'|(?P<LPAREN>\()'
    r'|(?P<RPAREN>\))'
    r'|(?P<STAR>\*)'
    r'|(?P<DOT>\.)'
    r'|(?P<SEMI>;)'
    r'|(?P<COMMA>,)'
    r'|(?P<UNKNOWN>(?s:.))'
    r'|(?P<EOF>\Z))'
)
_TOKEN_ALPHABET = [
    "@prefix", "@base", '"x"@base',
    "<urn:a>", "_:b1", "?v", "ex:a.b", ":", "a",
    '"a\\"b"', '"c\\\\d"',
    "^^", "@en-GB", "1.5", "-2",
    *"{}()*.;,", "#c", "\r\n",
    ">", "%", "'", "é",
    " ", "\n", '"', "\\", "@", "_", "1", "b",
]


def _reference_tokens(text: str) -> list[tuple[str, str, int]]:
    return [
        (m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
        for m in _REFERENCE_LEXER_RE.finditer(text)
    ]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=30).map("".join))
@example('@prefix ex: <urn:x:> .\nex:s ex:p "x"@base , "y"^^ex:d , 1.5 , -2 ; a ex:C .')
@example('select ?s where { ?s ex:p* "a\\"b" } # c')
def test_lexer_order_gives_the_tokens_of_the_reference_order(text):
    assert [tuple(tok) for tok in rdf._lex(text)] == _reference_tokens(text)


def test_lexer_order_gives_the_tokens_of_the_reference_order_on_the_fixtures():
    for path in sorted(fixtures.fixture_path("documents.ttl").parent.iterdir()):
        if path.suffix in (".ttl", ".rq"):
            text = path.read_text(encoding="utf-8")
            assert [tuple(tok) for tok in rdf._lex(text)] == _reference_tokens(text), path.name


@settings(max_examples=500)
@given(st.text(alphabet='aé\\"\n\rx', max_size=40))
def test_the_unrolled_string_pattern_matches_as_the_reference_does(body):
    text = f'"{body}'
    want = re.match(_REFERENCE_STRING, text)
    got = re.match(rdf._STRING, text)
    assert (got and (got.end(), got.group(1))) == (want and (want.end(), want.group(1)))


# --- canonical serialization ------------------------------------------------

def test_empty_graph_serializes_to_empty_document():
    assert serialize_canonical(Graph()) == ""


def test_permuted_insertion_orders_serialize_identically():
    triples = [
        Triple(iri("urn:s:1"), iri("urn:p:1"), literal("a")),
        Triple(iri("urn:s:1"), iri("urn:p:2"), literal("b", language="de")),
        Triple(iri("urn:s:2"), iri("urn:p:1"), iri("urn:o:1")),
    ]
    a = Graph(triples=triples)
    b = Graph(triples=reversed(triples))
    assert serialize_canonical(a) == serialize_canonical(b)


def test_helmstedt_snippet_serializes_sorted_and_expanded():
    g = parse_turtle(HELMSTEDT_SNIPPET)
    out = serialize_canonical(g)
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)
    assert all(line.startswith("<http://example.org/catalogus/helmstedt/13084>") for line in lines)
    assert '"Andreas Heinrich Matthias"' in out


def test_escapes_round_trip():
    tricky = literal('quote " backslash \\ newline \n tab \t end')
    g = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:p:1"), tricky)])
    assert parse_turtle(serialize_canonical(g)) == g


@pytest.mark.parametrize(
    "escape",
    [
        r"\uZZZZ",  # not hex
        r"\u41",  # too short
        r"\u+041",  # int() would accept the sign
        r"\U0041",  # too short for \U
        r"\uD800",  # surrogate
        r"\uDFFF",
        r"\U00110000",  # above U+10FFFF
    ],
)
def test_bad_unicode_escapes_are_syntax_errors(escape):
    doc = f'<urn:s:1> <urn:p:1> "a{escape}b" .'
    with pytest.raises(TurtleSyntaxError):
        parse_turtle(doc)
    with pytest.raises(TurtleSyntaxError):
        parse_ntriples(doc)


def test_unicode_escapes_decode():
    g = parse_turtle(r'<urn:s:1> <urn:p:1> "\u00e9\U0001F600\uFFFF\U0010FFFF" .')
    assert next(iter(g)).o == literal("\u00e9\U0001F600\uFFFF\U0010FFFF")


def test_roundtrip_over_fixture_corpus():
    for name, g in fixtures.corpus().items():
        got = parse_turtle(serialize_canonical(g))
        assert got.triples == g.triples, f"round-trip failed for fixture {name}"


def test_blank_relabeling_is_idempotent():
    g = parse_turtle("_:x <urn:p:a> _:y . _:y <urn:p:b> \"v\" .")
    once = parse_turtle(serialize_canonical(g))
    twice = parse_turtle(serialize_canonical(once))
    assert once == twice


def test_canonical_output_with_ten_or_more_tied_blank_nodes_is_a_fixed_point():
    # every _:n has the same signature and so does every _:m; the ties must
    # not be broken so that _:b10 sorts before _:b2
    out = serialize_canonical(
        parse_turtle("".join(f"_:n{i} <urn:p> _:m{i} .\n" for i in range(12)))
    )
    assert "_:b14 <urn:p> _:b2 .\n" in out
    assert serialize_canonical(parse_turtle(out)) == out


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 30),
            st.sampled_from([iri("urn:p:1"), iri("urn:p:2")]),
            st.one_of(st.integers(0, 30), st.sampled_from([literal("x"), iri("urn:o:1")])),
        ),
        max_size=40,
    )
)
def test_canonical_output_relabels_to_itself_under_tied_blank_nodes(items):
    # few predicates and objects, so many blank nodes share a signature
    g = Graph(
        triples=[
            Triple(blank(f"x{s}"), p, blank(f"x{o}") if isinstance(o, int) else o)
            for s, p, o in items
        ]
    )
    out = serialize_canonical(g)
    assert serialize_canonical(parse_ntriples(out)) == out


def test_parse_ntriples_reads_canonical_output():
    for g in fixtures.corpus().values():
        assert parse_ntriples(serialize_canonical(g)).triples == parse_turtle(
            serialize_canonical(g)
        ).triples


def test_parse_ntriples_rejects_turtle_shorthand():
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_ntriples('@prefix ex: <http://example.org/> .\n')
    assert exc.value.line == 1
    with pytest.raises(TurtleSyntaxError):
        parse_ntriples('<urn:a:1> <urn:p:1> "x" ; <urn:p:2> "y" .')


@pytest.mark.parametrize(
    "parse", [parse_turtle, parse_ntriples, lambda text: _TurtleParser(text, None).parse()]
)
def test_parsers_build_one_object_per_distinct_term(parse):
    g = parse('<urn:s:1> <urn:p:1> "v" .\n<urn:s:2> <urn:p:1> "v" .\n<urn:s:1> <urn:p:2> <urn:s:2> .')
    first, second, third = g  # s1 p1 "v", s1 p2 s2, s2 p1 "v"
    assert first.s is second.s and first.p is third.p and first.o is third.o
    assert second.o is third.s


def _assert_built_as_by_triple(g: Graph) -> None:
    for t in g.triples:
        assert type(t) is Triple
        assert t == Triple(*t) and hash(t) == hash(Triple(*t))


def test_parsed_fixture_triples_are_those_triple_builds():
    for path in sorted(fixtures.fixture_path("documents.ttl").parent.glob("*.ttl")):
        g = parse_turtle(path.read_text(encoding="utf-8"))
        _assert_built_as_by_triple(g)
        _assert_built_as_by_triple(parse_ntriples(serialize_canonical(g)))


_IRIS = st.text(alphabet=_PLAIN, max_size=6).map(lambda text: iri("urn:x:" + text))


@settings(max_examples=200)
@given(
    st.lists(
        st.builds(
            Triple,
            _IRIS | st.from_regex(rdf._BLANK_LABEL, fullmatch=True).map(blank),
            _IRIS,
            _VALID_TERM_FIELDS.map(lambda fields: Term(*fields)),
        ),
        max_size=8,
    )
)
def test_parsed_triples_of_canonical_text_are_those_triple_builds(triples):
    text = serialize_canonical(Graph(triples=triples))
    for parse in (parse_ntriples, lambda doc: _TurtleParser(doc, None).parse()):
        g = parse(text)
        _assert_built_as_by_triple(g)
        assert serialize_canonical(g) == text


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_turtle, '"x" <urn:p> <urn:o> .',
         "expected subject (IRI, prefixed name, or blank node) at 1:1 (near '\"x\"')"),
        (parse_ntriples, '"x" <urn:p> <urn:o> .',
         "not an N-Triples statement at 1:1 (near '\"x\" <urn:p> <urn:o> .')"),
        (parse_turtle, "true <urn:p> <urn:o> .",
         "expected subject (IRI, prefixed name, or blank node) at 1:1 (near 'true')"),
        (parse_turtle, "@prefix ex: <urn:x:> .\n1 ex:p ex:o .",
         "expected subject (IRI, prefixed name, or blank node) at 2:1 (near '1')"),
        (parse_turtle, "<urn:s> _:p <urn:o> .",
         "expected predicate (IRI, prefixed name, or 'a') at 1:9 (near '_:p')"),
        (parse_ntriples, "<urn:s> _:p <urn:o> .",
         "not an N-Triples statement at 1:1 (near '<urn:s> _:p <urn:o> .')"),
        (parse_turtle, '<urn:s> "p" <urn:o> .',
         "expected predicate (IRI, prefixed name, or 'a') at 1:9 (near '\"p\"')"),
        (parse_ntriples, '<urn:s> "p" <urn:o> .',
         "not an N-Triples statement at 1:1 (near '<urn:s> \"p\" <urn:o> .')"),
        (parse_turtle, '_:s "p"@en <urn:o> .',
         "expected predicate (IRI, prefixed name, or 'a') at 1:5 (near '\"p\"')"),
        (parse_turtle, "@prefix ex: <urn:x:> .\nex:s ex:p ex:o ;\n  _:q ex:o .",
         "expected predicate (IRI, prefixed name, or 'a') at 3:3 (near '_:q')"),
    ],
)
def test_a_literal_subject_or_a_blank_or_literal_predicate_is_a_syntax_error(parse, text, message):
    with pytest.raises(TurtleSyntaxError) as exc:
        parse(text)
    assert type(exc.value) is TurtleSyntaxError and str(exc.value) == message


def test_a_long_literal_is_read_exactly():
    value = ('Magister "artium" zu Köln, C:\\Bücher\nπ ' * 8000)[:300_000]
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    g = parse_turtle(f'@prefix ex: <urn:x:> .\nex:s ex:note "{escaped}" .\n')
    assert g.triples == {Triple(iri("urn:x:s"), iri("urn:x:note"), literal(value))}
    assert parse_ntriples(serialize_canonical(g)) == g


@pytest.mark.parametrize("tag", ["base", "prefix", "base-de"])
def test_directive_named_language_tags_round_trip(tag):
    g = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:p:1"), literal("x", language=tag))])
    text = serialize_canonical(g)
    assert text == f'<urn:s:1> <urn:p:1> "x"@{tag} .\n'
    assert parse_turtle(text) == g
    doc = f'@base <http://example.org/> .\n@prefix s: <urn:s:> .\ns:1 <urn:p:1> "x"@{tag} .'
    assert parse_turtle(doc) == g
    table = evaluate(parse_query(f'select ?s where {{?s <urn:p:1> "x"@{tag}}}'), [g])
    assert [list(row) for row in table.rows] == [[iri("urn:s:1")]]


def test_parse_ntriples_ends_lines_only_at_cr_and_lf():
    separators = "a\x85b\u2028c\u2029d"
    doc = (
        f'<urn:s:1> <urn:p:1> "{separators}" .\r\n'
        '<urn:s:2> <urn:p:1> "e" .\r<urn:s:3> <urn:p:1> "f" .'
    )
    g = parse_ntriples(doc)
    assert len(g) == 3
    assert g.match(iri("urn:s:1"), iri("urn:p:1"), literal(separators))
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_ntriples('<urn:s:1> <urn:p:1> "x" .\r\n\r\nbroken')
    assert exc.value.line == 3


@settings(max_examples=300)
@given(st.text(alphabet="a \t\r\n\x0b\x0c\x1c\x85\u2028\u2029") | st.text())
def test_ntriples_lines_end_at_cr_lf_and_crlf_only(text):
    assert _nt_lines(text) == re.split(r"\r\n?|\n", text)


# --- N-Triples documents take the line parser -------------------------------

# N-Triples-shaped lines, with the variants the two parsers once read
# differently: white space other than space and tab, a comment ended by a
# bare CR, a relative datatype IRI, and a blank-node label ending in a dot.
_NT_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1f", "\x85", "\u2028", "\u3000"]
_NT_STATEMENT = st.tuples(
    st.sampled_from(_NT_SPACES),
    st.sampled_from(["<urn:s:1>", "<s>", "<>", "_:a", "_:a.b", "_:y."]),
    st.sampled_from([" ", "\t", " \t", "", "\x0c"]),
    st.sampled_from(["<urn:p:1>", "<p>"]),
    st.sampled_from([" ", "\t", "", "\u3000"]),
    st.sampled_from([
        '"x"', '"a\\tb"', '"\\u12"', '"\x85\u2028"', '"#"', '"x"@en-GB', '"x"@prefix',
        '"x"^^<urn:dt:1>', '"x"^^<dt>', f'"x"^^<{XSD_STRING}>',
        '"x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>',
        "<urn:o:1>", "<o>", "_:a", "_:z.",
    ]),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from([".", ""]),
    st.sampled_from(_NT_SPACES + [" # c"]),
).map("".join)
_NT_LINE = _NT_STATEMENT | st.sampled_from(["", "# c", "#", " # c", "\x0c"])
_NT_DOC = st.lists(st.tuples(_NT_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=4).map(
    lambda lines: "".join(line + eol for line, eol in lines)
)


def _outcome(parse, text: str, base: str | None):
    try:
        g = parse(text, base)
    except RdfError as err:
        return type(err), str(err)
    return g.triples


@settings(max_examples=300)
@given(doc=_NT_DOC)
@example(doc='<urn:s:1> <urn:p:1> "x" .\x0c')
@example(doc='<urn:s:1> <urn:p:1> "x"^^<dt> .')
@example(doc="# c\r<urn:s:1> <urn:p:1> <urn:o:1> .")
@example(doc="<urn:s:1> <urn:p:1> _:y.")
def test_parse_turtle_reads_ntriples_as_the_turtle_parser_does(doc):
    for base in (None, "http://example.org/dir/"):
        fast = _outcome(parse_turtle, doc, base)
        assert fast == _outcome(lambda text, b: _TurtleParser(text, b).parse(), doc, base)


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1f", "\x85", "\u2028", "\u3000"])
def test_ntriples_white_space_is_only_space_and_tab(space):
    for doc in (f'{space}<urn:s:1> <urn:p:1> "x" .', f'<urn:s:1> <urn:p:1> "x" .{space}'):
        with pytest.raises(TurtleSyntaxError):
            parse_ntriples(doc)
        with pytest.raises(TurtleSyntaxError):
            parse_turtle(doc)
    assert len(parse_ntriples(' \t<urn:s:1> <urn:p:1> "x" .\t ')) == 1


@pytest.mark.parametrize("datatype", ["dt", "", "/dir/dt", "#integer"])
def test_a_literal_datatype_must_be_an_absolute_iri(datatype):
    # checked where the term is built, so no graph, commit or output holds one
    with pytest.raises(RdfError, match=f"^datatype IRI is not absolute: {datatype!r}$"):
        literal("x", datatype=datatype)
    assert literal("x", datatype="urn:dt:x").datatype == "urn:dt:x"


def test_an_empty_language_tag_is_none_and_an_empty_datatype_is_rejected():
    assert literal("x", language="") == literal("x") == Term(rdf.LITERAL, "x", "", None)
    assert literal("x", language="").language is None
    with pytest.raises(RdfError, match="^datatype IRI is not absolute: ''$"):
        literal("x", datatype="")
    with pytest.raises(RdfError, match="^literal cannot have both language and datatype$"):
        literal("x", language="de", datatype="")


@pytest.mark.parametrize("name", ["g", "urn:a b", "urn:a<b>", "urn:x\x00", "urn:x\udcff"])
def test_a_graph_name_is_an_iri_ntriples_can_write(name):
    with pytest.raises(RdfError, match="^graph name must be an absolute IRI that N-Triples"):
        Graph(name)
    assert Graph("urn:a:b").name == "urn:a:b" and Graph().name is None


def test_ntriples_rejects_a_relative_datatype_iri():
    doc = '<urn:s:1> <urn:p:1> "x"^^<dt> .'
    with pytest.raises(RdfError, match="IRI is not absolute: 'dt'"):
        parse_ntriples(doc)
    with pytest.raises(RelativeIriError):
        parse_turtle(doc)
    resolved = literal("x", datatype="http://example.org/dir/dt")
    g = parse_turtle(doc, base="http://example.org/dir/")
    assert g.triples == {Triple(iri("urn:s:1"), iri("urn:p:1"), resolved)}


def test_a_comment_ends_at_a_bare_cr():
    triple = "<urn:s:1> <urn:p:1> <urn:o:1> ."
    assert len(parse_turtle(f"# c\r{triple}")) == 1
    assert len(parse_turtle(f"@prefix ex: <urn:x:> .\n# c\r{triple}")) == 1


def test_a_blank_node_label_cannot_end_in_a_dot():
    expected = {Triple(iri("urn:s:1"), iri("urn:p:1"), blank("y"))}
    for doc in ("<urn:s:1> <urn:p:1> _:y.", "@prefix ex: <urn:x:> .\n<urn:s:1> <urn:p:1> _:y."):
        assert parse_turtle(doc).triples == expected
    assert parse_ntriples("<urn:s:1> <urn:p:1> _:y.").triples == expected
    assert Triple(blank("a.b"), iri("urn:p:1"), blank("y")) in parse_turtle("_:a.b <urn:p:1> _:y .")
    with pytest.raises(TurtleSyntaxError):
        parse_turtle("_:x. <urn:p:1> <urn:o:1> .")


def test_ntriples_documents_never_reach_the_lexer(monkeypatch):
    graphs = list(fixtures.corpus().values())
    lexed = []
    lex = rdf._lex
    monkeypatch.setattr(rdf, "_lex", lambda text: lexed.append(text) or lex(text))
    for g in graphs:
        assert parse_turtle(serialize_canonical(g)) == g
    assert lexed == []
    parse_turtle("@prefix ex: <urn:x:> .\nex:s ex:p ex:o .")
    assert len(lexed) == 1


def test_terms_have_slots_and_survive_pickling_across_processes():
    t = Triple(iri("urn:s:1"), iri("urn:p:1"), literal("Müller", language="DE"))
    assert not hasattr(t, "__dict__") and not hasattr(t.o, "__dict__")
    assert hash(t.o) == hash(literal("Müller", language="de"))
    # another hash seed: a restored cached hash would miss the set lookup
    script = (
        "import pickle, sys\n"
        "from kgfuse.rdf import Triple, iri, literal\n"
        "t = pickle.loads(sys.stdin.buffer.read())\n"
        "same = Triple(iri('urn:s:1'), iri('urn:p:1'), literal('Müller', language='de'))\n"
        "sys.exit(0 if t in {same} and t.o in {same.o} else 1)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(t), env=env, timeout=60
    )
    assert done.returncode == 0


# --- graph and indexes -------------------------------------------------------

def test_a_graph_holds_each_triple_once_and_has_no_mutators():
    t = Triple(iri("urn:s:1"), iri("urn:p:1"), literal("x"))
    g = Graph("urn:g:1", [t, t])
    assert len(g) == 1 and t in g
    assert isinstance(g.triples, frozenset) and g.triples is g.triples
    assert not any(hasattr(g, name) for name in ("add", "add_all", "copy", "_triples"))
    with pytest.raises(TypeError):
        hash(g)


def test_match_on_empty_graph():
    assert Graph().match() == []


def test_match_single_statement_from_snippet():
    g = parse_turtle(HELMSTEDT_SNIPPET)
    hits = g.match(
        s=iri("http://example.org/catalogus/helmstedt/13084"),
        p=iri(RDFS_LABEL),
    )
    assert len(hits) == 1
    assert hits[0].o == literal("Andreas Heinrich Matthias")


def _random_graph(rng: random.Random) -> Graph:
    subjects = [iri(f"urn:s:{i}") for i in range(4)] + [blank(f"n{i}") for i in range(2)]
    predicates = [iri(f"urn:p:{i}") for i in range(3)]
    objects = [literal(str(i)) for i in range(3)] + [iri("urn:o:0"), blank("n0")]
    return Graph(triples=[
        Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(rng.randrange(0, 40))
    ])


def test_match_equals_linear_scan_on_random_graphs():
    rng = random.Random(20260808)
    for _ in range(50):
        g = _random_graph(rng)
        terms = sorted(
            {x for t in g.triples for x in (t.s, t.p, t.o)},
            key=lambda term: (term.kind, term.value),
        )
        candidates = [None] + terms
        for _ in range(30):
            s = rng.choice(candidates)
            p = rng.choice(candidates)
            o = rng.choice(candidates)
            assert sorted(g.match(s, p, o), key=ntriples_line) == scan_match(g, s, p, o)


def test_match_returns_the_stored_triples_and_builds_none(monkeypatch):
    stored = {t: t for t in _random_graph(random.Random(7)).triples}
    g = Graph(triples=stored)
    built = []
    new = Triple.__new__

    def counted(cls, *fields):
        built.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(Triple, "__new__", staticmethod(counted))
    terms = [None] + sorted({x for t in stored for x in (t.s, t.p, t.o)}, key=repr)
    for s, p, o in itertools.product(terms, repeat=3):
        assert all(stored[t] is t for t in g.match(s, p, o))
    assert g.match(literal("0"), iri("urn:p:0"), literal("0")) == []
    assert built == []
    Triple(iri("urn:s:0"), iri("urn:p:0"), literal("0"))  # the count sees a triple built
    assert len(built) == 1


def test_ntriples_line_keeps_no_cache():
    assert not hasattr(ntriples_line, "cache_info")


def _escape_by_char(text: str) -> str:
    named = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return "".join(
        named.get(ch) or ("\\u%04X" % ord(ch) if ord(ch) < 0x20 else ch) for ch in text
    )


@settings(max_examples=300)
@given(st.text())
def test_literal_escaping_is_the_per_character_rule_and_round_trips(text):
    g = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:p:1"), literal(text))])
    out = serialize_canonical(g)
    assert out == f'<urn:s:1> <urn:p:1> "{_escape_by_char(text)}" .\n'
    assert parse_ntriples(out) == g


def test_union_keeps_blank_nodes_of_each_input_apart():
    first = parse_turtle('_:x <urn:p:name> "a" . _:y <urn:p:name> "b" .')
    second = parse_turtle('_:x <urn:p:name> "c" . _:x_1 <urn:p:name> "d" .')
    merged = Graph.union([first, second])
    assert len(merged) == 4
    assert {t.s.value for t in merged.match(p=iri("urn:p:name"))} == {"x", "y", "x_2", "x_1"}
    assert parse_ntriples(serialize_canonical(merged)) == parse_turtle(serialize_canonical(merged))
    # a pure function of the inputs, whatever order their triples went in
    again = Graph.union([Graph(triples=sorted(g.triples, key=ntriples_line, reverse=True))
                         for g in (first, second)])
    assert again == merged


def test_union_of_inputs_without_clashing_labels_is_the_set_union():
    first = parse_turtle('_:x <urn:p:a> <urn:o:1> . <urn:s:1> <urn:p:a> "v" .')
    second = parse_turtle('_:y <urn:p:a> <urn:o:1> . <urn:s:1> <urn:p:a> "v" .')
    assert Graph.union([first, second]).triples == first.triples | second.triples


_SUBJECTS = [iri(f"urn:s:{i}") for i in range(4)] + [blank("n0"), blank("n1")]
_PREDICATES = [iri(f"urn:p:{i}") for i in range(3)]
_OBJECTS = [literal(str(i)) for i in range(3)] + [iri("urn:s:0"), blank("n0")]
_ALL_TERMS = _SUBJECTS + _PREDICATES + _OBJECTS + [literal("absent")]


def _triples(subjects=_SUBJECTS, objects=_OBJECTS):
    return st.builds(
        Triple, st.sampled_from(subjects), st.sampled_from(_PREDICATES), st.sampled_from(objects)
    )


_PATTERN = st.tuples(*[st.none() | st.sampled_from(_ALL_TERMS)] * 3)
# One graph, probed in turn; `union` replaces it.
_GRAPH_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["match", "count"]), _PATTERN),
        # the other input holds no blank node, so the merge is the set union
        st.tuples(
            st.just("union"),
            st.tuples(
                st.lists(_triples(_SUBJECTS[:4], _OBJECTS[:4]), max_size=8),
                st.booleans(),
                st.booleans(),
            ),
        ),
    ),
    max_size=40,
)


@settings(max_examples=300)
@given(initial=st.lists(_triples(), max_size=12), ops=_GRAPH_OPS)
def test_lazily_built_indexes_answer_as_a_linear_scan(initial, ops):
    g = Graph(triples=initial)
    model = set(initial)
    for op, arg in ops:
        if op == "union":
            triples, probe_other, other_first = arg
            other = Graph(triples=triples)
            if probe_other:
                other.match()  # builds its indexes; count() of all needs none
            g = Graph.union([other, g] if other_first else [g, other])
            model |= set(triples)
        else:
            _check_probe(g, model, op, *arg)
        assert g.triples == model
    # whatever state the indexes are in now, they hold every triple
    for term in [None] + _ALL_TERMS:
        for pattern in {(term, None, None), (None, term, None), (None, None, term)}:
            _check_probe(g, model, "match", *pattern)
            _check_probe(g, model, "count", *pattern)


def _check_probe(g: Graph, model: set, op: str, s, p, o) -> None:
    hits = [t for t in model if (s is None or t.s == s) and (p is None or t.p == p)
            and (o is None or t.o == o)]
    if op == "count":
        assert g.count(s, p, o) == len(hits)
    else:
        assert sorted(g.match(s, p, o), key=ntriples_line) == sorted(hits, key=ntriples_line)


def _person_document(persons: int) -> str:
    """N-Triples of `persons` catalogue records, five triples each."""
    ns = "http://example.org/catalogus/leipzig/"
    lines = []
    for i in range(persons):
        s = f"<{ns}person{i}>"
        lines += [
            f"{s} <{RDF_TYPE}> <{ns}Professor> .",
            f'{s} <{ns}surname> "Surname{i % 97}" .',
            f'{s} <{ns}forename> "Forename{i % 31}" .',
            f'{s} <{RDFS_LABEL}> "Forename{i % 31} Surname{i % 97}"@de .',
            f'{s} <{ns}birthDate> "{1500 + i % 200}-01-01"^^<{XSD_DATE}> .',
        ]
    return "\n".join(lines) + "\n"


def test_parse_ntriples_retains_little_memory_until_the_first_probe():
    text = _person_document(400)
    gc.collect()
    tracemalloc.start()
    try:
        g = parse_ntriples(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 2000
    # the triple set and the shared terms only; both indexes took about 400 more
    assert retained / len(g) < 400
    assert g.count(p=iri(RDFS_LABEL)) == 400


def test_count_equals_match_length_on_random_graphs():
    rng = random.Random(2008)
    for _ in range(50):
        g = _random_graph(rng)
        candidates = [None] + sorted(
            {x for t in g.triples for x in (t.s, t.p, t.o)} | {literal("absent")},
            key=lambda term: (term.kind, term.value),
        )
        for s, p, o in itertools.product(candidates, repeat=3):
            assert g.count(s, p, o) == len(g.match(s, p, o))


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([iri(f"urn:s:{i}") for i in range(5)]),
            st.sampled_from([iri(f"urn:p:{i}") for i in range(4)]),
            st.sampled_from(
                [literal(str(i)) for i in range(4)]
                + [literal("x", language="de"), iri("urn:o:1")]
            ),
        )
    )
)
def test_canonical_output_is_pure_function_of_triple_set(items):
    triples = [Triple(*item) for item in items]
    g1 = Graph(triples=triples)
    g2 = Graph(triples=sorted(triples, key=ntriples_line, reverse=True))
    assert serialize_canonical(g1) == serialize_canonical(g2)
    assert parse_turtle(serialize_canonical(g1)).triples == g1.triples
