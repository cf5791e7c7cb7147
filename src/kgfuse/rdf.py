"""RDF data model, Turtle parsing, canonical N-Triples output, pattern matching.

The lexer and the term grammar here (IRIs, prefixed names, literals) also
serve the query parser in `sparql`.

A graph is built once, from its name and its triples, and is immutable:
the parsers, `Graph.union` and the fixture catalogues each collect a set
and make one `Graph` of it.  The first `match` or `count` builds two
nested-dict indexes (SPO and POS) whose leaves hold the stored triples, so
every pattern with a bound subject or predicate is answered without a full
scan and without building a triple; a graph that is only parsed, merged
and written never pays for them.  `Graph.match` returns triples in index
order; canonical order is decided only where output is written.
Everything here is deliberately syntactic: literals compare by exact
lexical form, which keeps diffs and version changesets reversible.
"""

from __future__ import annotations

import re
from typing import Collection, Iterable, Iterator, NamedTuple, Optional
from urllib.parse import urljoin

from .prefixes import RDF_LANGSTRING, RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from .prefixes import KgfuseError

IRI = "iri"
BLANK = "blank"
LITERAL = "literal"

ABSOLUTE_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# The characters N-Triples forbids in an IRI, as the body of a character class.
_IRI_FORBIDDEN = r"<>\"{}|^`\\\x00-\x20"
_IRI_FORBIDDEN_RE = re.compile(rf"[{_IRI_FORBIDDEN}]")
# The text of an IRI.
_IRI_TEXT = rf"[^{_IRI_FORBIDDEN}]*"
# Term patterns, each with one group around what the term keeps; both the
# lexer and the N-Triples line pattern are built from them.
_IRIREF = rf"<({_IRI_TEXT})>"
_BLANK_LABEL = r"[A-Za-z0-9](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?"
# A blank-node label may hold dots but not end in one, as in Turtle.
_BLANK = rf"_:({_BLANK_LABEL})"
# A string in Friedl's unrolled-loop form: runs of plain characters between
# escapes.  It matches the same language, with the same group, as
# `"((?:[^"\\\n\r]|\\.)*)"`, but `re` keeps no save point per character.
_STRING = r'"([^"\\\n\r]*(?:\\.[^"\\\n\r]*)*)"'
_LANGTAG_BODY = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LANGTAG = rf"@({_LANGTAG_BODY})"
_DTYPE_SEP = r"\^\^"

# An IRI that N-Triples can write: absolute, with none of the characters it
# forbids.  Terms, graph names and `fuse` namespaces are checked with it.
IRI_RE = re.compile(ABSOLUTE_IRI_RE.pattern + _IRI_TEXT + r"\Z")
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL + r"\Z")
_LANGTAG_BODY_RE = re.compile(_LANGTAG_BODY + r"\Z")


class RdfError(KgfuseError, ValueError):
    """Base class for model and parser errors."""


class TurtleSyntaxError(RdfError):
    def __init__(self, message: str, line: int, column: int, token: str = ""):
        self.line = line
        self.column = column
        self.token = token
        where = f" at {line}:{column}"
        tok = f" (near {token!r})" if token else ""
        super().__init__(f"{message}{where}{tok}")


class RelativeIriError(RdfError):
    def __init__(self, iri: str, line: int, column: int):
        self.iri = iri
        self.line = line
        self.column = column
        super().__init__(f"relative IRI {iri!r} and no base was given at {line}:{column}")


class _TermFields(NamedTuple):
    kind: str
    value: str
    language: Optional[str] = None
    datatype: Optional[str] = None


class Term(_TermFields):
    """An RDF term: IRI, blank node, or literal.

    A named tuple of `kind`, `value`, `language` and `datatype`, so it
    hashes, compares equal to a plain tuple of its fields and sorts like
    one.  `value` holds the IRI, the blank-node label, or the literal
    lexical form depending on `kind`.  Language tags are lower-cased on
    construction so equality and hashing are case-insensitive, an empty
    language tag is none, and `^^xsd:string` collapses to the plain
    literal form; an empty datatype is not an absolute IRI, so it is
    rejected.  Every term built can be written as N-Triples and read
    back equal: an IRI, the datatype IRI of a literal included, must be
    absolute and hold no character N-Triples forbids in an IRI, a language
    tag and a blank-node label must have their N-Triples form, and text
    holding a lone surrogate, which has no UTF-8 form, is rejected.
    `_make` and `_replace` check their fields as the constructor does.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, value: str, language: str | None = None, datatype: str | None = None
    ):
        if kind == IRI:
            if not IRI_RE.match(value):
                raise _iri_error("IRI", value)
            if language or datatype:
                raise RdfError("IRI term cannot carry language or datatype")
        elif kind == BLANK:
            if not value:
                raise RdfError("blank node label must be non-empty")
            if language or datatype:
                raise RdfError("blank term cannot carry language or datatype")
        elif kind == LITERAL:
            if language:
                language = language.lower()
                if datatype == RDF_LANGSTRING:
                    datatype = None
                elif datatype is not None:
                    raise RdfError("literal cannot have both language and datatype")
            else:
                if datatype == RDF_LANGSTRING:
                    raise RdfError("rdf:langString literal requires a language tag")
                if datatype == XSD_STRING:
                    datatype = None
                elif datatype is not None and not IRI_RE.match(datatype):
                    raise _iri_error("datatype IRI", datatype)
        else:
            raise RdfError(f"unknown term kind: {kind!r}")
        if not (value.isascii() and (language or "").isascii() and (datatype or "").isascii()):
            for text in (value, language, datatype):
                if text and (m := _SURROGATE_RE.search(text)):
                    raise RdfError(
                        f"{kind} term holds lone surrogate U+{ord(m.group()):04X}: {text!r}"
                    )
        if kind == BLANK and not _BLANK_LABEL_RE.match(value):
            raise RdfError(f"blank node label is not one N-Triples can write: {value!r}")
        if language and not _LANGTAG_BODY_RE.match(language):
            raise RdfError(f"language tag is not one N-Triples can write: {language!r}")
        return tuple.__new__(cls, (kind, value, language or None, datatype or None))

    @classmethod
    def _make(cls, fields: Iterable) -> "Term":
        return cls(*fields)

    def __repr__(self):
        return f"Term({ntriples_term(self)})"


def _iri_error(what: str, text: str) -> RdfError:
    """Why `text`, which `IRI_RE` does not match, is not an IRI of a term."""
    if ABSOLUTE_IRI_RE.match(text):
        return RdfError(f"{what} holds a character N-Triples cannot write: {text!r}")
    return RdfError(f"{what} is not absolute: {text!r}")


def check_graph_name(name: str, error: type[Exception] = RdfError) -> None:
    """Raise `error` unless `name` is an absolute IRI N-Triples can write; its
    text is UTF-8, which has no form for a lone surrogate."""
    if not IRI_RE.match(name) or _SURROGATE_RE.search(name):
        raise error(f"graph name must be an absolute IRI that N-Triples can write: {name!r}")


def iri(value: str) -> Term:
    return Term(IRI, value)


def blank(label: str) -> Term:
    return Term(BLANK, label)


def literal(lexical: str, language: str | None = None, datatype: str | None = None) -> Term:
    return Term(LITERAL, lexical, language, datatype)


class _TripleFields(NamedTuple):
    s: Term
    p: Term
    o: Term


class Triple(_TripleFields):
    """A named tuple of subject `s`, predicate `p` and object `o`: an IRI
    or blank subject and an IRI predicate.  `_make` and `_replace` check
    their fields as the constructor does."""

    __slots__ = ()

    def __new__(cls, s: Term, p: Term, o: Term):
        if s.kind not in (IRI, BLANK):
            raise RdfError(f"triple subject must be IRI or blank, got {s!r}")
        if p.kind != IRI:
            raise RdfError(f"triple predicate must be IRI, got {p!r}")
        return tuple.__new__(cls, (s, p, o))

    @classmethod
    def _make(cls, fields: Iterable) -> "Triple":
        return cls(*fields)

    def __repr__(self):
        return f"Triple({ntriples_line(self)!r})"


_LITERAL_ESCAPES = {chr(c): "\\u%04X" % c for c in range(0x20)} | {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}
_LITERAL_ESCAPE_RE = re.compile(r'[\\"\x00-\x1f]')


def _escape_literal(text: str) -> str:
    return _LITERAL_ESCAPE_RE.sub(lambda m: _LITERAL_ESCAPES[m.group()], text)


def ntriples_term(term: Term) -> str:
    kind = term.kind
    if kind == IRI:
        return f"<{term.value}>"
    if kind == BLANK:
        return f"_:{term.value}"
    body = f'"{_escape_literal(term.value)}"'
    if term.language:
        return f"{body}@{term.language}"
    if term.datatype:
        return f"{body}^^<{term.datatype}>"
    return body


def ntriples_line(triple: Triple) -> str:
    # `Triple` checks that s is an IRI or a blank node and p an IRI, so only
    # o goes through `ntriples_term`: a call costs more than a named-tuple
    # field read, and this runs once per triple written.
    s, p, o = triple
    if s.kind == IRI:
        return f"<{s.value}> <{p.value}> {ntriples_term(o)} ."
    return f"_:{s.value} <{p.value}> {ntriples_term(o)} ."


_Index = dict[Term, dict[Term, dict[Term, Triple]]]


class Graph:
    """A named, immutable set of triples with SPO and POS indexes.

    A graph is built once, from its name and its triples, and never changes:
    `triples` is a frozenset, and a new graph is a new `Graph`.  The two
    indexes answer every pattern: SPO those with the subject bound, POS the
    rest.  Only a pattern that binds the object alone reads one leaf per
    predicate.  The first `match` or `count` builds both in one pass over
    the triples, along with the number of triples of each predicate.
    `count()` of the whole graph needs none.

    Threads may share a graph.  Each first probe builds both indexes and
    publishes them in one assignment, so none reads a half-built index (two
    racing probes may both build them).
    """

    def __init__(self, name: str | None = None, triples: Iterable[Triple] = ()):
        if name is not None:
            check_graph_name(name)
        self.name = name
        self.triples: frozenset[Triple] = frozenset(triples)
        # (SPO, POS, triples per predicate), None until the first probe that
        # needs them.  Each leaf maps the last term of its index to the
        # stored triple.
        self._index: tuple[_Index, _Index, dict[Term, int]] | None = None

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __iter__(self) -> Iterator[Triple]:
        """The triples in canonical order, sorted on each call."""
        return iter(sorted(self.triples, key=ntriples_line))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.triples == other.triples

    def _indexes(self) -> tuple[_Index, _Index, dict[Term, int]]:
        """SPO, POS and the number of triples of each predicate, built on
        the first call."""
        if self._index is None:
            spo: _Index = {}
            pos: _Index = {}
            for t in self.triples:
                s, p, o = t
                spo.setdefault(s, {}).setdefault(p, {})[o] = t
                pos.setdefault(p, {}).setdefault(o, {})[s] = t
            sizes = {p: sum(map(len, by_o.values())) for p, by_o in pos.items()}
            self._index = spo, pos, sizes
        return self._index

    def _leaves(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> tuple[Iterable[dict[Term, Triple]], Term | None]:
        """The index leaves that hold the triples agreeing with `s`, `p`, `o`.

        With `s` bound the leaves come from SPO and the second value is `o`,
        the key to read in each leaf (None: all of it).  Otherwise they come
        from POS and each whole leaf agrees: one predicate, or every
        predicate's leaf for `o`.
        """
        spo, pos, _ = self._indexes()
        if s is not None:
            by_p = spo.get(s, {})
            return (by_p.values() if p is None else [by_p.get(p, {})]), o
        if p is not None:
            by_o = pos.get(p, {})
            return (by_o.values() if o is None else [by_o.get(o, {})]), None
        if o is not None:
            return [by_o.get(o, {}) for by_o in pos.values()], None
        return [leaf for by_o in pos.values() for leaf in by_o.values()], None

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> list[Triple]:
        """The stored triples agreeing with the bound positions, in index order.

        The order is not canonical: a caller that writes output sorts it.
        """
        leaves, key = self._leaves(s, p, o)
        if key is None:
            return [t for leaf in leaves for t in leaf.values()]
        return [t for leaf in leaves if (t := leaf.get(key)) is not None]

    def count(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> int:
        """Number of triples `match(s, p, o)` would return, read off the index sizes."""
        if s is None and o is None:
            return len(self.triples) if p is None else self._indexes()[2].get(p, 0)
        leaves, key = self._leaves(s, p, o)
        if key is None:
            return sum(map(len, leaves))
        return sum(key in leaf for leaf in leaves)

    @staticmethod
    def union(graphs: Iterable["Graph"], name: str | None = None) -> "Graph":
        """The RDF merge of `graphs`: blank nodes stay apart per input.

        A blank label that an earlier input already uses is renamed to
        `<label>_<n>`, with the smallest n that no input uses.  Inputs whose
        labels do not clash keep them all, and the renaming is a pure
        function of the inputs and their order.
        """
        graphs = list(graphs)
        labels = [
            {x.value for t in g.triples for x in (t.s, t.o) if x.kind == BLANK} for g in graphs
        ]
        taken = set().union(*labels)
        seen: set[str] = set()
        triples: set[Triple] = set()
        for g, own in zip(graphs, labels):
            mapping = {}
            for label in sorted(own & seen):
                n = 1
                while f"{label}_{n}" in taken:
                    n += 1
                mapping[label] = f"{label}_{n}"
                taken.add(mapping[label])
            seen |= own
            triples.update(
                Triple(_relabel(t.s, mapping), t.p, _relabel(t.o, mapping))
                if mapping and (t.s.kind == BLANK or t.o.kind == BLANK)
                else t
                for t in g.triples
            )
        return Graph(name, triples)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _blank_signature(label: str, outgoing: dict[str, list[Triple]]) -> tuple:
    sig = []
    for t in outgoing.get(label, ()):
        obj = "_:_" if t.o.kind == BLANK else ntriples_term(t.o)
        sig.append((ntriples_term(t.p), obj))
    return tuple(sorted(sig))


def _canonical_blank_map(triples: Iterable[Triple]) -> dict[str, str]:
    labels: set[str] = set()
    outgoing: dict[str, list[Triple]] = {}
    for t in triples:
        if t.s.kind == BLANK:
            labels.add(t.s.value)
            outgoing.setdefault(t.s.value, []).append(t)
        if t.o.kind == BLANK:
            labels.add(t.o.value)
    if not labels:
        return {}
    # Signature first; the original label breaks ties, shorter labels first,
    # which keeps the relabeling a pure function of the triple set and makes
    # `_:b2` sort before `_:b10`, so canonical output relabels to itself.
    order = sorted(labels, key=lambda b: (_blank_signature(b, outgoing), len(b), b))
    return {old: f"b{i}" for i, old in enumerate(order)}


def _relabel(term: Term, mapping: dict[str, str]) -> Term:
    if term.kind == BLANK and term.value in mapping:
        return Term(BLANK, mapping[term.value])
    return term


def _canonical_text(lines: list[str], triples: frozenset[Triple]) -> str:
    """`lines` as they are plus `triples` with their blank nodes relabeled,
    sorted by code point.  That is UTF-8 byte order for all text that has a
    UTF-8 form, which text without lone surrogates does.  Extends `lines`."""
    mapping = _canonical_blank_map(triples)
    for t in triples:
        if mapping and (t.s.kind == BLANK or t.o.kind == BLANK):
            t = Triple(_relabel(t.s, mapping), t.p, _relabel(t.o, mapping))
        lines.append(ntriples_line(t))
    if not lines:
        return ""
    lines.sort()
    return "\n".join(lines) + "\n"


def serialize_canonical(g: Graph) -> str:
    """Canonical N-Triples: blank nodes relabeled, lines sorted by byte order."""
    return _canonical_text([], g.triples)


def serialize_canonical_lines(lines: Collection[str]) -> str:
    """`serialize_canonical` of the graph held by N-Triples `lines`, each one
    as `ntriples_line` writes it (the changeset store keeps such lines).

    A line without `_:` holds no blank node, so it is already canonical.  Only
    the lines with `_:` are parsed: they hold every triple that mentions a
    blank node, which is all the relabeling reads.
    """
    plain = [line for line in lines if "_:" not in line]
    blanks = parse_ntriples("\n".join(line for line in lines if "_:" in line))
    return _canonical_text(plain, blanks.triples)


# ---------------------------------------------------------------------------
# Lexer and term parsing shared by Turtle and the query language
# ---------------------------------------------------------------------------

# Each match is one token with the white space and comments before it.  `re`
# tries the alternatives in order and the first that matches wins, so they
# are ordered by how often they occur in Turtle.  Where two can match at the
# same place the order must keep: PREFIX_DIR and BASE_DIR before LANGTAG,
# DECIMAL before INTEGER, PNAME before KEYWORD, and UNKNOWN and EOF last;
# `test_lexer_order_gives_the_tokens_of_the_reference_order` checks it.
# Right after a closing quote `@base` and `@prefix` are language tags, not
# directives.  EOF matches only at the end of the text, after its trailing
# white space.
_LEXER_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\r\n]*)*(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            # Prefixed name; the local part may contain dots but not end in one.
            ("PNAME", r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?"),
            ("STRING", _STRING),
            ("SEMI", r";"),
            ("DOT", r"\."),
            ("IRIREF", _IRIREF),
            ("COMMA", r","),
            ("PREFIX_DIR", r'(?<!")@prefix\b'),
            ("BASE_DIR", r'(?<!")@base\b'),
            ("LANGTAG", _LANGTAG),
            ("BLANK", _BLANK),
            ("DTYPE_SEP", _DTYPE_SEP),
            ("DECIMAL", r"[+-]?\d+\.\d+"),
            ("INTEGER", r"[+-]?\d+"),
            ("VAR", r"\?[A-Za-z_][A-Za-z0-9_]*"),
            ("KEYWORD", r"[A-Za-z][A-Za-z0-9_]*"),
            ("LBRACE", r"\{"),
            ("RBRACE", r"\}"),
            ("LPAREN", r"\("),
            ("RPAREN", r"\)"),
            ("STAR", r"\*"),
            ("UNKNOWN", r"(?s:.)"),
            ("EOF", r"\Z"),
        )
    )
    + ")"
)

_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


_HEX_ESCAPES = {"u": re.compile(r"[0-9A-Fa-f]{4}"), "U": re.compile(r"[0-9A-Fa-f]{8}")}


class _Token(NamedTuple):
    type: str
    value: str
    offset: int  # where `value` starts in the text

    @property
    def keyword(self) -> str:
        """The lower-cased value of a KEYWORD token, else ''."""
        return self.value.lower() if self.type == "KEYWORD" else ""


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset` in `text`.

    CR, LF and CRLF each end one line, as in `_nt_lines`.
    """
    line = 1 + text.count("\n", 0, offset) + text.count("\r", 0, offset)
    line -= text.count("\r\n", 0, offset)
    line_start = max(text.rfind("\n", 0, offset), text.rfind("\r", 0, offset)) + 1
    return line, offset - line_start + 1


def _unescape(raw: str, line: int, column: int, error: type[Exception]) -> str:
    """Decode the escapes of a string body; a bad one raises `error`."""
    out = []
    i = 0
    while True:
        j = raw.find("\\", i)
        if j < 0:
            out.append(raw[i:])
            return "".join(out)
        out.append(raw[i:j])
        if j + 1 >= len(raw):
            raise error("dangling escape in string", line, column, raw)
        esc = raw[j + 1]
        if esc in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[esc])
            i = j + 2
        elif esc in _HEX_ESCAPES:
            m = _HEX_ESCAPES[esc].match(raw, j + 2)
            if not m:
                raise error(f"malformed \\{esc} escape", line, column, raw)
            code = int(m.group(), 16)
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise error(
                    f"\\{esc}{m.group()} is not a Unicode scalar value", line, column, raw
                )
            out.append(chr(code))
            i = m.end()
        else:
            raise error(f"unsupported escape \\{esc}", line, column, raw)


def _lex(text: str) -> list[_Token]:
    """Tokens of a Turtle document or a query, without white space and
    comments, ending in one EOF token.

    Never raises: a character no other alternative matches becomes a
    one-character UNKNOWN token, and each parser rejects the tokens it does
    not accept, so the query parser can name an unsupported keyword
    wherever it stands (the FILTER of `FILTER(?o > 3)`, whose `>` is UNKNOWN).
    """
    tokens = []
    for m in _LEXER_RE.finditer(text):
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    return tokens


class _TermParser:
    """Token stream, IRIs and literals, shared by the Turtle and query parsers.

    Subclasses set `error`, the syntax error class they raise.  A relative
    IRI is resolved against `base`, and is an error when there is none.
    """

    error: type[Exception]

    def __init__(self, text: str, prefixes: dict[str, str], base: str | None):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.prefixes = prefixes
        self.base = base

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _at(self, tok: _Token) -> tuple[int, int]:
        """The line and column where `tok` starts."""
        return _line_column(self.text, tok.offset)

    def _fail(self, message: str, tok: _Token):
        raise self.error(message, *self._at(tok), tok.value)

    def _expect(self, type_: str, message: str | None = None) -> _Token:
        tok = self._next()
        if tok.type != type_:
            self._fail(message or f"expected {type_}", tok)
        return tok

    def _resolve(self, tok: _Token) -> str:
        value = tok.value[1:-1]
        if ABSOLUTE_IRI_RE.match(value):
            return value
        if self.base is None:
            raise RelativeIriError(value, *self._at(tok))
        return urljoin(self.base, value)

    def _pname_to_iri(self, tok: _Token) -> str:
        prefix, _, local = tok.value.partition(":")
        if prefix not in self.prefixes:
            self._fail(f"undeclared prefix {prefix!r}", tok)
        return self.prefixes[prefix] + local

    def _iri(self, tok: _Token) -> str | None:
        """The IRI of an IRIREF or prefixed-name token, else None."""
        if tok.type == "IRIREF":
            return self._resolve(tok)
        if tok.type == "PNAME":
            return self._pname_to_iri(tok)
        return None

    def _literal(self, tok: _Token) -> Term | None:
        """The literal `tok` starts, with its language tag or datatype, else None."""
        if tok.type == "STRING":
            lexical = tok.value[1:-1]
            if "\\" in lexical:
                lexical = _unescape(lexical, *self._at(tok), self.error)
            nxt = self._peek()
            if nxt.type == "LANGTAG":
                self._next()
                return literal(lexical, language=nxt.value[1:])
            if nxt.type == "DTYPE_SEP":
                self._next()
                dt_tok = self._next()
                datatype = self._iri(dt_tok)
                if datatype is None:
                    self._fail("expected datatype IRI after ^^", dt_tok)
                return literal(lexical, datatype=datatype)
            return literal(lexical)
        if tok.type == "INTEGER":
            return literal(tok.value, datatype=XSD_INTEGER)
        if tok.type == "DECIMAL":
            return literal(tok.value, datatype=XSD_DECIMAL)
        return None


# ---------------------------------------------------------------------------
# Turtle subset parser
# ---------------------------------------------------------------------------

# Tokens Turtle has no use for (the query language's, and UNKNOWN): each
# starts with a character that is stray in a Turtle document.
_NOT_TURTLE = frozenset({"VAR", "LBRACE", "RBRACE", "LPAREN", "RPAREN", "STAR", "UNKNOWN"})


# The tokens of the terms that `_TurtleParser._named` builds, besides `a`.
_NODE_TOKENS = frozenset({"IRIREF", "PNAME", "BLANK"})


class _TurtleParser(_TermParser):
    error = TurtleSyntaxError

    def __init__(self, text: str, base: str | None):
        self.triples: set[Triple] = set()
        # one object per distinct term, however often the document repeats it
        self.terms: dict[Term, Term] = {}
        # The term of each IRI, prefixed-name, `a` or blank-node token, by
        # its text, which also tells its type: `<`, `_:`, a colon, or `a`.
        # A directive can change what such a token means, so each one clears it.
        self.named: dict[str, Term] = {}
        super().__init__(text, {}, base)

    def _share(self, term: Term) -> Term:
        return self.terms.setdefault(term, term)

    def _named(self, tok: _Token) -> Term:
        term = self.named.get(tok.value)
        if term is None:
            if tok.type == "BLANK":
                term = blank(tok.value[2:])
            elif tok.type == "KEYWORD":
                term = iri(RDF_TYPE)
            else:
                term = iri(self._iri(tok))
            term = self.named[tok.value] = self._share(term)
        return term

    def _fail(self, message: str, tok: _Token):
        if tok.type in _NOT_TURTLE:
            message = "unexpected character"
        super()._fail(message, tok)

    def parse(self) -> Graph:
        while self._peek().type != "EOF":
            tok = self._peek()
            if tok.type == "PREFIX_DIR":
                self._prefix_directive()
            elif tok.type == "BASE_DIR":
                self._base_directive()
            else:
                self._triples_block()
        return Graph(triples=self.triples)

    def _prefix_directive(self):
        self._expect("PREFIX_DIR")
        pname = self._expect("PNAME")
        if not pname.value.endswith(":"):
            self._fail("prefix declaration must end with ':'", pname)
        iriref = self._expect("IRIREF")
        self.prefixes[pname.value[:-1]] = self._resolve(iriref)
        self.named.clear()
        self._expect("DOT")

    def _base_directive(self):
        self._expect("BASE_DIR")
        iriref = self._expect("IRIREF")
        self.base = self._resolve(iriref)
        self.named.clear()
        self._expect("DOT")

    def _subject(self) -> Term:
        tok = self._next()
        if tok.type not in _NODE_TOKENS:
            self._fail("expected subject (IRI, prefixed name, or blank node)", tok)
        return self._named(tok)

    def _predicate(self) -> Term:
        tok = self._next()
        if not (tok.type in ("IRIREF", "PNAME") or tok.type == "KEYWORD" and tok.value == "a"):
            self._fail("expected predicate (IRI, prefixed name, or 'a')", tok)
        return self._named(tok)

    def _object(self) -> Term:
        tok = self._next()
        if tok.type in _NODE_TOKENS:
            return self._named(tok)
        term = self._literal(tok)
        if term is None:
            if tok.type == "KEYWORD" and tok.value in ("true", "false"):
                term = literal(tok.value, datatype=XSD_BOOLEAN)
            else:
                self._fail("expected object term", tok)
        return self._share(term)

    def _triples_block(self):
        add = self.triples.add
        subject = self._subject()
        while True:
            predicate = self._predicate()
            while True:
                # `_subject` and `_predicate` admit only what `Triple` checks for.
                add(tuple.__new__(Triple, (subject, predicate, self._object())))
                if self._peek().type == "COMMA":
                    self._next()
                    continue
                break
            tok = self._next()
            if tok.type == "SEMI":
                # allow trailing ';' before '.'
                if self._peek().type == "DOT":
                    self._next()
                    return
                continue
            if tok.type == "DOT":
                return
            self._fail("expected ';', ',' or '.'", tok)


def parse_turtle(text: str, base: str | None = None) -> Graph:
    """Parse the supported Turtle subset.

    Supported: @prefix/@base, `a`, predicate lists `;`, object lists `,`,
    typed and language literals, numeric/boolean shorthand, labeled blank
    nodes (a label cannot end in `.`).  Anything else fails with a
    positioned syntax error.  An N-Triples document is read by the cheaper
    `parse_ntriples`, which builds the same graph; at its first line that is
    not an N-Triples statement the whole text is parsed as Turtle instead.
    """
    try:
        return parse_ntriples(text)
    except RdfError:
        return _TurtleParser(text, base).parse()


# One triple per line, as serialize_canonical writes it; the changeset store
# and parse_turtle read these in bulk.  Groups 1, 4 and 6 hold the whole
# subject, predicate and object text.
_NT_LINE_RE = re.compile(
    rf"^((?:{_IRIREF}|{_BLANK}))[ \t]+({_IRIREF})[ \t]+"
    rf"((?:{_IRIREF}|{_BLANK}|{_STRING}(?:{_LANGTAG}|{_DTYPE_SEP}{_IRIREF})?))[ \t]*\.$"
)


def _nt_lines(text: str) -> list[str]:
    """The lines of `text`, ended by CR, LF or CRLF only.

    str.splitlines would also split a literal holding U+0085, U+2028 or
    U+2029, which are written unescaped.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_ntriples(text: str) -> Graph:
    """Strict N-Triples: one statement per line, no directives.

    White space is space and tab, every IRI must be absolute, and a
    blank-node label cannot end in `.`.  Each distinct term text is built
    into a `Term` once per call, so equal terms are shared.  The graph's
    indexes are left to its first probe.
    """
    triples: set[Triple] = set()
    add = triples.add
    terms: dict[str, Term] = {}
    for lineno, raw in enumerate(_nt_lines(text), 1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        m = _NT_LINE_RE.match(line)
        if not m:
            raise TurtleSyntaxError("not an N-Triples statement", lineno, 1, line[:40])
        s_text, s_iri, s_blank, p_text, p_iri, o_text, o_iri, o_blank, o_lit, o_lang, o_dtype = (
            m.groups()
        )
        subject = terms.get(s_text)
        if subject is None:
            subject = terms[s_text] = iri(s_iri) if s_iri is not None else blank(s_blank)
        predicate = terms.get(p_text)
        if predicate is None:
            predicate = terms[p_text] = iri(p_iri)
        obj = terms.get(o_text)
        if obj is None:
            if o_iri is not None:
                obj = iri(o_iri)
            elif o_blank is not None:
                obj = blank(o_blank)
            else:
                if "\\" in o_lit:
                    o_lit = _unescape(o_lit, lineno, 1, TurtleSyntaxError)
                obj = literal(o_lit, language=o_lang, datatype=o_dtype)
            terms[o_text] = obj
        # The line pattern admits only what `Triple` checks for.
        add(tuple.__new__(Triple, (subject, predicate, obj)))
    return Graph(triples=triples)
