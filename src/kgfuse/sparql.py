"""A small SPARQL evaluator: BGP joins, year() binds, COUNT/GROUP BY, ORDER BY.

Supported surface: SELECT (`*`, variables, `(count(?v) as ?alias)`), a WHERE
block of dot-separated triple patterns, `bind (year(?v) as ?x)` after the
patterns, GROUP BY, ORDER BY asc()/desc(), LIMIT, and PREFIX declarations.
Everything else raises `UnsupportedFeatureError` naming the construct.  The
parser meets every keyword of the text in one pass before it parses, so an
unsupported one (DISTINCT, OFFSET, ...) is named wherever it stands, even
after a syntax error.

Evaluation uses bag semantics before grouping.  A greedy planner orders the
triple patterns once per query from index cardinalities (`Graph.count`), so
the order they are written in does not matter; each pattern is then joined
by probing the graph through its indexes, and `year()` binds run last.
Each result row is one tuple: its projected cells, followed for a grouped
row by its group key, which ORDER BY may also read.  Rows are put in order
once, at the end: first by the canonical N-Triples text of the projected
cells, then by one stable sort per ORDER BY key (last key first,
`term_sort_key`), so output is byte-deterministic whatever the join order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Mapping, Optional, Union

from .prefixes import RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER, KgfuseError
from .rdf import (
    BLANK,
    IRI,
    LITERAL,
    Graph,
    Term,
    _escape_literal,
    _IRI_FORBIDDEN_RE,
    _STRING,
    _TermParser,
    iri,
    literal,
    ntriples_term,
)


class SparqlError(KgfuseError, ValueError):
    """Base class for query parse and template errors."""


class SparqlSyntaxError(SparqlError):
    def __init__(self, message: str, line: int = 0, column: int = 0, token: str = ""):
        self.line = line
        self.column = column
        self.token = token
        where = f" at {line}:{column}" if line else ""
        tok = f" (near {token!r})" if token else ""
        super().__init__(f"{message}{where}{tok}")


class UnsupportedFeatureError(SparqlSyntaxError):
    def __init__(self, feature: str, line: int = 0, column: int = 0):
        self.feature = feature
        super().__init__(f"unsupported SPARQL feature: {feature}", line, column)


class TemplateError(SparqlError):
    pass


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True)
class CountAgg:
    """`(count(?var) as ?alias)` in the projection."""

    var: str
    alias: str


@dataclass(frozen=True)
class TriplePattern:
    s: Union[Term, Var]
    p: Union[Term, Var]
    o: Union[Term, Var]

    def variables(self) -> list[str]:
        return [x.name for x in (self.s, self.p, self.o) if isinstance(x, Var)]

    def __str__(self):
        return " ".join(
            str(x) if isinstance(x, Var) else ntriples_term(x) for x in (self.s, self.p, self.o)
        )


@dataclass(frozen=True)
class YearBind:
    """`bind (year(?source) as ?target)`."""

    source: str
    target: str


@dataclass(frozen=True)
class OrderKey:
    var: str
    ascending: bool = True


@dataclass
class QueryAST:
    projection: list[Union[Var, CountAgg]]
    patterns: list[TriplePattern]
    binds: list[YearBind] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    order_by: list[OrderKey] = field(default_factory=list)
    limit: Optional[int] = None

    @property
    def header(self) -> list[str]:
        return [p.alias if isinstance(p, CountAgg) else p.name for p in self.projection]


@dataclass(frozen=True)
class PlanStep:
    """One pattern of the join order: its constants-only index count and the
    number of solutions after joining it."""

    pattern: TriplePattern
    estimate: int
    solutions: int


@dataclass
class ResultTable:
    header: list[str]
    rows: list[tuple[Optional[Term], ...]]
    plan: list[PlanStep] = field(default_factory=list, compare=False)

    def to_csv(self) -> str:
        """RFC 4180 output; IRIs and literal lexical forms are written bare."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow(["" if t is None else _csv_cell(t) for t in row])
        return buf.getvalue()

    def to_text(self) -> str:
        """Aligned text table with unambiguous term rendering."""
        cells = [["?" + h for h in self.header]] + [
            ["" if t is None else ntriples_term(t) for t in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.header))]
        lines = []
        for idx, row in enumerate(cells):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def _csv_cell(term: Term) -> str:
    if term.kind == BLANK:
        return "_:" + term.value
    return term.value


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_UNSUPPORTED = {
    "optional", "filter", "union", "minus", "graph", "service", "values",
    "having", "distinct", "reduced", "construct", "ask", "describe",
    "insert", "delete", "offset", "exists", "not",
}


class _QueryParser(_TermParser):
    error = SparqlSyntaxError

    def __init__(self, text: str, prefixes: Mapping[str, str] | None):
        super().__init__(text, dict(prefixes or {}), None)
        # One gate for the whole text: the first unsupported keyword is the
        # error, wherever it stands.  Variables, strings, prefixed names and
        # IRIs are other token types, so `?filter` passes.
        for tok in self.tokens:
            if tok.type == "KEYWORD" and tok.value.lower() in _UNSUPPORTED:
                raise UnsupportedFeatureError(tok.value.upper(), *self._at(tok))

    def _expect_keyword(self, word: str):
        tok = self._next()
        if tok.keyword != word:
            self._fail(f"expected {word.upper()}", tok)

    def parse(self) -> QueryAST:
        self._prologue()
        self._expect_keyword("select")
        projection, select_all = self._projection()
        self._expect_keyword("where")
        self._expect("LBRACE", "expected '{'")
        patterns, binds = self._group_block()
        group_by = self._group_by_clause()
        order_by = self._order_by_clause()
        limit = self._limit_clause()
        self._expect("EOF", "unexpected trailing input")
        if select_all:
            projection = self._expand_star(patterns, binds)
        return _validated(QueryAST(projection, patterns, binds, group_by, order_by, limit))

    def _prologue(self):
        while self._peek().keyword == "prefix":
            self._next()
            pname = self._next()
            if pname.type != "PNAME" or not pname.value.endswith(":"):
                self._fail("expected prefix name ending in ':'", pname)
            iriref = self._expect("IRIREF", "expected namespace IRI")
            self.prefixes[pname.value[:-1]] = self._resolve(iriref)

    def _projection(self) -> tuple[list[Union[Var, CountAgg]], bool]:
        items: list[Union[Var, CountAgg]] = []
        if self._peek().type == "STAR":
            self._next()
            return items, True
        while True:
            tok = self._peek()
            if tok.type == "VAR":
                self._next()
                items.append(Var(tok.value[1:]))
            elif tok.type == "LPAREN":
                self._next()
                items.append(self._aggregate())
            else:
                break
        if not items:
            self._fail("empty SELECT projection", self._peek())
        return items, False

    def _aggregate(self) -> CountAgg:
        tok = self._next()
        if tok.keyword != "count":
            self._fail("only count() aggregates are supported", tok)
        self._expect("LPAREN", "expected '(' after count")
        var = self._expect("VAR", "count() takes a variable")
        self._expect("RPAREN", "expected ')'")
        self._expect_keyword("as")
        alias = self._expect("VAR", "expected alias variable")
        self._expect("RPAREN", "expected ')' closing the aggregate")
        return CountAgg(var.value[1:], alias.value[1:])

    def _group_block(self) -> tuple[list[TriplePattern], list[YearBind]]:
        patterns: list[TriplePattern] = []
        binds: list[YearBind] = []
        seen: set[str] = set()
        while True:
            tok = self._peek()
            if tok.type == "RBRACE":
                self._next()
                break
            if tok.type == "EOF":
                self._fail("unterminated WHERE block", tok)
            if tok.keyword == "bind":
                self._next()
                bind = self._bind(seen)
                binds.append(bind)
                seen.add(bind.target)
            else:
                if binds:
                    raise UnsupportedFeatureError("triple pattern after BIND", *self._at(tok))
                pattern = self._triple_pattern()
                patterns.append(pattern)
                seen.update(pattern.variables())
            if self._peek().type == "DOT":
                self._next()
        if not patterns:
            self._fail("empty basic graph pattern", self._peek())
        return patterns, binds

    def _bind(self, seen: set[str]) -> YearBind:
        self._expect("LPAREN", "expected '(' after BIND")
        fn = self._next()
        if fn.keyword != "year":
            self._fail("only year() is supported in BIND", fn)
        self._expect("LPAREN", "expected '(' after year")
        src = self._expect("VAR", "year() takes a variable")
        self._expect("RPAREN", "expected ')'")
        self._expect_keyword("as")
        target = self._expect("VAR", "expected target variable")
        self._expect("RPAREN", "expected ')' closing BIND")
        name = target.value[1:]
        if name in seen:
            self._fail(f"BIND target ?{name} is already bound", target)
        return YearBind(src.value[1:], name)

    def _pattern_term(self, position: str) -> Union[Term, Var]:
        tok = self._next()
        if tok.type == "VAR":
            return Var(tok.value[1:])
        value = self._iri(tok)
        if value is not None:
            return iri(value)
        # `a` is case-sensitive (SPARQL 1.1, section 19.3), unlike keywords.
        if position == "predicate" and tok.type == "KEYWORD" and tok.value == "a":
            return iri(RDF_TYPE)
        if position == "object":
            term = self._literal(tok)
            if term is not None:
                return term
            if tok.keyword in ("true", "false"):
                return literal(tok.keyword, datatype=XSD_BOOLEAN)
        self._fail(f"expected {position} term", tok)

    def _triple_pattern(self) -> TriplePattern:
        s = self._pattern_term("subject")
        p = self._pattern_term("predicate")
        o = self._pattern_term("object")
        return TriplePattern(s, p, o)

    def _group_by_clause(self) -> list[str]:
        if self._peek().keyword != "group":
            return []
        self._next()
        self._expect_keyword("by")
        names = []
        while self._peek().type == "VAR":
            names.append(self._next().value[1:])
        if not names:
            self._fail("GROUP BY needs at least one variable", self._peek())
        return names

    def _order_by_clause(self) -> list[OrderKey]:
        if self._peek().keyword != "order":
            return []
        self._next()
        self._expect_keyword("by")
        keys: list[OrderKey] = []
        while True:
            tok = self._peek()
            if tok.keyword in ("asc", "desc"):
                self._next()
                ascending = tok.keyword == "asc"
                self._expect("LPAREN", "expected '('")
                var = self._expect("VAR", "expected variable")
                self._expect("RPAREN", "expected ')'")
                keys.append(OrderKey(var.value[1:], ascending))
            elif tok.type == "VAR":
                self._next()
                keys.append(OrderKey(tok.value[1:], True))
            else:
                break
        if not keys:
            self._fail("ORDER BY needs at least one key", self._peek())
        return keys

    def _limit_clause(self) -> Optional[int]:
        if self._peek().keyword != "limit":
            return None
        self._next()
        tok = self._next()
        if tok.type != "INTEGER" or int(tok.value) < 0:
            self._fail("LIMIT takes a non-negative integer", tok)
        return int(tok.value)

    @staticmethod
    def _expand_star(patterns: list[TriplePattern], binds: list[YearBind]) -> list[Var]:
        names: list[str] = []
        for pattern in patterns:
            for name in pattern.variables():
                if name not in names:
                    names.append(name)
        for bind in binds:
            if bind.target not in names:
                names.append(bind.target)
        return [Var(n) for n in names]


def _validated(ast: QueryAST) -> QueryAST:
    pattern_vars = {v for p in ast.patterns for v in p.variables()}
    bound = pattern_vars | {b.target for b in ast.binds}
    has_aggregate = any(isinstance(p, CountAgg) for p in ast.projection)
    plain = [p.name for p in ast.projection if isinstance(p, Var)]
    if ast.group_by or has_aggregate:
        grouped = set(ast.group_by)
        for name in plain:
            if name not in grouped:
                raise SparqlSyntaxError(
                    f"projected variable ?{name} must appear in GROUP BY"
                )
        for name in ast.group_by:
            if name not in bound:
                raise SparqlSyntaxError(f"GROUP BY variable ?{name} is never bound")
    # SPARQL 1.1 §18.2.1: an AS variable must not be in scope already
    in_scope = set(bound)
    for p in ast.projection:
        if isinstance(p, CountAgg):
            if p.alias in in_scope:
                raise SparqlSyntaxError(f"count alias ?{p.alias} is already in scope")
            in_scope.add(p.alias)
    visible = set(plain) | {p.alias for p in ast.projection if isinstance(p, CountAgg)}
    visible |= set(ast.group_by)
    for key in ast.order_by:
        if key.var not in visible:
            raise SparqlSyntaxError(
                f"ORDER BY variable ?{key.var} is neither projected nor grouped"
            )
    for bind in ast.binds:
        if bind.source not in pattern_vars:
            raise SparqlSyntaxError(f"year() argument ?{bind.source} is never bound")
    return ast


def parse_query(text: str, prefixes: Mapping[str, str] | None = None) -> QueryAST:
    """Parse the supported SPARQL subset into a QueryAST.

    `prefixes` supplies ambient namespace bindings for queries that omit
    their PREFIX declarations; declarations inside the text win.
    """
    return _QueryParser(text, prefixes).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_YEAR_RE = re.compile(r"(\d{4})(?:$|[-T])")
_NUMERIC_RE = re.compile(r"^[+-]?\d+(?:\.\d+)?$")


def extract_year(term: Optional[Term]) -> Optional[int]:
    """Leading 4-digit year of a date-like literal, else None."""
    if term is None or term.kind != LITERAL:
        return None
    m = _YEAR_RE.match(term.value)
    return int(m.group(1)) if m else None


_KIND_RANK = {BLANK: 1, IRI: 2, LITERAL: 3}


def term_sort_key(t: Optional[Term]) -> tuple:
    """Total order: unbound < blank < IRI < literal; numeric literals by value."""
    if t is None:
        return (0,)
    if t.kind == LITERAL and _NUMERIC_RE.match(t.value):
        return (3, 0, Decimal(t.value), t.value, t.language or "", t.datatype or "")
    return (_KIND_RANK[t.kind], 1, 0, t.value, t.language or "", t.datatype or "")


def _resolve(pos: Union[Term, Var], mu: dict[str, Term]) -> Optional[Term]:
    if isinstance(pos, Var):
        return mu.get(pos.name)
    return pos


def _join_pattern(g: Graph, pattern: TriplePattern, mu: dict[str, Term]) -> list[dict[str, Term]]:
    s = _resolve(pattern.s, mu)
    p = _resolve(pattern.p, mu)
    o = _resolve(pattern.o, mu)
    out = []
    for t in g.match(s, p, o):
        ext = dict(mu)
        ok = True
        for pos, term in ((pattern.s, t.s), (pattern.p, t.p), (pattern.o, t.o)):
            if isinstance(pos, Var):
                if pos.name in ext and ext[pos.name] != term:
                    ok = False
                    break
                ext[pos.name] = term
        if ok:
            out.append(ext)
    return out


def _plan(patterns: list[TriplePattern], g: Graph) -> list[tuple[TriplePattern, int]]:
    """Greedy join order from index cardinalities (Stocker et al., WWW 2008).

    The next pattern is the one that shares a variable with those already
    bound (a disconnected one only when none is left), then the one with the
    most bound positions, then the smallest count of its constants alone,
    then the one written first.  Returns each pattern with that count.
    """
    estimates = [
        g.count(*(None if isinstance(x, Var) else x for x in (pt.s, pt.p, pt.o)))
        for pt in patterns
    ]
    variables = [pt.variables() for pt in patterns]  # once per position each holds
    bound: set[str] = set()

    def rank(i: int):
        names = variables[i]
        n_bound = 3 - len(names) + sum(name in bound for name in names)
        return (bound.isdisjoint(names), -n_bound, estimates[i], i)

    remaining = list(range(len(patterns)))
    order = []
    while remaining:
        best = min(remaining, key=rank)
        remaining.remove(best)
        bound.update(variables[best])
        order.append((patterns[best], estimates[best]))
    return order


def _solutions(q: QueryAST, g: Graph) -> tuple[list[dict[str, Term]], list[PlanStep]]:
    solutions: list[dict[str, Term]] = [{}]
    plan = []
    for pattern, estimate in _plan(q.patterns, g):
        solutions = [ext for mu in solutions for ext in _join_pattern(g, pattern, mu)]
        plan.append(PlanStep(pattern, estimate, len(solutions)))
    for bind in q.binds:
        kept = []
        for mu in solutions:
            year = extract_year(mu.get(bind.source))
            if year is None:
                continue  # ragged date: the row is dropped, not the query
            mu = dict(mu)
            mu[bind.target] = literal(str(year), datatype=XSD_INTEGER)
            kept.append(mu)
        solutions = kept
    return solutions, plan


def evaluate(q: QueryAST, graphs: Union[Graph, Iterable[Graph]]) -> ResultTable:
    """Evaluate a query over one graph or the RDF merge of several (`Graph.union`)."""
    if not isinstance(graphs, Graph):
        graphs = list(graphs)
        graphs = graphs[0] if len(graphs) == 1 else Graph.union(graphs)
    solutions, plan = _solutions(q, graphs)
    header = q.header
    rows: list[tuple[Optional[Term], ...]]
    if q.group_by or any(isinstance(p, CountAgg) for p in q.projection):
        # Without GROUP BY the solutions form one group, even when there are
        # none (SPARQL 1.1 §11.1), so a COUNT over no matches is one row of 0.
        groups: dict[tuple, list[dict[str, Term]]] = {} if q.group_by else {(): []}
        for mu in solutions:
            groups.setdefault(tuple(mu.get(v) for v in q.group_by), []).append(mu)
        # A grouped row holds its cells, then its group key; `_validated`
        # puts every projected variable in GROUP BY.
        rows = []
        for key, members in groups.items():
            cells = []
            for p in q.projection:
                if isinstance(p, CountAgg):
                    count = sum(1 for mu in members if mu.get(p.var) is not None)
                    cells.append(literal(str(count), datatype=XSD_INTEGER))
                else:
                    cells.append(key[q.group_by.index(p.name)])
            rows.append((*cells, *key))
    else:
        rows = [tuple(mu.get(p.name) for p in q.projection) for mu in solutions]
    # `_validated` lets ORDER BY read only projected and grouped variables.
    width = len(header)
    column: dict[str, int] = {}
    for i, name in enumerate(header + q.group_by):
        column.setdefault(name, i)
    rows.sort(key=lambda r: tuple("" if t is None else ntriples_term(t) for t in r[:width]))
    for key in reversed(q.order_by):
        i = column[key.var]
        rows.sort(key=lambda r: term_sort_key(r[i]), reverse=not key.ascending)
    return ResultTable(header, [r[:width] for r in rows[: q.limit]], plan)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
# The tokens a placeholder can sit in: a string, or an IRI, whose brackets
# hold no white space, `"`, `<` or `>`.  Anywhere else it is bare.
_CONTEXT_RE = re.compile(rf'(?P<literal>{_STRING})|(?P<iri><[^\s"<>]*>)')
# context -> (the characters a value must not hold there, where that is)
_VALUE_RULES = {
    "iri": (_IRI_FORBIDDEN_RE, "in IRI context"),
    "bare": (re.compile(r'[<>"{}\s]'), "outside quotes"),
}


@dataclass(frozen=True)
class QueryTemplate:
    """SPARQL text with `{name}` placeholders, which are read off the text
    along with the context of each occurrence."""

    text: str
    placeholders: frozenset[str] = field(init=False)
    # (start, end, name, context) of each occurrence, in text order
    _slots: tuple[tuple[int, int, str, str], ...] = field(init=False, repr=False)

    @classmethod
    def from_text(cls, text: str) -> "QueryTemplate":
        return cls(text)

    def __post_init__(self):
        context = {
            m.start(): token.lastgroup
            for token in _CONTEXT_RE.finditer(self.text)
            for m in _PLACEHOLDER_RE.finditer(self.text, token.start(), token.end())
        }
        slots = tuple(
            (m.start(), m.end(), m.group(1), context.get(m.start(), "bare"))
            for m in _PLACEHOLDER_RE.finditer(self.text)
        )
        object.__setattr__(self, "placeholders", frozenset(name for _, _, name, _ in slots))
        object.__setattr__(self, "_slots", slots)


def instantiate(template: QueryTemplate, bindings: Mapping[str, str]) -> str:
    """Fill placeholders, escaping each occurrence for the token it sits in.

    A placeholder anywhere inside a double-quoted string is escaped as a
    literal; one inside an IRI's angle brackets must keep the IRI legal;
    anywhere else the value must be free of white space and delimiter
    characters.
    """
    missing = template.placeholders - set(bindings)
    if missing:
        raise TemplateError(f"missing placeholder value(s): {', '.join(sorted(missing))}")
    unused = set(bindings) - template.placeholders
    if unused:
        raise TemplateError(f"unused binding(s): {', '.join(sorted(unused))}")
    out = []
    last = 0
    for start, end, name, context in template._slots:
        value = bindings[name]
        if context == "literal":
            value = _escape_literal(value)
        else:
            forbidden, where = _VALUE_RULES[context]
            bad = sorted(set(forbidden.findall(value)))
            if bad:
                raise TemplateError(f"value for {{{name}}} is illegal {where}: {bad}")
        out += (template.text[last:start], value)
        last = end
    out.append(template.text[last:])
    return "".join(out)
