"""Seeded inputs for the benchmark workloads, with the model that checks them.

Everything here is derived from one integer seed.  The program under test
only ever sees the files this module writes; the in-memory model keeps the
facts those files were made from, so the checks in `workloads.py` can
compute expected outputs without calling into kgfuse.

Terms in the model are small tuples:

- ``("i", iri)``: an IRI,
- ``("v", local)``: a vocabulary name of the catalogue being written,
- ``("b", label)``: a blank node, scoped to the file it appears in,
- ``("l", lexical, datatype)``: a literal (``datatype`` may be None),
- ``("ll", lexical, language)``: a language-tagged literal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
RDFS_LABEL = RDFS_NS + "label"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
XSD_DATE = XSD_NS + "date"
OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"
PCP_NS = "http://purl.org/pcp-on-web/ontology#"
LEIPZIG_NS = "http://example.org/catalogus/leipzig/"
HELMSTEDT_NS = "http://example.org/catalogus/helmstedt/"
DATA_NS = "http://example.org/pcp/data/"
GND_NS = "https://d-nb.info/gnd/"
GNDO_NS = "https://d-nb.info/standards/elementset/gnd#"

# Small pools, so that name tokens are shared by many records: a forename
# token can equal a surname ("Matthias", "Heinrichs" in the bundled pair).
FORENAMES = [
    "Johann", "Georg", "Heinrich", "Andreas", "Matthias", "Caspar", "Christoph",
    "Jacob", "Martin", "Michael", "Paul", "Peter", "Friedrich", "Conrad",
    "Nicolaus", "Melchior",
]
SURNAMES = [
    "Müller", "Schmidt", "Meier", "Arndt", "Westphal", "Heinrichs", "Matthias",
    "Becker", "Hoffmann", "Schulze", "Krüger", "Lange", "Wolf", "Neumann",
    "Schröder", "Fischer", "Weber", "Wagner", "Koch", "Richter", "Klein",
    "Schwarz", "Braun", "Hartmann", "Werner", "Krause", "Lehmann", "Köhler",
    "Herrmann", "Walter", "König", "Mayer", "Huber", "Kaiser", "Fuchs",
    "Peters", "Lang", "Scholz", "Möller", "Weiß",
]
FACULTIES = [
    ("theology", "Theologische Fakultät"),
    ("law", "Juristische Fakultät"),
    ("medicine", "Medizinische Fakultät"),
    ("philosophy", "Philosophische Fakultät"),
]
PLACES = ["4035206-7", "4031483-2", "4023118-5", "4005728-8", "4044660-8"]

# The bundled link configuration (src/kgfuse/fixtures/link_person_names.cfg).
LINK_CONFIG = """\
# Person matching over name, surname and forename, every field pair compared.
[classes]
source = http://example.org/catalogus/leipzig/Person
target = http://example.org/catalogus/helmstedt/Person

[properties]
source = rdfs:label, http://example.org/catalogus/leipzig/surname, http://example.org/catalogus/leipzig/forename
target = rdfs:label, http://example.org/catalogus/helmstedt/surname, http://example.org/catalogus/helmstedt/forename
mode = cross

[thresholds]
accept = 0.8
review = 0.5
"""
LINK_ACCEPT = 0.8
LINK_REVIEW = 0.5

# The paper's report (src/kgfuse/fixtures/qualification_by_faculty_year.rq).
QUALIFICATION_BY_FACULTY_YEAR = """\
select (count(?doc) as ?docN) ?faculty ?year
where {
    ?doc pcp:praeses ?professor.
    ?doc a pcp:QualificationDocument.
    ?professor a pcp:Professor .
    ?doc pcp:faculty ?faculty.
    ?doc pcp:date ?docDate.
    bind (year(?docDate) as ?year ).
} group by ?faculty ?year order by asc(?year) asc(?faculty)
"""

PERSONS_PER_FACULTY = """\
select ?faculty (count(?person) as ?persons)
where {
    ?person a pcp:Person .
    ?person pcp:faculty ?faculty .
} group by ?faculty order by asc(?faculty)
"""

BIRTHS_PER_YEAR = """\
select ?year (count(?person) as ?births)
where {
    ?person a pcp:Person .
    ?person pcp:birthDate ?born .
    bind (year(?born) as ?year ).
} group by ?year order by asc(?year)
"""

DOCUMENTS_PER_PRAESES = """\
select ?professor (count(?doc) as ?documents)
where {
    ?doc pcp:praeses ?professor .
    ?professor a pcp:Professor .
} group by ?professor order by asc(?professor)
"""

# Written in natural order: the type pattern comes first, although the
# label pattern is the selective one.
LOOKUP_TEMPLATE = """\
select ?person ?faculty ?born
where {
    ?person a pcp:Person .
    ?person pcp:faculty ?faculty .
    ?person pcp:birthDate ?born .
    ?person rdfs:label "{name}" .
} order by asc(?person)
"""

RENAMES = "# Reviewed rename decisions applied during the namespace shift.\nhasMatrikel\tmatriculation\n"
RENAME_MAP = {"hasMatrikel": "matriculation"}


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def nt(term, vocab_ns: str = "", blank_scope: str = "") -> str:
    """N-Triples form of a model term; vocabulary names resolve in `vocab_ns`."""
    kind = term[0]
    if kind == "i":
        return f"<{term[1]}>"
    if kind == "v":
        return f"<{vocab_ns}{term[1]}>"
    if kind == "b":
        return f"_:{blank_scope}{term[1]}"
    if kind == "l":
        body = '"' + term[1] + '"'
        return body if term[2] is None else f"{body}^^<{term[2]}>"
    return f'"{term[1]}"@{term[2]}'


def nt_line(triple, vocab_ns: str = "", blank_scope: str = "") -> str:
    return " ".join(nt(t, vocab_ns, blank_scope) for t in triple) + " ."


def canonical_text(lines) -> str:
    """Lines sorted by their UTF-8 bytes, LF-terminated: the canonical layout."""
    ordered = sorted(lines, key=lambda line: line.encode("utf-8"))
    return "".join(line + "\n" for line in ordered)


def tokens(value: str) -> frozenset[str]:
    """Name tokens as the link configuration defines them: lowercased,
    split on whitespace, hyphen, comma and period."""
    for sep in "-,.\t\n\r":
        value = value.replace(sep, " ")
    return frozenset(value.lower().split())


TYPE = ("i", RDF_TYPE)
LABEL = ("i", RDFS_LABEL)


# ---------------------------------------------------------------------------
# Persons and catalogue exports
# ---------------------------------------------------------------------------

@dataclass
class Person:
    iri: str
    forename: str
    surname: str
    gnd: str
    born: str
    faculty: str
    professor: bool

    @property
    def label(self) -> str:
        return f"{self.forename} {self.surname}"


@dataclass
class Export:
    """One catalogue file: subjects with their predicate/object lists."""

    namespace: str
    prefix: str
    subjects: list = field(default_factory=list)

    def add(self, subject, pairs) -> None:
        self.subjects.append((subject, list(pairs)))

    def triples(self):
        for subject, pairs in self.subjects:
            for p, o in pairs:
                yield (subject, p, o)

    def turtle(self) -> str:
        """Serializer-style Turtle: prefixes, `a`, `;` and `,` lists."""
        out = [
            f"@prefix {self.prefix}: <{self.namespace}> .",
            f"@prefix rdfs: <{RDFS_NS}> .",
            f"@prefix xsd: <{XSD_NS}> .",
            "",
        ]
        for subject, pairs in self.subjects:
            groups: list[tuple[tuple, list]] = []
            for p, o in pairs:
                if groups and groups[-1][0] == p:
                    groups[-1][1].append(o)
                else:
                    groups.append((p, [o]))
            parts = [
                self._pred(p) + " " + " , ".join(self._term(o) for o in objs)
                for p, objs in groups
            ]
            out.append(self._term(subject) + " " + " ;\n    ".join(parts) + " .\n")
        return "\n".join(out)

    def _pred(self, p) -> str:
        return "a" if p == TYPE else self._term(p)

    def _term(self, term) -> str:
        kind = term[0]
        if kind == "v":
            return f"{self.prefix}:{term[1]}"
        if kind == "i":
            value = term[1]
            if value.startswith(self.namespace):
                return f"{self.prefix}:{value[len(self.namespace):]}"
            if value == RDFS_LABEL:
                return "rdfs:label"
            return f"<{value}>"
        if kind == "l" and term[2] == XSD_DATE:
            return f'"{term[1]}"^^xsd:date'
        return nt(term)


def _forename(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(FORENAMES)
    return " ".join(rng.sample(FORENAMES, 2))


def _date(rng: random.Random, lo: int, hi: int) -> str:
    return f"{rng.randint(lo, hi)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _persons(rng, namespace, stem, n, gnds, professor_share=0.2) -> list[Person]:
    return [
        Person(
            iri=f"{namespace}{stem}{i:05d}",
            forename=_forename(rng),
            surname=rng.choice(SURNAMES),
            gnd=gnds[i],
            born=_date(rng, 1540, 1600),
            faculty=DATA_NS + "faculty/" + rng.choice(FACULTIES)[0],
            professor=rng.random() < professor_share,
        )
        for i in range(n)
    ]


def _plant_duplicates(rng, left: list[Person], right: list[Person], share: float):
    """Copy the names of some left persons onto right persons.

    Half the copies are exact; the others drop one of two forenames, which
    keeps the label cosine at 2/sqrt(6) ~ 0.816, above the accept threshold.
    Returns the planted (left IRI, right IRI) pairs.
    """
    n = int(len(right) * share)
    sources = rng.sample(range(len(left)), n)
    targets = rng.sample(range(len(right)), n)
    pairs = []
    for k, (si, ti) in enumerate(zip(sources, targets)):
        src, dst = left[si], right[ti]
        forename = src.forename
        if k % 2 and " " in forename:
            forename = forename.split(" ")[rng.randrange(2)]
        dst.forename = forename
        dst.surname = src.surname
        pairs.append((src.iri, dst.iri))
    return sorted(pairs)


def _person_pairs(p: Person, gnd_as_url: bool, extra=()):
    types = [("v", "Person")] + ([("v", "Professor")] if p.professor else [])
    gnd = GND_NS + p.gnd if gnd_as_url else p.gnd
    pairs = [(TYPE, t) for t in types]
    pairs += [
        (("v", "surname"), ("l", p.surname, None)),
        (("v", "forename"), ("l", p.forename, None)),
        (LABEL, ("l", p.label, None)),
        (("v", "gnd"), ("l", gnd, None)),
        (("v", "birthDate"), ("l", p.born, XSD_DATE)),
        (("v", "faculty"), ("i", p.faculty)),
    ]
    pairs += list(extra)
    return pairs


def _families(rng, export: Export, persons: list[Person], n: int) -> None:
    # Labels _:b0, _:b1, ... as a serializer numbers them in every file.
    for k in range(n):
        parent, child = rng.sample(persons, 2)
        export.add(
            ("b", f"b{k}"),
            [
                (TYPE, ("v", "Family")),
                (("v", "familyParent"), ("i", parent.iri)),
                (("v", "familyChild"), ("i", child.iri)),
            ],
        )


def _faculties(export: Export) -> None:
    for key, label in FACULTIES:
        export.add(
            ("i", DATA_NS + "faculty/" + key),
            [(TYPE, ("v", "Faculty")), (LABEL, ("ll", label, "de"))],
        )


def _gnds(rng, n: int) -> list[str]:
    return [str(v) for v in rng.sample(range(110_000_000, 120_000_000), n)]


@dataclass
class Document:
    iri: str
    praeses: str
    faculty: str
    date: tuple  # model literal


@dataclass
class Catalogues:
    left: Export
    right: Export
    left_persons: list[Person]
    right_persons: list[Person]
    documents: list[Document]
    planted: list[tuple[str, str]]


def catalogues(rng, n_left: int, n_right: int, n_documents: int = 0,
               duplicate_share: float = 0.1) -> Catalogues:
    gnds = _gnds(rng, n_left + n_right)
    left_persons = _persons(rng, LEIPZIG_NS, "p", n_left, gnds[:n_left])
    right_persons = _persons(rng, HELMSTEDT_NS, "h", n_right, gnds[n_left:])
    planted = _plant_duplicates(rng, left_persons, right_persons, duplicate_share)
    left = Export(LEIPZIG_NS, "leipzig")
    right = Export(HELMSTEDT_NS, "helmstedt")
    for p in left_persons:
        extra = [(("v", "matriculation"), ("l", f"L-{p.born[:4]}-{rng.randint(1, 999)}", None))]
        left.add(("i", p.iri), _person_pairs(p, False, extra if rng.random() < 0.5 else ()))
    for p in right_persons:
        extra = [(("v", "hasMatrikel"), ("l", f"M-{p.born[:4]}-{rng.randint(1, 999)}", None))]
        right.add(("i", p.iri), _person_pairs(p, True, extra if rng.random() < 0.5 else ()))
    _faculties(left)
    _faculties(right)
    _families(rng, left, left_persons, max(2, n_left // 8))
    _families(rng, right, right_persons, max(2, n_right // 8))
    documents = []
    professors = [p for p in right_persons if p.professor] or right_persons[:1]
    for i in range(n_documents):
        # Most documents have a professor as praeses; some do not and so
        # drop out of the faculty/year report.
        praeses = rng.choice(professors if rng.random() < 0.9 else right_persons)
        r = rng.random()
        year = rng.randint(1590, 1620)
        if r < 0.6:
            date = ("l", f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}", XSD_DATE)
        elif r < 0.9:
            date = ("l", str(year), None)
        else:
            date = ("l", "unbekannt", None)  # ragged: no leading year
        doc = Document(f"{HELMSTEDT_NS}d{i:05d}", praeses.iri,
                       DATA_NS + "faculty/" + rng.choice(FACULTIES)[0], date)
        documents.append(doc)
        right.add(
            ("i", doc.iri),
            [
                (TYPE, ("v", "QualificationDocument")),
                (("v", "praeses"), ("i", doc.praeses)),
                (("v", "faculty"), ("i", doc.faculty)),
                (("v", "date"), doc.date),
            ],
        )
    return Catalogues(left, right, left_persons, right_persons, documents, planted)


def fused_lines(cat: Catalogues, scoped_blanks: bool) -> set[str]:
    """The fused graph's triples: both exports shifted into the pcp namespace
    (with the reviewed renames) and merged as sets.

    With `scoped_blanks`, blank nodes stay apart per file (RDF merge); without
    it, equal labels from the two files are taken to be one node (a plain union).
    """
    lines = set()
    for tag, export in (("L", cat.left), ("R", cat.right)):
        scope = tag if scoped_blanks else ""
        for s, p, o in export.triples():
            terms = [("i", PCP_NS + RENAME_MAP.get(t[1], t[1])) if t[0] == "v" else t
                     for t in (s, p, o)]
            lines.add(nt_line(terms, blank_scope=scope))
    return lines


def year_of(term) -> int | None:
    """Leading four-digit year of a date-like literal, followed by end, '-' or 'T'."""
    if term[0] not in ("l", "ll"):
        return None
    lexical = term[1]
    if len(lexical) >= 4 and lexical[:4].isdigit() and (len(lexical) == 4 or lexical[4] in "-T"):
        return int(lexical[:4])
    return None


def expected_reports(cat: Catalogues) -> dict[str, list[list[str]]]:
    """CSV rows (header first) of each catalogue report, from the model."""
    persons = cat.left_persons + cat.right_persons
    professor = {p.iri for p in persons if p.professor}
    by_faculty_year: dict[tuple[str, int], int] = {}
    per_praeses: dict[str, int] = {}
    for d in cat.documents:
        if d.praeses not in professor:
            continue
        per_praeses[d.praeses] = per_praeses.get(d.praeses, 0) + 1
        year = year_of(d.date)
        if year is not None:
            key = (d.faculty, year)
            by_faculty_year[key] = by_faculty_year.get(key, 0) + 1
    per_faculty: dict[str, int] = {}
    per_year: dict[int, int] = {}
    for p in persons:
        per_faculty[p.faculty] = per_faculty.get(p.faculty, 0) + 1
        year = int(p.born[:4])
        per_year[year] = per_year.get(year, 0) + 1
    return {
        "qualification_by_faculty_year": [["docN", "faculty", "year"]] + [
            [str(n), fac, str(year)]
            for (fac, year), n in sorted(by_faculty_year.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ],
        "persons_per_faculty": [["faculty", "persons"]] + [
            [fac, str(n)] for fac, n in sorted(per_faculty.items())
        ],
        "births_per_year": [["year", "births"]] + [
            [str(year), str(n)] for year, n in sorted(per_year.items())
        ],
        "documents_per_praeses": [["professor", "documents"]] + [
            [iri, str(n)] for iri, n in sorted(per_praeses.items())
        ],
    }


REPORTS = {
    "qualification_by_faculty_year": QUALIFICATION_BY_FACULTY_YEAR,
    "persons_per_faculty": PERSONS_PER_FACULTY,
    "births_per_year": BIRTHS_PER_YEAR,
    "documents_per_praeses": DOCUMENTS_PER_PRAESES,
}


def lookup_names(rng, cat: Catalogues, n: int) -> list[str]:
    """Mostly labels that exist (some on several persons), a few that do not."""
    persons = cat.left_persons + cat.right_persons
    names = []
    for i in range(n):
        if i % 10 == 9:
            names.append(f"{rng.choice(FORENAMES)} von {rng.choice(SURNAMES)}")
        else:
            names.append(rng.choice(persons).label)
    return names


def expected_lookup(cat: Catalogues, name: str) -> list[tuple[str, str, str]]:
    rows = [
        (f"<{p.iri}>", f"<{p.faculty}>", nt(("l", p.born, XSD_DATE)))
        for p in cat.left_persons + cat.right_persons
        if p.label == name
    ]
    return sorted(rows)


# ---------------------------------------------------------------------------
# Link oracle
# ---------------------------------------------------------------------------

def name_values(p: Person) -> list[frozenset[str]]:
    """Token sets of label, surname and forename, in the config's order."""
    return [tokens(p.label), tokens(p.surname), tokens(p.forename)]


def oracle_score(a: list[frozenset[str]], b: list[frozenset[str]]) -> float:
    """Maximum token cosine over every (source, target) property pair."""
    best = 0.0
    for x in a:
        for y in b:
            shared = len(x & y)
            if shared:
                best = max(best, shared / (len(x) * len(y)) ** 0.5)
    return best


# ---------------------------------------------------------------------------
# History: a base graph, recorded authority responses, and an edit plan
# ---------------------------------------------------------------------------

HISTORY_GRAPH = "urn:x-bench:history"
HISTORY_AUTHOR = "curator"
HISTORY_EPOCH = 1_600_000_000


@dataclass
class History:
    base: Export
    persons: list[Person]
    outcomes: dict[str, tuple[int, bool]]  # gnd -> (status, timeout)
    documents: dict[str, list[tuple]]  # gnd -> model triples served for it
    plan: list[tuple]  # ("enrich", [person index]) or ("curate", removed, restored)
    checkouts: list[int]  # commit index checked out after each write


def _gnd_document(rng, p: Person) -> list[tuple]:
    subject = ("i", GND_NS + p.gnd)
    return [
        (subject, TYPE, ("i", GNDO_NS + "DifferentiatedPerson")),
        (subject, ("i", GNDO_NS + "preferredNameForThePerson"), ("l", f"{p.surname}, {p.forename}", None)),
        (subject, ("i", GNDO_NS + "dateOfBirth"), ("l", p.born[:4], None)),
        (subject, ("i", GNDO_NS + "gndIdentifier"), ("l", p.gnd, None)),
        (subject, ("i", GNDO_NS + "placeOfBirth"), ("i", GND_NS + rng.choice(PLACES))),
    ]


def enrich_batch(n_persons: int, n_writes: int) -> int:
    """Batch size that enriches every base person at most once."""
    return max(1, n_persons // max(1, n_writes // 2))


def history(rng, n_persons: int, n_writes: int) -> History:
    batch_size = enrich_batch(n_persons, n_writes)
    persons = _persons(rng, DATA_NS + "person/", "p", n_persons, _gnds(rng, n_persons))
    base = Export(PCP_NS, "pcp")
    for p in persons:
        base.add(("i", p.iri), _person_pairs(p, False))
    _faculties(base)
    order = list(range(n_persons))
    rng.shuffle(order)
    outcomes: dict[str, tuple[int, bool]] = {}
    documents: dict[str, list[tuple]] = {}
    plan: list[tuple] = []
    removed_last: list[tuple] = []
    cursor = 0
    for w in range(1, n_writes):
        if w % 2:
            batch = order[cursor:cursor + batch_size]
            cursor += batch_size
            for k, idx in enumerate(batch):
                p = persons[idx]
                r = rng.random()
                # The first item of a batch always resolves, so every
                # enrichment write changes the graph.
                if k == 0 or r < 0.8:
                    outcomes[p.gnd] = (200, False)
                    documents[p.gnd] = _gnd_document(rng, p)
                elif r < 0.93:
                    outcomes[p.gnd] = (404, False)
                elif r < 0.97:
                    outcomes[p.gnd] = (503, False)
                else:
                    outcomes[p.gnd] = (0, True)
            plan.append(("enrich", batch))
        else:
            # Remove a few literals, and put back the ones the previous
            # curation edit removed.
            picks = rng.sample(persons, 3)
            removed = [(("i", p.iri), ("i", PCP_NS + "birthDate"), ("l", p.born, XSD_DATE))
                       for p in picks]
            removed = [t for t in removed if t not in removed_last]
            plan.append(("curate", removed, removed_last))
            removed_last = removed
    checkouts = [rng.randrange(max(1, w)) for w in range(n_writes)]
    return History(base, persons, outcomes, documents, plan, checkouts)


def gnd_body(triples) -> str:
    return "".join(nt_line(t) + "\n" for t in triples)


def dnb_url(gnd: str) -> str:
    return f"{GND_NS}{gnd}/about/lds"
