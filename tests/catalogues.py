"""Synthetic catalogues with exact vocabulary counts, and the corpus of
every bundled fixture graph, for the tests.

The synthetic catalogues extend the bundled person fixtures with enough
coverage triples that `extract_vocabulary` sees 72 properties / 39 classes
on the Leipzig side and 56 / 21 on the Helmstedt side, sharing 21 property
and 16 class local names.
"""

from __future__ import annotations

from kgfuse.fixtures import load
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, RDF_TYPE, RDFS_COMMENT, RDFS_LABEL
from kgfuse.rdf import Graph, Triple, iri, literal

# Local names shared by both catalogues.  `type`, `label` and `comment`
# live in the rdf/rdfs namespaces and are counted through their use as
# predicates; the rest are catalogue properties.
JOINT_PROPERTY_NAMES = [
    "surname", "forename", "gnd", "birthDate", "deathDate", "birthPlace",
    "deathPlace", "hasPeriod", "from", "to", "faculty", "office", "title",
    "degree", "university", "marriage", "religion", "vita",
]

LEIPZIG_ONLY_PROPERTY_NAMES = [
    "familyChild", "familyParent", "familyCohabitant", "familyAdoptiveChild",
    "familyFosterChild", "hasOffice", "rectorate", "deanery", "professorship",
    "appointment", "dismissal", "ordination", "baptism", "burial", "epitaph",
    "portrait", "coatOfArms", "motto", "patron", "sponsor", "predecessor",
    "successor", "colleague", "correspondence", "estate", "salary",
    "residence", "citizenship", "nobility", "matriculation", "disputation",
    "oration", "funeralSermon", "dedication", "censorship", "privilege",
    "leave", "illness", "travel", "exile", "conversion", "patronage",
    "guardianship", "inheritance", "testament", "foundation", "donation",
    "membership", "chairOf", "lectureHall", "archive",
]

HELMSTEDT_ONLY_PROPERTY_NAMES = [
    "praeses", "respondent", "lecturer", "date", "hasMatrikel", "enrollment",
    "thesis", "report", "course", "semester", "examDate", "examType",
    "opponent", "dedicatee", "printer", "printPlace", "pageCount", "language",
    "subjectArea", "supervisor", "student", "graduation", "scholarship",
    "dormitory", "tuition", "curriculum", "textbook", "lectureNotes",
    "attendance", "absence", "discipline", "fine", "dormitoryRoom",
    "mealPlan", "libraryLoan",
]

JOINT_CLASS_NAMES = [
    "Person", "Professor", "Family", "PeriodOfLife", "Career", "Office",
    "Study", "Qualification", "School", "Birth", "Death", "Faculty", "Body",
    "Institution", "Academy", "University",
]

LEIPZIG_ONLY_CLASS_NAMES = [
    "Party", "AcademySociety", "Rector", "Dean", "Chancellor", "Senate",
    "Chair", "Portrait", "Epitaph", "Estate", "Residence", "Marriage",
    "Ordination", "Baptism", "Burial", "Correspondence", "Patronage",
    "Foundation", "Donation", "Privilege", "Nobility", "Testament",
    "Guardianship",
]

HELMSTEDT_ONLY_CLASS_NAMES = [
    "Enrollment", "Report", "Thesis", "QualificationDocument", "Course",
]


def _catalogue(
    namespace: str,
    persons: Graph,
    class_names: list[str],
    property_names: list[str],
    marker: str,
) -> Graph:
    """Persons plus coverage triples for every class and catalogue property.

    Coverage values carry a per-catalogue marker so the synthetic records
    never cross-match between the two sides.
    """
    triples = set(persons.triples)
    rdf_type = iri(RDF_TYPE)
    instances = []
    for i, name in enumerate(class_names):
        inst = iri(f"{namespace}record{i:03d}")
        instances.append(inst)
        triples.add(Triple(inst, rdf_type, iri(namespace + name)))
    # Annotations sit on the Family-typed record, away from Person matching.
    triples.add(Triple(instances[2], iri(RDFS_LABEL), literal(f"{marker} bestandsnotiz")))
    triples.add(Triple(instances[2], iri(RDFS_COMMENT), literal(f"{marker} deckungseintrag")))
    for j, name in enumerate(property_names):
        subject = instances[j % len(instances)]
        triples.add(Triple(subject, iri(namespace + name), literal(f"{marker}feld{j:03d}")))
    return Graph(namespace.rstrip("/#"), triples)


def leipzig_catalogue() -> Graph:
    names = JOINT_PROPERTY_NAMES + LEIPZIG_ONLY_PROPERTY_NAMES
    classes = JOINT_CLASS_NAMES + LEIPZIG_ONLY_CLASS_NAMES
    return _catalogue(LEIPZIG_NS, load("leipzig_persons.ttl"), classes, names, "leipziger")


def helmstedt_catalogue() -> Graph:
    names = JOINT_PROPERTY_NAMES + HELMSTEDT_ONLY_PROPERTY_NAMES
    classes = JOINT_CLASS_NAMES + HELMSTEDT_ONLY_CLASS_NAMES
    return _catalogue(HELMSTEDT_NS, load("helmstedt_persons.ttl"), classes, names, "helmstedter")


def corpus() -> dict[str, Graph]:
    """Every bundled fixture graph, for round-trip and determinism checks."""
    return {
        "leipzig_persons": load("leipzig_persons.ttl"),
        "helmstedt_persons": load("helmstedt_persons.ttl"),
        "documents": load("documents.ttl"),
        "families": load("families.ttl"),
        "quality": load("quality.ttl"),
        "leipzig_catalogue": leipzig_catalogue(),
        "helmstedt_catalogue": helmstedt_catalogue(),
    }
