"""Vocabulary alignment: extraction, overlap accounting, namespace shifting,
and quality linting of vocabulary terms.

Shifting is one call per graph: it reads the graph's vocabulary once and
rewrites only vocabulary IRIs (predicates, type objects, declared terms)
under the source namespace; instance IRIs and literals pass through
untouched even when they share the namespace.  Renames are always an
explicit reviewed input, never inferred; a rename of a name the graph does
not use is ignored.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .prefixes import (
    OWL_ANNOTATION_PROPERTY,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_NS,
    OWL_OBJECT_PROPERTY,
    RDF_NS,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_COMMENT,
    RDFS_LABEL,
    RDFS_NS,
    XSD_NS,
    read_text,
)
from .rdf import IRI, Graph, Triple, iri

_PROPERTY_DECLARATIONS = {
    RDF_PROPERTY,
    OWL_OBJECT_PROPERTY,
    OWL_DATATYPE_PROPERTY,
    OWL_ANNOTATION_PROPERTY,
}
_CLASS_DECLARATIONS = {RDFS_CLASS, OWL_CLASS}
_BUILTIN_NAMESPACES = (RDF_NS, RDFS_NS, OWL_NS, XSD_NS)

_PROPERTY_NAME_RE = re.compile(r"^[a-z][A-Za-z0-9]*$")
_CLASS_NAME_RE = re.compile(r"^[A-Z][A-Za-z0-9]*$")

# Trailing underscore markers that historically encode a language variant.
_LANGUAGE_MARKERS = {"lat": "latin", "ger": "german", "deu": "german", "eng": "english"}


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class OverlapStats:
    joint: int
    disjoint_a: int
    disjoint_b: int
    union_a: int
    union_b: int

    def __post_init__(self):
        if self.union_a != self.joint + self.disjoint_a:
            raise FusionError("union_a must equal joint + disjoint_a")
        if self.union_b != self.joint + self.disjoint_b:
            raise FusionError("union_b must equal joint + disjoint_b")


@dataclass(frozen=True)
class LintIssue:
    subject: str
    kind: str
    detail: str
    suggested_fix: Optional[str] = None


def local_name(value: str) -> str:
    """Suffix after the last '#' or '/', falling back to the last ':'."""
    idx = max(value.rfind("#"), value.rfind("/"))
    if idx >= 0:
        return value[idx + 1 :]
    return value.rsplit(":", 1)[-1]


def extract_vocabulary(g: Graph) -> tuple[frozenset[str], frozenset[str]]:
    """(property IRIs, class IRIs): predicates plus declared properties,
    rdf:type objects plus declared classes.  One scan over the triples, so
    the graph's indexes are not built."""
    properties = set()
    classes = set()
    for t in g.triples:
        p = t.p.value
        properties.add(p)
        if p == RDF_TYPE and t.o.kind == IRI:
            classes.add(t.o.value)
            if t.s.kind == IRI:
                if t.o.value in _PROPERTY_DECLARATIONS:
                    properties.add(t.s.value)
                elif t.o.value in _CLASS_DECLARATIONS:
                    classes.add(t.s.value)
    return frozenset(properties), frozenset(classes)


def compute_overlap(vocab_a: Iterable[str], vocab_b: Iterable[str]) -> OverlapStats:
    """Joint/disjoint/union counts under case-sensitive local-name equality."""
    names_a = {local_name(v) for v in vocab_a}
    names_b = {local_name(v) for v in vocab_b}
    joint = len(names_a & names_b)
    return OverlapStats(
        joint=joint,
        disjoint_a=len(names_a) - joint,
        disjoint_b=len(names_b) - joint,
        union_a=len(names_a),
        union_b=len(names_b),
    )


def shift_namespace(
    g: Graph,
    source_namespace: str,
    target_namespace: str,
    renames: Mapping[str, str] | None = None,
) -> Graph:
    """Rewrite `g`'s vocabulary IRIs under `source_namespace` into
    `target_namespace`, applying the reviewed `renames` (local name to local
    name) and keeping every other local name.  Renames of names `g` does not
    use are ignored, so one rename file serves several graphs.
    """
    renames = renames or {}
    properties, classes = extract_vocabulary(g)
    start = len(source_namespace)
    rewrite = {}
    for old in properties | classes:
        if old.startswith(source_namespace):
            new = target_namespace + renames.get(old[start:], old[start:])
            if new != old:
                rewrite[old] = new
    collisions = {}
    for old, new in rewrite.items():
        collisions.setdefault(new, []).append(old)
    clashing = {new: olds for new, olds in collisions.items() if len(olds) > 1}
    if clashing:
        raise FusionError(
            "rename targets collide: "
            + "; ".join(f"{new} <- {sorted(olds)}" for new, olds in sorted(clashing.items()))
        )
    # One Term per rewritten IRI, shared by every triple that uses it.
    terms = {iri(old): iri(new) for old, new in rewrite.items()}
    out = Graph(
        g.name,
        (Triple(terms.get(t.s, t.s), terms.get(t.p, t.p), terms.get(t.o, t.o)) for t in g.triples),
    )
    if len(out) != len(g):
        raise FusionError(
            f"namespace shift merged {len(g) - len(out)} triple(s); "
            "a rename target already exists in the graph"
        )
    return out


# ---------------------------------------------------------------------------
# Linting
# ---------------------------------------------------------------------------

def _camel_join(parts: list[str]) -> str:
    return parts[0] + "".join(p[:1].upper() + p[1:] for p in parts[1:])


def suggest_name(name: str, *, is_class: bool) -> str:
    parts = [p for p in name.split("_") if p]
    if not parts:
        return name
    if len(parts) > 1 and parts[-1].lower() in _LANGUAGE_MARKERS:
        marker = _LANGUAGE_MARKERS[parts[-1].lower()]
        rest = parts[:-1]
        suggestion = marker + "".join(p[:1].upper() + p[1:] for p in rest)
    else:
        suggestion = _camel_join(parts)
    if is_class:
        return suggestion[:1].upper() + suggestion[1:]
    return suggestion[:1].lower() + suggestion[1:]


def _looks_multilingual(text: str) -> Optional[tuple[str, str]]:
    for sep in ("/", "|"):
        if sep in text:
            left, _, right = text.partition(sep)
            if left.strip() and right.strip():
                return left.strip(), right.strip()
    return None


def lint_vocabulary(
    g: Graph, required_languages: tuple[str, ...] = ("de", "en")
) -> list[LintIssue]:
    """One issue per violation over all non-builtin vocabulary terms."""
    properties, classes = extract_vocabulary(g)
    label = iri(RDFS_LABEL)
    comment = iri(RDFS_COMMENT)
    issues: list[LintIssue] = []
    # A mixed label's two halves take the first two required languages.
    tags = [f"@{lang}" for lang in required_languages[:2]] + ["", ""]
    roles = [(sorted(properties), False), (sorted(classes), True)]
    for terms, is_class in roles:
        for term_iri in terms:
            if term_iri.startswith(_BUILTIN_NAMESPACES):
                continue
            subject = iri(term_iri)
            labels = [t.o for t in g.match(subject, label, None) if t.o.kind == "literal"]
            comments = [t.o for t in g.match(subject, comment, None) if t.o.kind == "literal"]
            if not labels:
                issues.append(LintIssue(term_iri, "missing-label", "no rdfs:label"))
            else:
                present = {l.language for l in labels if l.language}
                for lang in required_languages:
                    if lang not in present:
                        issues.append(
                            LintIssue(term_iri, "language-missing", f"no {lang} label")
                        )
                for l in labels:
                    split = _looks_multilingual(l.value)
                    if split:
                        left, right = split
                        issues.append(
                            LintIssue(
                                term_iri,
                                "multilingual-label",
                                f"single label mixes languages: {l.value!r}",
                                suggested_fix=f'"{left}"{tags[0]} and "{right}"{tags[1]}',
                            )
                        )
            if not comments:
                issues.append(
                    LintIssue(term_iri, "missing-description", "no rdfs:comment")
                )
            name = local_name(term_iri)
            pattern = _CLASS_NAME_RE if is_class else _PROPERTY_NAME_RE
            if "_" in name or not pattern.match(name):
                expected = "UpperCamelCase" if is_class else "lowerCamelCase"
                issues.append(
                    LintIssue(
                        term_iri,
                        "naming-pattern",
                        f"{name!r} does not follow {expected}",
                        suggested_fix=suggest_name(name, is_class=is_class),
                    )
                )
    issues.sort(key=lambda i: (i.subject, i.kind, i.detail))
    return issues


def lint_report_csv(issues: Iterable[LintIssue]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["subject", "kind", "detail", "suggested-fix"])
    for issue in issues:
        writer.writerow([issue.subject, issue.kind, issue.detail, issue.suggested_fix or ""])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Rename mapping file and subset reporting
# ---------------------------------------------------------------------------

def load_renames(path: str | Path) -> dict[str, str]:
    """Rename file: `old-local-name<TAB>new-local-name`, `#` comments."""
    renames: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path, FusionError).splitlines(), 1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FusionError(f"{path}:{lineno}: expected 'old<TAB>new', got {raw!r}")
        renames[parts[0].strip()] = parts[1].strip()
    return renames


@dataclass(frozen=True)
class VocabularyReport:
    per_graph: list[tuple[str, int, int]]  # (name, n_properties, n_classes) in input order
    union_properties: int
    union_classes: int


def vocabulary_report(
    vocabularies: Sequence[tuple[str, tuple[frozenset[str], frozenset[str]]]],
) -> VocabularyReport:
    """Per-subset property/class counts plus the deduplicated union, from each
    subset's name and `extract_vocabulary` result, one row per subset in
    input order (two subsets may share a name).

    Column sums of the per-subset counts can exceed the union because
    subsets share terms; both are reported instead of forcing either.
    """
    per = [(name, len(props), len(classes)) for name, (props, classes) in vocabularies]
    all_props = set().union(*(props for _, (props, _) in vocabularies))
    all_classes = set().union(*(classes for _, (_, classes) in vocabularies))
    return VocabularyReport(per, len(all_props), len(all_classes))
