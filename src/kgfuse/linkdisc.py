"""Instance alignment by token-cosine similarity over name properties.

Candidate scoring takes the maximum cosine over all configured property
pairs (cross pairs included by default: a forename compared against a full
label is what surfaces near-matches between catalogues that structure
names differently).  Scores stay raw binary floats and are printed with
shortest round-trip formatting.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .prefixes import DEFAULT_PREFIXES, OWL_SAMEAS, RDF_TYPE, read_text
from .rdf import IRI, LITERAL, Graph, Triple, iri

ACCEPTED = "accepted"
REVIEW = "review"

_TOKEN_SPLIT_RE = re.compile(r"[\s\-,.]+")


class LinkConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LinkConfig:
    source_class: str
    target_class: str
    compare_properties: tuple[tuple[str, str], ...]
    accept_threshold: float
    review_threshold: float

    def __post_init__(self):
        if not 0.0 <= self.review_threshold <= self.accept_threshold <= 1.0:
            raise LinkConfigError(
                "thresholds must satisfy 0 <= review <= accept <= 1, got "
                f"review={self.review_threshold} accept={self.accept_threshold}"
            )
        if not self.compare_properties:
            raise LinkConfigError("at least one property pair is required")


class PairEvidence(NamedTuple):
    """The best-scoring value pair of one compared property pair."""

    source_property: str
    target_property: str
    source_value: str
    target_value: str
    score: float


class LinkCandidate(NamedTuple):
    source: str
    target: str
    score: float
    evidence: tuple[PairEvidence, ...]
    status: str


def tokenize_name(value: str) -> frozenset[str]:
    """Lowercased tokens split on whitespace, hyphen, comma, and period."""
    return frozenset(t for t in _TOKEN_SPLIT_RE.split(value.lower()) if t)


def cosine(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    """|a ∩ b| / sqrt(|a|·|b|); 0.0 when either side is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


# A profile maps each compared property to its literal values, in sorted
# order and each with its token set, so that a value is read and tokenized
# once per instance rather than once per scored pair.
Profile = Mapping[str, tuple[tuple[str, frozenset[str]], ...]]

# Float rounding can put a computed cosine at or above the threshold where
# the exact quotient is a hair below it.  Filter bounds use t² shrunk by this
# relative margin, so rounding can only add candidates, never drop one.
_ROUNDING_MARGIN = 1e-9


def _instances(g: Graph, class_iri: str, props: set[str]) -> tuple[list[str], list[Profile]]:
    """The IRIs typed `class_iri`, sorted, and the profile of each, read in
    one pass over the triples: a graph that is only linked never builds its
    indexes."""
    typed = set()
    values: dict[str, dict[str, list[str]]] = {}
    for t in g.triples:
        if t.s.kind != IRI:
            continue
        prop = t.p.value
        if prop == RDF_TYPE and t.o.kind == IRI and t.o.value == class_iri:
            typed.add(t.s.value)
        if prop in props and t.o.kind == LITERAL:
            values.setdefault(t.s.value, {}).setdefault(prop, []).append(t.o.value)
    instances = sorted(typed)
    profiles = [
        {
            prop: tuple((v, tokenize_name(v)) for v in sorted(vals))
            for prop, vals in values.get(instance, {}).items()
        }
        for instance in instances
    ]
    return instances, profiles


def _prefix_filtered_pairs(
    sources: list[Profile], targets: list[Profile], cfg: LinkConfig
) -> list[tuple[int, int]]:
    """Every (source, target) index pair with some compared value pair at
    cosine >= review, plus possibly a few more; review must be positive.

    AllPairs (Bayardo et al., WWW 2007) with PPJoin's ordering and size
    filters (Xiao et al., WWW 2008).  cos(x, y) >= t implies
    t²|x| <= |y| <= |x|/t² and |x ∩ y| >= ⌈t²|x|⌉, so once tokens are put
    in one global order, two such sets share a token among the first
    |x| - ⌈t²|x|⌉ + 1 tokens of each.  Only those prefixes are indexed and
    probed; the index is keyed by target property, so paired mode only
    meets its configured pairs.
    """
    t2 = cfg.review_threshold ** 2 * (1.0 - _ROUNDING_MARGIN)
    freq = Counter(
        token
        for profile in (*sources, *targets)
        for values in profile.values()
        for _, tokens in values
        for token in tokens
    )
    rank = {token: i for i, token in enumerate(sorted(freq, key=lambda k: (freq[k], k)))}

    def prefix(tokens: frozenset[str]) -> list[str]:
        ordered = sorted(tokens, key=rank.__getitem__)
        return ordered[: len(ordered) - max(1, math.ceil(t2 * len(ordered))) + 1]

    index: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for j, profile in enumerate(targets):
        for tprop, values in profile.items():
            postings = index.setdefault(tprop, {})
            for _, tokens in values:
                for token in prefix(tokens):
                    postings.setdefault(token, []).append((len(tokens), j))
    partners: dict[str, list[str]] = {}
    for sprop, tprop in cfg.compare_properties:
        partners.setdefault(sprop, []).append(tprop)
    pairs = []
    for i, profile in enumerate(sources):
        hits: set[int] = set()
        for sprop, values in profile.items():
            for _, tokens in values:
                size = len(tokens)
                probe = prefix(tokens)
                for tprop in partners[sprop]:
                    postings = index.get(tprop, {})
                    for token in probe:
                        for tsize, j in postings.get(token, ()):
                            if t2 * size <= tsize and t2 * tsize <= size:
                                hits.add(j)
        pairs.extend((i, j) for j in hits)
    return pairs


def find_links(ga: Graph, gb: Graph, cfg: LinkConfig) -> list[LinkCandidate]:
    """Score typed instance pairs; keep those at or above the review threshold.

    A positive review threshold scores only the prefix-filtered candidates,
    which is exact; review 0 scores every pair.  Output is sorted by
    descending score, then by the IRI pair.
    """
    sources, sprofiles = _instances(ga, cfg.source_class, {s for s, _ in cfg.compare_properties})
    targets, tprofiles = _instances(gb, cfg.target_class, {t for _, t in cfg.compare_properties})
    if cfg.review_threshold > 0.0:
        pairs: Iterable[tuple[int, int]] = _prefix_filtered_pairs(sprofiles, tprofiles, cfg)
    else:
        pairs = itertools.product(range(len(sources)), range(len(targets)))
    # One tuple of value columns per instance, aligned with compare_properties;
    # a missing property is an empty column and contributes 0.
    props = cfg.compare_properties
    scolumns = [tuple(p.get(s, ()) for s, _ in props) for p in sprofiles]
    tcolumns = [tuple(p.get(t, ()) for _, t in props) for p in tprofiles]
    review, accept = cfg.review_threshold, cfg.accept_threshold
    candidates = []
    for i, j in pairs:
        best = 0.0
        evidence = []
        for (sprop, tprop), svalues, tvalues in zip(props, scolumns[i], tcolumns[j]):
            if not svalues or not tvalues:
                continue
            # the first value pair with the highest cosine is the evidence
            top = -1.0
            for sval, stoks in svalues:
                for tval, ttoks in tvalues:
                    # a module global, so a wrapper set on the module sees each call
                    score = cosine(stoks, ttoks)
                    if score > top:
                        top, stop, ttop = score, sval, tval
            evidence.append(PairEvidence(sprop, tprop, stop, ttop, top))
            if top > best:
                best = top
        if best >= review:
            status = ACCEPTED if best >= accept else REVIEW
            candidates.append(LinkCandidate(sources[i], targets[j], best, tuple(evidence), status))
    candidates.sort(key=lambda c: (-c.score, c.source, c.target))
    return candidates


def emit_review_report(candidates: Iterable[LinkCandidate]) -> str:
    """CSV for the human pass: both IRIs, compared values, score, status."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "source", "target", "score", "status",
            "best_source_property", "best_target_property",
            "source_values", "target_values",
        ]
    )
    writer.writerows(_report_row(c) for c in candidates)
    return buf.getvalue()


def _report_row(c: LinkCandidate) -> tuple[str, ...]:
    if not c.evidence:
        return c.source, c.target, repr(c.score), c.status, "", "", "", ""
    sprops, tprops, svalues, tvalues, scores = zip(*c.evidence)
    best = scores.index(max(scores))  # the first evidence with the top score
    return (
        c.source,
        c.target,
        repr(c.score),
        c.status,
        sprops[best],
        tprops[best],
        "; ".join(sorted(set(svalues))),
        "; ".join(sorted(set(tvalues))),
    )


def sameas_triples(candidates: Iterable[LinkCandidate]) -> list[Triple]:
    """owl:sameAs statements for the accepted candidates."""
    same_as = iri(OWL_SAMEAS)
    return [
        Triple(iri(c.source), same_as, iri(c.target))
        for c in candidates
        if c.status == ACCEPTED
    ]


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

def _expand(value: str, prefixes: Mapping[str, str]) -> str:
    value = value.strip()
    if value.startswith("http://") or value.startswith("https://") or value.startswith("urn:"):
        return value
    prefix, sep, local = value.partition(":")
    if sep and prefix in prefixes:
        return prefixes[prefix] + local
    raise LinkConfigError(f"cannot resolve property or class IRI: {value!r}")


def load_link_config(path: str | Path, prefixes: Mapping[str, str] | None = None) -> LinkConfig:
    """INI-style config: [classes], [properties] with cross/paired mode,
    [thresholds]; an [options] blocking flag is accepted and ignored."""
    prefixes = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
    # no interpolation: a '%' in a value (a percent-encoded IRI) is literal
    parser = configparser.ConfigParser(interpolation=None)
    text = read_text(path, LinkConfigError)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        # configparser messages span lines; the CLI reports errors on one
        raise LinkConfigError(" ".join(f"{path}: {err}".split())) from None
    try:
        source_class = _expand(parser["classes"]["source"], prefixes)
        target_class = _expand(parser["classes"]["target"], prefixes)
        source_props = [
            _expand(v, prefixes) for v in parser["properties"]["source"].split(",") if v.strip()
        ]
        target_props = [
            _expand(v, prefixes) for v in parser["properties"]["target"].split(",") if v.strip()
        ]
        mode = parser["properties"].get("mode", "cross").strip().lower()
        try:
            accept = float(parser["thresholds"]["accept"])
            review = float(parser["thresholds"]["review"])
        except ValueError as bad:
            raise LinkConfigError(f"thresholds must be numbers: {bad}") from None
    except KeyError as missing:
        raise LinkConfigError(f"link config is missing section or key: {missing}") from None
    if mode == "cross":
        pairs = tuple((s, t) for s in source_props for t in target_props)
    elif mode == "paired":
        if len(source_props) != len(target_props):
            raise LinkConfigError("paired mode needs equally long property lists")
        pairs = tuple(zip(source_props, target_props))
    else:
        raise LinkConfigError(f"unknown property mode: {mode!r}")
    return LinkConfig(
        source_class=source_class,
        target_class=target_class,
        compare_properties=pairs,
        accept_threshold=accept,
        review_threshold=review,
    )
