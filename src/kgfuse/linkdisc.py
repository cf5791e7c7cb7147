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
from typing import Iterable, Mapping, Optional

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


@dataclass(frozen=True)
class PairEvidence:
    source_property: str
    target_property: str
    source_value: str
    target_value: str
    score: float


@dataclass(frozen=True)
class LinkCandidate:
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


def _typed_instances(g: Graph, class_iri: str) -> list[str]:
    return sorted(
        t.s.value
        for t in g.match(None, iri(RDF_TYPE), iri(class_iri))
        if t.s.kind == IRI
    )


# A profile maps each compared property to its literal values, in sorted
# order and each with its token set, so that a value is read and tokenized
# once per instance rather than once per scored pair.
Profile = Mapping[str, tuple[tuple[str, frozenset[str]], ...]]

# Float rounding can put a computed cosine at or above the threshold where
# the exact quotient is a hair below it.  Filter bounds use t² shrunk by this
# relative margin, so rounding can only add candidates, never drop one.
_ROUNDING_MARGIN = 1e-9


def _profile(g: Graph, instance: str, props: set[str]) -> Profile:
    values: dict[str, list[str]] = {}
    for t in g.match(iri(instance), None, None):
        if t.p.value in props and t.o.kind == LITERAL:
            values.setdefault(t.p.value, []).append(t.o.value)
    return {
        prop: tuple((v, tokenize_name(v)) for v in sorted(vals))
        for prop, vals in values.items()
    }


def _score_pair(
    source: Profile, target: Profile, cfg: LinkConfig
) -> tuple[float, tuple[PairEvidence, ...]]:
    best = 0.0
    evidence = []
    for sprop, tprop in cfg.compare_properties:
        svalues = source.get(sprop)
        tvalues = target.get(tprop)
        if not svalues or not tvalues:
            continue  # missing values contribute 0
        pair_best: Optional[PairEvidence] = None
        for sval, stoks in svalues:
            for tval, ttoks in tvalues:
                score = cosine(stoks, ttoks)
                if pair_best is None or score > pair_best.score:
                    pair_best = PairEvidence(sprop, tprop, sval, tval, score)
        evidence.append(pair_best)
        best = max(best, pair_best.score)
    return best, tuple(evidence)


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
    sources = _typed_instances(ga, cfg.source_class)
    targets = _typed_instances(gb, cfg.target_class)
    sprops = {s for s, _ in cfg.compare_properties}
    tprops = {t for _, t in cfg.compare_properties}
    sprofiles = [_profile(ga, s, sprops) for s in sources]
    tprofiles = [_profile(gb, t, tprops) for t in targets]
    if cfg.review_threshold > 0.0:
        pairs: Iterable[tuple[int, int]] = _prefix_filtered_pairs(sprofiles, tprofiles, cfg)
    else:
        pairs = itertools.product(range(len(sources)), range(len(targets)))
    candidates = []
    for i, j in pairs:
        score, evidence = _score_pair(sprofiles[i], tprofiles[j], cfg)
        if score < cfg.review_threshold:
            continue
        status = ACCEPTED if score >= cfg.accept_threshold else REVIEW
        candidates.append(LinkCandidate(sources[i], targets[j], score, evidence, status))
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
    for c in candidates:
        best = max(c.evidence, key=lambda e: e.score) if c.evidence else None
        source_values = "; ".join(sorted({e.source_value for e in c.evidence}))
        target_values = "; ".join(sorted({e.target_value for e in c.evidence}))
        writer.writerow(
            [
                c.source,
                c.target,
                repr(c.score),
                c.status,
                best.source_property if best else "",
                best.target_property if best else "",
                source_values,
                target_values,
            ]
        )
    return buf.getvalue()


def sameas_triples(candidates: Iterable[LinkCandidate]) -> list[Triple]:
    """owl:sameAs statements for the accepted candidates."""
    return [
        Triple(iri(c.source), iri(OWL_SAMEAS), iri(c.target))
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
