"""Bundled fixture files: two small person catalogues, a document corpus,
families, a vocabulary with quality issues, a link config, renames and a
query, found by `fixture_path` and parsed by `load`.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .rdf import Graph, parse_turtle


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("kgfuse").joinpath("fixtures", name)))


def load(name: str) -> Graph:
    return parse_turtle(fixture_path(name).read_text(encoding="utf-8"))


def qualification_documents() -> Graph:
    return load("documents.ttl")
