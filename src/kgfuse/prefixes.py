"""Well-known namespaces, the default prefix map, the input reader, and the
base of the errors the CLI reports.

The default prefixes are configuration, not ground truth: query files may
redeclare any of them, and the CLI accepts a prefix file that overrides
this table (see `load_prefix_file`).  `read_text` reads every input file.
"""

from __future__ import annotations

from pathlib import Path

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF_NS + "type"
RDF_PROPERTY = RDF_NS + "Property"
RDF_LANGSTRING = RDF_NS + "langString"
RDFS_LABEL = RDFS_NS + "label"
RDFS_COMMENT = RDFS_NS + "comment"
RDFS_CLASS = RDFS_NS + "Class"
OWL_CLASS = OWL_NS + "Class"
OWL_SAMEAS = OWL_NS + "sameAs"
OWL_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
OWL_DATATYPE_PROPERTY = OWL_NS + "DatatypeProperty"
OWL_ANNOTATION_PROPERTY = OWL_NS + "AnnotationProperty"
XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_DATE = XSD_NS + "date"

# Namespaces of the bundled catalogue fixtures and of the fused target
# vocabulary.  These mirror the shapes the toolkit is normally run on and
# are plain data as far as the code is concerned.  Each catalogue keeps
# instances and vocabulary in one namespace, like the source exports.
PCP_NS = "http://purl.org/pcp-on-web/ontology#"
LEIPZIG_NS = "http://example.org/catalogus/leipzig/"
HELMSTEDT_NS = "http://example.org/catalogus/helmstedt/"
PCP_DATA_NS = "http://example.org/pcp/data/"

DEFAULT_PREFIXES: dict[str, str] = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "owl": OWL_NS,
    "xsd": XSD_NS,
    "pcp": PCP_NS,
    "leipzig": LEIPZIG_NS,
    "helmstedt": HELMSTEDT_NS,
    "wdt": "http://www.wikidata.org/prop/direct/",
}


class KgfuseError(Exception):
    """An error the CLI reports in one line, exiting with `exit_code`: 1 for
    bad data, 2 for configuration (reported as `config error`)."""

    exit_code = 1


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The file's UTF-8 text; a file that is not UTF-8 raises `error` naming it,
    and one that cannot be opened raises its `OSError` for the CLI to report."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8: {err}") from None


class PrefixFileError(KgfuseError, ValueError):
    """A prefix file line that is not `prefix namespace`."""

    exit_code = 2


def load_prefix_file(path: str | Path) -> dict[str, str]:
    """Read a prefix file: one `prefix<TAB or spaces>namespace` per line.

    Blank lines and `#` comments are skipped.  Returned map replaces the
    defaults entirely.
    """
    prefixes: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path, PrefixFileError).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise PrefixFileError(f"{path}:{lineno}: expected 'prefix namespace', got {line!r}")
        prefix, namespace = parts
        prefixes[prefix.rstrip(":")] = namespace.strip()
    return prefixes
