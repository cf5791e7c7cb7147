"""Well-known namespaces, the default prefix map, the input reader, the CSV
writer, and the base of the errors the CLI reports.

The default prefixes are configuration, not ground truth: query files may
redeclare any of them, and the CLI accepts a prefix file that overrides
this table (see `load_prefix_file`).  `read_text` reads every input file,
and `csv_text` writes every CSV report: it joins each record with
`str.join`, for the bytes `csv.writer` would write at a fraction of its
cost, so no command loads `csv`.
"""

from __future__ import annotations

import io
import itertools
from pathlib import Path
from typing import Iterable, Sequence

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


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """`header` and `rows` as RFC 4180 CSV, each record ended by CRLF: the
    bytes of `csv.writer` with its default dialect.

    A field holding a comma, `"`, CR or LF is quoted, with each `"` in it
    doubled; a record of one empty field is `""`.  A field that is not a
    `str` is written as its `str()`.  Rows are read one at a time.
    """
    buf = io.StringIO()
    write = buf.write
    for row in itertools.chain((header,), rows):
        try:
            line = ",".join(row)
        except TypeError:
            row = [str(field) for field in row]
            line = ",".join(row)
        # The joined line is the record unless some field needs quotes: one
        # holds a quote or a line break, or holds a comma, which shows as
        # more commas than the separators between fields.
        if ('"' in line or "\r" in line or "\n" in line or not line
                or line.count(",") != len(row) - 1):
            line = ",".join(map(_csv_field, row)) or ('""' if row else "")
        write(line)
        write("\r\n")
    return buf.getvalue()


def _csv_field(field: str) -> str:
    if '"' in field:
        return '"' + field.replace('"', '""') + '"'
    if "," in field or "\r" in field or "\n" in field:
        return '"' + field + '"'
    return field


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
