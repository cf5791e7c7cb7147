"""Command-line pipeline: fuse, align, link, enrich, query, version, lint.

Every subcommand reads and writes plain files, so a whole run can be
reproduced from its inputs.  Exit codes: 0 success, 1 domain error (lint
findings under --strict, empty commit diff, bad data), 2 usage or
configuration error, as each error class declares (`KgfuseError`).

Every command is a process of its own, so importing this module loads only
`prefixes`, `rdf` and `sparql`; each command imports the other modules it
uses when it runs.  `parse_turtle`, `serialize_canonical`, `parse_query`
and `evaluate` stay bound here, where the benchmark's tracer wraps them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .prefixes import DEFAULT_PREFIXES, KgfuseError, load_prefix_file, read_text
from .rdf import IRI_RE, Graph, RdfError, parse_turtle, serialize_canonical, serialize_canonical_lines
from .sparql import QueryTemplate, SparqlError, evaluate, parse_query

if TYPE_CHECKING:
    from .fusion import OverlapStats
    from .versioning import ChangeStore


class UsageError(KgfuseError):
    """Configuration problems that should exit with code 2."""

    exit_code = 2


def _check_inputs(args, paths: tuple[str, ...], namespaces: tuple[str, ...] = ()) -> None:
    """One config error naming every path option given whose path does not
    exist and every namespace option that is not an absolute IRI N-Triples
    can write, before any input is read."""
    problems = []
    for name in paths:
        path = getattr(args, name)
        if path is not None and not Path(path).exists():
            problems.append(f"--{name} path does not exist: {path}")
    for name in namespaces:
        value = getattr(args, name)
        if not IRI_RE.match(value):
            problems.append(
                f"--{name.replace('_', '-')} is not an absolute IRI N-Triples can write: {value!r}"
            )
    if problems:
        raise UsageError("; ".join(problems))


def _read_graph(path: str) -> Graph:
    return parse_turtle(read_text(path, RdfError))


def _read_graphs(spec: str) -> list[tuple[str, Graph]]:
    named = [
        (Path(part).stem, _read_graph(part)) for part in spec.split(",") if part
    ]
    if not named:
        raise UsageError("--graphs needs at least one file")
    return named


def _load_prefixes(path: str | None) -> dict[str, str]:
    if path is None:
        return dict(DEFAULT_PREFIXES)
    return load_prefix_file(path)


def _check_directory(args, name: str) -> None:
    """A directory option (`--store`, `--fixtures`) that names an existing
    path must name a directory; checked before anything is read or written."""
    path = getattr(args, name)
    if path is not None and Path(path).exists() and not Path(path).is_dir():
        raise UsageError(f"--{name} is not a directory: {path}")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from None


def _store_to_commit_into(args, graph_name: str) -> ChangeStore | None:
    """The `--store` a result is committed into, or None.  The commit's
    fields and the store's head state are checked now, so a bad field or a
    damaged store fails before any output is written; the commit then finds
    that state in the store's cache."""
    _check_directory(args, "store")
    if not args.store:
        return None
    from .versioning import ChangeStore

    store = ChangeStore(args.store)
    store.check_commit(graph_name, args.author, args.message)
    return store


def _maybe_commit(args, store: ChangeStore | None, graph: Graph) -> None:
    if store is not None:
        commit = store.commit(graph.name, graph, args.author, args.message)
        print(f"committed {commit.short_id} to {args.store}")


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", help="changeset store directory to commit the result into")
    parser.add_argument("--author", default="kgfuse", help="commit author (with --store)")
    parser.add_argument("--message", default="pipeline update", help="commit message (with --store)")


# --- subcommands -----------------------------------------------------------------


def cmd_query(args) -> int:
    graphs = [g for _, g in _read_graphs(args.graphs)]
    ast = parse_query(read_text(args.query, SparqlError), prefixes=_load_prefixes(args.prefixes))
    table = evaluate(ast, graphs)
    if args.explain:
        for i, step in enumerate(table.plan, 1):
            print(
                f"plan {i}: {step.pattern} .  estimate {step.estimate}  "
                f"solutions {step.solutions}",
                file=sys.stderr,
            )
    rendered = table.to_csv() if args.format == "csv" else table.to_text()
    if args.out:
        _write_text(args.out, rendered)
        print(f"wrote {len(table.rows)} rows to {args.out}")
    else:
        sys.stdout.write(rendered)
    return 0


def cmd_link(args) -> int:
    from . import linkdisc

    _check_inputs(args, ("left", "right", "config", "prefixes"))
    cfg = linkdisc.load_link_config(args.config, prefixes=_load_prefixes(args.prefixes))
    left = _read_graph(args.left)
    right = _read_graph(args.right)
    candidates = linkdisc.find_links(left, right, cfg)
    _write_text(args.out, linkdisc.emit_review_report(candidates))
    accepted = [c for c in candidates if c.status == linkdisc.ACCEPTED]
    print(
        f"{len(candidates)} candidate(s): {len(accepted)} accepted, "
        f"{len(candidates) - len(accepted)} for review -> {args.out}"
    )
    if args.sameas:
        links = Graph(triples=linkdisc.sameas_triples(candidates))
        _write_text(args.sameas, serialize_canonical(links))
        print(f"wrote {len(links)} owl:sameAs triple(s) to {args.sameas}")
    return 0


def _overlap_text(stats: OverlapStats) -> str:
    return (
        f"joint {stats.joint}, disjoint {stats.disjoint_a}/{stats.disjoint_b}, "
        f"union {stats.union_a}/{stats.union_b}"
    )


def cmd_fuse(args) -> int:
    from . import fusion

    _check_inputs(args, ("left", "right", "mapping"), ("left_ns", "right_ns", "target_ns"))
    store = _store_to_commit_into(args, args.graph_name)
    left = _read_graph(args.left)
    right = _read_graph(args.right)
    renames = {}
    if args.mapping:
        try:
            renames = fusion.load_renames(args.mapping)
        except fusion.FusionError as err:
            raise UsageError(str(err)) from None
    left_vocab = fusion.extract_vocabulary(left)
    right_vocab = fusion.extract_vocabulary(right)
    shifted_left = fusion.shift_namespace(left, args.left_ns, args.target_ns, renames)
    shifted_right = fusion.shift_namespace(right, args.right_ns, args.target_ns, renames)
    fused = Graph.union([shifted_left, shifted_right], name=args.graph_name)
    _write_text(args.out, serialize_canonical(fused))
    print(f"fused {len(left)} + {len(right)} triples into {len(fused)} -> {args.out}")
    for label, a, b in zip(("properties", "classes"), left_vocab, right_vocab):
        print(f"{label}: {_overlap_text(fusion.compute_overlap(a, b))}")
    _maybe_commit(args, store, fused)
    return 0


def cmd_align(args) -> int:
    from . import fusion

    vocabularies = [(name, fusion.extract_vocabulary(g)) for name, g in _read_graphs(args.graphs)]
    report = fusion.vocabulary_report(vocabularies)
    lines = ["graph,properties,classes"]
    for name, n_props, n_classes in report.per_graph:
        print(f"{name}: {n_props} properties, {n_classes} classes")
        lines.append(f"{name},{n_props},{n_classes}")
    print(f"deduplicated union: {report.union_properties} properties, {report.union_classes} classes")
    lines.append(f"union,{report.union_properties},{report.union_classes}")
    if len(vocabularies) == 2:
        (_, left_vocab), (_, right_vocab) = vocabularies
        for label, a, b in zip(("property", "class"), left_vocab, right_vocab):
            stats = fusion.compute_overlap(a, b)
            print(f"{label} overlap: {_overlap_text(stats)}")
            lines.append(f"{label}-overlap,{stats.joint},{stats.disjoint_a},{stats.disjoint_b}")
    if args.out:
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_lint(args) -> int:
    from . import fusion

    graph = _read_graph(args.graph)
    languages = tuple(lang.strip() for lang in args.languages.split(",") if lang.strip())
    issues = fusion.lint_vocabulary(graph, required_languages=languages)
    for issue in issues:
        fix = f" (suggest: {issue.suggested_fix})" if issue.suggested_fix else ""
        print(f"{issue.kind}: {issue.subject}: {issue.detail}{fix}")
    print(f"{len(issues)} issue(s) found")
    if args.out:
        _write_text(args.out, fusion.lint_report_csv(issues))
    if issues and args.strict:
        return 1
    return 0


def cmd_enrich(args) -> int:
    from . import enrich

    _check_inputs(args, ("gnds", "template", "fixtures"))
    _check_directory(args, "fixtures")
    gnds = []
    for lineno, line in enumerate(read_text(args.gnds, UsageError).splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                gnds.append(enrich.normalize_gnd(line))
            except enrich.GndError as err:
                raise enrich.GndError(f"{args.gnds}:{lineno}: {err}") from None
    overrides = {}
    if args.delay is not None:
        overrides["politeness_delay_ms"] = args.delay
    if args.timeout is not None:
        overrides["timeout_ms"] = args.timeout
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if args.base_url:
        overrides["base_url"] = args.base_url
    if args.template:
        template = read_text(args.template, UsageError)
        overrides["lookup_template"] = QueryTemplate.from_text(template)
    endpoint = enrich.builtin_endpoint(args.endpoint, **overrides)
    store = _store_to_commit_into(args, endpoint.graph)
    if args.fixtures:
        transport = enrich.RecordedTransport(Path(args.fixtures))
    elif args.live:
        transport = enrich.HttpTransport()
    else:
        raise UsageError("choose a transport: --fixtures DIR for recorded runs or --live")
    graph, report = enrich.lazy_extract(gnds, endpoint, transport)
    _write_text(args.out, serialize_canonical(graph))
    print(
        f"extracted {len(graph)} triple(s) from {endpoint.name} "
        f"({report.ok_count}/{len(report.items)} ok) -> {args.out}"
    )
    if args.report:
        _write_text(args.report, report.to_csv())
    _maybe_commit(args, store, graph)
    return 0


def _open_store(args) -> ChangeStore:
    from .versioning import ChangeStore

    # a missing store is a config error, not an empty history
    _check_inputs(args, ("store",))
    _check_directory(args, "store")
    return ChangeStore(args.store)


def cmd_log(args) -> int:
    from .versioning import format_log

    store = _open_store(args)
    sys.stdout.write(format_log(store.log()))
    return 0


def cmd_diff(args) -> int:
    store = _open_store(args)
    changeset = store.diff(store.resolve(args.commit_a), store.resolve(args.commit_b))
    for line in sorted(changeset.removed):
        print("- " + line)
    for line in sorted(changeset.added):
        print("+ " + line)
    print(f"{len(changeset.added)} added, {len(changeset.removed)} removed", file=sys.stderr)
    return 0


def cmd_checkout(args) -> int:
    store = _open_store(args)
    commit_id = store.resolve(args.commit)
    lines = store.checkout(commit_id)
    _write_text(args.out, serialize_canonical_lines(lines))
    print(f"wrote {len(lines)} triple(s) at {commit_id[:12]} to {args.out}")
    return 0


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgfuse",
        description="Fuse, link, enrich, version and query small RDF catalogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="evaluate a query over one or more graph files")
    p.add_argument("--graphs", required=True, help="comma-separated graph files, queried as a union")
    p.add_argument("--query", required=True, help="file with the query text")
    p.add_argument("--prefixes", help="prefix file overriding the built-in defaults")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the join order with estimated and actual cardinalities to stderr",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("link", help="discover same-person candidates between two graphs")
    p.add_argument("--config", required=True, help="link configuration file")
    p.add_argument("--left", required=True, help="source graph file")
    p.add_argument("--right", required=True, help="target graph file")
    p.add_argument("--out", required=True, help="review report CSV")
    p.add_argument("--sameas", help="also write accepted links as owl:sameAs N-Triples")
    p.add_argument("--prefixes", help="prefix file for resolving config names")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("fuse", help="shift two catalogues into a shared namespace and merge them")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--left-ns", required=True, help="vocabulary namespace of the left graph")
    p.add_argument("--right-ns", required=True, help="vocabulary namespace of the right graph")
    p.add_argument("--target-ns", required=True, help="shared target namespace")
    p.add_argument("--mapping", help="rename file: old-local-name<TAB>new-local-name")
    p.add_argument("--out", required=True, help="fused canonical N-Triples output")
    p.add_argument("--graph-name", default="urn:x-fused:catalogue")
    _add_store_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("align", help="vocabulary statistics for one or more graphs")
    p.add_argument("--graphs", required=True, help="comma-separated graph files")
    p.add_argument("--out", help="statistics CSV")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("lint", help="check vocabulary labels, descriptions and naming")
    p.add_argument("--graph", required=True)
    p.add_argument("--languages", default="de,en", help="required label languages")
    p.add_argument("--out", help="issue report CSV")
    p.add_argument("--strict", action="store_true", help="exit 1 when issues are found")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("enrich", help="extract external data per GND, one request at a time")
    p.add_argument("--endpoint", required=True, choices=("dnb", "wikidata", "dbpedia"))
    p.add_argument("--gnds", required=True, help="file with one GND number or DNB URL per line")
    p.add_argument("--out", required=True, help="extracted graph as canonical N-Triples")
    p.add_argument("--report", help="per-GND outcome CSV")
    p.add_argument("--fixtures", help="recorded transport directory (no network)")
    p.add_argument("--live", action="store_true", help="use live HTTP requests")
    p.add_argument("--delay", type=int, help="politeness delay in milliseconds")
    p.add_argument("--timeout", type=int, help="request timeout in milliseconds")
    p.add_argument("--retries", type=int, help="max retries on timeout or 5xx")
    p.add_argument("--base-url", help="override the endpoint base URL")
    p.add_argument("--template", help="file with a replacement {gnd} lookup query template")
    _add_store_flags(p)
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("log", help="list commits, newest first")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("diff", help="changeset between two commits")
    p.add_argument("--store", required=True)
    p.add_argument("commit_a", help="commit id, or a unique prefix of at least 4 hex digits")
    p.add_argument("commit_b", help="commit id, or a unique prefix of at least 4 hex digits")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("checkout", help="materialize the graph at a commit")
    p.add_argument("--store", required=True)
    p.add_argument("commit", help="commit id, or a unique prefix of at least 4 hex digits")
    p.add_argument("-o", "--out", required=True, help="output N-Triples file")
    p.set_defaults(func=cmd_checkout)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KgfuseError as err:
        label = "config error" if err.exit_code == 2 else "error"
        print(f"{label}: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        # every reader lets an input that cannot be opened raise; it is named here
        where = f"{err.filename}: {err.strerror}" if err.filename else err
        print(f"config error: {where}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
