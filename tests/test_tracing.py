"""The benchmark's tracer still finds every kgfuse name it wraps.

`bench/tracing.py` patches kgfuse functions by name from outside the
package, so renaming or deleting one of them breaks only traced benchmark
runs.  Installing the tracer here makes that a test failure instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from kgfuse import fixtures
from kgfuse.cli import run
from kgfuse.prefixes import HELMSTEDT_NS, LEIPZIG_NS, PCP_NS
from kgfuse.rdf import Graph, Triple, iri, literal
from kgfuse.versioning import ChangeStore

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("kgfuse_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_wrapped_name():
    tracing = _load_tracing()
    wrapped = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(wrapped, originals):
            assert owner.__dict__[attr] is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in wrapped] == originals


def test_traced_fuse_extracts_each_vocabulary_once_per_stage(tmp_path, capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = run(
            [
                "fuse",
                "--left", str(fixtures.fixture_path("leipzig_persons.ttl")),
                "--right", str(fixtures.fixture_path("helmstedt_persons.ttl")),
                "--left-ns", LEIPZIG_NS,
                "--right-ns", HELMSTEDT_NS,
                "--target-ns", PCP_NS,
                "--out", str(tmp_path / "fused.nt"),
            ]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    # one extraction per graph for the overlap report, one inside each shift
    assert tracer.calls["fusion.extract_vocabulary"] == 4
    assert tracer.calls["fusion.shift_namespace"] == 2


@pytest.mark.parametrize("depth", [1, 7])
def test_traced_checkout_reads_each_commit_file_once(tmp_path, capsys, depth):
    path = tmp_path / "store"
    for n in range(depth):
        state = Graph(triples=[Triple(iri("urn:s:1"), iri("urn:p:1"), literal(f"v{n}"))])
        head = ChangeStore(path).commit("urn:x:g", state, "t", f"step {n}", timestamp=n)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(["checkout", "--store", str(path), head.id, "-o", str(tmp_path / "out.nt")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["cli.checkout"] == 1
    assert tracer.calls["versioning.checkout"] == 1
    metrics = tracing.layer_metrics(tracer, [])
    assert metrics["versioning.read_changeset.calls"] == depth
    assert metrics["versioning.changesets_per_op"] == depth
    assert metrics["versioning.checkout.self_s"] > 0
