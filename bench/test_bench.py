"""Tests of the benchmark itself, on small sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run

run.import_kgfuse()

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 0.1
NAMES = run.WORKLOAD_NAMES


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    made = []
    for k, seed in enumerate((7, 7, 8)):
        w = workloads.WORKLOADS[name](seed, SMALL)
        w.setup(tmp_path / str(k))
        made.append(_files(tmp_path / str(k)))
    assert made[0] == made[1]
    assert made[0] != made[2]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_output_digests_across_processes(name, tmp_path):
    code = (
        "import sys; sys.path.insert(0, 'bench'); import run; "
        f"print(run.run_workload({name!r}, 3, 0, False, {SMALL}, "
        f"work=__import__('pathlib').Path(sys.argv[1]))['digest'])"
    )
    digests = set()
    for k, hashseed in enumerate(("1", "2")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / f"w{k}")],
            cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_outputs(name, tmp_path):
    result = run.run_workload(name, 5, 0, True, SMALL, work=tmp_path / "w")
    assert result["passes"]["traced"] >= 1
    assert not any("outputs differ" in note for note in result["notes"])
    assert result["correct"]
    assert (tmp_path / f"trace-{name}-seed5.jsonl").stat().st_size > 0


def test_tracer_restores_every_name():
    before = [owner.__dict__[attr] for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    after = [owner.__dict__[attr] for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    assert before == after


def test_self_time_excludes_child_spans():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    spans = {name: (start, end, self_s) for _, _, _, name, start, end, self_s in t.spans}
    start, end, self_s = spans["outer"]
    inner = spans["inner"][1] - spans["inner"][0]
    assert self_s == pytest.approx(end - start - inner)


def test_planted_pairs_score_above_accept():
    rng = random.Random("planted")
    cat = gen.catalogues(rng, 60, 60, 0, duplicate_share=0.2)
    left = {p.iri: p for p in cat.left_persons}
    right = {p.iri: p for p in cat.right_persons}
    assert cat.planted
    for s, t in cat.planted:
        score = gen.oracle_score(gen.name_values(left[s]), gen.name_values(right[t]))
        assert score >= gen.LINK_ACCEPT


def test_oracle_reproduces_the_bundled_pair():
    leipzig = gen.name_values(gen.Person("x", "Heinrich Matthias", "Heinrichs", "", "", "", False))
    helmstedt = gen.name_values(gen.Person("y", "Andreas Heinrich", "Matthias", "", "", "", False))
    assert repr(gen.oracle_score(leipzig, helmstedt)) == "0.8164965809277261"
    assert repr(gen.oracle_score([gen.tokens("Heinrich Matthias Heinrichs")],
                                 [gen.tokens("Andreas Heinrich Matthias")])) == "0.6666666666666666"


def test_expected_answers_are_not_trivial():
    rng = random.Random("answers")
    cat = gen.catalogues(rng, 80, 80, 40)
    reports = gen.expected_reports(cat)
    assert all(len(rows) > 1 for rows in reports.values())
    names = gen.lookup_names(rng, cat, 20)
    assert sum(bool(gen.expected_lookup(cat, n)) for n in names) >= 15
    assert not gen.expected_lookup(cat, "Nemo von Niemand")
    merged = gen.fused_lines(cat, scoped_blanks=True)
    assert len(merged) > len(gen.fused_lines(cat, scoped_blanks=False))


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass_except_the_known_fuse_defect(name, tmp_path):
    result = run.run_workload(name, 11, 0, False, SMALL, work=tmp_path / "w")
    assert result["correct"], result["notes"]
    if name == "catalogue":
        assert result["failed"] == result["passes"]["untraced"]  # one fuse per pass
        assert all(workloads.KNOWN_DEFECT in note for note in result["notes"])
    else:
        assert result["failed"] == 0


def test_a_wrong_output_fails_its_op(tmp_path, monkeypatch):
    w = workloads.Link(4, SMALL)
    w.setup(tmp_path / "in")
    monkeypatch.setattr(w.cat, "planted", w.cat.planted + [("urn:x:nobody", "urn:x:nobody")])
    (tmp_path / "p").mkdir()
    p = workloads.Pass(tmp_path / "p")
    w.run_pass(p)
    assert not p.result.ops[-1].ok


def _workload_metrics(name: str) -> set[str]:
    common = {"setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "failed_frac"}
    return common | {
        "catalogue": {"fuse_s", "report_s", "lookup_p50_ms", "lookup_p90_ms"},
        "link": {"link_s"},
        "history": {"commit_p50_ms", "commit_p90_ms", "checkout_p50_ms", "checkout_p90_ms",
                    "store_bytes_per_user_byte"},
    }[name]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    key = "per_layer" if trace else "end_to_end"
    units = run.bench_units()[key]
    result = run.run_workload(name, 2, 0, bool(trace), SMALL, work=tmp_path / "w")
    out = io.StringIO()
    with redirect_stdout(out):
        final = run.report(result, units)
    printed = {}
    for line in out.getvalue().splitlines():
        if line.startswith("metric "):
            _, metric, _, unit = line.split(" ")
            printed[metric] = unit
    wanted = set(units) | (set() if trace else _workload_metrics(name))
    assert wanted <= set(printed)
    assert all(printed[m] for m in wanted)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == set(units)
    json.dumps(final)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"] + ["--workload", "link", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
