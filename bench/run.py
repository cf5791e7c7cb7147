"""kgfuse benchmark runner: one workload per process, metrics as JSON.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; kgfuse is imported from its `src/`.  A
run sets the workload up several times (generating and writing its inputs
from the seed), then repeats passes of the workload's operation sequence
until `--seconds` are used up, and prints one metric per line followed by
a final JSON line.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics, with `trace.overhead` the ratio of their
pass times.  `--workload all` runs every workload in a fresh process each.
Scratch files go to `.bench_work/` in the checkout; traced runs leave their
spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("catalogue", "link", "history")
SETUPS = 5

# Units of the metrics printed besides those of BENCHMARK.json: the ones that
# exist on one workload only, the failure share, and the median op latency,
# which jumps between the fast and the slow state of a shared machine.
LINE_UNITS = {
    "op_p50_ms": "ms", "failed_frac": "ratio",
    "fuse_s": "s", "report_s": "s", "lookup_p50_ms": "ms", "lookup_p90_ms": "ms",
    "link_s": "s",
    "commit_p50_ms": "ms", "commit_p90_ms": "ms", "checkout_p50_ms": "ms", "checkout_p90_ms": "ms",
    "store_bytes_per_user_byte": "ratio",
}


class MissingProgram(Exception):
    pass


def import_kgfuse() -> None:
    """Import kgfuse from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kgfuse" / "__init__.py").is_file():
        raise MissingProgram(f"no kgfuse sources under {src}")
    for path in (str(src), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    kgfuse = importlib.import_module("kgfuse")
    importlib.import_module("kgfuse.cli")
    if Path(kgfuse.__file__).resolve().parent != (src / "kgfuse").resolve():
        raise MissingProgram(f"kgfuse was imported from {kgfuse.__file__}, not {src}")


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kgfuse.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import kgfuse in a fresh interpreter."""
    times = []
    for _ in range(SETUPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return median(times)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median(values):
    return statistics.median(values)


def per_pass(passes, kinds=None, p=None) -> float:
    """Median over passes of one figure per pass: the summed time of the ops
    of `kinds` (all ops when None), or their `p`-th latency percentile.

    Taking each pass's figure first keeps a slowdown of the machine that lasts
    a few seconds, which shifts every op of one pass, out of the result.
    """
    figures = []
    for r in passes:
        seconds = [op.seconds for op in r.ops if kinds is None or op.kind in kinds]
        figures.append(sum(seconds) if p is None else percentile(seconds, p))
    return median(figures)


def end_to_end(workload, passes, setup_s: float) -> dict[str, float]:
    ops = [op for r in passes for op in r.ops]
    m = {
        "setup_s": setup_s,
        "run_s": per_pass(passes),
        "op_p50_ms": 1000 * per_pass(passes, p=50),
        "op_p90_ms": 1000 * per_pass(passes, p=90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": sum(not op.ok for op in ops) / len(ops),
    }
    if workload.name == "catalogue":
        m["fuse_s"] = per_pass(passes, {"fuse"})
        m["report_s"] = per_pass(passes, {"report"})
        m["lookup_p50_ms"] = 1000 * per_pass(passes, {"lookup"}, 50)
        m["lookup_p90_ms"] = 1000 * per_pass(passes, {"lookup"}, 90)
    elif workload.name == "link":
        m["link_s"] = per_pass(passes, {"link"})
    else:
        for kind in ("commit", "checkout"):
            m[f"{kind}_p50_ms"] = 1000 * per_pass(passes, {kind}, 50)
            m[f"{kind}_p90_ms"] = 1000 * per_pass(passes, {kind}, 90)
        m["store_bytes_per_user_byte"] = median(
            [r.facts["store_bytes_per_user_byte"] for r in passes])
    return m


def bench_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def reset_caches() -> None:
    """Empty kgfuse's memoization caches, so every pass starts as cold as a
    fresh `kgfuse` process would, rather than reusing the previous pass's
    entries for the very same triples."""
    for module in [m for key, m in sys.modules.items() if key.startswith("kgfuse")]:
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def bytes_per_triple(path: Path) -> float:
    """Traced Python allocation retained by one parse, per triple."""
    import tracemalloc

    import kgfuse.rdf

    text = path.read_text(encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        graph = kgfuse.rdf.parse_turtle(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / len(graph)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 work: Path | None = None) -> dict:
    """Set up, run passes for `seconds`, check; returns the result object."""
    import_kgfuse()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed, scale)
    work = work or WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            workload.setup(work / f"inputs{k}")
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_seconds() + median(setup_times)
        plain, traced, tracers = [], [], []
        loop_started = time.perf_counter()
        k = 0
        while True:
            tracer = tracing.Tracer() if trace and k % 2 else None
            directory = work / f"pass{k}"
            directory.mkdir()
            reset_caches()
            gc.collect()
            p = workloads.Pass(directory, tracer)
            if tracer:
                tracer.install()
            try:
                workload.run_pass(p)
            finally:
                if tracer:
                    tracer.uninstall()
            result = p.finish()
            shutil.rmtree(directory)
            if tracer:
                traced.append(result)
                tracers.append(tracer)
            else:
                plain.append(result)
            k += 1
            elapsed = time.perf_counter() - loop_started
            enough = plain and (traced or not trace)
            if enough and elapsed + elapsed / k > seconds:
                break
        passes = plain + traced
        digests = {r.digest for r in passes}
        ops = [op for r in passes for op in r.ops]
        failed = [op for op in ops if not op.ok]
        unexpected = [op for op in failed if not op.note.startswith(workloads.KNOWN_DEFECT)]
        correct = len(digests) == 1 and not unexpected
        notes = sorted({f"{op.kind}: {op.note}" for op in failed})
        if len(digests) != 1:
            notes.append("outputs differ between passes" + (" (traced vs untraced)" if trace else ""))
        if trace:
            per_pass = [tracing.layer_metrics(t, r.facts.get("politeness_wait_s", []))
                        for t, r in zip(tracers, traced)]
            metrics = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
            metrics["rdf.bytes_per_triple"] = bytes_per_triple(workload.load_input())
            metrics["trace.overhead"] = (median([r.seconds for r in traced])
                                         / median([r.seconds for r in plain]))
            spans = work.parent / f"trace-{name}-seed{seed}.jsonl"
            spans.unlink(missing_ok=True)
            for i, t in enumerate(tracers):
                t.write(spans, f"traced{i}")
            key = "per_layer"
        else:
            metrics = end_to_end(workload, plain, setup_s)
            key = "end_to_end"
        return {
            "workload": name, "seed": seed, "sizes": workload.sizes(),
            "passes": {"untraced": len(plain), "traced": len(traced)},
            "key": key, "correct": correct, "attempted": len(ops), "failed": len(failed),
            "digest": passes[0].digest,
            "notes": notes, "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict, units: dict[str, str]) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    print(f"workload {result['workload']} seed {result['seed']} sizes {json.dumps(result['sizes'])} "
          f"passes {json.dumps(result['passes'])}")
    for note in result["notes"]:
        print(f"note {note}")
    for name, value in result["metrics"].items():
        print(f"metric {name} {value:.6g} {units.get(name) or LINE_UNITS[name]}")
    print(f"ops attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }


def run_all(args) -> int:
    """Every workload in a fresh process of its own; prints all their lines."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        units = bench_units()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as err:
        print(f"bench: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps(report(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
