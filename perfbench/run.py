"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload soak-farm --seed 1 --seconds 20 --trace 0

The program under test is ``src/repro`` of the same checkout; nothing
installed elsewhere is used.  With ``--trace 0`` the last line carries
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics, and a per-layer self-time table with the
workload's top layer is printed above it.

Timings are the run's best pass.  On a shared host, contention only
ever adds time and comes in bursts of seconds, so the best of many
short passes repeats from run to run where their median does not (the
results file keeps the median and quartiles too).

Every run also writes a results file with its environment to
``perfbench/results/`` (``perfbench/summarize.py`` aggregates them).

Exit status: 0 when the run completed (``correct`` says whether the
outputs passed their checks), 1 when a workload raised, 2 when the
checkout holds no ``src/repro``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up repetitions; ``setup_s`` is the median import time of fresh
#: interpreters plus the median input construction.
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; "
    "sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
    "print(time.perf_counter() - start)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs a seconds-long smoke of each pass")
    parser.add_argument("--results-dir", type=Path,
                        default=HERE / "results")
    return parser.parse_args(argv)


def load_program():
    """Import the checkout's ``repro`` and the workloads, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return workloads


def quartiles(values):
    """``(q1, median, q3)`` of a sample (a single value repeats)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def import_seconds() -> float:
    """Import time of the program and the workloads in a fresh interpreter."""
    probe = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(workload, passes) -> dict:
    from repro.sim import fabric

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "fabric_path": "array" if fabric.array_path_enabled() else "scalar",
        "pool_workers": getattr(workload, "workers", 1),
        "commit": git_commit(),
        "passes": len(passes),
        "wall_spread": summary([p.wall_s for p in passes])["spread"],
    }


def measure(workload, state, seconds):
    """Run passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(state))
    return passes


# ----------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ----------------------------------------------------------------------
def layer_metrics(tracer, passes: int, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Every per-layer metric, per pass, from the tracer's totals."""
    def total(name):
        return tracer.total(name) / passes

    def own(name):
        return tracer.own(name) / passes

    def calls(name):
        return tracer.calls(name) / passes

    def counter(name):
        return tracer.counters.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    metrics = {
        "process.compose.s": total("process.compose"),
        "process.deliver.s": total("process.deliver"),
        "kernel.compose_round.self_s": own("kernel.compose_round"),
        "kernel.compose_round.calls": calls("kernel.compose_round"),
        "kernel.finish_round.self_s": own("kernel.finish_round"),
        "kernel.finish_round.calls": calls("kernel.finish_round"),
        "kernel.checkpoint.s": total("kernel.checkpoint"),
        "kernel.checkpoint.calls": calls("kernel.checkpoint"),
        "kernel.restore.s": total("kernel.restore"),
        "kernel.restore.calls": calls("kernel.restore"),
        "kernel.run_batch.s": total("kernel.run_batch"),
        "kernel.run_batch.calls": calls("kernel.run_batch"),
        "adversary.emissions.s": total("adversary.emissions"),
        "adversary.emissions.calls": calls("adversary.emissions"),
        "adversary.normalize_emissions.s":
            total("adversary.normalize_emissions"),
        "adversary.normalize_emissions.calls":
            calls("adversary.normalize_emissions"),
        "fabric.deliver_round.self_s": own("fabric.deliver_round"),
        "fabric.removed_mask.s": total("fabric.removed_mask"),
        "fabric.array_round_share": ratio(
            c.get("fabric.array_rounds", 0), c.get("fabric.rounds", 0)),
        "fabric.edges_delivered": counter("fabric.edges_delivered"),
        "runner.result_from_kernel.s": total("runner.result_from_kernel"),
        "trace.append.s": total("trace.append"),
        "metrics.window_add_record.s": total("metrics.window_add_record"),
        "mixture.sample_instance.s": total("mixture.sample_instance"),
        "mixture.build_instance.s": total("mixture.build_instance"),
        "units.make_kernel.s": total("units.make_kernel"),
        "campaign.execute_unit.s": total("campaign.execute_unit"),
        "campaign.pool.dispatch_s": counter("campaign.pool.dispatch_s"),
        "campaign.pool.result_bytes": counter("campaign.pool.result_bytes"),
        "campaign.cache_store.s": total("campaign.cache_store"),
        "campaign.cache_load.s": total("campaign.cache_load"),
        "campaign.cache_hit_ratio": ratio(
            c.get("campaign.cache_hits", 0), c.get("campaign.cache_loads", 0)),
        "stream.append.s": total("stream.append"),
        "stream.append_many.s": total("stream.append_many"),
        "stream.rows.s": total("stream.rows"),
        "stream.fsyncs": counter("stream.fsyncs"),
        "stream.bytes_written": counter("stream.bytes_written"),
        "evidence.run_atlas_unit.s": total("evidence.run_atlas_unit"),
        "evidence.fuse_evidence.s": total("evidence.fuse_evidence"),
        "merge.merge_shards.s": total("merge.merge_shards"),
        "render.aggregate_incremental.s":
            total("render.aggregate_incremental"),
        "render.render_markdown.s": total("render.render_markdown"),
        "canonical.canonical_state_key.s":
            total("canonical.canonical_state_key"),
        "canonical.canonical_state_key.calls":
            calls("canonical.canonical_state_key"),
        "copy.deepcopy.s": total("copy.deepcopy"),
        "copy.deepcopy.calls": calls("copy.deepcopy"),
        "explore.transposition_hit_ratio": ratio(
            c.get("explore.transposition_hits", 0),
            c.get("explore.children_generated", 0)),
        "explore.explore.self_s": own("explore.explore"),
        "soak.run_soak.self_s": own("soak.run_soak"),
        "atlas.run_atlas.self_s": own("atlas.run_atlas"),
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
    }
    return metrics


def self_time_table(tracer, passes: int, traced_wall: float) -> list[str]:
    """Rows of the per-layer self-time table, heaviest first."""
    rows = sorted(
        ((name, calls, total / passes, own / passes)
         for name, (calls, total, own) in tracer.spans.items()),
        key=lambda row: row[3], reverse=True,
    )
    attributed = sum(row[3] for row in rows)
    lines = [f"{'layer span':36} {'calls/pass':>11} {'total s':>9} "
             f"{'self s':>9} {'self %':>7}"]
    for name, calls, total, own in rows:
        share = 100.0 * own / attributed if attributed else 0.0
        lines.append(f"{name:36} {calls / passes:11.0f} {total:9.3f} "
                     f"{own:9.3f} {share:6.1f}%")
    lines.append(f"{'(pass wall, traced)':36} {'':11} {traced_wall:9.3f}")
    return lines


def traced_run(workloads_mod, workload, state, seconds):
    """Untraced passes for a third of the time, then traced passes.

    Returns every pass, the per-layer metrics, the self-time table, the
    top self-time layer and whether every traced pass produced the same
    output bytes as the untraced ones.
    """
    import spans

    untraced = measure(workload, state, seconds / 3)
    tracer = spans.Tracer()
    patches = spans.install(tracer, extra_modules=[workloads_mod])
    try:
        traced = measure(workload, state, seconds * 2 / 3)
    finally:
        spans.uninstall(patches)
    untraced_wall = min(p.wall_s for p in untraced)
    traced_wall = min(p.wall_s for p in traced)
    layers = layer_metrics(tracer, len(traced), untraced_wall, traced_wall)
    table = self_time_table(tracer, len(traced), traced_wall)
    working = {name: entry for name, entry in tracer.spans.items()
               if not name.endswith(".wait")}
    top = max(working, key=lambda name: working[name][2], default="(none)")
    digests = {p.digest for p in untraced + traced}
    return untraced + traced, layers, table, top, len(digests) == 1


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)}")
    workdir = HERE / ".work" / str(os.getpid())
    workload = workloads.WORKLOADS[args.workload](workdir, args.scale)
    try:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setups.append(time.perf_counter() - start)
        if args.trace:
            passes, layers, table, top, identical = traced_run(
                workloads, workload, state, args.seconds)
        else:
            passes = measure(workload, state, args.seconds)
        check_run = getattr(workload, "check_run", None)
        extra_units, extra_failed, run_problems = (
            check_run(state) if check_run else (0, 0, []))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = sum(p.units for p in passes) + extra_units
    failed = sum(p.failed for p in passes) + extra_failed
    problems = sorted({m for p in passes for m in p.problems}) + run_problems
    walls = [p.wall_s for p in passes]
    rates = [p.rate for p in passes]
    end_to_end = {
        "wall_s": (min(walls), "s"),
        "setup_s": (statistics.median(imports) + statistics.median(setups),
                    "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "units_per_s": (max(rates), "1/s"),
    }
    named = {
        key: summary([p.named[key] for p in passes])
        for key in passes[0].named
    }
    named["failed_fraction"] = failed / attempted

    if args.trace:
        if not identical:
            problems.append("traced outputs differ from the untraced pass")
        for line in table:
            print(line)
        print(f"top self-time layer of {args.workload}: {top}")
        print(f"tracing overhead on {args.workload}: traced pass wall / "
              f"untraced = {layers['trace.overhead_ratio']:.2f}x")
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in per_layer["per_layer"]}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in layers.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end.items()
        }
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    env = environment(workload, passes)
    record = {
        "workload": args.workload,
        "units_per_s_counts": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "wall_s": summary(walls),
        "pass_walls_s": walls,
        "setup_runs_s": setups,
        "import_runs_s": imports,
        "named": named,
    }
    if args.trace:
        record["top_layer"] = top
        record["self_time_table"] = table
    args.results_dir.mkdir(parents=True, exist_ok=True)
    out = args.results_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{os.getpid()}.json"
    )
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
