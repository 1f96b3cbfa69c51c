"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the repository's default test
collection; naming it on the command line collects it.)
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(workload: str, trace: int, results: Path, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny", "--results-dir", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert {"cpus", "python", "numpy", "fabric_path", "pool_workers",
            "commit", "passes", "wall_spread"} <= set(record["env"])
    assert record["named"]["failed_fraction"] == 0
    if trace:
        assert f"top self-time layer of {workload}:" in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical(workload, tmp_path):
    bench = workloads.WORKLOADS[workload](tmp_path, "tiny")
    state = bench.setup(5)
    plain = bench.run_pass(state)
    tracer = spans.Tracer()
    patches = spans.install(tracer, extra_modules=[workloads])
    try:
        traced = bench.run_pass(state)
    finally:
        spans.uninstall(patches)
    assert tracer.spans, "no span was recorded"
    assert traced.digest == plain.digest
    assert (traced.units, traced.failed) == (plain.units, plain.failed)
    again = bench.run_pass(state)
    assert again.digest == plain.digest, "uninstall left a wrapper behind"


def test_metric_names():
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in BENCHMARK[section]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    names += list(LAYERS["moves"])
    for name in names:
        assert NAME.fullmatch(name), name
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    assert set(LAYERS["moves"]) <= set(per_layer)
    assert {w["name"] for w in BENCHMARK["workloads"]} == \
        set(workloads.WORKLOADS) == set(LAYERS["workloads"])


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = run_bench("fabric-large-n", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
