"""Benchmark: soak-farm throughput under sustained adversarial traffic.

The farm's perf claim is that its bookkeeping -- mixture sampling,
per-instance seed derivation, batched kernel scheduling, record
folding, and the checkpointed JSONL stream -- adds negligible overhead
on top of raw instance execution, so a soak budget is spent simulating
agreement, not orchestrating it.  This bench drives one bounded farm
run end to end, compares it against solo replays of the same stream
slice (the replay contract makes the two literally comparable), and
reports instances/second for both paths plus the streaming log's row
rate.

The floor assertion is deliberately loose
(``SOAK_BENCH_MIN_INSTANCES_PER_S``, default 50/s; set to 0 to
disable): the quick profile sustains a few hundred instances/second on
one worker, but CI machines vary widely.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit, run_once, snapshot
from repro.atlas import AtlasLog
from repro.soak import run_instance, run_soak, sample_instance

PROFILE = "quick"
SEED = 2026
INSTANCES = 600
WINDOW = 150
SOLO_SAMPLE = 120


def test_soak_farm_throughput(benchmark, tmp_path):
    """One bounded farm run vs solo replays of the same stream slice."""
    log_path = tmp_path / "soak.jsonl"

    def body():
        t0 = time.perf_counter()
        outcome = run_soak(
            PROFILE, seed=SEED, instances=INSTANCES, window=WINDOW,
            log_path=str(log_path),
        )
        farm_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        solo = [
            run_instance(sample_instance(PROFILE, SEED, i))
            for i in range(SOLO_SAMPLE)
        ]
        solo_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        rows = list(AtlasLog(log_path).rows())
        read_s = time.perf_counter() - t0
        return outcome, solo, rows, farm_s, solo_s, read_s

    outcome, solo, rows, farm_s, solo_s, read_s = run_once(benchmark, body)

    assert outcome.passed, f"soak bench hit violations: {outcome.summary()}"
    assert outcome.instances == INSTANCES
    # Differential check (the replay contract): the farm's logged rows
    # for the solo-replayed slice carry identical verdicts and costs.
    by_index = {
        r["index"]: r for r in rows if r["kind"] == "instance"
    }
    for i, record in enumerate(solo):
        logged = by_index[i]
        assert {k: logged[k] for k in record} == record

    farm_ips = INSTANCES / farm_s
    solo_ips = SOLO_SAMPLE / solo_s
    row_rate = len(rows) / read_s
    overhead = solo_ips / farm_ips if farm_ips else float("inf")

    emit(
        f"Soak farm throughput ({PROFILE} profile, {INSTANCES} "
        f"instances, window {WINDOW})", [
            ("path", "wall s", "instances/s"),
            ("farm (batched kernels + streamed log)",
             f"{farm_s:.2f}", f"{farm_ips:.0f}"),
            ("solo replay loop", f"{solo_s:.2f}", f"{solo_ips:.0f}"),
            ("log re-read", f"{read_s:.3f}", f"{row_rate:.0f} rows/s"),
            ("farm bookkeeping overhead", "",
             f"{(overhead - 1) * 100:+.0f}% vs solo"),
        ],
    )
    benchmark.extra_info["farm_instances_per_s"] = round(farm_ips, 1)
    benchmark.extra_info["solo_instances_per_s"] = round(solo_ips, 1)
    snapshot(
        "soak",
        {"profile": PROFILE, "instances": INSTANCES, "window": WINDOW,
         "seed": SEED},
        ops_per_s=farm_ips,
        speedup=farm_ips / solo_ips,
        extra={
            "violations": outcome.violations,
            "losses": outcome.losses,
            "messages": outcome.messages,
            "log_rows": len(rows),
            "log_rows_per_s": round(row_rate, 1),
        },
    )

    floor = float(os.environ.get("SOAK_BENCH_MIN_INSTANCES_PER_S", "50"))
    if floor > 0:
        assert farm_ips >= floor, (
            f"farm throughput {farm_ips:.0f} instances/s below the "
            f"{floor:.0f}/s floor"
        )


def test_mixture_sampling_rate(benchmark):
    """Spec sampling alone must be orders faster than execution."""

    def body():
        t0 = time.perf_counter()
        specs = [
            sample_instance(PROFILE, SEED, i) for i in range(2000)
        ]
        return specs, time.perf_counter() - t0

    specs, wall = run_once(benchmark, body)
    rate = len(specs) / wall
    assert len({s.instance_id for s in specs}) == len(specs)
    emit("Soak mixture sampling", [
        ("stage", "specs/s"),
        ("sample_instance + content id", f"{rate:.0f}"),
    ])
    benchmark.extra_info["specs_per_s"] = round(rate, 1)
    # Sampling at instance-execution speed would mean the farm spends
    # its budget planning; keep a very loose guard.
    assert rate >= 2000, f"sampling unexpectedly slow: {rate:.0f}/s"
