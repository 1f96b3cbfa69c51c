"""Benchmark: strategy-explorer pruning vs raw branching.

The bounded explorer's performance story is the transposition +
symmetry table keyed on per-receiver post-round state keys: without
it, the per-round emission alphabet at ``n = 4`` (the minimal
synchronous certificate scope) spans a strategy tree of ~10^13 nodes --
naive branching is infeasible.  The table records the *exact* raw
subtree size every hit skipped, so the reduction reported here is a
measurement, not an estimate.

Asserted gates (tunable via ``EXPLORE_BENCH_MIN_REDUCTION``, 0 to
disable):

* the n = 4 exhaustive certificate completes with exactly the pinned
  counters (the search walks one child per per-receiver outcome class
  and credits the rest in bulk, so the counters are what pin it to the
  child-by-child walk), and its measured reduction is at least 10x (in
  practice it is over 10^9);
* the n = 3 violation hunt finds its witness and the witness replays to
  the same failing verdict through the plain engine;
* (exhaustive tier only, ``--exhaustive``) the full n = 5 certificate
  completes with exactly its pinned counters -- a few minutes of work.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import emit, run_once, snapshot
from repro.core.params import SystemParams
from repro.explore import default_scenario, explore, replay_witness

MIN_REDUCTION = float(os.environ.get("EXPLORE_BENCH_MIN_REDUCTION", "10"))

#: The full-depth n = 4 certificate's deterministic summary.
N4_SUMMARY = (
    "6834 nodes expanded (765674 children, 13642 duplicate faces, "
    "755466 transposition hits); raw tree 19601209467865 nodes -> "
    "2868189854.8x reduction; depth 8"
)

#: The full-depth n = 5 certificate's deterministic summary.
N5_SUMMARY = (
    "210198 nodes expanded (254030243 children, 525375 duplicate faces, "
    "253715070 transposition hits); raw tree 6323623954048580754 nodes -> "
    "30084129982438.4x reduction; depth 8"
)


def test_bench_explore_certificate_n4(benchmark):
    """Exhaustive sweep just inside the synchronous bound."""
    scenario = default_scenario(SystemParams(n=4, ell=4, t=1))

    certificate = run_once(benchmark, lambda: explore(scenario))
    stats = certificate.stats

    rows = [
        ("outcome", certificate.outcome),
        ("nodes expanded", stats.nodes_expanded),
        ("children generated", stats.children_generated),
        ("transposition hits", stats.transposition_hits),
        ("raw tree size", stats.raw_tree_size),
        ("reduction", f"{stats.pruning_factor:.1f}x"),
        ("elapsed", f"{stats.elapsed_s:.2f}s"),
    ]
    benchmark.extra_info["explore_n4"] = {k: str(v) for k, v in rows}
    emit("explorer certificate, n=4 ell=4 t=1 (sync)", rows)

    snapshot(
        "explore",
        {"n": 4, "ell": 4, "t": 1, "synchrony": "sync"},
        ops_per_s=stats.nodes_expanded / max(stats.elapsed_s, 1e-9),
        extra={
            "nodes_expanded": stats.nodes_expanded,
            "pruning_factor": round(stats.pruning_factor, 1),
            "elapsed_s": round(stats.elapsed_s, 2),
        },
    )

    assert certificate.outcome == "exhausted"
    assert stats.deterministic_summary() == N4_SUMMARY
    assert stats.raw_tree_size > stats.nodes_expanded
    if MIN_REDUCTION:
        assert stats.pruning_factor >= MIN_REDUCTION, (
            f"pruning reduced the raw tree only {stats.pruning_factor:.1f}x "
            f"(< {MIN_REDUCTION}x)"
        )


@pytest.mark.exhaustive
def test_bench_explore_certificate_n5(benchmark):
    """The synchronous n = 5 certificate, pinned at full depth."""
    scenario = default_scenario(SystemParams(n=5, ell=5, t=1))

    certificate = run_once(benchmark, lambda: explore(scenario))
    stats = certificate.stats

    rows = [
        ("outcome", certificate.outcome),
        ("nodes expanded", stats.nodes_expanded),
        ("children generated", stats.children_generated),
        ("reduction", f"{stats.pruning_factor:.1f}x"),
        ("elapsed", f"{stats.elapsed_s:.2f}s"),
    ]
    benchmark.extra_info["explore_n5"] = {k: str(v) for k, v in rows}
    emit("explorer certificate, n=5 ell=5 t=1 (sync)", rows)

    assert certificate.outcome == "exhausted"
    assert stats.deterministic_summary() == N5_SUMMARY


def test_bench_explore_violation_n3(benchmark):
    """Violation hunt just past the synchronous bound, plus replay."""
    scenario = default_scenario(SystemParams(n=3, ell=3, t=1))

    certificate = run_once(benchmark, lambda: explore(scenario))
    stats = certificate.stats

    rows = [
        ("outcome", certificate.outcome),
        ("violated", certificate.violation),
        ("found at round", certificate.violation_round),
        ("nodes expanded", stats.nodes_expanded),
        ("elapsed", f"{stats.elapsed_s:.2f}s"),
    ]
    benchmark.extra_info["explore_n3"] = {k: str(v) for k, v in rows}
    emit("explorer violation hunt, n=3 ell=3 t=1 (sync)", rows)

    assert certificate.found_violation
    replayed = replay_witness(scenario, certificate.witness)
    assert not replayed.verdict.ok
