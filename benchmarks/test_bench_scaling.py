"""Scaling benchmark: the protocols as n grows.

Not a paper artefact (the paper leaves complexity open) but a release
requirement: users need the cost curve.  The series report decision
rounds and message counts as the system grows along two paper-relevant
trajectories:

* Figure 5 at the minimal solvable identifier count for each ``n``
  (``ell = floor((n + 3t)/2) + 1``);
* Figure 7 pinned at ``ell = t + 1`` while ``n`` grows -- the identifier
  count is *constant* in n, the whole point of the restricted model;
* raw kernel round throughput over the array fabric's target range
  (n into the thousands), written to ``BENCH_scaling.json`` so
  ``make bench-diff`` tracks the large-n win.

The cost-model bounds of :mod:`repro.analysis.complexity` are asserted
along the way, so the printed curves are guaranteed, not incidental.
"""

import time
from typing import Hashable

import pytest

from benchmarks.conftest import emit, run_once, snapshot
from repro.analysis.complexity import (
    dls_all_decided_bound,
    restricted_all_decided_bound,
)
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory
from repro.psync.restricted import restricted_factory
from repro.sim.kernel import BasicPsync, ExecutionKernel
from repro.sim.partial import PartitionSchedule
from repro.sim.process import Process
from repro.sim.runner import run_agreement

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS


def run_fig5(n, t=1):
    ell = (n + 3 * t) // 2 + 1
    params = SystemParams(n=n, ell=ell, t=t, synchrony=PSYNC)
    byz = tuple(range(n - t, n))
    result = run_agreement(
        params=params,
        assignment=balanced_assignment(n, ell),
        factory=dls_factory(params, BINARY),
        proposals={k: k % 2 for k in range(n - t)},
        byzantine=byz,
        max_rounds=dls_all_decided_bound(params, 0) + 8,
    )
    return params, result


def run_fig7(n, t=1):
    ell = t + 1
    params = SystemParams(n=n, ell=ell, t=t, synchrony=PSYNC,
                          numerate=True, restricted=True)
    byz = tuple(range(n - t, n))
    result = run_agreement(
        params=params,
        assignment=balanced_assignment(n, ell),
        factory=restricted_factory(params, BINARY),
        proposals={k: k % 2 for k in range(n - t)},
        byzantine=byz,
        max_rounds=restricted_all_decided_bound(params, 0) + 8,
    )
    return params, result


def test_scaling_fig5(benchmark):
    def body():
        rows = []
        for n in (6, 8, 10, 12, 14):
            params, result = run_fig5(n)
            assert result.verdict.ok
            assert result.verdict.last_decision_round <= \
                dls_all_decided_bound(params, 0)
            rows.append((n, params.ell,
                         result.verdict.last_decision_round,
                         result.metrics.total_messages))
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 5 scaling at minimal ell (t=1)",
         [("n", "ell", "last decision round", "messages")] + rows)
    # Identifier demand grows with n -- the unrestricted model's tax.
    ells = [row[1] for row in rows]
    assert ells == sorted(ells) and ells[-1] > ells[0]


def test_scaling_fig7(benchmark):
    def body():
        rows = []
        for n in (4, 6, 8, 10, 12):
            params, result = run_fig7(n)
            assert result.verdict.ok
            assert result.verdict.last_decision_round <= \
                restricted_all_decided_bound(params, 0)
            rows.append((n, params.ell,
                         result.verdict.last_decision_round,
                         result.metrics.total_messages))
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 7 scaling at ell = t + 1 (t=1)",
         [("n", "ell", "last decision round", "messages")] + rows)
    # Identifier demand is constant in n -- the restricted dividend.
    assert {row[1] for row in rows} == {2}


# ----------------------------------------------------------------------
# Large-n fabric range
# ----------------------------------------------------------------------
class _Broadcaster(Process):
    """Constant-shape sender: times the delivery engine, nothing else."""

    def compose(self, round_no: int) -> Hashable:
        return ("vote", self.identifier, round_no % 4)

    def deliver(self, round_no: int, inbox) -> None:
        pass


def _kernel_at(n: int) -> ExecutionKernel:
    ell = max(4, n // 8)
    params = SystemParams(n=n, ell=ell, t=1, synchrony=PSYNC)
    assignment = balanced_assignment(n, ell)
    half = n // 2
    return ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=[
            _Broadcaster(assignment.identifier_of(k)) for k in range(n)
        ],
        # Always-active partition: the removal machinery works every
        # round, the regime the array fabric exists for.
        timing=BasicPsync(
            PartitionSchedule(
                10**9, tuple(range(half)), tuple(range(half, n))
            ),
            None,
        ),
    )


LARGE_NS = (128, 256, 512, 1024)


def test_scaling_large_n_kernel_throughput(benchmark):
    """Kernel steps/s over the array fabric's target range, snapshotted
    as ``BENCH_scaling.json`` for the bench-diff trajectory."""
    rounds = 6

    def body():
        series = []
        for n in LARGE_NS:
            engine = _kernel_at(n)
            t0 = time.perf_counter()
            engine.run(max_rounds=rounds, stop_when_all_decided=False)
            series.append((n, rounds / (time.perf_counter() - t0)))
        return series

    series = run_once(benchmark, body)
    emit("Kernel round throughput, always-active partition", [
        ("n", "steps/s"),
        *[(n, f"{sps:.1f}") for n, sps in series],
    ])
    benchmark.extra_info["steps_per_s"] = {
        n: round(sps, 1) for n, sps in series
    }
    by_n = dict(series)
    snapshot(
        "scaling",
        {"ns": list(LARGE_NS), "rounds": rounds,
         "schedule": "partition-always"},
        ops_per_s=by_n[256],
        extra={
            "steps_per_s": {str(n): round(sps, 1) for n, sps in series},
        },
    )
    # The array fabric clears one round/s at n=1024 by orders of
    # magnitude.  A floor, not a race.
    assert by_n[1024] >= 1.0
