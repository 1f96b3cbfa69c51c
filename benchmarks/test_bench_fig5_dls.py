"""Benchmark F5: the Figure 5 partially synchronous homonym algorithm.

Regenerates the algorithm's behaviour across the dimensions the paper's
analysis quantifies over: decision latency as a function of the
stabilisation time (GST), of the identifier count at the solvability
boundary ``2*ell = n + 3t + 1``, and resilience at the boundary under
the named attack suite (including the lock-split attack that the voting
superround exists to defuse -- see the ablation bench for the contrast).
"""

import pytest

from benchmarks.conftest import emit, run_once
from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.ablations import LockSplitAdversary
from repro.psync.dls_homonyms import ROUNDS_PER_PHASE, dls_factory, dls_horizon
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil
from repro.sim.runner import run_agreement


def run_dls(params, byz, adversary=None, gst=0):
    return run_agreement(
        params=params,
        assignment=balanced_assignment(params.n, params.ell),
        factory=dls_factory(params, BINARY),
        proposals={k: k % 2 for k in range(params.n) if k not in byz},
        byzantine=byz,
        adversary=adversary,
        timing=BasicPsync(SilenceUntil(gst)) if gst else None,
        max_rounds=dls_horizon(params, gst),
    )


GSTS = [0, 8, 16, 32]


@pytest.mark.parametrize("gst", GSTS, ids=[f"gst{g}" for g in GSTS])
def test_fig5_latency_vs_gst(benchmark, gst):
    """Decision latency tracks stabilisation time linearly."""
    params = SystemParams(
        n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )

    def body():
        return run_dls(params, byz=(6,), gst=gst)

    result = run_once(benchmark, body)
    last = result.verdict.last_decision_round
    benchmark.extra_info["decision_round"] = last
    assert result.verdict.ok
    assert last >= gst  # nothing decides during total silence
    # and within a few phases of stabilisation:
    assert last <= gst + (params.ell + 3) * ROUNDS_PER_PHASE


BOUNDARY_CASES = [
    # (n, ell, t): tightest solvable points 2*ell = n + 3t + 1.
    (4, 4, 1),
    (6, 5, 1),
    (8, 6, 1),
    (10, 7, 1),
    (9, 8, 2),
]


@pytest.mark.parametrize("n,ell,t", BOUNDARY_CASES,
                         ids=[f"n{n}-l{l}-t{t}" for n, l, t in BOUNDARY_CASES])
def test_fig5_at_the_solvability_boundary(benchmark, n, ell, t):
    """The algorithm survives at the exact edge of Theorem 13."""
    assert 2 * ell == n + 3 * t + 1
    params = SystemParams(
        n=n, ell=ell, t=t, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )
    byz = tuple(range(n - t, n))

    def body():
        return run_dls(params, byz=byz,
                       adversary=RandomByzantineAdversary(seed=7))

    result = run_once(benchmark, body)
    benchmark.extra_info["decision_round"] = result.verdict.last_decision_round
    assert result.verdict.ok


def test_fig5_lock_split_attack_defused(benchmark):
    """The voting superround neutralises a leader showing different lock
    values to different processes (Lemma 8)."""
    params = SystemParams(
        n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )

    def body():
        return run_dls(params, byz=(1,), adversary=LockSplitAdversary())

    result = run_once(benchmark, body)
    assert result.verdict.ok


def test_fig5_latency_series(benchmark):
    """The full latency table (GST x boundary) the figure bench prints."""

    def body():
        rows = []
        for gst in GSTS:
            params = SystemParams(
                n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
            )
            result = run_dls(params, byz=(6,), gst=gst)
            rows.append((gst, result.verdict.last_decision_round,
                         result.metrics.total_messages))
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 5 decision latency vs GST (n=7, ell=6, t=1)",
         [("gst", "last decision round", "messages")] + rows)
    # Latency is monotone in GST.
    latencies = [row[1] for row in rows]
    assert latencies == sorted(latencies)
