"""Benchmark F7: the Figure 7 restricted-numerate algorithm.

Regenerates the paper's headline for Section 5: with restricted
Byzantine processes and numerate receivers, ``t + 1`` identifiers
suffice -- far below the ``> (n + 3t)/2`` of the unrestricted model.
The series shows decision latency at ``ell = t + 1`` across (n, t), and
the contrast run shows the same configuration collapsing once the
adversary regains the unrestricted multi-send power (flooding proper
sets through the same-round message-count rule), which is exactly why
Table 1's restricted column needs the restriction.
"""

import pytest

from benchmarks.conftest import emit, run_once
from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.restricted import (
    ROUNDS_PER_PHASE,
    restricted_factory,
    restricted_horizon,
)
from repro.sim.adversary import Adversary
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil
from repro.sim.runner import run_agreement


def make_params(n, ell, t, restricted=True):
    return SystemParams(
        n=n, ell=ell, t=t,
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=True, restricted=restricted,
    )


def run_fig7(params, byz, adversary=None, gst=0, proposals=None,
             unchecked=False):
    if proposals is None:
        proposals = {k: k % 2 for k in range(params.n) if k not in byz}
    return run_agreement(
        params=params,
        assignment=balanced_assignment(params.n, params.ell),
        factory=restricted_factory(params, BINARY, unchecked=unchecked),
        proposals=proposals,
        byzantine=byz,
        adversary=adversary,
        timing=BasicPsync(SilenceUntil(gst)) if gst else None,
        max_rounds=restricted_horizon(params, gst),
    )


MINIMAL_CASES = [
    # ell = t + 1 everywhere: the minimum the theorem allows.
    (4, 2, 1),
    (6, 2, 1),
    (7, 3, 2),
    (10, 3, 2),
    (13, 4, 3),
]


@pytest.mark.parametrize("n,ell,t", MINIMAL_CASES,
                         ids=[f"n{n}-l{l}-t{t}" for n, l, t in MINIMAL_CASES])
def test_fig7_minimal_identifiers(benchmark, n, ell, t):
    """Agreement with just t + 1 identifiers."""
    assert ell == t + 1
    params = make_params(n, ell, t)
    byz = tuple(range(n - t, n))

    def body():
        return run_fig7(params, byz,
                        adversary=RandomByzantineAdversary(seed=3))

    result = run_once(benchmark, body)
    benchmark.extra_info["decision_round"] = result.verdict.last_decision_round
    assert result.verdict.ok


def test_fig7_latency_vs_gst_series(benchmark):
    def body():
        rows = []
        for gst in (0, 8, 16, 32):
            params = make_params(4, 2, 1)
            result = run_fig7(params, byz=(3,), gst=gst)
            rows.append((gst, result.verdict.last_decision_round))
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 7 decision latency vs GST (n=4, ell=2, t=1)",
         [("gst", "last decision round")] + rows)
    latencies = [row[1] for row in rows]
    assert latencies == sorted(latencies)
    assert all(lat >= gst for gst, lat in rows)


class ProperFloodAdversary(Adversary):
    """What the restriction forbids: the Byzantine process sends t + 1
    copies of a bundle carrying a poisoned proper set in one round,
    flooding the same-round message-count rule and destroying validity.
    Only runnable with ``restricted=False`` -- which is the point."""

    def __init__(self, value):
        self.value = value

    def emissions(self, view):
        bundle = ("fig7", (), (), (self.value,))
        t = view.params.t
        return {
            b: {q: tuple([bundle] * (t + 1)) for q in range(view.params.n)}
            for b in view.byzantine
        }


def test_fig7_contrast_unrestricted_adversary_breaks_it(benchmark):
    """Lifting the restriction at ell = t + 1 re-enables the Theorem 13
    bound: a flooding adversary pollutes proper sets and breaks
    validity.  (2*ell = 4 <= n + 3t = 7, so this configuration is
    unsolvable for unrestricted Byzantine processes.)

    The flood needs a window: correct messages are silenced for the
    first phase (legal in the DLS model) while the Byzantine flood --
    immune to drop schedules, the adversary chooses its deliveries --
    plants value 0 in every proper set via the t+1-same-round-messages
    rule.  The first post-silence leader then locks the poisoned value.
    """
    params = make_params(4, 2, 1, restricted=False)

    def body():
        return run_fig7(
            params, byz=(3,),
            adversary=ProperFloodAdversary(value=0),
            proposals={k: 1 for k in range(3)},  # unanimous 1
            gst=8,
            unchecked=True,
        )

    result = run_once(benchmark, body)
    emit("Figure 7 contrast: unrestricted flood at ell=t+1",
         [("verdict", result.verdict.summary())])
    assert not result.verdict.ok
    assert result.verdict.violated("validity")


def test_fig7_identifier_savings_series(benchmark):
    """The headline table: identifiers needed, restricted vs
    unrestricted, as n grows (t = 1)."""
    from repro.analysis.bounds import restriction_gain

    def body():
        return [(n, *restriction_gain(n, 1)) for n in range(4, 13)]

    rows = run_once(benchmark, body)
    emit("Identifier requirement: unrestricted vs restricted (t=1)",
         [("n", "min ell unrestricted", "min ell restricted")] + rows)
    for _n, unrestricted, restricted in rows:
        assert restricted == 2  # t + 1
        assert unrestricted >= restricted
