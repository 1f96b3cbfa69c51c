"""Cross-cutting property tests: the solvability boundary, end to end.

These are the highest-level invariants of the reproduction: everywhere
the paper says "solvable", our algorithms survive seeded chaos;
everywhere it says "unsolvable", the constructions break them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import RandomByzantineAdversary
from repro.analysis.bounds import solvable
from repro.classic.eig import EIGSpec
from repro.core.identity import random_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY, AgreementProblem
from repro.experiments.harness import algorithm_for
from repro.homonyms.transform import transform_factory, transform_horizon
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.psync.restricted import restricted_factory, restricted_horizon
from repro.sim.kernel import BasicPsync
from repro.sim.partial import RandomDrops
from repro.sim.runner import run_agreement


# A hand-picked frontier of solvable configurations, one per model family,
# spanning homonym patterns.
SOLVABLE_FRONTIER = [
    # (params, gst) -- gst 0 means synchronous scheduling.
    (SystemParams(n=4, ell=4, t=1), 0),
    (SystemParams(n=6, ell=4, t=1), 0),
    (SystemParams(n=8, ell=4, t=1), 0),  # heavy homonyms, sync
    (SystemParams(n=7, ell=6, t=1,
                  synchrony=Synchrony.PARTIALLY_SYNCHRONOUS), 8),
    (SystemParams(n=8, ell=6, t=1,
                  synchrony=Synchrony.PARTIALLY_SYNCHRONOUS), 8),  # boundary
    (SystemParams(n=4, ell=2, t=1,
                  synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
                  numerate=True, restricted=True), 8),
    (SystemParams(n=7, ell=3, t=2,
                  synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
                  numerate=True, restricted=True), 8),
]


@pytest.mark.parametrize("params,gst", SOLVABLE_FRONTIER)
def test_frontier_configurations_are_predicted_solvable(params, gst):
    assert solvable(params)


@given(seed=st.integers(0, 15), which=st.integers(0, len(SOLVABLE_FRONTIER) - 1))
@settings(max_examples=25, deadline=None)
def test_solvable_frontier_survives_chaos(seed, which):
    """Property: every frontier configuration survives a seeded chaos
    adversary on a random assignment with random inputs."""
    params, gst = SOLVABLE_FRONTIER[which]
    _, factory, horizon = algorithm_for(params)
    assignment = random_assignment(params.n, params.ell, seed)
    byz = (seed % params.n,)
    if params.t == 2:
        byz = (seed % params.n, (seed + 3) % params.n)
        if len(set(byz)) == 1:
            byz = (byz[0],)
    proposals = {
        k: (k * 31 + seed) % 2 for k in range(params.n) if k not in byz
    }
    timing = (
        BasicPsync(RandomDrops(gst=gst, p=0.5, seed=seed)) if gst else None
    )
    result = run_agreement(
        params=params,
        assignment=assignment,
        factory=factory,
        proposals=proposals,
        byzantine=byz,
        adversary=RandomByzantineAdversary(seed=seed),
        timing=timing,
        max_rounds=horizon,
    )
    assert result.verdict.ok, result.verdict.summary()


class TestCrossAlgorithmConsistency:
    """The three algorithm families must agree with each other where
    their domains overlap."""

    def test_sync_and_psync_agree_on_classical_config(self):
        # n = ell = 4, t = 1: both T(EIG) and Figure 5 apply.
        proposals = {k: k % 2 for k in range(3)}

        sync_params = SystemParams(n=4, ell=4, t=1)
        spec = EIGSpec(4, 1, BINARY)
        r1 = run_agreement(
            params=sync_params,
            assignment=random_assignment(4, 4, 0),
            factory=transform_factory(spec),
            proposals=proposals,
            byzantine=(3,),
            max_rounds=transform_horizon(spec),
        )
        psync_params = SystemParams(
            n=4, ell=4, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        r2 = run_agreement(
            params=psync_params,
            assignment=random_assignment(4, 4, 0),
            factory=dls_factory(psync_params, BINARY),
            proposals=proposals,
            byzantine=(3,),
            max_rounds=dls_horizon(psync_params, 0),
        )
        assert r1.verdict.ok and r2.verdict.ok

    def test_fig7_works_wherever_fig5_does_with_flags(self):
        # Restricted + numerate at a Figure 5-solvable point.
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
            numerate=True, restricted=True,
        )
        r = run_agreement(
            params=params,
            assignment=random_assignment(7, 6, 1),
            factory=restricted_factory(params, BINARY),
            proposals={k: k % 2 for k in range(6)},
            byzantine=(6,),
            max_rounds=restricted_horizon(params, 0),
        )
        assert r.verdict.ok


class TestLargerDomains:
    """Binary agreement is the paper's focus but nothing restricts the
    domain; exercise 3- and 4-value agreement."""

    def test_transform_with_four_values(self):
        problem = AgreementProblem((0, 1, 2, 3))
        spec = EIGSpec(4, 1, problem)
        params = SystemParams(n=6, ell=4, t=1)
        r = run_agreement(
            params=params,
            assignment=random_assignment(6, 4, 2),
            factory=transform_factory(spec),
            proposals={k: k % 4 for k in range(5)},
            byzantine=(5,),
            max_rounds=transform_horizon(spec),
        )
        assert r.verdict.ok

    def test_dls_with_three_values_unanimity(self):
        problem = AgreementProblem(("x", "y", "z"))
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        r = run_agreement(
            params=params,
            assignment=random_assignment(7, 6, 3),
            factory=dls_factory(params, problem),
            proposals={k: "y" for k in range(6)},
            byzantine=(6,),
            max_rounds=dls_horizon(params, 0),
        )
        assert r.verdict.ok and r.verdict.agreed_value == "y"
