"""Tests for the Figure 7 restricted-numerate algorithm (ell > t)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import (
    CrashAdversary,
    EquivocatorAdversary,
    InputFlipAdversary,
    RandomByzantineAdversary,
)
from repro.core.errors import BoundViolation
from repro.core.identity import balanced_assignment, stacked_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.restricted import (
    RestrictedNumerateProcess,
    check_restricted_bound,
    restricted_factory,
    restricted_horizon,
)
from repro.sim.kernel import BasicPsync
from repro.sim.partial import RandomDrops, SilenceUntil
from repro.sim.runner import run_agreement


def make_params(n=4, ell=2, t=1):
    return SystemParams(
        n=n, ell=ell, t=t,
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=True, restricted=True,
    )


def run_fig7(params, proposals, byz=(), adversary=None, timing=None,
             assignment=None, gst=0):
    if assignment is None:
        assignment = balanced_assignment(params.n, params.ell)
    return run_agreement(
        params=params,
        assignment=assignment,
        factory=restricted_factory(params, BINARY),
        proposals=proposals,
        byzantine=byz,
        adversary=adversary,
        timing=timing,
        max_rounds=restricted_horizon(params, gst),
    )


class TestConstruction:
    def test_bound_checks(self):
        with pytest.raises(BoundViolation):
            check_restricted_bound(3, 2, 1)  # n <= 3t
        with pytest.raises(BoundViolation):
            check_restricted_bound(4, 1, 1)  # ell <= t
        check_restricted_bound(4, 2, 1)

    def test_requires_numerate_and_restricted_flags(self):
        sloppy = SystemParams(
            n=4, ell=2, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
            numerate=False, restricted=True,
        )
        with pytest.raises(BoundViolation):
            RestrictedNumerateProcess(sloppy, BINARY, 1, 0)
        unrestricted = SystemParams(
            n=4, ell=2, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
            numerate=True, restricted=False,
        )
        with pytest.raises(BoundViolation):
            RestrictedNumerateProcess(unrestricted, BINARY, 1, 0)

    def test_unchecked_escape_hatch(self):
        bad = SystemParams(
            n=4, ell=1, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
            numerate=True, restricted=True,
        )
        proc = RestrictedNumerateProcess(bad, BINARY, 1, 0, unchecked=True)
        assert proc.identifier == 1


class TestFarBelowClassicBound:
    """ell = t + 1 identifiers: far fewer than the 3t + 1 of Theorem 3."""

    def test_two_identifiers_one_fault(self):
        params = make_params(n=4, ell=2, t=1)
        r = run_fig7(params, {k: k % 2 for k in range(3)}, byz=(3,))
        assert r.verdict.ok

    def test_three_identifiers_two_faults(self):
        params = make_params(n=7, ell=3, t=2)
        r = run_fig7(params, {k: k % 2 for k in range(5)}, byz=(5, 6),
                     adversary=RandomByzantineAdversary(seed=2))
        assert r.verdict.ok

    def test_unanimity_validity(self):
        params = make_params()
        r = run_fig7(params, {k: 1 for k in range(3)}, byz=(3,),
                     adversary=InputFlipAdversary(
                         restricted_factory(params, BINARY), proposal=0))
        assert r.verdict.ok and r.verdict.agreed_value == 1

    def test_stacked_assignment(self):
        params = make_params(n=6, ell=2, t=1)
        r = run_fig7(params, {k: k % 2 for k in range(5)}, byz=(5,),
                     assignment=stacked_assignment(6, 2))
        assert r.verdict.ok


class TestPartialSynchrony:
    def test_silence_until_gst(self):
        params = make_params()
        r = run_fig7(params, {k: k % 2 for k in range(3)}, byz=(3,),
                     timing=BasicPsync(SilenceUntil(16)), gst=16)
        assert r.verdict.ok

    def test_random_drops(self):
        params = make_params()
        r = run_fig7(params, {k: k % 2 for k in range(3)}, byz=(3,),
                     timing=BasicPsync(RandomDrops(gst=12, p=0.5, seed=7)),
                     gst=12)
        assert r.verdict.ok


class TestByzantineResilience:
    def test_equivocating_byzantine(self):
        params = make_params()
        r = run_fig7(params, {k: k % 2 for k in range(1, 4)}, byz=(0,),
                     adversary=EquivocatorAdversary(
                         restricted_factory(params, BINARY)))
        assert r.verdict.ok

    def test_crashing_byzantine(self):
        params = make_params()
        r = run_fig7(params, {k: k % 2 for k in range(3)}, byz=(3,),
                     adversary=CrashAdversary(
                         restricted_factory(params, BINARY), crash_round=6))
        assert r.verdict.ok

    def test_byzantine_sharing_leader_identifier(self):
        # Slot 0 holds identifier 1 (leader of even phases); corrupt it.
        params = make_params()
        r = run_fig7(params, {k: k % 2 for k in range(1, 4)}, byz=(0,),
                     adversary=RandomByzantineAdversary(seed=5))
        assert r.verdict.ok

    def test_combined_drops_and_chaos(self):
        params = make_params(n=5, ell=2, t=1)
        r = run_fig7(params, {k: k % 2 for k in range(4)}, byz=(4,),
                     adversary=RandomByzantineAdversary(seed=11),
                     timing=BasicPsync(RandomDrops(gst=10, p=0.4, seed=3)),
                     gst=10)
        assert r.verdict.ok


class TestSynchronousCorollary:
    """Theorem 14: the same algorithm solves the synchronous case."""

    def test_synchronous_model_flag(self):
        params = SystemParams(
            n=4, ell=2, t=1, synchrony=Synchrony.SYNCHRONOUS,
            numerate=True, restricted=True,
        )
        r = run_fig7(params, {k: k % 2 for k in range(3)}, byz=(3,))
        assert r.verdict.ok


@given(seed=st.integers(0, 20), byz_slot=st.integers(0, 3),
       gst=st.sampled_from([0, 8]))
@settings(max_examples=15, deadline=None)
def test_fig7_fuzz(seed, byz_slot, gst):
    """Property: n=4, ell=2, t=1 (minimal interesting case) survives
    seeded chaos with any Byzantine slot and drop schedule."""
    params = make_params()
    proposals = {k: (k + seed) % 2 for k in range(4) if k != byz_slot}
    r = run_fig7(
        params, proposals, byz=(byz_slot,),
        adversary=RandomByzantineAdversary(seed=seed),
        timing=(
            BasicPsync(RandomDrops(gst=gst, p=0.5, seed=seed)) if gst else None
        ),
        gst=gst,
    )
    assert r.verdict.ok
