"""Tests for the Figure 5 partially synchronous homonym algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import (
    CrashAdversary,
    DuplicatorAdversary,
    EquivocatorAdversary,
    InputFlipAdversary,
    RandomByzantineAdversary,
)
from repro.core.errors import BoundViolation
from repro.core.identity import balanced_assignment, random_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import (
    DLSHomonymProcess,
    check_dls_bound,
    dls_factory,
    dls_horizon,
    leader_of_phase,
)
from repro.sim.kernel import BasicPsync
from repro.sim.partial import RandomDrops, SilenceUntil
from repro.sim.runner import run_agreement


def make_params(n=7, ell=6, t=1):
    return SystemParams(
        n=n, ell=ell, t=t, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )


def run_dls(params, proposals, byz=(), adversary=None, timing=None,
            assignment=None, gst=0):
    if assignment is None:
        assignment = balanced_assignment(params.n, params.ell)
    return run_agreement(
        params=params,
        assignment=assignment,
        factory=dls_factory(params, BINARY),
        proposals=proposals,
        byzantine=byz,
        adversary=adversary,
        timing=timing,
        max_rounds=dls_horizon(params, gst),
    )


class TestConstruction:
    def test_bound_enforced(self):
        with pytest.raises(BoundViolation):
            check_dls_bound(9, 6, 1)  # 12 <= 12
        check_dls_bound(7, 6, 1)  # 12 > 10: fine

    def test_process_creation_checks_bound(self):
        bad = make_params(n=9, ell=6, t=1)
        with pytest.raises(BoundViolation):
            DLSHomonymProcess(bad, BINARY, 1, 0)
        DLSHomonymProcess(bad, BINARY, 1, 0, unchecked=True)

    def test_leader_rotation(self):
        assert leader_of_phase(0, 6) == 1
        assert leader_of_phase(5, 6) == 6
        assert leader_of_phase(6, 6) == 1

    def test_position_mapping(self):
        # Phase = 4 superrounds = 8 rounds.
        assert DLSHomonymProcess.position(0) == (0, 0, True)
        assert DLSHomonymProcess.position(1) == (0, 0, False)
        assert DLSHomonymProcess.position(6) == (0, 3, True)
        assert DLSHomonymProcess.position(8) == (1, 0, True)


class TestSynchronousRuns:
    """GST = 0: the partially synchronous algorithm in a kind network."""

    def test_unanimous_zero(self):
        params = make_params()
        r = run_dls(params, {k: 0 for k in range(7)})
        assert r.verdict.ok and r.verdict.agreed_value == 0

    def test_unanimous_one(self):
        params = make_params()
        r = run_dls(params, {k: 1 for k in range(7)})
        assert r.verdict.ok and r.verdict.agreed_value == 1

    def test_mixed_inputs_agree_on_something(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(7)})
        assert r.verdict.ok
        assert r.verdict.agreed_value in (0, 1)

    def test_classical_configuration(self):
        # ell = n: the algorithm must still work (it generalises DLS).
        params = make_params(n=5, ell=5, t=1)
        r = run_dls(params, {k: k % 2 for k in range(4)}, byz=(4,))
        assert r.verdict.ok


class TestPartialSynchrony:
    def test_total_silence_until_gst(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(6)}, byz=(6,),
                    timing=BasicPsync(SilenceUntil(24)), gst=24)
        assert r.verdict.ok

    def test_random_drops(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(6)}, byz=(6,),
                    timing=BasicPsync(RandomDrops(gst=20, p=0.5, seed=4)),
                    gst=20)
        assert r.verdict.ok

    def test_no_decision_before_messages_flow(self):
        params = make_params()
        r = run_dls(params, {k: 0 for k in range(7)},
                    timing=BasicPsync(SilenceUntil(24)), gst=24)
        assert r.verdict.ok
        # Nothing can be decided while every message is dropped:
        # deciding requires an ack quorum, which requires accepts.
        assert min(r.verdict.decision_rounds.values()) >= 24


class TestByzantineResilience:
    def test_silent_byzantine(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(6)}, byz=(6,))
        assert r.verdict.ok

    def test_byzantine_sharing_identifier_with_correct(self):
        # balanced_assignment(7, 6): identifier 1 is held by slots 0, 6.
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(6)}, byz=(6,),
                    adversary=RandomByzantineAdversary(seed=3))
        assert r.verdict.ok
        assert 0 in r.verdict.decisions  # the poisoned group's correct member

    def test_validity_under_flip(self):
        params = make_params()
        r = run_dls(params, {k: 1 for k in range(6)}, byz=(6,),
                    adversary=InputFlipAdversary(
                        dls_factory(params, BINARY), proposal=0))
        assert r.verdict.ok and r.verdict.agreed_value == 1

    def test_equivocating_byzantine_leader(self):
        # Corrupt slot 0 (identifier 1, leader of phase 0) and equivocate.
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(1, 7)}, byz=(0,),
                    adversary=EquivocatorAdversary(
                        dls_factory(params, BINARY)))
        assert r.verdict.ok

    def test_duplicating_byzantine(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(1, 7)}, byz=(0,),
                    adversary=DuplicatorAdversary(
                        dls_factory(params, BINARY)))
        assert r.verdict.ok

    def test_crash_byzantine(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(6)}, byz=(6,),
                    adversary=CrashAdversary(
                        dls_factory(params, BINARY), crash_round=10))
        assert r.verdict.ok

    def test_byzantine_with_drops_combined(self):
        params = make_params()
        r = run_dls(params, {k: k % 2 for k in range(6)}, byz=(6,),
                    adversary=RandomByzantineAdversary(seed=8),
                    timing=BasicPsync(RandomDrops(gst=16, p=0.4, seed=2)),
                    gst=16)
        assert r.verdict.ok

    def test_two_byzantine_eleven_processes(self):
        params = make_params(n=11, ell=9, t=2)  # 18 > 11 + 6
        r = run_dls(params, {k: k % 2 for k in range(9)}, byz=(9, 10),
                    adversary=RandomByzantineAdversary(seed=13))
        assert r.verdict.ok


class TestBoundaryConfigurations:
    def test_exact_boundary_2ell_equals_n_3t_plus_1(self):
        # Smallest margin: 2*ell = n + 3t + 1.
        params = make_params(n=8, ell=6, t=1)  # 12 = 8 + 3 + 1
        r = run_dls(params, {k: k % 2 for k in range(7)}, byz=(7,),
                    adversary=RandomByzantineAdversary(seed=1))
        assert r.verdict.ok

    def test_paper_example_t1_ell4_n4_solvable(self):
        # The paper's curiosity: t=1, ell=4 works at n=4...
        params = make_params(n=4, ell=4, t=1)
        r = run_dls(params, {k: k % 2 for k in range(3)}, byz=(3,),
                    adversary=RandomByzantineAdversary(seed=6))
        assert r.verdict.ok


@given(seed=st.integers(0, 25), gst=st.sampled_from([0, 8, 16]),
       byz_slot=st.integers(0, 6))
@settings(max_examples=12, deadline=None)
def test_dls_fuzz(seed, gst, byz_slot):
    """Property: n=7, ell=6, t=1 survives chaos + drops, any Byzantine slot."""
    params = make_params()
    proposals = {k: (k + seed) % 2 for k in range(7) if k != byz_slot}
    r = run_dls(
        params, proposals, byz=(byz_slot,),
        adversary=RandomByzantineAdversary(seed=seed),
        timing=(
            BasicPsync(RandomDrops(gst=gst, p=0.5, seed=seed)) if gst else None
        ),
        gst=gst,
    )
    assert r.verdict.ok
