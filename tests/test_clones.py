"""Tests for the Theorem 19 clone machinery."""

import pytest

from repro.adversaries.clones import CloneFairAdversary, run_clone_experiment
from repro.adversaries.generic import InputFlipAdversary, RandomByzantineAdversary
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.homonyms.transform import transform_factory, transform_horizon
from repro.classic.eig import EIGSpec
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.sim.adversary import NullAdversary
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil


class TestCloneProperty:
    """Same identifier + same input + clone-fair adversary => identical
    payload streams: the premise of the Theorem 19 reduction."""

    def test_transform_clones_stay_identical(self):
        spec = EIGSpec(4, 1, BINARY)
        params = SystemParams(n=7, ell=4, t=1)
        report = run_clone_experiment(
            params,
            transform_factory(spec),
            NullAdversary(),
            proposals_by_ident={1: 0, 2: 1, 3: 0, 4: 1},
            byzantine=(6,),  # a singleton identifier's holder
            max_rounds=transform_horizon(spec),
        )
        assert report.clones_identical, report.summary()
        assert report.result.verdict.ok

    def test_dls_clones_stay_identical(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        report = run_clone_experiment(
            params,
            dls_factory(params, BINARY),
            NullAdversary(),
            proposals_by_ident={i: i % 2 for i in range(1, 7)},
            max_rounds=dls_horizon(params, 0),
        )
        assert report.clones_identical

    def test_clones_with_fair_byzantine(self):
        spec = EIGSpec(4, 1, BINARY)
        params = SystemParams(n=7, ell=4, t=1)
        report = run_clone_experiment(
            params,
            transform_factory(spec),
            InputFlipAdversary(transform_factory(spec), proposal=1),
            proposals_by_ident={1: 0, 2: 0, 3: 0, 4: 0},
            byzantine=(6,),
            max_rounds=transform_horizon(spec),
        )
        assert report.clones_identical
        assert report.result.verdict.agreed_value == 0  # validity intact

    def test_clones_under_clone_fair_chaos(self):
        spec = EIGSpec(4, 1, BINARY)
        params = SystemParams(n=8, ell=4, t=1)
        report = run_clone_experiment(
            params,
            transform_factory(spec),
            RandomByzantineAdversary(seed=4),
            proposals_by_ident={1: 1, 2: 0, 3: 1, 4: 0},
            byzantine=(7,),
            max_rounds=transform_horizon(spec),
        )
        assert report.clones_identical

    def test_clones_with_group_symmetric_drops(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        report = run_clone_experiment(
            params,
            dls_factory(params, BINARY),
            NullAdversary(),
            proposals_by_ident={i: i % 2 for i in range(1, 7)},
            timing=BasicPsync(SilenceUntil(16)),
            max_rounds=dls_horizon(params, 16),
        )
        assert report.clones_identical
        assert report.result.verdict.ok


class TestCloneFairWrapper:
    def test_wrapper_replicates_leader_messages_to_group(self):
        """Whatever the inner adversary sends to a group's first member
        is what every member receives."""
        from repro.core.identity import stacked_assignment
        from repro.sim.adversary import Adversary

        class Asymmetric(Adversary):
            def emissions(self, view):
                # Tries to send to only one member of each group.
                return {b: {0: ("x",)} for b in view.byzantine}

        params = SystemParams(n=5, ell=3, t=1)
        assignment = stacked_assignment(5, 3)  # id1: slots 0,1,2
        wrapped = CloneFairAdversary(Asymmetric())
        wrapped.setup(params, assignment, (4,), {})

        class FakeView:
            def __init__(self):
                self.byzantine = (4,)
                self.params = params
                self.assignment = assignment
                self.round_no = 0

        emissions = wrapped.emissions(FakeView())
        batch = emissions[4]
        # All three members of identifier 1's group got the message.
        assert batch[0] == batch[1] == batch[2] == ("x",)
