"""Tests for the one-shot reliable broadcast extension."""

import pytest

from repro.broadcast.reliable import (
    ReliableBroadcastProcess,
    reliable_broadcast_factory,
)
from repro.broadcast.runner import run_reliable_broadcast
from repro.core.errors import BoundViolation
from repro.core.identity import stacked_assignment
from repro.sim.adversary import Adversary
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil


def run_rbc(n, ell, t, sender_ident, values_by_slot, byz=(),
            adversary=None, timing=None, rounds=14,
            assignment=None, start_superround=0):
    run = run_reliable_broadcast(
        n, ell, t, sender_ident, values_by_slot, byzantine=byz,
        adversary=adversary, timing=timing, rounds=rounds,
        assignment=assignment, start_superround=start_superround,
    )
    return run.correct_processes, run.assignment


class TestConstruction:
    def test_bound_enforced(self):
        with pytest.raises(BoundViolation):
            ReliableBroadcastProcess(3, 1, 1, 1)

    def test_factory_only_arms_sender_identifier(self):
        factory = reliable_broadcast_factory(4, 1, sender_ident=2)
        sender = factory(2, "v")
        bystander = factory(3, "v")
        assert sender.proposal == "v"
        assert bystander.proposal is None


class TestValidity:
    def test_sole_correct_sender_delivers_everywhere(self):
        procs, _ = run_rbc(5, 4, 1, sender_ident=2, values_by_slot={1: "hi"})
        for p in procs:
            assert p.delivered == "hi"

    def test_correct_homonym_group_with_common_value(self):
        # Identifier 1 held by two processes, both broadcasting "x".
        assignment = stacked_assignment(5, 4)
        group = assignment.group(1)
        values = {k: "x" for k in group}
        procs, _ = run_rbc(5, 4, 1, sender_ident=1, values_by_slot=values,
                           assignment=assignment)
        for p in procs:
            assert p.delivered == "x"

    def test_divergent_correct_homonyms_deliver_deterministically(self):
        # Two correct holders of identifier 1 broadcast different values:
        # the model cannot tell them from one equivocator, but delivery
        # is still the deterministic minimum at every process that has
        # seen both by its delivery round (all of them, synchronously).
        assignment = stacked_assignment(5, 4)
        group = assignment.group(1)
        values = {group[0]: "b", group[1]: "a"}
        procs, _ = run_rbc(5, 4, 1, sender_ident=1, values_by_slot=values,
                           assignment=assignment)
        delivered = {p.delivered for p in procs}
        assert delivered == {"a"}  # repr-min of the pair


class TestIntegrity:
    def test_never_delivers_unsent_value_for_correct_identifier(self):
        class Forger(Adversary):
            """Byzantine (identifier 4) floods echoes for a phantom
            broadcast of the correct identifier 2."""

            def emissions(self, view):
                echo = (("echo", ("rbc-value", "fake"), 0, 2),)
                bundle = ("rbc", (), echo)
                return {
                    b: {q: (bundle,) for q in range(view.params.n)}
                    for b in view.byzantine
                }

        procs, _ = run_rbc(
            5, 4, 1, sender_ident=2, values_by_slot={1: "real"},
            byz=(4,), adversary=Forger(),
        )
        for p in procs:
            assert p.delivered == "real"

    def test_no_delivery_without_any_broadcast(self):
        procs, _ = run_rbc(5, 4, 1, sender_ident=2, values_by_slot={},
                           rounds=10)
        for p in procs:
            assert not p.decided


class TestTotality:
    def test_all_deliver_despite_pre_gst_chaos(self):
        # Broadcast after stabilisation: everyone must deliver.
        procs, _ = run_rbc(
            5, 4, 1, sender_ident=3, values_by_slot={2: 9},
            timing=BasicPsync(SilenceUntil(6)), rounds=20,
            start_superround=4,
        )
        for p in procs:
            assert p.delivered == 9

    def test_delivery_times_within_one_superround(self):
        procs, _ = run_rbc(5, 4, 1, sender_ident=2, values_by_slot={1: "v"})
        rounds = [p.decision_round for p in procs]
        assert max(rounds) - min(rounds) <= 2  # one superround
