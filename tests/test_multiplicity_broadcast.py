"""Tests for the Figure 6 multiplicity authenticated broadcast.

Checks the four specification properties -- Correctness (alpha' >= alpha
after stabilisation), Unforgeability (alpha' <= alpha + f_i), Relay and
Unicity -- at the unit level and through engine-driven executions with
restricted Byzantine processes inflating counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.multiplicity import (
    ECHO_TAG,
    INIT_TAG,
    MultiplicityAccept,
    MultiplicityBroadcast,
)
from repro.broadcast.runner import run_multiplicity_broadcast
from repro.core.errors import BoundViolation
from repro.core.identity import stacked_assignment
from repro.sim.adversary import Adversary
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil


class TestLayerUnit:
    def test_bound_enforced(self):
        with pytest.raises(BoundViolation):
            MultiplicityBroadcast(3, 1, ident=1)

    def test_init_emitted_in_first_round_of_superround(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        mb.broadcast("m", superround=1)
        assert mb.outgoing(0) == ()
        assert (INIT_TAG, "m", 1) in mb.outgoing(2)
        assert mb.outgoing(3) == ()  # consumed

    def test_init_counting_with_multiplicity(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        # Two homonyms of identifier 2 init "m" at superround 0.
        mb.note_message(2, [(INIT_TAG, "m", 0)], round_no=0)
        mb.note_message(2, [(INIT_TAG, "m", 0)], round_no=0)
        mb.end_round(0)
        assert mb.counter(2, "m", 0) == 2

    def test_invalid_message_discarded_wholesale(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        # Duplicate init for the same m invalidates the whole message.
        mb.note_message(
            2, [(INIT_TAG, "m", 0), (INIT_TAG, "m", 0)], round_no=0
        )
        mb.end_round(0)
        assert mb.counter(2, "m", 0) == 0

    def test_init_for_wrong_round_invalidates(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        mb.note_message(2, [(INIT_TAG, "m", 1)], round_no=0)  # 2r != 0
        mb.end_round(0)
        assert mb.counter(2, "m", 1) == 0

    def test_duplicate_echo_key_invalidates(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        mb.note_message(
            2,
            [(ECHO_TAG, 1, 1, "m", 0), (ECHO_TAG, 1, 2, "m", 0)],
            round_no=3,
        )
        accepts = mb.end_round(3)
        assert accepts == [] and mb.counter(1, "m", 0) == 0

    def test_echo_threshold_raises_counter(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        # n - 2t = 2 messages echoing alpha >= 3 raise a[..] to 3.
        mb.note_message(2, [(ECHO_TAG, 1, 3, "m", 0)], round_no=2)
        mb.note_message(3, [(ECHO_TAG, 1, 4, "m", 0)], round_no=2)
        mb.end_round(2)
        assert mb.counter(1, "m", 0) == 3

    def test_accept_only_in_odd_rounds_with_n_minus_t_support(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        items = [(ECHO_TAG, 1, 2, "m", 0)]
        for sender in (1, 2, 3):
            mb.note_message(sender, items, round_no=2)
        assert mb.end_round(2) == []  # even round: no accept
        for sender in (1, 2, 3):
            mb.note_message(sender, items, round_no=3)
        accepts = mb.end_round(3)
        assert accepts == [
            MultiplicityAccept(ident=1, multiplicity=2, message="m",
                               superround=0, accepted_superround=1)
        ]

    def test_unicity_one_accept_per_superround(self):
        mb = MultiplicityBroadcast(4, 1, ident=1)
        items = [(ECHO_TAG, 1, 2, "m", 0)]
        for sender in (1, 2, 3):
            mb.note_message(sender, items, round_no=3)
        first = mb.end_round(3)
        assert len(first) == 1
        # Within one superround the tally was consumed; a later round's
        # fresh tally may accept again (next superround), per the spec.
        for sender in (1, 2, 3):
            mb.note_message(sender, items, round_no=5)
        second = mb.end_round(5)
        assert len(second) == 1
        assert second[0].accepted_superround == 2


def run_multiplicity(n, ell, t, broadcaster_ident, byz=(), adversary=None,
                     timing=None, rounds=8, assignment=None):
    run = run_multiplicity_broadcast(
        n, ell, t, broadcaster_ident, byzantine=byz, adversary=adversary,
        timing=timing, rounds=rounds, assignment=assignment,
    )
    return run.correct_processes, run.assignment


class TestCorrectnessProperty:
    def test_multiplicity_at_least_broadcaster_count(self):
        # Identifier 1 held by 3 correct processes, all broadcasting.
        procs, assignment = run_multiplicity(6, 4, 1, broadcaster_ident=1)
        alpha = len(assignment.group(1))
        for p in procs:
            mine = [a for a in p.accepts if a.ident == 1 and a.message == "m"]
            assert mine and mine[0].multiplicity >= alpha
            assert mine[0].accepted_superround == 0


class TestUnforgeabilityProperty:
    def test_byzantine_homonym_inflates_by_at_most_f_i(self):
        class CountInflator(Adversary):
            """Byzantine holder of identifier 1 echoes a huge alpha."""

            def emissions(self, view):
                items = ((INIT_TAG, "m", 0),) if view.round_no == 0 else ()
                echo = ((ECHO_TAG, 1, 99, "m", 0),)
                payload = ("mb", items + echo)
                return {
                    b: {q: (payload,) for q in range(view.params.n)}
                    for b in view.byzantine
                }

        # Identifier 1: 2 correct broadcasters + 1 Byzantine (f_1 = 1).
        assignment = stacked_assignment(6, 4)  # id1 x3, ids 2-4 x1
        byz = (assignment.group(1)[2],)
        procs, _ = run_multiplicity(
            6, 4, 1, broadcaster_ident=1, byz=byz,
            adversary=CountInflator(), assignment=assignment,
        )
        alpha_correct = 2
        f_1 = 1
        for p in procs:
            for a in p.accepts:
                if a.ident == 1 and a.message == "m":
                    assert a.multiplicity <= alpha_correct + f_1

    def test_phantom_broadcast_never_accepted(self):
        class PhantomEcho(Adversary):
            def emissions(self, view):
                payload = ("mb", ((ECHO_TAG, 2, 1, "phantom", 0),))
                return {
                    b: {q: (payload,) for q in range(view.params.n)}
                    for b in view.byzantine
                }

        assignment = stacked_assignment(6, 4)
        byz = (assignment.group(1)[0],)
        procs, _ = run_multiplicity(
            6, 4, 1, broadcaster_ident=3, byz=byz,
            adversary=PhantomEcho(), assignment=assignment, rounds=10,
        )
        for p in procs:
            assert not any(a.message == "phantom" for a in p.accepts)


class TestRelayProperty:
    def test_accepts_recur_and_spread_after_gst(self):
        procs, assignment = run_multiplicity(
            6, 4, 1, broadcaster_ident=1,
            timing=BasicPsync(SilenceUntil(0)),  # fully synchronous
            rounds=10,
        )
        # Every correct process re-accepts each superround (echoes
        # persist), so the relay invariant holds trivially here; check
        # multiplicities never decrease below the correct count.
        alpha = len(assignment.group(1))
        for p in procs:
            mults = [a.multiplicity for a in p.accepts
                     if a.ident == 1 and a.message == "m"]
            assert mults and all(m >= alpha for m in mults)


@given(gst=st.integers(0, 6), seed=st.integers(0, 12))
@settings(max_examples=15, deadline=None)
def test_post_gst_broadcast_accepted_with_full_multiplicity(gst, seed):
    """Property: all-correct system, chaotic drops before gst; a
    broadcast in the first superround at/after stabilisation is accepted
    with multiplicity >= the number of broadcasters."""
    from repro.sim.partial import RandomDrops

    n, ell, t = 5, 3, 1
    start_sr = (gst + 1) // 2 + 1
    run = run_multiplicity_broadcast(
        n, ell, t, broadcaster_ident=1,
        timing=BasicPsync(RandomDrops(gst=gst, p=0.5, seed=seed)),
        rounds=2 * start_sr + 6, broadcast_superround=start_sr,
    )
    alpha = len(run.assignment.group(1))
    for p in run.correct_processes:
        mine = [a for a in p.accepts if a.ident == 1 and a.message == "m"]
        assert mine and max(a.multiplicity for a in mine) >= alpha
