"""Tests for the Proposition 6 authenticated broadcast primitive.

Unit tests drive the layer directly; property tests run it through the
kernel via :func:`repro.broadcast.runner.run_authenticated_broadcast`
and check Correctness, Unforgeability and Relay under drop schedules
and Byzantine echo forgery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.authenticated import (
    Accept,
    AuthenticatedBroadcast,
    parse_broadcast_items,
)
from repro.broadcast.runner import run_authenticated_broadcast
from repro.core.errors import BoundViolation
from repro.sim.adversary import Adversary
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil


class TestLayerUnit:
    def test_bound_enforced(self):
        with pytest.raises(BoundViolation):
            AuthenticatedBroadcast(3, 1, ident=1)

    def test_init_rides_first_round_of_superround(self):
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        ab.broadcast("m", superround=2)
        inits, _ = ab.outgoing(round_no=3)
        assert inits == ()  # not yet: superround 2 starts at round 4
        inits, _ = ab.outgoing(round_no=4)
        assert inits == (("init", "m", 2),)
        inits, _ = ab.outgoing(round_no=5)
        assert inits == ()  # consumed

    def test_init_outside_first_round_is_ignored(self):
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        ab.note_init(sender_id=2, message="m", superround=2, round_no=5)
        _, echoes = ab.outgoing(round_no=6)
        assert echoes == ()

    def test_receiving_init_starts_echoing_forever(self):
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        ab.note_init(sender_id=2, message="m", superround=0, round_no=0)
        for r in (1, 2, 7):
            _, echoes = ab.outgoing(round_no=r)
            assert ("echo", "m", 0, 2) in echoes

    def test_echo_quorum_triggers_accept_once(self):
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        # ell - t = 3 distinct identifiers echoing triggers Accept.
        ab.note_echo(2, "m", 0, 3, round_no=1)
        ab.note_echo(3, "m", 0, 3, round_no=1)
        assert ab.drain_accepts() == []
        ab.note_echo(4, "m", 0, 3, round_no=1)
        accepts = ab.drain_accepts()
        assert accepts == [Accept("m", 3, 0)]
        # Re-crossing the threshold does not re-accept.
        ab.note_echo(1, "m", 0, 3, round_no=2)
        assert ab.drain_accepts() == []
        assert ab.has_accepted("m", 3)
        assert ab.accepted_superround("m", 3) == 0

    def test_echo_relay_joining_threshold(self):
        # ell - 2t = 2 identifiers make the process join the echoers.
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        ab.note_echo(2, "m", 0, 3, round_no=1)
        _, echoes = ab.outgoing(round_no=2)
        assert echoes == ()
        ab.note_echo(4, "m", 0, 3, round_no=2)
        _, echoes = ab.outgoing(round_no=3)
        assert ("echo", "m", 0, 3) in echoes

    def test_parse_broadcast_items_drops_garbage(self):
        inits, echoes = parse_broadcast_items(
            [("init", "m", 4), ("echo", "m", 4, 2), ("init", "x"),
             ("echo", "m", "bad", 2), "noise", (), ("other", 1)]
        )
        assert inits == [("m", 4)]
        assert echoes == [("m", 4, 2)]


def run_hosts(n, ell, t, byz=(), adversary=None, timing=None,
              rounds=10, broadcast_sr=0, values=None):
    return run_authenticated_broadcast(
        n, ell, t, byzantine=byz, adversary=adversary,
        timing=timing, rounds=rounds,
        broadcast_superround=broadcast_sr, values=values,
    ).processes


class TestCorrectnessProperty:
    def test_broadcast_after_gst_accepted_same_superround(self):
        procs = run_hosts(4, 4, 1, rounds=2)
        for p in procs:
            accepted = {(a.message, a.ident) for a in p.accepts}
            assert {(("val", k), k + 1) for k in range(4)} <= accepted
            assert all(a.superround == 0 for a in p.accepts)

    def test_homonym_group_broadcast_accepted(self):
        # n=5, ell=4: identifier 1 has two holders broadcasting the
        # same value; everyone must accept it under identifier 1.
        procs = run_hosts(5, 4, 1, values={k: 7 for k in range(5)}, rounds=2)
        for p in procs:
            assert any(a.ident == 1 and a.message == ("val", 7)
                       for a in p.accepts)


class TestUnforgeabilityProperty:
    def test_never_broadcast_never_accepted(self):
        class EchoForger(Adversary):
            """Byzantine floods echoes for a phantom broadcast of
            identifier 1 (whose holders are all correct and silent)."""

            def emissions(self, view):
                echoes = tuple(
                    ("echo", ("val", "phantom"), 0, 1),
                )
                return {
                    b: {q: (("ab", (), echoes),)
                        for q in range(view.params.n)}
                    for b in view.byzantine
                }

        procs = run_hosts(4, 4, 1, byz=(3,), adversary=EchoForger(),
                          values={}, rounds=8)
        for p in procs:
            if p is None:
                continue
            assert not any(
                a.message == ("val", "phantom") and a.ident == 1
                for a in p.accepts
            )


class TestRelayProperty:
    def test_broadcast_after_stabilisation_is_accepted(self):
        # Chaos before round 4, broadcast in superround 3 (round 6,
        # safely past stabilisation): the Correctness property applies
        # and everyone accepts during superround 3.
        procs = run_hosts(
            4, 4, 1, timing=BasicPsync(SilenceUntil(4)),
            values={0: 9}, rounds=12, broadcast_sr=3,
        )
        for p in procs:
            mine = [a for a in p.accepts
                    if a.message == ("val", 9) and a.ident == 1]
            assert mine and mine[0].superround == 3

    def test_pre_gst_broadcast_with_lost_init_may_die(self):
        # The flip side: an init nobody (but the sender) received is
        # never accepted -- the primitive promises nothing about
        # broadcasts before stabilisation.
        procs = run_hosts(
            4, 4, 1, timing=BasicPsync(SilenceUntil(4)),
            values={0: 9}, rounds=12, broadcast_sr=0,
        )
        for p in procs:
            if p.identifier != 1:
                assert not any(a.message == ("val", 9) for a in p.accepts)

    def test_staggered_accept_relays_within_one_superround(self):
        """One process accepts in superround 0 (it alone hears the full
        echo quorum); everyone else must accept by superround
        max(0 + 1, T) = 1 -- the Relay property."""
        from repro.sim.partial import ExplicitDrops

        drops = {(0, 0, 3)}  # slot 3 misses the init
        # Round 1: all echoes reach slot 0 only (self-deliveries aside).
        for sender in (0, 1, 2):
            for recipient in (1, 2, 3):
                if sender != recipient:
                    drops.add((1, sender, recipient))
        procs = run_hosts(
            4, 4, 1, timing=BasicPsync(ExplicitDrops(drops)),
            values={0: 3}, rounds=6,
        )
        firsts = {}
        for p in procs:
            mine = [a.superround for a in p.accepts
                    if a.message == ("val", 3) and a.ident == 1]
            assert mine, "every correct process must accept eventually"
            firsts[p.identifier] = min(mine)
        assert firsts[1] == 0  # the early acceptor
        assert max(firsts.values()) <= 1  # relay bound


@given(gst=st.integers(0, 8), seed=st.integers(0, 20))
@settings(max_examples=20, deadline=None)
def test_correctness_under_random_pre_gst_drops(gst, seed):
    """Property: a broadcast performed after stabilisation is accepted by
    every correct process regardless of earlier chaos; and if anyone
    accepted an earlier broadcast, everyone does within a superround of
    stabilisation (relay)."""
    from repro.sim.partial import RandomDrops

    broadcast_sr = gst  # first round 2*gst >= gst: safely post-GST
    procs = run_hosts(
        4, 4, 1,
        timing=BasicPsync(RandomDrops(gst=gst, p=0.6, seed=seed)),
        values={1: 5}, rounds=2 * gst + 10, broadcast_sr=broadcast_sr,
    )
    for p in procs:
        mine = [a for a in p.accepts
                if a.message == ("val", 5) and a.ident == 2]
        assert mine
        assert min(a.superround for a in mine) == broadcast_sr
