"""Reliable broadcast with homonyms: a one-shot primitive (extension).

The paper's concluding remarks note that agreement is only the first
problem worth studying in the homonym model.  Reliable broadcast is the
natural second: a designated *identifier* (not process!) disseminates a
value such that

* **validity** -- if every holder of the sender identifier is correct
  and they all broadcast ``v`` in the starting superround, every correct
  process delivers ``v``;
* **integrity / source authentication** -- a correct process delivers at
  most one value per sender identifier, and only a value some holder of
  that identifier actually sent -- unless the identifier harbours a
  Byzantine process or *several correct homonyms with different values*
  (who are indistinguishable from one Byzantine process: the model's
  fundamental ambiguity, priced in exactly as the paper prices it for
  agreement);
* **totality (relay)** -- if any correct process delivers ``(v, i)``,
  every correct process delivers some value for ``i`` within a
  superround of stabilisation.

The implementation is a thin one-shot protocol over the Proposition 6
echo layer (hence it inherits ``ell > 3t``): holders of the sender
identifier ``Broadcast`` their value; every process delivers the
*smallest* accepted value of that identifier after waiting one full
superround past its first acceptance.

**Scope note (what is deliberately NOT claimed).**  When the sender
identifier harbours a Byzantine process, classic reliable broadcast
additionally promises *consistency*: all correct processes deliver the
same value.  A staggered-acceptance adversary can defeat the simple
min-rule here, and upgrading it Bracha-style (a ready phase with
``ell - t`` identifier quorums) runs into the very homonym ambiguity
the paper studies -- correct homonyms of the sender may legitimately
ready different values, so the quorum-intersection argument (Lemma 7)
no longer closes the case under ``ell > 3t`` alone.  Characterising
reliable-broadcast consistency with homonyms is exactly the kind of
follow-up the paper's concluding remarks invite; this module ships the
properties that do hold and records the gap in its test-suite.
"""

from __future__ import annotations

from typing import Hashable

from repro.broadcast.authenticated import (
    AuthenticatedBroadcast,
    parse_broadcast_items,
)
from repro.core.errors import BoundViolation
from repro.core.messages import Inbox
from repro.sim.process import Process

BUNDLE_TAG = "rbc"


class ReliableBroadcastProcess(Process):
    """One process of the one-shot homonym reliable broadcast.

    ``sender_ident`` names the broadcasting identifier; processes
    holding it with a non-``None`` ``proposal`` broadcast that value in
    superround ``start_superround``.  Delivery is recorded via the
    inherited decision plumbing (``decision`` = delivered value), so all
    the runner/verdict machinery applies.
    """

    def __init__(
        self,
        ell: int,
        t: int,
        identifier: int,
        sender_ident: int,
        proposal: Hashable = None,
        start_superround: int = 0,
        unchecked: bool = False,
    ) -> None:
        super().__init__(identifier, proposal)
        if ell <= 3 * t and not unchecked:
            raise BoundViolation(
                f"reliable broadcast requires ell > 3t, got ell={ell}, t={t}"
            )
        self.ell = int(ell)
        self.t = int(t)
        self.sender_ident = int(sender_ident)
        self.start_superround = int(start_superround)
        self.ab = AuthenticatedBroadcast(ell, t, identifier, unchecked=unchecked)
        #: Values of the sender identifier accepted so far, with the
        #: superround each acceptance happened in.
        self._accepted_values: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # Round interface
    # ------------------------------------------------------------------
    def compose(self, round_no: int) -> Hashable:
        if (
            self.identifier == self.sender_ident
            and self.proposal is not None
            and round_no == 2 * self.start_superround
        ):
            self.ab.broadcast(("rbc-value", self.proposal),
                              self.start_superround)
        inits, echoes = self.ab.outgoing(round_no)
        return (BUNDLE_TAG, inits, echoes)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for m in inbox:
            payload = m.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == BUNDLE_TAG
            ):
                continue
            inits, echoes = parse_broadcast_items(payload[1] + payload[2])
            for mm, r in inits:
                self.ab.note_init(m.sender_id, mm, r, round_no)
            for mm, r, i in echoes:
                self.ab.note_echo(m.sender_id, mm, r, i, round_no)

        superround = round_no // 2
        for accept in self.ab.drain_accepts():
            msg = accept.message
            if accept.ident != self.sender_ident:
                continue
            if not (isinstance(msg, tuple) and len(msg) == 2
                    and msg[0] == "rbc-value"):
                continue
            self._accepted_values.setdefault(msg[1], accept.superround)

        # Deliver at the end of a superround, one full superround after
        # the first acceptance: by then, every value accepted "at the
        # same time" elsewhere has relayed here (Relay property), so the
        # deterministic minimum is common.
        if self.decided or not self._accepted_values:
            return
        if round_no % 2 == 1:
            first = min(self._accepted_values.values())
            if superround >= first + 1:
                value = min(self._accepted_values, key=repr)
                self.record_decision(value, round_no)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def delivered(self) -> Hashable:
        """The delivered value (``None`` until delivery)."""
        return self.decision


def reliable_broadcast_factory(
    ell: int,
    t: int,
    sender_ident: int,
    start_superround: int = 0,
    unchecked: bool = False,
):
    """Process factory: holders of ``sender_ident`` broadcast their
    proposal, everyone else only participates in the echo fabric."""

    def factory(identifier: int, proposal: Hashable) -> ReliableBroadcastProcess:
        return ReliableBroadcastProcess(
            ell, t, identifier, sender_ident,
            proposal=proposal if identifier == sender_ident else None,
            start_superround=start_superround,
            unchecked=unchecked,
        )

    return factory
