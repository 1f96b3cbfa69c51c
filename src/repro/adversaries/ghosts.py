"""Ghost faces as standalone adversaries: restricted-visibility imposters.

The bounded strategy explorer's most productive face is the *ghost*
(:mod:`repro.explore.alphabet`): a Byzantine slot runs a private
**correct** instance of the algorithm under test with an adversarially
chosen input and an adversarially restricted view of the network, and
broadcasts whatever that instance would.  A ghost with full visibility
is the classic obedient imposter; a ghost that only hears one side of a
partition is the live core of the Figure 4 construction.

Inside the explorer, ghosts live in a :class:`~repro.explore.alphabet.
GhostBank` driven by the search loop.  The soak farm wants the same
faces as ordinary :class:`~repro.sim.adversary.Adversary` objects it
can mix into sustained traffic, so this module packages one
:class:`~repro.explore.alphabet.GhostPlan` as a
:class:`GhostFaceAdversary` -- the generic simulated-correct machinery
hearing through the plan's rule instead of the fabric's inbox.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.messages import Inbox
from repro.adversaries.generic import ImitationFactory, SimulatedCorrectAdversary

if TYPE_CHECKING:  # avoid adversaries <- explore <- harness import cycle
    from repro.explore.alphabet import GhostPlan


class GhostFaceAdversary(SimulatedCorrectAdversary):
    """One ghost plan per Byzantine slot, played as a full adversary.

    Every Byzantine slot runs a private correct instance proposing
    ``plan.proposal`` and hears what
    :meth:`~repro.explore.alphabet.GhostPlan.heard` gives it -- the rule
    a :class:`~repro.explore.alphabet.GhostBank` ghost is fed by.  The
    instance's current payload is broadcast to everybody, so emissions
    are restricted-model legal by construction.

    Args:
        factory: ``(identifier, proposal) -> Process`` builder for the
            imitated algorithm.
        plan: The ghost's input and visibility.  ``visible=None`` is
            the obedient imposter; a proper subset of the correct slots
            is a live partition face.
    """

    def __init__(self, factory: ImitationFactory, plan: "GhostPlan") -> None:
        super().__init__(factory)
        self.plan = plan

    def instance_plan(self, slot: int, ident: int) -> Sequence[Hashable]:
        return (self.plan.proposal,)

    def heard(self, view, slot: int) -> Inbox:
        record = view.trace.record(view.round_no - 1)
        # Its own broadcast last round is its emission to its own slot.
        own = record.emissions.get(slot, {}).get(slot, (None,))[0]
        return self.plan.heard(record.payloads, view.assignment.identifier_of,
                               slot, own, view.params.numerate)

    def describe(self) -> str:
        return self.plan.describe()
