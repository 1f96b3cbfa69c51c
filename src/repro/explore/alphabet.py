"""The per-round emission alphabet of the bounded strategy explorer.

The paper's theorems quantify over *every* Byzantine strategy.  A
machine cannot branch over "every hashable payload", but it does not
need to: the adversary behaviours that realise the paper's lower bounds
are built from three kinds of *faces*,

* **silence** -- the slot sends nothing (subsumes crashes and drops);
* **mimicry** -- the slot re-sends, under its own authenticated
  identifier, the payload some correct process broadcast this round
  (rushing replay, legal because the adversary sees current payloads);
* **ghosts** -- the slot runs a private *correct* instance of the
  algorithm under test with an adversarially chosen input and an
  adversarially restricted view of the network, and sends whatever that
  instance would broadcast.  A ghost with full visibility is the
  classic obedient imposter; a ghost that only hears one side of a
  partition is exactly the replayed "core" of the Figure 4
  construction, re-derived live instead of from a recorded trace.

Every face is a :func:`~repro.sim.adversary.normalize_emissions`-legal
payload by construction (one message per recipient, hashable content),
so the branching the explorer does -- assigning one face per Byzantine
slot per receiver (or per partition block) per round -- stays inside
the model rules the engine enforces.

:class:`GhostBank` owns the ghost instances for one branch of the
search tree.  Ghosts are deterministic functions of the correct
payload history they were shown, which is what lets the explorer's
transposition table treat "same process states + same ghost states" as
"same future".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

from repro.core.canonical import canonical_state_key
from repro.core.messages import Inbox, Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.explore.search import ExploreScenario

#: Face sources, as small tagged tuples so they serialise trivially.
SILENT = ("silent",)


def ghost_source(plan_index: int) -> tuple:
    """The face source replaying ghost ``plan_index``'s current payload."""
    return ("ghost", plan_index)


def mimic_source(slot: int) -> tuple:
    """The face source re-sending correct slot ``slot``'s current payload."""
    return ("mimic", slot)


@dataclass(frozen=True)
class GhostPlan:
    """One ghost: a correct instance with chosen input and visibility.

    Attributes
    ----------
    proposal:
        The input the ghost pretends to have proposed.
    visible:
        Correct slot indices whose broadcasts the ghost hears, or
        ``None`` for full visibility.  A ghost always hears itself
        (self-delivery is unconditional in the model).
    """

    proposal: Hashable
    visible: tuple[int, ...] | None = None

    def sees(self, slot: int) -> bool:
        return self.visible is None or slot in self.visible

    def describe(self) -> str:
        view = "all" if self.visible is None else str(list(self.visible))
        return f"ghost(input={self.proposal!r}, sees={view})"


class GhostBank:
    """The ghost instances of one search-tree branch.

    One ghost process exists per ``(Byzantine slot, plan)`` pair -- the
    same plan yields different ghosts for different slots because each
    slot authenticates under its own identifier.  The bank is advanced
    exactly once per explored node via :meth:`step` and duplicated for
    divergent branches via :meth:`fork`.
    """

    def __init__(
        self,
        scenario: "ExploreScenario",
        plan_indices: tuple[int, ...] | None = None,
    ) -> None:
        self._scenario = scenario
        indices = (
            tuple(range(len(scenario.ghost_plans)))
            if plan_indices is None else tuple(plan_indices)
        )
        self._ghosts: dict[tuple[int, int], object] = {}
        for slot in scenario.byzantine:
            ident = scenario.assignment.identifier_of(slot)
            for i in indices:
                plan = scenario.ghost_plans[i]
                self._ghosts[(slot, i)] = scenario.factory(ident, plan.proposal)
        #: Last composed payload per ghost (for self-delivery next round).
        self._last: dict[tuple[int, int], Hashable] = {}

    def fork(self) -> "GhostBank":
        """An independent copy for one divergent branch."""
        twin = object.__new__(GhostBank)
        twin._scenario = self._scenario
        twin._ghosts = {key: ghost.clone() for key, ghost in self._ghosts.items()}
        twin._last = dict(self._last)
        return twin

    def step(
        self, round_no: int, prev_payloads: Mapping[int, Hashable] | None
    ) -> dict[tuple[int, int], Hashable]:
        """Advance every ghost into ``round_no`` and return its faces.

        For ``round_no > 0`` each ghost is first delivered the previous
        round's inbox as its restricted view saw it: the payloads of the
        visible correct slots plus its own previous broadcast.  Then
        every ghost composes its ``round_no`` payload.

        Args:
            round_no: The engine round about to be answered.
            prev_payloads: The correct payloads of ``round_no - 1``
                (``None`` exactly when ``round_no == 0``).

        Returns:
            ``(byzantine slot, plan index) -> payload`` faces for this
            round (``None`` entries mean the ghost is silent).
        """
        scenario = self._scenario
        numerate = scenario.params.numerate
        ident_of = scenario.assignment.identifier_of
        if round_no > 0 and prev_payloads is not None:
            for (slot, i), ghost in self._ghosts.items():
                plan = scenario.ghost_plans[i]
                messages = [
                    Message(ident_of(k), payload)
                    for k, payload in prev_payloads.items()
                    if plan.sees(k)
                ]
                own = self._last.get((slot, i))
                if own is not None:
                    messages.append(Message(ident_of(slot), own))
                ghost.deliver(round_no - 1, Inbox(messages, numerate=numerate))
        faces: dict[tuple[int, int], Hashable] = {}
        for key, ghost in self._ghosts.items():
            payload = ghost.compose(round_no)
            faces[key] = payload
            self._last[key] = payload
        return faces

    def digest(self) -> tuple:
        """Every ghost's state key, by ``(slot, plan)`` (transposition input)."""
        return tuple(
            (slot, i, canonical_state_key(self._ghosts[slot, i]))
            for slot, i in sorted(self._ghosts)
        )
