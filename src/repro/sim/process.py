"""Process abstraction for the round-based simulator.

A *correct* process is an object driven by the network engine in
lock-step rounds:

1. ``compose(round_no)`` returns the payload the process broadcasts
   this round (or ``None`` to stay silent).  Per the paper (Section
   3.2), correct processes send the *same* content to everyone in a
   round without loss of generality -- recipient-specific information is
   encoded inside the payload.
2. ``deliver(round_no, inbox)`` hands the process everything it
   received this round (set or multiset semantics depending on the
   model's numeracy).

A process records at most one decision (the first one); the paper's
algorithms "continue running" after deciding, which the simulator
honours by never stopping a decided process implicitly.

Byzantine behaviour is *not* modelled by subclassing ``Process``: the
adversary object attached to the network speaks for all Byzantine
process slots (see :mod:`repro.sim.adversary`).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Hashable

from repro.core.canonical import exact_key, reflective_state_key
from repro.core.messages import Inbox


class Process(ABC):
    """Base class for deterministic correct-process implementations."""

    def __init__(self, identifier: int, proposal: Hashable = None) -> None:
        self._identifier = int(identifier)
        self._proposal = proposal
        self._decision: Hashable = None
        self._decision_round: int | None = None

    # ------------------------------------------------------------------
    # Identity / proposal / decision bookkeeping
    # ------------------------------------------------------------------
    @property
    def identifier(self) -> int:
        """The authenticated identifier this process sends under."""
        return self._identifier

    @property
    def proposal(self) -> Hashable:
        """The value this process proposed (``None`` for non-proposers)."""
        return self._proposal

    @property
    def decided(self) -> bool:
        return self._decision_round is not None

    @property
    def decision(self) -> Hashable:
        """First decided value, or ``None`` if undecided."""
        return self._decision

    @property
    def decision_round(self) -> int | None:
        """Round of the first decision, or ``None`` if undecided."""
        return self._decision_round

    def record_decision(self, value: Hashable, round_no: int) -> None:
        """Record the first decision; the first decision is final.

        The paper's processes decide once and "continue running the
        algorithm"; decision conditions that fire again later are
        no-ops.  A later condition proposing a *different* value is
        possible only in executions where agreement is already broken
        (e.g. below the solvability bound under the Figure 4 attack);
        it is deliberately ignored here and surfaces in the cross-
        process agreement check instead.
        """
        if self._decision_round is None:
            self._decision = value
            self._decision_round = round_no

    # ------------------------------------------------------------------
    # Round interface driven by the engine
    # ------------------------------------------------------------------
    @abstractmethod
    def compose(self, round_no: int) -> Hashable:
        """Payload to broadcast in ``round_no`` (``None`` = send nothing)."""

    @abstractmethod
    def deliver(self, round_no: int, inbox: Inbox) -> None:
        """Consume the messages received in ``round_no``."""

    # ------------------------------------------------------------------
    # State identity and copying (the strategy explorer's primitives)
    # ------------------------------------------------------------------
    def state_key(self) -> Hashable:
        """A hashable key equal exactly when two processes are in the
        same state (same future under the same inputs).

        The default is the reflective key
        (:func:`~repro.core.canonical.reflective_state_key`): exact for
        any subclass, and slow.  The processes the strategy explorer
        runs override it with a flat tuple of their state; an override
        must key equal exactly when the reflective keys are equal.
        """
        return reflective_state_key(self)

    def clone(self) -> "Process":
        """An independent copy: mutating either never changes the other.

        The default deep-copies.  Overrides copy only what deliveries
        mutate and share the immutable rest (specs, parameters, frozen
        states).
        """
        return copy.deepcopy(self)

    def _decision_key(self) -> tuple:
        """The base-class part of an explicit :meth:`state_key`."""
        return (
            self._identifier,
            exact_key(self._proposal),
            exact_key(self._decision),
            self._decision_round,
        )


class EchoProcess(Process):
    """Diagnostic process: broadcasts a constant tag plus the round number.

    Used by the engine's own test-suite to verify delivery semantics,
    topology filtering and drop schedules without pulling in a real
    agreement algorithm.
    """

    def __init__(self, identifier: int, tag: Hashable = "echo") -> None:
        super().__init__(identifier)
        self.tag = tag
        self.received: dict[int, Inbox] = {}

    def compose(self, round_no: int) -> Hashable:
        return (self.tag, round_no)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        self.received[round_no] = inbox
