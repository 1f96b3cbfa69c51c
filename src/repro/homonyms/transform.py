"""The Figure 3 transformation ``T(A)``: synchronous BA with homonyms.

Given any classic synchronous Byzantine agreement algorithm ``A`` for
``ell`` uniquely-identified processes (in the Figure 2 functional form),
``T(A)`` solves Byzantine agreement for **n >= ell processes sharing
ell identifiers**, provided ``ell > 3t`` -- matching the paper's tight
synchronous bound (Theorem 3).  It works even when processes are
innumerate.

Three engine rounds (a *phase*) simulate one round of ``A``.  Phase
``r`` (0-indexed; simulating ``A``'s round ``r + 1``) consists of:

1. **selection round** -- every process broadcasts its current state of
   ``A``; each process adopts the deterministically smallest valid state
   broadcast under *its own identifier*.  A fully correct group ``G(i)``
   thereby agrees on a common state and acts as a single correct
   process of ``A`` from then on.
2. **deciding round** -- every process broadcasts ``decide(s)``; any
   process seeing the same non-``None`` value from ``t + 1`` distinct
   identifiers decides it.  At least one of those identifiers belongs
   to a fully correct group, so the value is ``A``'s decision.  This
   round is what lets a correct process that *shares its identifier
   with a Byzantine process* terminate: its own group may be poisoned,
   but ``ell > 3t`` guarantees at least ``t + 1`` clean groups announce
   the decision.
3. **running round** -- every process broadcasts ``M(s, r)`` and runs
   ``A``'s transition on the received messages, after discarding every
   identifier that equivocated (sent two distinct messages) this round;
   an equivocating group is indistinguishable from a single Byzantine
   process, and ``A`` tolerates those.

The correctness argument (Proposition 2) is a simulation: executions of
``T(A)`` project onto executions of ``A`` in which identifier ``i`` is
correct iff ``G(i)`` contains no Byzantine process.  At most ``t``
groups are poisoned, so ``A`` runs with at most ``t`` faults among
``ell > 3t`` processes and its own correctness carries over.
"""

from __future__ import annotations

from typing import Hashable

from repro.classic.spec import ClassicSpec, filter_equivocators
from repro.core.canonical import shared_key
from repro.core.errors import BoundViolation
from repro.core.messages import Inbox
from repro.sim.process import Process

#: Payload tags for the three rounds of a phase.
SELECT_TAG = "T-select"
DECIDE_TAG = "T-decide"
RUN_TAG = "T-run"

#: Number of engine rounds per simulated round of ``A``.
ROUNDS_PER_PHASE = 3


class HomonymProcess(Process):
    """One homonym process executing ``T(A)`` (Figure 3)."""

    def __init__(
        self,
        spec: ClassicSpec,
        identifier: int,
        proposal: Hashable,
        unchecked: bool = False,
    ) -> None:
        super().__init__(identifier, proposal)
        if spec.ell <= 3 * spec.t and not unchecked:
            raise BoundViolation(
                f"T(A) requires ell > 3t, got ell={spec.ell}, t={spec.t}; "
                f"pass unchecked=True only for lower-bound demonstrations"
            )
        self.spec = spec
        self.state = spec.init(identifier, proposal)

    # ------------------------------------------------------------------
    # State identity and copying
    # ------------------------------------------------------------------
    def state_key(self) -> Hashable:
        return (
            type(self),
            *self._decision_key(),
            shared_key(self.spec),
            self.spec.state_key(self.state),
        )

    def clone(self) -> "HomonymProcess":
        # Every attribute is immutable (the spec is a shared function
        # table, the state a frozen value), so a shallow copy is
        # independent.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------
    @staticmethod
    def phase_of(round_no: int) -> tuple[int, int]:
        """Map an engine round to ``(phase, sub-round)``."""
        return divmod(round_no, ROUNDS_PER_PHASE)[0], round_no % ROUNDS_PER_PHASE

    def compose(self, round_no: int) -> Hashable:
        phase, sub = self.phase_of(round_no)
        if sub == 0:
            return (SELECT_TAG, phase, self.state)
        if sub == 1:
            return (DECIDE_TAG, phase, self.spec.decide(self.state))
        return (RUN_TAG, phase, self.spec.message(self.state, phase + 1))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        phase, sub = self.phase_of(round_no)
        if sub == 0:
            self._select_state(phase, inbox)
        elif sub == 1:
            self._check_group_decisions(phase, inbox, round_no)
        else:
            self._run_step(phase, inbox)

    # ------------------------------------------------------------------
    # Sub-round implementations
    # ------------------------------------------------------------------
    def _select_state(self, phase: int, inbox: Inbox) -> None:
        """Line 5 of Figure 3: adopt the canonical state of the group.

        Candidates are the structurally valid states broadcast under our
        own identifier this phase (always non-empty: self-delivery
        includes our own).  The deterministic choice is the ``repr``
        minimum, so all correct members of a fully correct group select
        the same state.
        """
        candidates = []
        for m in inbox.from_identifier(self.identifier):
            payload = m.payload
            if not (isinstance(payload, tuple) and len(payload) == 3):
                continue
            tag, ph, state = payload
            if tag != SELECT_TAG or ph != phase:
                continue
            if self.spec.is_state(state):
                candidates.append(state)
        if candidates:
            self.state = min(candidates, key=repr)
        # else: keep the current state (can only happen if even our own
        # message failed validation, which would be a spec bug).

    def _check_group_decisions(
        self, phase: int, inbox: Inbox, round_no: int
    ) -> None:
        """Lines 8-9 of Figure 3: decide on ``t + 1`` identifier support."""

        def extract(m):
            payload = m.payload
            if not (isinstance(payload, tuple) and len(payload) == 3):
                return None
            tag, ph, value = payload
            if tag != DECIDE_TAG or ph != phase or value is None:
                return None
            return value

        support = inbox.values_with_id_support(extract)
        decidable = sorted(
            (value for value, ids in support.items() if len(ids) >= self.spec.t + 1),
            key=repr,
        )
        if decidable:
            self.record_decision(decidable[0], round_no)

    def _run_step(self, phase: int, inbox: Inbox) -> None:
        """Lines 12-15 of Figure 3: filter equivocators, run ``A``'s step."""

        def is_run_message(payload: Hashable) -> bool:
            return (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == RUN_TAG
                and payload[1] == phase
            )

        per_id = filter_equivocators(inbox, select=is_run_message)
        received = {
            ident: payload[2]
            for ident, payload in per_id.items()
            if payload[2] is not None
        }
        self.state = self.spec.transition(self.state, phase + 1, received)


def transform_factory(spec: ClassicSpec, unchecked: bool = False):
    """Process factory for :func:`repro.sim.runner.run_agreement`.

    ``T(A)`` needs ``spec.max_rounds`` phases of three rounds, plus one
    extra phase so the deciding round after ``A``'s last transition can
    run; use :func:`transform_horizon` for a safe round budget.
    """

    def factory(identifier: int, proposal: Hashable) -> HomonymProcess:
        return HomonymProcess(spec, identifier, proposal, unchecked=unchecked)

    return factory


def transform_horizon(spec: ClassicSpec, slack_phases: int = 2) -> int:
    """Engine rounds by which every correct process must have decided."""
    return ROUNDS_PER_PHASE * (spec.max_rounds + 1 + slack_phases)
