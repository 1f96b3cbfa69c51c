"""Byzantine adversary interface.

The adversary is a single object that speaks for *all* Byzantine
process slots.  Each round the engine shows it a full-information
:class:`AdversaryView` -- including the payloads correct processes are
sending *this* round (a "rushing" adversary, the strongest consistent
with the paper's proofs) -- and the adversary answers with the messages
each Byzantine slot emits to each recipient.

Two model rules are enforced by the engine, not trusted to adversary
implementations:

* **authentication** -- a Byzantine process cannot forge identifiers:
  every message it emits is stamped with the identifier its slot holds;
* **restriction** -- under the restricted model a Byzantine process may
  emit at most one message per recipient per round; violations raise
  :class:`~repro.core.errors.AdversaryViolation`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from repro.core.errors import AdversaryViolation
from repro.core.identity import IdentityAssignment
from repro.core.messages import ensure_hashable
from repro.core.params import SystemParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.messages import Inbox
    from repro.sim.process import Process
    from repro.sim.trace import Trace


#: Messages one Byzantine slot emits in one round:
#: ``recipient index -> sequence of payloads`` (one Message per payload).
Emission = Mapping[int, Sequence[Hashable]]


@dataclass(frozen=True)
class AdversaryView:
    """Everything the adversary may look at when choosing its messages.

    Attributes
    ----------
    round_no:
        The current round (0-indexed).
    params:
        The system parameters (model flags included).
    assignment:
        The full identity assignment, so the adversary knows which
        identifiers it owns and who the homonyms are.
    byzantine:
        The Byzantine slot indices the adversary controls.
    correct_payloads:
        Payloads the correct processes broadcast *this* round
        (``index -> payload``; silent processes absent).  This makes the
        adversary rushing.
    processes:
        The live process objects (``None`` at Byzantine slots).  The
        simulation deliberately allows state inspection: the paper's
        adversary is computationally unbounded and full-information.
    trace:
        The execution trace so far (previous rounds).
    heard:
        ``Byzantine slot -> Inbox`` the message fabric built for the
        previous round: every correct broadcast plus the Byzantine
        messages addressed to that slot (empty at round 0).
    """

    round_no: int
    params: SystemParams
    assignment: IdentityAssignment
    byzantine: tuple[int, ...]
    correct_payloads: Mapping[int, Hashable]
    processes: Sequence["Process | None"]
    trace: "Trace"
    heard: Mapping[int, "Inbox"] = field(default_factory=dict)

    def identifier_of(self, index: int) -> int:
        return self.assignment.identifier_of(index)


class Adversary(ABC):
    """Strategy object controlling every Byzantine slot.

    Subclasses implement :meth:`emissions`.  ``setup`` is called once
    before round 0 with the static configuration; stateful adversaries
    (replay, mirror, crash) initialise there.
    """

    def setup(
        self,
        params: SystemParams,
        assignment: IdentityAssignment,
        byzantine: tuple[int, ...],
        proposals: Mapping[int, Hashable],
    ) -> None:
        """Called once before the first round.  Default: no-op."""

    @abstractmethod
    def emissions(self, view: AdversaryView) -> Mapping[int, Emission]:
        """Messages for this round: ``byz index -> recipient -> payloads``.

        Returning an empty mapping (or omitting a slot / recipient)
        means silence.  The engine stamps each payload with the slot's
        authenticated identifier and enforces the restricted-model cap.
        """


def normalize_emissions(
    params: SystemParams,
    byzantine: Sequence[int],
    raw: Mapping[int, Emission],
    round_no: int,
) -> dict[int, dict[int, tuple[Hashable, ...]]]:
    """Validate and canonicalise one round of adversary emissions.

    This is the single enforcement point of the model rules every
    execution loop (:class:`repro.sim.kernel.ExecutionKernel` and the
    reference oracles) shares:

    * only Byzantine slots may emit;
    * recipients must be process indices;
    * payloads must be hashable (checked eagerly, at send time);
    * under the restricted model at most one message per recipient per
      slot per round.

    Slots and recipients are iterated in sorted order and empty batches
    are elided, so the result is the canonical form the trace records.

    Args:
        params: The system parameters (model flags).
        byzantine: The Byzantine slot indices the adversary owns.
        raw: The adversary's :meth:`Adversary.emissions` answer.
        round_no: The current round (for error messages).

    Returns:
        ``byz slot -> recipient -> tuple of payloads``, sorted, with
        silent slots and empty batches removed.

    Raises:
        AdversaryViolation: On any model-rule violation.
    """
    byz_set = set(byzantine)
    emissions: dict[int, dict[int, tuple[Hashable, ...]]] = {}
    for b, per_recipient in sorted(raw.items()):
        if b not in byz_set:
            raise AdversaryViolation(
                f"adversary emitted for non-Byzantine slot {b}"
            )
        clean: dict[int, tuple[Hashable, ...]] = {}
        for q, payload_seq in sorted(per_recipient.items()):
            if not 0 <= q < params.n:
                raise AdversaryViolation(f"recipient {q} out of range")
            batch = tuple(ensure_hashable(p) for p in payload_seq)
            if not batch:
                continue
            if params.restricted and len(batch) > 1:
                raise AdversaryViolation(
                    f"restricted Byzantine slot {b} sent {len(batch)} "
                    f"messages to recipient {q} in round {round_no}"
                )
            clean[q] = batch
        if clean:
            emissions[b] = clean
    return emissions


class NullAdversary(Adversary):
    """No Byzantine processes act: all Byzantine slots stay silent forever.

    Note that silence is itself Byzantine behaviour (a crash from round
    0); correct algorithms must tolerate it.
    """

    def emissions(self, view: AdversaryView) -> Mapping[int, Emission]:
        return {}
