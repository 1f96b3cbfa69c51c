"""Execution traces.

The trace records, per round, what every correct process broadcast,
what every Byzantine slot emitted, and which decisions were made.  It
serves three consumers:

* debugging / pretty-printing of executions;
* the **replay adversaries** that realise the paper's lower-bound
  constructions (Figures 1 and 4 re-send messages recorded in
  reference executions);
* live adversaries reading history: the random adversary's stale
  replays and a ghost face's view of last round (impostors that hear
  everything read the fabric's ``AdversaryView.heard`` instead).

Traces record *payloads*, not delivered inboxes: because correct
processes broadcast, per-recipient inboxes are reconstructible from the
payloads plus the timing model, and not storing them keeps long
executions small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping

from repro.core.errors import ReplayError


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one round.

    Attributes
    ----------
    round_no:
        The 0-indexed round number.
    payloads:
        ``correct process index -> payload`` broadcast this round
        (silent processes absent).
    emissions:
        ``byzantine index -> recipient index -> tuple of payloads``.
    decisions:
        ``process index -> value`` for first decisions made this round.
    """

    round_no: int
    payloads: Mapping[int, Hashable]
    emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]]
    decisions: Mapping[int, Hashable]

    @property
    def correct_message_count(self) -> int:
        return len(self.payloads)

    @property
    def byzantine_message_count(self) -> int:
        return sum(
            len(payloads)
            for per_recipient in self.emissions.values()
            for payloads in per_recipient.values()
        )


class Trace:
    """Append-only sequence of :class:`RoundRecord`."""

    def __init__(self) -> None:
        self._records: list[RoundRecord] = []

    # ------------------------------------------------------------------
    # Recording (engine-facing)
    # ------------------------------------------------------------------
    def append(self, record: RoundRecord) -> None:
        if record.round_no != len(self._records):
            raise ReplayError(
                f"trace expected round {len(self._records)}, got {record.round_no}"
            )
        self._records.append(record)

    def snapshot(self) -> tuple[RoundRecord, ...]:
        """The records so far, as an immutable tuple.

        Records are frozen dataclasses, so the tuple is a complete
        snapshot: engine checkpointing stores it and :meth:`restore`
        rewinds to it without copying record contents.
        """
        return tuple(self._records)

    def restore(self, records: tuple[RoundRecord, ...]) -> None:
        """Replace the trace contents with a :meth:`snapshot` result.

        Args:
            records: A contiguous round-0-based record tuple (anything
                else would violate the append invariant).

        Raises:
            ReplayError: If the records are not contiguous from round 0.
        """
        if any(r.round_no != i for i, r in enumerate(records)):
            raise ReplayError("snapshot records are not contiguous from round 0")
        self._records = list(records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self._records)

    def record(self, round_no: int) -> RoundRecord:
        """The record of a specific round (raises if not yet executed)."""
        try:
            return self._records[round_no]
        except IndexError:
            raise ReplayError(
                f"round {round_no} not in trace (has {len(self._records)} rounds)"
            ) from None

    def payload_of(self, round_no: int, sender: int) -> Hashable:
        """Payload broadcast by correct process ``sender`` in ``round_no``.

        Returns ``None`` when the process was silent that round.
        """
        return self.record(round_no).payloads.get(sender)

    def decisions(self) -> dict[int, Hashable]:
        """All first decisions across the execution."""
        result: dict[int, Hashable] = {}
        for record in self._records:
            for index, value in record.decisions.items():
                result.setdefault(index, value)
        return result

    def decision_rounds(self) -> dict[int, int]:
        """Round of first decision per process."""
        result: dict[int, int] = {}
        for record in self._records:
            for index in record.decisions:
                result.setdefault(index, record.round_no)
        return result

    def summary(self, max_rounds: int = 20) -> str:
        """Compact human-readable digest of the execution."""
        lines = [f"Trace: {len(self._records)} rounds"]
        for record in self._records[:max_rounds]:
            parts = [f"r{record.round_no}:"]
            parts.append(f"{record.correct_message_count} correct sends")
            byz = record.byzantine_message_count
            if byz:
                parts.append(f"{byz} byzantine msgs")
            if record.decisions:
                decided = ", ".join(
                    f"p{k}={v!r}" for k, v in sorted(record.decisions.items())
                )
                parts.append(f"decisions: {decided}")
            lines.append("  " + " ".join(parts))
        if len(self._records) > max_rounds:
            lines.append(f"  ... {len(self._records) - max_rounds} more rounds")
        return "\n".join(lines)
