"""Proper-set maintenance for the partially synchronous algorithms.

Both partially synchronous protocols track a set of *proper* values --
values a process may output without endangering validity.  A process
starts with only its own input; every message it sends carries its
current proper set, and receipt rules grow it:

* a value ``v`` carried in proper sets from **t + 1 different sources**
  must come from at least one correct process, so ``v`` was some correct
  process's input (directly or transitively): add it;
* proper sets from **2t + 1 different sources** among which *no* value
  reaches ``t + 1`` support imply at least ``t + 1`` correct sources
  without a common value, hence at least two distinct correct inputs --
  in binary (or known-domain) agreement every potential input is then
  safe: add the whole domain.

"Sources" differ per model and this module provides both trackers:

* :class:`IdentifierProperTracker` (Figure 5, innumerate-safe) counts
  *distinct identifiers*, accumulated across rounds;
* :class:`MessageProperTracker` (Figure 7, numerate + restricted
  Byzantine) counts *physical messages within one round* -- sound there
  because a restricted Byzantine process contributes at most one
  message per round, so ``t + 1`` same-round messages include a correct
  one.

Proper sets only ever grow, so both trackers are monotone.
"""

from __future__ import annotations

import copy
from typing import Hashable, Iterable

from repro.core.canonical import exact_key, shared_key
from repro.core.problem import AgreementProblem


def encode_proper(values: Iterable[Hashable]) -> tuple[Hashable, ...]:
    """Canonical wire form of a proper set (sorted tuple)."""
    return tuple(sorted(set(values), key=repr))


def decode_proper(
    payload: Hashable, problem: AgreementProblem
) -> tuple[Hashable, ...] | None:
    """Parse a received proper set; ``None`` when malformed.

    Values outside the domain are discarded rather than failing the
    whole set: a Byzantine sender must not be able to suppress the
    legitimate values riding in the same tuple.
    """
    if not isinstance(payload, tuple):
        return None
    return tuple(v for v in payload if v in problem.domain)


class IdentifierProperTracker:
    """Identifier-counting tracker used by the Figure 5 algorithm."""

    def __init__(self, problem: AgreementProblem, own_value: Hashable, t: int) -> None:
        self.problem = problem
        self.t = int(t)
        self.proper: set[Hashable] = {problem.validate_value(own_value)}
        self._ids_for_value: dict[Hashable, set[int]] = {}
        self._ids_any: set[int] = set()

    def state_key(self) -> Hashable:
        """Hashable state identity, equal exactly when the reflective
        keys are (see :meth:`repro.sim.process.Process.state_key`)."""
        return (
            type(self), shared_key(self.problem), self.t,
            exact_key(self.proper),
            exact_key(self._ids_for_value),
            exact_key(self._ids_any),
        )

    def clone(self) -> "IdentifierProperTracker":
        """An independent copy sharing the problem."""
        twin = copy.copy(self)
        twin.proper = set(self.proper)
        twin._ids_for_value = {
            v: set(ids) for v, ids in self._ids_for_value.items()
        }
        twin._ids_any = set(self._ids_any)
        return twin

    def note(self, sender_id: int, values: Iterable[Hashable]) -> None:
        """Record one received proper set from identifier ``sender_id``."""
        self._ids_any.add(int(sender_id))
        for v in values:
            if v in self.problem.domain:
                self._ids_for_value.setdefault(v, set()).add(int(sender_id))
        self._apply_rules()

    def _apply_rules(self) -> None:
        for v, ids in self._ids_for_value.items():
            if len(ids) >= self.t + 1:
                self.proper.add(v)
        if len(self._ids_any) >= 2 * self.t + 1 and not any(
            len(ids) >= self.t + 1 for ids in self._ids_for_value.values()
        ):
            self.proper.update(self.problem.domain)

    def encoded(self) -> tuple[Hashable, ...]:
        return encode_proper(self.proper)

    def __contains__(self, value: Hashable) -> bool:
        return value in self.proper


class MessageProperTracker:
    """Message-counting tracker used by the Figure 7 algorithm.

    Counts are per round: call :meth:`note` for every received message,
    then :meth:`end_round` once the round's inbox is fully processed.
    """

    def __init__(self, problem: AgreementProblem, own_value: Hashable, t: int) -> None:
        self.problem = problem
        self.t = int(t)
        self.proper: set[Hashable] = {problem.validate_value(own_value)}
        self._round_counts: dict[Hashable, int] = {}
        self._round_total: int = 0

    def state_key(self) -> Hashable:
        """Hashable state identity, equal exactly when the reflective
        keys are (see :meth:`repro.sim.process.Process.state_key`)."""
        return (
            type(self), shared_key(self.problem), self.t,
            exact_key(self.proper),
            exact_key(self._round_counts),
            self._round_total,
        )

    def clone(self) -> "MessageProperTracker":
        """An independent copy sharing the problem."""
        twin = copy.copy(self)
        twin.proper = set(self.proper)
        twin._round_counts = dict(self._round_counts)
        return twin

    def note(self, values: Iterable[Hashable]) -> None:
        """Record one received message's proper set (this round)."""
        self._round_total += 1
        for v in values:
            if v in self.problem.domain:
                self._round_counts[v] = self._round_counts.get(v, 0) + 1

    def end_round(self) -> None:
        """Apply the t+1 / 2t+1 rules to this round's counts, then reset."""
        for v, count in self._round_counts.items():
            if count >= self.t + 1:
                self.proper.add(v)
        if self._round_total >= 2 * self.t + 1 and not any(
            count >= self.t + 1 for count in self._round_counts.values()
        ):
            self.proper.update(self.problem.domain)
        self._round_counts = {}
        self._round_total = 0

    def encoded(self) -> tuple[Hashable, ...]:
        return encode_proper(self.proper)

    def __contains__(self, value: Hashable) -> bool:
        return value in self.proper
