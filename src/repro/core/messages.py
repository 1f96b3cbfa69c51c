"""Authenticated messages and round inboxes.

A message in the homonym model carries only its *content* and the
authenticated *identifier* of its sender.  The receiver learns nothing
else: it cannot tell which of the (possibly many) processes holding
that identifier produced the message, and it cannot address a reply to
an individual process -- only to everyone (the paper's algorithms all
broadcast, encoding any recipient filtering inside the payload).

Two delivery semantics exist:

* **innumerate** -- the round inbox is a *set*: identical
  ``(identifier, payload)`` pairs collapse, so a process cannot count
  how many homonyms sent the same thing;
* **numerate** -- the round inbox is a *multiset*: each physical message
  is delivered separately and copies can be counted.

Payloads must be hashable (tuples, frozensets, strings, numbers); the
network engine enforces this eagerly so that a mutable payload fails at
send time rather than corrupting a set-based inbox later.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any, Callable, Container, Hashable, Iterable, Iterator, Sequence,
)

from repro.core.errors import ProtocolViolation


@dataclass(frozen=True)
class Message:
    """An authenticated message: sender identifier plus payload.

    The paper writes ``m.id`` and ``m.val``; those names are provided as
    aliases.  Ordering is defined (identifier first, then a canonical
    payload key) so inboxes can be iterated deterministically.
    """

    sender_id: int
    payload: Hashable

    @property
    def id(self) -> int:  # noqa: A003 - matches the paper's ``m.id``
        return self.sender_id

    @property
    def val(self) -> Hashable:
        return self.payload

    def __lt__(self, other: "Message") -> bool:  # deterministic, type-agnostic
        if not isinstance(other, Message):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple[int, str]:
        return (self.sender_id, repr(self.payload))


def ensure_hashable(payload: Any) -> Hashable:
    """Validate that ``payload`` is usable as message content.

    Raises :class:`ProtocolViolation` when the payload is unhashable
    (lists, dicts, sets), which would break set-based inboxes.
    """
    try:
        hash(payload)
    except TypeError as exc:
        raise ProtocolViolation(
            f"message payloads must be hashable, got {type(payload).__name__}: "
            f"{payload!r}"
        ) from exc
    return payload


class Inbox:
    """One round's worth of received messages.

    An :class:`Inbox` is constructed by the network engine from the
    physical messages delivered to one process in one round.  The
    ``numerate`` flag selects multiset or set semantics; in the
    innumerate case duplicate ``(identifier, payload)`` pairs are
    collapsed before the algorithm ever sees them, so innumerate
    algorithms physically cannot count copies.

    The class offers the counting helpers the paper's algorithms use:
    *distinct identifiers* that sent a matching message, and (numerate
    only) *copy counts*.
    """

    __slots__ = ("_messages", "_numerate")

    def __init__(self, messages: Iterable[Message], numerate: bool) -> None:
        msgs = list(messages)
        # Sorting by explicit key computes each message's (id, repr)
        # pair once instead of once per comparison; same total order as
        # Message.__lt__, so canonical inbox bytes are unchanged.
        if not numerate:
            msgs = sorted(set(msgs), key=Message.sort_key)
        else:
            msgs = sorted(msgs, key=Message.sort_key)
        self._messages: tuple[Message, ...] = tuple(msgs)
        self._numerate = bool(numerate)

    @classmethod
    def from_canonical(
        cls, messages: tuple[Message, ...], numerate: bool
    ) -> "Inbox":
        """Wrap an already-canonical message tuple without re-sorting.

        The network engine's message fabric canonicalises each round's
        shared delivery multiset exactly once and then stamps out one
        inbox per receiver from it; this constructor skips the sort and
        dedup work :meth:`__init__` would repeat.  The caller guarantees
        ``messages`` is the ``messages()`` tuple of an :class:`Inbox`
        built with the same ``numerate`` flag -- passing anything else
        breaks the deterministic-ordering contract.

        Args:
            messages: A canonically ordered (and, if innumerate,
                deduplicated) message tuple.
            numerate: The delivery semantics flag.

        Returns:
            An inbox sharing ``messages`` without copying.
        """
        inbox = cls.__new__(cls)
        inbox._messages = messages
        inbox._numerate = bool(numerate)
        return inbox

    @classmethod
    def merged(
        cls,
        base: "Inbox",
        keys: Sequence[tuple[int, str]],
        extra: Iterable[tuple[tuple[int, str], Message]],
        members: Container[Message] | None = None,
    ) -> "Inbox":
        """``Inbox(base.messages() + extra)``, by insertion into ``base``.

        The message fabric canonicalises a round's base once; receivers
        that also get adversary messages merge those few into the sorted
        base instead of re-sorting (and re-``repr``-ing) all of it.  Ties
        keep the order the full sort would give: base messages before
        extras with an equal key, extras in their given order.
        Innumerate merges drop extras equal to a base message or to an
        earlier extra, as the set collapse would.

        Args:
            base: The inbox to extend (its semantics flag is kept).
            keys: ``keys[i] == base.messages()[i].sort_key()``.
            extra: ``(message.sort_key(), message)`` pairs, in delivery
                order.
            members: The base's messages as a container (innumerate
                only); callers merging into one base many times pass
                it once.  Defaults to ``set(base.messages())``.

        Returns:
            The merged inbox (``base`` itself when nothing is added).
        """
        msgs = base._messages
        if not base._numerate:
            if members is None:
                members = set(msgs)
            seen: set[Message] = set()
            fresh = []
            for key, m in extra:
                if m not in members and m not in seen:
                    seen.add(m)
                    fresh.append((key, m))
            extra = fresh
        out: list[Message] = []
        start = 0
        for key, m in sorted(extra, key=itemgetter(0)):
            stop = bisect_right(keys, key, start)
            out.extend(msgs[start:stop])
            out.append(m)
            start = stop
        if not out:
            return base
        out.extend(msgs[start:])
        return cls.from_canonical(tuple(out), base._numerate)

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    @property
    def numerate(self) -> bool:
        return self._numerate

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, message: Message) -> bool:
        return message in self._messages

    def __repr__(self) -> str:
        kind = "numerate" if self._numerate else "innumerate"
        return f"Inbox({kind}, {len(self._messages)} messages)"

    def messages(self) -> tuple[Message, ...]:
        """All messages, deterministically ordered."""
        return self._messages

    # ------------------------------------------------------------------
    # Counting helpers
    # ------------------------------------------------------------------
    def from_identifier(self, ident: int) -> tuple[Message, ...]:
        """All messages whose authenticated sender identifier is ``ident``."""
        return tuple(m for m in self._messages if m.sender_id == ident)

    def distinct_ids(
        self, predicate: Callable[[Message], bool] | None = None
    ) -> frozenset[int]:
        """Identifiers that sent at least one message matching ``predicate``."""
        if predicate is None:
            return frozenset(m.sender_id for m in self._messages)
        return frozenset(m.sender_id for m in self._messages if predicate(m))

    def count_distinct_ids(
        self, predicate: Callable[[Message], bool] | None = None
    ) -> int:
        """Number of distinct identifiers with a matching message."""
        return len(self.distinct_ids(predicate))

    def count_copies(self, message: Message) -> int:
        """Copies of an exact message.  Requires numerate delivery.

        Innumerate processes *cannot* count; calling this on an
        innumerate inbox raises :class:`ProtocolViolation` -- this is how
        the package enforces that innumerate algorithms never peek at
        multiplicities.
        """
        if not self._numerate:
            raise ProtocolViolation(
                "count_copies() requires numerate delivery; this inbox is a set"
            )
        return sum(1 for m in self._messages if m == message)

    def count_matching(self, predicate: Callable[[Message], bool]) -> int:
        """Number of physical messages matching ``predicate``.

        Requires numerate delivery for the same reason as
        :meth:`count_copies`.
        """
        if not self._numerate:
            raise ProtocolViolation(
                "count_matching() requires numerate delivery; this inbox is a set"
            )
        return sum(1 for m in self._messages if predicate(m))

    def payload_counter(self) -> Counter:
        """Multiset of ``(identifier, payload)`` pairs (numerate only)."""
        if not self._numerate:
            raise ProtocolViolation(
                "payload_counter() requires numerate delivery; this inbox is a set"
            )
        return Counter((m.sender_id, m.payload) for m in self._messages)

    def values_with_id_support(self, extract: Callable[[Message], Hashable | None]
                               ) -> dict[Hashable, frozenset[int]]:
        """Group identifier support by extracted value.

        ``extract`` maps a message to a value (or ``None`` to skip the
        message); the result maps each value to the set of identifiers
        that sent a message carrying it.  This is the common shape of
        the paper's threshold tests ("received v from t+1 different
        identifiers").
        """
        support: dict[Hashable, set[int]] = {}
        for m in self._messages:
            value = extract(m)
            if value is None:
                continue
            support.setdefault(value, set()).add(m.sender_id)
        return {value: frozenset(ids) for value, ids in support.items()}


def merge_inboxes(inboxes: Iterable[Inbox], numerate: bool) -> Inbox:
    """Union several inboxes into one (used by multi-round collectors)."""
    merged: list[Message] = []
    for inbox in inboxes:
        merged.extend(inbox.messages())
    return Inbox(merged, numerate)
