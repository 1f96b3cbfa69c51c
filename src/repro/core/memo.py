"""Identity memos: derived data computed once per immutable object.

Every receiver of a round is handed the *same* payload objects (the
message fabric builds each message once per round) and, when their
deliveries coincide, the same :class:`~repro.core.messages.Inbox`
object.  Whatever a receive path derives from those objects alone --
a parsed bundle, a validated item list, the receiver-independent tally
of a whole inbox -- is therefore a pure function of the object and a
small *context* (the round, ``n``, ``t``, ``ell``, the problem), and is
computed once and shared.

:class:`IdentityMemo` is that table.  Its rules:

* keys are by **identity**, never by equality: ``1 == True == 1.0``,
  so two equal payloads may decode differently and must not share an
  entry;
* each entry holds a strong reference to its object and every hit
  checks ``is``, so an ``id`` reused after the object died can never
  answer for a new object;
* the context carries every receiver-independent input the derivation
  reads; receiver state never enters it (derived data never lives on a
  process, where it would leak into the state key and the clones);
* the table is bounded and clears itself when full, so it retains at
  most ``limit`` objects.
"""

from __future__ import annotations

from typing import Any, Hashable

__all__ = ["MISS", "IdentityMemo"]

#: What :meth:`IdentityMemo.get` answers for an object it does not hold
#: (``None`` is a legitimate derived value).
MISS: Any = object()


class IdentityMemo:
    """A bounded ``(object identity, context) -> value`` table.

    The hit path is one dict probe and one ``is`` check.

    Args:
        limit: The most entries held; storing into a full table clears
            it first.
    """

    __slots__ = ("_entries", "limit")

    def __init__(self, limit: int) -> None:
        self._entries: dict[tuple[int, Hashable], tuple[Any, Any]] = {}
        self.limit = int(limit)

    def get(self, obj: Any, context: Hashable) -> Any:
        """The value stored for ``obj`` under ``context``, else
        :data:`MISS`."""
        entry = self._entries.get((id(obj), context))
        if entry is not None and entry[0] is obj:
            return entry[1]
        return MISS

    def put(self, obj: Any, context: Hashable, value: Any) -> Any:
        """Store ``value`` for ``obj`` under ``context``; returns it."""
        entries = self._entries
        if len(entries) >= self.limit:
            entries.clear()
        entries[(id(obj), context)] = (obj, value)
        return value

    def clear(self) -> None:
        """Forget every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
