"""Authenticated broadcast for homonymous systems (Proposition 6).

The Figure 5 agreement algorithm is built on an authenticated broadcast
primitive generalising Srikanth--Toueg [20] / DLS [9] to homonyms.  It
is implementable in the basic partially synchronous model whenever
``ell > 3t`` and provides, with ``T`` the first superround from which
all messages are delivered:

* **Correctness** -- if a process with identifier ``i`` performs
  ``Broadcast(m)`` in superround ``r >= T``, every correct process
  performs ``Accept(m, i)`` during superround ``r``.
* **Unforgeability** -- if all processes with identifier ``i`` are
  correct and none of them broadcast ``m``, no correct process ever
  performs ``Accept(m, i)``.
* **Relay** -- if some correct process performs ``Accept(m, i)`` during
  superround ``r``, every correct process performs ``Accept(m, i)`` by
  superround ``max(r + 1, T)``.

Mechanism (quoting the paper): the broadcaster sends ``<init m>`` in
the first round of superround ``r``; any process receiving it from
identifier ``i`` sends ``<echo m, r, i>`` in the following round *and in
all subsequent rounds*; any process that has received the echo from
``ell - 2t`` distinct identifiers joins the echoers; receiving the echo
from ``ell - t`` distinct identifiers triggers ``Accept(m, i)``.
Because ``ell - 2t > t``, the first echoer for a never-broadcast message
of a fully correct identifier would have to be correct -- impossible --
which gives unforgeability; because echoes persist, thresholds crossed
anywhere eventually cross everywhere -- relay.

This module is a *layer*, not a process: the host algorithm embeds one
:class:`AuthenticatedBroadcast` per process, folds
:meth:`AuthenticatedBroadcast.outgoing` into its round payloads, feeds
received init/echo items back in, and consumes the resulting
:class:`Accept` events.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.canonical import exact_key
from repro.core.errors import BoundViolation


@dataclass(frozen=True)
class Accept:
    """An ``Accept(m, i)`` event, with the superround it occurred in."""

    message: Hashable
    ident: int
    superround: int


#: Key identifying one logical broadcast instance: (message, superround, id).
BroadcastKey = tuple[Hashable, int, int]


class AuthenticatedBroadcast:
    """Per-process state of the Proposition 6 primitive.

    Engine rounds are 0-indexed; superround ``r`` spans rounds ``2r``
    and ``2r + 1``.  The host must call, each round and in this order:

    1. :meth:`broadcast` (optionally, first round of a superround only),
    2. :meth:`outgoing` when composing its payload,
    3. :meth:`note_init` / :meth:`note_echo` for every received item,
    4. :meth:`drain_accepts` to collect new ``Accept`` events.
    """

    def __init__(self, ell: int, t: int, ident: int, unchecked: bool = False) -> None:
        if ell <= 3 * t and not unchecked:
            raise BoundViolation(
                f"authenticated broadcast requires ell > 3t, got ell={ell}, t={t}"
            )
        self.ell = int(ell)
        self.t = int(t)
        self.ident = int(ident)
        self._pending_inits: list[tuple[Hashable, int]] = []  # (m, superround)
        self._echoing: set[BroadcastKey] = set()
        self._echo_ids: dict[BroadcastKey, set[int]] = {}
        self._accepted: dict[tuple[Hashable, int], int] = {}  # (m, i) -> superround
        self._fresh_accepts: list[Accept] = []

    # ------------------------------------------------------------------
    # State identity and copying (for the host process's own)
    # ------------------------------------------------------------------
    def state_key(self) -> Hashable:
        """Hashable state identity, equal exactly when the reflective
        keys are (see :meth:`repro.sim.process.Process.state_key`)."""
        return (
            type(self), self.ell, self.t, self.ident,
            exact_key(self._pending_inits),
            exact_key(self._echoing),
            exact_key(self._echo_ids),
            exact_key(self._accepted),
            exact_key(self._fresh_accepts),
        )

    def clone(self) -> "AuthenticatedBroadcast":
        """An independent copy (the containers are copied, their
        immutable contents shared)."""
        twin = copy.copy(self)
        twin._pending_inits = list(self._pending_inits)
        twin._echoing = set(self._echoing)
        twin._echo_ids = {key: set(ids) for key, ids in self._echo_ids.items()}
        twin._accepted = dict(self._accepted)
        twin._fresh_accepts = list(self._fresh_accepts)
        return twin

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------
    def broadcast(self, message: Hashable, superround: int) -> None:
        """Queue ``Broadcast(message)`` for ``superround``.

        Must be called while composing the *first* round of that
        superround; the init item rides on that round's payload.
        """
        self._pending_inits.append((message, int(superround)))

    def outgoing(self, round_no: int) -> tuple[tuple, tuple]:
        """Items to embed in this round's payload: ``(inits, echoes)``.

        Init items are ``("init", m, r)`` and are only produced in the
        first round of their superround; echo items are
        ``("echo", m, r, i)`` and are re-sent every round once active
        (the persistence the relay property needs).
        """
        inits = tuple(
            sorted(
                (
                    ("init", m, r)
                    for m, r in self._pending_inits
                    if 2 * r == round_no
                ),
                key=repr,
            )
        )
        self._pending_inits = [
            (m, r) for m, r in self._pending_inits if 2 * r > round_no
        ]
        echoes = tuple(
            sorted((("echo", m, r, i) for (m, r, i) in self._echoing), key=repr)
        )
        return inits, echoes

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------
    def note_init(
        self, sender_id: int, message: Hashable, superround: int, round_no: int
    ) -> None:
        """Record a received ``<init m>`` item.

        Honoured only when it arrives in the first round of its claimed
        superround (a correct broadcaster always satisfies this; a
        Byzantine one gains nothing by lying).
        """
        if round_no != 2 * superround:
            return
        self._echoing.add((message, superround, int(sender_id)))

    def note_echo(
        self,
        sender_id: int,
        message: Hashable,
        superround: int,
        echoed_ident: int,
        round_no: int,
    ) -> None:
        """Record a received ``<echo m, r, i>`` item from ``sender_id``."""
        key: BroadcastKey = (message, int(superround), int(echoed_ident))
        ids = self._echo_ids.setdefault(key, set())
        ids.add(int(sender_id))
        if len(ids) >= self.ell - 2 * self.t:
            self._echoing.add(key)
        if len(ids) >= self.ell - self.t:
            self._accept(key, round_no // 2)

    def _accept(self, key: BroadcastKey, superround: int) -> None:
        message, _r, ident = key
        if (message, ident) in self._accepted:
            return
        self._accepted[(message, ident)] = superround
        self._fresh_accepts.append(Accept(message, ident, superround))

    # ------------------------------------------------------------------
    # Host queries
    # ------------------------------------------------------------------
    def drain_accepts(self) -> list[Accept]:
        """New ``Accept`` events since the last drain (ordered)."""
        fresh = self._fresh_accepts
        self._fresh_accepts = []
        return fresh

    def has_accepted(self, message: Hashable, ident: int) -> bool:
        return (message, ident) in self._accepted

    def accepted_superround(self, message: Hashable, ident: int) -> int | None:
        return self._accepted.get((message, ident))


def parse_broadcast_items(
    items: Iterable[Hashable],
) -> tuple[list[tuple[Hashable, int]], list[tuple[Hashable, int, int]]]:
    """Split received payload items into init and echo records.

    Returns ``(inits, echoes)`` where inits are ``(m, r)`` and echoes
    are ``(m, r, i)``.  Malformed items are dropped (Byzantine noise).
    """
    inits: list[tuple[Hashable, int]] = []
    echoes: list[tuple[Hashable, int, int]] = []
    for item in items:
        if not isinstance(item, tuple) or not item:
            continue
        if item[0] == "init" and len(item) == 3 and isinstance(item[2], int):
            inits.append((item[1], item[2]))
        elif (
            item[0] == "echo"
            and len(item) == 4
            and isinstance(item[2], int)
            and isinstance(item[3], int)
        ):
            echoes.append((item[1], item[2], item[3]))
    return inits, echoes
