"""Figure 6: authenticated broadcast *with multiplicity* estimates.

In the restricted Byzantine model (at most one message per recipient
per round) with numerate processes, the paper strengthens
authenticated broadcast so that an ``Accept`` also carries an estimate
``alpha`` of *how many* processes with the identifier performed the
broadcast.  With ``f_i`` the number of Byzantine processes holding
identifier ``i`` and ``T`` the stabilisation superround:

* **Correctness** -- if ``alpha`` correct processes with identifier ``i``
  perform ``Broadcast(i, m, r)`` in superround ``r >= T``, every correct
  process performs ``Accept(i, alpha', m, r)`` with ``alpha' >= alpha``
  during superround ``r``.
* **Relay** -- an ``Accept(i, alpha, m, r)`` by a correct process in
  superround ``r' >= r`` forces ``Accept(i, alpha', m, r)`` with
  ``alpha' >= alpha`` at every correct process by superround
  ``max(r', T) + 1``.
* **Unforgeability** -- any accepted ``alpha'`` satisfies
  ``0 <= alpha' <= alpha + f_i``.
* **Unicity** -- per ``(i, m, r)``, at most one ``Accept`` per superround.

Mechanism: superround ``r`` spans engine rounds ``2r`` and ``2r + 1``.
Broadcasters attach ``(init, m, r)`` to their round-``2r`` message.
Every process maintains counters ``a[h, m, r]`` and re-sends, *every
round*, an item ``(echo, h, a[h, m, r], m, r)`` for each non-zero
counter.  On receipt, a process that got at least ``n - 2t`` *valid
messages* carrying an echo for ``(h, m, r)`` raises its counter to the
largest ``alpha`` supported by ``n - 2t`` of them; in odd rounds a
support of ``n - t`` messages triggers ``Accept`` with the largest
``alpha`` supported by ``n - t``.  Counting *messages* (processes)
instead of identifiers is sound precisely because Byzantine senders are
restricted and receivers are numerate.

A *valid* message contains at most one init per ``m`` (claiming the
current superround) and at most one echo per ``(h, m, r)``; invalid
messages are discarded wholesale (only Byzantine processes produce
them).

Receiving is split in two.  What a round's messages imply for *any*
receiver -- the validity of each message's items
(:func:`validate_items`), their counts (:func:`count_message`) and the
thresholds of lines 13-21 over them (:func:`tally_round`) -- is a pure
function of the messages and the round, so a host that reads whole
inboxes computes it once per inbox and every receiver of that inbox
only :meth:`~MultiplicityBroadcast.apply`-s the resulting
:class:`RoundTally` to its own counters.  The message-by-message host
contract (:meth:`~MultiplicityBroadcast.note_message` then
:meth:`~MultiplicityBroadcast.end_round`) runs the same threshold code.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple

from repro.core.canonical import exact_key
from repro.core.errors import BoundViolation

INIT_TAG = "minit"
ECHO_TAG = "mecho"


@dataclass(frozen=True)
class MultiplicityAccept:
    """An ``Accept(i, alpha, m, r)`` event, stamped with when it happened."""

    ident: int
    multiplicity: int
    message: Hashable
    superround: int  # the broadcast's superround (r)
    accepted_superround: int  # when this Accept was performed (r')


class MultiplicityBroadcast:
    """Per-process state of the Figure 6 primitive.

    Host contract per engine round:

    1. :meth:`broadcast` while composing the first round of the target
       superround;
    2. :meth:`outgoing` to get the items for this round's payload;
    3. :meth:`note_message` once per received physical message;
    4. :meth:`end_round` after the inbox is consumed -- returns the
       ``Accept`` events of this round (only odd rounds produce any).

    Steps 3-4 may instead be one :meth:`apply` of a
    :class:`RoundTally` the host derived from the whole inbox; both
    routes run the same threshold code (:func:`tally_round`).
    """

    def __init__(
        self, n: int, t: int, ident: int, unchecked: bool = False
    ) -> None:
        if n <= 3 * t and not unchecked:
            raise BoundViolation(
                f"multiplicity broadcast requires n > 3t, got n={n}, t={t}"
            )
        self.n = int(n)
        self.t = int(t)
        self.ident = int(ident)
        #: a[h, m, r] counters (only non-zero entries stored).
        self._a: dict[tuple[int, Hashable, int], int] = {}
        self._pending: list[tuple[Hashable, int]] = []
        #: per-round tally: (h, m, r) -> list of alpha' from valid messages.
        self._round_echoes: dict[tuple[int, Hashable, int], list[int]] = {}
        #: per-round init tally: (h, m) -> number of valid messages.
        self._round_inits: dict[tuple[int, Hashable], int] = {}

    # ------------------------------------------------------------------
    # State identity and copying (for the host process's own)
    # ------------------------------------------------------------------
    def state_key(self) -> Hashable:
        """Hashable state identity, equal exactly when the reflective
        keys are (see :meth:`repro.sim.process.Process.state_key`)."""
        return (
            type(self), self.n, self.t, self.ident,
            exact_key(self._a),
            exact_key(self._pending),
            exact_key(self._round_echoes),
            exact_key(self._round_inits),
        )

    def clone(self) -> "MultiplicityBroadcast":
        """An independent copy (the containers are copied, their
        immutable contents shared)."""
        twin = copy.copy(self)
        twin._a = dict(self._a)
        twin._pending = list(self._pending)
        twin._round_echoes = {
            key: list(alphas) for key, alphas in self._round_echoes.items()
        }
        twin._round_inits = dict(self._round_inits)
        return twin

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------
    def broadcast(self, message: Hashable, superround: int) -> None:
        """Queue ``Broadcast(ident, message, superround)``."""
        self._pending.append((message, int(superround)))

    def outgoing(self, round_no: int) -> tuple[Hashable, ...]:
        """Items for this round: all live echoes plus due inits."""
        items: list[Hashable] = []
        for (h, m, r), alpha in self._a.items():
            if alpha > 0 and round_no >= 2 * r:
                items.append((ECHO_TAG, h, alpha, m, r))
        for m, r in self._pending:
            if 2 * r == round_no:
                items.append((INIT_TAG, m, r))
        self._pending = [(m, r) for m, r in self._pending if 2 * r > round_no]
        return tuple(sorted(items, key=repr))

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------
    def note_message(
        self, sender_id: int, items: Iterable[Hashable], round_no: int
    ) -> None:
        """Tally one received physical message's broadcast items.

        Invalid messages (duplicate init/echo keys, inits claiming the
        wrong round, echoes from the future) are discarded wholesale.
        """
        count_message(
            self._round_inits, self._round_echoes, sender_id,
            validate_items(items, round_no),
        )

    def end_round(self, round_no: int) -> list[MultiplicityAccept]:
        """Apply the thresholds of Figure 6 lines 13-21 for this round."""
        tally = tally_round(
            self.n, self.t, round_no, self._round_inits, self._round_echoes
        )
        self._round_echoes = {}
        self._round_inits = {}
        self.apply(tally)
        return [
            MultiplicityAccept(
                ident=h, multiplicity=alpha, message=m, superround=r,
                accepted_superround=round_no // 2,
            )
            for (h, m, r), alpha in tally.accepts
        ]

    def apply(self, tally: "RoundTally") -> None:
        """Raise this process's counters by a round's tally.

        :meth:`end_round` applies the tally of the messages noted one by
        one; a host that tallies a whole inbox at once
        (:func:`tally_round` over :func:`count_message`) applies it here
        and reads the round's accepts from ``tally.accepts``.
        """
        a = self._a
        for key, alpha in tally.raises:
            if alpha > a.get(key, 0):
                a[key] = alpha

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def counter(self, ident: int, message: Hashable, superround: int) -> int:
        return self._a.get((ident, message, superround), 0)


# ----------------------------------------------------------------------
# Receive-side derivations shared by every receiver of a round
# ----------------------------------------------------------------------
class RoundTally(NamedTuple):
    """What one round's valid messages imply, for any receiver.

    ``raises`` are the counter floors of Figure 6 lines 13-18 in the
    order they apply (the even-round init seeds, then the ``n - 2t``
    echo supports); a receiver raises ``a[key]`` to each that exceeds
    it.  ``accepts`` are the round's lines 19-21 ``Accept(h, alpha, m,
    r)`` events as ``((h, m, r), alpha)`` pairs, ordered by the ``repr``
    of their key.  Neither depends on the receiver's own counters.
    """

    raises: tuple[tuple[tuple[int, Hashable, int], int], ...]
    accepts: tuple[tuple[tuple[int, Hashable, int], int], ...]


def tally_round(
    n: int,
    t: int,
    round_no: int,
    inits: dict[tuple[int, Hashable], int],
    echoes: dict[tuple[int, Hashable, int], list[int]],
) -> RoundTally:
    """Figure 6 lines 13-21 over one round's counted messages.

    Sorts the alpha lists of ``echoes`` in place.

    Args:
        n: The number of processes.
        t: The fault bound.
        round_no: The engine round.
        inits: ``(h, m) -> number of valid messages`` carrying the init
            (as :func:`count_message` fills it).
        echoes: ``(h, m, r) -> alphas`` from valid messages, in receipt
            order.

    Returns:
        The round's :class:`RoundTally`.
    """
    raises: list[tuple[tuple[int, Hashable, int], int]] = []
    # Lines 13-14: first round of a superround seeds a[..] from inits.
    if round_no % 2 == 0:
        r = round_no // 2
        raises.extend(((h, m, r), alpha) for (h, m), alpha in inits.items())
    # Lines 15-18: raise counters on n - 2t message support.
    low = n - 2 * t
    high = n - t
    odd = round_no % 2 == 1
    accepting: list[tuple[tuple[int, Hashable, int], int]] = []
    for key, alphas in echoes.items():
        if len(alphas) >= low:
            alphas.sort(reverse=True)
            raises.append((key, alphas[low - 1]))  # largest with n-2t support
            # Lines 19-21: accept on n - t support, odd rounds only.
            if odd and len(alphas) >= high:
                accepting.append((key, alphas[high - 1]))
    accepting.sort(key=lambda entry: repr(entry[0]))
    return RoundTally(tuple(raises), tuple(accepting))


def count_message(
    inits: dict[tuple[int, Hashable], int],
    echoes: dict[tuple[int, Hashable, int], list[int]],
    sender_id: int,
    valid: tuple[list[Hashable], dict] | None,
) -> None:
    """Add one received message's validated items to a round's counts.

    Args:
        inits: The round's init counts (updated).
        echoes: The round's echo alphas (updated).
        sender_id: The message's authenticated identifier.
        valid: The message's :func:`validate_items` answer; ``None``
            (an invalid message) counts nothing.
    """
    if valid is None:
        return
    for m in valid[0]:
        key = (int(sender_id), m)
        inits[key] = inits.get(key, 0) + 1
    for key, alpha in valid[1].items():
        echoes.setdefault(key, []).append(alpha)


def validate_items(items: Iterable[Hashable], round_no: int):
    """The paper's "valid message" predicate over one message's items.

    Returns ``(inits, echoes)`` -- the init messages ``m`` and the
    ``(h, m, r) -> alpha`` echoes -- or ``None`` for an invalid message.
    A pure function of the items and the round, so a host may share one
    answer among every receiver of the same items (which only read it).
    """
    inits: list[Hashable] = []
    echoes: dict[tuple[int, Hashable, int], int] = {}
    seen_init: set[Hashable] = set()
    for item in items:
        if not isinstance(item, tuple) or not item:
            continue  # foreign payload items ride in the same bundle
        if item[0] == INIT_TAG:
            if len(item) != 3 or not isinstance(item[2], int):
                return None
            _tag, m, r = item
            if 2 * r != round_no or m in seen_init:
                return None
            seen_init.add(m)
            inits.append(m)
        elif item[0] == ECHO_TAG:
            if len(item) != 5:
                return None
            _tag, h, alpha, m, r = item
            if not (
                isinstance(h, int)
                and isinstance(alpha, int)
                and isinstance(r, int)
            ):
                return None
            if alpha < 1 or round_no < 2 * r:
                return None
            key = (h, m, r)
            if key in echoes:
                return None
            echoes[key] = alpha
    return inits, echoes
