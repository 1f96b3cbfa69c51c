"""Partial synchrony: message-drop schedules (DLS basic model).

The paper adopts the *basic* partially synchronous model of Dwork,
Lynch and Stockmeyer: computation proceeds in rounds exactly as in the
synchronous model, except that in each execution a finite number of
messages between correct processes may fail to be delivered.
Equivalently, there is a round -- here called ``gst`` ("global
stabilisation time", borrowing the standard term) -- from which every
message is delivered.  Algorithms never learn ``gst``.

A :class:`DropSchedule` decides, per ``(round, sender, recipient)``
link, whether that message is lost.  Schedules guarantee finiteness
structurally: all of them stop dropping at their ``gst`` attribute and
the engine enforces this (a schedule that tried to drop later would be
a model violation).

Self-delivery is never dropped: a process's message to itself does not
traverse the network.

Byzantine messages are not subject to schedules -- the adversary simply
chooses what to send to whom, which subsumes dropping.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Collection, Sequence

import numpy as np

from repro.core.canonical import stable_seed
from repro.core.errors import ConfigurationError
from repro.sim import fabric


class DropSchedule(ABC):
    """Decides which correct-to-correct messages are lost before ``gst``."""

    def __init__(self, gst: int) -> None:
        if gst < 0:
            raise ConfigurationError(f"gst must be >= 0, got {gst}")
        self._gst = int(gst)

    @property
    def gst(self) -> int:
        """First round from which every message is delivered."""
        return self._gst

    def drops(self, round_no: int, sender: int, recipient: int) -> bool:
        """True when the message on this link is lost this round."""
        if round_no >= self._gst or sender == recipient:
            return False
        return self._drops_before_gst(round_no, sender, recipient)

    def active(self, round_no: int) -> bool:
        """True when this schedule may still lose messages in ``round_no``.

        The message fabric uses this to skip per-link drop queries
        entirely from the stabilisation round on -- the common case of
        every synchronous execution (``gst == 0``) and of every
        partially synchronous round after GST.
        """
        return round_no < self._gst

    def dropped_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        """The round's losses as one ``(receivers, senders)`` bool mask.

        The message fabric's batch form of :meth:`drops`: ``mask[i, j]``
        is True when ``senders[j]``'s message to ``receivers[i]`` is
        lost this round.  The default asks :meth:`drops` link by link,
        so predicate- or RNG-backed schedules (whose per-link decisions
        cannot be vectorized byte-identically) participate unchanged;
        structural schedules override it with real array ops.
        Self-links are never reported, and rounds at or past ``gst``
        yield the empty mask.

        Args:
            round_no: The current round.
            receivers: The receiving process indices (ascending).
            senders: Candidate sender indices (ascending).

        Returns:
            A fresh, writable numpy bool array.
        """
        if round_no >= self._gst:
            return fabric.new_mask(len(receivers), len(senders))
        return fabric.mask_from_links(
            lambda s, q: self.drops(round_no, s, q), receivers, senders
        )

    @abstractmethod
    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        """Drop decision for rounds strictly before ``gst``."""


class NoDrops(DropSchedule):
    """The synchronous special case: nothing is ever dropped."""

    def __init__(self) -> None:
        super().__init__(gst=0)

    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        return False  # pragma: no cover - unreachable (gst == 0)

    def dropped_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        return fabric.new_mask(len(receivers), len(senders))


class SilenceUntil(DropSchedule):
    """Every inter-process message is lost before ``gst``.

    The harshest schedule the model permits; termination proofs are
    exercised hardest here because nothing useful happens before
    stabilisation.
    """

    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        return True

    def dropped_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        if round_no >= self._gst:
            return fabric.new_mask(len(receivers), len(senders))
        recv = np.asarray(receivers, dtype=np.int64)
        send = np.asarray(senders, dtype=np.int64)
        # Everything but self-delivery is lost before gst.
        return recv[:, None] != send[None, :]


class PartitionSchedule(DropSchedule):
    """Two blocks of correct processes cannot hear each other before ``gst``.

    Messages inside a block are delivered; messages crossing between
    ``block_a`` and ``block_b`` are lost.  Processes in neither block
    communicate normally.  This is the schedule of the Figure 4 lower
    bound construction.
    """

    def __init__(self, gst: int, block_a: Collection[int], block_b: Collection[int]) -> None:
        super().__init__(gst)
        self.block_a = frozenset(block_a)
        self.block_b = frozenset(block_b)
        if self.block_a & self.block_b:
            raise ConfigurationError(
                f"partition blocks overlap: {sorted(self.block_a & self.block_b)}"
            )
        # Per-index block labels for dropped_mask: 1 (block_a), 2
        # (block_b) or 0 (neither); a sender's mirrored label is the
        # block it cannot reach (-1 for neither).  The last slot stands
        # for every index past the largest member.
        size = max(self.block_a | self.block_b | {0}) + 2
        self._label = np.zeros(size, dtype=np.int8)
        self._mirrored = np.full(size, -1, dtype=np.int8)
        for block, own, other in ((self.block_a, 1, 2), (self.block_b, 2, 1)):
            members = [k for k in block if k >= 0]
            self._label[members] = own
            self._mirrored[members] = other

    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        return (sender in self.block_a and recipient in self.block_b) or (
            sender in self.block_b and recipient in self.block_a
        )

    def dropped_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        if round_no >= self._gst:
            return fabric.new_mask(len(receivers), len(senders))
        last = len(self._label) - 1
        recv = np.minimum(np.asarray(receivers, dtype=np.int64), last)
        send = np.minimum(np.asarray(senders, dtype=np.int64), last)
        # A link is lost exactly when the receiver's label equals the
        # sender's mirrored one; the blocks are disjoint, so a self-link
        # never matches and the diagonal stays False.
        return np.equal.outer(self._label[recv], self._mirrored[send])


class RandomDrops(DropSchedule):
    """Each link-message before ``gst`` is lost independently with probability ``p``.

    Deterministic given the seed; used by the fuzzing layers of the test
    suite and benches.
    """

    def __init__(self, gst: int, p: float, seed: int = 0) -> None:
        super().__init__(gst)
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"drop probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)

    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        # Digest-seeded rather than a shared Random instance so the
        # decision for a link is independent of evaluation order, and
        # stable_seed (not the salted builtin hash) so it is identical
        # across interpreter runs.
        rng = random.Random(stable_seed((self.seed, round_no, sender, recipient)))
        return rng.random() < self.p


class ExplicitDrops(DropSchedule):
    """An explicit finite set of ``(round, sender, recipient)`` losses.

    The most surgical schedule; the replay-based lower-bound
    constructions compute exact drop sets and feed them here.
    """

    def __init__(self, drops: Collection[tuple[int, int, int]]) -> None:
        drop_set = frozenset(
            (int(r), int(s), int(q)) for r, s, q in drops
        )
        gst = max((r for r, _, _ in drop_set), default=-1) + 1
        super().__init__(gst)
        self._drop_set = drop_set

    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        return (round_no, sender, recipient) in self._drop_set

    def dropped_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        mask = fabric.new_mask(len(receivers), len(senders))
        if round_no >= self._gst:
            return mask
        row_of = {q: i for i, q in enumerate(receivers)}
        col_of = {s: j for j, s in enumerate(senders)}
        for r, s, q in sorted(self._drop_set):
            if r != round_no or s == q:
                continue
            i = row_of.get(q)
            j = col_of.get(s)
            if i is not None and j is not None:
                mask[i, j] = True
        return mask


class PredicateDrops(DropSchedule):
    """Adapter: an arbitrary predicate limited to rounds before ``gst``."""

    def __init__(self, gst: int, predicate: Callable[[int, int, int], bool]) -> None:
        super().__init__(gst)
        self._predicate = predicate

    def _drops_before_gst(self, round_no: int, sender: int, recipient: int) -> bool:
        return bool(self._predicate(round_no, sender, recipient))
