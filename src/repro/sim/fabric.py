"""The array-native message fabric: where every delivered inbox is built.

:class:`~repro.sim.kernel.ExecutionKernel` is the one execution loop of
the whole package -- every surface (scenario, classic, broadcast,
explorer, atlas, soak) rides it -- so its per-round delivery is *the*
hot path of the system.  What a process hears in a round is exactly
the authenticated ``(identifier, payload)`` pairs delivered to it (a
set when innumerate, a multiset when numerate), and this module is the
one place that builds it:

* :class:`RoundTable` sorts one round's correct broadcasts once and
  builds from them every inbox of the round.  Kernel receivers, the
  impostors' ``heard`` map, the explorer's scratch deliveries
  (:mod:`repro.explore.search`) and the ghosts' restricted views
  (:meth:`GhostPlan.heard <repro.explore.alphabet.GhostPlan.heard>`)
  all take their inbox from a table.
* :func:`deliver_round` runs one kernel round on top of its table.  On
  rounds where the timing model may remove edges
  (:meth:`~repro.sim.kernel.TimingModel.active`), the removal decision
  is a single ``(n_receivers, n_senders)`` boolean mask obtained in one
  batch call (:meth:`~repro.sim.kernel.TimingModel.removed_mask`), and
  past one ``any`` pass only the columns that remove something are
  read.  This is what pushes the kernel from n ~ 64 into the
  thousands.  Inactive rounds build no mask and make no numpy call at
  all.

numpy is a hard dependency.  The fabric is pinned byte-identical to the
frozen pure-Python oracles in ``tests/oracles/`` (the pre-fabric round
engine and the per-message delay loop) by ``tests/test_fabric.py`` and
the ``tests/test_kernel_conformance.py`` grid.

Determinism: mask rows are materialised in ascending receiver order,
survivor inboxes preserve the canonical message order, and loss triples
are logged in (receiver-ascending, sender-ascending) order per round.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import ne
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.core.messages import Inbox, Message
from repro.sim.metrics import RoundDeliveries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel -> fabric)
    from repro.sim.kernel import ExecutionKernel

def array_path_enabled() -> bool:
    """True: every delivery runs through the array fabric.

    Kept so benchmark environment records can keep naming the path.
    """
    return True


def require_numpy():
    """The numpy module (a hard dependency of the package)."""
    return np


# ----------------------------------------------------------------------
# Mask construction helpers
# ----------------------------------------------------------------------
def new_mask(n_receivers: int, n_senders: int):
    """A fresh all-False ``(n_receivers, n_senders)`` boolean mask."""
    return np.zeros((n_receivers, n_senders), dtype=bool)


def mask_from_links(
    removed: Callable[[int, int], bool],
    receivers: Sequence[int],
    senders: Sequence[int],
):
    """Build a removal mask link by link from a per-link predicate.

    The default-implementation bridge the vectorized protocol rests on:
    :meth:`Topology.blocked_mask
    <repro.sim.topology.Topology.blocked_mask>` and
    :meth:`DropSchedule.dropped_mask
    <repro.sim.partial.DropSchedule.dropped_mask>` fall back to it, so a
    topology or schedule that only defines its per-link primitive
    (``delivers`` / ``drops``) participates in the array fabric
    unchanged.  Self-links are never queried nor reported; the
    predicate is evaluated in (receiver-ascending, sender-ascending)
    order.

    Args:
        removed: ``(sender, recipient) -> bool``, True when the link
            loses its message.
        receivers: Receiving process indices (ascending).
        senders: This round's composing senders (ascending).

    Returns:
        The boolean removal mask, ``mask[i, j]`` True when
        ``senders[j]`` misses ``receivers[i]``.
    """
    rows = [[s != q and removed(s, q) for s in senders] for q in receivers]
    return np.array(rows, dtype=bool).reshape(len(receivers), len(senders))


# ----------------------------------------------------------------------
# The round table: every delivered inbox
# ----------------------------------------------------------------------
#: A message with its ``(identifier, repr)`` sort key.
Keyed = tuple[tuple[int, str], Message]


def keyed(ident: int, payload: Hashable) -> Keyed:
    """``payload`` from ``ident`` as a :meth:`RoundTable.inbox` extra."""
    return (ident, repr(payload)), Message(ident, payload)


class RoundTable:
    """One round's correct broadcasts and every inbox built from them.

    The *canonical base* -- one message per broadcast (per homonym
    class when innumerate) -- is keyed by ``(identifier, repr)`` and
    sorted once.  From it the table builds, each once: the *survivor
    group* per distinct set of removed senders (:meth:`group`), and the
    *merged* inbox per distinct group and extra message objects
    (:meth:`inbox`; :meth:`Inbox.merged
    <repro.core.messages.Inbox.merged>`, never re-sorted).  Callers
    with the same group and extras share the inbox object, so receive
    paths that memoise per inbox object (:mod:`repro.core.memo`) tally
    it once.

    Args:
        payloads: The round's correct payloads (ascending sender).
        ids: ``process index -> identifier``.
        numerate: Multiset (True) or set (False) delivery.
    """

    def __init__(
        self,
        payloads: Mapping[int, Hashable],
        ids: Sequence[int],
        numerate: bool,
    ) -> None:
        self.numerate = numerate
        #: The broadcasting senders (ascending); :meth:`group` names
        #: removed senders by their position in this tuple.
        self.senders = senders = tuple(payloads)
        n_send = len(senders)
        self._idents = idents = list(map(ids.__getitem__, senders))
        self._values = values = list(payloads.values())
        self._reprs = reprs = list(map(repr, values))
        keys = list(zip(idents, reprs))
        #: Each broadcast's byte size (the length of its ``repr``,
        #: :func:`~repro.sim.metrics.payload_size`).
        self.sizes = list(map(len, reprs))
        if numerate:
            self._cls = None
            reps = range(n_send)
        else:
            # Homonym collapse: each column maps to the first column
            # carrying an equal message, which represents it.
            first: dict[tuple[int, Hashable], int] = {}
            self._cls = list(
                map(first.setdefault, zip(idents, values), range(n_send))
            )
            reps = first.values()
        self._order = order = sorted(reps, key=keys.__getitem__)
        self._canonical = canonical = tuple(
            Message(idents[j], values[j]) for j in order
        )
        self._ckeys = [keys[j] for j in order]
        # Per group: its inbox, the inbox's sort keys, and (innumerate,
        # from the first merge on) its members.  Group 0 is the base.
        self._groups: dict[bytes, int] = {b"": 0}
        self._built = [[
            Inbox.from_canonical(canonical, numerate), self._ckeys, None
        ]]
        # The extras are kept with their inbox, so the ids in the keys
        # stay unique while the table lives.
        self._merged: dict[tuple, tuple[Inbox, Sequence[Keyed]]] = {}

    def group(self, removed: Sequence[int] | np.ndarray) -> int:
        """The survivor group missing ``senders[j]`` for each ``j`` in
        ``removed`` (ascending); ``()`` is the base, group 0."""
        cols = np.asarray(removed, dtype=np.intp)
        key = cols.tobytes()
        g = self._groups.get(key)
        if g is None:
            g = self._groups[key] = len(self._built)
            self._built.append(self._survivors(cols))
        return g

    def inbox(self, group: int, extra: Sequence[Keyed] | None) -> Inbox:
        """The ``group``'s inbox with ``extra`` (:func:`keyed` messages,
        in delivery order) merged in.  Innumerate merges drop extras
        equal to a survivor or to an earlier extra, as the set collapse
        would."""
        built = self._built[group]
        if not extra:
            return built[0]
        signature = (group, *map(id, extra))
        hit = self._merged.get(signature)
        if hit is None:
            inbox, keys, members = built
            if members is None and not self.numerate:
                members = built[2] = set(inbox.messages())
            hit = self._merged[signature] = (
                Inbox.merged(inbox, keys, extra, members), extra
            )
        return hit[0]

    def _survivors(self, cols: np.ndarray) -> list:
        """A group's ``[inbox, sort keys, members]``: canonical position
        ``p`` survives while some column mapping to it is kept."""
        pos, class_size, mixed = self._survival
        if mixed:
            gone = set(cols.tolist())
            inbox = Inbox((
                Message(ident, value) for j, (ident, value)
                in enumerate(zip(self._idents, self._values))
                if j not in gone
            ), self.numerate)
            return [inbox, [m.sort_key() for m in inbox], None]
        lost_of = np.bincount(pos[cols], minlength=len(class_size))
        present = (class_size > lost_of).tolist()
        inbox = Inbox.from_canonical(
            tuple(compress(self._canonical, present)), self.numerate
        )
        return [inbox, list(compress(self._ckeys, present)), None]

    @cached_property
    def _survival(self) -> tuple:
        """``(pos, class_size, mixed)``: each column's canonical
        position, each position's column count, and whether survivor
        groups are sorted in full: a homonym class of equal payloads
        with unequal reprs (1 / True / 1.0) shows its first *surviving*
        copy, which may sort elsewhere than the canonical one."""
        order, cls, reprs = self._order, self._cls, self._reprs
        rank = np.empty(len(self.senders), dtype=np.intp)
        rank[order] = np.arange(len(order))
        pos = rank if cls is None else rank[cls]
        class_size = np.bincount(pos, minlength=len(order))
        mixed = cls is not None and any(
            map(ne, reprs, map(reprs.__getitem__, cls))
        )
        return pos, class_size, mixed


# ----------------------------------------------------------------------
# Round delivery
# ----------------------------------------------------------------------
def _adversary_deltas(
    ids: Sequence[int],
    emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
) -> dict[int, list[Keyed]]:
    """Per-recipient adversary messages, keyed (recipient -> messages).

    Each ``(identifier, payload object)`` is keyed and wrapped once per
    round, however many recipients it goes to: recipients of the same
    payloads hold the same keyed entries (the emissions keep every
    payload alive for the round, so its ``id`` is stable).
    """
    made: dict[tuple[int, int], Keyed] = {}
    additions: dict[int, list[Keyed]] = {}
    for b, per_recipient in emissions.items():
        ident = ids[b]
        for q, batch in per_recipient.items():
            extra = additions.setdefault(q, [])
            for p in batch:
                entry = made.get((ident, id(p)))
                if entry is None:
                    entry = made[ident, id(p)] = keyed(ident, p)
                extra.append(entry)
    return additions


def _removals(
    kernel: "ExecutionKernel",
    round_no: int,
    senders: tuple[int, ...],
    sizes: list[int],
):
    """One active round's removals, accounted column by column.

    Only the mask's *removing* columns (senders some receiver misses)
    are looked at past the first ``any`` pass: their per-column counts
    give the edge and byte totals, their row-major ``nonzero`` the loss
    log, and their packed rows the grouping of receivers by distinct
    mask row.

    Returns:
        ``None`` when the mask removes nothing; otherwise ``(edges,
        bytes, row_of, lost)``: the removed edge and byte totals,
        each receiver's distinct-row id, and per distinct row the
        removed sender columns (ascending; empty for the no-removal
        row).
    """
    receivers = kernel._correct
    mask = kernel.timing.removed_mask(round_no, receivers, senders)
    cols = np.flatnonzero(mask.any(axis=0))
    if not cols.size:
        return None
    # A column gather copies; when every column removes, read the mask.
    sub = mask if cols.size == len(senders) else mask.take(cols, axis=1)
    per_col = sub.sum(axis=0)
    edges = int(per_col.sum())
    nbytes = int(per_col @ np.asarray(sizes, dtype=np.int64)[cols])
    if kernel.timing.logs_losses:
        # Row-major nonzero over ascending columns: receiver-ascending,
        # sender-ascending.  The triples reuse the index tuples' ints.
        rows, at = np.nonzero(sub)
        lost_senders = [senders[c] for c in cols.tolist()]
        kernel.losses.extend(zip(
            repeat(round_no),
            map(lost_senders.__getitem__, at.tolist()),
            map(receivers.__getitem__, rows.tolist()),
        ))
    packed = np.packbits(sub, axis=1)
    row_ids = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, group_of = np.unique(
        row_ids, return_index=True, return_inverse=True
    )
    lost = [cols[sub[r]] for r in first.tolist()]
    return edges, nbytes, group_of.tolist(), lost


def deliver_round(
    kernel: "ExecutionKernel",
    round_no: int,
    payloads: Mapping[int, Hashable],
    emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
) -> RoundDeliveries:
    """Deliver one round: one sort, one mask, shared inboxes.

    The inboxes come from the round's :class:`RoundTable` (one sort;
    one survivor group per distinct mask row; one merge per distinct
    group and delta).  On top of it this function owns:

    * *removal decisions* -- on active rounds, one ``(receivers,
      senders)`` boolean mask from the timing model; inactive rounds
      skip it entirely;
    * *accounting* -- delivered-edge and byte totals come from the
      per-column counts of the columns that remove something, and the
      loss log from ``np.nonzero`` over those columns only;
    * the *heard* map -- each Byzantine slot hears the base (the
      adversary is full-information) merged with the messages addressed
      to it (:attr:`~repro.sim.adversary.AdversaryView.heard`).

    Args:
        kernel: The executing kernel (mutated: processes receive
            inboxes, losses are appended when the timing model logs
            them, ``kernel._heard`` is replaced).
        round_no: The current round.
        payloads: This round's correct payloads (ascending index).
        emissions: Normalized Byzantine emissions.

    Returns:
        The round's :class:`~repro.sim.metrics.RoundDeliveries` record.
    """
    ids = kernel.assignment.ids
    table = RoundTable(payloads, ids, kernel.params.numerate)
    n_send = len(table.senders)
    receivers = kernel._correct
    n_recv = len(receivers)
    correct_deliveries = n_recv * n_send
    correct_bytes = n_recv * sum(table.sizes)
    row_of, row_group = repeat(0), [0]
    removal = (
        _removals(kernel, round_no, table.senders, table.sizes)
        if kernel.timing.active(round_no) else None
    )
    if removal is not None:
        edges, nbytes, row_of, lost = removal
        correct_deliveries -= edges
        correct_bytes -= nbytes
        row_group = list(map(table.group, lost))
    row_inbox = [table.inbox(g, None) for g in row_group]

    additions = _adversary_deltas(ids, emissions)
    byz_deliveries = 0
    byz_bytes = 0
    processes = kernel.processes
    for q, row in zip(receivers, row_of):
        inbox = row_inbox[row]
        extra = additions.get(q)
        if extra is not None:
            byz_deliveries += len(extra)
            byz_bytes += sum(len(text) for (_, text), _ in extra)
            inbox = table.inbox(row_group[row], extra)
        processes[q].deliver(round_no, inbox)
    kernel._heard = {
        b: table.inbox(0, additions.get(b)) for b in kernel.byzantine
    }

    return RoundDeliveries(
        round_no=round_no,
        correct_broadcasts=n_send,
        correct_deliveries=correct_deliveries,
        byzantine_deliveries=byz_deliveries,
        correct_payload_bytes=correct_bytes,
        byzantine_payload_bytes=byz_bytes,
    )
