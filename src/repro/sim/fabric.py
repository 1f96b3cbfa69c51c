"""The array-native message fabric: vectorized round delivery.

:class:`~repro.sim.kernel.ExecutionKernel` is the one execution loop of
the whole package -- every surface (scenario, classic, broadcast,
explorer, atlas, soak) rides it -- so its per-round delivery is *the*
hot path of the system.  This module owns that path, as one function,
:func:`deliver_round`:

* every round materialises its *canonical base* once -- one message
  per broadcast, keyed by ``(identifier, repr)`` once and sorted a
  single time on those keys, the ``repr`` doubling as the byte size --
  and every receiver without an adversary delta or a removal shares
  that one inbox; adversary deltas are merged into the sorted base
  (:meth:`Inbox.merged <repro.core.messages.Inbox.merged>`), never
  re-sorted with it;
* on rounds where the timing model may remove edges
  (:meth:`~repro.sim.kernel.TimingModel.active`), the removal decision
  is a single ``(n_receivers, n_senders)`` boolean mask obtained in one
  batch call (:meth:`~repro.sim.kernel.TimingModel.removed_mask`).
  Past one ``any`` pass only the columns that remove something are
  read: their per-column counts give delivered edges and bytes, their
  ``nonzero`` the loss log, and receivers whose rows coincide *share*
  one survivor inbox.  This is what pushes the kernel from n ~ 64 into
  the thousands.  Inactive rounds build no mask and make no numpy call
  at all.

numpy is a hard dependency.  The fabric is pinned byte-identical to the
frozen pure-Python oracles
(:class:`~repro.sim.network.ReferenceRoundEngine`,
:class:`~repro.sim.delay.ReferenceDelaySimulator`) by
``tests/test_fabric.py`` and the ``tests/test_kernel_conformance.py``
grid.

Determinism: mask rows are materialised in ascending receiver order,
survivor inboxes preserve the canonical message order, and loss triples
are logged in (receiver-ascending, sender-ascending) order per round.
"""

from __future__ import annotations

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
# Round delivery
# ----------------------------------------------------------------------
#: A message with its ``(identifier, repr)`` sort key.
_Keyed = tuple[tuple[int, str], Message]


def _adversary_deltas(
    ids: Sequence[int],
    emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
) -> dict[int, list[_Keyed]]:
    """Per-recipient adversary messages, keyed (recipient -> messages)."""
    additions: dict[int, list[_Keyed]] = {}
    for b, per_recipient in emissions.items():
        ident = ids[b]
        for q, batch in per_recipient.items():
            additions.setdefault(q, []).extend(
                ((ident, repr(p)), Message(ident, p)) for p in batch
            )
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
        bytes, group_of, lost)``: the removed edge and byte totals,
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

    The round's cost centres are batched:

    * *canonical base* -- each broadcast's ``(identifier, repr)`` key
      is computed once and the base sorted once on those keys; the same
      ``repr`` gives the byte size
      (:func:`~repro.sim.metrics.payload_size`);
    * *removal decisions* -- on active rounds, one ``(receivers,
      senders)`` boolean mask from the timing model; inactive rounds
      skip it entirely;
    * *accounting* -- delivered-edge and byte totals come from the
      per-column counts of the columns that remove something, and the
      loss log from ``np.nonzero`` over those columns only;
    * *inbox stamping* -- receivers without a removal or adversary
      delta share the canonical base inbox; receivers with identical
      mask rows share one survivor inbox, built once per *distinct*
      row from each canonical message's position; adversary deltas are
      merged into the receiver's (shared) base with
      :meth:`Inbox.merged <repro.core.messages.Inbox.merged>`.

    Args:
        kernel: The executing kernel (mutated: processes receive
            inboxes, losses are appended when the timing model logs
            them).
        round_no: The current round.
        payloads: This round's correct payloads (ascending index).
        emissions: Normalized Byzantine emissions.

    Returns:
        The round's :class:`~repro.sim.metrics.RoundDeliveries` record.
    """
    numerate = kernel.params.numerate
    ids = kernel.assignment.ids

    # The base: one message per broadcast, keyed once, sorted once.
    senders = tuple(payloads)  # ascending (composed over sorted indices)
    n_send = len(senders)
    idents = list(map(ids.__getitem__, senders))
    values = list(payloads.values())
    reprs = list(map(repr, values))
    keys = list(zip(idents, reprs))
    sizes = list(map(len, reprs))
    if numerate:
        cls = None
        reps = range(n_send)
    else:
        # Homonym collapse: each column maps to the first column
        # carrying an equal message, which represents it.
        first: dict[tuple[int, Hashable], int] = {}
        cls = list(map(first.setdefault, zip(idents, values), range(n_send)))
        reps = first.values()
    order = sorted(reps, key=keys.__getitem__)
    canonical = tuple(Message(idents[j], values[j]) for j in order)
    zero_inbox = Inbox.from_canonical(canonical, numerate)

    receivers = kernel._correct
    n_recv = len(receivers)
    correct_deliveries = n_recv * n_send
    correct_bytes = n_recv * sum(sizes)
    # Receivers grouped by distinct mask row: the group's inbox and,
    # for survivor rows, which canonical positions survive; the keys
    # and members merges need are filled in per group on first use.
    group_of = repeat(0)
    group_inboxes: list[Inbox] = [zero_inbox]
    group_present: list[list[bool] | None] = [None]
    merge_bases: dict[int, tuple] = {}
    removal = (
        _removals(kernel, round_no, senders, sizes)
        if kernel.timing.active(round_no) else None
    )
    if removal is not None:
        edges, nbytes, group_of, lost = removal
        correct_deliveries -= edges
        correct_bytes -= nbytes
        # pos[j]: canonical position of column j's message; a position
        # survives a row while some column mapping to it is kept.
        rank = np.empty(n_send, dtype=np.intp)
        rank[order] = np.arange(len(order))
        pos = rank if cls is None else rank[cls]
        class_size = np.bincount(pos, minlength=len(canonical))
        # A homonym class holding equal payloads with unequal reprs
        # (1 / True / 1.0) shows its first *surviving* copy, which may
        # sort elsewhere than the canonical one: such rounds sort their
        # survivor rows in full.
        mixed = cls is not None and any(
            map(ne, reprs, map(reprs.__getitem__, cls))
        )
        group_inboxes, group_present = [], []
        for g, cols in enumerate(lost):
            present = None
            if not cols.size:
                inbox = zero_inbox
            elif mixed:
                kept = np.ones(n_send, dtype=bool)
                kept[cols] = False
                inbox = Inbox((
                    Message(idents[j], values[j])
                    for j in np.flatnonzero(kept).tolist()
                ), numerate)
                merge_bases[g] = (
                    [m.sort_key() for m in inbox], set(inbox.messages())
                )
            else:
                lost_of = np.bincount(pos[cols], minlength=len(canonical))
                present = (class_size > lost_of).tolist()
                inbox = Inbox.from_canonical(
                    tuple(compress(canonical, present)), numerate
                )
            group_inboxes.append(inbox)
            group_present.append(present)

    additions = _adversary_deltas(ids, emissions)
    if additions:
        ckeys = [keys[j] for j in order]
    byz_deliveries = 0
    byz_bytes = 0
    processes = kernel.processes
    for q, g in zip(receivers, group_of):
        inbox = group_inboxes[g]
        extra = additions.get(q)
        if extra is not None:
            byz_deliveries += len(extra)
            byz_bytes += sum(len(text) for (_, text), _ in extra)
            merge_base = merge_bases.get(g)
            if merge_base is None:
                present = group_present[g]
                merge_base = merge_bases[g] = (
                    ckeys if present is None
                    else list(compress(ckeys, present)),
                    None if numerate else set(inbox.messages()),
                )
            inbox = Inbox.merged(inbox, merge_base[0], extra, merge_base[1])
        processes[q].deliver(round_no, inbox)

    return RoundDeliveries(
        round_no=round_no,
        correct_broadcasts=n_send,
        correct_deliveries=correct_deliveries,
        byzantine_deliveries=byz_deliveries,
        correct_payload_bytes=correct_bytes,
        byzantine_payload_bytes=byz_bytes,
    )
