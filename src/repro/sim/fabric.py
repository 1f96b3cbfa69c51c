"""The array-native message fabric: vectorized round delivery.

:class:`~repro.sim.kernel.ExecutionKernel` is the one execution loop of
the whole package -- every surface (scenario, classic, broadcast,
explorer, atlas, soak) rides it -- so its per-round delivery is *the*
hot path of the system.  This module owns that path, as one function,
:func:`deliver_round`:

* every round materialises its *canonical base* once -- one message
  per broadcast, sorted a single time -- and every receiver without an
  adversary delta or a removal shares that one inbox;
* on rounds where the timing model may remove edges
  (:meth:`~repro.sim.kernel.TimingModel.active`), the removal decision
  is a single ``(n_receivers, n_senders)`` boolean mask obtained in one
  batch call (:meth:`~repro.sim.kernel.TimingModel.removed_mask`);
  delivery, byte and loss accounting become mask-sum arithmetic, and
  receivers whose mask rows coincide *share* one survivor inbox.  This
  is what pushes the kernel from n ~ 64 into the thousands.  Inactive
  rounds build no mask and make no numpy call at all.

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

from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.core.messages import Inbox, Message
from repro.sim.metrics import RoundDeliveries, payload_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel -> fabric)
    from repro.sim.kernel import ExecutionKernel

#: The per-kernel payload-size memo is cleared past this many distinct
#: payloads so multi-hour soak runs cannot grow it without bound.
_SIZE_CACHE_LIMIT = 4096


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


def memoized_payload_size(cache: dict, payload: Hashable) -> int:
    """:func:`~repro.sim.metrics.payload_size`, memoized across rounds.

    Round-based protocols re-send structurally identical payloads for
    many (sender, round) pairs; the ``repr`` walk behind the byte
    accounting is pure, so one computation per distinct payload
    suffices.  The cache key carries the payload's type because equal
    values of different types (``1`` / ``1.0`` / ``True``) have
    different reprs and therefore different sizes.

    Args:
        cache: The per-kernel memo dict (bounded: cleared past
            ``_SIZE_CACHE_LIMIT`` entries).
        payload: A hashable message payload.

    Returns:
        The approximate wire size of ``payload``.
    """
    key = (payload.__class__, payload)
    size = cache.get(key)
    if size is None:
        if len(cache) >= _SIZE_CACHE_LIMIT:
            cache.clear()
        size = payload_size(payload)
        cache[key] = size
    return size


# ----------------------------------------------------------------------
# Round delivery
# ----------------------------------------------------------------------
def _adversary_deltas(
    kernel: "ExecutionKernel",
    emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
) -> dict[int, list[Message]]:
    """Per-recipient adversary message lists (recipient -> messages)."""
    ident_of = kernel.assignment.identifier_of
    additions: dict[int, list[Message]] = {}
    for b, per_recipient in emissions.items():
        ident = ident_of(b)
        for q, batch in per_recipient.items():
            additions.setdefault(q, []).extend(Message(ident, p) for p in batch)
    return additions


def _survivors_of(
    base: list[Message], canonical: tuple[Message, ...], numerate: bool
) -> Callable:
    """``keep row -> surviving canonical messages``, for one round.

    ``canonical`` is the sorted base; a mask row selects a subsequence
    of it, so per-row work is one compress pass, not a re-sort.  The
    fragments behind the pass are computed once, here.
    """
    if numerate:
        # canonical[j] is base[order[j]]: survivors of a row are the
        # canonical positions whose originating column is kept.
        order = np.asarray(
            sorted(range(len(base)), key=lambda j: base[j].sort_key()),
            dtype=np.intp,
        )
        return lambda keep: [
            m for m, k in zip(canonical, keep[order].tolist()) if k
        ]
    # Homonym collapse: a canonical message survives while any of its
    # duplicate-sending columns does.
    columns_of: dict[Message, list[int]] = {}
    for j, m in enumerate(base):
        columns_of.setdefault(m, []).append(j)
    uniq_cols = [np.asarray(columns_of[m], dtype=np.intp) for m in canonical]
    return lambda keep: [
        m for m, cols in zip(canonical, uniq_cols) if keep[cols].any()
    ]


def deliver_round(
    kernel: "ExecutionKernel",
    round_no: int,
    payloads: Mapping[int, Hashable],
    emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
) -> RoundDeliveries:
    """Deliver one round: one mask decides the removals, rows share inboxes.

    The round's cost centres are batched:

    * *removal decisions* -- on active rounds, one ``(receivers,
      senders)`` boolean mask from the timing model; inactive rounds
      skip it entirely;
    * *accounting* -- delivered-edge and byte totals are mask sums and
      the loss log is ``np.nonzero`` of the mask;
    * *inbox stamping* -- receivers without a removal or adversary
      delta share the round's canonical base inbox; receivers with
      identical mask rows share one survivor inbox, built once per
      *distinct* row by compressing that base.

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
    ident_of = kernel.assignment.identifier_of
    timing = kernel.timing
    size_cache = kernel._size_cache

    # The common base: one message per broadcast, canonicalised once.
    senders = tuple(payloads)  # ascending (composed over sorted indices)
    n_send = len(senders)
    base = [Message(ident_of(s), payloads[s]) for s in senders]
    sizes = [memoized_payload_size(size_cache, payloads[s]) for s in senders]
    base_bytes = sum(sizes)
    canonical = Inbox(base, numerate=numerate).messages()

    additions = _adversary_deltas(kernel, emissions)

    receivers = kernel._correct
    n_recv = len(receivers)
    correct_deliveries = n_recv * n_send
    correct_bytes = n_recv * base_bytes
    mask = None
    row_removes = None  # per receiver: does its mask row remove anything
    if timing.active(round_no):
        mask = timing.removed_mask(round_no, receivers, senders)
        removed_total = int(mask.sum())
        if removed_total:
            correct_deliveries -= removed_total
            correct_bytes -= int(
                (mask * np.asarray(sizes, dtype=np.int64)).sum()
            )
            if timing.logs_losses:
                # Row-major nonzero: receiver-ascending, sender-ascending.
                rows, cols = np.nonzero(mask)
                kernel.losses.extend(
                    (round_no, senders[c], receivers[r])
                    for r, c in zip(rows.tolist(), cols.tolist())
                )
            row_removes = mask.any(axis=1).tolist()
            survivors = _survivors_of(base, canonical, numerate)

    zero_inbox = Inbox.from_canonical(canonical, numerate)
    row_inboxes: dict[bytes, Inbox] = {}
    byz_deliveries = 0
    byz_bytes = 0
    processes = kernel.processes
    for i, q in enumerate(receivers):
        row = mask[i] if row_removes is not None and row_removes[i] else None
        extra = additions.get(q)
        if extra is None:
            if row is None:
                inbox = zero_inbox
            else:
                key = row.tobytes()
                inbox = row_inboxes.get(key)
                if inbox is None:
                    inbox = Inbox.from_canonical(
                        tuple(survivors(~row)), numerate
                    )
                    row_inboxes[key] = inbox
            processes[q].deliver(round_no, inbox)
            continue
        # Adversary-delta receivers: assemble and sort per receiver.
        if row is None:
            messages = list(base)
        else:
            messages = [m for m, lost in zip(base, row.tolist()) if not lost]
        messages.extend(extra)
        byz_deliveries += len(extra)
        byz_bytes += sum(
            memoized_payload_size(size_cache, m.payload) for m in extra
        )
        processes[q].deliver(round_no, Inbox(messages, numerate=numerate))

    return RoundDeliveries(
        round_no=round_no,
        correct_broadcasts=n_send,
        correct_deliveries=correct_deliveries,
        byzantine_deliveries=byz_deliveries,
        correct_payload_bytes=correct_bytes,
        byzantine_payload_bytes=byz_bytes,
    )
