"""Inbox code retired from ``src/``, frozen as differential oracles.

Each function below once made a delivered inbox outside the message
fabric; the fabric's round table (:class:`~repro.sim.fabric.RoundTable`)
now builds all of them.  ``tests/test_heard.py`` pins the fabric
against these bodies message for message:

* :func:`rebuild_inbox` -- the simulated-correct adversaries' rebuild
  of an impostor's inbox from the trace: every correct payload of the
  round plus the Byzantine messages addressed to the slot, wrapped and
  sorted afresh (against
  :attr:`~repro.sim.adversary.AdversaryView.heard`);
* :func:`ghost_heard` -- the ghost rule ``GhostPlan.heard``: the
  visible correct payloads plus the ghost's own broadcast, sorted
  afresh;
* :func:`scratch_inboxes` -- the explorer's ``_post_states`` row
  inbox: the survivors of one loss row sorted afresh, then each delta
  merged in.
"""

from __future__ import annotations

from repro.core.messages import Inbox, Message


def rebuild_inbox(view, record, slot: int) -> Inbox:
    assignment = view.assignment
    messages = [
        Message(assignment.identifier_of(k), payload)
        for k, payload in record.payloads.items()
    ]
    for b, per_recipient in record.emissions.items():
        for payload in per_recipient.get(slot, ()):
            messages.append(Message(assignment.identifier_of(b), payload))
    return Inbox(messages, numerate=view.params.numerate)


def ghost_heard(visible, payloads, ident_of, slot: int, own,
                numerate: bool) -> Inbox:
    messages = [Message(ident_of(k), payload)
                for k, payload in payloads.items()
                if visible is None or k in visible]
    if own is not None:
        messages.append(Message(ident_of(slot), own))
    return Inbox(messages, numerate=numerate)


def scratch_inboxes(payloads, ident_of, numerate: bool, row,
                    deltas) -> list[Inbox]:
    senders = tuple(payloads)
    extras = [
        [(m.sort_key(), m) for m in (
            Message(ident_of(slot), p) for slot, p in delta
        )]
        for delta in deltas
    ]
    base = Inbox((
        Message(ident_of(s), payloads[s])
        for s, gone in zip(senders, row) if not gone
    ), numerate=numerate)
    keys = [m.sort_key() for m in base]
    members = None if numerate else set(base.messages())
    return [Inbox.merged(base, keys, extra, members) for extra in extras]
