"""The impostor's pre-fabric inbox rebuild, frozen as a differential oracle.

Before the message fabric built each Byzantine slot's inbox, the
simulated-correct adversaries rebuilt it from the trace: every correct
payload of the round plus the Byzantine messages addressed to the slot,
wrapped and sorted afresh.  ``tests/test_heard.py`` pins
:attr:`~repro.sim.adversary.AdversaryView.heard` against it, message
for message.
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
