"""Authenticated broadcast primitives (Proposition 6, Figure 6), the
reliable-broadcast extension, and their kernel-driven runners."""

from repro.broadcast.authenticated import (
    Accept,
    AuthenticatedBroadcast,
    parse_broadcast_items,
)
from repro.broadcast.hosts import (
    AB_BUNDLE_TAG,
    MB_BUNDLE_TAG,
    AuthenticatedBroadcastHost,
    MultiplicityBroadcastHost,
)
from repro.broadcast.multiplicity import (
    MultiplicityAccept,
    MultiplicityBroadcast,
)
from repro.broadcast.reliable import (
    ReliableBroadcastProcess,
    reliable_broadcast_factory,
)
from repro.broadcast.runner import (
    BroadcastRun,
    run_authenticated_broadcast,
    run_multiplicity_broadcast,
    run_reliable_broadcast,
)

__all__ = [
    "AB_BUNDLE_TAG",
    "Accept",
    "AuthenticatedBroadcast",
    "AuthenticatedBroadcastHost",
    "BroadcastRun",
    "MB_BUNDLE_TAG",
    "MultiplicityAccept",
    "MultiplicityBroadcast",
    "MultiplicityBroadcastHost",
    "ReliableBroadcastProcess",
    "parse_broadcast_items",
    "reliable_broadcast_factory",
    "run_authenticated_broadcast",
    "run_multiplicity_broadcast",
    "run_reliable_broadcast",
]
