"""Frozen pre-port broadcast execution, kept as differential oracles.

Before the kernel unification the broadcast test-suites built their
hosts and drove them through hand-rolled loops over the pre-fabric
per-receiver delivery path.  These functions reproduce exactly that
execution on :class:`~tests.oracles.network.ReferenceRoundEngine`, so
``tests/test_kernel_conformance.py`` can pin the kernelised
:mod:`repro.broadcast.runner` entry points' inboxes, traces,
deliveries and accepts against the old semantics.  They take the
default assignments and the runners' default broadcast rounds, and the
basic model only (``drop_schedule``), not arbitrary timing models.
"""

from __future__ import annotations

from repro.broadcast.hosts import (
    AuthenticatedBroadcastHost,
    MultiplicityBroadcastHost,
)
from repro.broadcast.reliable import ReliableBroadcastProcess
from repro.broadcast.runner import BroadcastRun
from repro.core.identity import balanced_assignment, stacked_assignment
from repro.core.params import SystemParams
from repro.sim.metrics import metrics_from_deliveries
from tests.oracles.network import ReferenceRoundEngine


def _drive(params, assignment, host, byzantine=(), adversary=None,
           drop_schedule=None, rounds=10):
    processes = [
        None if k in byzantine else host(assignment.identifier_of(k), k)
        for k in range(params.n)
    ]
    engine = ReferenceRoundEngine(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary,
        drop_schedule=drop_schedule,
    )
    executed = engine.run(max_rounds=rounds, stop_when_all_decided=True)
    return BroadcastRun(
        params=params,
        assignment=assignment,
        byzantine=engine.byzantine,
        processes=processes,
        trace=engine.trace,
        metrics=metrics_from_deliveries(engine.deliveries),
        deliveries=tuple(engine.deliveries),
        losses=tuple(engine.losses),
        ticks=engine.timing.ticks_executed(executed),
        rounds_executed=executed,
    )


def run_authenticated_broadcast_reference(n, ell, t, **kwargs):
    """The pre-port authenticated-broadcast loop: every slot broadcasts
    its own index in superround 0."""
    return _drive(
        SystemParams(n=n, ell=ell, t=t), balanced_assignment(n, ell),
        lambda ident, k: AuthenticatedBroadcastHost(ident, ell, t, value=k),
        **kwargs,
    )


def run_reliable_broadcast_reference(n, ell, t, sender_ident,
                                     values_by_slot, rounds=14, **kwargs):
    """The pre-port reliable-broadcast loop from superround 0."""
    return _drive(
        SystemParams(n=n, ell=ell, t=t), balanced_assignment(n, ell),
        lambda ident, k: ReliableBroadcastProcess(
            ell, t, ident, sender_ident,
            proposal=values_by_slot.get(k) if ident == sender_ident else None,
        ),
        rounds=rounds, **kwargs,
    )


def run_multiplicity_broadcast_reference(n, ell, t, broadcaster_ident,
                                         rounds=8, **kwargs):
    """The pre-port multiplicity-broadcast loop: the holders of
    ``broadcaster_ident`` broadcast ``"m"`` in superround 0."""
    return _drive(
        SystemParams(n=n, ell=ell, t=t, numerate=True, restricted=True),
        stacked_assignment(n, ell),
        lambda ident, k: MultiplicityBroadcastHost(
            ident, n, t, value="m" if ident == broadcaster_ident else None
        ),
        rounds=rounds, **kwargs,
    )
