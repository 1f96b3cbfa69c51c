"""Kernel-driven execution of the broadcast protocol layers.

Before the kernel unification each broadcast test-suite hand-rolled its
own engine loop.  These runners put all three primitives -- the
Proposition 6 authenticated broadcast, the reliable-broadcast
extension, and the Figure 6 multiplicity broadcast -- on
:class:`~repro.sim.kernel.ExecutionKernel`: one delivery semantics,
delivery metrics for free, and a pluggable
:class:`~repro.sim.kernel.TimingModel` (``timing=``: lock-step rounds
by default, :class:`~repro.sim.kernel.BasicPsync` for basic-model
losses, :class:`~repro.sim.kernel.DelayBased` for the delay-based
formulations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.broadcast.hosts import (
    AuthenticatedBroadcastHost,
    MultiplicityBroadcastHost,
)
from repro.broadcast.reliable import ReliableBroadcastProcess
from repro.core.identity import (
    IdentityAssignment,
    balanced_assignment,
    stacked_assignment,
)
from repro.core.params import SystemParams
from repro.sim.adversary import Adversary
from repro.sim.kernel import ExecutionKernel, TimingModel
from repro.sim.metrics import Metrics, RoundDeliveries, metrics_from_deliveries
from repro.sim.process import Process
from repro.sim.trace import Trace


@dataclass
class BroadcastRun:
    """Everything produced by one broadcast-layer execution."""

    params: SystemParams
    assignment: IdentityAssignment
    byzantine: tuple[int, ...]
    processes: Sequence[Process | None]
    trace: Trace
    metrics: Metrics
    deliveries: tuple[RoundDeliveries, ...]
    losses: tuple[tuple[int, int, int], ...]
    ticks: int
    rounds_executed: int

    @property
    def correct_processes(self) -> list[Process]:
        """The correct slots' host processes, ascending."""
        return [p for p in self.processes if p is not None]


def _drive(
    params: SystemParams,
    assignment: IdentityAssignment,
    processes: Sequence[Process | None],
    byzantine: Sequence[int],
    adversary: Adversary | None,
    timing: TimingModel | None,
    rounds: int,
) -> BroadcastRun:
    """Run one broadcast execution on the kernel."""
    engine = ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary,
        timing=timing,
    )
    executed = engine.run(max_rounds=rounds, stop_when_all_decided=True)
    return BroadcastRun(
        params=params,
        assignment=assignment,
        byzantine=engine.byzantine,
        processes=list(processes),
        trace=engine.trace,
        metrics=metrics_from_deliveries(engine.deliveries),
        deliveries=tuple(engine.deliveries),
        losses=tuple(engine.losses),
        ticks=engine.timing.ticks_executed(executed),
        rounds_executed=executed,
    )


def run_authenticated_broadcast(
    n: int,
    ell: int,
    t: int,
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    timing: TimingModel | None = None,
    rounds: int = 10,
    broadcast_superround: int = 0,
    values: Mapping[int, Hashable] | None = None,
    assignment: IdentityAssignment | None = None,
) -> BroadcastRun:
    """Drive the Proposition 6 primitive through the kernel.

    Every correct slot hosts one
    :class:`~repro.broadcast.hosts.AuthenticatedBroadcastHost`; slots
    with a value in ``values`` broadcast it in ``broadcast_superround``.

    Args:
        n: Process count.
        ell: Identifier count (the primitive needs ``ell > 3t``).
        t: Byzantine bound.
        byzantine: Byzantine slot indices.
        adversary: The Byzantine strategy (defaults to silence).
        timing: The :class:`~repro.sim.kernel.TimingModel` (defaults
            to lock-step rounds).
        rounds: Round budget.
        broadcast_superround: When the armed hosts broadcast.
        values: ``slot index -> value``; defaults to every slot
            broadcasting its own index.
        assignment: Identifier assignment; defaults to
            :func:`~repro.core.identity.balanced_assignment`.

    Returns:
        The finished :class:`BroadcastRun`.
    """
    params = SystemParams(n=n, ell=ell, t=t)
    if assignment is None:
        assignment = balanced_assignment(n, ell)
    if values is None:
        values = {k: k for k in range(n)}
    byz = set(byzantine)
    processes: list[Process | None] = [
        None
        if k in byz
        else AuthenticatedBroadcastHost(
            assignment.identifier_of(k),
            ell,
            t,
            value=values.get(k),
            broadcast_superround=broadcast_superround,
        )
        for k in range(n)
    ]
    return _drive(
        params, assignment, processes, byzantine, adversary,
        timing, rounds,
    )


def run_reliable_broadcast(
    n: int,
    ell: int,
    t: int,
    sender_ident: int,
    values_by_slot: Mapping[int, Hashable],
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    timing: TimingModel | None = None,
    rounds: int = 14,
    assignment: IdentityAssignment | None = None,
    start_superround: int = 0,
) -> BroadcastRun:
    """Drive the one-shot reliable broadcast through the kernel.

    Correct holders of ``sender_ident`` with an entry in
    ``values_by_slot`` broadcast it in ``start_superround``; the run
    stops early once every correct process delivered.

    Args:
        n: Process count.
        ell: Identifier count (the primitive needs ``ell > 3t``).
        t: Byzantine bound.
        sender_ident: The broadcasting identifier.
        values_by_slot: ``slot index -> value`` for the armed holders.
        byzantine: Byzantine slot indices.
        adversary: The Byzantine strategy (defaults to silence).
        timing: The :class:`~repro.sim.kernel.TimingModel` (defaults
            to lock-step rounds).
        rounds: Round budget.
        assignment: Identifier assignment; defaults to
            :func:`~repro.core.identity.balanced_assignment`.
        start_superround: The broadcast superround.

    Returns:
        The finished :class:`BroadcastRun`.
    """
    params = SystemParams(n=n, ell=ell, t=t)
    if assignment is None:
        assignment = balanced_assignment(n, ell)
    byz = set(byzantine)
    processes: list[Process | None] = []
    for k in range(n):
        if k in byz:
            processes.append(None)
            continue
        ident = assignment.identifier_of(k)
        proposal = values_by_slot.get(k) if ident == sender_ident else None
        processes.append(
            ReliableBroadcastProcess(
                ell, t, ident, sender_ident,
                proposal=proposal, start_superround=start_superround,
            )
        )
    return _drive(
        params, assignment, processes, byzantine, adversary,
        timing, rounds,
    )


def run_multiplicity_broadcast(
    n: int,
    ell: int,
    t: int,
    broadcaster_ident: int,
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    timing: TimingModel | None = None,
    rounds: int = 8,
    assignment: IdentityAssignment | None = None,
    message: Hashable = "m",
    broadcast_superround: int = 0,
) -> BroadcastRun:
    """Drive the Figure 6 multiplicity primitive through the kernel.

    Every correct holder of ``broadcaster_ident`` broadcasts
    ``message`` in ``broadcast_superround``; the system is numerate and
    restricted, as Figure 6 requires.

    Args:
        n: Process count (the primitive needs ``n > 3t``).
        ell: Identifier count.
        t: Byzantine bound.
        broadcaster_ident: The broadcasting identifier.
        byzantine: Byzantine slot indices.
        adversary: The Byzantine strategy (defaults to silence).
        timing: The :class:`~repro.sim.kernel.TimingModel` (defaults
            to lock-step rounds).
        rounds: Round budget.
        assignment: Identifier assignment; defaults to
            :func:`~repro.core.identity.stacked_assignment`.
        message: The broadcast value.
        broadcast_superround: The broadcast superround.

    Returns:
        The finished :class:`BroadcastRun`.
    """
    params = SystemParams(n=n, ell=ell, t=t, numerate=True, restricted=True)
    if assignment is None:
        assignment = stacked_assignment(n, ell)
    byz = set(byzantine)
    processes: list[Process | None] = [
        None
        if k in byz
        else MultiplicityBroadcastHost(
            assignment.identifier_of(k),
            n,
            t,
            value=(
                message
                if assignment.identifier_of(k) == broadcaster_ident
                else None
            ),
            broadcast_superround=broadcast_superround,
        )
        for k in range(n)
    ]
    return _drive(
        params, assignment, processes, byzantine, adversary,
        timing, rounds,
    )
