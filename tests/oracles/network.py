"""The pre-fabric round engine, frozen as a differential oracle."""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.core.messages import Inbox, Message
from repro.sim.kernel import BasicPsync, ExecutionKernel, LockStep, TimingModel
from repro.sim.metrics import RoundDeliveries, payload_size
from repro.sim.partial import DropSchedule, NoDrops
from repro.sim.topology import CompleteTopology, Topology


def timing_model_for(
    drop_schedule: DropSchedule | None = None,
    topology: Topology | None = None,
) -> TimingModel:
    """Build the timing model the pre-kernel engine arguments describe.

    Args:
        drop_schedule: Optional basic-model drop schedule.
        topology: Optional link topology.

    Returns:
        :class:`LockStep` when both arguments are unset, else the
        :class:`BasicPsync` model wrapping them.
    """
    if drop_schedule is None and topology is None:
        return LockStep()
    return BasicPsync(drop_schedule, topology)


class ReferenceRoundEngine(ExecutionKernel):
    """The pre-fabric delivery loop, kept as a differential oracle.

    Rebuilds and sorts every receiver's inbox from scratch --
    O(n^2 log n) per round -- exactly as the engine did before the
    message fabric landed.  Keeps the pre-kernel constructor
    (``drop_schedule``/``topology`` instead of a timing model) and the
    ``drop_schedule``/``topology`` attributes the loop reads.
    """

    def __init__(self, params, assignment, processes, byzantine=(),
                 adversary=None, drop_schedule=None, topology=None):
        super().__init__(params, assignment, processes, byzantine, adversary,
                         timing=timing_model_for(drop_schedule, topology))
        self.drop_schedule = drop_schedule if drop_schedule is not None else NoDrops()
        self.topology = topology if topology is not None else CompleteTopology()

    def _deliver_round(
        self,
        round_no: int,
        payloads: Mapping[int, Hashable],
        emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
    ) -> RoundDeliveries:
        correct_deliveries = 0
        correct_bytes = 0
        byz_deliveries = 0
        byz_bytes = 0
        for q in self._correct:
            messages: list[Message] = []
            for sender, payload in payloads.items():
                if sender != q:
                    if not self.topology.delivers(sender, q):
                        continue
                    if self.drop_schedule.drops(round_no, sender, q):
                        continue
                messages.append(
                    Message(self.assignment.identifier_of(sender), payload)
                )
                correct_deliveries += 1
                correct_bytes += payload_size(payload)
            for b, per_recipient in emissions.items():
                ident = self.assignment.identifier_of(b)
                for payload in per_recipient.get(q, ()):
                    messages.append(Message(ident, payload))
                    byz_deliveries += 1
                    byz_bytes += payload_size(payload)
            self.processes[q].deliver(
                round_no, Inbox(messages, numerate=self.params.numerate)
            )
        return RoundDeliveries(
            round_no=round_no,
            correct_broadcasts=len(payloads),
            correct_deliveries=correct_deliveries,
            byzantine_deliveries=byz_deliveries,
            correct_payload_bytes=correct_bytes,
            byzantine_payload_bytes=byz_bytes,
        )
