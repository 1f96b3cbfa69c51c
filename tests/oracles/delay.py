"""The pre-kernel per-message delay loop, frozen as a differential oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.identity import IdentityAssignment
from repro.core.messages import Inbox, Message, ensure_hashable
from repro.core.params import SystemParams
from repro.sim.adversary import (
    Adversary, AdversaryView, NullAdversary, normalize_emissions,
)
from repro.sim.delay import DelayPolicy
from repro.sim.process import Process
from repro.sim.trace import RoundRecord, Trace


@dataclass
class DelaySimulationResult:
    """Outcome of running round-based processes over a delay network."""

    trace: Trace
    dropped: tuple[tuple[int, int, int], ...]  # (round, sender, recipient)
    ticks_executed: int
    rounds_executed: int


@dataclass(frozen=True)
class _InFlight:
    """A correct-process message travelling through the delay network."""

    round_no: int
    sender: int
    recipient: int
    payload: Hashable
    deliver_tick: int


class ReferenceDelaySimulator:
    """The pre-kernel per-message tick loop, kept as a differential oracle.

    Implements the DLS round simulation message by message: tick ``T``
    belongs to round ``T // delta``; at the first tick of each window
    every process composes its round payload and each copy is put in
    flight with a policy-assigned delivery tick (self-delivery is
    immediate); every tick of the window is swept for arrivals; messages
    whose delay lands them outside the window are *discarded and
    recorded as drops*.  At the window's last tick the inbox is
    delivered.

    The Byzantine adversary operates at round granularity exactly as in
    the kernel -- its messages are injected into the recipient's round
    inbox directly (a Byzantine process may time its sends however it
    likes, so giving it perfect timing is the conservative choice).

    The kernel's :class:`~repro.sim.kernel.DelayBased` model computes
    the same delivered sets in O(edges) per round with no tick sweep
    (and none at all after ``max_late_tick``); the delay equivalence
    tests pin the kernel against this loop, and
    ``benchmarks/test_bench_delay_kernel.py`` measures the speedup.
    Not for production use.
    """

    def __init__(
        self,
        params: SystemParams,
        assignment: IdentityAssignment,
        processes: Sequence[Process | None],
        policy: DelayPolicy,
        byzantine: Sequence[int] = (),
        adversary: Adversary | None = None,
    ) -> None:
        if assignment.n != params.n or len(processes) != params.n:
            raise ConfigurationError("process/assignment/params size mismatch")
        self.params = params
        self.assignment = assignment
        self.processes = list(processes)
        self.policy = policy
        self.byzantine = tuple(sorted(set(byzantine)))
        self.adversary = adversary if adversary is not None else NullAdversary()
        byz = set(self.byzantine)
        self._correct = tuple(k for k in range(params.n) if k not in byz)
        self.trace = Trace()
        self._in_flight: list[_InFlight] = []
        self._dropped: list[tuple[int, int, int]] = []
        self._round_inboxes: dict[int, list[Message]] = {}

        self.adversary.setup(
            params, assignment, self.byzantine,
            {
                k: self.processes[k].proposal
                for k in self._correct
                if self.processes[k].proposal is not None
            },
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_rounds: int, stop_when_all_decided: bool = True
            ) -> DelaySimulationResult:
        delta = self.policy.delta
        ticks = 0
        for round_no in range(max_rounds):
            window_start = round_no * delta
            window_end = window_start + delta  # exclusive

            # First tick of the window: everyone composes and sends.
            payloads = self._compose_round(round_no)
            self._send_round(round_no, window_start, payloads)
            emissions = self._byzantine_round(round_no, payloads)

            # Sweep the window: collect arrivals, discard late traffic.
            for tick in range(window_start, window_end):
                self._collect_arrivals(round_no, tick, window_end)
                ticks += 1

            self._deliver_round(round_no, emissions, payloads)
            if stop_when_all_decided and all(
                self.processes[k].decided for k in self._correct
            ):
                break

        return DelaySimulationResult(
            trace=self.trace,
            dropped=tuple(self._dropped),
            ticks_executed=ticks,
            rounds_executed=len(self.trace),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compose_round(self, round_no: int) -> dict[int, Hashable]:
        payloads: dict[int, Hashable] = {}
        for k in self._correct:
            payload = self.processes[k].compose(round_no)
            if payload is not None:
                payloads[k] = ensure_hashable(payload)
        return payloads

    def _send_round(
        self, round_no: int, send_tick: int, payloads: Mapping[int, Hashable]
    ) -> None:
        for sender, payload in payloads.items():
            for recipient in range(self.params.n):
                if recipient == sender:
                    continue  # self-delivery handled at delivery time
                delay = self.policy.delay(send_tick, sender, recipient)
                if delay < 0:
                    raise SimulationError("negative delay from policy")
                self._in_flight.append(
                    _InFlight(
                        round_no=round_no,
                        sender=sender,
                        recipient=recipient,
                        payload=payload,
                        deliver_tick=send_tick + delay,
                    )
                )

    def _byzantine_round(
        self, round_no: int, payloads: Mapping[int, Hashable]
    ) -> dict[int, dict[int, tuple[Hashable, ...]]]:
        view = AdversaryView(
            round_no=round_no,
            params=self.params,
            assignment=self.assignment,
            byzantine=self.byzantine,
            correct_payloads=dict(payloads),
            processes=self.processes,
            trace=self.trace,
        )
        raw = self.adversary.emissions(view)
        return normalize_emissions(self.params, self.byzantine, raw, round_no)

    def _collect_arrivals(
        self, round_no: int, tick: int, window_end: int
    ) -> None:
        remaining: list[_InFlight] = []
        for msg in self._in_flight:
            if msg.deliver_tick != tick:
                remaining.append(msg)
                continue
            if msg.round_no == round_no and tick < window_end:
                self._round_inboxes.setdefault(msg.recipient, []).append(
                    Message(
                        self.assignment.identifier_of(msg.sender), msg.payload
                    )
                )
            else:
                # Arrived outside its round window: a basic-model loss.
                self._dropped.append((msg.round_no, msg.sender, msg.recipient))
        self._in_flight = remaining

    def _deliver_round(
        self,
        round_no: int,
        emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
        payloads: Mapping[int, Hashable],
    ) -> None:
        # Anything still in flight for this round is now late: drop it.
        still: list[_InFlight] = []
        for msg in self._in_flight:
            if msg.round_no == round_no:
                self._dropped.append((msg.round_no, msg.sender, msg.recipient))
            else:
                still.append(msg)
        self._in_flight = still

        decided_before = {k: self.processes[k].decided for k in self._correct}
        for q in self._correct:
            messages = list(self._round_inboxes.get(q, ()))
            if q in payloads:  # self-delivery, never delayed
                messages.append(
                    Message(self.assignment.identifier_of(q), payloads[q])
                )
            for b, per_recipient in emissions.items():
                ident = self.assignment.identifier_of(b)
                for payload in per_recipient.get(q, ()):
                    messages.append(Message(ident, payload))
            self.processes[q].deliver(
                round_no, Inbox(messages, numerate=self.params.numerate)
            )
        self._round_inboxes = {}

        decisions = {
            k: self.processes[k].decision
            for k in self._correct
            if self.processes[k].decided and not decided_before[k]
        }
        self.trace.append(
            RoundRecord(
                round_no=round_no,
                payloads=dict(payloads),
                emissions={b: dict(pr) for b, pr in emissions.items()},
                decisions=decisions,
            )
        )
