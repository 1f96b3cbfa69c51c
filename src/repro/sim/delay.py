"""Delay-based partial synchrony and its simulation of the basic model.

The paper (Section 2, following Dwork--Lynch--Stockmeyer) works in the
*basic* partially synchronous model -- lock-step rounds with finitely
many message losses -- and notes that it is equivalent to the two
delay-based formulations practitioners usually state:

* **eventually-bounded delays** -- message delivery times are bounded by
  a *known* constant ``delta``, but only from some unknown global
  stabilisation tick (GST) onwards;
* **unknown-bound delays** -- delivery times are *always* bounded by a
  constant ``delta``, but the algorithm does not know ``delta``.

This module makes the first (and, via an adapter, the second) direction
of that equivalence executable: :class:`DelayPolicy` assigns each
correct message an adversarial delay, and the classical *round
simulation* runs on top -- round ``r`` occupies the tick window
``[r*delta, (r+1)*delta)``; a message sent at the start of the window
and delivered inside it becomes part of the round-``r`` inbox, and a
message that arrives late is **discarded, which is exactly a basic-model
message loss**.  Because delays are bounded by ``delta`` from the GST
on, only finitely many messages are ever late: the simulated execution
is a legitimate basic-model execution, so every algorithm in
:mod:`repro.psync` runs unchanged over delay-based networks.

(The reverse direction -- the basic model simulating the delay models --
is the trivial inclusion the paper also notes: a basic-model round *is*
a delay-1 network.)

The round simulation itself now executes on the unified kernel: the
:class:`~repro.sim.kernel.DelayBased` timing model stamps each round's
late edges straight onto the message fabric (see
:func:`run_delay_execution`).  The old per-message tick loop is kept
verbatim as :class:`ReferenceDelaySimulator`, the differential oracle
the delay equivalence tests and ``benchmarks/test_bench_delay_kernel.py``
compare the kernel against.

Determinism: delay policies derive their per-message RNG from
:func:`repro.core.canonical.stable_seed`, never from the builtin
``hash`` (whose string salting made "deterministic given the seed"
policies differ between interpreter runs).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.canonical import stable_seed
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.identity import IdentityAssignment
from repro.core.messages import Inbox, Message, ensure_hashable
from repro.core.params import SystemParams
from repro.sim.adversary import (
    Adversary,
    AdversaryView,
    NullAdversary,
    normalize_emissions,
)
from repro.sim.kernel import DelayBased, ExecutionKernel
from repro.sim.process import Process
from repro.sim.trace import RoundRecord, Trace


class DelayPolicy(ABC):
    """Chooses the delivery delay (in ticks) of each correct message.

    The returned delay is measured from the send tick; ``0`` means
    same-tick delivery.  Implementations encode one of the paper's two
    delay models via their constraints; :meth:`max_late_tick` names the
    first send tick from which no delay may reach ``delta`` (the
    finiteness witness the equivalence argument needs -- and, on the
    kernel, the gate past which rounds skip delay evaluation entirely).
    """

    def __init__(self, delta: int) -> None:
        if delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {delta}")
        self.delta = int(delta)

    @abstractmethod
    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        """Delay in ticks for this message."""

    def delay_matrix(
        self, send_tick: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        """All of one tick's edge delays as a ``(receivers, senders)`` array.

        The message fabric's batch form of :meth:`delay`: entry ``[i, j]``
        is the delay of the message ``senders[j] -> receivers[i]`` sent
        at ``send_tick``.  Self-edges are skipped (left ``0``; they
        never traverse the network and ``delta >= 1`` keeps them
        punctual).  The default queries :meth:`delay` per edge in
        (receiver, sender) order, so RNG-backed policies -- whose
        per-link ``stable_seed`` draws cannot be vectorized
        byte-identically -- participate in the fabric unchanged;
        closed-form policies may override with real array ops.

        Args:
            send_tick: The window's first tick.
            receivers: The receiving process indices (ascending).
            senders: This round's composing senders (ascending).

        Returns:
            A numpy int64 array of delays.
        """
        delays = np.zeros((len(receivers), len(senders)), dtype=np.int64)
        for i, q in enumerate(receivers):
            for j, s in enumerate(senders):
                if s == q:
                    continue
                delays[i, j] = self.delay(send_tick, s, q)
        return delays

    @abstractmethod
    def max_late_tick(self) -> int:
        """First send tick from which every delay is strictly below ``delta``.

        Sends at ticks ``< max_late_tick()`` may be late (delay
        ``>= delta``); sends at ticks ``>= max_late_tick()`` must not
        be.  The exclusive reading is load-bearing: the kernel's
        :class:`~repro.sim.kernel.DelayBased` model skips delay
        evaluation for every round whose send tick has reached it, and
        :func:`equivalent_basic_gst` derives the loss-free round from
        it -- a policy that is still late *at* this tick would deliver
        over-``delta`` messages silently.
        """


def _link_rng(*key: Hashable) -> random.Random:
    """One independent, cross-run-stable RNG per message key."""
    return random.Random(stable_seed(key))


class EventuallyBoundedDelays(DelayPolicy):
    """Known ``delta``, honoured only from ``gst_tick`` onwards.

    Before the GST the (seeded) adversary may stretch delays up to
    ``chaos_factor * delta`` ticks; afterwards every delay is within
    ``delta``.  This is the paper's "delivery times eventually bounded
    by a known constant" model.
    """

    def __init__(
        self, delta: int, gst_tick: int, chaos_factor: int = 4, seed: int = 0
    ) -> None:
        super().__init__(delta)
        if gst_tick < 0:
            raise ConfigurationError(f"gst_tick must be >= 0, got {gst_tick}")
        self.gst_tick = int(gst_tick)
        self.chaos_factor = max(1, int(chaos_factor))
        self.seed = int(seed)

    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        if send_tick >= self.gst_tick:
            rng = _link_rng(self.seed, send_tick, sender, recipient)
            return rng.randrange(0, self.delta)
        rng = _link_rng(self.seed, "pre", send_tick, sender, recipient)
        return rng.randrange(0, self.chaos_factor * self.delta + 1)

    def max_late_tick(self) -> int:
        return self.gst_tick

class AlwaysBoundedUnknownDelays(DelayPolicy):
    """Delays always within a bound the *algorithm* does not know.

    The adversary fixes ``true_delta`` once; the simulation layer is
    configured with a (possibly wrong, smaller) guess and doubles it on
    observation of late traffic -- mirroring how algorithms for this
    model probe the unknown bound.  From the tick where the guess first
    reaches ``true_delta``, no message is ever late again, which is this
    model's route to basic-model finiteness.
    """

    def __init__(self, true_delta: int, seed: int = 0) -> None:
        super().__init__(true_delta)
        self.seed = int(seed)

    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        rng = _link_rng(self.seed, send_tick, sender, recipient)
        return rng.randrange(0, self.delta)

    def max_late_tick(self) -> int:
        # Delays are always within the (unknown) bound; lateness exists
        # only relative to a too-small guess, never beyond the tick at
        # which the guess catches up.  The simulator computes that tick.
        return 0


@dataclass(frozen=True)
class _InFlight:
    """A correct-process message travelling through the delay network."""

    round_no: int
    sender: int
    recipient: int
    payload: Hashable
    deliver_tick: int


@dataclass
class DelaySimulationResult:
    """Outcome of running round-based processes over a delay network."""

    trace: Trace
    dropped: tuple[tuple[int, int, int], ...]  # (round, sender, recipient)
    ticks_executed: int
    rounds_executed: int

    @property
    def losses_are_finite_and_pre_gst(self) -> bool:
        """The basic-model guarantee extracted from the delay run."""
        return len(self.dropped) < float("inf")  # structurally guaranteed

    def last_lost_round(self) -> int:
        return max((r for r, _s, _q in self.dropped), default=-1)


def _kernel_delay_result(
    kernel: ExecutionKernel, executed: int
) -> DelaySimulationResult:
    """Package a finished delay-timed kernel run into the result type."""
    return DelaySimulationResult(
        trace=kernel.trace,
        dropped=tuple(kernel.losses),
        ticks_executed=kernel.timing.ticks_executed(executed),
        rounds_executed=len(kernel.trace),
    )


def run_delay_execution(
    params: SystemParams,
    assignment: IdentityAssignment,
    processes: Sequence[Process | None],
    policy: DelayPolicy,
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    max_rounds: int = 200,
    stop_when_all_decided: bool = True,
) -> DelaySimulationResult:
    """Run round-based processes over a delay network, on the kernel.

    Builds an :class:`~repro.sim.kernel.ExecutionKernel` with a
    :class:`~repro.sim.kernel.DelayBased` timing model, runs it, and
    packages the delay-specific bookkeeping (losses, tick count) into a
    :class:`DelaySimulationResult`.  The losses are correct-to-correct
    edges only -- a message addressed to a Byzantine slot has no
    receiving process, so its lateness is unobservable.

    Args:
        params: System parameters.
        assignment: Identifier assignment.
        processes: Process objects (``None`` in Byzantine slots).
        policy: The delay policy.
        byzantine: Byzantine slot indices.
        adversary: Byzantine adversary (round-granular, as in the basic
            model -- perfect timing is the conservative choice).
        max_rounds: Round budget.
        stop_when_all_decided: Stop as soon as every correct process
            decided.

    Returns:
        The :class:`DelaySimulationResult` (the executed kernel's trace
        is shared, not copied).
    """
    kernel = ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary,
        timing=DelayBased(policy),
    )
    executed = kernel.run(
        max_rounds=max_rounds, stop_when_all_decided=stop_when_all_decided
    )
    return _kernel_delay_result(kernel, executed)


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


def equivalent_basic_gst(policy: DelayPolicy) -> int:
    """Round from which the simulated basic-model execution loses nothing.

    A message sent at tick ``s`` with delay ``< delta`` lands inside its
    round window, so every send from ``max_late_tick()`` on is punctual;
    the first fully punctual round is ``ceil(max_late_tick / delta)``.
    """
    delta = policy.delta
    return (policy.max_late_tick() + delta - 1) // delta
