"""The unified execution kernel: one message fabric, pluggable timing.

The paper's model section (following Dwork--Lynch--Stockmeyer) treats
three formulations of its communication model as equivalent: lock-step
synchronous rounds, the *basic* partially synchronous model (lock-step
rounds with finitely many message losses), and the delay-based models
(per-message delivery delays bounded by ``delta`` from some global
stabilisation tick on).  This module makes that equivalence an
*implementation* fact: every formulation executes through the same
:class:`ExecutionKernel` -- the batched message fabric -- and differs
only in the attached :class:`TimingModel`, which answers one question
per round, for all receivers at once: *which correct broadcasts does
each receiver not get?*

* :class:`LockStep` -- the synchronous model: nothing is ever lost.
* :class:`BasicPsync` -- the DLS basic model: a
  :class:`~repro.sim.partial.DropSchedule` loses finitely many
  messages and a :class:`~repro.sim.topology.Topology` may cut links.
* :class:`DelayBased` -- the delay formulations: round ``r`` occupies
  the tick window ``[r*delta, (r+1)*delta)``; a message whose
  policy-assigned delay lands it outside its window is *lost*, which is
  exactly the basic-model loss the paper's equivalence argument
  describes.  The legacy per-message tick loop is replaced by
  per-round late-delta stamping on the fabric, and the policy's
  ``max_late_tick`` contract lets punctual rounds skip delay
  evaluation entirely -- the delay models
  inherit the fabric's shared-canonical-base fast path.

**The message fabric.**  Each :meth:`ExecutionKernel.step` executes one
round: correct processes compose broadcasts; the (rushing) adversary
emits for every Byzantine slot; delivery sorts the round's *common
base* once -- one :class:`~repro.core.messages.Message` per broadcast
-- and derives each receiver's inbox as that base minus the timing
model's removals plus the adversary's per-receiver delta
(:class:`~repro.sim.fabric.RoundTable`, where every delivered inbox
is built).  The fabric counts every edge it delivers into
:attr:`ExecutionKernel.deliveries` -- the exact-cost input of
:func:`~repro.sim.metrics.metrics_from_deliveries` -- and, when the
timing model logs losses (:class:`DelayBased`), records every removed
edge into :attr:`ExecutionKernel.losses` as a ``(round, sender,
recipient)`` basic-model loss.  Delivery itself lives in
:func:`repro.sim.fabric.deliver_round`, which batches each active
round's removals into one ``(receivers, senders)`` numpy mask
(:meth:`TimingModel.removed_mask`).

Determinism: given identical processes, adversary and timing model,
the kernel produces byte-identical traces.  All iteration is over
sorted indices and inboxes are canonically ordered.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

import numpy as np

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.identity import IdentityAssignment
from repro.core.messages import Inbox, ensure_hashable
from repro.core.params import SystemParams
from repro.sim import fabric
from repro.sim.adversary import (
    Adversary,
    AdversaryView,
    NullAdversary,
    normalize_emissions,
)
from repro.sim.metrics import RoundDeliveries
from repro.sim.partial import DropSchedule, NoDrops
from repro.sim.process import Process
from repro.sim.topology import CompleteTopology, Topology
from repro.sim.trace import RoundRecord, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (delay -> kernel)
    from repro.sim.delay import DelayPolicy


# ----------------------------------------------------------------------
# Timing models
# ----------------------------------------------------------------------
class TimingModel(ABC):
    """Where a round's correct-to-correct message removals come from.

    A timing model is stateless with respect to the kernel: the same
    instance can drive any number of executions, and everything the
    kernel mutates (trace, losses, delivery log) lives on the kernel.
    The contract is two queries: :meth:`active` gates the removal work
    (an inactive round builds no mask and takes the shared-canonical-base
    fast path for every receiver without an adversary delta) and
    :meth:`removed_mask` names, for every receiver at once, the
    broadcasts it does not get.
    """

    #: When True the kernel records every removed edge into
    #: :attr:`ExecutionKernel.losses` -- the delay models' executable
    #: witness that a late arrival is a basic-model loss.
    logs_losses: bool = False

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description of the model."""

    def active(self, round_no: int) -> bool:
        """True when any correct-to-correct edge may be removed this round.

        Args:
            round_no: The current round.

        Returns:
            Whether the kernel must query :meth:`removed_mask`.
            ``False`` is a promise that the mask would be all-False.
        """
        return False

    def removed_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        """The round's removals as one ``(receivers, senders)`` bool mask.

        The fabric's one removal query: ``mask[i, j]`` is True when
        ``senders[j]``'s broadcast misses ``receivers[i]`` this round.
        The default is the empty mask, matching :meth:`active`'s
        default of ``False``; models that remove edges
        (:class:`BasicPsync` over the topology/drop-schedule masks,
        :class:`DelayBased` over the policy's delay matrix) override
        both.  The fabric calls it on active rounds only.
        Self-delivery never traverses the network, so ``mask[i, j]``
        must be False whenever ``receivers[i] == senders[j]``.

        Args:
            round_no: The current round.
            receivers: The correct receiving indices (ascending).
            senders: This round's composing senders (ascending).

        Returns:
            A fresh, writable numpy bool array of shape
            ``(len(receivers), len(senders))``.
        """
        return fabric.new_mask(len(receivers), len(senders))

    def ticks_executed(self, rounds: int) -> int:
        """Network ticks consumed by ``rounds`` executed rounds.

        Args:
            rounds: Number of rounds the kernel executed.

        Returns:
            The tick count -- one tick per round for the round-granular
            models; delay models scale by their ``delta`` window.
        """
        return rounds


class LockStep(TimingModel):
    """The synchronous model: lock-step rounds, nothing is ever lost."""

    def describe(self) -> str:
        return "lock-step synchronous rounds"

    def __repr__(self) -> str:
        return "LockStep()"


class BasicPsync(TimingModel):
    """The DLS basic model: drop-schedule losses plus topology cuts.

    ``drop_schedule`` loses finitely many correct-to-correct messages
    before its stabilisation round; ``topology`` may cut links
    permanently (the Figure 1 scenario wiring).  With the defaults
    (``NoDrops`` on the complete topology) this degenerates to
    :class:`LockStep` behaviour.
    """

    def __init__(
        self,
        drop_schedule: DropSchedule | None = None,
        topology: Topology | None = None,
    ) -> None:
        self.drop_schedule = drop_schedule if drop_schedule is not None else NoDrops()
        self.topology = topology if topology is not None else CompleteTopology()
        self._complete = isinstance(self.topology, CompleteTopology)

    def describe(self) -> str:
        return (
            f"basic partial synchrony (gst={self.drop_schedule.gst}, "
            f"{self.topology!r})"
        )

    def active(self, round_no: int) -> bool:
        return (not self._complete) or self.drop_schedule.active(round_no)

    def removed_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        if self._complete:
            # Nothing is blocked: the schedule's mask (fresh, writable)
            # is the whole answer.
            return self.drop_schedule.dropped_mask(round_no, receivers, senders)
        mask = self.topology.blocked_mask(receivers, senders)
        if self.drop_schedule.active(round_no):
            mask |= self.drop_schedule.dropped_mask(
                round_no, receivers, senders
            )
        return mask

    def __repr__(self) -> str:
        return f"BasicPsync({self.drop_schedule!r}, {self.topology!r})"


class DelayBased(TimingModel):
    """Delay-based partial synchrony on the fabric: tick windows per round.

    Round ``r`` occupies ticks ``[r*delta, (r+1)*delta)``.  Every
    broadcast is sent at the window's first tick; the attached
    :class:`~repro.sim.delay.DelayPolicy` assigns each ``(sender,
    recipient)`` edge a delay, and an edge whose delay is ``>= delta``
    arrives outside the window -- it is removed from the round inbox
    and logged as a basic-model loss (``logs_losses``).  The policy's
    ``max_late_tick`` contract -- no send from that tick on may exceed
    ``delta`` -- lets every later round skip delay evaluation entirely
    and take the fabric's shared-canonical-base fast path: the
    finiteness witness of the paper's equivalence argument doubles as
    the hot-path gate.
    """

    logs_losses = True

    def __init__(self, policy: "DelayPolicy") -> None:
        for attr in ("delta", "delay", "delay_matrix", "max_late_tick"):
            if not hasattr(policy, attr):
                raise ConfigurationError(
                    f"delay policy {policy!r} lacks {attr!r}; expected a "
                    f"repro.sim.delay.DelayPolicy"
                )
        self.policy = policy

    def describe(self) -> str:
        return (
            f"delay-based (delta={self.policy.delta}, "
            f"max_late_tick={self.policy.max_late_tick()})"
        )

    def active(self, round_no: int) -> bool:
        # A send at tick r*delta can only exceed delta while the policy
        # still admits lateness; from max_late_tick on, every delay is
        # within the window and the round is punctual by contract.
        return round_no * self.policy.delta < self.policy.max_late_tick()

    def removed_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        policy = self.policy
        delta = policy.delta
        delays = policy.delay_matrix(round_no * delta, receivers, senders)
        if delays.size and delays.min() < 0:
            raise SimulationError("negative delay from policy")
        mask = delays >= delta
        # Self-delivery never traverses the network; guard against
        # policies whose delay matrix fills the diagonal anyway.  The
        # self-links are the indices both ascending tuples hold.
        _, rows, cols = np.intersect1d(
            receivers, senders, assume_unique=True, return_indices=True
        )
        mask[rows, cols] = False
        return mask

    def ticks_executed(self, rounds: int) -> int:
        return rounds * self.policy.delta

    def __repr__(self) -> str:
        return f"DelayBased({self.policy!r})"


class ComposedTiming(TimingModel):
    """The union of several timing models' removals, as one model.

    A surface with *structural* message removals -- the Figure 1
    scenario's directed view wiring -- composes them with a caller's
    timing model by stacking both here: a round is active when any
    layer is active, and a broadcast is removed for a receiver when any
    active layer's mask removes it.  ``losses`` are
    logged when any layer logs them, and the tick count is the maximum
    over the layers (a round occupies the widest layer's window).

    Args:
        models: The stacked timing models, queried in order.

    Raises:
        ConfigurationError: When no model is given (an empty
            composition has no defined tick semantics; use
            :class:`LockStep` explicitly).
    """

    def __init__(self, *models: TimingModel) -> None:
        if not models:
            raise ConfigurationError(
                "ComposedTiming needs at least one timing model"
            )
        self.models: tuple[TimingModel, ...] = tuple(models)
        self.logs_losses = any(m.logs_losses for m in self.models)

    def describe(self) -> str:
        return " + ".join(m.describe() for m in self.models)

    def active(self, round_no: int) -> bool:
        return any(m.active(round_no) for m in self.models)

    def removed_mask(
        self, round_no: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        mask = fabric.new_mask(len(receivers), len(senders))
        for model in self.models:
            if model.active(round_no):
                mask |= model.removed_mask(round_no, receivers, senders)
        return mask

    def ticks_executed(self, rounds: int) -> int:
        return max(m.ticks_executed(rounds) for m in self.models)

    def __repr__(self) -> str:
        return f"ComposedTiming{self.models!r}"


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineCheckpoint:
    """A restorable snapshot of an :class:`ExecutionKernel` mid-execution.

    Captures everything the kernel mutates round over round: the process
    objects, the trace records, the delivery and loss logs, the round
    counter and the last :attr:`~repro.sim.adversary.AdversaryView.heard`.
    Static configuration (params, assignment, timing model) is shared
    with the live kernel, and **adversary state is deliberately not
    captured**: stateful adversaries are owned by the caller (the
    strategy explorer scripts its adversary externally and checkpoints
    its own ghost instances).

    Process snapshots are copy-on-write: :meth:`ExecutionKernel.checkpoint`
    freezes the kernel's process list by *reference* and the kernel
    clones it only when (and if) the next round mutates process
    state, so a checkpoint/restore round-trip costs one copy instead of
    two -- the explorer-DFS hotspot.  The snapshot itself is frozen:
    later rounds never leak into it, and one snapshot can seed any
    number of divergent branches.
    """

    round_no: int
    processes: tuple["Process | None", ...]
    trace_records: tuple
    deliveries: tuple[RoundDeliveries, ...]
    losses: tuple[tuple[int, int, int], ...] = ()
    heard: Mapping[int, Inbox] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
class ExecutionKernel:
    """Drives one execution of the round model under a timing model.

    Each :meth:`step` executes one round:

    1. every correct process composes its broadcast payload;
    2. the adversary -- shown all of this round's correct payloads (it
       is *rushing*) plus full execution history -- emits messages for
       every Byzantine slot, subject to authentication and (optionally)
       the one-message-per-recipient restriction, both enforced here;
    3. each correct process receives an
       :class:`~repro.core.messages.Inbox` built from: its own payload
       (self-delivery is unconditional), the payloads of correct
       senders the timing model delivers, and the adversary's messages
       addressed to it -- as a multiset when the model is numerate, a
       set otherwise;
    4. new decisions are collected into the trace.

    Args:
        params: The system parameters (fix ``n`` and the model flags).
        assignment: The identifier assignment (must agree with ``n``).
        processes: One :class:`~repro.sim.process.Process` per correct
            slot, ``None`` in Byzantine slots.
        byzantine: Byzantine slot indices.
        adversary: The Byzantine strategy (defaults to silence).
        timing: The timing model (defaults to :class:`LockStep`).

    Raises:
        ConfigurationError: On any structural mismatch -- wrong process
            count, out-of-range Byzantine indices, a missing correct
            process object, or a process claiming an identifier the
            assignment does not give its slot.
    """

    def __init__(
        self,
        params: SystemParams,
        assignment: IdentityAssignment,
        processes: Sequence[Process | None],
        byzantine: Sequence[int] = (),
        adversary: Adversary | None = None,
        timing: TimingModel | None = None,
    ) -> None:
        if assignment.n != params.n:
            raise ConfigurationError(
                f"assignment has {assignment.n} processes, params say {params.n}"
            )
        if len(processes) != params.n:
            raise ConfigurationError(
                f"got {len(processes)} process slots for n={params.n}"
            )
        self.params = params
        self.assignment = assignment
        self.processes: list[Process | None] = list(processes)
        self.byzantine: tuple[int, ...] = tuple(sorted(set(int(b) for b in byzantine)))
        if any(not 0 <= b < params.n for b in self.byzantine):
            raise ConfigurationError(f"byzantine indices out of range: {self.byzantine}")
        self.adversary = adversary if adversary is not None else NullAdversary()
        self.timing = timing if timing is not None else LockStep()
        self.trace = Trace()
        #: Exact per-round delivery log (one entry per executed round).
        self.deliveries: list[RoundDeliveries] = []
        #: ``(round, sender, recipient)`` removals logged by timing
        #: models with ``logs_losses`` -- the delay models' basic-model
        #: loss set, in (round, recipient, sender-order) order.
        self.losses: list[tuple[int, int, int]] = []
        self.round_no = 0
        #: Last round's ``Byzantine slot -> Inbox`` (set by the fabric).
        self._heard: Mapping[int, Inbox] = {}
        #: True while ``self.processes`` is aliased by a live
        #: :class:`EngineCheckpoint`; the next mutation clones
        #: first (copy-on-write; see :meth:`checkpoint`).
        self._processes_shared = False

        byz_set = set(self.byzantine)
        self._correct: tuple[int, ...] = tuple(
            k for k in range(params.n) if k not in byz_set
        )
        for k in self._correct:
            proc = self.processes[k]
            if proc is None:
                raise ConfigurationError(f"correct slot {k} has no process object")
            expected = assignment.identifier_of(k)
            if proc.identifier != expected:
                raise ConfigurationError(
                    f"process at slot {k} claims identifier {proc.identifier}, "
                    f"assignment says {expected}"
                )

        self.adversary.setup(
            params,
            assignment,
            self.byzantine,
            {
                k: self.processes[k].proposal
                for k in self._correct
                if self.processes[k].proposal is not None
            },
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def correct(self) -> tuple[int, ...]:
        """Indices of correct processes, ascending."""
        return self._correct

    def all_correct_decided(self) -> bool:
        """True when every correct process has decided."""
        return all(self.processes[k].decided for k in self._correct)

    def decisions(self) -> dict[int, Hashable]:
        """Decisions so far.

        Returns:
            ``correct index -> decided value`` for the correct
            processes that have decided (undecided slots absent).
        """
        return {
            k: self.processes[k].decision
            for k in self._correct
            if self.processes[k].decided
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def compose_round(self) -> dict[int, Hashable]:
        """Phase 1 of a round: every correct process composes its broadcast.

        Mutates process state (``compose`` may queue protocol-internal
        work), so it must be called exactly once per round, followed by
        :meth:`finish_round`.  Split out of :meth:`step` so callers that
        need this round's correct payloads *before* choosing Byzantine
        emissions -- the bounded strategy explorer branching over an
        emission alphabet derived from them -- can interpose between the
        phases.

        Returns:
            ``correct index -> payload`` for this round (silent
            processes absent), in ascending index order.
        """
        self._own_processes()
        r = self.round_no
        payloads: dict[int, Hashable] = {}
        for k in self._correct:
            payload = self.processes[k].compose(r)
            if payload is not None:
                payloads[k] = ensure_hashable(payload)
        return payloads

    def finish_round(
        self,
        payloads: Mapping[int, Hashable],
        raw_emissions: Mapping[int, Mapping[int, Sequence[Hashable]]] | None = None,
    ) -> RoundRecord:
        """Phases 2-4 of a round: emissions, delivery, trace record.

        Args:
            payloads: The :meth:`compose_round` result for this round.
            raw_emissions: Byzantine emissions to deliver instead of
                consulting the attached adversary.  They pass through
                the same :func:`~repro.sim.adversary.normalize_emissions`
                model-rule enforcement either way.

        Returns:
            The appended :class:`~repro.sim.trace.RoundRecord`.
        """
        self._own_processes()
        r = self.round_no

        # Phase 2: the (rushing) adversary emits Byzantine messages.
        if raw_emissions is None:
            emissions = self._collect_emissions(payloads)
        else:
            emissions = normalize_emissions(
                self.params, self.byzantine, raw_emissions, r
            )

        # Phase 3: deliver per-recipient inboxes to correct processes.
        processes = self.processes
        undecided = [k for k in self._correct if not processes[k].decided]
        deliveries = self._deliver_round(r, payloads, emissions)

        # Phase 4: record the round.
        decisions = {
            k: processes[k].decision for k in undecided if processes[k].decided
        }
        record = RoundRecord(
            round_no=r,
            payloads=dict(payloads),
            emissions=emissions,
            decisions=decisions,
        )
        self.trace.append(record)
        self.deliveries.append(deliveries)
        self.round_no += 1
        return record

    def step(self) -> RoundRecord:
        """Execute one full round (compose, emit, deliver, record).

        Returns:
            The round's appended :class:`~repro.sim.trace.RoundRecord`.
        """
        return self.finish_round(self.compose_round())

    def run(self, max_rounds: int, stop_when_all_decided: bool = True) -> int:
        """Step the kernel until decision or the round budget runs out.

        Args:
            max_rounds: Upper bound on rounds to execute.
            stop_when_all_decided: Stop early once every correct
                process has decided (disable to observe post-decision
                rounds).

        Returns:
            The number of rounds actually executed.
        """
        executed = 0
        for _ in range(max_rounds):
            self.step()
            executed += 1
            if stop_when_all_decided and self.all_correct_decided():
                break
        return executed

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the mutable kernel state for later :meth:`restore`.

        Copy-on-write: the snapshot aliases the live process objects and
        the kernel clones them only when the next round actually
        mutates process state, so checkpoints taken at leaves (or
        followed by :meth:`restore` before any step) never pay the copy.
        Trace records, delivery records and loss triples are immutable,
        so sharing their tuples is always safe.  The attached adversary
        is *not* captured -- callers that branch executions (the
        strategy explorer) either use stateless scripted adversaries or
        checkpoint their adversary state themselves.

        Returns:
            An immutable, reusable :class:`EngineCheckpoint`.
        """
        self._processes_shared = True
        return EngineCheckpoint(
            round_no=self.round_no,
            processes=tuple(self.processes),
            trace_records=self.trace.snapshot(),
            deliveries=tuple(self.deliveries),
            losses=tuple(self.losses),
            heard=self._heard,
        )

    def restore(self, checkpoint: EngineCheckpoint) -> None:
        """Rewind the kernel to a :meth:`checkpoint` snapshot.

        The checkpoint itself is left untouched: the kernel adopts its
        process tuple by reference and clones only when the next
        round mutates process state (copy-on-write), so the same
        snapshot can seed any number of divergent continuations -- the
        primitive the bounded strategy explorer's depth-first search is
        built on -- at one copy per branch instead of two.

        Args:
            checkpoint: A snapshot taken from *this* kernel (snapshots
                carry no configuration, so restoring one from a
                differently-configured kernel is undefined).
        """
        self.round_no = checkpoint.round_no
        self.processes = list(checkpoint.processes)
        self._processes_shared = True
        self.trace.restore(checkpoint.trace_records)
        self.deliveries = list(checkpoint.deliveries)
        self.losses = list(checkpoint.losses)
        self._heard = checkpoint.heard

    def _own_processes(self) -> None:
        """Clone the process list if a checkpoint still aliases it.

        The copy-on-write half of :meth:`checkpoint`/:meth:`restore`:
        called before any round phase that mutates process state, it
        ensures snapshots stay frozen while a checkpoint/restore
        round-trip costs one copy instead of two.  Each process copies
        itself (:meth:`~repro.sim.process.Process.clone`).
        """
        if self._processes_shared:
            self.processes = [
                None if proc is None else proc.clone()
                for proc in self.processes
            ]
            self._processes_shared = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _collect_emissions(
        self, payloads: Mapping[int, Hashable]
    ) -> dict[int, dict[int, tuple[Hashable, ...]]]:
        view = AdversaryView(
            round_no=self.round_no,
            params=self.params,
            assignment=self.assignment,
            byzantine=self.byzantine,
            correct_payloads=dict(payloads),
            processes=self.processes,
            trace=self.trace,
            heard=self._heard,
        )
        raw = self.adversary.emissions(view)
        return normalize_emissions(self.params, self.byzantine, raw, self.round_no)

    def _deliver_round(
        self,
        round_no: int,
        payloads: Mapping[int, Hashable],
        emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
    ) -> RoundDeliveries:
        """Deliver one round through the message fabric.

        Delegates to :func:`repro.sim.fabric.deliver_round`, the one
        delivery path: a removal mask per active round, the shared
        canonical base otherwise (see the fabric module docs).
        """
        return fabric.deliver_round(self, round_no, payloads, emissions)


# ----------------------------------------------------------------------
# Batch scheduling
# ----------------------------------------------------------------------
def run_batch(
    jobs: Sequence[tuple[ExecutionKernel, int]],
    stop_when_all_decided: bool = True,
) -> list[int]:
    """Drive many independent kernels round-robin until each finishes.

    The soak farm's scheduling hook: rather than running each agreement
    instance to completion in turn, every live kernel advances one round
    per sweep.  Kernels never share state, so each one executes exactly
    the rounds :meth:`ExecutionKernel.run` would have -- batch results
    are bit-identical to solo runs, which is what makes every soak
    instance replayable in isolation -- while the interleaving keeps a
    heterogeneous batch's wavefront moving instead of serialising behind
    its slowest member, and exercises the engine the way sustained
    mixed traffic does.

    Args:
        jobs: ``(kernel, max_rounds)`` pairs; each kernel steps until
            its own round budget runs out (or it decides).
        stop_when_all_decided: Per kernel, stop early once every
            correct process has decided (same contract as
            :meth:`ExecutionKernel.run`).

    Returns:
        Rounds executed per job, aligned with ``jobs``.
    """
    executed = [0] * len(jobs)
    live = [index for index, (_, budget) in enumerate(jobs) if budget > 0]
    while live:
        survivors = []
        for index in live:
            kernel, budget = jobs[index]
            kernel.step()
            executed[index] += 1
            if executed[index] >= budget:
                continue
            if stop_when_all_decided and kernel.all_correct_decided():
                continue
            survivors.append(index)
        live = survivors
    return executed
