"""Execution driver: build an engine, run it, check the verdict.

This is the layer most users interact with: give it an algorithm
factory, the system parameters, an identity assignment, proposals, a
Byzantine set and an adversary, and it returns an
:class:`ExecutionResult` bundling the agreement verdict, the trace and
the cost metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.core.canonical import canonical_key
from repro.core.errors import ConfigurationError
from repro.core.identity import IdentityAssignment
from repro.core.params import SystemParams
from repro.core.problem import Verdict, check_agreement_properties
from repro.sim.adversary import Adversary
from repro.sim.kernel import ExecutionKernel, TimingModel
from repro.sim.metrics import Metrics, metrics_from_deliveries
from repro.sim.process import Process
from repro.sim.trace import Trace


#: A factory building the correct-process object for one slot:
#: ``(identifier, proposal) -> Process``.
ProcessFactory = Callable[[int, Hashable], Process]


@dataclass(frozen=True)
class RunSummary:
    """Compact, picklable digest of one execution.

    :class:`ExecutionResult` drags the full trace and the live process
    objects along (process objects may close over factories, which do
    not pickle).  Anything that crosses a process boundary -- notably
    the campaign engine's worker pool -- ships this summary instead.
    """

    ok: bool
    detail: str
    rounds: int
    messages: int
    decisions: tuple[Hashable, ...]
    #: Basic-model loss edges materialised by a loss-logging timing
    #: model (delay models); 0 under round-granular timing.
    losses: int = 0

    def summary(self) -> str:
        return self.detail


@dataclass
class ExecutionResult:
    """Everything produced by one simulated execution.

    ``losses`` and ``ticks`` carry the delay-model bookkeeping when the
    execution ran under a loss-logging timing model
    (:class:`~repro.sim.kernel.DelayBased`): the ``(round, sender,
    recipient)`` edges materialised as basic-model losses, and the
    network ticks the executed rounds occupied.  For round-granular
    timing models ``losses`` is empty and ``ticks`` equals the executed
    round count.
    """

    params: SystemParams
    assignment: IdentityAssignment
    byzantine: tuple[int, ...]
    verdict: Verdict
    trace: Trace
    metrics: Metrics
    processes: Sequence[Process | None]
    losses: tuple[tuple[int, int, int], ...] = ()
    ticks: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    def brief(self) -> RunSummary:
        """Digest this result into a trace-free, picklable summary.

        Returns:
            A :class:`RunSummary` carrying the verdict flag and text,
            the round/message costs and the distinct decided values in
            canonical-key order.  The order comes from
            :func:`repro.core.canonical.canonical_key` -- the same
            canonicalisation the campaign cache hashes with -- not from
            ``repr``, whose formatting (and, for sets, iteration order)
            can differ across Python versions and hash seeds.
        """
        decisions = sorted(
            {p.decision for p in self.processes if p is not None and p.decided},
            key=canonical_key,
        )
        return RunSummary(
            ok=self.verdict.ok,
            detail=self.verdict.summary(),
            rounds=self.metrics.rounds,
            messages=self.metrics.total_messages,
            decisions=tuple(decisions),
            losses=len(self.losses),
        )

    def summary(self) -> str:
        return (
            f"{self.params.describe()}\n"
            f"  byzantine: {list(self.byzantine)}\n"
            f"  {self.verdict.summary()}\n"
            f"  {self.metrics.summary()}"
        )


def make_processes(
    factory: ProcessFactory,
    assignment: IdentityAssignment,
    proposals: Mapping[int, Hashable],
    byzantine: Sequence[int] = (),
) -> list[Process | None]:
    """Instantiate correct-process objects, leaving Byzantine slots empty.

    ``proposals`` maps each correct slot index to its input value; every
    correct slot must have a proposal.
    """
    byz = set(byzantine)
    slots: list[Process | None] = []
    for index in range(assignment.n):
        if index in byz:
            slots.append(None)
            continue
        if index not in proposals:
            raise ConfigurationError(f"no proposal for correct slot {index}")
        slots.append(factory(assignment.identifier_of(index), proposals[index]))
    return slots


def run_execution(
    params: SystemParams,
    assignment: IdentityAssignment,
    processes: Sequence[Process | None],
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    timing: TimingModel | None = None,
    max_rounds: int = 200,
    stop_when_all_decided: bool = True,
    require_termination: bool = True,
) -> ExecutionResult:
    """Run one execution to completion (or the round horizon).

    The execution runs on the unified kernel
    (:class:`~repro.sim.kernel.ExecutionKernel`) under the ``timing``
    model: lock-step rounds when unset,
    :class:`~repro.sim.kernel.BasicPsync` for basic-model losses and
    link topologies, :class:`~repro.sim.kernel.DelayBased` for the
    delay-based formulations (the result's ``losses`` and ``ticks``
    then carry the late edges and the tick count).

    When ``stop_when_all_decided`` is set the run ends as soon as every
    correct process has decided; otherwise it always runs ``max_rounds``
    rounds (useful when later rounds should be observed, e.g. to verify
    the paper's "continue running the algorithm" behaviour).
    """
    engine = ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary,
        timing=timing,
    )
    executed = engine.run(
        max_rounds=max_rounds, stop_when_all_decided=stop_when_all_decided
    )
    return result_from_kernel(
        engine, executed, require_termination=require_termination
    )


def result_from_kernel(
    engine: ExecutionKernel,
    executed: int,
    require_termination: bool = True,
) -> ExecutionResult:
    """Grade a finished kernel into an :class:`ExecutionResult`.

    Shared verdict/metrics tail of :func:`run_execution`, also used by
    the soak farm's batch scheduler (:func:`repro.sim.kernel.run_batch`
    drives many kernels, then each one is graded here individually).

    Args:
        engine: A kernel that has executed its rounds.
        executed: The number of rounds actually executed (what
            :meth:`~repro.sim.kernel.ExecutionKernel.run` returned).
        require_termination: Count non-termination within the budget as
            a violation.

    Returns:
        The finished :class:`ExecutionResult`.
    """
    processes = engine.processes
    # Every correct slot's proposal is handed to the validity check,
    # explicitly including ``None``: silently dropping a None proposal
    # would let the check conclude unanimity from the remaining
    # processes and mis-verdict executions where one correct process
    # proposed nothing.
    proposals = {k: processes[k].proposal for k in engine.correct}
    decisions = {
        k: processes[k].decision for k in engine.correct if processes[k].decided
    }
    decision_rounds = {
        k: processes[k].decision_round
        for k in engine.correct
        if processes[k].decided
    }
    verdict = check_agreement_properties(
        proposals=proposals,
        decisions=decisions,
        decision_rounds=decision_rounds,
        correct=engine.correct,
        rounds_executed=len(engine.trace),
        require_termination=require_termination,
    )
    metrics = metrics_from_deliveries(engine.deliveries)
    return ExecutionResult(
        params=engine.params,
        assignment=engine.assignment,
        byzantine=engine.byzantine,
        verdict=verdict,
        trace=engine.trace,
        metrics=metrics,
        processes=list(processes),
        losses=tuple(engine.losses),
        ticks=engine.timing.ticks_executed(executed),
    )


def run_agreement(
    params: SystemParams,
    assignment: IdentityAssignment,
    factory: ProcessFactory,
    proposals: Mapping[int, Hashable],
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    timing: TimingModel | None = None,
    max_rounds: int = 200,
    require_termination: bool = True,
) -> ExecutionResult:
    """Convenience wrapper: build processes from a factory, then run.

    Args:
        params: The system parameters.
        assignment: The identifier assignment.
        factory: ``(identifier, proposal) -> Process`` builder for
            correct slots.
        proposals: ``correct slot index -> input value``.
        byzantine: Byzantine slot indices.
        adversary: The Byzantine strategy (defaults to silence).
        timing: The :class:`~repro.sim.kernel.TimingModel` (defaults
            to lock-step rounds).
        max_rounds: Round budget.
        require_termination: Count non-termination within the budget
            as a violation.

    Returns:
        The finished :class:`ExecutionResult`.
    """
    processes = make_processes(factory, assignment, proposals, byzantine)
    return run_execution(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary,
        timing=timing,
        max_rounds=max_rounds,
        require_termination=require_termination,
    )
