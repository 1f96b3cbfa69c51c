"""The pre-port classic execution, frozen as a differential oracle."""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.classic.runner import _classic_system, classic_factory
from repro.classic.spec import ClassicSpec
from repro.core.problem import check_agreement_properties
from repro.sim.adversary import Adversary
from repro.sim.metrics import metrics_from_deliveries
from repro.sim.partial import DropSchedule
from repro.sim.runner import ExecutionResult, make_processes
from tests.oracles.network import ReferenceRoundEngine


def run_classic_reference(
    spec: ClassicSpec,
    proposals: Mapping[int, Hashable],
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    drop_schedule: DropSchedule | None = None,
    max_rounds: int | None = None,
    require_termination: bool = True,
) -> ExecutionResult:
    """The pre-port classic execution, kept as a differential oracle.

    Mirrors :func:`run_classic` on the pre-fabric per-receiver delivery
    loop (:class:`~tests.oracles.network.ReferenceRoundEngine`); the
    conformance suite pins traces, inboxes, deliveries and verdicts of
    the kernel facade against it.  Not for production use.
    """
    params, assignment, max_rounds = _classic_system(spec, max_rounds)
    processes = make_processes(
        classic_factory(spec), assignment, proposals, byzantine
    )
    engine = ReferenceRoundEngine(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary,
        drop_schedule=drop_schedule,
    )
    executed = engine.run(max_rounds=max_rounds, stop_when_all_decided=True)
    verdict = check_agreement_properties(
        proposals={k: processes[k].proposal for k in engine.correct},
        decisions={
            k: processes[k].decision
            for k in engine.correct
            if processes[k].decided
        },
        decision_rounds={
            k: processes[k].decision_round
            for k in engine.correct
            if processes[k].decided
        },
        correct=engine.correct,
        rounds_executed=len(engine.trace),
        require_termination=require_termination,
    )
    return ExecutionResult(
        params=params,
        assignment=assignment,
        byzantine=engine.byzantine,
        verdict=verdict,
        trace=engine.trace,
        metrics=metrics_from_deliveries(engine.deliveries),
        processes=list(processes),
        losses=tuple(engine.losses),
        ticks=engine.timing.ticks_executed(executed),
    )
