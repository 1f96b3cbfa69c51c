"""The pre-port Figure 1 scenario run, frozen as a differential oracle."""

from __future__ import annotations

from repro.adversaries.scenario import (
    AlgorithmFactory,
    ScenarioOutcome,
    ScenarioSystem,
)
from repro.core.errors import ConfigurationError
from repro.sim.kernel import TimingModel
from repro.sim.partial import DropSchedule
from tests.oracles.network import ReferenceRoundEngine


class ReferenceScenarioSystem(ScenarioSystem):
    """The pre-port scenario execution, kept as a differential oracle.

    Drives the Figure 1 system exactly as it ran before the kernel
    port: an engine built on the pre-fabric per-receiver delivery loop
    (:class:`~tests.oracles.network.ReferenceRoundEngine`) stepped through
    its monolithic ``run`` entry point.  The conformance suite pins the
    kernelised :meth:`ScenarioSystem.run` against this class -- traces,
    view reports, delivery counts.  Not for production use; supports the
    basic model only (``drop_schedule``), not arbitrary timing models.
    """

    def run(
        self,
        factory: AlgorithmFactory,
        max_rounds: int,
        drop_schedule: DropSchedule | None = None,
        timing: TimingModel | None = None,
        checkpoint_every: int | None = None,
    ) -> ScenarioOutcome:
        if timing is not None:
            raise ConfigurationError(
                "the reference scenario oracle predates timing models; "
                "pass a drop_schedule or nothing"
            )
        if checkpoint_every is not None:
            raise ConfigurationError(
                "the reference scenario oracle predates checkpointing"
            )
        params, assignment, processes = self._build(factory)
        engine = ReferenceRoundEngine(
            params=params,
            assignment=assignment,
            processes=processes,
            drop_schedule=drop_schedule,
            topology=self.topology(),
        )
        engine.run(max_rounds=max_rounds, stop_when_all_decided=True)
        return self._outcome(engine, processes)
