"""Run a Figure 2 spec directly as simulator processes.

In the classical setting (``ell = n``, unique identifiers) a
:class:`~repro.classic.spec.ClassicSpec` *is* an algorithm for the
simulator; :class:`ClassicProcess` adapts the functional form to the
engine's ``compose``/``deliver`` interface.  This is how the Figure 2
baselines are benchmarked, and it doubles as the reference behaviour
that the Figure 3 transformation must reproduce (the simulation proof
of Proposition 2 equates ``T(A)`` executions with executions of these
processes).

:func:`run_classic` is the surface's kernel facade: it builds the
unique-identifier system around a spec and drives it through
:class:`~repro.sim.kernel.ExecutionKernel` (via
:func:`~repro.sim.runner.run_agreement`), so EIG and phase-king
executions get delivery metrics, checkpointing and pluggable timing
models exactly like every other surface.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.classic.spec import ClassicSpec, filter_equivocators
from repro.core.identity import balanced_assignment
from repro.core.messages import Inbox
from repro.core.params import SystemParams
from repro.sim.adversary import Adversary
from repro.sim.kernel import TimingModel
from repro.sim.process import Process
from repro.sim.runner import ExecutionResult, run_agreement


class ClassicProcess(Process):
    """One uniquely-identified process executing a Figure 2 spec.

    Engine rounds are 0-indexed; the paper's Figure 2 rounds are
    1-indexed.  Round ``R`` of the engine executes round ``R + 1`` of
    the spec.
    """

    def __init__(self, spec: ClassicSpec, identifier: int, proposal: Hashable) -> None:
        super().__init__(identifier, proposal)
        self.spec = spec
        self.state = spec.init(identifier, proposal)

    def compose(self, round_no: int) -> Hashable:
        return self.spec.message(self.state, round_no + 1)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        received = filter_equivocators(inbox)
        self.state = self.spec.transition(self.state, round_no + 1, received)
        decision = self.spec.decide(self.state)
        if decision is not None:
            self.record_decision(decision, round_no)


def classic_factory(spec: ClassicSpec):
    """Process factory for :func:`repro.sim.runner.run_agreement`."""

    def factory(identifier: int, proposal: Hashable) -> ClassicProcess:
        return ClassicProcess(spec, identifier, proposal)

    return factory


def _classic_system(spec: ClassicSpec, max_rounds: int | None):
    """The unique-identifier system a Figure 2 spec runs in."""
    params = SystemParams(n=spec.ell, ell=spec.ell, t=spec.t)
    assignment = balanced_assignment(spec.ell, spec.ell)
    if max_rounds is None:
        # The +2 slack lets post-horizon silence show up in the trace
        # (the paper's "continue running the algorithm" behaviour).
        max_rounds = spec.max_rounds + 2
    return params, assignment, max_rounds


def run_classic(
    spec: ClassicSpec,
    proposals: Mapping[int, Hashable],
    byzantine: Sequence[int] = (),
    adversary: Adversary | None = None,
    timing: TimingModel | None = None,
    max_rounds: int | None = None,
    require_termination: bool = True,
) -> ExecutionResult:
    """Run a Figure 2 spec as one kernel-driven execution.

    The thin facade over :func:`~repro.sim.runner.run_agreement` for
    the classical setting: ``n = ell = spec.ell`` uniquely-identified
    processes, identifiers assigned in slot order.

    Args:
        spec: The algorithm in Figure 2 functional form.
        proposals: ``correct slot index -> input value``.
        byzantine: Byzantine slot indices.
        adversary: The Byzantine strategy (defaults to silence).
        timing: The :class:`~repro.sim.kernel.TimingModel` (defaults
            to lock-step rounds).
        max_rounds: Round budget; defaults to ``spec.max_rounds + 2``.
        require_termination: Count non-termination within the budget
            as a violation.

    Returns:
        The finished :class:`~repro.sim.runner.ExecutionResult`.
    """
    params, assignment, max_rounds = _classic_system(spec, max_rounds)
    return run_agreement(
        params=params,
        assignment=assignment,
        factory=classic_factory(spec),
        proposals=proposals,
        byzantine=byzantine,
        adversary=adversary,
        timing=timing,
        max_rounds=max_rounds,
        require_termination=require_termination,
    )
