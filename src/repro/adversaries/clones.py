"""Theorem 19: clone arguments for innumerate + restricted systems.

If Byzantine senders are restricted *and* receivers are innumerate,
homonym stacks collapse: ``n - ell + 1`` correct processes that share an
identifier, share an input, and receive the same Byzantine messages
behave as indistinguishable *clones* -- they broadcast identical
payloads every round, which innumerate receivers cannot even count.
The whole system is therefore equivalent to an ``ell``-process system
with unique identifiers, so ``ell <= 3t`` remains impossible
(synchronously) and ``2*ell <= n + 3t`` remains the partially
synchronous bound -- restriction buys nothing without numeracy.

This module provides:

* :class:`CloneFairAdversary` -- wraps any adversary so that every
  member of each homonym group receives identical Byzantine messages
  (the premise of the clone argument, and exactly what a restricted
  Byzantine process "playing fair across clones" looks like);
* :func:`run_clone_experiment` -- runs an algorithm on a stacked
  assignment under a clone-fair adversary and verifies the clone
  property: all members of each fully correct group emit identical
  payload streams, round for round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.core.identity import stacked_assignment
from repro.core.params import SystemParams
from repro.sim.adversary import Adversary, AdversaryView, Emission
from repro.sim.kernel import TimingModel
from repro.sim.process import Process
from repro.sim.runner import ExecutionResult, run_execution

AlgorithmFactory = Callable[[int, Hashable], Process]


class CloneFairAdversary(Adversary):
    """Adapter: force an adversary to treat homonym clones identically.

    The wrapped adversary's per-recipient messages are re-routed so all
    members of a homonym group receive what the wrapped adversary
    addressed to the group's *first* member.  Drop schedules must be
    clone-fair too for the clone property to hold; pair this with
    group-symmetric schedules (``NoDrops``, ``SilenceUntil``) in
    experiments.
    """

    def __init__(self, inner: Adversary) -> None:
        self.inner = inner

    def setup(self, params, assignment, byzantine, proposals) -> None:
        self._assignment = assignment
        self.inner.setup(params, assignment, byzantine, proposals)

    def emissions(self, view: AdversaryView) -> Mapping[int, Emission]:
        raw = self.inner.emissions(view)
        groups = view.assignment.groups()
        result: dict[int, Emission] = {}
        for slot, emission in raw.items():
            fair: dict[int, tuple[Hashable, ...]] = {}
            for ident, members in groups.items():
                leader = members[0]
                batch = tuple(emission.get(leader, ()))
                if batch:
                    for q in members:
                        fair[q] = batch
            if fair:
                result[slot] = fair
        return result


@dataclass(frozen=True)
class CloneReport:
    """Outcome of one clone experiment."""

    result: ExecutionResult
    clone_groups: tuple[tuple[int, ...], ...]  # fully correct homonym groups
    clones_identical: bool
    first_divergence: str | None

    def summary(self) -> str:
        status = "identical" if self.clones_identical else "DIVERGED"
        return (
            f"clone experiment: groups={self.clone_groups} -> {status}"
            + (f" ({self.first_divergence})" if self.first_divergence else "")
        )


def run_clone_experiment(
    params: SystemParams,
    factory: AlgorithmFactory,
    adversary: Adversary,
    proposals_by_ident: Mapping[int, Hashable],
    byzantine: tuple[int, ...] = (),
    timing: TimingModel | None = None,
    max_rounds: int = 100,
    stacked_id: int = 1,
) -> CloneReport:
    """Run on a maximally stacked assignment and check the clone property.

    Every process proposes the value of its identifier's entry in
    ``proposals_by_ident``, so members of a group share an input by
    construction.  The adversary is wrapped clone-fair.  The clone
    property is checked over the *trace*: in every round, all members of
    each fully correct group must have broadcast the same payload.
    """
    assignment = stacked_assignment(params.n, params.ell, stacked_id=stacked_id)
    byz_set = set(byzantine)
    processes: list[Process | None] = []
    for k in range(params.n):
        if k in byz_set:
            processes.append(None)
            continue
        ident = assignment.identifier_of(k)
        processes.append(factory(ident, proposals_by_ident[ident]))

    result = run_execution(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=tuple(sorted(byz_set)),
        adversary=CloneFairAdversary(adversary),
        timing=timing,
        max_rounds=max_rounds,
        stop_when_all_decided=True,
        require_termination=True,
    )

    clone_groups = tuple(
        members
        for ident, members in sorted(assignment.groups().items())
        if len(members) > 1 and not byz_set.intersection(members)
    )
    identical = True
    divergence: str | None = None
    for record in result.trace:
        for members in clone_groups:
            payloads = {repr(record.payloads.get(k)) for k in members}
            if len(payloads) > 1:
                identical = False
                divergence = (
                    f"round {record.round_no}, group {members}: {sorted(payloads)}"
                )
                break
        if not identical:
            break

    return CloneReport(
        result=result,
        clone_groups=clone_groups,
        clones_identical=identical,
        first_divergence=divergence,
    )
