"""Figure 1: the scenario argument for Proposition 1 (``ell <= 3t``).

The paper proves synchronous agreement impossible with ``ell = 3t``
identifiers by wiring up a **2n-process reference system** in which
every process runs the algorithm *correctly*, yet three overlapping
"views" each look exactly like a legitimate n-process execution -- and
the three legitimacy requirements contradict each other.

Layout (0-indexed *columns* ``0 .. 6t-1``; column ``c`` holds identifier
``(c mod 3t) + 1`` and copy ``c // 3t``):

* copy 0 columns (``0..3t-1``) run with input **0**, copy 1 columns
  (``3t..6t-1``) with input **1**;
* two columns are *stacks* of ``n - 3t + 1`` homonym processes:
  column 0 (identifier 1, input 0) and column ``4t`` (identifier
  ``t + 1``, input 1); all other columns are singletons -- totalling
  ``2n`` processes;
* column ``c``'s in-neighbourhood (who it hears) is chosen so that each
  of the three views below receives every view identifier exactly from
  its view column, and the ``t`` "Byzantine" identifiers from real
  columns outside the view.

The three views and why they contradict:

* **V1** = columns ``0..2t-1`` (ids ``1..2t``, all inputs 0): cannot
  distinguish the run from an n-process execution in which ids
  ``2t+1..3t`` are Byzantine, so *validity* forces them to decide 0.
* **V2** = columns ``4t..6t-1`` (ids ``t+1..3t``, all inputs 1):
  symmetric -- must decide 1.  Members of V2 hear the column-0 *stack*
  as Byzantine identifier 1, i.e. ``n - 3t + 1`` distinct streams from
  one Byzantine process: this is exactly where the unrestricted power
  (multiple messages per recipient per round) is consumed.
* **V3** = columns ``5t..6t-1`` and ``0..t-1`` (ids ``2t+1..3t`` with
  input 1, ids ``1..t`` with input 0): a legitimate execution whose
  *agreement* property forces all members to decide equal -- but its
  members already decided 0 (as V1 members) and 1 (as V2 members).

Running any claimed ``ell = 3t`` algorithm inside this system therefore
*must* exhibit a concrete violation in at least one view;
:func:`run_scenario` builds the system, runs it, checks all three views
and reports which requirement broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.core.errors import ConfigurationError
from repro.core.identity import IdentityAssignment
from repro.core.params import SystemParams
from repro.sim.kernel import (
    BasicPsync,
    ComposedTiming,
    EngineCheckpoint,
    ExecutionKernel,
    TimingModel,
)
from repro.sim.metrics import Metrics, RoundDeliveries, metrics_from_deliveries
from repro.sim.process import Process
from repro.sim.topology import DirectedTopology
from repro.sim.trace import Trace

#: Factory for the algorithm under test: ``(identifier, input) -> Process``.
AlgorithmFactory = Callable[[int, Hashable], Process]


@dataclass(frozen=True)
class ViewReport:
    """Outcome of checking one view of the scenario system."""

    name: str
    members: tuple[int, ...]  # process indices in the big system
    requirement: str  # human-readable description
    decisions: dict
    satisfied: bool
    detail: str


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of the full Figure 1 run.

    Since the kernel port the outcome also carries the execution's
    observability products: the exact per-round delivery log (and the
    :class:`~repro.sim.metrics.Metrics` derived from it), the full
    trace, and any mid-run checkpoints requested via
    ``checkpoint_every`` -- all for free from
    :class:`~repro.sim.kernel.ExecutionKernel`.
    """

    views: tuple[ViewReport, ...]
    rounds_executed: int
    metrics: Metrics | None = None
    trace: Trace | None = None
    deliveries: tuple[RoundDeliveries, ...] = ()
    losses: tuple[tuple[int, int, int], ...] = ()
    checkpoints: tuple[EngineCheckpoint, ...] = field(
        default=(), repr=False, compare=False
    )

    @property
    def contradiction_exhibited(self) -> bool:
        """True when at least one view's requirement failed -- which the
        theorem guarantees for every deterministic algorithm."""
        return any(not v.satisfied for v in self.views)

    def summary(self) -> str:
        lines = [f"Figure 1 scenario ({self.rounds_executed} rounds):"]
        for v in self.views:
            status = "ok" if v.satisfied else "VIOLATED"
            lines.append(f"  {v.name}: {v.requirement} -> {status} ({v.detail})")
        return "\n".join(lines)


class ScenarioSystem:
    """The 2n-process reference system of Figure 1 for ``ell = 3t``."""

    def __init__(self, n: int, t: int) -> None:
        if t < 1:
            raise ConfigurationError("the scenario needs t >= 1")
        if n < 3 * t:
            raise ConfigurationError(
                f"need n >= 3t so every identifier is coverable, got n={n}, t={t}"
            )
        self.n = int(n)
        self.t = int(t)
        self.ell = 3 * self.t
        self._build_columns()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_columns(self) -> None:
        t, n = self.t, self.n
        stack_size = n - 3 * t + 1
        #: column -> process indices (built in column order).
        self.column_members: list[tuple[int, ...]] = []
        ids: list[int] = []
        inputs: list[Hashable] = []
        index = 0
        for c in range(6 * t):
            size = stack_size if c in (0, 4 * t) else 1
            members = tuple(range(index, index + size))
            index += size
            self.column_members.append(members)
            ident = (c % (3 * t)) + 1
            value = 0 if c < 3 * t else 1
            ids.extend([ident] * size)
            inputs.extend([value] * size)
        self.total = index  # == 2n
        self.ids = tuple(ids)
        self.inputs = tuple(inputs)
        self.in_columns = {
            c: self._in_columns_of(c) for c in range(6 * t)
        }

    def _in_columns_of(self, c: int) -> frozenset[int]:
        """In-neighbourhoods satisfying all three views simultaneously."""
        t = self.t

        def cols(*ranges: tuple[int, int]) -> frozenset[int]:
            out: set[int] = set()
            for lo, hi in ranges:
                out.update(range(lo, hi))
            return frozenset(out)

        if c < 2 * t:  # V1 members (first t of them also in V3)
            return cols((0, 2 * t), (5 * t, 6 * t))
        if c < 3 * t:  # copy-0 spares: unconstrained, mirror V1's shape
            return cols((0, 3 * t), (5 * t, 6 * t))
        if c < 4 * t:  # copy-1 spares: unconstrained, mirror V2's shape
            return cols((3 * t, 6 * t), (0, t))
        # V2 members (last t of them also in V3)
        return cols((4 * t, 6 * t), (0, t))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view_columns(self) -> dict[str, tuple[int, ...]]:
        t = self.t
        return {
            "V1": tuple(range(0, 2 * t)),
            "V2": tuple(range(4 * t, 6 * t)),
            "V3": tuple(range(5 * t, 6 * t)) + tuple(range(0, t)),
        }

    def view_members(self, columns: Sequence[int]) -> tuple[int, ...]:
        members: list[int] = []
        for c in columns:
            members.extend(self.column_members[c])
        return tuple(members)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def topology(self) -> DirectedTopology:
        """The directed view wiring as a topology object."""
        in_neighbors = {}
        for c, members in enumerate(self.column_members):
            allowed: set[int] = set()
            for c_in in self.in_columns[c]:
                allowed.update(self.column_members[c_in])
            for k in members:
                in_neighbors[k] = frozenset(allowed)
        return DirectedTopology(in_neighbors)

    def _timing_model(self, timing: TimingModel | None) -> TimingModel:
        """Stack the structural view wiring under the caller's timing.

        The Figure 1 wiring is not optional -- it *is* the scenario --
        so a caller-supplied timing model composes with it via
        :class:`~repro.sim.kernel.ComposedTiming` rather than replacing
        it.
        """
        structural = BasicPsync(topology=self.topology())
        if timing is None:
            return structural
        return ComposedTiming(structural, timing)

    def _build(self, factory: AlgorithmFactory):
        params = SystemParams(n=self.total, ell=self.ell, t=0)
        assignment = IdentityAssignment(self.ell, self.ids)
        processes: list[Process] = [
            factory(self.ids[k], self.inputs[k]) for k in range(self.total)
        ]
        return params, assignment, processes

    def run(
        self,
        factory: AlgorithmFactory,
        max_rounds: int,
        timing: TimingModel | None = None,
        checkpoint_every: int | None = None,
    ) -> ScenarioOutcome:
        """Build the big system, run it, and check the three views.

        The orchestration drives :class:`~repro.sim.kernel.ExecutionKernel`
        through its ``compose_round``/``finish_round`` split, so the
        scenario gets delivery metrics, checkpointing and pluggable
        timing models for free.

        Args:
            factory: The algorithm under test.
            max_rounds: Round budget (the run stops early once every
                process decided).
            timing: Optional extra :class:`~repro.sim.kernel.TimingModel`
                composed with the structural wiring (e.g.
                :class:`~repro.sim.kernel.BasicPsync` for basic-model
                losses on top of the view wiring).
            checkpoint_every: When set, snapshot the kernel every that
                many rounds; the snapshots ride on the outcome.

        Returns:
            The :class:`ScenarioOutcome` with the three view reports
            and the execution's metrics, trace and delivery log.
        """
        params, assignment, processes = self._build(factory)
        engine = ExecutionKernel(
            params=params,
            assignment=assignment,
            processes=processes,
            timing=self._timing_model(timing),
        )
        checkpoints: list[EngineCheckpoint] = []
        for _ in range(max_rounds):
            payloads = engine.compose_round()
            engine.finish_round(payloads)
            if checkpoint_every and engine.round_no % checkpoint_every == 0:
                checkpoints.append(engine.checkpoint())
            if engine.all_correct_decided():
                break
        # Read process state back off the engine: with copy-on-write
        # checkpoints the kernel may rebind its process list after a
        # snapshot, leaving the locally built list stale.
        return self._outcome(engine, engine.processes, checkpoints)

    def _outcome(
        self,
        engine: ExecutionKernel,
        processes: Sequence[Process],
        checkpoints: Sequence[EngineCheckpoint] = (),
    ) -> ScenarioOutcome:
        views = self.view_columns()
        reports = [
            self._check_unanimity("V1", views["V1"], processes, expected=0),
            self._check_unanimity("V2", views["V2"], processes, expected=1),
            self._check_agreement("V3", views["V3"], processes),
        ]
        return ScenarioOutcome(
            views=tuple(reports),
            rounds_executed=len(engine.trace),
            metrics=metrics_from_deliveries(engine.deliveries),
            trace=engine.trace,
            deliveries=tuple(engine.deliveries),
            losses=tuple(engine.losses),
            checkpoints=tuple(checkpoints),
        )

    def _check_unanimity(
        self, name: str, columns: Sequence[int], processes, expected: Hashable
    ) -> ViewReport:
        members = self.view_members(columns)
        decisions = {k: processes[k].decision for k in members}
        ok = all(
            processes[k].decided and processes[k].decision == expected
            for k in members
        )
        detail = f"decisions={self._digest(decisions)}"
        return ViewReport(
            name=name,
            members=members,
            requirement=f"validity forces every member to decide {expected}",
            decisions=decisions,
            satisfied=ok,
            detail=detail,
        )

    def _check_agreement(
        self, name: str, columns: Sequence[int], processes
    ) -> ViewReport:
        members = self.view_members(columns)
        decisions = {k: processes[k].decision for k in members}
        decided_values = {
            repr(processes[k].decision) for k in members if processes[k].decided
        }
        all_decided = all(processes[k].decided for k in members)
        ok = all_decided and len(decided_values) <= 1
        return ViewReport(
            name=name,
            members=members,
            requirement="agreement + termination force one common decision",
            decisions=decisions,
            satisfied=ok,
            detail=f"decisions={self._digest(decisions)}",
        )

    @staticmethod
    def _digest(decisions: dict) -> str:
        buckets: dict[str, int] = {}
        for value in decisions.values():
            key = "undecided" if value is None else repr(value)
            buckets[key] = buckets.get(key, 0) + 1
        return ", ".join(f"{k}x{v}" for k, v in sorted(buckets.items()))


def run_scenario(
    n: int, t: int, factory: AlgorithmFactory, max_rounds: int
) -> ScenarioOutcome:
    """Convenience wrapper: build and run the Figure 1 system."""
    return ScenarioSystem(n, t).run(factory, max_rounds)
