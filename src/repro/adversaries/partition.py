"""Figure 4: the partition argument for Proposition 4 (``2*ell <= n + 3t``).

The partially synchronous lower bound is realised constructively:

* **Execution alpha** -- synchronous run, all correct inputs 0, the ``t``
  Byzantine processes (identifiers ``t+1..2t``) silent.  Correct set:
  a *core* ``M0`` covering identifiers ``1..t`` (identifier 1 carries a
  stack) and a *wing* ``W0`` covering identifiers ``2t+1..ell``
  (identifier ``2t+1`` carries the excess ``n - 2*ell + 3t`` processes).
  Validity forces a unanimous 0 by some round ``r_alpha``.
* **Execution beta** -- symmetric, inputs 1, Byzantine identifiers
  ``2t+1..3t``, core ``M1`` over ids ``1..t`` (id 1 stacked with
  ``n - ell + 1`` processes -- the stack drawn in the paper's figure),
  wing ``W1`` over ids ``t+1..2t`` and ``3t+1..ell``.  Forces 1 by
  ``r_beta``.
* **Execution gamma** -- the wings coexist: ``W0`` (inputs 0) and ``W1``
  (inputs 1) plus ``t`` Byzantine processes holding identifiers
  ``1..t``.  Until round ``max(r_alpha, r_beta)`` every message between
  the wings is dropped (legal in the DLS basic model), while Byzantine
  identifier ``i`` *replays* to ``W0`` the recorded alpha-messages of all
  ``M0`` processes with identifier ``i`` and to ``W1`` the recorded
  beta-messages of ``M1``'s identifier-``i`` processes.  Replaying a
  stacked identifier means sending several messages to one recipient in
  one round -- the unrestricted Byzantine power (for *innumerate*
  victims a single copy suffices, which is Theorem 20's remark; the
  replayer exposes both modes).

``W0`` members cannot distinguish gamma from alpha (they hear exactly
``W0 + M0``-replay and, as in alpha, nothing from identifiers
``t+1..2t``), so they decide 0; symmetrically ``W1`` decides 1 --
agreement is violated in a single legitimate execution.

The construction exists **iff** ``n >= 2*ell - 3t``, i.e. exactly when
``2*ell <= n + 3t``: sizes go negative otherwise
(:func:`partition_attack_feasible`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.core.errors import ConfigurationError
from repro.core.identity import IdentityAssignment, assignment_from_sizes
from repro.core.params import SystemParams, Synchrony
from repro.sim.adversary import Adversary, AdversaryView, Emission
from repro.sim.kernel import BasicPsync
from repro.sim.partial import PartitionSchedule
from repro.sim.process import Process
from repro.sim.runner import ExecutionResult, run_execution
from repro.sim.trace import Trace

#: Factory for the algorithm under test: ``(identifier, input) -> Process``.
AlgorithmFactory = Callable[[int, Hashable], Process]


def partition_attack_feasible(n: int, ell: int, t: int) -> bool:
    """The Figure 4 construction exists iff ``ell > 3t`` fails to hold
    with room: formally it needs ``t >= 1``, ``ell > 3t`` (otherwise the
    synchronous argument already applies) and ``2*ell <= n + 3t``."""
    return t >= 1 and ell > 3 * t and 2 * ell <= n + 3 * t


@dataclass(frozen=True)
class PartitionLayout:
    """Process-index layout shared by the three executions."""

    n: int
    ell: int
    t: int

    def __post_init__(self) -> None:
        if not partition_attack_feasible(self.n, self.ell, self.t):
            raise ConfigurationError(
                f"partition construction needs t>=1, ell>3t and 2*ell<=n+3t; "
                f"got n={self.n}, ell={self.ell}, t={self.t}"
            )

    # -- alpha ----------------------------------------------------------
    def alpha_sizes(self) -> dict[int, int]:
        """Group sizes of execution alpha (core M0 + byz t+1..2t + wing W0)."""
        n, ell, t = self.n, self.ell, self.t
        sizes = {ident: 1 for ident in range(1, ell + 1)}
        sizes[1] = ell - 3 * t + 1  # M0 stack
        sizes[2 * t + 1] = n - 2 * ell + 3 * t + 1  # W0 excess
        return sizes

    def alpha_byzantine_ids(self) -> tuple[int, ...]:
        return tuple(range(self.t + 1, 2 * self.t + 1))

    # -- beta -----------------------------------------------------------
    def beta_sizes(self) -> dict[int, int]:
        """Group sizes of execution beta (core M1 stacked at id 1)."""
        n, ell, t = self.n, self.ell, self.t
        sizes = {ident: 1 for ident in range(1, ell + 1)}
        sizes[1] = n - ell + 1  # M1 stack (the figure's n-ell+1 stack)
        return sizes

    def beta_byzantine_ids(self) -> tuple[int, ...]:
        return tuple(range(2 * self.t + 1, 3 * self.t + 1))

    # -- core / wing identifier sets -------------------------------------
    def core_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.t + 1))

    def w0_ids(self) -> tuple[int, ...]:
        return tuple(range(2 * self.t + 1, self.ell + 1))

    def w1_ids(self) -> tuple[int, ...]:
        return tuple(range(self.t + 1, 2 * self.t + 1)) + tuple(
            range(3 * self.t + 1, self.ell + 1)
        )


def _indices_with_ids(
    assignment: IdentityAssignment, idents: tuple[int, ...]
) -> tuple[int, ...]:
    wanted = set(idents)
    return tuple(
        k for k in range(assignment.n) if assignment.identifier_of(k) in wanted
    )


class ReplayAdversary(Adversary):
    """Byzantine identifiers ``1..t`` replaying recorded core messages.

    ``per_wing`` maps each gamma wing (by recipient index) to a list of
    recorded payload streams: each stream is the round-indexed payload
    sequence of one core process from the reference execution, together
    with the identifier it was sent under.  In round ``r`` the slot
    holding identifier ``i`` sends, to every recipient of a wing, one
    message per stream of identifier ``i`` recorded for that wing.
    """

    def __init__(
        self,
        streams_w0: Mapping[int, tuple[Trace, tuple[int, ...]]],
        streams_w1: Mapping[int, tuple[Trace, tuple[int, ...]]],
        w0: tuple[int, ...],
        w1: tuple[int, ...],
        innumerate_single_copy: bool = False,
    ) -> None:
        # streams_w*: ident -> (reference trace, core process indices in it)
        self._streams = {0: dict(streams_w0), 1: dict(streams_w1)}
        self._wings = {0: tuple(w0), 1: tuple(w1)}
        self.innumerate_single_copy = bool(innumerate_single_copy)

    def emissions(self, view: AdversaryView) -> Mapping[int, Emission]:
        r = view.round_no
        result: dict[int, Emission] = {}
        for slot in view.byzantine:
            ident = view.identifier_of(slot)
            emission: dict[int, list[Hashable]] = {}
            for wing_key in (0, 1):
                entry = self._streams[wing_key].get(ident)
                if entry is None:
                    continue
                trace, core_indices = entry
                if r >= len(trace):
                    continue  # reference exhausted: fall silent
                record = trace.record(r)
                payloads = [
                    record.payloads[k]
                    for k in core_indices
                    if k in record.payloads
                ]
                if self.innumerate_single_copy and payloads:
                    # Theorem 20: against innumerate victims one copy of
                    # each *distinct* payload suffices.
                    seen: list[Hashable] = []
                    for p in payloads:
                        if p not in seen:
                            seen.append(p)
                    payloads = seen
                if not payloads:
                    continue
                for q in self._wings[wing_key]:
                    emission.setdefault(q, []).extend(payloads)
            if emission:
                result[slot] = {q: tuple(ps) for q, ps in emission.items()}
        return result


@dataclass
class PartitionOutcome:
    """Everything the Figure 4 harness produced."""

    layout: PartitionLayout
    alpha: ExecutionResult
    beta: ExecutionResult
    gamma: ExecutionResult
    w0: tuple[int, ...]
    w1: tuple[int, ...]

    @property
    def attack_succeeded(self) -> bool:
        """True when gamma exhibits a Byzantine-agreement violation.

        Either disagreement between the wings (the paper's outcome) or,
        for algorithms that stall instead, a termination failure in one
        of the three legitimate executions.
        """
        return (
            not self.alpha.verdict.ok
            or not self.beta.verdict.ok
            or not self.gamma.verdict.ok
        )

    def summary(self) -> str:
        return (
            f"Figure 4 partition attack on n={self.layout.n} "
            f"ell={self.layout.ell} t={self.layout.t}\n"
            f"  alpha: {self.alpha.verdict.summary()}\n"
            f"  beta:  {self.beta.verdict.summary()}\n"
            f"  gamma: {self.gamma.verdict.summary()}"
        )


def run_partition_attack(
    n: int,
    ell: int,
    t: int,
    factory: AlgorithmFactory,
    reference_rounds: int,
    numerate: bool = False,
    slack_rounds: int = 24,
) -> PartitionOutcome:
    """Execute the full three-execution construction of Proposition 4.

    ``factory`` builds the algorithm under test (typically the Figure 5
    protocol constructed with ``unchecked=True`` since the whole point
    is to run it below its bound).  ``reference_rounds`` bounds the
    alpha/beta reference runs; they normally decide much earlier.
    """
    layout = PartitionLayout(n, ell, t)
    base = SystemParams(
        n=n, ell=ell, t=t,
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=numerate, restricted=False,
    )

    # ---- alpha: all correct input 0, byz ids t+1..2t silent -----------
    alpha_assignment = assignment_from_sizes(layout.alpha_sizes())
    alpha_byz = _indices_with_ids(alpha_assignment, layout.alpha_byzantine_ids())
    alpha_procs: list[Process | None] = [
        None if k in alpha_byz else factory(alpha_assignment.identifier_of(k), 0)
        for k in range(n)
    ]
    alpha = run_execution(
        params=base,
        assignment=alpha_assignment,
        processes=alpha_procs,
        byzantine=alpha_byz,
        max_rounds=reference_rounds,
        stop_when_all_decided=False,  # record full trace for replay
        require_termination=True,
    )

    # ---- beta: all correct input 1, byz ids 2t+1..3t silent ------------
    beta_assignment = assignment_from_sizes(layout.beta_sizes())
    beta_byz = _indices_with_ids(beta_assignment, layout.beta_byzantine_ids())
    beta_procs: list[Process | None] = [
        None if k in beta_byz else factory(beta_assignment.identifier_of(k), 1)
        for k in range(n)
    ]
    beta = run_execution(
        params=base,
        assignment=beta_assignment,
        processes=beta_procs,
        byzantine=beta_byz,
        max_rounds=reference_rounds,
        stop_when_all_decided=False,
        require_termination=True,
    )

    # ---- gamma: wings + replaying byzantine core -----------------------
    # Identifiers 3t+1..ell are *cross-partition homonyms*: one holder
    # sits in each wing, so wing membership is tracked by index.
    gamma_ids: list[int] = []
    gamma_byz: list[int] = []
    w0_list: list[int] = []
    w1_list: list[int] = []

    def _add(ident: int, wing: list[int] | None) -> None:
        index = len(gamma_ids)
        gamma_ids.append(ident)
        if wing is None:
            gamma_byz.append(index)
        else:
            wing.append(index)

    for ident in range(1, t + 1):  # Byzantine core identifiers
        _add(ident, None)
    for ident in range(t + 1, 2 * t + 1):  # W1 singletons
        _add(ident, w1_list)
    for _ in range(n - 2 * ell + 3 * t + 1):  # W0 stack on id 2t+1
        _add(2 * t + 1, w0_list)
    for ident in range(2 * t + 2, 3 * t + 1):  # W0 singletons
        _add(ident, w0_list)
    for ident in range(3 * t + 1, ell + 1):  # cross-partition homonyms
        _add(ident, w0_list)
        _add(ident, w1_list)

    gamma_assignment = IdentityAssignment(ell, tuple(gamma_ids))
    w0 = tuple(w0_list)
    w1 = tuple(w1_list)

    gamma_procs: list[Process | None] = [None] * n
    for k in w0:
        gamma_procs[k] = factory(gamma_assignment.identifier_of(k), 0)
    for k in w1:
        gamma_procs[k] = factory(gamma_assignment.identifier_of(k), 1)

    # Identifier -> (reference trace, core indices) replay streams.
    streams_w0 = {
        ident: (
            alpha.trace,
            _indices_with_ids(alpha_assignment, (ident,)),
        )
        for ident in layout.core_ids()
    }
    streams_w1 = {
        ident: (
            beta.trace,
            _indices_with_ids(beta_assignment, (ident,)),
        )
        for ident in layout.core_ids()
    }

    r_alpha = alpha.verdict.last_decision_round
    r_beta = beta.verdict.last_decision_round
    if r_alpha is None or r_beta is None:
        # An algorithm that never decides in a synchronous, nearly
        # failure-free execution has already violated termination; the
        # gamma stage is moot but we still return the outcome.
        gst = reference_rounds
    else:
        gst = max(r_alpha, r_beta) + 1

    gamma = run_execution(
        params=base,
        assignment=gamma_assignment,
        processes=gamma_procs,
        byzantine=gamma_byz,
        adversary=ReplayAdversary(
            streams_w0, streams_w1, w0, w1,
            innumerate_single_copy=False,
        ),
        timing=BasicPsync(PartitionSchedule(gst, w0, w1)),
        max_rounds=gst + slack_rounds,
        stop_when_all_decided=False,
        require_termination=True,
    )

    return PartitionOutcome(
        layout=layout, alpha=alpha, beta=beta, gamma=gamma, w0=w0, w1=w1
    )
