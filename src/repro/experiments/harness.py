"""Experiment harness: validate every Table 1 cell empirically.

For one cell ``(n, ell, t, synchrony, numeracy, restriction)``:

* the predicate of :mod:`repro.analysis.bounds` supplies the
  *prediction* (solvable / unsolvable);
* **solvable** cells run the matching algorithm (Figure 3
  transformation of EIG for synchronous, Figure 5 for partially
  synchronous, Figure 7 for restricted+numerate) across the workload
  battery -- assignments x inputs x Byzantine placements x attacks x
  drop schedules -- and must produce a clean verdict every time;
* **unsolvable** cells run the paper's constructive demonstration
  (Figure 1 scenario, Figure 4 partition, or the Lemma 17 mirror scan)
  against the same algorithm built ``unchecked`` and must exhibit a
  violation (or a Lemma 21 multivalence witness for the
  non-constructive valency bound).

The Table 1 benchmark and several integration tests drive this module;
``quick=True`` trims the battery to keep the wall-clock sane.

The workload of a solvable cell is enumerated as *slices* -- one per
(assignment, Byzantine placement) pair -- via :func:`solvable_slice_keys`
and executed via :func:`run_solvable_slice`.  The sequential path
(:func:`evaluate_solvable_cell`) iterates the slices in order; the
parallel campaign engine (:mod:`repro.experiments.campaign`) ships each
slice key to a worker process and merges the records back.  Both paths
therefore produce byte-identical run records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

from repro.core.errors import ConfigurationError

from repro.adversaries.generic import standard_attack_suite
from repro.adversaries.mirror import mirror_chain_scan
from repro.adversaries.partition import (
    partition_attack_feasible,
    run_partition_attack,
)
from repro.adversaries.scenario import run_scenario
from repro.analysis.bounds import solvable
from repro.classic.eig import EIGSpec
from repro.core.params import Synchrony, SystemParams
from repro.core.problem import BINARY, AgreementProblem
from repro.homonyms.transform import transform_factory, transform_horizon
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.psync.restricted import restricted_factory, restricted_horizon
from repro.sim.kernel import BasicPsync, DelayBased, LockStep, TimingModel
from repro.sim.partial import RandomDrops, SilenceUntil
from repro.sim.process import Process
from repro.sim.runner import run_agreement
from repro.experiments.workloads import (
    assignment_battery,
    byzantine_batteries,
    delay_policy_battery,
    input_patterns,
)

AlgorithmFactory = Callable[[int, Hashable], Process]


# ----------------------------------------------------------------------
# Algorithm selection per model
# ----------------------------------------------------------------------
def algorithm_for(
    params: SystemParams,
    problem: AgreementProblem = BINARY,
    unchecked: bool = False,
) -> tuple[str, AlgorithmFactory, int]:
    """Pick the paper's algorithm for a model.

    The horizon assumes the worst drop schedule used by the harness
    (``SilenceUntil`` with the harness's largest GST).

    Args:
        params: The system parameters selecting the model family.
        problem: The agreement problem instance (defaults to binary).
        unchecked: Build the algorithm without its safety guards
            (used by the impossibility demonstrations).

    Returns:
        A ``(name, factory, horizon)`` triple: a human-readable
        algorithm name, a ``(identifier, proposal) -> Process`` factory,
        and the round horizon to run it for.
    """
    if params.restricted and params.numerate:
        factory = restricted_factory(params, problem, unchecked=unchecked)
        horizon = restricted_horizon(params, gst_round=_max_gst(params))
        return "fig7-restricted", factory, horizon
    if params.synchrony is Synchrony.SYNCHRONOUS:
        spec = EIGSpec(params.ell, params.t, problem, unchecked=unchecked)
        return (
            "T(EIG)",
            transform_factory(spec, unchecked=unchecked),
            transform_horizon(spec),
        )
    factory = dls_factory(params, problem, unchecked=unchecked)
    return "fig5-dls", factory, dls_horizon(params, gst_round=_max_gst(params))


def _max_gst(params: SystemParams) -> int:
    """Largest stabilisation round the harness's schedules use."""
    if params.synchrony is Synchrony.SYNCHRONOUS:
        return 0
    return 16


def drop_schedules(params: SystemParams, seed: int = 0):
    """Schedules exercised per cell (synchronous cells get none).

    Args:
        params: The cell's system parameters.
        seed: Seed for the randomised drop schedule.

    Returns:
        A list of ``(name, DropSchedule | None)`` pairs.
    """
    if params.synchrony is Synchrony.SYNCHRONOUS:
        return [("none", None)]
    return [
        ("none", None),
        ("silence<16", SilenceUntil(16)),
        (f"random-drops-{seed}", RandomDrops(gst=12, p=0.4, seed=seed)),
    ]


# ----------------------------------------------------------------------
# Cell evaluation
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One execution inside a cell evaluation.

    ``rounds`` and ``messages`` carry the execution cost so that
    aggregated reports (notably :class:`repro.experiments.campaign.
    CampaignReport`) can total the battery's work without retaining
    traces.  ``messages`` is the message fabric's *exact* delivered-edge
    count (:func:`repro.sim.metrics.metrics_from_deliveries`): edges a
    drop schedule lost are not in it, unlike the pre-fabric full-fanout
    estimate.
    """

    label: str
    ok: bool
    detail: str
    rounds: int = 0
    messages: int = 0
    #: Basic-model loss edges a loss-logging timing model (the delay
    #: models) materialised during the run; 0 under round-granular
    #: timing.  Gives delay slices and the soak farm exact loss
    #: accounting without retaining the per-edge loss log.
    losses: int = 0


#: Demonstration kinds that mark a *machine-checked* construction
#: (a scenario/partition/mirror/explorer run that exhibited its
#: violation here), as opposed to a sound reduction to another cell's
#: result (:data:`DERIVED_DEMONSTRATION_KINDS`).  The atlas grades
#: impossibility evidence by this distinction
#: (:mod:`repro.atlas.evidence`).
CHECKED_DEMONSTRATION_KINDS = frozenset(
    {"scenario", "partition", "mirror", "explorer"}
)

#: Demonstration kinds that are sound reductions -- the assumed PSL
#: citation and the ``ell < 3t`` dominance argument -- rather than
#: violations exhibited in this cell's own runs.
DERIVED_DEMONSTRATION_KINDS = frozenset({"psl-citation", "dominance"})


@dataclass
class CellResult:
    """Outcome of validating one Table 1 cell.

    ``demonstration`` is the human-readable detail; its provenance is
    carried separately in ``demonstration_kind`` (one of
    :data:`CHECKED_DEMONSTRATION_KINDS` or
    :data:`DERIVED_DEMONSTRATION_KINDS`, or ``""`` when there is no
    demonstration), so grading never parses message text.
    """

    params: SystemParams
    predicted_solvable: bool
    algorithm: str
    runs: list[RunRecord] = field(default_factory=list)
    demonstration: str = ""
    demonstration_kind: str = ""

    @property
    def demonstration_checked(self) -> bool:
        """True when the demonstration was machine-checked here.

        Reductions (the assumed PSL citation, dominance arguments) are
        sound but exhibit nothing in *this* cell's runs; see
        :data:`CHECKED_DEMONSTRATION_KINDS`.
        """
        return self.demonstration_kind in CHECKED_DEMONSTRATION_KINDS

    @property
    def empirically_consistent(self) -> bool:
        """Prediction and observation agree.

        Solvable cells need every run clean; unsolvable cells need the
        demonstration to have produced impossibility evidence.
        """
        if self.predicted_solvable:
            return all(r.ok for r in self.runs)
        return any(not r.ok for r in self.runs) or bool(self.demonstration)

    def failures(self) -> list[RunRecord]:
        return [r for r in self.runs if not r.ok]

    def summary(self) -> str:
        mark = "consistent" if self.empirically_consistent else "MISMATCH"
        kind = "solvable" if self.predicted_solvable else "unsolvable"
        return (
            f"{self.params.describe()} predicted {kind} [{self.algorithm}] "
            f"-> {mark} ({len(self.runs)} runs"
            + (f"; demo: {self.demonstration}" if self.demonstration else "")
            + ")"
        )


# ----------------------------------------------------------------------
# Workload slices (shared by the sequential path and the campaign engine)
# ----------------------------------------------------------------------
def _solvable_slices(
    params: SystemParams, seed: int, quick: bool
) -> Iterator[tuple[int, int, str, object, str, tuple[int, ...]]]:
    """Yield ``(a_idx, b_idx, a_name, assignment, b_name, byzantine)``."""
    assignments = assignment_battery(params.n, params.ell, seed)
    if quick:
        assignments = assignments[:2]
    for a_idx, (a_name, assignment) in enumerate(assignments):
        byz_options = byzantine_batteries(assignment, params.t, seed)
        if quick:
            byz_options = byz_options[:2]
        for b_idx, (b_name, byzantine) in enumerate(byz_options):
            yield a_idx, b_idx, a_name, assignment, b_name, byzantine


def solvable_slice_keys(
    params: SystemParams, seed: int = 0, quick: bool = False
) -> list[tuple[int, int]]:
    """Enumerate the workload slices of a solvable cell.

    A slice is one (assignment, Byzantine placement) pair of the cell's
    battery; running all slices of a cell reproduces exactly the runs of
    :func:`evaluate_solvable_cell`.  The keys are pure indices, so they
    are trivially serialisable and a worker process can reconstruct the
    slice deterministically from ``(params, seed, quick, key)``.

    Args:
        params: The (solvable) cell's system parameters.
        seed: The battery seed (must match the execution seed).
        quick: Whether the trimmed quick battery is used.

    Returns:
        The ordered list of ``(assignment_index, byzantine_index)`` keys.
    """
    return [(a, b) for a, b, *_ in _solvable_slices(params, seed, quick)]


def _resolve_slice(
    params: SystemParams, key: tuple[int, int], seed: int, quick: bool
):
    """Resolve a slice key to its named (assignment, placement) pair.

    Args:
        params: The cell's system parameters.
        key: An ``(assignment_index, byzantine_index)`` pair.
        seed: The battery seed.
        quick: Whether the trimmed quick battery is used.

    Returns:
        ``(a_name, assignment, b_name, byzantine)``.

    Raises:
        ConfigurationError: If ``key`` does not name a slice of this
            cell's battery.
    """
    a_idx, b_idx = key
    assignments = assignment_battery(params.n, params.ell, seed)
    if quick:
        assignments = assignments[:2]
    if not 0 <= a_idx < len(assignments):
        raise ConfigurationError(
            f"no workload slice {key!r} in the battery of {params.describe()}"
        )
    a_name, assignment = assignments[a_idx]
    byz_options = byzantine_batteries(assignment, params.t, seed)
    if quick:
        byz_options = byz_options[:2]
    if not 0 <= b_idx < len(byz_options):
        raise ConfigurationError(
            f"no workload slice {key!r} in the battery of {params.describe()}"
        )
    b_name, byzantine = byz_options[b_idx]
    return a_name, assignment, b_name, byzantine


def _run_slice(
    params: SystemParams,
    key: tuple[int, int],
    problem: AgreementProblem,
    seed: int,
    quick: bool,
    network_dimension: list[tuple[str, TimingModel]],
) -> list[RunRecord]:
    """The shared slice body: patterns x network dimension x attacks.

    Both slice runners sweep the same grid and differ only in the
    middle dimension -- drop schedules for the validation battery,
    delay policies for the delay family -- expressed here as
    ``(name, TimingModel)`` pairs.

    Args:
        params: The cell's system parameters.
        key: The slice key (see :func:`_resolve_slice`).
        problem: The agreement problem instance.
        seed: The battery seed.
        quick: Whether the trimmed quick battery is used.
        network_dimension: The middle sweep dimension, already trimmed.

    Returns:
        The run records of the slice, in sequential-harness order.
    """
    a_name, assignment, b_name, byzantine = _resolve_slice(
        params, key, seed, quick
    )
    name, factory, horizon = algorithm_for(params, problem)
    attacks = standard_attack_suite(
        factory, params.restricted,
        seeds=(seed + 1,) if quick else (seed + 1, seed + 2),
    )
    if quick:
        attacks = attacks[:4]
    correct = [k for k in range(params.n) if k not in byzantine]
    patterns = input_patterns(correct, problem, seed)
    if quick:
        patterns = patterns[:3]

    records: list[RunRecord] = []
    for p_name, proposals in patterns:
        for net_name, timing in network_dimension:
            for atk_name, adversary in attacks:
                label = "/".join((a_name, b_name, p_name, net_name, atk_name))
                run = run_agreement(
                    params=params,
                    assignment=assignment,
                    factory=factory,
                    proposals=proposals,
                    byzantine=byzantine,
                    adversary=adversary,
                    timing=timing,
                    max_rounds=horizon,
                )
                brief = run.brief()
                records.append(
                    RunRecord(
                        label=label,
                        ok=brief.ok,
                        detail=brief.detail,
                        rounds=brief.rounds,
                        messages=brief.messages,
                        losses=brief.losses,
                    )
                )
    return records


def run_solvable_slice(
    params: SystemParams,
    key: tuple[int, int],
    problem: AgreementProblem = BINARY,
    seed: int = 0,
    quick: bool = False,
) -> list[RunRecord]:
    """Execute one workload slice of a solvable cell.

    This is the picklable unit of work the campaign engine fans out:
    everything an execution needs (batteries, attacks, schedules) is
    rebuilt deterministically from the arguments, so the records are
    identical whether the slice runs in-process or in a worker.

    Args:
        params: The (solvable) cell's system parameters.
        key: An ``(assignment_index, byzantine_index)`` pair from
            :func:`solvable_slice_keys`.
        problem: The agreement problem instance.
        seed: The battery seed.
        quick: Whether the trimmed quick battery is used.

    Returns:
        The run records of the slice, in sequential-harness order.

    Raises:
        ConfigurationError: If ``key`` does not name a slice of this
            cell's battery.
    """
    schedules = drop_schedules(params, seed)
    if quick:
        schedules = schedules[:2]
    return _run_slice(
        params, key, problem, seed, quick,
        [(s_name, LockStep() if schedule is None else BasicPsync(schedule))
         for s_name, schedule in schedules],
    )


def delay_slice_keys(
    params: SystemParams, seed: int = 0, quick: bool = False
) -> list[tuple[int, int]]:
    """Enumerate the workload slices of a cell's delay-model battery.

    Delay units share the solvable battery's (assignment, Byzantine
    placement) grid -- the delay dimension varies *inside* a slice (see
    :func:`run_delay_slice`) -- so the keys are exactly
    :func:`solvable_slice_keys`.

    Args:
        params: The (partially synchronous, solvable) cell's parameters.
        seed: The battery seed (must match the execution seed).
        quick: Whether the trimmed quick battery is used.

    Returns:
        The ordered list of ``(assignment_index, byzantine_index)`` keys.
    """
    return solvable_slice_keys(params, seed, quick)


def run_delay_slice(
    params: SystemParams,
    key: tuple[int, int],
    problem: AgreementProblem = BINARY,
    seed: int = 0,
    quick: bool = False,
) -> list[RunRecord]:
    """Execute one delay-model workload slice on the unified kernel.

    The delay counterpart of :func:`run_solvable_slice`: the same
    (assignment, Byzantine placement) slice grid, but instead of the
    drop-schedule dimension each execution runs under a
    :class:`~repro.sim.kernel.DelayBased` timing model drawn from
    :func:`~repro.experiments.workloads.delay_policy_battery` -- the
    paper's delay-based partial-synchrony formulations, with late
    arrivals materialised as basic-model losses on the fabric.  Like
    the solvable slice, everything is rebuilt deterministically from
    the arguments, so records are identical in-process or in a worker.

    Args:
        params: The cell's system parameters; must be a *partially
            synchronous, solvable* cell (the delay models are the
            psync formulations -- a synchronous cell has no delay
            dimension).
        key: An ``(assignment_index, byzantine_index)`` pair from
            :func:`delay_slice_keys`.
        problem: The agreement problem instance.
        seed: The battery seed.
        quick: Whether the trimmed quick battery is used.

    Returns:
        The run records of the slice, one per
        pattern x policy x attack.

    Raises:
        ConfigurationError: If the cell is not psync-solvable or
            ``key`` does not name a slice of its battery.
    """
    if params.synchrony is not Synchrony.PARTIALLY_SYNCHRONOUS:
        raise ConfigurationError(
            f"delay workloads need a partially synchronous cell, got "
            f"{params.describe()}"
        )
    if not solvable(params):
        raise ConfigurationError(
            f"delay workloads validate solvable cells only, got "
            f"{params.describe()}"
        )
    policies = delay_policy_battery(seed)
    if quick:
        policies = policies[:2]
    return _run_slice(
        params, key, problem, seed, quick,
        [(d_name, DelayBased(policy)) for d_name, policy in policies],
    )


def evaluate_solvable_cell(
    params: SystemParams,
    problem: AgreementProblem = BINARY,
    seed: int = 0,
    quick: bool = False,
) -> CellResult:
    """Run the cell's algorithm across the workload battery.

    Args:
        params: The (solvable) cell's system parameters.
        problem: The agreement problem instance.
        seed: The battery seed.
        quick: Trim the battery to keep the wall-clock sane.

    Returns:
        The :class:`CellResult` with one record per execution.
    """
    name, _, _ = algorithm_for(params, problem)
    result = CellResult(params=params, predicted_solvable=True, algorithm=name)
    for slice_key in solvable_slice_keys(params, seed, quick):
        result.runs.extend(
            run_solvable_slice(params, slice_key, problem, seed, quick)
        )
    return result


def evaluate_unsolvable_cell(
    params: SystemParams,
    problem: AgreementProblem = BINARY,
    seed: int = 0,
) -> CellResult:
    """Run the constructive impossibility demonstration for the cell.

    Args:
        params: The (unsolvable) cell's system parameters.
        problem: The agreement problem instance.
        seed: Unused by the demonstrations today; accepted for symmetry
            with :func:`evaluate_solvable_cell`.

    Returns:
        The :class:`CellResult`; ``demonstration`` carries the
        impossibility evidence detail and ``demonstration_kind`` its
        structured provenance.
    """
    name, factory, horizon = algorithm_for(params, problem, unchecked=True)
    result = CellResult(params=params, predicted_solvable=False, algorithm=name)
    kind, detail = _demonstrate_unsolvable(params, factory, horizon)
    result.demonstration_kind = kind
    result.demonstration = detail
    return result


def _demonstrate_unsolvable(
    params: SystemParams, factory, horizon: int
) -> tuple[str, str]:
    """Build the cell's impossibility demonstration.

    Returns:
        ``(kind, detail)`` -- ``kind`` is a member of
        :data:`CHECKED_DEMONSTRATION_KINDS` or
        :data:`DERIVED_DEMONSTRATION_KINDS` and ``detail`` the
        human-readable evidence, or ``("", "")`` when no demonstration
        covers the cell.
    """
    n, ell, t = params.n, params.ell, params.t
    if not params.meets_psl_bound:
        return "psl-citation", (
            f"n={n} <= 3t={3 * t}: classical PSL impossibility (assumed, "
            f"paper cites [13, 17])"
        )

    if params.restricted and params.numerate:
        # ell <= t: Lemma 17 mirror scan (valency argument).
        scan = mirror_chain_scan(params, factory, max_rounds=horizon)
        if scan.impossibility_evidence:
            return "mirror", f"mirror scan: {scan.detail}"
        return "", ""

    if ell == 3 * t:
        # Figure 1 scenario (applies to sync; psync inherits it since the
        # partially synchronous model contains all synchronous runs).
        outcome = run_scenario(n, t, factory, max_rounds=horizon)
        if outcome.contradiction_exhibited:
            broken = [v.name for v in outcome.views if not v.satisfied]
            return "scenario", f"figure-1 scenario: views {broken} violated"
        return "", ""

    if ell < 3 * t:
        return "dominance", (
            f"ell={ell} < 3t={3 * t}: dominated by the ell=3t scenario "
            f"(fewer identifiers are strictly weaker)"
        )

    # Remaining case: partially synchronous, 3t < ell, 2*ell <= n + 3t.
    if partition_attack_feasible(n, ell, t):
        outcome = run_partition_attack(
            n, ell, t, factory,
            reference_rounds=dls_horizon(params, 0),
        )
        if outcome.attack_succeeded:
            return "partition", (
                "figure-4 partition: gamma verdict "
                + "; ".join(str(v) for v in outcome.gamma.verdict.violations)
            )
        return "", ""

    return "", ""


def evaluate_cell(
    params: SystemParams,
    problem: AgreementProblem = BINARY,
    seed: int = 0,
    quick: bool = False,
) -> CellResult:
    """Dispatch on the predicted solvability of the cell.

    Args:
        params: The cell's system parameters.
        problem: The agreement problem instance.
        seed: The battery seed (solvable cells only).
        quick: Trim the battery (solvable cells only).

    Returns:
        The cell's :class:`CellResult`, from either
        :func:`evaluate_solvable_cell` or
        :func:`evaluate_unsolvable_cell`.
    """
    if solvable(params):
        return evaluate_solvable_cell(params, problem, seed, quick)
    return evaluate_unsolvable_cell(params, problem, seed)
