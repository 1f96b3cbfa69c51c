"""Exploration as campaign work: shard the frontier across the pool.

One exploration is CPU-bound and independent of every other, which is
exactly the shape :mod:`repro.experiments.campaign` parallelises.  This
module provides the slice layer: :func:`explore_slice_keys` enumerates
the (assignment, Byzantine placement) frontier of one configuration and
:func:`run_explore_unit` executes one slice -- the worker entry the
campaign engine's ``"explore"`` unit kind calls.  Results reuse the
:class:`~repro.experiments.harness.RunRecord` shape so reports, caching
and the consistency fold need no new machinery: for predicted-solvable
configurations every slice must certify clean (``ok``), for
predicted-unsolvable ones a found violation becomes the cell's
impossibility ``demonstration``.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.analysis.bounds import solvable
from repro.core.identity import (
    IdentityAssignment,
    balanced_assignment,
    stacked_assignment,
)
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY, AgreementProblem
from repro.experiments.harness import RunRecord
from repro.explore.search import default_scenario, explore

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS


def explore_battery(t: int = 1) -> list[tuple[str, SystemParams]]:
    """The tightness frontier worth exploring, as campaign cells.

    For each synchrony model: the configuration *just past* the bound
    (where the explorer must find a violation) and the minimal one
    *just inside* it (where it must certify exhaustively clean).

    Args:
        t: The fault budget (scope grows quickly; ``t = 1`` is the
            intended small scope).

    Returns:
        ``(label, params)`` pairs in frontier order.
    """
    n_sync = 3 * t
    return [
        ("explore sync violation", SystemParams(n=n_sync, ell=n_sync, t=t)),
        ("explore sync certificate",
         SystemParams(n=n_sync + 1, ell=n_sync + 1, t=t)),
        ("explore psync violation",
         SystemParams(n=n_sync, ell=n_sync, t=t, synchrony=PSYNC)),
        ("explore psync certificate",
         SystemParams(n=n_sync + 1, ell=n_sync + 1, t=t, synchrony=PSYNC)),
    ]


def _assignment_battery(params: SystemParams) -> list[IdentityAssignment]:
    """Assignments explored per configuration (deduplicated)."""
    candidates = [
        balanced_assignment(params.n, params.ell),
        stacked_assignment(params.n, params.ell),
    ]
    seen: set[tuple[int, ...]] = set()
    result = []
    for assignment in candidates:
        if assignment.ids not in seen:
            seen.add(assignment.ids)
            result.append(assignment)
    return result


def _placement_battery(
    params: SystemParams, quick: bool
) -> list[tuple[int, ...]]:
    """Byzantine placements explored: every window of ``t`` slots."""
    n, t = params.n, params.t
    windows = []
    seen: set[tuple[int, ...]] = set()
    for start in range(n):
        placement = tuple(sorted((start + j) % n for j in range(t)))
        if placement not in seen:
            seen.add(placement)
            windows.append(placement)
    if quick:
        windows = windows[:2]
    return windows


def explore_slice_keys(
    params: SystemParams, quick: bool = True
) -> list[tuple[int, int]]:
    """The (assignment index, placement index) frontier of one config.

    Mirrors :func:`repro.experiments.harness.solvable_slice_keys`: each
    key is one independently executable unit of exploration work, so the
    campaign engine can shard the frontier across processes or machines.

    Args:
        params: The configuration.
        quick: Trim the placement battery.

    Returns:
        The ordered key list.
    """
    return [
        (a_idx, b_idx)
        for a_idx in range(len(_assignment_battery(params)))
        for b_idx in range(len(_placement_battery(params, quick)))
    ]


def _input_patterns(
    params: SystemParams,
    problem: AgreementProblem,
    correct: tuple[int, ...],
    quick: bool,
) -> list[tuple[str, dict]]:
    """Input patterns explored per slice.

    Mixed inputs are where the frontier violations live (unanimity pins
    the decision through validity); unanimous patterns additionally
    exercise validity on the certificate side.
    """
    domain = problem.domain
    mixed = {
        k: domain[pos % len(domain)] for pos, k in enumerate(correct)
    }
    patterns = [("mixed", mixed)]
    if solvable(params):
        values = domain if not quick else domain[:1]
        patterns.extend(
            (f"unanimous-{value!r}", {k: value for k in correct})
            for value in values
        )
    return patterns


def run_explore_unit(
    params: SystemParams,
    assignment_index: int,
    byzantine_index: int,
    quick: bool = True,
    problem: AgreementProblem = BINARY,
) -> dict:
    """Execute one exploration slice; the campaign worker entry point.

    Args:
        params: The configuration to explore.
        assignment_index: Index into the assignment battery.
        byzantine_index: Index into the placement battery.
        quick: Trim input patterns and placements.
        problem: The agreement problem.

    Returns:
        ``{"algorithm", "records", "demonstration",
        "demonstration_kind"}`` where records are
        :class:`~repro.experiments.harness.RunRecord` dicts -- ``rounds``
        carries the nodes expanded and ``messages`` the children
        generated, so campaign totals reflect search effort.
    """
    assignment = _assignment_battery(params)[assignment_index]
    byzantine = _placement_battery(params, quick)[byzantine_index]
    predicted = solvable(params)
    byz_set = set(byzantine)
    correct = tuple(k for k in range(params.n) if k not in byz_set)

    algorithm = ""
    records: list[RunRecord] = []
    demonstration = ""
    for pattern_name, proposals in _input_patterns(
        params, problem, correct, quick
    ):
        scenario = default_scenario(
            params,
            assignment=assignment,
            byzantine=byzantine,
            proposals=proposals,
            problem=problem,
        )
        algorithm = scenario.algorithm
        certificate = explore(scenario)
        label = (
            f"explore a{assignment_index}b{byzantine_index} {pattern_name}"
        )
        if predicted:
            ok = not certificate.found_violation
            detail = (
                "certified clean: "
                + certificate.stats.deterministic_summary()
                if ok else
                f"UNEXPECTED {certificate.violation} "
                f"(round {certificate.violation_round})"
            )
        else:
            # A violation below the bound is the *expected* outcome and
            # becomes the cell's impossibility demonstration; a clean
            # bounded sweep is simply inconclusive for this pattern.
            ok = True
            if certificate.found_violation and not demonstration:
                demonstration = (
                    f"explorer witness [{pattern_name}]: "
                    f"{certificate.violation} "
                    f"(round {certificate.violation_round}, "
                    f"{certificate.stats.nodes_expanded} nodes searched)"
                )
            detail = (
                f"violation found: {certificate.violation}"
                if certificate.found_violation
                else "bounded sweep found no violation (inconclusive)"
            )
        records.append(RunRecord(
            label=label,
            ok=ok,
            detail=detail,
            rounds=certificate.stats.nodes_expanded,
            messages=certificate.stats.children_generated,
        ))
    return {
        "algorithm": algorithm or "explore",
        "records": [asdict(r) for r in records],
        "demonstration": demonstration,
        "demonstration_kind": "explorer" if demonstration else "",
    }
