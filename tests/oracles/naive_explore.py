"""A brute-force strategy explorer, frozen as a differential oracle.

:func:`naive_explore` walks the per-round strategy tree of an
:class:`~repro.explore.search.ExploreScenario` one child at a time.
Every child of every node runs its round through the kernel
(``restore`` + ``finish_round``).  There is no transposition table, no
outcome-class walk and no scratch delivery, and nothing is ever keyed.
Process snapshots and ghost banks are copied with :func:`copy.deepcopy`,
never with the ``clone()`` overrides.  The only code shared with the
search is the alphabet: the per-receiver delta options
(:func:`repro.explore.search._delta_options`) and
:class:`~repro.explore.alphabet.GhostBank`.

Its node count is the size of the unshared tree, which is what the
search's ``raw_tree_size`` claims to measure, and it stops at the first
violation in product order, which is where the search must stop too.
Exponential by design: small scopes only.  Not for production use.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping

from repro.explore.alphabet import GhostBank
from repro.explore.certificate import SearchStats
from repro.explore.search import ExploreScenario, _delta_options
from repro.explore.strategy import StrategyScript
from repro.sim.kernel import BasicPsync, ExecutionKernel
from repro.sim.runner import make_processes


@dataclass
class NaiveResult:
    """How a naive walk ended.

    ``nodes`` counts every node the walk visited (the root of each cut
    alternative, every inner node and every leaf) up to the point it
    stopped; for an exhausted walk it is the unshared tree size.
    """

    outcome: str
    nodes: int
    violation: str = ""
    violation_round: int | None = None
    decisions: dict[int, Hashable] = field(default_factory=dict)
    witness: StrategyScript | None = None


class _Stop(Exception):
    def __init__(self, result: NaiveResult) -> None:
        super().__init__(result.violation)
        self.result = result


def _engine(scenario: ExploreScenario, cut) -> ExecutionKernel:
    processes = make_processes(
        scenario.factory, scenario.assignment, scenario.proposals,
        scenario.byzantine,
    )
    timing = None
    if cut is not None:
        timing = BasicPsync(StrategyScript(
            emissions={}, cut=cut, cut_until=scenario.depth,
        ).drop_schedule())
    return ExecutionKernel(
        params=scenario.params,
        assignment=scenario.assignment,
        processes=processes,
        byzantine=scenario.byzantine,
        timing=timing,
    )


def _violation(
    decided: Mapping[int, Hashable],
    scenario: ExploreScenario,
    correct: tuple[int, ...],
) -> str | None:
    """Agreement, then validity, over the decided-so-far map."""
    if not decided:
        return None
    by_value: dict[str, list[int]] = {}
    for k, v in sorted(decided.items()):
        by_value.setdefault(repr(v), []).append(k)
    if len(by_value) > 1:
        return "agreement: " + "; ".join(
            f"{procs} decided {value}"
            for value, procs in sorted(by_value.items())
        )
    proposed = {repr(scenario.proposals[k]) for k in correct}
    if len(proposed) == 1:
        (only,) = proposed
        bad = {k: v for k, v in decided.items() if repr(v) != only}
        if bad:
            return (
                f"validity: all correct proposed {only} but "
                + "; ".join(
                    f"process {k} decided {v!r}" for k, v in sorted(bad.items())
                )
            )
    return None


def _witness(path: Mapping[int, dict], cut, rounds: int) -> StrategyScript:
    return StrategyScript(
        emissions={
            r: {slot: dict(per_q) for slot, per_q in em.items()}
            for r, em in path.items() if em
        },
        cut=cut,
        cut_until=rounds if cut is not None else 0,
    )


def _walk(
    scenario: ExploreScenario,
    engine: ExecutionKernel,
    bank: GhostBank,
    prev_payloads: Mapping[int, Hashable] | None,
    path: dict[int, dict],
    cut,
    counted: list[int],
) -> None:
    r = engine.round_no
    correct = engine.correct
    counted[0] += 1
    payloads = engine.compose_round()
    faces = bank.step(r, prev_payloads)
    deltas = _delta_options(scenario, payloads, faces, SearchStats())
    mid = engine.checkpoint()
    last_round = r + 1 >= scenario.depth
    terminating = scenario.require_termination and cut is None
    for combo in itertools.product(range(len(deltas)), repeat=len(correct)):
        raw: dict[int, dict[int, tuple]] = {}
        for q, index in zip(correct, combo):
            for slot, payload in deltas[index]:
                raw.setdefault(slot, {})[q] = (payload,)
        engine.restore(replace(mid, processes=copy.deepcopy(mid.processes)))
        engine.finish_round(payloads, raw_emissions=raw)
        path[r] = raw
        decided = engine.decisions()
        detail = _violation(decided, scenario, correct)
        if detail is None and last_round and terminating and (
            len(decided) < len(correct)
        ):
            undecided = [q for q in correct if q not in decided]
            detail = (
                f"termination: correct processes {undecided} "
                f"undecided after {r + 1} rounds"
            )
            decided = {}
        if detail is not None:
            counted[0] += 1
            raise _Stop(NaiveResult(
                outcome="violation", nodes=counted[0], violation=detail,
                violation_round=r, decisions=decided,
                witness=_witness(path, cut, r + 1),
            ))
        if last_round or len(decided) == len(correct):
            counted[0] += 1
            continue
        twin = copy.deepcopy(bank, {id(scenario): scenario})
        _walk(scenario, engine, twin, payloads, path, cut, counted)
    path.pop(r, None)


def naive_explore(scenario: ExploreScenario) -> NaiveResult:
    """Walk the whole per-round strategy tree child by child.

    Args:
        scenario: A per-round (not persistent-face) scenario.

    Returns:
        The first violation in product order, with its witness, or the
        exhausted walk's node count.
    """
    counted = [0]
    try:
        for cut in scenario.cuts:
            _walk(
                scenario, _engine(scenario, cut), GhostBank(scenario), None,
                {}, cut, counted,
            )
    except _Stop as stop:
        return stop.result
    return NaiveResult(outcome="exhausted", nodes=counted[0])
