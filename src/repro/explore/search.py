"""Bounded adversary-strategy exploration: the search itself.

Instead of running one fixed :class:`~repro.sim.adversary.Adversary`,
the explorer drives the unified execution kernel
(:class:`~repro.sim.kernel.ExecutionKernel`) through a depth-first
search over *every* strategy expressible in a finite per-round emission
alphabet (see :mod:`repro.explore.alphabet`), branching executions with
the kernel's checkpoint/restore instead of re-running prefixes.  The
persistent-face mode runs whole rounds through the split-phase API
(``compose_round`` / ``finish_round``).  The per-round mode runs only
``compose_round`` in the engine: it delivers each receiver's round to
scratch clones, once per delta option, and installs a child by
restoring a checkpoint built from those post-states.  Its engine
therefore records no trace or delivery log; a witness is rebuilt from
the chosen emissions and meets the full pipeline in
:func:`replay_witness`.

Two search modes cover the two shapes of the paper's lower bounds:

* **per-round mode** (synchronous scopes): at every round, every
  Byzantine slot independently picks one face per correct receiver.
  The state space is tamed by a transposition table keyed on
  :func:`~repro.core.canonical.canonical_state_key` digests of the
  post-round process states (plus ghost states): branches that lead to
  the same states have the same future and are explored once.  When
  the scenario is receiver-symmetric (no cuts, full-visibility ghosts)
  the key sorts the per-receiver digests, additionally collapsing
  strategies that differ only by a permutation of interchangeable
  receivers.  Naive branching is infeasible even at ``n = 4``; the
  table is what makes the sweep run in seconds (the certificate's
  ``raw_tree_size`` counter records the exact unshared tree size for
  comparison).
* **persistent-face mode** (partially synchronous scopes): the
  adversary commits, per partition block, to one face source for the
  whole execution -- the shape of the Figure 4 construction, where the
  Byzantine core replays one coherent simulated execution per wing.
  Branching collapses to the choice of cut and face assignment, which
  keeps the much deeper partially-synchronous horizons (phases of
  eight rounds) tractable.

Either way, a found violation is returned as a replayable
:class:`~repro.explore.strategy.StrategyScript` and an exhausted
search as an explicit bounded-exhaustiveness certificate.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Mapping

from repro.analysis.bounds import solvable
from repro.core.canonical import canonical_state_key
from repro.core.errors import ConfigurationError
from repro.core.identity import IdentityAssignment, balanced_assignment
from repro.core.messages import Inbox, Message
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY, AgreementProblem
from repro.explore.alphabet import (
    SILENT,
    GhostBank,
    GhostPlan,
    ghost_source,
    mimic_source,
)
from repro.explore.certificate import Certificate, SearchStats
from repro.explore.strategy import StrategyScript, StrategyTreeAdversary
from repro.sim.adversary import normalize_emissions
from repro.sim.kernel import (
    BasicPsync,
    EngineCheckpoint,
    ExecutionKernel,
    LockStep,
)
from repro.sim.process import Process
from repro.sim.runner import ExecutionResult, make_processes, run_execution

#: A network cut: two blocks of correct indices that cannot hear each
#: other while the cut is active.  ``None`` means no cut.
Cut = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class ExploreScenario:
    """One bounded exploration problem, fully specified.

    The scenario pins everything the paper's quantifier ranges over
    except the adversary strategy: parameters, identifier assignment,
    Byzantine placement and inputs.  The strategy family searched is
    described by the ghost plans, mimic flag, cut alternatives and
    depth -- all of which end up verbatim in the resulting certificate,
    because a bounded certificate is only as good as its stated bounds.
    """

    params: SystemParams
    assignment: IdentityAssignment
    byzantine: tuple[int, ...]
    factory: Callable[[int, Hashable], object]
    proposals: dict[int, Hashable]
    depth: int
    problem: AgreementProblem = BINARY
    ghost_plans: tuple[GhostPlan, ...] = ()
    cuts: tuple[Cut | None, ...] = (None,)
    include_mimics: bool = True
    persistent_faces: bool = False
    require_termination: bool = False
    max_children: int = 4096
    algorithm: str = ""

    @property
    def correct(self) -> tuple[int, ...]:
        """Indices of correct processes, ascending."""
        byz = set(self.byzantine)
        return tuple(k for k in range(self.params.n) if k not in byz)

    def describe_dict(self) -> dict:
        """The certificate's scenario section.

        Returns:
            A JSON-compatible dict recording everything the bounded
            family is quantified over -- parameters, assignment,
            Byzantine placement, inputs, depth, mode, ghost plans,
            mimic flag and cut alternatives -- so a certificate's
            claim is auditable against its stated bounds.
        """
        return {
            "params": self.params.describe(),
            "algorithm": self.algorithm,
            "assignment": self.assignment.describe(),
            "byzantine": list(self.byzantine),
            "proposals": {k: repr(v) for k, v in sorted(self.proposals.items())},
            "depth": self.depth,
            "mode": (
                "persistent-faces" if self.persistent_faces else "per-round"
            ),
            "ghosts": [p.describe() for p in self.ghost_plans],
            "mimics": self.include_mimics,
            "cuts": [
                "none" if c is None else f"{list(c[0])}|{list(c[1])}"
                for c in self.cuts
            ],
        }


class _ViolationFound(Exception):
    """Internal unwind carrying a freshly found witness."""

    def __init__(
        self,
        script: StrategyScript,
        detail: str,
        round_no: int,
        decisions: dict[int, Hashable],
    ) -> None:
        super().__init__(detail)
        self.script = script
        self.detail = detail
        self.round_no = round_no
        self.decisions = decisions


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------
def _bipartitions(correct: tuple[int, ...]) -> list[Cut]:
    """All two-block partitions of the correct set, canonically ordered.

    The first block always contains the smallest index, so each
    partition appears once.  Exponential in the correct count; guarded
    by the small-scope check in :func:`default_scenario`.
    """
    rest = correct[1:]
    cuts: list[Cut] = []
    for size in range(len(rest) + 1):
        for extra in itertools.combinations(rest, size):
            block_a = (correct[0],) + extra
            block_b = tuple(k for k in correct if k not in block_a)
            if block_b:
                cuts.append((block_a, block_b))
    return cuts


def _default_depth(params: SystemParams, problem: AgreementProblem) -> int:
    """A horizon by which the relevant decisions (and attacks) land.

    Synchronous: one phase of the Figure 3 transformation per simulated
    EIG round plus a slack phase.  Partially synchronous: one Figure 5
    phase per identifier plus one -- every identifier leads once, which
    is when both the algorithm's decisions and the partition-style
    attacks on it resolve.
    """
    from repro.classic.eig import EIGSpec
    from repro.homonyms.transform import transform_horizon
    from repro.psync.dls_homonyms import ROUNDS_PER_PHASE
    from repro.psync.restricted import restricted_horizon

    if params.restricted and params.numerate:
        return restricted_horizon(params, 0)
    if params.synchrony is Synchrony.SYNCHRONOUS:
        spec = EIGSpec(params.ell, params.t, problem, unchecked=True)
        return transform_horizon(spec, slack_phases=1)
    return ROUNDS_PER_PHASE * (params.ell + 1)


def default_scenario(
    params: SystemParams,
    assignment: IdentityAssignment | None = None,
    byzantine: tuple[int, ...] | None = None,
    proposals: Mapping[int, Hashable] | None = None,
    depth: int | None = None,
    problem: AgreementProblem = BINARY,
    persistent: bool | None = None,
    include_mimics: bool = True,
) -> ExploreScenario:
    """Build the standard exploration scenario for one configuration.

    The algorithm under test is the paper's algorithm for the model
    family (built ``unchecked`` when the configuration is predicted
    unsolvable -- running below the bound is the whole point there).
    Ghost plans cover every input value with full visibility plus, under
    partial synchrony, every value restricted to each side of each
    candidate cut -- the family containing the Figure 4-style partition
    strategies.

    Args:
        params: The configuration to explore.
        assignment: Identifier assignment (default: balanced).
        byzantine: Byzantine slots (default: the last ``t`` slots).
        proposals: Correct inputs (default: alternating domain values).
        depth: Round horizon (default: :func:`_default_depth`).
        problem: The agreement problem.
        persistent: Force persistent-face mode (default: on exactly for
            partially synchronous scopes, whose horizons are too deep
            for per-round branching).
        include_mimics: Offer mimic faces in the alphabet.

    Returns:
        The ready-to-run scenario.

    Raises:
        ConfigurationError: When the scope is too large to explore
            (more than 6 correct processes would need cut enumeration).
    """
    from repro.experiments.harness import algorithm_for

    assignment = (
        balanced_assignment(params.n, params.ell)
        if assignment is None else assignment
    )
    byzantine = (
        tuple(range(params.n - params.t, params.n))
        if byzantine is None else tuple(sorted(byzantine))
    )
    byz_set = set(byzantine)
    correct = tuple(k for k in range(params.n) if k not in byz_set)
    if proposals is None:
        domain = problem.domain
        proposals = {
            k: domain[pos % len(domain)] for pos, k in enumerate(correct)
        }
    else:
        proposals = dict(proposals)

    unchecked = not solvable(params)
    algorithm, factory, _ = algorithm_for(params, problem, unchecked=unchecked)
    if depth is None:
        depth = _default_depth(params, problem)

    psync = params.synchrony is Synchrony.PARTIALLY_SYNCHRONOUS
    if persistent is None:
        persistent = psync

    cuts: tuple[Cut | None, ...] = (None,)
    plans: list[GhostPlan] = [GhostPlan(v, None) for v in problem.domain]
    if psync:
        if len(correct) > 6:
            raise ConfigurationError(
                f"explore scope too large: {len(correct)} correct processes "
                f"need {2 ** (len(correct) - 1) - 1} cut candidates; "
                f"the explorer is a small-scope checker (<= 6 correct)"
            )
        parts = _bipartitions(correct)
        cuts = tuple(parts) + (None,)
        for block in sorted({b for cut in parts for b in cut}):
            for v in problem.domain:
                plans.append(GhostPlan(v, block))

    # Termination only counts as a violation when the horizon actually
    # covers the algorithm's decision bound; under the synchronous
    # transformation every correct process decides by the end of phase
    # ``t + 1``, i.e. within 3 * (t + 2) rounds.
    check_termination = (
        params.synchrony is Synchrony.SYNCHRONOUS
        and depth >= 3 * (params.t + 2)
    )
    return ExploreScenario(
        params=params,
        assignment=assignment,
        byzantine=byzantine,
        factory=factory,
        proposals=proposals,
        depth=depth,
        problem=problem,
        ghost_plans=tuple(plans),
        cuts=cuts,
        include_mimics=include_mimics,
        persistent_faces=persistent,
        require_termination=check_termination,
        algorithm=algorithm,
    )


# ----------------------------------------------------------------------
# Shared search plumbing
# ----------------------------------------------------------------------
def _build_engine(scenario: ExploreScenario, cut: Cut | None) -> ExecutionKernel:
    processes = make_processes(
        scenario.factory, scenario.assignment, scenario.proposals,
        scenario.byzantine,
    )
    timing = LockStep()
    if cut is not None:
        timing = BasicPsync(
            StrategyScript(
                emissions={}, cut=cut, cut_until=scenario.depth
            ).drop_schedule()
        )
    return ExecutionKernel(
        params=scenario.params,
        assignment=scenario.assignment,
        processes=processes,
        byzantine=scenario.byzantine,
        timing=timing,
    )


def _decision_violation(
    decided: Mapping[int, Hashable],
    scenario: ExploreScenario,
    correct: tuple[int, ...],
) -> str | None:
    """Agreement/validity check over a decided-so-far mapping.

    Safety is monotone in the decided set (decisions are final), so
    checking after every round catches a violation at the first round
    it becomes observable.
    """
    if not decided:
        return None
    values = sorted({repr(v) for v in decided.values()})
    if len(values) > 1:
        by_value: dict[str, list[int]] = {}
        for k, v in sorted(decided.items()):
            by_value.setdefault(repr(v), []).append(k)
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


def _safety_violation(
    engine: ExecutionKernel, scenario: ExploreScenario
) -> tuple[str, dict[int, Hashable]] | None:
    """Engine-level wrapper of :func:`_decision_violation`."""
    decided = engine.decisions()
    detail = _decision_violation(decided, scenario, engine.correct)
    if detail is None:
        return None
    return detail, decided


def _script_from_path(
    scenario: ExploreScenario,
    path: Mapping[int, Mapping],
    cut: Cut | None,
    rounds: int,
) -> StrategyScript:
    emissions = {
        r: {slot: dict(per_q) for slot, per_q in em.items()}
        for r, em in path.items() if em
    }
    return StrategyScript(
        emissions=emissions,
        cut=cut,
        cut_until=rounds if cut is not None else 0,
    )


def _face_payload(
    source: tuple,
    slot: int,
    payloads: Mapping[int, Hashable],
    faces: Mapping[tuple[int, int], Hashable],
) -> Hashable:
    if source == SILENT:
        return None
    kind, arg = source
    if kind == "ghost":
        return faces.get((slot, arg))
    return payloads.get(arg)  # mimic


def _raw_emissions(
    scenario: ExploreScenario,
    blocks: tuple[tuple[int, ...], ...],
    per_slot_payloads: Mapping[int, tuple],
) -> dict[int, dict[int, tuple[Hashable, ...]]]:
    """Assemble one child's emissions from per-block payload picks."""
    raw: dict[int, dict[int, tuple[Hashable, ...]]] = {}
    for slot, picks in per_slot_payloads.items():
        per_recipient: dict[int, tuple[Hashable, ...]] = {}
        for block, payload in zip(blocks, picks):
            if payload is None:
                continue
            for q in block:
                per_recipient[q] = (payload,)
        if per_recipient:
            raw[slot] = per_recipient
    return raw


# ----------------------------------------------------------------------
# Per-round tree search
# ----------------------------------------------------------------------
def _tree_sources(scenario: ExploreScenario) -> list[tuple]:
    """Face sources offered per receiver in per-round mode.

    Ghost faces first (the attack-shaped choices), then mimics, then
    silence -- the order depth-first search tries them, which biases
    violation hunts toward equivocation without affecting exhaustive
    sweeps.
    """
    sources: list[tuple] = [
        ghost_source(i) for i in range(len(scenario.ghost_plans))
    ]
    if scenario.include_mimics:
        sources.extend(mimic_source(k) for k in scenario.correct)
    sources.append(SILENT)
    return sources


#: One per-receiver Byzantine delta: ``(slot, payload)`` pairs delivered
#: to a single receiver in one round.
Delta = tuple[tuple[int, Hashable], ...]


def _delta_options(
    scenario: ExploreScenario,
    payloads: Mapping[int, Hashable],
    faces: Mapping[tuple[int, int], Hashable],
    stats: SearchStats,
) -> list[Delta]:
    """The distinct Byzantine deltas one receiver can see this round.

    Because every Byzantine slot chooses per receiver independently,
    the children of a node factor into a product of *per-receiver*
    choices, each drawn from this list: one payload (or silence) per
    slot, deduplicated by delivered content.  Order is the search
    order: ghost faces first, silence last.
    """
    per_slot: list[list[Hashable]] = []
    sources = _tree_sources(scenario)
    for slot in scenario.byzantine:
        options: list[Hashable] = []
        seen: set[str] = set()
        for source in sources:
            payload = _face_payload(source, slot, payloads, faces)
            key = repr(payload)
            if key in seen:
                stats.children_deduped += 1
                continue
            seen.add(key)
            options.append(payload)
        per_slot.append(options)
    deltas: list[Delta] = []
    for picks in itertools.product(*per_slot):
        deltas.append(tuple(
            (slot, p)
            for slot, p in zip(scenario.byzantine, picks)
            if p is not None
        ))
    return deltas


def _is_symmetric(scenario: ExploreScenario, cut: Cut | None) -> bool:
    """Receivers are interchangeable: no cut, only full-visibility ghosts."""
    return cut is None and all(
        p.visible is None for p in scenario.ghost_plans
    )


def _post_states(
    scenario: ExploreScenario,
    engine: ExecutionKernel,
    mid,
    payloads: Mapping[int, Hashable],
    deltas: list[Delta],
    intern: dict[Hashable, int],
) -> dict[int, list[tuple[int, Process]]]:
    """Per-receiver post-round outcomes for every delta option.

    The key observation behind the explorer's throughput: a child's
    future is fully determined by each receiver's post-round state, and
    that state depends only on the Byzantine delta *that receiver* saw
    -- not on what other receivers got.  With ``k`` deltas and ``c``
    receivers there are ``k * c`` distinct per-receiver outcomes but
    ``k^c`` children, so each ``(receiver, delta)`` pair is delivered
    once to a :meth:`~repro.sim.process.Process.clone` of the receiver
    and keyed with :func:`~repro.core.canonical.canonical_state_key`;
    children then assemble their transposition keys from the
    precomputed (interned) keys without touching the engine.

    Args:
        scenario: The exploration scenario.
        engine: The engine, composed for this round.
        mid: The engine checkpoint taken after composing.
        payloads: This round's correct payloads.
        deltas: The per-receiver delta alphabet.
        intern: Global key -> small-int table (shared with the
            transposition table so its keys are tuples of ints); ids
            are assigned in first-encounter order.

    Returns:
        ``receiver -> [ (digest id, post-round clone) per delta ]``.
        The clones are the children's states: :func:`_dfs` installs
        class leaders in the engine instead of re-delivering them.
    """
    numerate = scenario.params.numerate
    ident_of = scenario.assignment.identifier_of
    r = engine.round_no
    senders = tuple(payloads)
    receivers = engine.correct
    if engine.timing.active(r):
        lost = engine.timing.removed_mask(r, receivers, senders).tolist()
    else:
        lost = [[False] * len(senders)] * len(receivers)
    extras = [
        [(m.sort_key(), m) for m in (
            Message(ident_of(slot), p) for slot, p in delta
        )]
        for delta in deltas
    ]
    # One inbox per delta and distinct loss row (in lock-step every
    # receiver shares one row): the base (correct-sender) inbox after
    # the timing model's removals, sorted once, with each delta merged
    # in as in repro.sim.fabric.deliver_round.
    inboxes_by_row: dict[tuple[bool, ...], list[Inbox]] = {}
    result: dict[int, list[tuple[int, Process]]] = {}
    for q, lost_row in zip(receivers, lost):
        row = tuple(lost_row)
        inboxes = inboxes_by_row.get(row)
        if inboxes is None:
            base = Inbox((
                Message(ident_of(s), payloads[s])
                for s, gone in zip(senders, row) if not gone
            ), numerate=numerate)
            keys = [m.sort_key() for m in base]
            members = None if numerate else set(base.messages())
            inboxes = inboxes_by_row[row] = [
                Inbox.merged(base, keys, extra, members) for extra in extras
            ]
        outcomes: list[tuple[int, Process]] = []
        for inbox in inboxes:
            proc = mid.processes[q].clone()
            proc.deliver(r, inbox)
            key = canonical_state_key(proc)
            outcomes.append((intern.setdefault(key, len(intern)), proc))
        result[q] = outcomes
    return result


def _emissions_from_combo(
    correct: tuple[int, ...],
    deltas: list[Delta],
    combo: tuple[int, ...],
) -> dict[int, dict[int, tuple[Hashable, ...]]]:
    """Reassemble one child's emission mapping from its delta picks."""
    raw: dict[int, dict[int, tuple[Hashable, ...]]] = {}
    for q, index in zip(correct, combo):
        for slot, payload in deltas[index]:
            raw.setdefault(slot, {})[q] = (payload,)
    return raw


def _outcome_classes(
    correct: tuple[int, ...],
    post: Mapping[int, list[tuple[int, Process]]],
    payload_ids: Mapping[int, int],
    intern: dict[Hashable, int],
) -> list[list[list]]:
    """Group each receiver's delta choices by the post-state they lead to.

    Two choices that leave a receiver in the same state give children
    whose transposition keys agree on that receiver, so the node's
    children factor into a product of per-receiver *outcome classes*.

    Returns:
        Per receiver (in ``correct`` order), one record per class in
        first-index order: ``[key fragment, class size, first delta
        index, decided, decision, leader]``.  The fragment is the
        interned id of ``(own-payload id, post-state digest id)``; the
        own payload enters the key because ghosts consume it next
        round.  The leader is the first index's post-round clone, the
        state a child picking this class installs; the other members'
        clones are dropped.
    """
    classes = []
    for q in correct:
        by_digest: dict[int, list] = {}
        for index, (digest_id, proc) in enumerate(post[q]):
            record = by_digest.get(digest_id)
            if record is None:
                fragment = (payload_ids[q], digest_id)
                by_digest[digest_id] = [
                    intern.setdefault(fragment, len(intern)),
                    1, index, proc.decided, proc.decision, proc,
                ]
            else:
                record[1] += 1
        classes.append(list(by_digest.values()))
    return classes


#: Field readers of an outcome-class record.
_FRAGMENT = itemgetter(0)
_SIZE = itemgetter(1)
_FIRST = itemgetter(2)
_LEADER = itemgetter(5)


def _duplicates_before(combo: tuple[int, ...], radix: int, walked: int) -> int:
    """Children before ``combo`` in product order that no class led with.

    ``combo``'s mixed-radix rank counts every child before it; the
    ``walked`` class representatives among them were visited, and the
    rest are duplicates of one of them.
    """
    rank = 0
    for index in combo:
        rank = rank * radix + index
    return rank - walked


def _dfs(
    scenario: ExploreScenario,
    engine: ExecutionKernel,
    bank: GhostBank,
    bank_id: int,
    faces: Mapping[tuple[int, int], Hashable],
    path: dict[int, dict],
    cut: Cut | None,
    cut_index: int,
    stats: SearchStats,
    table: dict,
    intern: dict[Hashable, int],
) -> int:
    """Explore the subtree under the engine's current state.

    Every child's transposition key -- per-receiver post-round state
    digests (sorted when the scenario is receiver-symmetric), the ghost
    bank digest and the cut -- is assembled from :func:`_post_states`'s
    precomputed fragments *before* the child touches the engine, so an
    equivalent emission choice costs one dictionary probe.  Safety and
    termination are judged from the same fragments, so only a child
    with a new key that neither violates nor ends is installed in the
    engine, and none is re-delivered: the engine restores the node's
    composed processes with each receiver's class leader (the scratch
    post-state :func:`_post_states` delivered) in its slot.  Siblings
    share leaders but never mutate them: ``restore`` marks the list
    shared, so the child's ``compose_round`` copies on write.  The
    engine records no rounds (its trace and delivery log stay empty);
    a witness is rebuilt from ``path`` alone.

    The walk visits one child per product of per-receiver outcome
    classes (:func:`_outcome_classes`), in the order the full product
    of delta choices first reaches each: the other children of a class
    product share its key, so they are exactly the transposition hits a
    child-by-child walk would score, and they are credited in bulk --
    ``weight * value`` to the raw size, and ``total - walked`` to the
    hit counter when the node completes.  Before a child raises or
    recurses, the duplicates preceding it in product order are credited
    first, so the counters of a violation certificate are the ones the
    child-by-child walk stops with.

    Args:
        bank: The ghost bank, already stepped into this round; shared
            with the node's siblings, so it is only ever forked.
        bank_id: The interned id of ``bank``'s digest, computed once
            by whoever stepped the bank and shared by the siblings.
        faces: ``bank``'s faces for this round.

    Returns:
        The *raw* (unshared) size of the subtree, so transposition hits
        credit the full subtree they skipped -- the exact
        without-pruning comparison the certificate reports.

    Raises:
        _ViolationFound: As soon as any branch violates safety (or,
            where enabled, termination).
    """
    r = engine.round_no
    stats.nodes_expanded += 1
    stats.max_depth = max(stats.max_depth, r + 1)

    payloads = engine.compose_round()
    deltas = _delta_options(scenario, payloads, faces, stats)
    correct = engine.correct
    total_children = len(deltas) ** len(correct)
    if total_children > scenario.max_children:
        raise ConfigurationError(
            f"round branching factor {total_children} exceeds the "
            f"max_children cap {scenario.max_children}; shrink the "
            f"alphabet or the scope"
        )
    stats.children_generated += total_children

    mid = engine.checkpoint()
    post = _post_states(scenario, engine, mid, payloads, deltas, intern)
    symmetric = _is_symmetric(scenario, cut)
    last_round = r + 1 >= scenario.depth
    payload_ids = {
        q: intern.setdefault(repr(payloads.get(q)), len(intern))
        for q in correct
    }
    classes = _outcome_classes(correct, post, payload_ids, intern)
    del post  # only the class leaders' clones live on
    terminating = scenario.require_termination and cut is None
    # With no decided class at this node every child is safe, and only
    # a due termination check can still flag one.
    judged = (last_round and terminating) or any(
        record[3] for records in classes for record in records
    )
    # Every recursing child shows its ghosts this round's payloads, so
    # they share one bank stepped into the next round (made on demand),
    # and one digest of it.
    child_bank = child_bank_id = child_faces = None

    raw_size = 1
    walked = 0  # class representatives visited so far
    credited = 0  # duplicates already added to the hit counter
    prefix = (r + 1, cut_index, bank_id)
    for picks in itertools.product(*classes):
        # Assemble the child's key without touching the engine.
        if symmetric:
            key = prefix + tuple(sorted(map(_FRAGMENT, picks)))
        else:
            key = prefix + tuple(map(_FRAGMENT, picks))
        weight = math.prod(map(_SIZE, picks))
        cached = table.get(key)
        if cached is not None:
            stats.transposition_hits += 1
            raw_size += weight * cached
            walked += 1
            continue

        # Safety is decidable from the precomputed post-states alone.
        detail = None
        everyone = False
        if judged:
            decided = {q: pick[4] for q, pick in zip(correct, picks) if pick[3]}
            detail = _decision_violation(decided, scenario, correct)
            decisions = decided
            everyone = len(decided) == len(correct)
            if detail is None and last_round and terminating and not everyone:
                undecided = [q for q in correct if q not in decided]
                detail = (
                    f"termination: correct processes {undecided} "
                    f"undecided after {r + 1} rounds"
                )
                decisions = {}
        if detail is None and (everyone or last_round):
            table[key] = 1
            raw_size += weight
            walked += 1
            continue

        # The child raises or recurses: materialise it.
        combo = tuple(map(_FIRST, picks))
        duplicates = _duplicates_before(combo, len(deltas), walked)
        stats.transposition_hits += duplicates - credited
        credited = duplicates
        raw_emissions = _emissions_from_combo(correct, deltas, combo)
        # The model-rule check finish_round would apply; the alphabet
        # is legal by construction, so it never fires.
        normalize_emissions(
            scenario.params, scenario.byzantine, raw_emissions, r
        )
        path[r] = raw_emissions
        if detail is not None:
            raise _ViolationFound(
                _script_from_path(scenario, path, cut, r + 1),
                detail, r, decisions,
            )
        processes = list(mid.processes)
        for q, pick in zip(correct, picks):
            processes[q] = _LEADER(pick)
        engine.restore(EngineCheckpoint(
            round_no=r + 1, processes=tuple(processes),
            trace_records=(), deliveries=(),
        ))
        if child_bank is None:
            child_bank = bank.fork()
            child_faces = child_bank.step(r + 1, payloads)
            child_bank_id = intern.setdefault(
                child_bank.digest(), len(intern)
            )
        subtree = _dfs(
            scenario, engine, child_bank, child_bank_id, child_faces, path,
            cut, cut_index, stats, table, intern,
        )
        table[key] = subtree
        raw_size += weight * subtree
        walked += 1
    stats.transposition_hits += total_children - walked - credited
    path.pop(r, None)
    return raw_size


def _explore_tree(scenario: ExploreScenario, stats: SearchStats) -> int:
    table: dict = {}
    intern: dict[Hashable, int] = {}
    total_raw = 0
    for cut_index, cut in enumerate(scenario.cuts):
        engine = _build_engine(scenario, cut)
        bank = GhostBank(scenario)
        faces = bank.step(0, None)
        bank_id = intern.setdefault(bank.digest(), len(intern))
        total_raw += _dfs(
            scenario, engine, bank, bank_id, faces, {}, cut, cut_index,
            stats, table, intern,
        )
        stats.raw_tree_size = total_raw
    return total_raw


# ----------------------------------------------------------------------
# Persistent-face search
# ----------------------------------------------------------------------
def _persistent_sources(
    scenario: ExploreScenario,
    block: tuple[int, ...],
) -> list[tuple]:
    """Face sources offered to one block in persistent mode.

    Only ghosts whose visibility is this block or full are coherent
    faces for it (a ghost living on the other side of the cut is not a
    behaviour any one-sided adversary projection exhibits).  Matched
    ghosts come first, preferring the one whose input matches the
    block's own unanimous proposal -- the mirror-world face the
    partition constructions lead with.
    """
    matched: list[tuple[int, tuple]] = []
    full: list[tuple] = []
    for i, plan in enumerate(scenario.ghost_plans):
        if plan.visible == block:
            block_values = {
                repr(scenario.proposals[q]) for q in block
            }
            rank = 0 if {repr(plan.proposal)} == block_values else 1
            matched.append((rank, ghost_source(i)))
        elif plan.visible is None:
            full.append(ghost_source(i))
    sources = [s for _, s in sorted(matched, key=lambda e: e[0])] + full
    if scenario.include_mimics:
        sources.extend(mimic_source(k) for k in block)
    sources.append(SILENT)
    return sources


def _explore_persistent(scenario: ExploreScenario, stats: SearchStats) -> int:
    total = 0
    for cut in scenario.cuts:
        blocks: tuple[tuple[int, ...], ...] = (
            cut if cut is not None else (scenario.correct,)
        )
        block_sources = [_persistent_sources(scenario, b) for b in blocks]
        per_slot = [
            list(itertools.product(*block_sources))
            for _ in scenario.byzantine
        ]
        strategies = list(itertools.product(*per_slot))
        stats.children_generated += len(strategies)
        for assignment in strategies:
            committed = dict(zip(scenario.byzantine, assignment))
            used_plans = tuple(sorted({
                src[1]
                for picks in committed.values()
                for src in picks if src[0] == "ghost"
            }))
            engine = _build_engine(scenario, cut)
            bank = GhostBank(scenario, plan_indices=used_plans)
            prev: Mapping[int, Hashable] | None = None
            path: dict[int, dict] = {}
            for r in range(scenario.depth):
                payloads = engine.compose_round()
                faces = bank.step(r, prev)
                raw = _raw_emissions(
                    scenario, blocks,
                    {
                        slot: tuple(
                            _face_payload(src, slot, payloads, faces)
                            for src in picks
                        )
                        for slot, picks in committed.items()
                    },
                )
                engine.finish_round(payloads, raw_emissions=raw)
                path[r] = raw
                stats.nodes_expanded += 1
                stats.max_depth = max(stats.max_depth, r + 1)
                total += 1
                violation = _safety_violation(engine, scenario)
                if violation is not None:
                    detail, decisions = violation
                    raise _ViolationFound(
                        _script_from_path(scenario, path, cut, r + 1),
                        detail, r, decisions,
                    )
                if engine.all_correct_decided():
                    break
                prev = payloads
        stats.raw_tree_size = total
    return total


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def explore(scenario: ExploreScenario) -> Certificate:
    """Run one bounded exploration to a certificate.

    Args:
        scenario: The exploration problem (see :func:`default_scenario`
            for the standard construction).

    Returns:
        A violation certificate with a replayable witness, or a bounded
        exhaustiveness certificate with the search counters.
    """
    stats = SearchStats()
    start = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    try:
        if scenario.persistent_faces:
            raw = _explore_persistent(scenario, stats)
        else:
            raw = _explore_tree(scenario, stats)
    except _ViolationFound as found:
        stats.elapsed_s = time.perf_counter() - start  # reprolint: disable=RL002 -- diagnostic timing only
        # The raw-tree counter is only meaningful for completed sweeps;
        # a violation aborts mid-count (possibly with totals from
        # earlier, clean cut alternatives), so report none at all.
        stats.raw_tree_size = 0
        return Certificate(
            outcome="violation",
            scenario=scenario.describe_dict(),
            stats=stats,
            witness=found.script,
            violation=found.detail,
            violation_round=found.round_no,
            decisions=found.decisions,
        )
    stats.raw_tree_size = raw
    stats.elapsed_s = time.perf_counter() - start  # reprolint: disable=RL002 -- diagnostic timing only
    return Certificate(
        outcome="exhausted",
        scenario=scenario.describe_dict(),
        stats=stats,
    )


def replay_witness(
    scenario: ExploreScenario,
    script: StrategyScript,
    max_rounds: int | None = None,
) -> ExecutionResult:
    """Replay a witness through the normal execution pipeline.

    The script runs as an ordinary scripted adversary with an explicit
    finite drop set -- no explorer machinery involved -- so a witness
    that reproduces its violation here is a regression test against the
    plain engine.

    Args:
        scenario: The scenario the witness was found in.
        script: The witness strategy.
        max_rounds: Round budget (default: the scenario depth).

    Returns:
        The finished :class:`~repro.sim.runner.ExecutionResult`.
    """
    processes = make_processes(
        scenario.factory, scenario.assignment, scenario.proposals,
        scenario.byzantine,
    )
    return run_execution(
        params=scenario.params,
        assignment=scenario.assignment,
        processes=processes,
        byzantine=scenario.byzantine,
        adversary=StrategyTreeAdversary(script),
        timing=BasicPsync(script.drop_schedule()),
        max_rounds=scenario.depth if max_rounds is None else max_rounds,
        require_termination=False,
    )
