"""Evidence collection and provenance fusion for one atlas cell.

Every cell of the atlas carries a list of *evidence items* -- plain
JSON-compatible dicts -- from up to three independent machinery stacks:

* **closed-form** (:func:`closed_form_evidence`): the Table 1 predicate
  of :mod:`repro.analysis.bounds`, with the theorem condition it
  encodes.  Always present; grade ``"theorem"``.
* **campaign** (:func:`run_atlas_unit`): the empirical stack.  Solvable
  cells run one workload slice of the validation battery (and, for
  partially synchronous cells, one delay-model slice -- the
  timing-model axis of the lattice); unsolvable cells run the paper's
  constructive impossibility demonstration.  Grades ``"verdict"``
  (battery outcome) and ``"witness"`` (a demonstration that exhibited
  the violation).
* **explorer** (:class:`ExploreScope`): bounded strategy exploration,
  one search per *scope* -- the ``(n, ell, t, synchrony)`` the search
  reads -- shared by every explorer cell of that scope.  A violation
  is replayed through the plain execution pipeline before it may carry
  grade ``"witness"``; a witness whose replay does not reproduce the
  violation degrades to ``"unconfirmed"`` and can neither prove nor
  conflict.  An exhausted sweep is grade ``"certificate"`` inside the
  solvable region and ``"inconclusive"`` outside it (a bounded family
  that found no attack below the bound proves nothing).

:func:`fuse_evidence` folds the items into one of the four cell
verdicts -- ``proved-solvable``, ``witnessed-unsolvable``,
``consistent``, ``CONFLICT`` -- with the conflict policy the atlas is
built around: *any* decisive evidence (grade ``"verdict"`` or
``"witness"``) contradicting the closed form is a hard error
(:class:`~repro.core.errors.AtlasConflict`).  :class:`AtlasUnit` is
the unit-pipeline spec that collects one cell's campaign evidence;
:class:`ExploreScope` is the one that runs a scope's explorer search.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

from repro.analysis.bounds import (
    governing_condition,
    psl_bound,
    psync_bound,
    restricted_numerate_bound,
    solvable,
    sync_bound,
)
from repro.atlas.lattice import BUDGET_SKIPPED, PLANS
from repro.core.errors import (
    AtlasConflict,
    ConfigurationError,
    ProvenanceError,
)
from repro.core.params import Synchrony, SystemParams
from repro.core.problem import BINARY, AgreementProblem
from repro.experiments.campaign import (
    PROBLEMS,
    UnitSpec,
    cell_weight,
    require_unique_labels,
)
from repro.experiments.harness import (
    algorithm_for,
    delay_slice_keys,
    evaluate_unsolvable_cell,
    run_delay_slice,
    run_solvable_slice,
    solvable_slice_keys,
)

#: The four fused cell verdicts.
PROVED_SOLVABLE = "proved-solvable"
WITNESSED_UNSOLVABLE = "witnessed-unsolvable"
CONSISTENT = "consistent"
CONFLICT = "CONFLICT"

#: Evidence kinds.
CLOSED_FORM = "closed-form"
CAMPAIGN = "campaign"
EXPLORER = "explorer"

#: Grades that may establish -- or contradict -- a solvability claim.
DECISIVE_GRADES = ("witness", "verdict")

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"


def _item(kind: str, source: str, claim: str | None, grade: str,
          detail: str, **extra) -> dict:
    """Assemble one evidence item (fixed key order for canonical rows)."""
    item = {
        "kind": kind,
        "source": source,
        "claim": claim,
        "grade": grade,
        "detail": detail,
    }
    item.update(extra)
    return item


def closed_form_evidence(params: SystemParams) -> dict:
    """The symbolic evidence item for a cell.

    Args:
        params: The cell's parameters.

    Returns:
        A grade-``theorem`` item claiming the cell's Table 1 side, with
        the instantiated condition in the detail.
    """
    n, ell, t = params.n, params.ell, params.t
    predicted = solvable(params)
    if t == 0:
        reason = "t=0: no faults, trivially solvable"
    elif not psl_bound(n, t):
        reason = f"n={n} <= 3t={3 * t}"
    elif params.restricted and params.numerate:
        reason = (
            f"ell={ell} {'>' if restricted_numerate_bound(ell, t) else '<='} "
            f"t={t}"
        )
    elif params.synchrony is Synchrony.SYNCHRONOUS:
        reason = f"ell={ell} {'>' if sync_bound(ell, t) else '<='} 3t={3 * t}"
    else:
        reason = (
            f"2*ell={2 * ell} "
            f"{'>' if psync_bound(n, ell, t) else '<='} n+3t={n + 3 * t}"
        )
    return _item(
        CLOSED_FORM,
        "repro.analysis.bounds.solvable",
        SOLVABLE if predicted else UNSOLVABLE,
        "theorem",
        f"{governing_condition(params)}: {reason}",
    )


# ----------------------------------------------------------------------
# Unit execution (the campaign worker body for kind="atlas")
# ----------------------------------------------------------------------
def _campaign_evidence(
    params: SystemParams,
    problem: AgreementProblem,
    seed: int,
    quick: bool,
) -> tuple[str, list, str, str, list[dict]]:
    """Empirical evidence: one validation (and delay) slice or the demo.

    Returns:
        ``(algorithm, records, demonstration, demonstration_kind,
        evidence_items)``.
    """
    evidence: list[dict] = []
    if not solvable(params):
        cell = evaluate_unsolvable_cell(params, problem, seed)
        if cell.demonstration:
            # Constructive demonstrations (a scenario/partition/mirror
            # run that exhibited the violation) are witness-grade;
            # reductions to another cell's result (the assumed PSL
            # citation, ell < 3t dominance) are sound but were not
            # machine-checked here, so they only *support* the claim.
            # The distinction rides the structured demonstration kind,
            # never the message text.
            grade = "witness" if cell.demonstration_checked else "derived"
            evidence.append(_item(
                CAMPAIGN, "impossibility demonstration", UNSOLVABLE,
                grade, cell.demonstration,
            ))
        else:
            evidence.append(_item(
                CAMPAIGN, "impossibility demonstration", None,
                "inconclusive",
                "no constructive demonstration covers this cell",
            ))
        return (
            cell.algorithm, cell.runs, cell.demonstration,
            cell.demonstration_kind, evidence,
        )

    algorithm, _, _ = algorithm_for(params, problem)
    key = solvable_slice_keys(params, seed, quick)[0]
    records = run_solvable_slice(params, key, problem, seed, quick)
    failures = [r for r in records if not r.ok]
    source = f"validation slice a{key[0]}b{key[1]}"
    if failures:
        evidence.append(_item(
            CAMPAIGN, source, UNSOLVABLE, "verdict",
            f"{len(failures)}/{len(records)} runs violated: "
            + "; ".join(f"{r.label}: {r.detail}" for r in failures[:3]),
        ))
    else:
        evidence.append(_item(
            CAMPAIGN, source, SOLVABLE, "verdict",
            f"all {len(records)} runs of {algorithm} satisfied "
            f"agreement/validity/termination",
        ))

    if params.synchrony is Synchrony.PARTIALLY_SYNCHRONOUS:
        # The timing-model axis: the same slice under DelayBased timing.
        dkey = delay_slice_keys(params, seed, quick)[0]
        drecords = run_delay_slice(params, dkey, problem, seed, quick)
        records = records + drecords
        dfailures = [r for r in drecords if not r.ok]
        dsource = f"delay-model slice a{dkey[0]}b{dkey[1]}"
        if dfailures:
            evidence.append(_item(
                CAMPAIGN, dsource, UNSOLVABLE, "verdict",
                f"{len(dfailures)}/{len(drecords)} delay-model runs "
                f"violated: "
                + "; ".join(f"{r.label}: {r.detail}" for r in dfailures[:3]),
            ))
        else:
            evidence.append(_item(
                CAMPAIGN, dsource, SOLVABLE, "verdict",
                f"all {len(drecords)} runs under delay-based timing "
                f"satisfied agreement/validity/termination",
            ))
    return algorithm, records, "", "", evidence


def _explorer_evidence(
    params: SystemParams, problem: AgreementProblem
) -> list[dict]:
    """Explorer evidence: certificate or replay-checked witness."""
    from repro.explore import default_scenario, explore, replay_witness

    scenario = default_scenario(params, problem=problem)
    certificate = explore(scenario)
    predicted = solvable(params)
    # Evidence details must be deterministic so resumed logs match
    # fresh ones byte for byte -- hence no elapsed_s anywhere.
    search = (
        certificate.stats.deterministic_summary()
        + (", persistent-face mode" if scenario.persistent_faces
           else ", per-round mode")
    )
    source = f"bounded exploration (depth {scenario.depth})"
    if not certificate.found_violation:
        if predicted:
            return [_item(
                EXPLORER, source, SOLVABLE, "certificate",
                f"exhausted clean: no violating strategy in the bounded "
                f"family ({search})",
            )]
        return [_item(
            EXPLORER, source, None, "inconclusive",
            f"bounded family found no violation below the bound "
            f"({search})",
        )]
    replay = replay_witness(scenario, certificate.witness)
    confirmed = not replay.verdict.ok
    detail = (
        f"{certificate.violation} (round {certificate.violation_round}, "
        f"{search})"
    )
    if confirmed:
        return [_item(
            EXPLORER, source, UNSOLVABLE, "witness",
            detail + "; replay through the plain engine reproduces it",
            witness=certificate.witness.to_dict(),
        )]
    return [_item(
        EXPLORER, source, UNSOLVABLE, "unconfirmed",
        detail + "; replay did NOT reproduce the violation "
        "(horizon-dependent, e.g. non-termination)",
        witness=certificate.witness.to_dict(),
    )]


def budget_skipped_evidence(params: SystemParams) -> dict:
    """The explicit placeholder item for cells outside the cost envelope.

    Cells beyond a lattice's ``campaign_max_n`` never run workloads, but
    they must not vanish from the provenance either: this grade-
    ``inconclusive`` item records that the empirical stack was skipped
    by budget policy, which satisfies :func:`fuse_evidence`'s
    non-symbolic-presence requirement and grades the cell
    ``consistent``.

    Args:
        params: The cell's parameters.

    Returns:
        The grade-``inconclusive`` budget-skipped evidence item.
    """
    return _item(
        CAMPAIGN,
        "campaign budget envelope",
        None,
        "inconclusive",
        f"budget-skipped: n={params.n} exceeds the campaign cost "
        f"envelope; closed form only, no empirical workloads ran",
    )


def run_atlas_unit(
    params: SystemParams,
    seed: int = 0,
    quick: bool = True,
    problem: AgreementProblem = BINARY,
    budget_skipped: bool = False,
) -> dict:
    """Collect one cell's campaign evidence; worker entry point.

    This is the work of an :class:`AtlasUnit`: everything
    is rebuilt deterministically from the arguments, so results are
    identical in-process, in a pool worker, or replayed from the
    content-hash cache.  Explorer evidence is not collected here: the
    cells of one scope share one :class:`ExploreScope` search, whose
    items the driver appends at fusion time.

    Args:
        params: The cell's parameters.
        seed: The battery seed.
        quick: Use the trimmed quick batteries.
        problem: The agreement problem.
        budget_skipped: The cell is outside the lattice's campaign cost
            envelope: skip all workloads and emit the explicit
            :func:`budget_skipped_evidence` note instead.

    Returns:
        ``{"algorithm", "records", "demonstration",
        "demonstration_kind", "evidence"}`` where ``records`` are
        :class:`~repro.experiments.harness.RunRecord` dicts and
        ``evidence`` is the list of campaign evidence items (the
        closed-form item and the scope's explorer items are added at
        fusion time by the driver).
    """
    if budget_skipped:
        algorithm, records, demonstration, kind = "", [], "", ""
        evidence = [budget_skipped_evidence(params)]
    else:
        algorithm, records, demonstration, kind, evidence = (
            _campaign_evidence(params, problem, seed, quick)
        )
    return {
        "algorithm": algorithm,
        "records": [asdict(r) for r in records],
        "demonstration": demonstration,
        "demonstration_kind": kind,
        "evidence": evidence,
    }


@dataclass(frozen=True)
class AtlasUnit(UnitSpec):
    """The pipeline unit of one atlas cell: its campaign evidence.

    :meth:`run` is :func:`run_atlas_unit` on the cell.  ``plan`` is one
    of :data:`~repro.atlas.lattice.PLANS`; any other value is refused
    when the spec is built, so a misspelled plan cannot silently drop
    evidence.  A ``campaign+explorer`` cell gets its explorer items
    from its scope's :class:`ExploreScope`, never from this unit.
    """

    kind = "atlas"

    label: str
    params: SystemParams
    plan: str
    seed: int = 0
    quick: bool = True
    problem: str = "binary"

    def __post_init__(self) -> None:
        if self.plan not in PLANS:
            raise ConfigurationError(
                f"unknown atlas evidence plan {self.plan!r} for cell "
                f"{self.label!r} (plans: {', '.join(PLANS)})"
            )

    def describe(self) -> str:
        return f"{self.label} [{self.plan}]"

    def run(self) -> dict:
        return run_atlas_unit(
            self.params, seed=self.seed, quick=self.quick,
            problem=PROBLEMS[self.problem],
            budget_skipped=self.plan == BUDGET_SKIPPED,
        )

    def weight(self) -> int:
        """Crude cost estimate on the campaign cell units' scale
        (:func:`~repro.experiments.campaign.cell_weight`).

        A solvable cell runs one validation slice, plus a delay slice
        three times as heavy under partial synchrony.  An unsolvable
        cell runs one demonstration, except a cited (``n <= 3t``) or
        dominated (``ell < 3t`` outside the restricted+numerate family)
        impossibility, which runs nothing; so does a budget-skipped
        cell.
        """
        params = self.params
        if self.plan == BUDGET_SKIPPED:
            return 0
        weight = cell_weight(params)
        if solvable(params):
            psync = params.synchrony is Synchrony.PARTIALLY_SYNCHRONOUS
            return 4 * weight if psync else weight
        restricted_numerate = params.restricted and params.numerate
        if not params.meets_psl_bound or (
            params.ell < 3 * params.t and not restricted_numerate
        ):
            return 1
        return weight


@dataclass(frozen=True)
class ExploreScope(UnitSpec):
    """The pipeline unit of one explorer search, shared by a scope group.

    The search reads only ``(n, ell, t, synchrony)`` and the problem:
    the algorithms it runs (T(EIG) and fig5-dls) never read the numeracy
    or restriction flags, so the explorer cells of one scope group
    (:func:`~repro.atlas.lattice.scope_group`) get the same items from
    one search.  ``params`` is the scope's representative, always
    innumerate and unrestricted; build a cell's scope with
    :meth:`for_cell`.  :meth:`run` returns the explorer evidence in the
    unit-result shape, with no records.
    """

    kind = "explore-scope"

    label: str
    params: SystemParams
    problem: str = "binary"

    def __post_init__(self) -> None:
        if self.params.numerate or self.params.restricted:
            raise ConfigurationError(
                f"explore scope {self.label!r} needs innumerate, "
                f"unrestricted representative params, got "
                f"{self.params.describe()}"
            )

    @classmethod
    def for_cell(cls, params: SystemParams,
                 problem: str = "binary") -> "ExploreScope":
        """The scope whose search serves the explorer cell ``params``.

        Raises:
            ConfigurationError: ``params`` is restricted and numerate,
                a family the explorer never searches (its algorithm is
                not one of the scope's).
        """
        if params.restricted and params.numerate:
            raise ConfigurationError(
                f"{params.describe()}: restricted+numerate cells are "
                f"outside explorer scope"
            )
        scope = replace(params, numerate=False, restricted=False)
        return cls(
            f"n{scope.n} ell{scope.ell} t{scope.t} "
            f"{scope.synchrony.short} scope",
            scope, problem,
        )

    def run(self) -> dict:
        problem = PROBLEMS[self.problem]
        algorithm, _, _ = algorithm_for(
            self.params, problem, unchecked=not solvable(self.params)
        )
        return {
            "algorithm": algorithm,
            "records": [],
            "evidence": _explorer_evidence(self.params, problem),
        }

    def weight(self) -> int:
        """Crude cost estimate on :meth:`AtlasUnit.weight`'s scale.

        Searches grow about eightfold per process: ``8 ** (n - 1)``,
        eight times that for a solvable scope (an exhaustive
        certificate), an eighth of it for an unsolvable synchronous one
        (its hunt stops at an early violation).  Fitted to measured
        n = 3 and 4 search times and the n = 5 synchronous certificate.
        """
        params = self.params
        exponent = params.n - 1
        if solvable(params):
            exponent += 1
        elif params.synchrony is Synchrony.SYNCHRONOUS:
            exponent -= 1
        return 8 ** exponent


def enumerate_atlas_units(
    cells: Sequence[tuple[str, SystemParams, str]],
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[AtlasUnit]:
    """One :class:`AtlasUnit` per ``(label, params, plan)`` triple
    (:attr:`~repro.atlas.lattice.AtlasCell.variant` is the plan), in
    lattice order, sharing ``seed``, ``quick`` and ``problem``.

    Raises:
        ConfigurationError: On duplicate cell labels or an unknown
            plan.
    """
    require_unique_labels(cells)
    return [
        AtlasUnit(label, params, plan, seed, quick, problem)
        for label, params, plan in cells
    ]


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def fuse_evidence(
    params: SystemParams,
    evidence: Sequence[Mapping],
    strict: bool = True,
) -> str:
    """Fold a cell's evidence items into its provenance verdict.

    The policy:

    * the evidence must contain the closed-form item **and** at least
      one non-symbolic item -- a verdict fused from the predicate alone
      would merely restate Table 1 (:class:`ProvenanceError`);
    * any decisive item (grade ``"witness"`` or ``"verdict"``) whose
      claim contradicts the closed form makes the cell ``CONFLICT`` --
      raised as :class:`~repro.core.errors.AtlasConflict` unless
      ``strict=False`` (the render-only path);
    * a predicted-solvable cell with a clean campaign verdict is
      ``proved-solvable``; a predicted-unsolvable cell with a violation
      witness is ``witnessed-unsolvable``;
    * otherwise the cell is ``consistent``: corroborating or
      non-decisive evidence is present and nothing contradicts the
      closed form.

    Args:
        params: The cell's parameters (fixes the closed-form side).
        evidence: The cell's evidence items.
        strict: Raise on conflict instead of returning ``CONFLICT``.

    Returns:
        One of :data:`PROVED_SOLVABLE`, :data:`WITNESSED_UNSOLVABLE`,
        :data:`CONSISTENT`, :data:`CONFLICT`.

    Raises:
        ProvenanceError: Missing closed-form item or no non-symbolic
            evidence at all.
        AtlasConflict: A decisive contradiction, when ``strict``.
    """
    closed = [e for e in evidence if e.get("kind") == CLOSED_FORM]
    others = [e for e in evidence if e.get("kind") != CLOSED_FORM]
    if not closed:
        raise ProvenanceError(
            f"{params.describe()}: evidence carries no closed-form claim"
        )
    if not others:
        raise ProvenanceError(
            f"{params.describe()}: symbolic evidence only -- a cell needs "
            f"at least one campaign verdict or explorer certificate before "
            f"it can be called consistent"
        )
    predicted_claim = closed[0]["claim"]

    conflicts = [
        e for e in others
        if e.get("grade") in DECISIVE_GRADES
        and e.get("claim") not in (None, predicted_claim)
    ]
    if conflicts:
        if strict:
            first = conflicts[0]
            raise AtlasConflict(
                f"{params.describe()}: closed form says {predicted_claim} "
                f"but {first['kind']} evidence ({first['source']}, grade "
                f"{first['grade']}) says {first['claim']}: {first['detail']}"
            )
        return CONFLICT

    decisive_support = [
        e for e in others
        if e.get("grade") in DECISIVE_GRADES and e.get("claim") == predicted_claim
    ]
    if decisive_support:
        return (
            PROVED_SOLVABLE if predicted_claim == SOLVABLE
            else WITNESSED_UNSOLVABLE
        )
    return CONSISTENT


def known_violation_fixture() -> dict:
    """A seeded witness that contradicts the closed form wherever placed.

    The fixture is a real explorer-style evidence item -- a replayed
    agreement-violation claim -- whose *claim* (``unsolvable``) turns
    into a hard :class:`~repro.core.errors.AtlasConflict` the moment it
    is attached to any predicted-solvable cell.  The driver's
    ``inject`` hook and the ``--inject-conflict`` CLI flag use it to
    demonstrate (and the tests to pin) that the atlas fails loudly when
    machine-checked evidence disagrees with Table 1.

    Returns:
        The forged grade-``witness`` evidence item.
    """
    return _item(
        EXPLORER,
        "seeded known-violation fixture",
        UNSOLVABLE,
        "witness",
        "agreement: [0] decided 0; [1] decided 1 (seeded fixture: a "
        "replay-confirmed witness claim planted inside the predicted-"
        "solvable region to prove conflicts fail the run)",
        witness={"cut": None, "cut_until": 0, "emissions": {}},
    )
