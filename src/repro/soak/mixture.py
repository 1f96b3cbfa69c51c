"""Instance sampling for the agreement soak farm.

The soak farm runs an *unbounded* stream of agreement instances, each
drawn from a churned mixture of solvable cells, identity assignments,
input patterns, Byzantine strategies and timing models.  This module is
the deterministic sampler behind that stream:

* a :class:`SoakProfile` names the solvable cells in the mixture and
  their draw weights;
* :func:`sample_instance` maps ``(profile, farm seed, index)`` to a
  frozen :class:`InstanceSpec` via :func:`~repro.core.canonical.
  stable_seed`, so instance ``i`` of a farm is the same on every
  machine and every resume;
* :func:`build_instance` rebuilds the live objects (assignment,
  proposals, adversary, timing model) from a spec alone, which is what
  makes **any** soak instance replayable in isolation:
  ``run_instance(sample_instance(profile, seed, i))`` reproduces the
  exact execution the farm ran inside a batch.

The adversary mixture covers the repo's whole attack alphabet: the
simulated-correct family (crash / input-flip / equivocator / seeded
chaos), clone-fair re-routing, the mirror face, and the explorer's
ghost faces (:class:`~repro.adversaries.ghosts.GhostFaceAdversary`) in
both obedient-imposter and live-partition form.  Every sampled
configuration stays inside the model rules of its cell -- restricted
cells never draw the duplicator -- so a solvable cell must survive
every instance; any violation the soak surfaces is a real bug.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from typing import Hashable

from repro.adversaries.clones import CloneFairAdversary
from repro.adversaries.generic import (
    CrashAdversary,
    DuplicatorAdversary,
    EquivocatorAdversary,
    InputFlipAdversary,
    RandomByzantineAdversary,
)
from repro.adversaries.ghosts import GhostFaceAdversary
from repro.adversaries.mirror import MirrorAdversary
from repro.core.canonical import canonical_json, stable_seed
from repro.core.errors import ConfigurationError
from repro.core.identity import IdentityAssignment
from repro.core.params import Synchrony, SystemParams
from repro.core.problem import BINARY, AgreementProblem
from repro.experiments.harness import algorithm_for
from repro.experiments.workloads import (
    assignment_battery,
    input_patterns,
)
from repro.explore.alphabet import GhostPlan
from repro.sim.adversary import Adversary, NullAdversary
from repro.sim.delay import AlwaysBoundedUnknownDelays, EventuallyBoundedDelays
from repro.sim.kernel import BasicPsync, DelayBased, LockStep, TimingModel
from repro.sim.partial import RandomDrops, SilenceUntil
from repro.sim.runner import run_agreement

#: Salt folded into every instance id and checkpoint id.  Bump when the
#: sampling procedure, the row shape, or the checkpoint contents change:
#: old soak logs must then resume-miss instead of silently mixing rows
#: produced by different sampling code.
SOAK_SCHEMA = "soak/1"

_SYNCHRONY = {s.short: s for s in Synchrony}


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakCell:
    """One solvable cell of a soak mixture, with its draw weight."""

    label: str
    n: int
    ell: int
    t: int
    synchrony: str
    numerate: bool
    restricted: bool
    weight: int = 1

    def params(self) -> SystemParams:
        """The cell's :class:`SystemParams`."""
        return SystemParams(
            n=self.n, ell=self.ell, t=self.t,
            synchrony=_SYNCHRONY[self.synchrony],
            numerate=self.numerate, restricted=self.restricted,
        )


@dataclass(frozen=True)
class SoakProfile:
    """A named cell mixture the farm churns over."""

    name: str
    cells: tuple[SoakCell, ...]

    def cell(self, label: str) -> SoakCell:
        """Look a cell up by label.

        Raises:
            ConfigurationError: Unknown label.
        """
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise ConfigurationError(
            f"profile {self.name!r} has no cell {label!r}"
        )


#: The quick mixture is dominated by the cheap cells (the synchronous
#: T(EIG) family and the small restricted-numerate Figure 7 cell) so a
#: ``--quick`` farm sustains tens of thousands of instances in minutes;
#: ``standard`` adds the n=7 Figure 5 DLS cell, whose per-instance cost
#: is ~50x the quick cells', at a low weight.
PROFILES: dict[str, SoakProfile] = {
    "quick": SoakProfile(
        name="quick",
        cells=(
            SoakCell("sync-eig-n4", n=4, ell=4, t=1,
                     synchrony="sync", numerate=False, restricted=False,
                     weight=4),
            SoakCell("sync-eig-n5", n=5, ell=4, t=1,
                     synchrony="sync", numerate=False, restricted=False,
                     weight=3),
            SoakCell("fig7-restricted-n4", n=4, ell=2, t=1,
                     synchrony="psync", numerate=True, restricted=True,
                     weight=3),
        ),
    ),
    "standard": SoakProfile(
        name="standard",
        cells=(
            SoakCell("sync-eig-n4", n=4, ell=4, t=1,
                     synchrony="sync", numerate=False, restricted=False,
                     weight=4),
            SoakCell("sync-eig-n5", n=5, ell=4, t=1,
                     synchrony="sync", numerate=False, restricted=False,
                     weight=3),
            SoakCell("fig7-restricted-n4", n=4, ell=2, t=1,
                     synchrony="psync", numerate=True, restricted=True,
                     weight=3),
            SoakCell("fig5-dls-n7", n=7, ell=6, t=1,
                     synchrony="psync", numerate=False, restricted=False,
                     weight=1),
        ),
    ),
}


def get_profile(name: str) -> SoakProfile:
    """Resolve a profile by name.

    Raises:
        ConfigurationError: Unknown profile.
    """
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown soak profile {name!r}; "
            f"known: {sorted(PROFILES)}"
        ) from None


#: Adversary kinds drawn by the sampler.  Restricted cells exclude the
#: duplicator (multiple messages per recipient per round are illegal
#: there -- the engine would raise AdversaryViolation by design).
ADVERSARY_KINDS = (
    "silent",
    "crash",
    "flip",
    "equivocator",
    "chaos",
    "clone-chaos",
    "mirror",
    "ghost-imposter",
    "ghost-partition",
)
UNRESTRICTED_ONLY_KINDS = ("duplicator",)

#: Timing kinds per synchrony.  Synchronous cells run lock-step only;
#: partially synchronous cells churn over drop schedules and both
#: delay-policy families.  Every drawn GST stays within the harness's
#: horizon allowance (``_max_gst = 16``), so non-termination inside the
#: horizon is a genuine violation, never an under-budgeted run.
SYNC_TIMINGS = ("none",)
PSYNC_TIMINGS = ("none", "silence-gst", "drops", "punctual", "eventual")


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstanceSpec:
    """One soak instance, fully determined and content-addressed.

    Everything an execution needs is derivable from the spec: the named
    dimensions select *which* battery entry to use, and ``seed`` (itself
    derived via ``stable_seed`` from the farm seed and index) drives
    every numeric sub-draw inside :func:`build_instance`.  Two specs
    with equal fields produce byte-identical executions.
    """

    profile: str
    index: int
    cell: str
    n: int
    ell: int
    t: int
    synchrony: str
    numerate: bool
    restricted: bool
    assignment: str
    byzantine: tuple[int, ...]
    inputs: str
    adversary: str
    timing: str
    seed: int

    def params(self) -> SystemParams:
        """The instance's :class:`SystemParams`."""
        return SystemParams(
            n=self.n, ell=self.ell, t=self.t,
            synchrony=_SYNCHRONY[self.synchrony],
            numerate=self.numerate, restricted=self.restricted,
        )

    @property
    def instance_id(self) -> str:
        """Content hash of the spec -- the log row identity.

        Covers :data:`SOAK_SCHEMA`, so logs written by a different
        sampling schema resume-miss instead of mixing rows.
        """
        payload = canonical_json([SOAK_SCHEMA, asdict(self)])
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    def describe(self) -> str:
        """Compact human-readable instance label (the log row label)."""
        byz = ",".join(str(b) for b in self.byzantine)
        return (
            f"{self.cell}/{self.assignment}/b[{byz}]/"
            f"{self.inputs}/{self.adversary}/{self.timing}"
        )


def sample_instance(
    profile_name: str, farm_seed: int, index: int
) -> InstanceSpec:
    """Draw instance ``index`` of a farm's deterministic stream.

    The draw is a pure function of ``(profile, farm_seed, index)``:
    the dimension RNG is seeded with ``stable_seed`` over exactly that
    triple, so the stream is identical across machines, resumes, and
    batch boundaries -- sampling instance 7041 alone yields the same
    spec the full farm ran.

    Args:
        profile_name: A :data:`PROFILES` key.
        farm_seed: The farm's seed.
        index: Zero-based position in the instance stream.

    Returns:
        The frozen spec.
    """
    profile = get_profile(profile_name)
    rng = random.Random(
        stable_seed((farm_seed, "soak-sample", profile.name, index))
    )
    cell = rng.choices(
        profile.cells, weights=[c.weight for c in profile.cells]
    )[0]
    seed = stable_seed((farm_seed, "soak-instance", profile.name, index))

    assignments = assignment_battery(cell.n, cell.ell, seed=seed)
    assignment_name = rng.choice([name for name, _ in assignments])
    byzantine = tuple(sorted(rng.sample(range(cell.n), cell.t)))
    correct = [k for k in range(cell.n) if k not in byzantine]
    patterns = input_patterns(correct, BINARY, seed)
    inputs_name = rng.choice([name for name, _ in patterns])

    kinds = list(ADVERSARY_KINDS)
    if not cell.restricted:
        kinds.extend(UNRESTRICTED_ONLY_KINDS)
    adversary_kind = rng.choice(kinds)

    timings = SYNC_TIMINGS if cell.synchrony == "sync" else PSYNC_TIMINGS
    timing_kind = rng.choice(timings)

    return InstanceSpec(
        profile=profile.name,
        index=index,
        cell=cell.label,
        n=cell.n, ell=cell.ell, t=cell.t,
        synchrony=cell.synchrony,
        numerate=cell.numerate,
        restricted=cell.restricted,
        assignment=assignment_name,
        byzantine=byzantine,
        inputs=inputs_name,
        adversary=adversary_kind,
        timing=timing_kind,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Spec -> live objects
# ----------------------------------------------------------------------
@dataclass
class BuiltInstance:
    """The live objects of one spec, ready to run."""

    spec: InstanceSpec
    params: SystemParams
    assignment: IdentityAssignment
    byzantine: tuple[int, ...]
    proposals: dict[int, Hashable]
    adversary: Adversary
    timing: TimingModel
    horizon: int
    algorithm: str
    factory: object


def _resolve(name: str, battery, what: str):
    for entry_name, value in battery:
        if entry_name == name:
            return value
    raise ConfigurationError(
        f"spec names {what} {name!r} but the battery has "
        f"{[n for n, _ in battery]}"
    )


def build_instance(
    spec: InstanceSpec, problem: AgreementProblem = BINARY
) -> BuiltInstance:
    """Rebuild a spec's live execution objects.

    Numeric sub-parameters (crash round, drawn proposals, GSTs, delay
    deltas, ghost visibility) come from a build RNG seeded with
    ``stable_seed`` over the spec's own seed, so they reproduce whether
    the instance runs inside a farm batch or alone in a replay.

    Args:
        spec: The instance spec.
        problem: The agreement problem (the farm runs binary).

    Returns:
        The :class:`BuiltInstance`.

    Raises:
        ConfigurationError: The spec names an unknown battery entry or
            adversary/timing kind (a schema drift signal).
    """
    params = spec.params()
    rng = random.Random(stable_seed((spec.seed, "soak-build")))
    assignment = _resolve(
        spec.assignment,
        assignment_battery(spec.n, spec.ell, seed=spec.seed),
        "assignment",
    )
    correct = [k for k in range(spec.n) if k not in set(spec.byzantine)]
    proposals = _resolve(
        spec.inputs, input_patterns(correct, problem, spec.seed), "inputs"
    )
    algorithm, factory, horizon = algorithm_for(params, problem)
    adversary = _build_adversary(spec, rng, factory, problem, correct)
    timing = _build_timing(spec, rng)
    return BuiltInstance(
        spec=spec,
        params=params,
        assignment=assignment,
        byzantine=spec.byzantine,
        proposals=dict(proposals),
        adversary=adversary,
        timing=timing,
        horizon=horizon,
        algorithm=algorithm,
        factory=factory,
    )


def _build_adversary(
    spec: InstanceSpec,
    rng: random.Random,
    factory,
    problem: AgreementProblem,
    correct: list[int],
) -> Adversary:
    """Materialise the spec's adversary kind with seeded parameters."""
    kind = spec.adversary
    domain = problem.domain
    if kind == "silent":
        return NullAdversary()
    if kind == "crash":
        return CrashAdversary(
            factory,
            crash_round=rng.randint(1, 5),
            proposal=rng.choice(domain),
        )
    if kind == "flip":
        return InputFlipAdversary(factory, proposal=rng.choice(domain))
    if kind == "equivocator":
        return EquivocatorAdversary(factory)
    if kind == "duplicator":
        return DuplicatorAdversary(factory)
    if kind == "chaos":
        return RandomByzantineAdversary(
            seed=stable_seed((spec.seed, "soak-chaos")), burst=2
        )
    if kind == "clone-chaos":
        return CloneFairAdversary(
            RandomByzantineAdversary(
                seed=stable_seed((spec.seed, "soak-clone-chaos")), burst=2
            )
        )
    if kind == "mirror":
        return MirrorAdversary(
            factory,
            mirror_slot=spec.byzantine[0],
            mirror_input=rng.choice(domain),
        )
    if kind == "ghost-imposter":
        return GhostFaceAdversary(
            factory, GhostPlan(proposal=rng.choice(domain), visible=None)
        )
    if kind == "ghost-partition":
        half = max(1, len(correct) // 2)
        visible = tuple(sorted(rng.sample(correct, half)))
        return GhostFaceAdversary(
            factory,
            GhostPlan(proposal=rng.choice(domain), visible=visible),
        )
    raise ConfigurationError(f"unknown soak adversary kind {kind!r}")


def _build_timing(spec: InstanceSpec, rng: random.Random) -> TimingModel:
    """Materialise the spec's timing kind with seeded parameters.

    Every drawn GST (rounds for drop schedules, the policies'
    ``equivalent_basic_gst`` for delay models) stays at or below the
    harness's horizon allowance of 16 rounds.
    """
    kind = spec.timing
    if kind == "none":
        return LockStep()
    if kind == "silence-gst":
        return BasicPsync(SilenceUntil(rng.choice((4, 8, 12, 16))))
    if kind == "drops":
        return BasicPsync(
            RandomDrops(
                gst=rng.choice((8, 12)),
                p=rng.choice((0.2, 0.4)),
                seed=stable_seed((spec.seed, "soak-drops")),
            )
        )
    if kind == "punctual":
        return DelayBased(
            AlwaysBoundedUnknownDelays(
                true_delta=rng.choice((2, 3)),
                seed=stable_seed((spec.seed, "soak-punctual")),
            )
        )
    if kind == "eventual":
        delta = rng.choice((2, 3))
        return DelayBased(
            EventuallyBoundedDelays(
                delta=delta,
                gst_tick=delta * rng.choice((6, 8)),
                chaos_factor=rng.choice((4, 6)),
                seed=stable_seed((spec.seed, "soak-eventual")),
            )
        )
    raise ConfigurationError(f"unknown soak timing kind {kind!r}")


# ----------------------------------------------------------------------
# Solo execution (the replay tool)
# ----------------------------------------------------------------------
def run_instance(
    spec: InstanceSpec, problem: AgreementProblem = BINARY
) -> dict:
    """Run one soak instance alone and return its record.

    This is the replay path: the same record the farm's batched window
    execution produced for this index (batched kernels share no state,
    so batch and solo runs are bit-identical).

    Args:
        spec: The instance spec.
        problem: The agreement problem.

    Returns:
        A run-record-shaped dict: ``label`` / ``ok`` / ``detail`` /
        ``rounds`` / ``messages`` / ``losses``.
    """
    built = build_instance(spec, problem)
    result = run_agreement(
        params=built.params,
        assignment=built.assignment,
        factory=built.factory,
        proposals=built.proposals,
        byzantine=built.byzantine,
        adversary=built.adversary,
        timing=built.timing,
        max_rounds=built.horizon,
    )
    brief = result.brief()
    return {
        "label": spec.describe(),
        "ok": brief.ok,
        "detail": brief.detail,
        "rounds": brief.rounds,
        "messages": brief.messages,
        "losses": brief.losses,
    }
