"""Byzantine strategies: fuzzing library + the paper's lower-bound constructions."""

from repro.adversaries.clones import (
    CloneFairAdversary,
    CloneReport,
    run_clone_experiment,
)
from repro.adversaries.generic import (
    CrashAdversary,
    DuplicatorAdversary,
    EquivocatorAdversary,
    InputFlipAdversary,
    RandomByzantineAdversary,
    SimulatedCorrectAdversary,
    standard_attack_suite,
)
from repro.adversaries.ghosts import GhostFaceAdversary
from repro.adversaries.mirror import (
    ChainScanOutcome,
    MirrorAdversary,
    MirrorPairReport,
    mirror_chain_scan,
    run_mirror_pair,
)
from repro.adversaries.partition import (
    PartitionLayout,
    PartitionOutcome,
    ReplayAdversary,
    partition_attack_feasible,
    run_partition_attack,
)
from repro.adversaries.scenario import (
    ScenarioOutcome,
    ScenarioSystem,
    ViewReport,
    run_scenario,
)

__all__ = [
    "ChainScanOutcome",
    "CloneFairAdversary",
    "CloneReport",
    "CrashAdversary",
    "DuplicatorAdversary",
    "EquivocatorAdversary",
    "GhostFaceAdversary",
    "InputFlipAdversary",
    "MirrorAdversary",
    "MirrorPairReport",
    "PartitionLayout",
    "PartitionOutcome",
    "RandomByzantineAdversary",
    "ReplayAdversary",
    "ScenarioOutcome",
    "ScenarioSystem",
    "SimulatedCorrectAdversary",
    "ViewReport",
    "mirror_chain_scan",
    "partition_attack_feasible",
    "run_clone_experiment",
    "run_mirror_pair",
    "run_partition_attack",
    "run_scenario",
    "standard_attack_suite",
]
