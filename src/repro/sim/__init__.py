"""Round-based simulator: engine, processes, adversaries, schedules."""

from repro.sim.adversary import (
    Adversary,
    AdversaryView,
    Emission,
    NullAdversary,
    normalize_emissions,
)
from repro.sim.delay import (
    AlwaysBoundedUnknownDelays,
    DelayPolicy,
    EventuallyBoundedDelays,
    equivalent_basic_gst,
)
from repro.sim.kernel import (
    BasicPsync,
    ComposedTiming,
    DelayBased,
    EngineCheckpoint,
    ExecutionKernel,
    LockStep,
    TimingModel,
)
from repro.sim.metrics import (
    Metrics,
    RoundDeliveries,
    metrics_from_deliveries,
    payload_size,
)
from repro.sim.partial import (
    DropSchedule,
    ExplicitDrops,
    NoDrops,
    PartitionSchedule,
    PredicateDrops,
    RandomDrops,
    SilenceUntil,
)
from repro.sim.process import EchoProcess, Process
from repro.sim.runner import (
    ExecutionResult,
    ProcessFactory,
    RunSummary,
    make_processes,
    run_agreement,
    run_execution,
)
from repro.sim.topology import CompleteTopology, DirectedTopology, Topology
from repro.sim.trace import RoundRecord, Trace

__all__ = [
    "Adversary",
    "AdversaryView",
    "AlwaysBoundedUnknownDelays",
    "BasicPsync",
    "ComposedTiming",
    "DelayBased",
    "DelayPolicy",
    "EventuallyBoundedDelays",
    "ExecutionKernel",
    "LockStep",
    "TimingModel",
    "equivalent_basic_gst",
    "CompleteTopology",
    "DirectedTopology",
    "DropSchedule",
    "EchoProcess",
    "Emission",
    "ExecutionResult",
    "ExplicitDrops",
    "Metrics",
    "NoDrops",
    "NullAdversary",
    "PartitionSchedule",
    "PredicateDrops",
    "Process",
    "ProcessFactory",
    "RandomDrops",
    "EngineCheckpoint",
    "RoundDeliveries",
    "RoundRecord",
    "RunSummary",
    "SilenceUntil",
    "Topology",
    "Trace",
    "make_processes",
    "metrics_from_deliveries",
    "normalize_emissions",
    "payload_size",
    "run_agreement",
    "run_execution",
]
