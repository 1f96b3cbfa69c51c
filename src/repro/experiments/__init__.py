"""Experiment harness: workloads, per-cell validation, campaigns, reports.

Three layers:

* :mod:`repro.experiments.workloads` -- deterministic battery building
  blocks (inputs, assignments, Byzantine placements);
* :mod:`repro.experiments.harness` -- sequential validation of one
  Table 1 cell, sliced into picklable workload units;
* :mod:`repro.experiments.campaign` -- the parallel campaign engine:
  unit enumeration, worker-pool fan-out, disk cache, and the
  JSON/Markdown :class:`~repro.experiments.campaign.CampaignReport`.

:mod:`repro.experiments.report` renders harness results as text the way
the paper presents them.
"""

from repro.experiments.campaign import (
    CampaignCache,
    CampaignReport,
    UnitSpec,
    enumerate_units,
    execute_unit,
    run_campaign,
    shard_units,
    table1_cells,
)
from repro.experiments.harness import (
    CellResult,
    RunRecord,
    algorithm_for,
    drop_schedules,
    evaluate_cell,
    evaluate_solvable_cell,
    evaluate_unsolvable_cell,
    run_solvable_slice,
    solvable_slice_keys,
)
from repro.experiments.report import (
    cell_grid_report,
    failures_report,
    latency_series_report,
)
from repro.experiments.workloads import (
    alternating_inputs,
    assignment_battery,
    byzantine_batteries,
    byzantine_on_homonyms,
    byzantine_on_sole_owners,
    input_patterns,
    random_byzantine,
    random_inputs,
    unanimous_inputs,
)

__all__ = [
    "CampaignCache",
    "CampaignReport",
    "CellResult",
    "RunRecord",
    "UnitSpec",
    "algorithm_for",
    "alternating_inputs",
    "assignment_battery",
    "byzantine_batteries",
    "byzantine_on_homonyms",
    "byzantine_on_sole_owners",
    "cell_grid_report",
    "drop_schedules",
    "enumerate_units",
    "evaluate_cell",
    "evaluate_solvable_cell",
    "evaluate_unsolvable_cell",
    "execute_unit",
    "failures_report",
    "input_patterns",
    "latency_series_report",
    "random_byzantine",
    "random_inputs",
    "run_campaign",
    "run_solvable_slice",
    "shard_units",
    "solvable_slice_keys",
    "table1_cells",
    "unanimous_inputs",
]
