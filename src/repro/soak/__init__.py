"""The agreement soak farm: sustained adversarial traffic on the kernel.

Where the campaign engine sweeps a *lattice* (every parameter cell once,
exhaustively) and the atlas streams its evidence, the soak farm runs a
*mixture*: an endless deterministic stream of agreement instances drawn
from a weighted profile of system-parameter cells, adversary behaviours
(clones, mirrors, ghost faces, chaos, crashes) and timing policies, all
batched onto :class:`~repro.sim.kernel.ExecutionKernel` instances and
interleaved by :func:`~repro.sim.kernel.run_batch`.

The stream is a pure function of ``(profile, farm_seed, index)``:

* :func:`~repro.soak.mixture.sample_instance` gives instance ``i``'s
  full spec (cell, assignment, Byzantine set, inputs, adversary,
  timing) with a per-instance seed derived via ``stable_seed``, so any
  instance is replayable in isolation with
  :func:`~repro.soak.mixture.run_instance`;
* :func:`~repro.soak.units.run_soak_window` executes a window of the
  stream on batched kernels; its spec
  :class:`~repro.soak.units.SoakWindow` is the pipeline unit;
* :func:`~repro.soak.driver.run_soak` drives windows through the
  campaign pool to an instance/duration budget, streaming metrics into
  a torn-line-safe JSONL log with checkpointed cumulative counters and
  byte-identical kill/resume.

CLI entry point: ``python -m repro soak`` (``--quick`` for the standard
10k-instance smoke budget).
"""

from repro.soak.driver import (
    SoakOutcome,
    checkpoint_id,
    expected_row_ids,
    run_soak,
    stream_rows,
    window_plan,
)
from repro.soak.mixture import (
    PROFILES,
    SOAK_SCHEMA,
    InstanceSpec,
    SoakCell,
    SoakProfile,
    build_instance,
    get_profile,
    run_instance,
    sample_instance,
)
from repro.soak.units import SoakWindow, run_soak_window

__all__ = [
    "PROFILES",
    "SOAK_SCHEMA",
    "InstanceSpec",
    "SoakCell",
    "SoakOutcome",
    "SoakProfile",
    "SoakWindow",
    "build_instance",
    "checkpoint_id",
    "expected_row_ids",
    "get_profile",
    "run_instance",
    "run_soak",
    "run_soak_window",
    "sample_instance",
    "stream_rows",
    "window_plan",
]
