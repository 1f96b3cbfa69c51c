"""The solvability atlas: Table 1 as a fused, provenance-carrying sweep.

The repo holds three independent kinds of evidence about every point of
the paper's parameter space: the closed-form predicates of
:mod:`repro.analysis.bounds`, empirical campaign verdicts
(:mod:`repro.experiments`), and the bounded strategy explorer's
witnesses and certificates (:mod:`repro.explore`).  The atlas sweeps
the ``(n, t, ell)`` x model lattice and, for every cell, *fuses* all
three into one provenance-annotated verdict:

* ``proved-solvable`` -- Table 1 says solvable and the cell's workload
  battery (basic and, for partially synchronous cells, delay-based
  timing) ran clean;
* ``witnessed-unsolvable`` -- Table 1 says unsolvable and a concrete
  machine-checked violation exists (an impossibility demonstration or
  a replayed explorer witness);
* ``consistent`` -- evidence is present and nothing contradicts the
  closed form, but nothing decisive either (e.g. only a bounded
  certificate);
* ``CONFLICT`` -- decisive evidence contradicts the closed form; a
  hard error (:class:`~repro.core.errors.AtlasConflict`) by default.

Results stream through an append-only, resumable JSONL log
(:mod:`repro.atlas.stream`) so lattices of thousands of cells run
memory-bounded, and render as the paper's Table 1 plus per-``(n, t)``
boundary maps (:mod:`repro.atlas.render`).  Entry points: the
``python -m repro atlas`` subcommand and :func:`~repro.atlas.driver.
run_atlas`; cells execute as ``kind="atlas"`` campaign units sharing
the campaign engine's worker pool and content-hash cache.

At lattice scale the atlas distributes: ``run_atlas(...,
shard=(index, count))`` stripes cells across machines into per-shard
logs, :func:`~repro.atlas.merge.merge_shards` fuses them back into the
canonical ``atlas.jsonl`` byte-identically, renders re-fold only
appended rows via a persisted cursor
(:func:`~repro.atlas.render.aggregate_incremental`), and
:mod:`repro.atlas.service` serves the fused dataset as a stdlib-only
JSON query API (``python -m repro atlas serve``).
"""

from repro.atlas.driver import AtlasOutcome, run_atlas
from repro.atlas.evidence import (
    CONFLICT,
    CONSISTENT,
    PROVED_SOLVABLE,
    WITNESSED_UNSOLVABLE,
    AtlasUnit,
    budget_skipped_evidence,
    closed_form_evidence,
    fuse_evidence,
    known_violation_fixture,
    run_atlas_unit,
)
from repro.atlas.lattice import (
    AtlasCell,
    LatticeSpec,
    default_lattice,
    quick_lattice,
)
from repro.atlas.merge import MergeOutcome, merge_shards
from repro.atlas.render import (
    AtlasAggregates,
    aggregate,
    aggregate_incremental,
    render_json,
    render_markdown,
)
from repro.atlas.service import AtlasIndex, AtlasServer, serve_atlas
from repro.atlas.stream import AtlasLog

__all__ = [
    "AtlasAggregates",
    "AtlasCell",
    "AtlasIndex",
    "AtlasLog",
    "AtlasOutcome",
    "AtlasServer",
    "AtlasUnit",
    "CONFLICT",
    "CONSISTENT",
    "LatticeSpec",
    "MergeOutcome",
    "PROVED_SOLVABLE",
    "WITNESSED_UNSOLVABLE",
    "aggregate",
    "aggregate_incremental",
    "budget_skipped_evidence",
    "closed_form_evidence",
    "default_lattice",
    "fuse_evidence",
    "known_violation_fixture",
    "merge_shards",
    "quick_lattice",
    "render_json",
    "render_markdown",
    "run_atlas",
    "run_atlas_unit",
    "serve_atlas",
]
