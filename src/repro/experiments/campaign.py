"""Campaign engine: shard the Table 1 battery across a worker pool.

The sequential harness (:mod:`repro.experiments.harness`) validates one
cell at a time in one process.  A *campaign* runs a whole battery of
cells -- by default the eight canonical Table 1 boundary cells -- as a
set of independent, serialisable work units:

* :class:`UnitSpec` is the base of the frozen unit specs: one type per
  kind of work, each holding only the fields that work reads, so it
  pickles, shards and caches by content hash.  The per-cell kinds live
  here -- :class:`SliceUnit` (one validation slice of a solvable cell:
  an assignment x Byzantine-placement pair), :class:`DelayUnit`,
  :class:`ExploreUnit` and :class:`DemonstrationUnit` (the whole
  impossibility demonstration of an unsolvable cell); the atlas and the
  soak farm define their own specs beside their drivers.
* :func:`enumerate_units` expands a cell list into the ordered unit
  grid; :func:`shard_units` selects a ``shard/of`` stripe of it for
  multi-machine splits.
* :func:`execute_unit` is the picklable worker entry point: it runs the
  spec's own work and wraps it into the plain-dict unit result.
* :func:`execute_units` is the one ordered pool loop of the package
  and :func:`run_units` the cache-aware pipeline on top of it: units
  stream in lazily, run inline or on one process pool, and come back
  in input order, with the unit cache serving hits and storing the
  rest.  Campaign, atlas and soak all run through it.
* :func:`run_campaign` feeds its units heaviest first through
  :func:`run_units`, so re-runs with ``resume`` only execute the
  delta, and folds everything into a :class:`CampaignReport` with JSON
  and Markdown emitters.

Determinism: unit results depend only on the unit spec, and the report
assembles them in enumeration order, so the same seed yields an
identical canonical report for any ``--workers`` count and for cached
vs fresh execution.  The records are byte-identical to the sequential
harness because both paths share the slice layer of
:mod:`repro.experiments.harness`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from concurrent import futures
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    Callable,
    ClassVar,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

import repro
from repro.analysis.bounds import solvable
from repro.core.canonical import canonical_json
from repro.core.errors import ConfigurationError
from repro.core.params import Synchrony, SystemParams
from repro.core.problem import BINARY, AgreementProblem
from repro.experiments.harness import (
    CellResult,
    RunRecord,
    algorithm_for,
    delay_slice_keys,
    evaluate_unsolvable_cell,
    run_delay_slice,
    run_solvable_slice,
    solvable_slice_keys,
)

#: Problems a unit spec may name (specs carry strings, not objects).
PROBLEMS: dict[str, AgreementProblem] = {"binary": BINARY}

#: Salt folded into every unit id.  Bump the schema component when the
#: shape *or semantics* of a unit result changes; the package version
#: component makes caches written by a different release miss rather
#: than serve results computed by different code.  ``campaign/7``:
#: run records carry the exact basic-model ``"losses"`` count next to
#: ``"rounds"``/``"messages"`` (delay slices and the soak farm's loss
#: accounting), so records written by the 6-key schema miss.
#: ``campaign/8``: ``atlas`` units of explorer cells no longer carry
#: the explorer item (their scope's ``explore-scope`` unit does), so a
#: cached pre-split result can never add a second explorer item to a row.
CACHE_SCHEMA = "campaign/8"

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS


def table1_cells() -> list[tuple[str, SystemParams]]:
    """The canonical campaign battery: both sides of every Table 1 boundary.

    Returns:
        ``(label, params)`` pairs -- one solvable and one unsolvable
        cell for each of the four model families of Table 1.
    """
    return [
        # -- synchronous, unrestricted (Theorem 3: ell > 3t) ------------
        ("sync solvable", SystemParams(n=5, ell=4, t=1)),
        ("sync unsolvable", SystemParams(n=5, ell=3, t=1)),
        # -- synchronous, restricted + innumerate (Theorem 19) ----------
        ("sync-restricted-innum solvable",
         SystemParams(n=5, ell=4, t=1, restricted=True)),
        ("sync-restricted-innum unsolvable",
         SystemParams(n=5, ell=3, t=1, restricted=True)),
        # -- partially synchronous, unrestricted (Theorem 13) -----------
        ("psync solvable", SystemParams(n=7, ell=6, t=1, synchrony=PSYNC)),
        ("psync unsolvable", SystemParams(n=9, ell=6, t=1, synchrony=PSYNC)),
        # -- restricted + numerate (Theorems 14/15: ell > t) ------------
        ("restricted-numerate solvable",
         SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                      numerate=True, restricted=True)),
        ("restricted-numerate unsolvable",
         SystemParams(n=4, ell=1, t=1, synchrony=PSYNC,
                      numerate=True, restricted=True)),
    ]


def delay_cells() -> list[tuple[str, SystemParams]]:
    """The delay-model campaign battery: the psync solvable cells.

    The delay-based formulations are the partially synchronous models,
    so the battery is :func:`table1_cells` restricted to its partially
    synchronous solvable members -- each validated over the kernel's
    :class:`~repro.sim.kernel.DelayBased` timing model instead of drop
    schedules.

    Returns:
        ``(label, params)`` pairs.
    """
    return [
        (label, params)
        for label, params in table1_cells()
        if params.synchrony is PSYNC and solvable(params)
    ]


# ----------------------------------------------------------------------
# Unit specs
# ----------------------------------------------------------------------
class UnitSpec:
    """Base of the frozen unit specs the pipeline runs.

    Each concrete spec is a frozen dataclass holding exactly the fields
    its own work reads, so it pickles, shards and caches by content
    hash.  ``kind`` names the work in results and ids; :meth:`run` does
    the work and returns its half of the unit result: ``algorithm`` and
    ``records``, plus ``demonstration``/``demonstration_kind`` and
    ``evidence`` where the work produces them.  :func:`execute_unit`
    wraps it into the full result dict.
    """

    kind: ClassVar[str]
    label: str

    @property
    def unit_id(self) -> str:
        """Content hash of the spec -- the cache key and dedup identity.

        The hash covers ``kind``, every field of the spec (a cell as
        its :meth:`SystemParams.describe
        <repro.core.params.SystemParams.describe>` line),
        :data:`CACHE_SCHEMA` and the package version, so a cache
        directory never serves results computed by a different release
        or result schema.  The hash input is
        :func:`repro.core.canonical.canonical_json` -- the same
        canonicalisation :meth:`ExecutionResult.brief
        <repro.sim.runner.ExecutionResult.brief>` orders decisions with
        -- so keys cannot drift across Python versions or hash seeds.
        """
        spec = {f.name: getattr(self, f.name) for f in fields(self)}
        if "params" in spec:  # a cell hashes as its one-line description
            spec["params"] = spec["params"].describe()
        payload = canonical_json(
            [CACHE_SCHEMA, repro.__version__, self.kind, spec]
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    def slice_key(self) -> tuple[int, int]:
        """The result's ``(assignment_index, byzantine_index)`` columns."""
        return -1, -1

    def describe(self) -> str:
        """One line naming the unit in progress lines and failure notes."""
        return f"{self.label} [{self.kind}]"

    def run(self) -> dict:
        """Do the unit's work; see the class docstring for the keys."""
        raise NotImplementedError


class CellUnit(UnitSpec):
    """A unit of work on one labelled Table 1 cell (``params``); the
    campaign report folds results back into cells by label."""

    params: SystemParams

    def weight(self) -> int:
        """Crude cost estimate used to schedule heavy units first."""
        return cell_weight(self.params)


def cell_weight(params: SystemParams) -> int:
    """Crude cost estimate of one run slice (or demonstration) of a
    cell: ``n**2``, eight times that under partial synchrony (twice for
    the restricted+numerate family, whose Figure 7 runs are lighter)."""
    weight = params.n * params.n
    if params.synchrony is PSYNC:
        weight *= 8 if not (params.restricted and params.numerate) else 2
    return weight


@dataclass(frozen=True)
class _CellSlice(CellUnit):
    """A cell unit naming one assignment x Byzantine-placement slice."""

    label: str
    params: SystemParams
    assignment_index: int
    byzantine_index: int
    quick: bool = True
    problem: str = "binary"

    def slice_key(self) -> tuple[int, int]:
        return self.assignment_index, self.byzantine_index

    def describe(self) -> str:
        return (
            f"{self.label} "
            f"[{self.kind} a{self.assignment_index}b{self.byzantine_index}]"
        )


@dataclass(frozen=True)
class SliceUnit(_CellSlice):
    """One validation workload slice of a solvable cell
    (:func:`repro.experiments.harness.run_solvable_slice`)."""

    kind = "slice"

    seed: int = 0

    def run(self) -> dict:
        problem = PROBLEMS[self.problem]
        algorithm, _, _ = algorithm_for(self.params, problem)
        records = run_solvable_slice(
            self.params, self.slice_key(), problem, self.seed, self.quick
        )
        return {
            "algorithm": algorithm,
            "records": [asdict(r) for r in records],
        }


@dataclass(frozen=True)
class DelayUnit(SliceUnit):
    """One delay-model workload slice of a partially synchronous
    solvable cell (:func:`repro.experiments.harness.run_delay_slice`)."""

    kind = "delay"

    def run(self) -> dict:
        problem = PROBLEMS[self.problem]
        algorithm, _, _ = algorithm_for(self.params, problem)
        records = run_delay_slice(
            self.params, self.slice_key(), problem, self.seed, self.quick
        )
        return {
            "algorithm": algorithm,
            "records": [asdict(r) for r in records],
        }

    def weight(self) -> int:
        # A delay slice runs the whole policy battery per pattern.
        return 3 * super().weight()


@dataclass(frozen=True)
class ExploreUnit(_CellSlice):
    """One bounded strategy-exploration slice of the tightness frontier
    (:func:`repro.explore.units.run_explore_unit`).  Exploration is
    deterministic, so the spec carries no seed."""

    kind = "explore"

    def run(self) -> dict:
        from repro.explore.units import run_explore_unit

        return run_explore_unit(
            self.params, self.assignment_index, self.byzantine_index,
            quick=self.quick, problem=PROBLEMS[self.problem],
        )

    def weight(self) -> int:
        # Per-round tree exploration (synchronous scopes) dwarfs the
        # persistent-face sweeps, and certificates dwarf violations.
        params = self.params
        return params.n ** 3 * (4 if params.synchrony is PSYNC else 40)


@dataclass(frozen=True)
class DemonstrationUnit(CellUnit):
    """The whole impossibility demonstration of one unsolvable cell
    (:func:`repro.experiments.harness.evaluate_unsolvable_cell`)."""

    kind = "demonstration"

    label: str
    params: SystemParams
    seed: int = 0
    problem: str = "binary"

    def run(self) -> dict:
        cell = evaluate_unsolvable_cell(
            self.params, PROBLEMS[self.problem], self.seed
        )
        return {
            "algorithm": cell.algorithm,
            "records": [asdict(r) for r in cell.runs],
            "demonstration": cell.demonstration,
            "demonstration_kind": cell.demonstration_kind,
        }


def require_unique_labels(cells: Sequence[tuple]) -> None:
    """Refuse a battery whose cell labels repeat (labels are the
    aggregation key)."""
    labels = [cell[0] for cell in cells]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate cell labels in {labels}")


def enumerate_units(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[CellUnit]:
    """Expand a cell battery into the ordered campaign unit grid.

    Solvable cells contribute one :class:`SliceUnit` per workload
    slice; unsolvable cells contribute a single
    :class:`DemonstrationUnit`.  The order is the sequential harness's
    order, which makes report assembly (and the determinism guarantee)
    a plain sort-free fold.

    Args:
        cells: ``(label, params)`` pairs; defaults to
            :func:`table1_cells`.
        seed: The battery seed shared by every unit.
        quick: Use the trimmed quick battery.
        problem: Name of the agreement problem.

    Returns:
        The ordered list of units.

    Raises:
        ConfigurationError: On duplicate cell labels (labels are the
            aggregation key).
    """
    if cells is None:
        cells = table1_cells()
    require_unique_labels(cells)
    units: list[CellUnit] = []
    for label, params in cells:
        if solvable(params):
            units.extend(
                SliceUnit(label, params, a_idx, b_idx, quick, problem, seed)
                for a_idx, b_idx in solvable_slice_keys(params, seed, quick)
            )
        else:
            units.append(DemonstrationUnit(label, params, seed, problem))
    return units


def enumerate_explore_units(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    quick: bool = True,
    problem: str = "binary",
) -> list[ExploreUnit]:
    """Expand a tightness-frontier battery into exploration units.

    One unit per (assignment, Byzantine placement) pair of each cell --
    the frontier sharding that lets the process pool (or ``--shard``
    stripes across machines) fan the bounded strategy exploration out.

    Args:
        cells: ``(label, params)`` pairs; defaults to
            :func:`repro.explore.units.explore_battery`.
        quick: Trim the placement battery.
        problem: Name of the agreement problem.

    Returns:
        The ordered unit list.

    Raises:
        ConfigurationError: On duplicate cell labels.
    """
    from repro.explore.units import explore_battery, explore_slice_keys

    if cells is None:
        cells = explore_battery()
    require_unique_labels(cells)
    return [
        ExploreUnit(label, params, a_idx, b_idx, quick, problem)
        for label, params in cells
        for a_idx, b_idx in explore_slice_keys(params, quick)
    ]


def enumerate_delay_units(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[DelayUnit]:
    """Expand a delay battery into delay-model workload units.

    One unit per (assignment, Byzantine placement) slice of each cell,
    exactly as :func:`enumerate_units` does for the validation battery
    -- the delay-policy dimension varies inside each unit.

    Args:
        cells: ``(label, params)`` pairs; defaults to
            :func:`delay_cells`.  Every cell must be partially
            synchronous and solvable.
        seed: The battery seed shared by every unit.
        quick: Use the trimmed quick battery.
        problem: Name of the agreement problem.

    Returns:
        The ordered unit list.

    Raises:
        ConfigurationError: On duplicate cell labels or a cell outside
            the delay-model family.
    """
    if cells is None:
        cells = delay_cells()
    require_unique_labels(cells)
    for label, params in cells:
        if params.synchrony is not PSYNC or not solvable(params):
            raise ConfigurationError(
                f"delay campaign cell {label!r} must be partially "
                f"synchronous and solvable, got {params.describe()}"
            )
    return [
        DelayUnit(label, params, a_idx, b_idx, quick, problem, seed)
        for label, params in cells
        for a_idx, b_idx in delay_slice_keys(params, seed, quick)
    ]


def enumerate_atlas_units(
    cells: Sequence[tuple[str, SystemParams, str]],
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list:
    """Forward to :func:`repro.atlas.evidence.enumerate_atlas_units`,
    keeping the name importable from the pipeline module."""
    from repro.atlas import evidence

    return evidence.enumerate_atlas_units(cells, seed, quick, problem)


_T = TypeVar("_T")


def shard_units(units: Sequence[_T], index: int, count: int) -> list[_T]:
    """Select stripe ``index`` of ``count`` from the unit grid.

    Striping by position keeps each shard a representative mix of cheap
    and expensive units; the ``count`` shards partition the grid.

    Args:
        units: The full unit list (enumeration order).
        index: Zero-based shard index, ``0 <= index < count``.
        count: Total number of shards.

    Returns:
        The units of this shard, in enumeration order.

    Raises:
        ConfigurationError: If ``index``/``count`` are out of range.
    """
    if count < 1 or not 0 <= index < count:
        raise ConfigurationError(
            f"bad shard {index}/{count}: need 0 <= index < count"
        )
    return [u for pos, u in enumerate(units) if pos % count == index]


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``INDEX/COUNT`` shard selector.

    The CLI-facing twin of :func:`shard_units`: both the campaign and
    the atlas ``--shard`` flags accept a zero-based stripe selector and
    validate it here, so a bad selector fails before any work starts.

    Args:
        text: A selector such as ``"0/3"``.

    Returns:
        The validated ``(index, count)`` pair,
        ``0 <= index < count``, ``count >= 1``.

    Raises:
        ConfigurationError: Malformed text or an out-of-range pair
            (e.g. ``"0/0"``, ``"3/2"``, ``"x/y"``).
    """
    index_part, sep, count_part = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_part), int(count_part)
    except ValueError:
        raise ConfigurationError(
            f"bad shard selector {text!r}: expected INDEX/COUNT, "
            f"e.g. 0/3"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ConfigurationError(
            f"bad shard {index}/{count}: need 0 <= index < count"
        )
    return index, count


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
def execute_unit(unit: UnitSpec) -> dict:
    """Execute one unit and return its plain-dict result.

    This is the function a pool worker runs on the pickled spec: the
    spec's :meth:`~UnitSpec.run` rebuilds its workload
    deterministically, and the result carries JSON-compatible data
    only.  The result dicts below are the cache schema that
    :data:`CACHE_SCHEMA` vouches for.

    Args:
        unit: The unit spec.

    Returns:
        A dict with ``unit_id``, ``label``, ``kind``,
        ``assignment_index``/``byzantine_index`` (the spec's
        :meth:`~UnitSpec.slice_key`), ``algorithm``, ``records`` (one
        per execution: label/ok/detail/rounds/messages/losses),
        ``demonstration``, ``demonstration_kind``, ``evidence`` when
        the work collects evidence, and ``elapsed_s``.
    """
    start = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    work = unit.run()
    assignment_index, byzantine_index = unit.slice_key()
    if "evidence" not in work:
        return {
            "unit_id": unit.unit_id,
            "label": unit.label,
            "kind": unit.kind,
            "assignment_index": assignment_index,
            "byzantine_index": byzantine_index,
            "algorithm": work["algorithm"],
            "demonstration": work.get("demonstration", ""),
            "demonstration_kind": work.get("demonstration_kind", ""),
            "records": work["records"],
            "elapsed_s": time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
        }
    return {
        "unit_id": unit.unit_id,
        "label": unit.label,
        "kind": unit.kind,
        "assignment_index": assignment_index,
        "byzantine_index": byzantine_index,
        "algorithm": work["algorithm"],
        "demonstration": work.get("demonstration", ""),
        "demonstration_kind": work.get("demonstration_kind", ""),
        "records": work["records"],
        "evidence": work["evidence"],
        "elapsed_s": time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
    }


def in_flight_bound(workers: int) -> int:
    """How far :func:`execute_units` reads ahead of its delivery frontier.

    Counts units running or queued on the pool plus finished results
    waiting for their delivery turn.  Inline runs hold one unit; a pool
    gets enough slack that a slow unit at the frontier does not idle
    the other workers at once, while memory stays O(workers), never
    O(units).
    """
    return 1 if workers <= 1 else max(16, 4 * workers)


@contextmanager
def _blame(unit: UnitSpec) -> Iterator[None]:
    """Attach ``unit``'s ``describe()`` and id to an escaping exception."""
    try:
        yield
    except Exception as exc:
        exc.add_note(
            f"while executing campaign unit {unit.describe()} "
            f"({unit.unit_id})"
        )
        raise


def _split(
    item: UnitSpec | tuple[UnitSpec, object],
) -> tuple[UnitSpec, dict | None, CampaignCache | None]:
    """A pending item as ``(unit, finished result, cache to fill)``."""
    if not isinstance(item, tuple):
        return item, None, None
    unit, extra = item
    if isinstance(extra, CampaignCache):
        return unit, None, extra
    return unit, extra, None


def execute_units(
    pending: Iterable[UnitSpec | tuple[UnitSpec, object]],
    workers: int,
    finish: Callable[[UnitSpec, dict], None],
) -> None:
    """Execute units inline or on one process pool, delivering in order.

    The one pool loop behind every driver (:func:`run_units` adds the
    unit cache on top).  ``pending`` is read lazily -- it may be an
    unbounded generator -- and never more than
    :func:`in_flight_bound` items past the last delivered one.  Each
    item is a unit to execute or a ``(unit, extra)`` pair, where
    ``extra`` is the unit's already-finished result (a cache hit, which
    only takes its turn in the delivery order), a :class:`CampaignCache`
    to store the result in as soon as the unit completes -- before its
    delivery turn, so a failure elsewhere never loses it -- or ``None``.
    ``finish(unit, result)`` runs in this process, in the order the
    items were read.

    Failure contract, inline and pooled alike: the first unit that
    raises -- in a worker or inside ``finish`` -- aborts the run as
    soon as it fails, not when its delivery turn comes.  Queued units
    are cancelled, no further item is read, and the exception is
    re-raised with the unit's ``describe()`` and id attached as a note.

    Args:
        pending: Units (or pairs) in delivery order.
        workers: Pool size; ``<= 1`` runs inline in this process.
        finish: Callback ``(unit, result)``, called once per item in
            input order.
    """
    if workers <= 1:
        for item in pending:
            unit, result, cache = _split(item)
            with _blame(unit):
                if result is None:
                    result = execute_unit(unit)
                    if cache is not None:
                        cache.store(unit, result)
                finish(unit, result)
        return

    bound = in_flight_bound(workers)
    # [unit, future, cache still to fill] per item read, in input order.
    window: deque[list] = deque()

    def result_of(entry: list) -> dict:
        """The entry's result, stored in its cache the first time."""
        unit, future, cache = entry
        result = future.result()
        if cache is not None:
            cache.store(unit, result)
            entry[2] = None
        return result

    def settle(limit: int) -> None:
        """Store what completed, raise the first failure, then deliver
        the finished head of the window until ``limit`` items remain."""
        while True:
            failed = None
            for entry in window:
                if not entry[1].done():
                    continue
                if entry[1].exception() is not None:
                    failed = failed or entry
                else:
                    with _blame(entry[0]):
                        result_of(entry)
            if failed is not None:
                with _blame(failed[0]):
                    failed[1].result()
            while window and window[0][1].done():
                entry = window.popleft()
                with _blame(entry[0]):
                    finish(entry[0], result_of(entry))
            if len(window) <= limit:
                return
            futures.wait(
                [f for _, f, _ in window if not f.done()],
                return_when=futures.FIRST_COMPLETED,
            )

    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for item in pending:
                unit, result, cache = _split(item)
                if result is None:
                    future = pool.submit(execute_unit, unit)
                else:
                    future = futures.Future()
                    future.set_result(result)
                window.append([unit, future, cache])
                settle(bound - 1)
            settle(0)
        except BaseException:
            # Without this, the executor's __exit__ joins every
            # outstanding future, so one bad unit would make the run
            # hang until all unrelated queued units finish.
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_units(
    units: Iterable[UnitSpec],
    workers: int,
    finish: Callable[[UnitSpec, dict, bool], None],
    cache: CampaignCache | None = None,
    resume: bool = False,
) -> None:
    """The cache-aware unit pipeline behind campaign, atlas and soak.

    Reads ``units`` lazily and serves each from ``cache`` when
    ``resume`` is set and the cache holds it; the rest execute through
    :func:`execute_units` and are stored in ``cache`` (when given) as
    soon as each completes.  ``finish(unit, result, cached)`` is called
    in input order, ``cached`` telling a replayed result from an
    executed one.  Ordering, the read-ahead bound and the failure
    contract are those of :func:`execute_units`.

    Args:
        units: The units in delivery order (any iterable).
        workers: Pool size; ``<= 1`` runs inline in this process.
        finish: The driver's row function.
        cache: Optional unit cache.
        resume: Read the cache, so only missing units execute.
    """
    served: deque[bool] = deque()

    def feed() -> Iterator[tuple[UnitSpec, object]]:
        for unit in units:
            hit = cache.load(unit) if cache is not None and resume else None
            served.append(hit is not None)
            yield unit, cache if hit is None else hit

    execute_units(
        feed(), workers,
        lambda unit, result: finish(unit, result, served.popleft()),
    )


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
class CampaignCache:
    """One-JSON-file-per-unit result cache keyed by unit content hash.

    Because the key hashes the full unit spec (its kind and every
    field), a cache can be shared between campaigns: only
    identical work is reused, and re-runs execute just the delta.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path(self, unit: UnitSpec) -> Path:
        """Cache file for a unit."""
        return self.root / f"{unit.unit_id}.json"

    #: Keys every cached result must carry, and every record within it.
    _RESULT_KEYS = frozenset(
        ("unit_id", "label", "kind", "algorithm", "demonstration",
         "demonstration_kind", "records")
    )
    _RECORD_KEYS = frozenset(RunRecord.__dataclass_fields__)

    def load(self, unit: UnitSpec) -> dict | None:
        """Return the cached result for ``unit``, or ``None``.

        Corrupt, mismatched, or wrong-shaped files (e.g. written by a
        build with a different record schema) are treated as misses.
        """
        path = self.path(unit)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("unit_id") != unit.unit_id:
            return None
        if not self._RESULT_KEYS <= set(data):
            return None
        records = data["records"]
        if not isinstance(records, list) or any(
            not isinstance(r, dict) or set(r) != self._RECORD_KEYS
            for r in records
        ):
            return None
        return data

    def store(self, unit: UnitSpec, result: Mapping) -> None:
        """Persist a unit result atomically (write-then-rename).

        The tmp name is unique per process *and* per thread: concurrent
        writers of the same unit (two shards sharing a cache root, or a
        resumed run racing a still-draining one) must never share a tmp
        path, or one writer's rename publishes another's half-written
        file -- and the loser's ``replace`` then fails on a vanished
        source.  The payload is flushed and fsynced *before* the rename,
        so a crash between the two cannot persist a truncated entry
        under the final name; the rename itself stays the atomic commit
        point, and the last writer wins with a complete file.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(unit)
        tmp = path.with_name(
            f"{unit.unit_id}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            with tmp.open("w") as fh:
                fh.write(json.dumps(dict(result), sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(path)
        finally:
            # Only reachable with the tmp still on disk when the write
            # or rename failed; never leave orphans in the cache root.
            tmp.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign run.

    ``unit_results`` is in unit-enumeration order regardless of the
    completion order of the pool, which is what makes
    :meth:`canonical_dict` identical across worker counts.
    """

    cells: list[tuple[str, SystemParams]]
    seed: int
    quick: bool
    unit_results: list[dict] = field(default_factory=list)
    workers: int = 1
    executed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0

    # -- aggregation ---------------------------------------------------
    def _labelled_cell_results(self) -> list[tuple[str, CellResult]]:
        """``(label, CellResult)`` per cell with unit results, in order.

        The fold is memoised: a report is not mutated after
        :func:`run_campaign` builds it, and the emitters all lean on
        this result.
        """
        cached = self.__dict__.get("_labelled_cache")
        if cached is not None:
            return cached
        by_label: dict[str, list[dict]] = {}
        for result in self.unit_results:
            by_label.setdefault(result["label"], []).append(result)
        cells: list[tuple[str, CellResult]] = []
        for label, params in self.cells:
            results = by_label.get(label)
            if not results:
                continue
            cell = CellResult(
                params=params,
                predicted_solvable=solvable(params),
                algorithm=results[0]["algorithm"],
            )
            for result in results:
                cell.runs.extend(
                    RunRecord(**record) for record in result["records"]
                )
                if result["demonstration"]:
                    cell.demonstration = result["demonstration"]
                    cell.demonstration_kind = result["demonstration_kind"]
            cells.append((label, cell))
        self.__dict__["_labelled_cache"] = cells
        return cells

    def cell_results(self) -> list[CellResult]:
        """Fold unit results back into per-cell :class:`CellResult`.

        Returns:
            One :class:`CellResult` per campaign cell that has at least
            one unit result, in battery order -- directly comparable to
            (and, for a full unsharded run, equal in verdicts to) the
            sequential harness's output.
        """
        return [cell for _, cell in self._labelled_cell_results()]

    @property
    def all_consistent(self) -> bool:
        """True when every evaluated cell matches its prediction."""
        return all(c.empirically_consistent for c in self.cell_results())

    # -- emitters ------------------------------------------------------
    def to_dict(self, canonical: bool = False) -> dict:
        """Serialise the report.

        Args:
            canonical: Drop everything execution-dependent (worker
                count, cache hits, timings).  Two runs of the same
                campaign spec produce identical canonical dicts no
                matter how they were scheduled.

        Returns:
            A JSON-compatible dict with ``campaign``, ``cells``,
            ``units`` and ``summary`` sections (plus ``execution``
            unless canonical).
        """
        labelled = self._labelled_cell_results()
        cell_results = [cell for _, cell in labelled]
        cells = [
            {
                "label": label,
                "params": cell.params.describe(),
                "predicted": (
                    "solvable" if cell.predicted_solvable else "unsolvable"
                ),
                "algorithm": cell.algorithm,
                "runs": len(cell.runs),
                "failures": [
                    {"label": r.label, "detail": r.detail}
                    for r in cell.failures()
                ],
                "rounds_total": sum(r.rounds for r in cell.runs),
                "messages_total": sum(r.messages for r in cell.runs),
                "demonstration": cell.demonstration,
                "demonstration_kind": cell.demonstration_kind,
                "consistent": cell.empirically_consistent,
            }
            for label, cell in labelled
        ]
        units = []
        for result in self.unit_results:
            unit = {k: v for k, v in result.items() if k != "elapsed_s"}
            if not canonical:
                unit["elapsed_s"] = result.get("elapsed_s", 0.0)
            units.append(unit)
        data = {
            "campaign": {
                "seed": self.seed,
                "quick": self.quick,
                "cells": len(self.cells),
                "units": len(self.unit_results),
            },
            "cells": cells,
            "units": units,
            "summary": {
                "consistent_cells": sum(
                    1 for c in cell_results if c.empirically_consistent
                ),
                "evaluated_cells": len(cell_results),
                "total_runs": sum(len(c.runs) for c in cell_results),
                "failures": sum(len(c.failures()) for c in cell_results),
                "all_consistent": all(
                    c.empirically_consistent for c in cell_results
                ),
            },
        }
        if not canonical:
            data["execution"] = {
                "workers": self.workers,
                "executed": self.executed,
                "cached": self.cached,
                "elapsed_s": self.elapsed_s,
            }
        return data

    def canonical_dict(self) -> dict:
        """Shorthand for ``to_dict(canonical=True)``."""
        return self.to_dict(canonical=True)

    def to_json(self, canonical: bool = False, indent: int = 2) -> str:
        """Serialise :meth:`to_dict` as JSON text.

        Args:
            canonical: See :meth:`to_dict`.
            indent: JSON indentation.

        Returns:
            The JSON document.
        """
        return json.dumps(self.to_dict(canonical=canonical), indent=indent,
                          sort_keys=True)

    def to_markdown(self) -> str:
        """Render the report as a Markdown document."""
        labelled = self._labelled_cell_results()
        cell_results = [cell for _, cell in labelled]
        lines = [
            "# Campaign report",
            "",
            f"- battery: {'quick' if self.quick else 'full'}, "
            f"seed {self.seed}",
            f"- units: {len(self.unit_results)} "
            f"({self.executed} executed, {self.cached} from cache) "
            f"on {self.workers} worker(s) in {self.elapsed_s:.2f}s",
            "",
            "| cell | params | predicted | algorithm | runs | consistent |",
            "|---|---|---|---|---:|---|",
        ]
        for label, cell in labelled:
            lines.append(
                f"| {label} | `{cell.params.describe()}` "
                f"| {'solvable' if cell.predicted_solvable else 'unsolvable'} "
                f"| {cell.algorithm} | {len(cell.runs)} "
                f"| {'yes' if cell.empirically_consistent else '**NO**'} |"
            )
        failures = [
            (cell, record)
            for cell in cell_results for record in cell.failures()
        ]
        if failures:
            lines += ["", "## Failures", ""]
            lines += [
                f"- `{cell.params.describe()}` {record.label}: "
                f"{record.detail}"
                for cell, record in failures
            ]
        demos = [c for c in cell_results
                 if not c.predicted_solvable and c.demonstration]
        if demos:
            lines += ["", "## Impossibility demonstrations", ""]
            lines += [
                f"- `{cell.params.describe()}`: {cell.demonstration}"
                for cell in demos
            ]
        consistent = sum(1 for c in cell_results if c.empirically_consistent)
        lines += [
            "",
            f"**{consistent}/{len(cell_results)} cells consistent with "
            f"the paper.**",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_campaign(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    workers: int = 1,
    cache: CampaignCache | None = None,
    resume: bool = False,
    shard: tuple[int, int] | None = None,
    progress: Callable[[str], None] | None = None,
    unit_kind: str = "validate",
) -> CampaignReport:
    """Run a campaign and aggregate its report.

    Args:
        cells: ``(label, params)`` battery; defaults to
            :func:`table1_cells` (or the explore battery for
            ``unit_kind="explore"``).
        seed: The battery seed.
        quick: Use the trimmed quick battery.
        workers: Pool size; ``<= 1`` runs inline in this process.
        cache: Optional result cache; completed units are always stored
            when a cache is given.
        resume: Also *read* the cache, so only uncached units execute.
        shard: Optional ``(index, count)`` stripe of the unit grid.
        progress: Optional callback receiving one line per finished
            unit.
        unit_kind: ``"validate"`` runs the Table 1 validation battery;
            ``"explore"`` runs bounded strategy exploration over the
            tightness frontier; ``"delay"`` runs the delay-model
            workload family (kernel ``DelayBased`` timing) over the
            partially synchronous solvable cells.

    Returns:
        The aggregated :class:`CampaignReport`.

    Raises:
        ConfigurationError: On an unknown ``unit_kind``.
    """
    start = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    if unit_kind == "validate":
        cells = table1_cells() if cells is None else list(cells)
        units = enumerate_units(cells, seed=seed, quick=quick)
    elif unit_kind == "explore":
        from repro.explore.units import explore_battery

        cells = explore_battery() if cells is None else list(cells)
        units = enumerate_explore_units(cells, quick=quick)
    elif unit_kind == "delay":
        cells = delay_cells() if cells is None else list(cells)
        units = enumerate_delay_units(cells, seed=seed, quick=quick)
    else:
        raise ConfigurationError(f"unknown unit kind {unit_kind!r}")
    if shard is not None:
        units = shard_units(units, *shard)

    results: dict[str, dict] = {}
    cached = 0

    def finish(unit: CellUnit, result: dict, hit: bool) -> None:
        nonlocal cached
        results[unit.unit_id] = result
        if hit:
            cached += 1
            if progress:
                progress(f"cached   {unit.describe()}")
        elif progress:
            progress(
                f"executed {unit.describe()} "
                f"({result['elapsed_s']:.2f}s, "
                f"{len(result['records'])} runs)"
            )

    # Heavy units first: better makespan under LPT-style greedy
    # scheduling, identical results in any order.
    run_units(
        sorted(units, key=lambda unit: unit.weight(), reverse=True),
        workers, finish, cache, resume,
    )

    return CampaignReport(
        cells=cells,
        seed=seed,
        quick=quick,
        unit_results=[results[u.unit_id] for u in units],
        workers=max(1, workers),
        executed=len(units) - cached,
        cached=cached,
        elapsed_s=time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
    )
