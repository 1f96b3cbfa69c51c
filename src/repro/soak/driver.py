"""The soak farm driver: sustained agreement traffic with a streaming log.

One :func:`run_soak` call drives the deterministic instance stream of a
profile (:mod:`repro.soak.mixture`) window by window:

1. a generator yields one :class:`~repro.soak.units.SoakWindow` spec
   per window of ``window`` consecutive instances, executed on batched
   kernels through the shared unit pipeline
   (:func:`repro.experiments.campaign.run_units`): one process pool,
   the content-hash disk cache, and prompt cancel-on-first-failure;
2. the pipeline hands finished windows back **in stream order**, and
   the driver's row function appends one row per instance plus one
   *checkpoint row* per window carrying the cumulative
   verdict/latency/loss counters
   (:class:`~repro.sim.metrics.WindowAggregator`) to an append-only
   JSONL log (:class:`~repro.atlas.stream.AtlasLog`);
3. the farm stops at the ``instances`` budget, the ``duration``
   wall-clock budget (checked each time the generator yields the next
   window and each time a window is logged), or never (both ``None`` is
   refused -- pass an explicit budget).

Resume contract: every row is a deterministic function of
``(profile, seed, index)`` -- no wall-clock data is ever logged -- and
row ids are content hashes (:data:`~repro.soak.mixture.SOAK_SCHEMA`
salted), so ``resume=True`` keeps the longest valid prefix of an
existing log (torn final lines repaired, mid-window kills resumed
mid-window) and the finished log is **byte-identical** to an
uninterrupted run with the same seed and budget.  Throughput is
reported on the outcome only, never logged.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.atlas.stream import AtlasLog
from repro.core.canonical import canonical_json
from repro.core.errors import ConfigurationError, SimulationError
from repro.experiments.campaign import CampaignCache, run_units
from repro.sim.metrics import WindowAggregator
from repro.soak.mixture import SOAK_SCHEMA, get_profile, sample_instance
from repro.soak.units import SoakWindow


def checkpoint_id(
    profile: str, seed: int, window_index: int, end: int
) -> str:
    """Content hash of a checkpoint row's identity.

    Covers the window's position *and* the stream offset it closes at
    (``end``), so a short final window of a smaller budget never
    collides with the same-index full window of a larger one -- resume
    cuts the prefix at the divergence instead of mixing budgets.
    """
    payload = canonical_json(
        [SOAK_SCHEMA, "checkpoint", profile, seed, window_index, end]
    )
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def window_plan(
    instances: int, window: int
) -> list[tuple[int, int, int]]:
    """The ``(window_index, start, count)`` triples of a bounded farm."""
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return [
        (w, start, min(window, instances - start))
        for w, start in enumerate(range(0, instances, window))
    ]


def expected_row_ids(
    profile: str, seed: int, instances: int, window: int
) -> list[str]:
    """The full expected log-row id sequence of a bounded farm.

    Per window: one instance id per index, then the checkpoint id.
    This is what :meth:`~repro.atlas.stream.AtlasLog.resume_prefix`
    validates an existing log against.
    """
    ids: list[str] = []
    for w, start, count in window_plan(instances, window):
        for index in range(start, start + count):
            ids.append(sample_instance(profile, seed, index).instance_id)
        ids.append(checkpoint_id(profile, seed, w, start + count))
    return ids


class _BudgetSpent(Exception):
    """Raised by the row function to end a farm whose duration is spent."""


@dataclass
class SoakOutcome:
    """Aggregate outcome of one soak run.

    Per-instance rows live in the JSONL log; this object stays O(1) in
    the stream length.  ``instances`` and the verdict/cost counters are
    *cumulative over the log* (resumed rows included); ``elapsed_s``
    and :meth:`throughput` cover this call's wall clock only and are
    never written to the log.
    """

    profile: str
    seed: int
    window: int
    log_path: Path
    budget: int | None = None
    resumed_rows: int = 0
    written_rows: int = 0
    executed_windows: int = 0
    cached_windows: int = 0
    instances: int = 0
    ok: int = 0
    violations: int = 0
    rounds: int = 0
    messages: int = 0
    losses: int = 0
    executed_instances: int = 0
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when no instance violated agreement."""
        return self.violations == 0

    def throughput(self) -> float:
        """Executed instances per second of this call's wall clock."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.executed_instances / self.elapsed_s

    def summary(self) -> str:
        """One-paragraph human-readable tally."""
        return (
            f"soak[{self.profile}] seed={self.seed}: "
            f"{self.instances} instances "
            f"({self.resumed_rows} rows resumed, "
            f"{self.cached_windows} windows cached, "
            f"{self.executed_windows} executed) -- "
            f"{self.ok} ok, {self.violations} violations, "
            f"{self.losses} loss edges, "
            f"{self.rounds} rounds, {self.messages} messages; "
            f"{self.executed_instances} instances this call in "
            f"{self.elapsed_s:.2f}s ({self.throughput():.0f}/s)"
        )


def _instance_row(spec, record: Mapping) -> dict:
    """One deterministic log row for a finished instance."""
    if record["label"] != spec.describe():
        # The worker sampled a different spec for this index than the
        # driver -- sampling code drift between processes, never
        # tolerable in a content-addressed stream.
        raise SimulationError(
            f"soak instance {spec.index} label mismatch: worker ran "
            f"{record['label']!r}, driver expected {spec.describe()!r}"
        )
    return {
        "unit_id": spec.instance_id,
        "kind": "instance",
        "index": spec.index,
        "label": record["label"],
        "ok": record["ok"],
        "detail": record["detail"],
        "rounds": record["rounds"],
        "messages": record["messages"],
        "losses": record["losses"],
    }


def _covering_expected_ids(
    log: AtlasLog, profile: str, seed: int, window: int
) -> list[str]:
    """Expected ids covering every line of an unbounded farm's log.

    Duration-budget farms have no fixed instance count, so the expected
    sequence is generated just far enough to cover the file's existing
    lines (each window contributes ``window + 1`` rows).
    """
    if not log.path.exists():
        return []
    with log.path.open("rb") as fh:
        lines = sum(1 for _ in fh)
    windows = lines // (window + 1) + 1
    return expected_row_ids(profile, seed, windows * window, window)


def run_soak(
    profile: str,
    seed: int = 0,
    instances: int | None = None,
    duration: float | None = None,
    window: int = 250,
    workers: int = 1,
    cache: CampaignCache | None = None,
    resume: bool = False,
    log_path: str = "soak.jsonl",
    progress: Callable[[str], None] | None = None,
) -> SoakOutcome:
    """Run the farm to an instance and/or wall-clock budget.

    Args:
        profile: A :data:`~repro.soak.mixture.PROFILES` key.
        seed: The farm seed (fixes the whole instance stream).
        instances: Total instance budget; ``None`` for unbounded
            (requires ``duration``).
        duration: Wall-clock budget in seconds; checked before each
            new window is read and after each window is logged.  The
            farm stops at the first window logged past the budget:
            windows still queued are cancelled and only those already
            running (at most one per worker) are waited for, so the log
            holds at most one window past the budget.
        window: Instances per window (the checkpoint cadence and the
            pool's unit of work).
        workers: Pool size; ``<= 1`` executes windows inline.
        cache: Optional campaign unit cache; finished windows are
            always stored when given.
        resume: Keep the valid prefix of an existing log (and consult
            the unit cache), so only missing work executes.
        log_path: The streaming JSONL metrics log (truncated unless
            ``resume``).
        progress: Optional callback receiving one line per window.

    Returns:
        The :class:`SoakOutcome` (per-instance rows are in the log).

    Raises:
        ConfigurationError: No budget at all, or a bad window size.
        SimulationError: A worker's records diverge from the driver's
            sampled stream (sampling schema drift).
    """
    start_clock = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    get_profile(profile)
    if instances is None and duration is None:
        raise ConfigurationError(
            "a soak run needs a budget: pass instances=, duration=, or both"
        )
    if instances is not None and instances < 0:
        raise ConfigurationError(f"instances must be >= 0, got {instances}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")

    log = AtlasLog(log_path)
    outcome = SoakOutcome(
        profile=profile, seed=seed, window=window,
        log_path=log.path, budget=instances,
    )
    agg = WindowAggregator()
    completed_windows = 0
    skip_in_window = 0
    if resume:
        if instances is not None:
            expected = expected_row_ids(profile, seed, instances, window)
        else:
            expected = _covering_expected_ids(log, profile, seed, window)
        outcome.resumed_rows = log.resume_prefix(expected)
        for row in log.rows(limit=outcome.resumed_rows):
            if row.get("kind") == "checkpoint":
                completed_windows += 1
                skip_in_window = 0
            else:
                agg.add_record(row)
                skip_in_window += 1
    else:
        log.reset()

    def elapsed() -> float:
        return time.perf_counter() - start_clock  # reprolint: disable=RL002 -- diagnostic timing only

    def windows() -> Iterator[SoakWindow]:
        start = completed_windows * window
        while instances is None or start < instances:
            if duration is not None and elapsed() >= duration:
                return
            count = (
                window if instances is None
                else min(window, instances - start)
            )
            yield SoakWindow(profile, seed, start, count)
            start += count

    def finish(unit: SoakWindow, result: dict, cached: bool) -> None:
        nonlocal skip_in_window
        start, count = unit.start, unit.count
        w = start // window
        records = result["records"]
        if len(records) != count:
            raise SimulationError(
                f"soak window {w} returned {len(records)} records, "
                f"expected {count}"
            )
        rows = []
        for offset, record in enumerate(records):
            if offset < skip_in_window:
                continue  # already on disk from the resumed prefix
            spec = sample_instance(profile, seed, start + offset)
            rows.append(_instance_row(spec, record))
            agg.add_record(record)
        rows.append(
            {
                "unit_id": checkpoint_id(profile, seed, w, start + count),
                "kind": "checkpoint",
                "window": w,
                **agg.snapshot(),
            }
        )
        log.append_many(rows)
        outcome.written_rows += len(rows)
        skip_in_window = 0
        if cached:
            outcome.cached_windows += 1
        else:
            outcome.executed_windows += 1
            outcome.executed_instances += count
        if progress:
            progress(
                f"window {w}: +{count} instances "
                f"(cum {agg.instances}, {agg.violations} violations)"
            )
        if duration is not None and elapsed() >= duration:
            raise _BudgetSpent

    try:
        run_units(windows(), workers, finish, cache, resume)
    except _BudgetSpent:
        pass  # the windows read ahead of the log are cancelled
    finally:
        outcome.elapsed_s = elapsed()
        outcome.instances = agg.instances
        outcome.ok = agg.ok
        outcome.violations = agg.violations
        outcome.rounds = agg.rounds
        outcome.messages = agg.messages
        outcome.losses = agg.losses
    return outcome


def stream_rows(log_path: str) -> Iterator[dict]:
    """Stream a soak log's rows (instances and checkpoints).

    Thin reader over :meth:`~repro.atlas.stream.AtlasLog.rows`, so the
    torn-final-line tolerance and the mid-file
    :class:`~repro.core.errors.AtlasLogCorrupt` contract apply.
    """
    yield from AtlasLog(log_path).rows()
