"""Campaign engine: determinism, caching, sharding, harness equality.

The engine's contract is that scheduling is invisible: the same seed
produces the same canonical report whether units run inline, across a
worker pool of any size, or half from the disk cache.  These tests pin
that contract on a cheap four-cell battery (one solvable and one
unsolvable cell from two model families) so the whole file stays fast.
"""

import dataclasses
import json
import pickle

import pytest

from repro.atlas.evidence import AtlasUnit
from repro.atlas.lattice import PLANS
from repro.core.errors import ConfigurationError
from repro.core.params import SystemParams, Synchrony
from repro.experiments.campaign import (
    CACHE_SCHEMA,
    CampaignCache,
    DelayUnit,
    DemonstrationUnit,
    ExploreUnit,
    SliceUnit,
    delay_cells,
    enumerate_atlas_units,
    enumerate_delay_units,
    enumerate_explore_units,
    enumerate_units,
    execute_unit,
    execute_units,
    in_flight_bound,
    run_campaign,
    run_units,
    shard_units,
    table1_cells,
)
from repro.experiments.harness import (
    delay_slice_keys,
    evaluate_cell,
    run_delay_slice,
    solvable_slice_keys,
)
from repro.soak.driver import run_soak, window_plan
from repro.soak.units import SoakWindow

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS

#: A cheap battery: seconds, not minutes (no heavy psync-unrestricted cells).
CHEAP_CELLS = [
    ("sync solvable", SystemParams(n=5, ell=4, t=1)),
    ("sync unsolvable", SystemParams(n=5, ell=3, t=1)),
    ("restricted-numerate solvable",
     SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                  numerate=True, restricted=True)),
    ("restricted-numerate unsolvable",
     SystemParams(n=4, ell=1, t=1, synchrony=PSYNC,
                  numerate=True, restricted=True)),
]


class TestUnitEnumeration:
    def test_solvable_cells_expand_to_their_slices(self):
        units = enumerate_units(CHEAP_CELLS, seed=0, quick=True)
        for label, params in CHEAP_CELLS:
            cell_units = [u for u in units if u.label == label]
            if label.endswith("unsolvable"):
                assert [u.kind for u in cell_units] == ["demonstration"]
            else:
                keys = solvable_slice_keys(params, seed=0, quick=True)
                assert [
                    (u.assignment_index, u.byzantine_index)
                    for u in cell_units
                ] == keys
                assert all(u.kind == "slice" for u in cell_units)

    def test_unit_ids_unique_and_content_addressed(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        ids = [u.unit_id for u in units]
        assert len(set(ids)) == len(ids)
        # Same spec -> same id; different seed -> different id.
        rebuilt = enumerate_units(CHEAP_CELLS, quick=True)
        assert [u.unit_id for u in rebuilt] == ids
        reseeded = enumerate_units(CHEAP_CELLS, seed=1, quick=True)
        assert set(u.unit_id for u in reseeded).isdisjoint(ids)

    def test_unit_roundtrips_through_pickle(self):
        for unit in enumerate_units(CHEAP_CELLS, quick=True):
            clone = pickle.loads(pickle.dumps(unit))
            assert clone == unit
            assert clone.unit_id == unit.unit_id
            assert clone.params == unit.params

    def test_duplicate_labels_rejected(self):
        cells = [CHEAP_CELLS[0], CHEAP_CELLS[0]]
        with pytest.raises(ConfigurationError):
            enumerate_units(cells)

    @pytest.mark.parametrize("enumerate_cells", [
        lambda cells: enumerate_units(cells),
        lambda cells: enumerate_explore_units(cells),
        lambda cells: enumerate_delay_units(cells),
        lambda cells: enumerate_atlas_units(
            [(label, params, "campaign") for label, params in cells]
        ),
    ], ids=["validation", "explore", "delay", "atlas"])
    def test_every_enumerator_rejects_duplicate_labels(self, enumerate_cells):
        cell = CHEAP_CELLS[2]  # psync solvable: valid for every enumerator
        with pytest.raises(ConfigurationError, match="duplicate cell labels"):
            enumerate_cells([cell, cell])

    def test_default_battery_is_table1(self):
        units = enumerate_units(quick=True)
        assert {u.label for u in units} == {l for l, _ in table1_cells()}


class TestSharding:
    def test_shards_partition_the_grid(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        shards = [shard_units(units, i, 3) for i in range(3)]
        all_ids = [u.unit_id for shard in shards for u in shard]
        assert sorted(all_ids) == sorted(u.unit_id for u in units)
        assert len(set(all_ids)) == len(all_ids)

    def test_any_sequence_stripes_by_position(self):
        positions = range(10)
        assert [shard_units(positions, i, 3) for i in range(3)] == [
            [0, 3, 6, 9], [1, 4, 7], [2, 5, 8],
        ]

    def test_bad_shard_rejected(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        with pytest.raises(ConfigurationError):
            shard_units(units, 3, 3)
        with pytest.raises(ConfigurationError):
            shard_units(units, 0, 0)


#: The cheap delay battery: the restricted-numerate psync solvable cell
#: only (the n=7 DLS cell is the expensive one).
CHEAP_DELAY_CELLS = [
    ("restricted-numerate solvable",
     SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                  numerate=True, restricted=True)),
]


class TestDelayUnits:
    def test_cache_schema_is_campaign_7(self):
        assert CACHE_SCHEMA == "campaign/7"

    def test_delay_cells_are_the_psync_solvable_cells(self):
        labels = {label for label, _ in delay_cells()}
        assert labels == {"psync solvable", "restricted-numerate solvable"}

    def test_delay_units_share_the_slice_grid(self):
        units = enumerate_delay_units(CHEAP_DELAY_CELLS, seed=0, quick=True)
        keys = delay_slice_keys(CHEAP_DELAY_CELLS[0][1], seed=0, quick=True)
        assert [(u.assignment_index, u.byzantine_index) for u in units] == keys
        assert all(u.kind == "delay" for u in units)

    def test_non_psync_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_delay_units(
                [("sync", SystemParams(n=5, ell=4, t=1))]
            )
        with pytest.raises(ConfigurationError):
            run_delay_slice(SystemParams(n=5, ell=4, t=1), (0, 0))

    def test_execute_unit_matches_direct_slice(self):
        unit = enumerate_delay_units(CHEAP_DELAY_CELLS, quick=True)[0]
        result = execute_unit(unit)
        direct = run_delay_slice(
            CHEAP_DELAY_CELLS[0][1],
            (unit.assignment_index, unit.byzantine_index),
            seed=unit.seed, quick=unit.quick,
        )
        assert result["kind"] == "delay"
        assert [(r["label"], r["ok"], r["detail"])
                for r in result["records"]] == \
               [(r.label, r.ok, r.detail) for r in direct]

    def test_delay_campaign_caches_and_resumes(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        fresh = run_campaign(
            CHEAP_DELAY_CELLS, cache=cache, resume=True, unit_kind="delay",
        )
        assert fresh.cached == 0
        assert fresh.executed == len(fresh.unit_results)
        assert fresh.all_consistent
        resumed = run_campaign(
            CHEAP_DELAY_CELLS, cache=cache, resume=True, unit_kind="delay",
        )
        assert resumed.executed == 0
        assert resumed.cached == len(resumed.unit_results)
        assert fresh.canonical_dict() == resumed.canonical_dict()


class TestHarnessEquality:
    def test_campaign_records_match_sequential_harness(self):
        report = run_campaign(CHEAP_CELLS, workers=1)
        sequential = [evaluate_cell(p, quick=True) for _, p in CHEAP_CELLS]
        campaign = report.cell_results()
        assert len(campaign) == len(sequential)
        for seq, par in zip(sequential, campaign):
            assert par.params == seq.params
            assert par.algorithm == seq.algorithm
            assert par.demonstration == seq.demonstration
            assert [(r.label, r.ok, r.detail) for r in par.runs] == [
                (r.label, r.ok, r.detail) for r in seq.runs
            ]
        assert report.all_consistent


class TestDeterminism:
    def test_same_seed_same_report_for_any_worker_count(self):
        inline = run_campaign(CHEAP_CELLS, seed=3, workers=1)
        pooled = run_campaign(CHEAP_CELLS, seed=3, workers=2)
        assert inline.canonical_dict() == pooled.canonical_dict()
        assert inline.to_json(canonical=True) == pooled.to_json(
            canonical=True
        )

    def test_resume_from_cache_equals_fresh_run(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        fresh = run_campaign(CHEAP_CELLS, cache=cache, resume=True)
        assert fresh.executed == len(fresh.unit_results)
        assert fresh.cached == 0
        resumed = run_campaign(CHEAP_CELLS, cache=cache, resume=True)
        assert resumed.executed == 0
        assert resumed.cached == len(resumed.unit_results)
        assert fresh.canonical_dict() == resumed.canonical_dict()

    def test_partial_cache_executes_only_the_delta(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        units = enumerate_units(CHEAP_CELLS, quick=True)
        for unit in units[: len(units) // 2]:
            cache.store(unit, execute_unit(unit))
        report = run_campaign(CHEAP_CELLS, cache=cache, resume=True)
        assert report.cached == len(units) // 2
        assert report.executed == len(units) - len(units) // 2
        baseline = run_campaign(CHEAP_CELLS)
        assert report.canonical_dict() == baseline.canonical_dict()

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        unit = enumerate_units(CHEAP_CELLS, quick=True)[0]
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(unit).write_text("not json {")
        assert cache.load(unit) is None
        cache.path(unit).write_text(json.dumps({"unit_id": "wrong"}))
        assert cache.load(unit) is None


class TestReportEmitters:
    def test_json_report_shape(self):
        report = run_campaign(CHEAP_CELLS)
        data = json.loads(report.to_json())
        assert set(data) == {
            "campaign", "cells", "units", "summary", "execution",
        }
        assert data["summary"]["all_consistent"] is True
        assert data["summary"]["evaluated_cells"] == len(CHEAP_CELLS)
        assert {c["label"] for c in data["cells"]} == {
            l for l, _ in CHEAP_CELLS
        }
        canonical = json.loads(report.to_json(canonical=True))
        assert "execution" not in canonical
        assert all("elapsed_s" not in u for u in canonical["units"])

    def test_markdown_report_mentions_every_cell(self):
        report = run_campaign(CHEAP_CELLS)
        text = report.to_markdown()
        for label, _ in CHEAP_CELLS:
            assert label in text
        assert "cells consistent" in text
        assert "Impossibility demonstrations" in text

    def test_sharded_report_covers_only_its_cells(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        report = run_campaign(CHEAP_CELLS, shard=(0, len(units)))
        assert len(report.unit_results) == 1
        assert len(report.cell_results()) == 1


class TestCacheStoreDurability:
    """Regression: `CampaignCache.store` under concurrency and crashes.

    Pre-fix, every writer of a unit shared one tmp path
    (``<unit_id>.tmp``): two concurrent stores interleaved write and
    rename, so the loser's ``replace`` raised ``FileNotFoundError`` on
    the vanished tmp -- and nothing was fsynced, so a crash right after
    the rename could persist a truncated entry.
    """

    def _unit(self):
        return enumerate_units(CHEAP_CELLS, quick=True)[0]

    def test_concurrent_stores_of_one_unit_never_collide(self, tmp_path):
        import threading

        cache = CampaignCache(tmp_path)
        unit = self._unit()
        payloads = [
            dict(execute_unit(unit), writer=i, pad="x" * 2000)
            for i in range(8)
        ]
        errors = []

        def hammer(payload):
            try:
                for _ in range(100):
                    cache.store(unit, payload)
            except OSError as exc:  # pragma: no cover - the pre-fix bug
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Last writer wins with a *complete* file: whatever survived
        # must be one of the exact payloads, never an interleaving.
        final = json.loads(cache.path(unit).read_text())
        assert final in [
            json.loads(json.dumps(p, sort_keys=True)) for p in payloads
        ]
        # No orphaned tmp files left behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_store_fsyncs_before_publishing(self, tmp_path, monkeypatch):
        import os as os_module

        cache = CampaignCache(tmp_path)
        unit = self._unit()
        result = execute_unit(unit)
        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.experiments.campaign.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        cache.store(unit, result)
        assert synced, "store() published a result without fsyncing it"
        assert cache.load(unit) == json.loads(
            json.dumps(result, sort_keys=True)
        )

    def test_failed_write_leaves_no_tmp_and_no_entry(self, tmp_path):
        cache = CampaignCache(tmp_path)
        unit = self._unit()
        with pytest.raises(TypeError):
            cache.store(unit, {"unserialisable": object()})
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load(unit) is None


class TestPoolFailureContract:
    """Regression: one poisoned unit must abort the batch promptly.

    Pre-fix, a worker exception propagated only after the executor's
    ``__exit__`` joined *every* outstanding future, so one bad unit made
    the campaign hang until all unrelated heavy units finished -- and
    the exception said nothing about which unit raised it.
    """

    def _poison(self):
        # An unknown soak profile fails validation in the worker, in
        # milliseconds (the spec itself builds without complaint).
        return SoakWindow("no-such-profile", 0, 0, 10_000)

    def _heavies(self, count):
        # Real soak windows, a few hundred ms each.
        return _windows("quick", 0, 150 * count, 150)

    def test_inline_failure_attaches_unit_note(self):
        poison = self._poison()
        finished = []
        with pytest.raises(ConfigurationError) as err:
            execute_units(
                [poison, *self._heavies(1)], 1,
                lambda unit, result: finished.append(unit.unit_id),
            )
        assert any(poison.describe() in n for n in err.value.__notes__)
        assert any(poison.unit_id in n for n in err.value.__notes__)
        assert finished == []

    def test_pool_failure_cancels_queued_units(self):
        poison = self._poison()
        heavies = self._heavies(6)
        finished = []
        with pytest.raises(ConfigurationError) as err:
            execute_units(
                [heavies[0], poison, *heavies[1:]], 2,
                lambda unit, result: finished.append(unit.unit_id),
            )
        assert any(poison.describe() in n for n in err.value.__notes__)
        assert any(poison.unit_id in n for n in err.value.__notes__)
        # Scheduling follows caller order: the poison shares the first
        # pair of workers with heavies[0] and fails in milliseconds.  It
        # is raised as soon as it completes -- not when its delivery
        # turn comes after heavies[0] -- and the cancelled tail must
        # never reach ``finish``.
        assert finished == []

    def test_units_finished_behind_the_head_are_cached_before_a_failure(
        self, tmp_path
    ):
        # The heavy head is still running when the light units behind
        # it complete and the poison fails: results are stored as each
        # unit completes, not at its delivery turn, so a resume never
        # re-executes them.
        head = _windows("quick", 0, 450, 450)[0]
        light = _windows("quick", 1, 3, 1)
        poison = self._poison()
        cache = CampaignCache(tmp_path)
        finished = []
        with pytest.raises(ConfigurationError) as err:
            run_units(
                [head, *light, poison], 2,
                lambda unit, result, cached: finished.append(unit), cache,
            )
        assert any(poison.unit_id in n for n in err.value.__notes__)
        assert finished == []
        assert all(cache.load(u) is not None for u in light)
        assert cache.load(poison) is None

    def test_failure_inside_finish_names_the_unit_and_stops_reading(self):
        units = _windows("quick", 0, 40, 1)
        read = []

        def source():
            for unit in units:
                read.append(unit)
                yield unit

        def finish(unit, result):
            if unit == units[2]:
                raise ValueError("row function failed")

        for workers in (1, 2):
            read.clear()
            with pytest.raises(ValueError) as err:
                execute_units(source(), workers, finish)
            assert any(units[2].unit_id in n for n in err.value.__notes__)
            assert len(read) <= 3 + in_flight_bound(workers)


class TestOrderedPipeline:
    """The one pipeline behind campaign, atlas and soak."""

    def test_finish_runs_in_input_order_despite_completion_order(self):
        # A heavy window first, cheap ones after: on two workers the
        # cheap units complete long before the heavy one.
        heavy = _windows("quick", 0, 300, 300)
        light = _windows("quick", 1, 6, 1)
        units = [*heavy, *light]
        delivered = []
        execute_units(
            units, 2, lambda unit, result: delivered.append(unit),
        )
        assert delivered == units

    def test_bound_is_one_inline_and_grows_with_the_pool(self):
        assert in_flight_bound(0) == in_flight_bound(1) == 1
        assert in_flight_bound(2) == 16
        assert in_flight_bound(8) == 32

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reads_at_most_the_bound_past_delivery(self, workers):
        units = _windows("quick", 0, 40, 1)
        bound = in_flight_bound(workers)
        assert len(units) > bound
        read = []
        delivered = []

        def source():
            for unit in units:
                read.append(unit)
                yield unit

        def finish(unit, result):
            assert len(read) <= len(delivered) + bound
            delivered.append(unit)

        execute_units(source(), workers, finish)
        assert delivered == units

    def test_bound_holds_on_an_unbounded_generator(self):
        read = []

        def endless():
            start = 0
            while True:
                read.append(start)
                yield SoakWindow("quick", 0, start, 1)
                start += 1

        delivered = []

        def finish(unit, result):
            delivered.append(unit)
            if len(delivered) == 5:
                raise RuntimeError("enough")

        with pytest.raises(RuntimeError):
            execute_units(endless(), 2, finish)
        assert len(read) <= 5 + in_flight_bound(2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cache_hits_interleave_in_order(self, tmp_path, workers):
        units = _windows("quick", 0, 8, 1)
        cache = CampaignCache(tmp_path)
        for unit in units[::2]:
            cache.store(unit, execute_unit(unit))
        delivered = []
        run_units(
            units, workers,
            lambda unit, result, cached: delivered.append((unit, cached)),
            cache, resume=True,
        )
        assert [u for u, _ in delivered] == units
        assert [cached for _, cached in delivered] == [True, False] * 4
        assert all(cache.load(u) is not None for u in units)


def _windows(profile, seed, instances, window):
    """The window specs of a bounded farm, as :func:`run_soak` plans them."""
    return [
        SoakWindow(profile, seed, start, count)
        for _, start, count in window_plan(instances, window)
    ]


class TestSoakUnits:
    def test_budget_expands_to_windows_with_a_short_tail(self):
        assert window_plan(250, 100) == [
            (0, 0, 100), (1, 100, 100), (2, 200, 50),
        ]
        units = _windows("quick", 5, 250, 100)
        assert [(u.start, u.count) for u in units] \
            == [(0, 100), (100, 100), (200, 50)]
        assert all(u.kind == "soak" for u in units)
        assert all(u.profile == "quick" for u in units)
        assert all(u.seed == 5 for u in units)
        assert len({u.unit_id for u in units}) == len(units)

    def test_run_soak_caches_exactly_the_planned_windows(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        run_soak(
            "quick", seed=5, instances=25, window=10, cache=cache,
            log_path=str(tmp_path / "soak.jsonl"),
        )
        planned = _windows("quick", 5, 25, 10)
        assert all(cache.load(u) is not None for u in planned)
        assert sorted(p.name for p in cache.root.iterdir()) \
            == sorted(cache.path(u).name for u in planned)

    def test_profile_seed_and_schema_separate_cache_keys(self):
        base = SoakWindow("quick", 0, 0, 100)
        other_profile = SoakWindow("standard", 0, 0, 100)
        other_seed = SoakWindow("quick", 1, 0, 100)
        assert len({base.unit_id, other_profile.unit_id,
                    other_seed.unit_id}) == 3

    def test_describe_names_the_stream_slice(self):
        unit = _windows("quick", 0, 250, 100)[1]
        assert "quick" in unit.describe()
        assert "100" in unit.describe()

    def test_bad_budget_rejected(self, tmp_path):
        log = str(tmp_path / "soak.jsonl")
        with pytest.raises(ConfigurationError):
            window_plan(100, 0)
        with pytest.raises(ConfigurationError):
            run_soak("quick", instances=100, window=0, log_path=log)
        with pytest.raises(ConfigurationError):
            run_soak("quick", instances=-1, window=100, log_path=log)

    def test_execute_unit_runs_the_window(self):
        result = execute_unit(SoakWindow("quick", 0, 0, 8))
        assert result["kind"] == "soak"
        assert result["algorithm"] == "soak-mixture"
        assert (result["assignment_index"], result["byzantine_index"]) \
            == (0, 8)
        assert len(result["records"]) == 8
        assert all(r["ok"] for r in result["records"])


#: One spec of every unit kind.
SPECS = [
    SliceUnit("cell", SystemParams(n=5, ell=4, t=1), 0, 1),
    DelayUnit("cell", CHEAP_DELAY_CELLS[0][1], 0, 1),
    ExploreUnit("cell", SystemParams(n=3, ell=3, t=1), 0, 1),
    DemonstrationUnit("cell", SystemParams(n=5, ell=3, t=1)),
    AtlasUnit("cell", SystemParams(n=4, ell=4, t=1), "campaign"),
    SoakWindow("quick", 0, 0, 8),
]


def _other(name, value):
    """A different valid value for one spec field."""
    if name == "plan":
        return next(plan for plan in PLANS if plan != value)
    if isinstance(value, SystemParams):
        return dataclasses.replace(value, t=value.t + 1)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "-other"


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
class TestUnitSpecs:
    def test_pickle_round_trip_keeps_the_id(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert type(clone) is type(spec)
        assert clone.unit_id == spec.unit_id

    def test_every_field_changes_the_id(self, spec):
        ids = {spec.unit_id}
        for spec_field in dataclasses.fields(spec):
            value = getattr(spec, spec_field.name)
            ids.add(dataclasses.replace(
                spec, **{spec_field.name: _other(spec_field.name, value)}
            ).unit_id)
        assert len(ids) == 1 + len(dataclasses.fields(spec))
