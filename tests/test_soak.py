"""The soak farm: deterministic mixtures, batch equivalence, resume.

The farm's three contracts, pinned here:

* **determinism** -- the instance stream is a pure function of
  ``(profile, seed, index)``: the same spec, the same per-instance
  seed, the same content-addressed ids, on every call and machine.
* **replay** -- any instance executed inside a batched window is
  bit-identical to a solo :func:`~repro.soak.mixture.run_instance`
  replay of just that index; kernels share no state.
* **kill/resume** -- a run killed anywhere (mid-window, mid-line)
  and resumed finishes with a metrics log byte-identical to an
  uninterrupted run of the same seed and budget.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError, SimulationError
from repro.experiments.campaign import CampaignCache
from repro.sim.metrics import WindowAggregator
from repro.soak import (
    PROFILES,
    checkpoint_id,
    expected_row_ids,
    get_profile,
    run_instance,
    run_soak,
    run_soak_window,
    sample_instance,
    stream_rows,
    window_plan,
)

PROFILE = "quick"
SEED = 42


def _digest(path):
    return hashlib.sha1(path.read_bytes()).hexdigest()


class TestMixture:
    def test_profiles_are_well_formed(self):
        assert "quick" in PROFILES and "standard" in PROFILES
        for name, profile in PROFILES.items():
            assert profile.name == name
            assert profile.cells, f"profile {name} has no cells"
            labels = [cell.label for cell in profile.cells]
            assert len(set(labels)) == len(labels)
            for cell in profile.cells:
                cell.params()  # must validate as a real system

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            get_profile("no-such-profile")

    def test_sampling_is_deterministic(self):
        a = [sample_instance(PROFILE, SEED, i) for i in range(40)]
        b = [sample_instance(PROFILE, SEED, i) for i in range(40)]
        assert a == b
        assert [s.instance_id for s in a] == [s.instance_id for s in b]

    def test_instance_ids_are_unique_across_the_stream(self):
        ids = {sample_instance(PROFILE, SEED, i).instance_id
               for i in range(200)}
        assert len(ids) == 200

    def test_seed_and_profile_move_the_stream(self):
        base = sample_instance(PROFILE, SEED, 3)
        assert sample_instance(PROFILE, SEED + 1, 3) != base
        assert sample_instance("standard", SEED, 3).instance_id \
            != base.instance_id

    def test_mixture_covers_every_adversary_and_timing_kind(self):
        specs = [sample_instance(PROFILE, SEED, i) for i in range(600)]
        kinds = {s.adversary for s in specs}
        timings = {s.timing for s in specs}
        cells = {s.cell for s in specs}
        assert {"silent", "crash", "flip", "equivocator", "chaos",
                "clone-chaos", "mirror", "ghost-imposter",
                "ghost-partition"} <= kinds
        assert {"none", "silence-gst", "drops", "punctual",
                "eventual"} <= timings
        assert cells == {c.label for c in get_profile(PROFILE).cells}

    def test_every_sampled_instance_satisfies_agreement(self):
        # Every cell in every profile is predicted solvable; no
        # adversary/timing draw may break agreement.
        for i in range(60):
            record = run_instance(sample_instance(PROFILE, SEED, i))
            assert record["ok"], (
                f"instance {i} violated agreement: {record}"
            )

    def test_restricted_cells_never_draw_unrestricted_faces(self):
        for i in range(400):
            spec = sample_instance(PROFILE, SEED, i)
            if spec.restricted:
                assert spec.adversary != "duplicator"


class TestWindowExecution:
    def test_window_records_equal_solo_replays(self):
        records = run_soak_window(PROFILE, SEED, 10, 30)
        solo = [run_instance(sample_instance(PROFILE, SEED, i))
                for i in range(10, 40)]
        assert [
            {"label": r.label, "ok": r.ok, "detail": r.detail,
             "rounds": r.rounds, "messages": r.messages,
             "losses": r.losses}
            for r in records
        ] == solo

    def test_batch_size_does_not_change_records(self):
        wide = run_soak_window(PROFILE, SEED, 0, 20, batch=32)
        narrow = run_soak_window(PROFILE, SEED, 0, 20, batch=1)
        assert wide == narrow

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            run_soak_window(PROFILE, SEED, 0, 0)
        with pytest.raises(ConfigurationError):
            run_soak_window(PROFILE, SEED, -1, 5)
        with pytest.raises(ConfigurationError):
            run_soak_window("no-such-profile", SEED, 0, 5)


class TestStreamPlan:
    def test_window_plan_partitions_the_budget(self):
        plan = window_plan(250, 100)
        assert plan == [(0, 0, 100), (1, 100, 100), (2, 200, 50)]
        assert window_plan(0, 100) == []

    def test_expected_ids_interleave_checkpoints(self):
        ids = expected_row_ids(PROFILE, SEED, 5, 2)
        assert len(ids) == 5 + 3  # 5 instances + 3 checkpoints
        assert ids[2] == checkpoint_id(PROFILE, SEED, 0, 2)
        assert ids[5] == checkpoint_id(PROFILE, SEED, 1, 4)
        assert ids[7] == checkpoint_id(PROFILE, SEED, 2, 5)
        assert ids[0] == sample_instance(PROFILE, SEED, 0).instance_id

    def test_checkpoint_ids_bind_position_and_offset(self):
        assert checkpoint_id(PROFILE, SEED, 0, 100) \
            != checkpoint_id(PROFILE, SEED, 0, 50)
        assert checkpoint_id(PROFILE, SEED, 0, 100) \
            != checkpoint_id(PROFILE, SEED + 1, 0, 100)


class TestAggregator:
    def test_counters_fold_records_and_rows(self):
        agg = WindowAggregator()
        agg.add(ok=True, rounds=3, messages=10, losses=1)
        agg.add_record({"ok": False, "rounds": 5, "messages": 7,
                        "losses": 0})
        snap = agg.snapshot()
        assert snap == {"instances": 2, "ok": 1, "violations": 1,
                        "rounds": 8, "messages": 17, "losses": 1}


class TestDriver:
    BUDGET = 90
    WINDOW = 30

    def _run(self, path, **kwargs):
        defaults = dict(seed=SEED, instances=self.BUDGET,
                        window=self.WINDOW, log_path=str(path))
        defaults.update(kwargs)
        return run_soak(PROFILE, **defaults)

    def test_bounded_run_streams_instances_and_checkpoints(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        outcome = self._run(path)
        assert outcome.passed
        assert outcome.instances == self.BUDGET
        assert outcome.executed_windows == 3
        rows = list(stream_rows(str(path)))
        instances = [r for r in rows if r["kind"] == "instance"]
        checkpoints = [r for r in rows if r["kind"] == "checkpoint"]
        assert len(instances) == self.BUDGET
        assert len(checkpoints) == 3
        # Checkpoints carry cumulative counters in window order.
        assert [c["instances"] for c in checkpoints] == [30, 60, 90]
        assert checkpoints[-1]["ok"] == outcome.ok
        assert checkpoints[-1]["messages"] == outcome.messages

    def test_instance_rows_match_solo_replay(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        self._run(path, instances=10, window=5)
        for row in stream_rows(str(path)):
            if row["kind"] != "instance":
                continue
            spec = sample_instance(PROFILE, SEED, row["index"])
            solo = run_instance(spec)
            assert row["unit_id"] == spec.instance_id
            assert {k: row[k] for k in solo} == solo

    @pytest.mark.parametrize("cut", (0.15, 0.5, 0.83))
    def test_kill_anywhere_then_resume_is_byte_identical(
        self, tmp_path, cut
    ):
        fresh = tmp_path / "fresh.jsonl"
        self._run(fresh)
        reference = _digest(fresh)
        killed = tmp_path / "killed.jsonl"
        data = fresh.read_bytes()
        killed.write_bytes(data[: int(len(data) * cut)])  # torn line
        outcome = self._run(killed, resume=True)
        assert outcome.passed
        assert outcome.instances == self.BUDGET
        assert _digest(killed) == reference

    def test_resume_of_finished_log_executes_nothing(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        self._run(path)
        reference = _digest(path)
        outcome = self._run(path, resume=True)
        assert outcome.executed_windows == 0
        assert outcome.executed_instances == 0
        assert outcome.instances == self.BUDGET
        assert _digest(path) == reference

    def test_stale_log_prefix_is_discarded(self, tmp_path):
        # A log written under a different farm seed shares no row ids:
        # resume must keep nothing and rebuild from scratch.
        path = tmp_path / "soak.jsonl"
        run_soak(PROFILE, seed=SEED + 1, instances=self.BUDGET,
                 window=self.WINDOW, log_path=str(path))
        outcome = self._run(path, resume=True)
        assert outcome.resumed_rows == 0
        fresh = tmp_path / "fresh.jsonl"
        self._run(fresh)
        assert _digest(path) == _digest(fresh)

    def test_pool_run_matches_serial_bytes(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        self._run(serial)
        outcome = self._run(pooled, workers=2)
        assert outcome.passed
        assert _digest(serial) == _digest(pooled)

    def test_warm_unit_cache_skips_execution(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        first = self._run(tmp_path / "a.jsonl", cache=cache)
        assert first.executed_windows == 3
        second = self._run(tmp_path / "b.jsonl", cache=cache, resume=True)
        assert second.executed_windows == 0
        assert second.cached_windows == 3
        assert _digest(tmp_path / "a.jsonl") == _digest(tmp_path / "b.jsonl")

    def test_duration_budget_stops_and_resumes(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        outcome = run_soak(PROFILE, seed=SEED, duration=0.3, window=10,
                           log_path=str(path))
        assert outcome.instances > 0
        assert outcome.instances % 10 == 0  # whole windows only
        more = run_soak(PROFILE, seed=SEED, duration=0.2, window=10,
                        log_path=str(path), resume=True)
        assert more.instances >= outcome.instances
        # The combined log is a prefix of the deterministic stream:
        # identical to a bounded run of the same length.
        bounded = tmp_path / "bounded.jsonl"
        run_soak(PROFILE, seed=SEED, instances=more.instances, window=10,
                 log_path=str(bounded))
        assert _digest(path) == _digest(bounded)

    def test_budget_is_mandatory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_soak(PROFILE, seed=SEED,
                     log_path=str(tmp_path / "soak.jsonl"))

    def test_bad_parameters_rejected(self, tmp_path):
        log = str(tmp_path / "soak.jsonl")
        with pytest.raises(ConfigurationError):
            run_soak("no-such-profile", instances=10, log_path=log)
        with pytest.raises(ConfigurationError):
            run_soak(PROFILE, instances=-1, log_path=log)
        with pytest.raises(ConfigurationError):
            run_soak(PROFILE, instances=10, window=0, log_path=log)

    def test_worker_label_drift_is_a_hard_error(self, tmp_path, monkeypatch):
        # If the worker's sampled stream diverges from the driver's
        # (schema drift between builds), the farm must stop, not log
        # rows under the wrong content ids.
        import repro.soak.driver as driver_module

        real = driver_module.sample_instance

        def drifted(profile, seed, index):
            spec = real(profile, seed, index)
            return real(profile, seed + 1, index) if index == 2 else spec

        monkeypatch.setattr(driver_module, "sample_instance", drifted)
        with pytest.raises(SimulationError, match="label mismatch"):
            run_soak(PROFILE, seed=SEED, instances=5, window=5,
                     log_path=str(tmp_path / "soak.jsonl"))


class TestDurationBudget:
    def test_pooled_farm_stops_at_the_first_window_past_the_budget(
        self, tmp_path
    ):
        # The budget runs out while window 0 is being logged; the pool
        # has read windows ahead by then, and none of them may reach
        # the log.
        import time

        def slow_progress(line):
            time.sleep(2.0)

        path = tmp_path / "soak.jsonl"
        outcome = run_soak(PROFILE, seed=SEED, duration=2.0, window=10,
                           workers=2, log_path=str(path),
                           progress=slow_progress)
        assert outcome.instances == 10
        assert outcome.executed_windows == 1
        assert [r["kind"] for r in stream_rows(str(path))].count(
            "checkpoint") == 1


class TestCLI:
    def test_soak_subcommand_smoke(self, tmp_path, capsys):
        log = tmp_path / "soak.jsonl"
        report = tmp_path / "soak.json"
        code = main([
            "soak", "--profile", "quick", "--instances", "40",
            "--window", "20", "--seed", str(SEED),
            "--log", str(log), "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "40 instances" in out
        assert log.exists()
        data = json.loads(report.read_text())
        assert data["schema"] == "soak-report/1"
        assert data["instances"] == 40
        assert data["passed"] is True

    def test_soak_requires_a_budget(self, tmp_path, capsys):
        code = main(["soak", "--log", str(tmp_path / "soak.jsonl")])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_soak_rejects_unknown_profile(self, tmp_path, capsys):
        code = main([
            "soak", "--profile", "bogus", "--instances", "5",
            "--log", str(tmp_path / "soak.jsonl"),
        ])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_soak_resume_continues_the_log(self, tmp_path, capsys):
        log = tmp_path / "soak.jsonl"
        args = ["soak", "--profile", "quick", "--window", "20",
                "--seed", str(SEED), "--log", str(log),
                "--cache-dir", str(tmp_path / "cache")]
        assert main([*args, "--instances", "20"]) == 0
        assert main([*args, "--instances", "60", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "60 instances" in out
        rows = list(stream_rows(str(log)))
        assert sum(1 for r in rows if r["kind"] == "checkpoint") == 3
