"""Solvability atlas: provenance fusion, streaming resume, conflicts.

The atlas's three contracts, pinned here:

* **fusion** -- a cell verdict needs the closed-form claim *and*
  non-symbolic evidence; decisive evidence contradicting the closed
  form is a hard :class:`~repro.core.errors.AtlasConflict`; weaker
  grades corroborate without proving.
* **streaming** -- the JSONL log is append-only and resumable: a run
  resumed mid-lattice (including from a torn final line) finishes
  byte-for-byte identical to a fresh run.
* **conflict policy end to end** -- a seeded known-violation witness
  planted inside the predicted-solvable region fails the whole sweep.
"""

import json

import pytest

from repro.analysis.bounds import governing_condition, solvable
from repro.atlas import (
    CONFLICT,
    CONSISTENT,
    PROVED_SOLVABLE,
    WITNESSED_UNSOLVABLE,
    AtlasLog,
    LatticeSpec,
    aggregate,
    aggregate_incremental,
    budget_skipped_evidence,
    closed_form_evidence,
    fuse_evidence,
    known_violation_fixture,
    quick_lattice,
    render_json,
    render_markdown,
    run_atlas,
    run_atlas_unit,
)
from repro.atlas.evidence import AtlasUnit, enumerate_atlas_units
from repro.atlas.lattice import CAMPAIGN_ONLY
from repro.cli import main
from repro.core.errors import (
    AtlasConflict,
    AtlasLogCorrupt,
    ConfigurationError,
    ProvenanceError,
)
from repro.core.params import Synchrony, SystemParams
from repro.experiments.campaign import CampaignCache

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS

SOLVABLE = SystemParams(n=4, ell=4, t=1)
UNSOLVABLE = SystemParams(n=3, ell=3, t=1)

#: A one-n lattice: 24 cells, all predicted unsolvable, seconds to run.
TINY = LatticeSpec(n_min=3, n_max=3, t_values=(1,), explore_max_n=3)


def _ev(kind, claim, grade, source="test", detail="detail"):
    return {"kind": kind, "source": source, "claim": claim, "grade": grade,
            "detail": detail}


class TestClosedForm:
    def test_claim_matches_the_predicate(self):
        assert closed_form_evidence(SOLVABLE)["claim"] == "solvable"
        assert closed_form_evidence(UNSOLVABLE)["claim"] == "unsolvable"

    def test_detail_instantiates_the_condition(self):
        item = closed_form_evidence(
            SystemParams(n=9, ell=6, t=1, synchrony=PSYNC)
        )
        assert "2*ell" in item["detail"]
        assert item["grade"] == "theorem"
        assert item["kind"] == "closed-form"


class TestFusion:
    def test_missing_closed_form_raises(self):
        with pytest.raises(ProvenanceError):
            fuse_evidence(
                SOLVABLE, [_ev("campaign", "solvable", "verdict")]
            )

    def test_symbolic_only_raises(self):
        # ``consistent`` requires both evidence kinds present: the
        # closed form alone is never enough for a verdict.
        with pytest.raises(ProvenanceError):
            fuse_evidence(SOLVABLE, [closed_form_evidence(SOLVABLE)])

    def test_consistent_needs_only_presence_not_decision(self):
        verdict = fuse_evidence(UNSOLVABLE, [
            closed_form_evidence(UNSOLVABLE),
            _ev("campaign", None, "inconclusive"),
        ])
        assert verdict == CONSISTENT

    def test_certificate_supports_without_proving(self):
        verdict = fuse_evidence(SOLVABLE, [
            closed_form_evidence(SOLVABLE),
            _ev("explorer", "solvable", "certificate"),
        ])
        assert verdict == CONSISTENT

    def test_derived_demonstration_supports_without_proving(self):
        verdict = fuse_evidence(UNSOLVABLE, [
            closed_form_evidence(UNSOLVABLE),
            _ev("campaign", "unsolvable", "derived"),
        ])
        assert verdict == CONSISTENT

    def test_campaign_verdict_proves_solvable(self):
        verdict = fuse_evidence(SOLVABLE, [
            closed_form_evidence(SOLVABLE),
            _ev("campaign", "solvable", "verdict"),
        ])
        assert verdict == PROVED_SOLVABLE

    def test_witness_proves_unsolvable(self):
        verdict = fuse_evidence(UNSOLVABLE, [
            closed_form_evidence(UNSOLVABLE),
            _ev("explorer", "unsolvable", "witness"),
        ])
        assert verdict == WITNESSED_UNSOLVABLE

    def test_closed_form_vs_witness_conflict_raises(self):
        with pytest.raises(AtlasConflict):
            fuse_evidence(SOLVABLE, [
                closed_form_evidence(SOLVABLE),
                _ev("explorer", "unsolvable", "witness"),
            ])

    def test_closed_form_vs_battery_conflict_raises(self):
        with pytest.raises(AtlasConflict):
            fuse_evidence(SOLVABLE, [
                closed_form_evidence(SOLVABLE),
                _ev("campaign", "unsolvable", "verdict"),
            ])

    def test_non_strict_returns_conflict_verdict(self):
        verdict = fuse_evidence(
            SOLVABLE,
            [closed_form_evidence(SOLVABLE),
             _ev("explorer", "unsolvable", "witness")],
            strict=False,
        )
        assert verdict == CONFLICT

    def test_unconfirmed_witness_never_conflicts(self):
        verdict = fuse_evidence(SOLVABLE, [
            closed_form_evidence(SOLVABLE),
            _ev("explorer", "unsolvable", "unconfirmed"),
        ])
        assert verdict == CONSISTENT

    def test_fixture_conflicts_on_any_solvable_cell(self):
        with pytest.raises(AtlasConflict):
            fuse_evidence(SOLVABLE, [
                closed_form_evidence(SOLVABLE),
                _ev("campaign", "solvable", "verdict"),
                known_violation_fixture(),
            ])


class TestLattice:
    def test_enumeration_is_deterministic_with_unique_labels(self):
        cells_a = quick_lattice().cells()
        cells_b = quick_lattice().cells()
        assert cells_a == cells_b
        labels = [c.label for c in cells_a]
        assert len(set(labels)) == len(labels)
        # n=3..5 x ell=1..n x 8 models.
        assert len(cells_a) == (3 + 4 + 5) * 8

    def test_explorer_scope_gates_size_and_family(self):
        lattice = LatticeSpec(n_min=3, n_max=4, explore_max_n=3)
        for cell in lattice.cells():
            restricted_numerate = (
                cell.params.restricted and cell.params.numerate
            )
            expected = cell.params.n <= 3 and not restricted_numerate
            assert cell.with_explorer is expected

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(n_min=5, n_max=4)
        with pytest.raises(ConfigurationError):
            LatticeSpec(t_values=())
        with pytest.raises(ConfigurationError):
            LatticeSpec(models=())


class TestAtlasUnit:
    def test_solvable_psync_cell_covers_both_timing_models(self):
        result = run_atlas_unit(
            SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                         numerate=True, restricted=True),
            quick=True,
        )
        sources = [e["source"] for e in result["evidence"]]
        assert any(s.startswith("validation slice") for s in sources)
        assert any(s.startswith("delay-model slice") for s in sources)
        assert all(e["claim"] == "solvable" for e in result["evidence"])

    def test_unsolvable_cell_yields_witness_demonstration(self):
        # n=5, ell=3t: the Figure 1 scenario runs and exhibits the
        # contradiction, so the demonstration is witness-grade.
        result = run_atlas_unit(SystemParams(n=5, ell=3, t=1), quick=True)
        (item,) = result["evidence"]
        assert item["claim"] == "unsolvable"
        assert item["grade"] == "witness"
        assert result["demonstration"]
        assert result["demonstration_kind"] == "scenario"

    def test_psl_reduction_is_derived_not_witness(self):
        # n=3 <= 3t: the PSL impossibility is cited, not machine-checked
        # here, so its campaign evidence only supports the claim.
        result = run_atlas_unit(UNSOLVABLE, quick=True)
        (item,) = result["evidence"]
        assert item["claim"] == "unsolvable"
        assert item["grade"] == "derived"

    def test_explorer_evidence_carries_replayed_witness(self):
        result = run_atlas_unit(
            SystemParams(n=3, ell=3, t=1, synchrony=PSYNC),
            quick=True, with_explorer=True,
        )
        explorer = [e for e in result["evidence"]
                    if e["kind"] == "explorer"]
        assert explorer, "explorer evidence missing"
        assert explorer[0]["grade"] == "witness"
        assert "witness" in explorer[0]


class TestStream:
    def test_append_then_stream_roundtrips(self, tmp_path):
        log = AtlasLog(tmp_path / "log.jsonl")
        log.reset()
        rows = [{"unit_id": f"u{i}", "value": i} for i in range(5)]
        for row in rows:
            log.append(row)
        assert list(log.rows()) == rows
        assert list(log.rows(limit=2)) == rows[:2]

    def test_torn_final_line_is_invisible(self, tmp_path):
        log = AtlasLog(tmp_path / "log.jsonl")
        log.reset()
        log.append({"unit_id": "u0"})
        with log.path.open("a") as fh:
            fh.write('{"unit_id": "u1"')  # no newline: torn append
        assert [r["unit_id"] for r in log.rows()] == ["u0"]

    def test_resume_prefix_truncates_at_first_mismatch(self, tmp_path):
        log = AtlasLog(tmp_path / "log.jsonl")
        log.reset()
        for uid in ("a", "b", "stale", "d"):
            log.append({"unit_id": uid})
        kept = log.resume_prefix(["a", "b", "c", "d"])
        assert kept == 2
        assert [r["unit_id"] for r in log.rows()] == ["a", "b"]

    def test_resume_prefix_of_missing_file_is_zero(self, tmp_path):
        log = AtlasLog(tmp_path / "fresh.jsonl")
        assert log.resume_prefix(["a"]) == 0
        assert log.path.exists()


class TestDriver:
    def _fresh(self, tmp_path, name, **kwargs):
        path = tmp_path / name
        outcome = run_atlas(TINY, path, quick=True, **kwargs)
        return path, outcome

    def test_jsonl_resume_mid_lattice_equals_fresh_byte_for_byte(
        self, tmp_path
    ):
        fresh_path, fresh = self._fresh(tmp_path, "fresh.jsonl")
        assert fresh.written == fresh.cells_total

        resumed_path = tmp_path / "resumed.jsonl"
        lines = fresh_path.read_bytes().splitlines(keepends=True)
        resumed_path.write_bytes(b"".join(lines[:7]) + b'{"torn')
        resumed = run_atlas(TINY, resumed_path, quick=True, resume=True)
        assert resumed.resumed == 7
        assert resumed.written == resumed.cells_total - 7
        assert resumed_path.read_bytes() == fresh_path.read_bytes()

    def test_crash_mid_cell_then_resume_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """Kill the driver mid-cell; resume must finish byte-for-byte.

        The crash is injected into the unit executor itself (the driver
        dies *between* appends), then the torn-final-line case is
        layered on top by appending the partial row the dying process
        would have been writing.
        """
        import repro.experiments.campaign as campaign_mod

        fresh_path, fresh = self._fresh(tmp_path, "fresh.jsonl")

        crash_after = 5
        calls = {"n": 0}
        real_execute = campaign_mod.execute_unit

        def dying_execute(unit):
            if calls["n"] >= crash_after:
                raise KeyboardInterrupt("simulated mid-cell kill")
            calls["n"] += 1
            return real_execute(unit)

        crashed_path = tmp_path / "crashed.jsonl"
        monkeypatch.setattr(campaign_mod, "execute_unit", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_atlas(TINY, crashed_path, quick=True)
        monkeypatch.setattr(campaign_mod, "execute_unit", real_execute)

        # The log holds exactly the cells fused before the kill...
        survivors = crashed_path.read_bytes()
        assert survivors.endswith(b"\n")
        assert len(survivors.splitlines()) == crash_after
        # ...plus, in the worst crash, a torn final line mid-append.
        with crashed_path.open("ab") as fh:
            fh.write(b'{"unit_id": "torn')

        resumed = run_atlas(TINY, crashed_path, quick=True, resume=True)
        assert resumed.resumed == crash_after
        assert resumed.written == resumed.cells_total - crash_after
        assert crashed_path.read_bytes() == fresh_path.read_bytes()

    def test_crash_before_any_cell_resumes_from_scratch(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.campaign as campaign_mod

        fresh_path, _ = self._fresh(tmp_path, "fresh.jsonl")

        def dying_execute(unit):
            raise KeyboardInterrupt("simulated kill before first cell")

        crashed_path = tmp_path / "crashed.jsonl"
        monkeypatch.setattr(campaign_mod, "execute_unit", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_atlas(TINY, crashed_path, quick=True)
        monkeypatch.undo()

        assert crashed_path.read_bytes() == b""
        resumed = run_atlas(TINY, crashed_path, quick=True, resume=True)
        assert resumed.resumed == 0
        assert resumed.written == resumed.cells_total
        assert crashed_path.read_bytes() == fresh_path.read_bytes()

    def test_unit_cache_skips_execution_on_resume(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        first_path, first = self._fresh(tmp_path, "a.jsonl", cache=cache)
        second_path, second = self._fresh(
            tmp_path, "b.jsonl", cache=cache, resume=True
        )
        assert first.executed == first.cells_total
        assert second.executed == 0
        assert second.cached == second.cells_total
        assert second_path.read_bytes() == first_path.read_bytes()

    def test_every_cell_carries_non_symbolic_evidence(self, tmp_path):
        path, outcome = self._fresh(tmp_path, "atlas.jsonl")
        agg = aggregate(AtlasLog(path).rows())
        assert agg.symbolic_only == []
        assert agg.conflicts == []
        assert outcome.ok

    def test_injected_witness_conflict_fails_the_run(self, tmp_path):
        target = next(
            c.label for c in TINY.cells()
            if c.params.synchrony is PSYNC
        )
        with pytest.raises(AtlasConflict):
            run_atlas(
                TINY, tmp_path / "log.jsonl", quick=True,
                inject={target: [
                    {"kind": "explorer", "source": "fixture",
                     "claim": "solvable", "grade": "witness",
                     "detail": "forged"},
                ]},
            )

    def test_injection_is_incompatible_with_resume(self, tmp_path):
        # A resumed prefix would bypass the injected evidence, turning
        # the conflict fixture into a silent no-op; refuse the combo.
        with pytest.raises(ConfigurationError):
            run_atlas(
                TINY, tmp_path / "log.jsonl", quick=True, resume=True,
                inject={TINY.cells()[0].label: [known_violation_fixture()]},
            )

    def test_non_strict_records_conflict_rows(self, tmp_path):
        target = TINY.cells()[0].label
        path = tmp_path / "log.jsonl"
        outcome = run_atlas(
            TINY, path, quick=True, strict=False,
            inject={target: [
                {"kind": "explorer", "source": "fixture",
                 "claim": "solvable", "grade": "witness",
                 "detail": "forged"},
            ]},
        )
        assert not outcome.ok
        assert outcome.verdicts[CONFLICT] == 1
        rows = list(AtlasLog(path).rows())
        assert rows[0]["verdict"] == CONFLICT


def _atlas_unit(label):
    """The campaign unit the atlas driver builds for a ``TINY`` cell."""
    units = enumerate_atlas_units(
        [(c.label, c.params, c.variant) for c in TINY.cells()], quick=True,
    )
    return next(u for u in units if u.label == label)


def _assert_names_unit(err, unit):
    notes = getattr(err.value, "__notes__", [])
    assert any(unit.describe() in note for note in notes)
    assert any(unit.unit_id in note for note in notes)


class TestPooledDriver:
    """``workers > 1`` runs the shared unit pipeline: same bytes as the
    inline sweep, same failure contract."""

    def test_pooled_cold_killed_and_resumed_equals_inline(self, tmp_path):
        inline = tmp_path / "inline.jsonl"
        run_atlas(TINY, inline, quick=True)
        expected = inline.read_bytes()

        cache = CampaignCache(tmp_path / "cache")
        cold = tmp_path / "cold.jsonl"
        outcome = run_atlas(TINY, cold, quick=True, workers=2, cache=cache)
        assert outcome.executed == outcome.cells_total
        assert cold.read_bytes() == expected

        # Kill the driver between appends (no cache, so the resumed
        # sweep executes the rest on the pool), tear the final line.
        kill_after = 5
        fused = []

        def dying(line):
            if line.startswith("fused"):
                fused.append(line)
                if len(fused) == kill_after:
                    raise KeyboardInterrupt("simulated kill")

        killed = tmp_path / "killed.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_atlas(TINY, killed, quick=True, workers=2, progress=dying)
        assert len(killed.read_bytes().splitlines()) == kill_after
        with killed.open("ab") as fh:
            fh.write(b'{"unit_id": "torn')
        resumed = run_atlas(TINY, killed, quick=True, workers=2, resume=True)
        assert resumed.resumed == kill_after
        assert resumed.executed == resumed.cells_total - kill_after
        assert killed.read_bytes() == expected

        warm = tmp_path / "warm.jsonl"
        outcome = run_atlas(
            TINY, warm, quick=True, workers=2, cache=cache, resume=True,
        )
        assert outcome.cached == outcome.cells_total
        assert warm.read_bytes() == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_unit_names_itself(self, tmp_path, monkeypatch, workers):
        import repro.atlas.evidence as evidence_mod

        target = TINY.cells()[3]
        real = evidence_mod.run_atlas_unit

        def poisoned(params, **kwargs):
            if params == target.params:
                raise ProvenanceError("poisoned cell")
            return real(params, **kwargs)

        # Forked pool workers inherit the patched module attribute.
        monkeypatch.setattr(evidence_mod, "run_atlas_unit", poisoned)
        path = tmp_path / "log.jsonl"
        with pytest.raises(ProvenanceError) as err:
            run_atlas(TINY, path, quick=True, workers=workers)
        _assert_names_unit(err, _atlas_unit(target.label))
        assert len(path.read_bytes().splitlines()) <= 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_conflict_names_its_unit(self, tmp_path, workers):
        target = next(
            c.label for c in TINY.cells()
            if c.params.synchrony is PSYNC
        )
        with pytest.raises(AtlasConflict) as err:
            run_atlas(
                TINY, tmp_path / "log.jsonl", quick=True, workers=workers,
                inject={target: [
                    {"kind": "explorer", "source": "fixture",
                     "claim": "solvable", "grade": "witness",
                     "detail": "forged"},
                ]},
            )
        _assert_names_unit(err, _atlas_unit(target))


class TestRender:
    def _rows(self, tmp_path):
        path, _ = TestDriver()._fresh(tmp_path, "render.jsonl")
        return path, list(AtlasLog(path).rows())

    def test_markdown_reproduces_the_four_conditions(self, tmp_path):
        path, rows = self._rows(tmp_path)
        agg = aggregate(iter(rows))
        text = render_markdown(agg, TINY.describe(), path.name)
        for condition in ("ell > 3t", "2*ell > n + 3t", "ell > t"):
            assert condition in text
        assert "zero CONFLICT cells" in text
        assert "non-symbolic evidence" in text

    def test_json_document_is_valid_and_consistent(self, tmp_path):
        path, rows = self._rows(tmp_path)
        agg = aggregate(iter(rows))
        data = json.loads(render_json(agg, TINY.describe(), path.name))
        assert data["cells"] == len(rows)
        assert data["ok"] is True
        assert len(data["table1"]) == 4
        assert all(entry["condition"] for entry in data["table1"])

    def test_boundary_map_glyphs_cover_every_ell(self, tmp_path):
        path, rows = self._rows(tmp_path)
        agg = aggregate(iter(rows))
        ((n, t), per_model) = next(iter(agg.maps.items()))
        assert (n, t) == (3, 1)
        for per_ell in per_model.values():
            assert set(per_ell) == {1, 2, 3}


class TestUnits:
    def test_atlas_units_hash_the_variant(self):
        cells = [("cell", SOLVABLE, "campaign"),
                 ("cell2", SOLVABLE, "campaign+explorer")]
        units = enumerate_atlas_units(cells, seed=0, quick=True)
        assert units[0].unit_id != units[1].unit_id
        assert all(u.kind == "atlas" for u in units)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate cell labels"):
            enumerate_atlas_units(
                [("cell", SOLVABLE, CAMPAIGN_ONLY),
                 ("cell", SOLVABLE, CAMPAIGN_ONLY)]
            )

    def test_misspelled_plan_rejected(self):
        # Before plans were validated, this unit ran, hashed to an id of
        # its own and silently returned campaign evidence only.
        with pytest.raises(ConfigurationError, match=r"campaign\+explore'"):
            enumerate_atlas_units(
                [("c", SystemParams(4, 4, 1), "campaign+explore")]
            )
        with pytest.raises(ConfigurationError):
            AtlasUnit("c", SystemParams(4, 4, 1), "")


class TestCLI:
    def test_atlas_subcommand_quick_smoke(self, tmp_path, capsys):
        code = main([
            "atlas", "--max-n", "3", "--explore-max-n", "0",
            "--log", str(tmp_path / "atlas.jsonl"),
            "--markdown", str(tmp_path / "atlas.md"),
            "--json", str(tmp_path / "atlas.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 CONFLICT cells" in out
        assert (tmp_path / "atlas.md").exists()
        assert (tmp_path / "atlas.json").exists()

    def test_atlas_inject_conflict_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "atlas", "--max-n", "4", "--explore-max-n", "0",
            "--log", str(tmp_path / "atlas.jsonl"),
            "--inject-conflict",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "ATLAS CONFLICT" in captured.err


class TestStreamCorruption:
    """Regression: `AtlasLog.rows` must not swallow mid-file corruption.

    Pre-fix, *any* unparsable line silently ended iteration, so a
    corrupt line in the middle of a log made every later row -- real,
    fsynced data -- vanish without a whisper.  Only a torn **final**
    line (the one failure mode append-only writing can produce) is
    legitimate wear; anything else must raise
    :class:`~repro.core.errors.AtlasLogCorrupt`.
    """

    def _log(self, tmp_path):
        log = AtlasLog(tmp_path / "log.jsonl")
        log.reset()
        for uid in ("u0", "u1", "u2"):
            log.append({"unit_id": uid})
        return log

    def test_mid_file_corruption_raises(self, tmp_path):
        log = self._log(tmp_path)
        lines = log.path.read_text().splitlines(keepends=True)
        lines[1] = "!! not json !!\n"
        log.path.write_text("".join(lines))
        rows = []
        with pytest.raises(AtlasLogCorrupt) as err:
            for row in log.rows():
                rows.append(row)
        # Rows before the corruption are still yielded; the error names
        # both the corrupt line and the well-formed row after it.
        assert [r["unit_id"] for r in rows] == ["u0"]
        assert "line 2" in str(err.value)
        assert "line 3" in str(err.value)

    def test_non_dict_row_mid_file_raises(self, tmp_path):
        log = self._log(tmp_path)
        lines = log.path.read_text().splitlines(keepends=True)
        lines[1] = "[1, 2, 3]\n"
        log.path.write_text("".join(lines))
        with pytest.raises(AtlasLogCorrupt):
            list(log.rows())

    def test_torn_final_line_is_still_tolerated(self, tmp_path):
        log = self._log(tmp_path)
        with log.path.open("a") as fh:
            fh.write('{"unit_id": "torn"')  # crash mid-append
        assert [r["unit_id"] for r in log.rows()] == ["u0", "u1", "u2"]

    def test_corrupt_final_line_with_newline_is_tolerated(self, tmp_path):
        # A torn line can end exactly at a flushed newline boundary
        # when the tear happened inside an earlier buffered batch write.
        log = self._log(tmp_path)
        with log.path.open("a") as fh:
            fh.write("{half a row\n")
        assert [r["unit_id"] for r in log.rows()] == ["u0", "u1", "u2"]

    def test_limit_short_of_corruption_does_not_raise(self, tmp_path):
        log = self._log(tmp_path)
        lines = log.path.read_text().splitlines(keepends=True)
        lines[2] = "!! not json !!\n"
        log.path.write_text("".join(lines) + '{"unit_id": "u3"}\n')
        # A bounded read that never reaches the damage stays clean.
        assert [r["unit_id"] for r in log.rows(limit=2)] == ["u0", "u1"]


class TestAppendMany:
    def test_batch_append_equals_row_appends(self, tmp_path):
        one = AtlasLog(tmp_path / "one.jsonl")
        one.reset()
        rows = [{"unit_id": f"u{i}", "value": i} for i in range(10)]
        for row in rows:
            one.append(row)
        batch = AtlasLog(tmp_path / "batch.jsonl")
        batch.reset()
        batch.append_many(rows)
        assert batch.path.read_bytes() == one.path.read_bytes()

    def test_batch_append_fsyncs_once(self, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.atlas.stream.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        log = AtlasLog(tmp_path / "log.jsonl")
        log.reset()
        log.append_many([{"unit_id": f"u{i}"} for i in range(50)])
        assert len(synced) == 1


class TestClosedFormT2:
    """Table 1 regressions at ``t = 2``: the n = 3t and 3t + 1 walls."""

    def test_n_equals_3t_is_unsolvable_in_every_model(self):
        # n = 6 = 3t: the universal PSL requirement fails, so every
        # model family is unsolvable regardless of ell.
        for synchrony in (Synchrony.SYNCHRONOUS, PSYNC):
            for numerate in (False, True):
                for restricted in (False, True):
                    params = SystemParams(
                        n=6, ell=6, t=2, synchrony=synchrony,
                        numerate=numerate, restricted=restricted,
                    )
                    assert not solvable(params)
                    assert "n > 3t" in governing_condition(params)
                    item = closed_form_evidence(params)
                    assert item["claim"] == "unsolvable"
                    assert item["grade"] == "theorem"

    def test_sync_boundary_at_n_3t_plus_1(self):
        # n = 7 > 3t: synchronous solvability turns exactly at
        # ell > 3t = 6.
        assert solvable(SystemParams(n=7, ell=7, t=2))
        assert not solvable(SystemParams(n=7, ell=6, t=2))

    def test_psync_boundary_at_n_3t_plus_1(self):
        # n = 7, t = 2: partially synchronous needs 2*ell > n + 3t
        # = 13, so ell = 7 squeaks through and ell = 6 does not.
        assert solvable(SystemParams(n=7, ell=7, t=2, synchrony=PSYNC))
        assert not solvable(
            SystemParams(n=7, ell=6, t=2, synchrony=PSYNC)
        )

    def test_restricted_numerate_boundary_is_ell_over_t(self):
        # Theorems 14/15 at t = 2: ell > t in both synchrony models.
        for synchrony in (Synchrony.SYNCHRONOUS, PSYNC):
            assert solvable(SystemParams(
                n=7, ell=3, t=2, synchrony=synchrony,
                numerate=True, restricted=True,
            ))
            assert not solvable(SystemParams(
                n=7, ell=2, t=2, synchrony=synchrony,
                numerate=True, restricted=True,
            ))

    def test_t2_lattice_predictions_match_the_predicate(self, tmp_path):
        # A t = 2 lattice spanning both walls, swept entirely outside
        # the campaign envelope: every row's closed-form prediction
        # must reproduce the Table 1 predicate cell by cell.
        spec = LatticeSpec(
            n_min=6, n_max=7, t_values=(2,), explore_max_n=0,
            campaign_max_n=3,
        )
        path = tmp_path / "t2.jsonl"
        outcome = run_atlas(spec, path, quick=True)
        assert outcome.ok
        rows = list(AtlasLog(path).rows())
        assert len(rows) == len(spec.cells()) == (6 + 7) * 8
        for row, cell in zip(rows, spec.cells()):
            expected = "solvable" if solvable(cell.params) else "unsolvable"
            assert row["predicted"] == expected


class TestBudgetTiers:
    """The campaign cost envelope: explicit, provenance-visible skips."""

    def test_cells_beyond_the_envelope_lose_workloads(self):
        spec = LatticeSpec(
            n_min=3, n_max=4, t_values=(1,), explore_max_n=4,
            campaign_max_n=3,
        )
        inside = [c for c in spec.cells() if c.params.n == 3]
        beyond = [c for c in spec.cells() if c.params.n == 4]
        assert beyond and all(not c.with_campaign for c in beyond)
        assert all(c.variant == "budget-skipped" for c in beyond)
        # Outside the campaign envelope the explorer is off too.
        assert all(not c.with_explorer for c in beyond)
        assert all(c.with_campaign for c in inside)

    def test_no_envelope_means_every_cell_runs(self):
        spec = LatticeSpec(n_min=3, n_max=4, t_values=(1,),
                           explore_max_n=0)
        assert all(c.with_campaign for c in spec.cells())

    def test_envelope_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(n_min=3, n_max=4, campaign_max_n=0)

    def test_describe_names_the_envelope(self):
        spec = LatticeSpec(n_min=3, n_max=8, campaign_max_n=4)
        assert "campaign budget n<=4" in spec.describe()

    def test_budget_skipped_evidence_is_inconclusive(self):
        item = budget_skipped_evidence(SystemParams(n=9, ell=9, t=2))
        assert item["kind"] == "campaign"
        assert item["claim"] is None
        assert item["grade"] == "inconclusive"
        assert "budget-skipped" in item["detail"]
        assert "n=9" in item["detail"]

    def test_budget_skipped_unit_runs_no_workloads(self):
        result = run_atlas_unit(
            SystemParams(n=9, ell=9, t=2), quick=True,
            budget_skipped=True,
        )
        assert result["records"] == []
        assert result["algorithm"] == ""
        assert result["demonstration_kind"] == ""
        (item,) = result["evidence"]
        assert "budget-skipped" in item["detail"]

    def test_budget_rows_fuse_consistent_with_explicit_note(
        self, tmp_path
    ):
        spec = LatticeSpec(
            n_min=3, n_max=4, t_values=(1,), explore_max_n=0,
            campaign_max_n=3,
        )
        path = tmp_path / "budget.jsonl"
        outcome = run_atlas(spec, path, quick=True)
        assert outcome.ok
        skipped = [r for r in AtlasLog(path).rows()
                   if r["cell"]["n"] == 4]
        assert skipped
        for row in skipped:
            # Never silently absent: the cell is in the atlas, graded
            # ``consistent``, and says *why* nothing empirical ran.
            assert row["verdict"] == CONSISTENT
            assert row["runs"] == 0
            notes = [e for e in row["evidence"]
                     if "budget-skipped" in e.get("detail", "")]
            assert notes, "budget exclusion missing from provenance"

    def test_budget_rows_are_never_symbolic_only(self, tmp_path):
        spec = LatticeSpec(
            n_min=3, n_max=4, t_values=(1,), explore_max_n=0,
            campaign_max_n=3,
        )
        path = tmp_path / "budget.jsonl"
        run_atlas(spec, path, quick=True)
        agg = aggregate(AtlasLog(path).rows())
        assert agg.symbolic_only == []


class TestIncrementalRender:
    """Cursor-backed re-rendering: O(new rows), never O(log)."""

    def _log(self, tmp_path):
        path, _ = TestDriver()._fresh(tmp_path, "atlas.jsonl")
        return path

    def test_first_fold_is_full_then_zero_incremental(self, tmp_path):
        path = self._log(tmp_path)
        cursor = tmp_path / "cursor.json"
        agg, folded, incremental = aggregate_incremental(path, cursor)
        assert (folded, incremental) == (agg.cells, False)
        agg2, folded2, incremental2 = aggregate_incremental(path, cursor)
        assert (folded2, incremental2) == (0, True)
        assert agg2.cells == agg.cells

    def test_appended_rows_fold_incrementally(self, tmp_path):
        path = self._log(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:10]))
        cursor = tmp_path / "cursor.json"
        aggregate_incremental(path, cursor)
        with path.open("ab") as fh:
            fh.write(b"".join(lines[10:]))
        agg, folded, incremental = aggregate_incremental(path, cursor)
        assert incremental
        assert folded == len(lines) - 10
        assert agg.cells == len(lines)

    def test_incremental_fold_equals_the_full_aggregate(self, tmp_path):
        path = self._log(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:7]))
        cursor = tmp_path / "cursor.json"
        aggregate_incremental(path, cursor)
        with path.open("ab") as fh:
            fh.write(b"".join(lines[7:]))
        agg, _, _ = aggregate_incremental(path, cursor)
        full = aggregate(AtlasLog(path).rows())
        assert agg.to_dict() == full.to_dict()

    def test_rewritten_log_falls_back_to_full_refold(self, tmp_path):
        path = self._log(tmp_path)
        cursor = tmp_path / "cursor.json"
        aggregate_incremental(path, cursor)
        # Rewrite the log with a different prefix (drop the first row):
        # the prefix hash no longer matches, so the cursor is unusable.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[1:]))
        agg, folded, incremental = aggregate_incremental(path, cursor)
        assert not incremental
        assert folded == agg.cells == len(lines) - 1

    def test_garbage_cursor_is_ignored(self, tmp_path):
        path = self._log(tmp_path)
        cursor = tmp_path / "cursor.json"
        cursor.write_text("not json{")
        agg, folded, incremental = aggregate_incremental(path, cursor)
        assert not incremental
        assert folded == agg.cells

    def test_torn_final_line_stays_unfolded(self, tmp_path):
        path = self._log(tmp_path)
        cursor = tmp_path / "cursor.json"
        total, _, _ = aggregate_incremental(path, cursor)
        with path.open("ab") as fh:
            fh.write(b'{"unit_id": "torn')
        agg, folded, incremental = aggregate_incremental(path, cursor)
        assert incremental
        assert folded == 0
        assert agg.cells == total.cells

    def test_aggregates_round_trip_through_the_cursor_dict(
        self, tmp_path
    ):
        path = self._log(tmp_path)
        full = aggregate(AtlasLog(path).rows())
        from repro.atlas import AtlasAggregates

        clone = AtlasAggregates.from_dict(full.to_dict())
        assert clone.to_dict() == full.to_dict()
        assert clone.maps == full.maps
        assert clone.families == full.families

    def test_cli_render_is_incremental_on_the_second_call(
        self, tmp_path, capsys
    ):
        path = self._log(tmp_path)
        args = ["atlas", "render", "--log", str(path),
                "--markdown", str(tmp_path / "atlas.md")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "full refold" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "incremental: 0 rows folded" in second
        assert (tmp_path / "atlas.md").exists()
