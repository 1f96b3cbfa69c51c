"""Shard striping and deterministic merge: the differential grid.

The sharded atlas's core promise, pinned property-style: for random
lattice specs, shard counts in 1..5, and kill points -- including torn
final JSONL lines per shard -- fusing the per-shard logs with
:func:`repro.atlas.merge.merge_shards` reproduces the unsharded
``atlas.jsonl`` **byte-for-byte**.  The merge's trust-boundary checks
get their own fixtures: divergent cross-shard duplicates raise
:class:`~repro.core.errors.AtlasConflict` with both provenance rows
attached, tampered verdicts raise
:class:`~repro.core.errors.AtlasMergeError`, and incomplete shard sets
surface as gaps instead of a silently partial atlas.  Shards take
whole scope groups, dealt by estimated cost, so no explorer search is
split across shards, and the shard selector parser (shared with the
campaign CLI) is pinned here too.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas import AtlasLog, LatticeSpec, merge_shards, run_atlas
from repro.atlas.driver import scope_group_costs, shard_positions
from repro.atlas.lattice import quick_lattice, scope_group
from repro.cli import main
from repro.core.canonical import canonical_json
from repro.core.errors import (
    AtlasConflict,
    AtlasLogCorrupt,
    AtlasMergeError,
    ConfigurationError,
)
from repro.core.params import model_space
from repro.experiments.campaign import CampaignCache, parse_shard

#: The one-n lattice from test_atlas.py: 24 cells, seconds to sweep.
TINY = LatticeSpec(n_min=3, n_max=3, t_values=(1,), explore_max_n=3)

_dirs = itertools.count()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One unit cache for the whole grid: each cell executes once."""
    return CampaignCache(tmp_path_factory.mktemp("unit-cache"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """Fresh directories inside hypothesis examples (tmp_path is
    function-scoped and would be reused across examples)."""

    def make() -> "object":
        return tmp_path_factory.mktemp(f"case{next(_dirs)}")

    return make


def _sweep(lattice, path, cache, shard=None):
    """Run one (possibly sharded) sweep through the shared cache."""
    return run_atlas(
        lattice, path, quick=True, cache=cache, resume=True, shard=shard
    )


_reference: dict[LatticeSpec, bytes] = {}


def _reference_bytes(lattice, scratch, cache) -> bytes:
    """The unsharded log for a lattice, computed once per module."""
    if lattice not in _reference:
        path = scratch() / "unsharded.jsonl"
        outcome = _sweep(lattice, path, cache)
        assert outcome.ok
        _reference[lattice] = path.read_bytes()
    return _reference[lattice]


def lattices() -> st.SearchStrategy:
    """Small random lattice specs (budget-tiered half the time)."""
    return st.builds(
        LatticeSpec,
        n_min=st.just(3),
        n_max=st.integers(3, 4),
        t_values=st.just((1,)),
        explore_max_n=st.sampled_from((0, 3)),
        campaign_max_n=st.sampled_from((None, 3)),
    )


class TestDifferentialGrid:
    @given(lattice=lattices(), shard_count=st.integers(1, 5))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_merge_of_shards_is_byte_identical_to_unsharded(
        self, lattice, shard_count, scratch, cache
    ):
        expected = _reference_bytes(lattice, scratch, cache)
        case = scratch()
        shard_paths = []
        for index in range(shard_count):
            path = case / f"atlas-{index}-of-{shard_count}.jsonl"
            outcome = _sweep(
                lattice, path, cache, shard=(index, shard_count)
            )
            assert outcome.ok
            shard_paths.append(path)
        fused = case / "atlas.jsonl"
        outcome = merge_shards(shard_paths, fused)
        assert outcome.ok
        assert outcome.shards == shard_count
        assert outcome.overlaps == 0
        assert fused.read_bytes() == expected

    @given(
        shard_count=st.integers(2, 4),
        kill_after=st.integers(0, 5),
        torn=st.booleans(),
    )
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_killed_shard_resumes_then_merges_byte_identically(
        self, shard_count, kill_after, torn, scratch, cache
    ):
        """Kill shard 0 mid-sweep (optionally tearing its final line),
        resume it, sweep the rest, merge: still byte-identical."""
        import repro.experiments.campaign as campaign_mod

        expected = _reference_bytes(TINY, scratch, cache)
        case = scratch()
        killed = case / f"atlas-0-of-{shard_count}.jsonl"

        calls = {"n": 0}
        done = []
        real_execute = campaign_mod.execute_unit

        def dying_execute(unit):
            if calls["n"] >= kill_after:
                raise KeyboardInterrupt("simulated mid-shard kill")
            calls["n"] += 1
            done.append(unit.kind)
            return real_execute(unit)

        # No cache on the dying run: cached cells bypass the executor,
        # which would let the sweep outrun its own kill point.
        campaign_mod.execute_unit = dying_execute
        try:
            with pytest.raises(KeyboardInterrupt):
                run_atlas(TINY, killed, quick=True,
                          shard=(0, shard_count))
        finally:
            campaign_mod.execute_unit = real_execute

        # Scope searches run on the same executor but write no row.
        fused = done.count("atlas")
        survivors = killed.read_bytes()
        assert len(survivors.splitlines()) == fused
        if torn:
            with killed.open("ab") as fh:
                fh.write(b'{"unit_id": "torn')

        resumed = _sweep(TINY, killed, cache, shard=(0, shard_count))
        assert resumed.resumed == fused
        assert resumed.written == resumed.cells_total - fused

        shard_paths = [killed]
        for index in range(1, shard_count):
            path = case / f"atlas-{index}-of-{shard_count}.jsonl"
            _sweep(TINY, path, cache, shard=(index, shard_count))
            shard_paths.append(path)
        fused = case / "atlas.jsonl"
        merge_shards(shard_paths, fused)
        assert fused.read_bytes() == expected

    def test_rows_carry_global_indices_not_shard_local(
        self, scratch, cache
    ):
        case = scratch()
        path = case / "atlas-1-of-3.jsonl"
        _sweep(TINY, path, cache, shard=(1, 3))
        indices = [row["index"] for row in AtlasLog(path).rows()]
        # Scope groups 2 and 3 of 6 (ell=2, four cells each).
        assert indices == [8, 9, 10, 11, 12, 13, 14, 15]
        assert indices == shard_positions(TINY.cells(), 1, 3)

    def test_single_shard_covers_the_whole_lattice(self, scratch, cache):
        case = scratch()
        path = case / "atlas-0-of-1.jsonl"
        outcome = _sweep(TINY, path, cache, shard=(0, 1))
        assert outcome.cells_total == len(TINY.cells())
        assert path.read_bytes() == _reference_bytes(
            TINY, scratch, cache
        )

    def test_overlapping_identical_shards_dedupe(self, scratch, cache):
        # Re-running a shard into a second log is the benign overlap:
        # identical bytes dedupe (and get the full cross-check).
        case = scratch()
        first = case / "atlas-0-of-2.jsonl"
        second = case / "atlas-1-of-2.jsonl"
        rerun = case / "atlas-0-of-2-rerun.jsonl"
        _sweep(TINY, first, cache, shard=(0, 2))
        _sweep(TINY, second, cache, shard=(1, 2))
        _sweep(TINY, rerun, cache, shard=(0, 2))
        fused = case / "atlas.jsonl"
        outcome = merge_shards([first, second, rerun], fused)
        assert outcome.overlaps == len(list(AtlasLog(first).rows()))
        assert fused.read_bytes() == _reference_bytes(
            TINY, scratch, cache
        )


class TestScopeStripes:
    @given(
        lattice=lattices(),
        models=st.permutations(tuple(model_space())),
        shard_count=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_scope_groups_never_straddle_shards(
        self, lattice, models, shard_count
    ):
        # Any model order, so groups may interleave in the lattice.
        cells = dataclasses.replace(lattice, models=models).cells()
        stripes = [
            shard_positions(cells, index, shard_count)
            for index in range(shard_count)
        ]
        assert sorted(p for stripe in stripes for p in stripe) == list(
            range(len(cells))
        )
        shard_of = {}
        for index, stripe in enumerate(stripes):
            assert stripe == sorted(stripe)
            for pos in stripe:
                group = scope_group(cells[pos].params)
                assert shard_of.setdefault(group, index) == index


    @pytest.mark.parametrize("shard_count", [2, 3, 4, 5])
    def test_cost_dealing_is_no_worse_than_striping(self, shard_count):
        # The heaviest shard's estimated cost under cost dealing, against
        # striping the groups by order of appearance.
        cells = quick_lattice().cells()
        costs = scope_group_costs(cells)
        dealt = [
            {scope_group(cells[pos].params)
             for pos in shard_positions(cells, index, shard_count)}
            for index in range(shard_count)
        ]
        striped = [
            list(costs)[index::shard_count] for index in range(shard_count)
        ]
        assert max(sum(costs[g] for g in share) for share in dealt) <= max(
            sum(costs[g] for g in share) for share in striped
        )


def _rewrite_row(path, index, mutate) -> dict:
    """Rewrite one row of a shard log in place; returns the new row."""
    log = AtlasLog(path)
    rows = list(log.rows())
    mutated = None
    for row in rows:
        if row["index"] == index:
            mutate(row)
            mutated = row
    log.reset()
    log.append_many(rows)
    assert mutated is not None
    return mutated


def _corrupt_shard(case, cache):
    """A full shard log with a non-UTF-8 line after its second row."""
    path = case / "atlas-0-of-1.jsonl"
    _sweep(TINY, path, cache, shard=(0, 1))
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [b"\xff\xfe\n"] + lines[2:]))
    return path


class TestMergeTrustBoundary:
    def test_divergent_duplicates_conflict_with_both_rows(
        self, scratch, cache
    ):
        """The cross-shard conflict fixture: two shards vouch for the
        same global index with different bytes -- merge must refuse and
        attach both provenance rows."""
        case = scratch()
        a = case / "atlas-0-of-2.jsonl"
        b = case / "atlas-1-of-2.jsonl"
        _sweep(TINY, a, cache, shard=(0, 2))
        _sweep(TINY, b, cache, shard=(1, 2))
        forged = case / "atlas-0-of-2-forged.jsonl"
        forged.write_bytes(a.read_bytes())
        _rewrite_row(
            forged, 0,
            lambda row: row.update(algorithm="forged-by-other-machine"),
        )
        with pytest.raises(AtlasConflict) as excinfo:
            merge_shards([a, b, forged], case / "atlas.jsonl")
        kept, offender = excinfo.value.rows
        assert kept["index"] == offender["index"] == 0
        assert kept["algorithm"] != offender["algorithm"]
        # Both attached rows carry full provenance.
        for row in (kept, offender):
            assert row["label"] and row["evidence"]

    def test_recorded_conflict_rows_refuse_strict_merge(
        self, scratch, cache
    ):
        # A non-strict sweep records CONFLICT rows; a strict merge
        # re-fuses each row's evidence and surfaces the conflict with
        # the offending row attached.
        case = scratch()
        path = case / "atlas-0-of-1.jsonl"
        target = TINY.cells()[0].label
        outcome = run_atlas(
            TINY, path, quick=True, strict=False, shard=(0, 1),
            inject={target: [
                {"kind": "explorer", "source": "fixture",
                 "claim": "solvable", "grade": "witness",
                 "detail": "forged"},
            ]},
        )
        assert not outcome.ok
        with pytest.raises(AtlasConflict) as excinfo:
            merge_shards([path], case / "atlas.jsonl")
        (row,) = excinfo.value.rows
        assert row["label"] == target
        assert row["verdict"] == "CONFLICT"

    def test_non_strict_merge_passes_recorded_conflicts_through(
        self, scratch, cache
    ):
        case = scratch()
        path = case / "atlas-0-of-1.jsonl"
        run_atlas(
            TINY, path, quick=True, strict=False, shard=(0, 1),
            inject={TINY.cells()[0].label: [
                {"kind": "explorer", "source": "fixture",
                 "claim": "solvable", "grade": "witness",
                 "detail": "forged"},
            ]},
        )
        fused = case / "atlas.jsonl"
        outcome = merge_shards([path], fused, strict=False)
        assert not outcome.ok
        assert outcome.verdicts["CONFLICT"] == 1
        rows = list(AtlasLog(fused).rows())
        assert rows[0]["verdict"] == "CONFLICT"

    def test_tampered_verdict_is_a_merge_error(self, scratch, cache):
        case = scratch()
        path = case / "atlas-0-of-1.jsonl"
        _sweep(TINY, path, cache, shard=(0, 1))
        _rewrite_row(
            path, 3, lambda row: row.update(verdict="proved-solvable")
        )
        with pytest.raises(AtlasMergeError, match="tampered"):
            merge_shards([path], case / "atlas.jsonl")

    def test_structurally_unusable_row_is_a_merge_error(
        self, scratch, cache
    ):
        case = scratch()
        path = case / "shard.jsonl"
        log = AtlasLog(path)
        log.reset()
        log.append({"index": 0, "not": "an atlas row"})
        with pytest.raises(AtlasMergeError, match="missing required"):
            merge_shards([path], case / "atlas.jsonl")

    def test_row_without_global_index_is_a_merge_error(
        self, scratch, cache
    ):
        case = scratch()
        path = case / "shard.jsonl"
        log = AtlasLog(path)
        log.reset()
        log.append({"unit_id": "u0"})
        with pytest.raises(AtlasMergeError, match="unusable global"):
            merge_shards([path], case / "atlas.jsonl")

    @pytest.mark.parametrize(
        "tail", [b"\xff\xfe not utf-8\n", b"\xff\xfe", b"not json\n"]
    )
    def test_damaged_final_line_is_tolerated_wear(
        self, tail, scratch, cache
    ):
        case = scratch()
        path = case / "atlas-0-of-1.jsonl"
        _sweep(TINY, path, cache, shard=(0, 1))
        with path.open("ab") as fh:
            fh.write(tail)
        fused = case / "atlas.jsonl"
        merge_shards([path], fused)
        assert fused.read_bytes() == _reference_bytes(TINY, scratch, cache)

    def test_mid_file_non_utf8_line_is_corrupt(self, scratch, cache):
        case = scratch()
        path = _corrupt_shard(case, cache)
        with pytest.raises(AtlasLogCorrupt, match="corrupt line 3"):
            merge_shards([path], case / "atlas.jsonl")

    def test_incomplete_shard_set_surfaces_as_gaps(self, scratch, cache):
        case = scratch()
        path = case / "atlas-0-of-2.jsonl"
        _sweep(TINY, path, cache, shard=(0, 2))
        with pytest.raises(AtlasMergeError, match="missing global"):
            merge_shards([path], case / "atlas.jsonl")

    def test_empty_inputs_are_a_merge_error(self, scratch, cache):
        case = scratch()
        path = case / "shard.jsonl"
        AtlasLog(path).reset()
        with pytest.raises(AtlasMergeError, match="nothing to merge"):
            merge_shards([path], case / "atlas.jsonl")

    def test_output_colliding_with_an_input_is_refused(
        self, scratch, cache
    ):
        case = scratch()
        path = case / "atlas-0-of-1.jsonl"
        _sweep(TINY, path, cache, shard=(0, 1))
        with pytest.raises(AtlasMergeError, match="collides"):
            merge_shards([path], path)


class TestShardSelector:
    def test_parse_shard_accepts_index_slash_count(self):
        assert parse_shard("0/3") == (0, 3)
        assert parse_shard("2/5") == (2, 5)

    @pytest.mark.parametrize("text", ["0/0", "3/2", "x/y", "1", "1/",
                                      "/3", "-1/3"])
    def test_parse_shard_rejects_bad_selectors(self, text):
        with pytest.raises(ConfigurationError):
            parse_shard(text)

    def test_run_atlas_rejects_out_of_range_shard(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_atlas(TINY, tmp_path / "log.jsonl", quick=True,
                      shard=(3, 2))
        with pytest.raises(ConfigurationError):
            run_atlas(TINY, tmp_path / "log.jsonl", quick=True,
                      shard=(0, 0))


class TestCLI:
    def test_sharded_sweep_merge_render_roundtrip(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for index in range(2):
            code = main([
                "atlas", "--max-n", "3", "--explore-max-n", "0",
                "--shard", f"{index}/2",
            ])
            assert code == 0
        out = capsys.readouterr().out
        assert "(shard 0/2)" in out and "(shard 1/2)" in out
        # --log left at its default gets the per-shard name.
        assert (tmp_path / "atlas-0-of-2.jsonl").exists()
        assert (tmp_path / "atlas-1-of-2.jsonl").exists()

        code = main([
            "atlas", "merge",
            str(tmp_path / "atlas-0-of-2.jsonl"),
            str(tmp_path / "atlas-1-of-2.jsonl"),
            "--out", str(tmp_path / "fused.jsonl"),
        ])
        assert code == 0
        assert "merged 24 rows from 2 shard log(s)" in (
            capsys.readouterr().out
        )

        code = main([
            "atlas", "--max-n", "3", "--explore-max-n", "0",
            "--log", str(tmp_path / "unsharded.jsonl"),
        ])
        assert code == 0
        assert (tmp_path / "fused.jsonl").read_bytes() == (
            tmp_path / "unsharded.jsonl"
        ).read_bytes()

    def test_merge_without_inputs_is_an_error(self, tmp_path, capsys):
        code = main(["atlas", "merge", "--out",
                     str(tmp_path / "fused.jsonl")])
        assert code == 2
        assert "at least one shard log" in capsys.readouterr().err

    def test_merge_conflict_prints_both_rows_and_fails(
        self, tmp_path, capsys
    ):
        code = main([
            "atlas", "--max-n", "3", "--explore-max-n", "0",
            "--log", str(tmp_path / "a.jsonl"), "--shard", "0/1",
        ])
        assert code == 0
        forged = tmp_path / "b.jsonl"
        forged.write_bytes((tmp_path / "a.jsonl").read_bytes())
        row = _rewrite_row(
            forged, 0, lambda r: r.update(algorithm="forged")
        )
        code = main([
            "atlas", "merge", str(tmp_path / "a.jsonl"), str(forged),
            "--out", str(tmp_path / "fused.jsonl"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "ATLAS CONFLICT" in captured.err
        assert canonical_json(row) in captured.err

    @pytest.mark.parametrize("action", ["merge", "render"])
    def test_corrupt_log_is_an_error_not_a_traceback(
        self, action, scratch, cache, capsys
    ):
        case = scratch()
        path = _corrupt_shard(case, cache)
        argv = (
            ["atlas", "merge", str(path), "--out", str(case / "out.jsonl")]
            if action == "merge"
            else ["atlas", "render", "--log", str(path)]
        )
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "corrupt line 3" in err

    def test_bad_shard_selector_is_rejected(self, tmp_path, capsys):
        code = main([
            "atlas", "--max-n", "3", "--explore-max-n", "0",
            "--log", str(tmp_path / "atlas.jsonl"),
            "--shard", "2/2",
        ])
        assert code == 2
        assert "bad shard" in capsys.readouterr().err
