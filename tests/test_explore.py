"""The bounded adversary-strategy explorer (:mod:`repro.explore`).

Covers, fast enough for tier-1:

* engine checkpoint/restore (the DFS branching primitive);
* :func:`canonical_state_key` digests (the transposition/symmetry key);
* violation discovery at both just-past-the-bound scopes -- strategies
  *no handcrafted adversary in the attack library finds* -- plus the
  replay of each witness through the ordinary execution pipeline;
* a pinned explorer-found strategy replayed as a plain scripted
  adversary through :func:`run_agreement` (the regression the ISSUE
  asks for: the violating trace survives as an ordinary test);
* the campaign integration of ``"explore"`` units.

The full tightness matrix (both sides of both bounds, exhaustive
certificates included) is marked ``exhaustive`` and runs in
``make test-all``.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.bounds import solvable, tightness_pairs
from repro.core.canonical import canonical_state_key
from repro.core.errors import ConfigurationError
from repro.core.identity import IdentityAssignment, balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.classic.eig import EIGSpec
from repro.experiments.campaign import (
    DemonstrationUnit,
    ExploreUnit,
    enumerate_explore_units,
    execute_unit,
    run_campaign,
)
from repro.explore import (
    StrategyScript,
    StrategyTreeAdversary,
    default_scenario,
    explore,
    explore_battery,
    explore_slice_keys,
    replay_witness,
)
from repro.homonyms.transform import transform_factory
from repro.psync.dls_homonyms import DLSHomonymProcess
from repro.sim.kernel import ExecutionKernel
from repro.sim.process import EchoProcess
from repro.sim.runner import run_agreement

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS


# ----------------------------------------------------------------------
# Engine checkpoint / restore
# ----------------------------------------------------------------------
class TestEngineCheckpoint:
    def _engine(self):
        params = SystemParams(n=3, ell=3, t=0)
        assignment = balanced_assignment(3, 3)
        processes = [EchoProcess(i + 1) for i in range(3)]
        return ExecutionKernel(params, assignment, processes)

    def test_restore_rewinds_and_rebranches(self):
        engine = self._engine()
        engine.step()
        checkpoint = engine.checkpoint()
        engine.step()
        engine.step()
        assert engine.round_no == 3
        engine.restore(checkpoint)
        assert engine.round_no == 1
        assert len(engine.trace) == 1
        assert len(engine.deliveries) == 1
        # The continuation after restore matches a straight run.
        engine.step()
        assert sorted(engine.processes[0].received) == [0, 1]

    def test_checkpoint_is_reusable_and_isolated(self):
        engine = self._engine()
        checkpoint = engine.checkpoint()
        for _ in range(2):  # two divergent branches off one snapshot
            engine.restore(checkpoint)
            engine.step()
            assert engine.round_no == 1
        # Branch mutations never leak into the snapshot's processes.
        assert checkpoint.processes[0].received == {}

    def test_split_phase_equals_step(self):
        one, two = self._engine(), self._engine()
        record_a = one.step()
        record_b = two.finish_round(two.compose_round())
        assert record_a == record_b


# ----------------------------------------------------------------------
# Canonical state digests
# ----------------------------------------------------------------------
class TestCanonicalStateKey:
    def test_equal_across_deepcopy(self):
        spec = EIGSpec(4, 1, BINARY)
        proc = transform_factory(spec)(1, 0)
        assert canonical_state_key(proc) == canonical_state_key(
            copy.deepcopy(proc)
        )

    def test_separates_distinct_states(self):
        spec = EIGSpec(4, 1, BINARY)
        factory = transform_factory(spec)
        assert canonical_state_key(factory(1, 0)) != canonical_state_key(
            factory(1, 1)
        )

    def test_mutable_protocol_state_digests_equal(self):
        params = SystemParams(n=4, ell=4, t=1, synchrony=PSYNC)
        a = DLSHomonymProcess(params, BINARY, 2, 1)
        b = copy.deepcopy(a)
        a.locks[0] = 3
        assert canonical_state_key(a) != canonical_state_key(b)
        b.locks[0] = 3
        assert canonical_state_key(a) == canonical_state_key(b)

    def test_cycles_degrade_instead_of_recursing(self):
        loop = []
        loop.append(loop)
        assert "cycle" in canonical_state_key(loop)


# ----------------------------------------------------------------------
# Violation discovery at the frontier (fast side)
# ----------------------------------------------------------------------
class TestFrontierViolations:
    def test_sync_n3_finds_agreement_violation(self):
        # n = ell = 3t: Theorem 3's bound is violated; the explorer must
        # find a strategy the handcrafted attack suite misses (the
        # equivocator leaves this configuration agreeing -- see the
        # exhaustive matrix for the certificate side).
        scenario = default_scenario(SystemParams(n=3, ell=3, t=1))
        certificate = explore(scenario)
        assert certificate.found_violation
        assert certificate.violation.startswith("agreement")
        assert certificate.consistent_with(False)
        assert not certificate.consistent_with(True)
        # The witness replays through the ordinary pipeline and pins
        # the same failing verdict.
        result = replay_witness(scenario, certificate.witness)
        assert not result.verdict.ok
        assert result.verdict.violated("agreement")

    def test_psync_n3_finds_partition_violation(self):
        # n = ell = 3t realises ell = (n + 3t) / 2, the partially
        # synchronous boundary (Theorem 13).  The witness is a live
        # re-derivation of the Figure 4 shape: one-sided ghost faces
        # plus a network cut.
        scenario = default_scenario(
            SystemParams(n=3, ell=3, t=1, synchrony=PSYNC)
        )
        certificate = explore(scenario)
        assert certificate.found_violation
        assert certificate.violation.startswith("agreement")
        assert certificate.witness.cut is not None
        result = replay_witness(scenario, certificate.witness)
        assert not result.verdict.ok
        assert result.verdict.violated("agreement")

    def test_witness_script_round_trips_to_json(self):
        scenario = default_scenario(SystemParams(n=3, ell=3, t=1))
        certificate = explore(scenario)
        data = certificate.to_dict()
        assert data["outcome"] == "violation"
        assert data["witness"]["emissions"]
        assert data["stats"]["nodes_expanded"] > 0


# ----------------------------------------------------------------------
# Replay regression: a pinned explorer-found strategy
# ----------------------------------------------------------------------
class TestPinnedWitnessReplay:
    #: The strategy the explorer discovered at n = ell = 3, t = 1
    #: (synchronous T(EIG), inputs 0/1, Byzantine slot 2).  Rounds 2
    #: and 5 equivocate inside the simulated EIG; round 7 feeds each
    #: victim a decide face matching its poisoned resolution.  Pinned
    #: literally so the violating trace survives as a regression test
    #: against the plain engine, independent of the explorer.
    SCRIPT = StrategyScript(emissions={
        2: {2: {0: (("T-run", 0, ("eig", 1, (((), 1),))),),
                1: (("T-run", 0, ("eig", 1, (((), 1),))),)}},
        5: {2: {0: (("T-run", 1, ("eig", 2, (((1,), 0), ((2,), 1)))),),
                1: (("T-run", 1, ("eig", 2, (((1,), 0), ((3,), 1)))),)}},
        7: {2: {0: (("T-decide", 2, 1),),
                1: (("T-decide", 2, 0),)}},
    })

    def test_pinned_strategy_breaks_agreement(self):
        spec = EIGSpec(3, 1, BINARY, unchecked=True)
        result = run_agreement(
            params=SystemParams(n=3, ell=3, t=1),
            assignment=IdentityAssignment(3, (1, 2, 3)),
            factory=transform_factory(spec, unchecked=True),
            proposals={0: 0, 1: 1},
            byzantine=(2,),
            adversary=StrategyTreeAdversary(self.SCRIPT),
            max_rounds=12,
            require_termination=False,
        )
        assert result.verdict.violated("agreement")
        assert result.verdict.decisions == {0: 1, 1: 0}

    def test_pinned_strategy_is_model_legal(self):
        # The same script passes normalize_emissions under the
        # restricted model too: one message per recipient per round.
        for per_slot in self.SCRIPT.emissions.values():
            for per_recipient in per_slot.values():
                assert all(
                    len(batch) == 1 for batch in per_recipient.values()
                )


# ----------------------------------------------------------------------
# Scenario construction and guard rails
# ----------------------------------------------------------------------
class TestScenarioConstruction:
    def test_default_modes_follow_synchrony(self):
        sync = default_scenario(SystemParams(n=3, ell=3, t=1))
        assert not sync.persistent_faces
        assert sync.cuts == (None,)
        psync = default_scenario(
            SystemParams(n=3, ell=3, t=1, synchrony=PSYNC)
        )
        assert psync.persistent_faces
        assert None in psync.cuts
        assert any(c is not None for c in psync.cuts)
        # Partition ghosts cover each side of each cut.
        assert any(p.visible is not None for p in psync.ghost_plans)

    def test_shallow_depth_disarms_termination_check(self):
        shallow = default_scenario(SystemParams(n=3, ell=3, t=1), depth=3)
        assert not shallow.require_termination
        deep = default_scenario(SystemParams(n=3, ell=3, t=1))
        assert deep.require_termination

    def test_branching_cap_raises(self):
        scenario = default_scenario(SystemParams(n=4, ell=4, t=1), depth=6)
        scenario.max_children = 8  # far below the real branching factor
        with pytest.raises(ConfigurationError):
            explore(scenario)

    def test_scope_guard_rejects_large_psync(self):
        with pytest.raises(ConfigurationError):
            default_scenario(
                SystemParams(n=9, ell=8, t=1, synchrony=PSYNC)
            )

    def test_tightness_pairs_sit_on_the_boundary(self):
        for pair in tightness_pairs():
            assert not solvable(pair.outside)
            assert solvable(pair.inside)
        psync_pair = tightness_pairs()[1]
        p = psync_pair.outside
        assert 2 * p.ell == p.n + 3 * p.t  # exactly ell = (n + 3t) / 2

    def test_shallow_certificate_counts_pruning(self):
        # A depth-limited sweep is still exhaustive for its depth and
        # must report the raw-tree comparison its pruning achieved.
        scenario = default_scenario(SystemParams(n=3, ell=3, t=1), depth=4)
        scenario.proposals = {0: 0, 1: 0}  # unanimity: no violation here
        certificate = explore(scenario)
        if certificate.found_violation:  # validity break would be fine too
            pytest.skip("found a violation even at depth 4")
        stats = certificate.stats
        assert stats.raw_tree_size >= stats.nodes_expanded
        assert stats.transposition_hits > 0


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
class TestExploreCampaign:
    def test_unit_grid_shards_the_frontier(self):
        units = enumerate_explore_units(seed=0, quick=True)
        assert all(u.kind == "explore" for u in units)
        labels = {u.label for u in units}
        assert len(labels) == len(explore_battery())
        # One unit per (assignment, placement) pair of each cell.
        for label, params in explore_battery():
            expected = len(explore_slice_keys(params, quick=True))
            assert sum(1 for u in units if u.label == label) == expected

    def test_unit_ids_distinguish_kind_and_slice(self):
        params = SystemParams(n=3, ell=3, t=1, synchrony=PSYNC)
        a = ExploreUnit("x", params, 0, 0)
        b = ExploreUnit("x", params, 0, 1)
        c = DemonstrationUnit("x", params)
        assert len({a.unit_id, b.unit_id, c.unit_id}) == 3

    def test_execute_unit_runs_explore_kind(self):
        params = SystemParams(n=3, ell=3, t=1, synchrony=PSYNC)
        unit = ExploreUnit("explore psync violation", params, 0, 0)
        result = execute_unit(unit)
        assert result["kind"] == "explore"
        assert result["algorithm"] == "fig5-dls"
        assert result["demonstration"].startswith("explorer witness")
        assert result["demonstration_kind"] == "explorer"
        assert all(r["ok"] for r in result["records"])

    def test_campaign_folds_explore_cells(self):
        cells = [(
            "explore psync violation",
            SystemParams(n=3, ell=3, t=1, synchrony=PSYNC),
        )]
        report = run_campaign(cells=cells, unit_kind="explore", quick=True)
        assert report.all_consistent
        (cell,) = report.cell_results()
        assert not cell.predicted_solvable
        assert cell.demonstration
        assert cell.demonstration_kind == "explorer"
        assert cell.demonstration_checked


# ----------------------------------------------------------------------
# The tightness matrix (exhaustive tier)
# ----------------------------------------------------------------------
@pytest.mark.exhaustive
class TestTightnessMatrix:
    """Both sides of both bounds, machine-checked at small scope."""

    def test_sync_pair(self):
        pair = tightness_pairs()[0]
        outside = explore(default_scenario(pair.outside))
        assert outside.consistent_with(False), outside.summary()
        inside = explore(default_scenario(pair.inside))
        assert inside.consistent_with(True), inside.summary()
        # The acceptance bar: transposition/symmetry pruning must beat
        # raw branching by at least 10x at n = 4 (it beats it by many
        # orders of magnitude).
        assert inside.stats.pruning_factor >= 10
        assert inside.stats.raw_tree_size > 10 ** 9

    def test_psync_pair(self):
        pair = tightness_pairs()[1]
        outside = explore(default_scenario(pair.outside))
        assert outside.consistent_with(False), outside.summary()
        assert outside.witness.cut is not None
        inside = explore(default_scenario(pair.inside))
        assert inside.consistent_with(True), inside.summary()

    def test_sync_certificate_covers_unanimous_inputs(self):
        # Validity-side certificate: unanimity must survive every
        # strategy in the family just inside the bound.
        pair = tightness_pairs()[0]
        scenario = default_scenario(
            pair.inside,
            proposals={k: 0 for k in range(pair.inside.n - 1)},
        )
        certificate = explore(scenario)
        assert certificate.consistent_with(True), certificate.summary()
