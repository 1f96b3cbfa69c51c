"""The cost models of analysis.complexity, pinned against measured runs."""

import pytest

from repro.adversaries.generic import RandomByzantineAdversary
from repro.analysis.complexity import (
    CostEstimate,
    dls_all_decided_bound,
    eig_level_nodes,
    eig_rounds,
    eig_tree_nodes,
    phase_king_rounds,
    restricted_all_decided_bound,
    transform_decision_round,
)
from repro.classic.eig import EIGSpec
from repro.classic.phase_king import PhaseKingSpec
from repro.classic.runner import classic_factory
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.homonyms.transform import transform_factory, transform_horizon
from repro.psync.dls_homonyms import dls_factory
from repro.psync.restricted import restricted_factory
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil
from repro.sim.runner import run_agreement


class TestClassicModels:
    @pytest.mark.parametrize("ell,t", [(4, 1), (7, 2), (10, 3)])
    def test_eig_round_model_matches_measurement(self, ell, t):
        spec = EIGSpec(ell, t, BINARY)
        params = SystemParams(n=ell, ell=ell, t=t)
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(ell, ell),
            factory=classic_factory(spec),
            proposals={k: k % 2 for k in range(ell - t)},
            byzantine=tuple(range(ell - t, ell)),
            max_rounds=spec.max_rounds + 2,
        )
        # 0-indexed last decision round = rounds - 1.
        assert result.verdict.last_decision_round == eig_rounds(t) - 1

    @pytest.mark.parametrize("ell,t", [(5, 1), (9, 2)])
    def test_phase_king_round_model(self, ell, t):
        spec = PhaseKingSpec(ell, t, BINARY)
        params = SystemParams(n=ell, ell=ell, t=t)
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(ell, ell),
            factory=classic_factory(spec),
            proposals={k: k % 2 for k in range(ell - t)},
            byzantine=tuple(range(ell - t, ell)),
            max_rounds=spec.max_rounds + 2,
        )
        assert result.verdict.last_decision_round == phase_king_rounds(t) - 1

    def test_eig_tree_node_formula(self):
        # ell=4, t=1: levels 0..2 -> 1 + 4 + 12 = 17 nodes.
        assert eig_tree_nodes(4, 1) == 17
        assert eig_level_nodes(4, 0) == 1
        assert eig_level_nodes(4, 1) == 4
        assert eig_level_nodes(4, 2) == 12

    def test_eig_state_never_exceeds_tree_bound(self):
        spec = EIGSpec(4, 1, BINARY)
        params = SystemParams(n=4, ell=4, t=1)
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(4, 4),
            factory=classic_factory(spec),
            proposals={k: k % 2 for k in range(3)},
            byzantine=(3,),
            adversary=RandomByzantineAdversary(seed=1),
            max_rounds=spec.max_rounds + 1,
        )
        for proc in result.processes:
            if proc is not None:
                assert len(proc.state.tree) <= eig_tree_nodes(4, 1)


class TestTransformModel:
    @pytest.mark.parametrize("ell,t,n", [(4, 1, 6), (7, 2, 9)])
    def test_decision_round_formula_exact(self, ell, t, n):
        spec = EIGSpec(ell, t, BINARY)
        params = SystemParams(n=n, ell=ell, t=t)
        byz = tuple(range(n - t, n))
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(n, ell),
            factory=transform_factory(spec),
            proposals={k: k % 2 for k in range(n - t)},
            byzantine=byz,
            max_rounds=transform_horizon(spec),
        )
        assert result.verdict.last_decision_round == \
            transform_decision_round(spec.max_rounds)


class TestPsyncBounds:
    @pytest.mark.parametrize("gst", [0, 16])
    def test_dls_bound_is_sound(self, gst):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(7, 6),
            factory=dls_factory(params, BINARY),
            proposals={k: k % 2 for k in range(6)},
            byzantine=(6,),
            adversary=RandomByzantineAdversary(seed=2),
            timing=BasicPsync(SilenceUntil(gst)) if gst else None,
            max_rounds=dls_all_decided_bound(params, gst) + 8,
        )
        assert result.verdict.ok
        assert result.verdict.last_decision_round <= \
            dls_all_decided_bound(params, gst)

    @pytest.mark.parametrize("gst", [0, 16])
    def test_restricted_bound_is_sound(self, gst):
        params = SystemParams(
            n=4, ell=2, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
            numerate=True, restricted=True,
        )
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(4, 2),
            factory=restricted_factory(params, BINARY),
            proposals={k: k % 2 for k in range(3)},
            byzantine=(3,),
            timing=BasicPsync(SilenceUntil(gst)) if gst else None,
            max_rounds=restricted_all_decided_bound(params, gst) + 8,
        )
        assert result.verdict.ok
        assert result.verdict.last_decision_round <= \
            restricted_all_decided_bound(params, gst)

    def test_message_budget_covers_measurement(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        estimate = CostEstimate.for_dls(params, 0)
        result = run_agreement(
            params=params,
            assignment=balanced_assignment(7, 6),
            factory=dls_factory(params, BINARY),
            proposals={k: k % 2 for k in range(6)},
            byzantine=(6,),
            max_rounds=estimate.rounds,
        )
        assert result.verdict.ok
        assert result.metrics.correct_messages <= estimate.correct_messages
