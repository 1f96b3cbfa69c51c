"""Tests for the delay-based models and their basic-model simulation.

The paper's Section 2 equivalence, executed: round algorithms run
unchanged over tick-based networks with adversarial delays, late
messages become basic-model losses, and post-stabilisation everything
is punctual -- so Figure 5 / Figure 7 keep their guarantees.  The
round simulation runs on the unified kernel
(:func:`repro.sim.delay.run_delay_execution`).
"""


import pytest

from repro.core.errors import ConfigurationError
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY, check_agreement_properties
from repro.psync.dls_homonyms import DLSHomonymProcess, dls_horizon
from repro.psync.restricted import RestrictedNumerateProcess, restricted_horizon
from repro.sim.delay import (
    AlwaysBoundedUnknownDelays,
    EventuallyBoundedDelays,
    ReferenceDelaySimulator,
    equivalent_basic_gst,
    run_delay_execution,
)
from repro.sim.process import EchoProcess


def verdict_of(result, processes, correct, proposals):
    decisions = {k: processes[k].decision for k in correct
                 if processes[k].decided}
    rounds = {k: processes[k].decision_round for k in correct
              if processes[k].decided}
    return check_agreement_properties(
        proposals=proposals,
        decisions=decisions,
        decision_rounds=rounds,
        correct=correct,
        rounds_executed=len(result.trace),
    )


class TestDelayPolicies:
    def test_delta_validated(self):
        with pytest.raises(ConfigurationError):
            EventuallyBoundedDelays(delta=0, gst_tick=0)

    def test_post_gst_delays_within_delta(self):
        policy = EventuallyBoundedDelays(delta=4, gst_tick=20, seed=1)
        for tick in range(20, 60):
            for s in range(4):
                for q in range(4):
                    assert policy.delay(tick, s, q) < 4

    def test_pre_gst_delays_can_exceed_delta(self):
        policy = EventuallyBoundedDelays(delta=2, gst_tick=100,
                                         chaos_factor=5, seed=3)
        delays = {policy.delay(t, s, q)
                  for t in range(40) for s in range(3) for q in range(3)}
        assert max(delays) >= 2  # lateness actually happens

    def test_always_bounded_never_exceeds(self):
        policy = AlwaysBoundedUnknownDelays(true_delta=3, seed=2)
        for tick in range(50):
            assert policy.delay(tick, 0, 1) < 3

    def test_deterministic_per_seed(self):
        a = EventuallyBoundedDelays(delta=3, gst_tick=9, seed=5)
        b = EventuallyBoundedDelays(delta=3, gst_tick=9, seed=5)
        assert [a.delay(t, 0, 1) for t in range(30)] == \
               [b.delay(t, 0, 1) for t in range(30)]

    def test_equivalent_basic_gst(self):
        policy = EventuallyBoundedDelays(delta=4, gst_tick=10)
        assert equivalent_basic_gst(policy) == 3  # ceil(10/4)
        punctual = AlwaysBoundedUnknownDelays(true_delta=4)
        assert equivalent_basic_gst(punctual) == 0


class TestRoundSimulation:
    def make(self, n=3):
        params = SystemParams(n=n, ell=n, t=0)
        assignment = balanced_assignment(n, n)
        processes = [EchoProcess(assignment.identifier_of(k))
                     for k in range(n)]
        return params, assignment, processes

    def test_punctual_network_loses_nothing(self):
        params, assignment, procs = self.make()
        result = run_delay_execution(
            params, assignment, procs,
            AlwaysBoundedUnknownDelays(true_delta=3),
            max_rounds=5, stop_when_all_decided=False,
        )
        assert result.dropped == ()
        assert result.rounds_executed == 5
        assert result.ticks_executed == 15
        # Full inboxes every round.
        for r in range(5):
            assert len(procs[0].received[r]) == 3

    def test_late_messages_become_basic_model_losses(self):
        policy = EventuallyBoundedDelays(delta=2, gst_tick=20,
                                         chaos_factor=6, seed=11)
        params, assignment, procs = self.make()
        result = run_delay_execution(
            params, assignment, procs, policy,
            max_rounds=20, stop_when_all_decided=False,
        )
        assert result.dropped  # chaos did drop something
        gst_round = equivalent_basic_gst(policy)
        # The finiteness guarantee: no loss at or after the equivalent
        # basic-model GST round.
        assert result.last_lost_round() < gst_round

    def test_self_delivery_is_never_late(self):
        policy = EventuallyBoundedDelays(delta=2, gst_tick=50,
                                         chaos_factor=8, seed=4)
        params, assignment, procs = self.make()
        run_delay_execution(
            params, assignment, procs, policy,
            max_rounds=10, stop_when_all_decided=False,
        )
        for r in range(10):
            own = [m for m in procs[0].received[r] if m.sender_id == 1]
            assert own, f"round {r} lost the self-message"

    def test_kernel_matches_the_reference_tick_loop(self):
        policy = EventuallyBoundedDelays(delta=2, gst_tick=10,
                                         chaos_factor=5, seed=6)
        params, assignment, ref_procs = self.make()
        ref_result = ReferenceDelaySimulator(
            params, assignment, ref_procs, policy,
        ).run(max_rounds=8, stop_when_all_decided=False)

        _, _, kernel_procs = self.make()
        kernel_result = run_delay_execution(
            params, assignment, kernel_procs, policy,
            max_rounds=8, stop_when_all_decided=False,
        )
        assert ref_result.dropped  # the chaos window is exercised
        assert sorted(ref_result.dropped) == sorted(kernel_result.dropped)
        assert ref_result.ticks_executed == kernel_result.ticks_executed
        assert len(ref_result.trace) == len(kernel_result.trace)
        for a, b in zip(ref_result.trace, kernel_result.trace):
            assert (a.payloads, a.decisions) == (b.payloads, b.decisions)

    def test_kernel_matches_the_reference_with_a_byzantine_slot(self):
        policy = EventuallyBoundedDelays(delta=2, gst_tick=8,
                                         chaos_factor=3, seed=3)
        params = SystemParams(
            n=5, ell=3, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        )
        assignment = balanced_assignment(5, 3)
        byz = (4,)

        def processes():
            procs = [EchoProcess(assignment.identifier_of(k))
                     for k in range(5)]
            procs[4] = None
            return procs

        ref_result = ReferenceDelaySimulator(
            params, assignment, processes(), policy, byzantine=byz,
        ).run(max_rounds=10, stop_when_all_decided=False)
        kernel_result = run_delay_execution(
            params, assignment, processes(), policy, byzantine=byz,
            max_rounds=10, stop_when_all_decided=False,
        )
        assert kernel_result.rounds_executed == ref_result.rounds_executed
        assert kernel_result.ticks_executed == ref_result.ticks_executed
        assert [(r.round_no, r.payloads, r.emissions, r.decisions)
                for r in kernel_result.trace] == \
            [(r.round_no, r.payloads, r.emissions, r.decisions)
             for r in ref_result.trace]
        # The kernel records no losses at a Byzantine recipient.
        assert sorted(kernel_result.dropped) == sorted(
            drop for drop in ref_result.dropped if drop[2] not in byz
        )


class TestAlgorithmsOverDelayNetworks:
    """The equivalence payoff: psync algorithms unchanged over delays."""

    def test_fig5_over_eventually_bounded_delays(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        assignment = balanced_assignment(7, 6)
        byz = (6,)
        proposals = {k: k % 2 for k in range(6)}
        processes = [
            None if k in byz else DLSHomonymProcess(
                params, BINARY, assignment.identifier_of(k), proposals.get(k)
            )
            for k in range(7)
        ]
        policy = EventuallyBoundedDelays(delta=3, gst_tick=30,
                                         chaos_factor=4, seed=9)
        gst_round = equivalent_basic_gst(policy)
        result = run_delay_execution(
            params, assignment, processes, policy, byzantine=byz,
            max_rounds=dls_horizon(params, gst_round * 1 + 8),
        )
        correct = tuple(k for k in range(7) if k not in byz)
        verdict = verdict_of(result, processes, correct, proposals)
        assert verdict.ok, verdict.summary()
        assert result.last_lost_round() < gst_round

    def test_fig7_over_unknown_bound_delays(self):
        params = SystemParams(
            n=4, ell=2, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
            numerate=True, restricted=True,
        )
        assignment = balanced_assignment(4, 2)
        byz = (3,)
        proposals = {k: k % 2 for k in range(3)}
        processes = [
            None if k in byz else RestrictedNumerateProcess(
                params, BINARY, assignment.identifier_of(k), proposals.get(k)
            )
            for k in range(4)
        ]
        policy = AlwaysBoundedUnknownDelays(true_delta=5, seed=3)
        result = run_delay_execution(
            params, assignment, processes, policy, byzantine=byz,
            max_rounds=restricted_horizon(params, 0),
        )
        correct = tuple(k for k in range(4) if k not in byz)
        verdict = verdict_of(result, processes, correct, proposals)
        assert verdict.ok
        assert result.dropped == ()  # always-bounded: a synchronous run
