"""Cross-engine equivalence and "continue running" semantics.

Every execution loop in the package is (or pins against) the unified
kernel: :class:`~repro.sim.kernel.ExecutionKernel` under a
:class:`~repro.sim.kernel.TimingModel`, its legacy facade
:class:`~repro.sim.network.RoundEngine`, the pre-fabric differential
oracle :class:`~repro.sim.network.ReferenceRoundEngine`, and the two
delay loops (:class:`~repro.sim.delay.ReferenceDelaySimulator`, the
per-message tick loop, vs the kernel's
:class:`~repro.sim.kernel.DelayBased` model).  On a punctual network
they must all produce byte-identical traces -- the executable form of
the paper's Section 2 equivalence claim -- and the kernel must match
the reference receiver by receiver (inboxes, traces, verdicts *and*
the exact delivery counts) under every timing model, topology, drop
schedule and adversary combination.  Per the paper's algorithms
("decide v, but continue running the algorithm"), decided processes
must keep participating so laggards can still finish.
"""

import pytest

from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.sim.adversary import NullAdversary
from repro.sim.delay import (
    AlwaysBoundedUnknownDelays,
    ReferenceDelaySimulator,
    run_delay_execution,
)
from repro.sim.kernel import BasicPsync, ExecutionKernel
from repro.sim.metrics import metrics_from_deliveries
from repro.sim.network import ReferenceRoundEngine, RoundEngine
from repro.sim.partial import (
    ExplicitDrops,
    PartitionSchedule,
    RandomDrops,
    SilenceUntil,
)
from repro.sim.process import EchoProcess
from repro.sim.runner import make_processes
from repro.sim.topology import DirectedTopology
from repro.experiments.workloads import delay_policy_battery


def build_processes(params, assignment, byz):
    proposals = {k: k % 2 for k in range(params.n) if k not in byz}
    return make_processes(
        dls_factory(params, BINARY), assignment, proposals, byz
    ), proposals


def canonical(trace):
    return [
        (
            r.round_no,
            sorted(r.payloads.items(), key=repr),
            sorted(
                (b, sorted(pr.items(), key=repr))
                for b, pr in r.emissions.items()
            ),
            sorted(r.decisions.items(), key=repr),
        )
        for r in trace
    ]


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_round_engine_equals_punctual_delay_engine(self, seed):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        assignment = balanced_assignment(7, 6)
        byz = (6,)
        rounds = dls_horizon(params, 0)

        procs_a, _ = build_processes(params, assignment, byz)
        engine = RoundEngine(
            params=params, assignment=assignment, processes=procs_a,
            byzantine=byz, adversary=RandomByzantineAdversary(seed=seed),
        )
        engine.run(max_rounds=rounds, stop_when_all_decided=True)

        procs_b, _ = build_processes(params, assignment, byz)
        result = run_delay_execution(
            params, assignment, procs_b,
            AlwaysBoundedUnknownDelays(true_delta=3, seed=seed),
            byzantine=byz,
            adversary=RandomByzantineAdversary(seed=seed),
            max_rounds=rounds,
        )

        assert canonical(engine.trace) == canonical(result.trace)
        assert [p.decision for p in procs_a if p] == \
               [p.decision for p in procs_b if p]


class TestDelayKernelMatchesTickLoop:
    """Kernel ``DelayBased`` vs the pre-kernel per-message tick loop.

    Across the delay-policy battery and full-algorithm runs, the
    kernel's per-round late-delta stamping must reproduce the tick
    loop's executions exactly: traces, decisions, tick counts, and the
    loss set (restricted to correct recipients -- the tick loop also
    logged late messages addressed to Byzantine slots, which have no
    receiving process and are unobservable).
    """

    @pytest.mark.parametrize(
        "policy_name",
        [name for name, _ in delay_policy_battery()],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_traces_decisions_and_losses(self, policy_name, seed):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        assignment = balanced_assignment(7, 6)
        byz = (6,)
        policy = dict(delay_policy_battery(seed))[policy_name]
        rounds = dls_horizon(params, 16)

        procs_ref, _ = build_processes(params, assignment, byz)
        reference = ReferenceDelaySimulator(
            params, assignment, procs_ref, policy, byzantine=byz,
            adversary=RandomByzantineAdversary(seed=seed),
        )
        ref_result = reference.run(max_rounds=rounds)

        procs_k, _ = build_processes(params, assignment, byz)
        kernel_result = run_delay_execution(
            params, assignment, procs_k, policy, byzantine=byz,
            adversary=RandomByzantineAdversary(seed=seed),
            max_rounds=rounds,
        )

        assert canonical(ref_result.trace) == canonical(kernel_result.trace)
        assert [p.decision for p in procs_ref if p] == \
               [p.decision for p in procs_k if p]
        assert ref_result.ticks_executed == kernel_result.ticks_executed
        assert ref_result.rounds_executed == kernel_result.rounds_executed
        byz_set = set(byz)
        assert sorted(kernel_result.dropped) == sorted(
            drop for drop in ref_result.dropped if drop[2] not in byz_set
        )

    def test_without_adversary(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        assignment = balanced_assignment(7, 6)
        byz = (6,)
        policy = dict(delay_policy_battery(3))["eventual-d2-gst24"]
        rounds = dls_horizon(params, 16)

        procs_ref, _ = build_processes(params, assignment, byz)
        ref_result = ReferenceDelaySimulator(
            params, assignment, procs_ref, policy, byzantine=byz,
        ).run(max_rounds=rounds)

        procs_k, _ = build_processes(params, assignment, byz)
        kernel_result = run_delay_execution(
            params, assignment, procs_k, policy, byzantine=byz,
            max_rounds=rounds,
        )

        assert canonical(ref_result.trace) == canonical(kernel_result.trace)
        assert ref_result.ticks_executed == kernel_result.ticks_executed
        byz_set = set(byz)
        assert sorted(kernel_result.dropped) == sorted(
            drop for drop in ref_result.dropped if drop[2] not in byz_set
        )


def _fabric_scenarios():
    """(name, topology factory, schedule factory, adversary factory)."""
    return [
        ("clean", lambda: None, lambda: None, NullAdversary),
        ("byz", lambda: None, lambda: None,
         lambda: RandomByzantineAdversary(seed=5)),
        ("directed", lambda: DirectedTopology({0: {1, 2, 3}, 2: {0, 5, 6}}),
         lambda: None, lambda: RandomByzantineAdversary(seed=5)),
        ("silence", lambda: None, lambda: SilenceUntil(4),
         lambda: RandomByzantineAdversary(seed=5)),
        ("partition", lambda: None,
         lambda: PartitionSchedule(5, {0, 1, 2}, {3, 4}),
         lambda: RandomByzantineAdversary(seed=5)),
        ("random-drops", lambda: None,
         lambda: RandomDrops(gst=6, p=0.5, seed=3),
         lambda: RandomByzantineAdversary(seed=5)),
        ("explicit", lambda: None,
         lambda: ExplicitDrops({(0, 1, 2), (1, 0, 3), (2, 4, 0)}),
         lambda: RandomByzantineAdversary(seed=5)),
        ("kitchen-sink", lambda: DirectedTopology({1: {0, 2, 4, 6}}),
         lambda: RandomDrops(gst=5, p=0.4, seed=9),
         lambda: RandomByzantineAdversary(seed=5)),
    ]


class TestFabricMatchesReference:
    """Kernel and legacy facade vs the pre-fabric per-receiver loop.

    Three engines run every scenario of the grid: the kernel built
    directly with a :class:`BasicPsync` timing model, the legacy
    :class:`RoundEngine` constructor (which must build the identical
    kernel), and the pre-refactor :class:`ReferenceRoundEngine` oracle.
    All three must agree byte for byte.
    """

    N, ELL, BYZ = 7, 6, (6,)

    def _engines(self, topo_fn, sched_fn, adv_fn, numerate, procs_fn):
        params = SystemParams(
            n=self.N, ell=self.ELL, t=1, numerate=numerate,
            synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        )
        assignment = balanced_assignment(self.N, self.ELL)

        def kernel_direct(**kwargs):
            return ExecutionKernel(
                params=kwargs["params"],
                assignment=kwargs["assignment"],
                processes=kwargs["processes"],
                byzantine=kwargs["byzantine"],
                adversary=kwargs["adversary"],
                timing=BasicPsync(kwargs["drop_schedule"],
                                  kwargs["topology"]),
            )

        engines = []
        for build in (kernel_direct, RoundEngine, ReferenceRoundEngine):
            procs = procs_fn(params, assignment)
            engines.append((build(
                params=params, assignment=assignment, processes=procs,
                byzantine=self.BYZ, adversary=adv_fn(),
                drop_schedule=sched_fn(), topology=topo_fn(),
            ), procs))
        return engines

    @pytest.mark.parametrize("numerate", [False, True])
    @pytest.mark.parametrize(
        "name,topo_fn,sched_fn,adv_fn", _fabric_scenarios(),
        ids=[s[0] for s in _fabric_scenarios()],
    )
    def test_inboxes_traces_and_deliveries(
        self, name, topo_fn, sched_fn, adv_fn, numerate
    ):
        """Receiver-by-receiver inbox equality on echo processes."""
        def echo_procs(params, assignment):
            return [
                None if k in self.BYZ
                else EchoProcess(assignment.identifier_of(k))
                for k in range(params.n)
            ]

        (kernel, procs_k), (fabric, procs_f), (reference, procs_r) = \
            self._engines(topo_fn, sched_fn, adv_fn, numerate, echo_procs)
        rounds = 8
        kernel.run(max_rounds=rounds, stop_when_all_decided=False)
        fabric.run(max_rounds=rounds, stop_when_all_decided=False)
        reference.run(max_rounds=rounds, stop_when_all_decided=False)

        assert canonical(kernel.trace) == canonical(reference.trace)
        assert canonical(fabric.trace) == canonical(reference.trace)
        assert kernel.deliveries == reference.deliveries
        assert fabric.deliveries == reference.deliveries
        assert metrics_from_deliveries(kernel.deliveries) == \
               metrics_from_deliveries(reference.deliveries)
        for k in fabric.correct:
            for r in range(rounds):
                want = procs_r[k].received[r]
                for procs in (procs_k, procs_f):
                    got = procs[k].received[r]
                    assert got.numerate == want.numerate == numerate
                    assert got.messages() == want.messages(), (
                        f"{name}: inbox of process {k} differs in round {r}"
                    )

    @pytest.mark.parametrize(
        "name,topo_fn,sched_fn,adv_fn", _fabric_scenarios(),
        ids=[s[0] for s in _fabric_scenarios()],
    )
    def test_dls_verdicts_and_decisions(self, name, topo_fn, sched_fn, adv_fn):
        """Full-algorithm runs: byte-identical traces and decisions."""
        def dls_procs(params, assignment):
            procs, _ = build_processes(params, assignment, self.BYZ)
            return procs

        (kernel, procs_k), (fabric, procs_f), (reference, procs_r) = \
            self._engines(topo_fn, sched_fn, adv_fn, False, dls_procs)
        rounds = dls_horizon(fabric.params, 8)
        kernel.run(max_rounds=rounds, stop_when_all_decided=False)
        fabric.run(max_rounds=rounds, stop_when_all_decided=False)
        reference.run(max_rounds=rounds, stop_when_all_decided=False)

        assert canonical(kernel.trace) == canonical(reference.trace)
        assert canonical(fabric.trace) == canonical(reference.trace)
        assert kernel.deliveries == reference.deliveries
        assert fabric.deliveries == reference.deliveries
        decisions_r = [(p.decision, p.decision_round)
                       for p in procs_r if p is not None]
        assert [(p.decision, p.decision_round)
                for p in procs_k if p is not None] == decisions_r
        assert [(p.decision, p.decision_round)
                for p in procs_f if p is not None] == decisions_r

    def test_exact_deliveries_under_directed_topology(self):
        """The fabric counts cut edges out instead of assuming full fanout."""
        params = SystemParams(n=4, ell=4, t=0)
        assignment = balanced_assignment(4, 4)
        # Receiver 0 hears only sender 1; everyone else hears everyone.
        topology = DirectedTopology({0: {1}})
        procs = [EchoProcess(assignment.identifier_of(k)) for k in range(4)]
        engine = RoundEngine(
            params=params, assignment=assignment, processes=procs,
            topology=topology,
        )
        engine.run(max_rounds=3, stop_when_all_decided=False)
        for d in engine.deliveries:
            # Receiver 0: self + sender 1 = 2; receivers 1..3: 4 each.
            assert d.correct_broadcasts == 4
            assert d.correct_deliveries == 2 + 3 * 4
        metrics = metrics_from_deliveries(engine.deliveries)
        assert metrics.correct_messages == 3 * (2 + 12)
        # The old uniform-fanout estimate would have claimed 3 * 16.
        assert metrics.correct_messages < 3 * 16


class TestContinueRunning:
    def test_decided_processes_keep_broadcasting(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        assignment = balanced_assignment(7, 6)
        byz = (6,)
        processes, _ = build_processes(params, assignment, byz)
        engine = RoundEngine(
            params=params, assignment=assignment, processes=processes,
            byzantine=byz,
        )
        horizon = dls_horizon(params, 0)
        engine.run(max_rounds=horizon + 16, stop_when_all_decided=False)

        first_decision = min(engine.trace.decision_rounds().values())
        # Every correct process still broadcast in every round after its
        # decision -- "continue running the algorithm".
        for record in engine.trace:
            if record.round_no > first_decision:
                assert len(record.payloads) == 6

    def test_no_second_decision_value(self):
        params = SystemParams(
            n=7, ell=6, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
        )
        assignment = balanced_assignment(7, 6)
        processes, _ = build_processes(params, assignment, (6,))
        engine = RoundEngine(
            params=params, assignment=assignment, processes=processes,
            byzantine=(6,),
        )
        engine.run(max_rounds=dls_horizon(params, 0) + 24,
                   stop_when_all_decided=False)
        # First decisions are final: the recorded decision never changes.
        decisions = engine.trace.decisions()
        for k, proc in enumerate(processes):
            if proc is not None and proc.decided:
                assert proc.decision == decisions[k]
