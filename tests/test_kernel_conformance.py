"""Cross-surface kernel conformance grid.

Every execution surface now drives :class:`~repro.sim.kernel.ExecutionKernel`;
each kept its pre-port loop as a frozen ``Reference*`` oracle in
:mod:`tests.oracles`.  This suite runs (surface x timing model x
topology x drop schedule x adversary mixture) pairs and asserts
byte-identical inboxes, traces,
:class:`~repro.sim.metrics.RoundDeliveries` and verdicts between the
kernelised surface and its oracle:

* Figure 1 scenario -- :class:`~repro.adversaries.scenario.ScenarioSystem`
  vs :class:`~tests.oracles.scenario.ReferenceScenarioSystem`;
* classic EIG / phase-king -- :func:`~repro.classic.runner.run_classic`
  vs :func:`~tests.oracles.classic.run_classic_reference`;
* the three broadcast primitives -- :mod:`repro.broadcast.runner` vs
  :mod:`tests.oracles.broadcast`;
* delay-based timing -- the kernel's
  :class:`~repro.sim.kernel.DelayBased` model vs the per-message tick
  loop (:class:`~tests.oracles.delay.ReferenceDelaySimulator`), and, where
  the oracle predates timing models (scenario), by replaying the
  kernel's logged losses through the oracle as
  :class:`~repro.sim.partial.ExplicitDrops`.

Test ids embed the timing-model family (``lockstep`` / ``basic-*`` /
``delay-*``) so CI can slice the grid with ``-k``.  Property tests
sample seeded random configurations via
:func:`~repro.core.canonical.stable_seed`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import RandomByzantineAdversary
from repro.adversaries.scenario import ScenarioSystem
from repro.broadcast.hosts import AuthenticatedBroadcastHost
from repro.broadcast.runner import (
    run_authenticated_broadcast,
    run_multiplicity_broadcast,
    run_reliable_broadcast,
)
from repro.classic.eig import EIGSpec
from repro.classic.phase_king import PhaseKingSpec
from repro.classic.runner import run_classic
from repro.core.canonical import stable_seed
from repro.core.identity import IdentityAssignment, balanced_assignment
from repro.core.params import SystemParams
from repro.core.problem import BINARY
from repro.homonyms.transform import transform_factory, transform_horizon
from repro.sim.kernel import BasicPsync, ComposedTiming, DelayBased, ExecutionKernel
from repro.sim.partial import (
    ExplicitDrops,
    PartitionSchedule,
    RandomDrops,
    SilenceUntil,
)
from repro.sim.process import EchoProcess
from repro.sim.runner import make_processes
from repro.experiments.workloads import delay_policy_battery
from tests.oracles import canonical
from tests.oracles.broadcast import (
    run_authenticated_broadcast_reference,
    run_multiplicity_broadcast_reference,
    run_reliable_broadcast_reference,
)
from tests.oracles.classic import run_classic_reference
from tests.oracles.delay import ReferenceDelaySimulator
from tests.oracles.network import ReferenceRoundEngine
from tests.oracles.scenario import ReferenceScenarioSystem


# ----------------------------------------------------------------------
# Shared grid axes and helpers
# ----------------------------------------------------------------------
#: Basic-model drop schedules: (timing-family id, schedule factory).
SCHEDULES = [
    ("lockstep", lambda: None),
    ("basic-silence", lambda: SilenceUntil(3)),
    ("basic-random", lambda: RandomDrops(gst=5, p=0.4, seed=11)),
    ("basic-explicit",
     lambda: ExplicitDrops({(0, 1, 2), (1, 0, 3), (2, 2, 0)})),
]

#: Byzantine mixtures: (id, adversary factory) -- factories because the
#: random adversary is stateful and each engine needs a fresh instance.
ADVERSARIES = [
    ("silent", lambda: None),
    ("random-byz", lambda: RandomByzantineAdversary(seed=5)),
]

SCHEDULE_IDS = [s[0] for s in SCHEDULES]


def basic_timing(schedule):
    """The kernel runners' timing model for an oracle's drop schedule."""
    return None if schedule is None else BasicPsync(schedule)
ADVERSARY_IDS = [a[0] for a in ADVERSARIES]

DELAY_POLICIES = ["punctual-d3", "eventual-d2-gst24"]


def scenario_factory(t):
    spec = EIGSpec(3 * t, t, BINARY, unchecked=True)
    return transform_factory(spec, unchecked=True), transform_horizon(spec)


def view_digest(outcome):
    return [
        (v.name, v.satisfied, v.detail,
         sorted(v.decisions.items(), key=repr))
        for v in outcome.views
    ]


def assert_scenario_conformance(kernel_outcome, reference_outcome):
    assert canonical(kernel_outcome.trace) == canonical(reference_outcome.trace)
    assert kernel_outcome.deliveries == reference_outcome.deliveries
    assert kernel_outcome.metrics == reference_outcome.metrics
    assert kernel_outcome.rounds_executed == reference_outcome.rounds_executed
    assert view_digest(kernel_outcome) == view_digest(reference_outcome)


def assert_result_conformance(kernel_result, reference_result):
    assert canonical(kernel_result.trace) == canonical(reference_result.trace)
    assert kernel_result.metrics == reference_result.metrics
    assert kernel_result.verdict.ok == reference_result.verdict.ok
    assert kernel_result.verdict.summary() == reference_result.verdict.summary()
    assert [
        (p.decision, p.decision_round)
        for p in kernel_result.processes if p is not None
    ] == [
        (p.decision, p.decision_round)
        for p in reference_result.processes if p is not None
    ]


def assert_broadcast_conformance(kernel_run, reference_run):
    assert canonical(kernel_run.trace) == canonical(reference_run.trace)
    assert kernel_run.deliveries == reference_run.deliveries
    assert kernel_run.metrics == reference_run.metrics
    assert kernel_run.rounds_executed == reference_run.rounds_executed
    for got, want in zip(
        kernel_run.correct_processes, reference_run.correct_processes
    ):
        assert got.accepts == want.accepts


# ----------------------------------------------------------------------
# Surface: Figure 1 scenario
# ----------------------------------------------------------------------
class TestScenarioConformance:
    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (7, 2)])
    @pytest.mark.parametrize("sched_name,sched_fn", SCHEDULES, ids=SCHEDULE_IDS)
    def test_views_traces_and_deliveries(self, n, t, sched_name, sched_fn):
        factory, horizon = scenario_factory(t)
        kernel_outcome = ScenarioSystem(n, t).run(
            factory, max_rounds=horizon, timing=basic_timing(sched_fn())
        )
        reference_outcome = ReferenceScenarioSystem(n, t).run(
            factory, max_rounds=horizon, drop_schedule=sched_fn()
        )
        assert_scenario_conformance(kernel_outcome, reference_outcome)

    @pytest.mark.parametrize("sched_name,sched_fn", SCHEDULES, ids=SCHEDULE_IDS)
    def test_inboxes_over_view_wiring(self, sched_name, sched_fn):
        """Receiver-by-receiver inbox equality on the scenario wiring."""
        system = ScenarioSystem(4, 1)
        params = SystemParams(n=system.total, ell=system.ell, t=0)
        rounds = 6

        def echo_procs():
            return [EchoProcess(system.ids[k]) for k in range(system.total)]

        assignment = IdentityAssignment(system.ell, system.ids)
        procs_k = echo_procs()
        kernel = ExecutionKernel(
            params=params, assignment=assignment, processes=procs_k,
            timing=BasicPsync(sched_fn(), system.topology()),
        )
        procs_r = echo_procs()
        reference = ReferenceRoundEngine(
            params=params, assignment=assignment, processes=procs_r,
            drop_schedule=sched_fn(), topology=system.topology(),
        )
        kernel.run(max_rounds=rounds, stop_when_all_decided=False)
        reference.run(max_rounds=rounds, stop_when_all_decided=False)
        assert kernel.deliveries == reference.deliveries
        for k in range(system.total):
            for r in range(rounds):
                got = procs_k[k].received[r]
                want = procs_r[k].received[r]
                assert got.messages() == want.messages(), (
                    f"{sched_name}: inbox of process {k} differs in round {r}"
                )

    @pytest.mark.parametrize("policy_name", DELAY_POLICIES)
    def test_delay_timing_by_loss_replay(self, policy_name):
        """``delay-*``: the oracle predates timing models, so the logged
        losses replay through it as explicit basic-model drops -- the
        executable form of the paper's loss-equivalence argument."""
        factory, horizon = scenario_factory(1)
        policy = dict(delay_policy_battery(7))[policy_name]
        kernel_outcome = ScenarioSystem(4, 1).run(
            factory, max_rounds=horizon, timing=DelayBased(policy)
        )
        reference_outcome = ReferenceScenarioSystem(4, 1).run(
            factory,
            max_rounds=horizon,
            drop_schedule=ExplicitDrops(set(kernel_outcome.losses)),
        )
        assert canonical(kernel_outcome.trace) == \
               canonical(reference_outcome.trace)
        assert kernel_outcome.deliveries == reference_outcome.deliveries
        assert view_digest(kernel_outcome) == view_digest(reference_outcome)

    def test_checkpoints_resume_to_identical_trace(self):
        """A mid-run checkpoint restored into a fresh kernel replays the
        remainder byte for byte."""
        factory, horizon = scenario_factory(1)
        system = ScenarioSystem(4, 1)
        outcome = system.run(factory, max_rounds=horizon, checkpoint_every=2)
        assert outcome.checkpoints, "expected mid-run checkpoints"
        assert [cp.round_no for cp in outcome.checkpoints] == list(
            range(2, outcome.rounds_executed + 1, 2)
        )

        cp = outcome.checkpoints[0]
        params, assignment, processes = system._build(factory)
        engine = ExecutionKernel(
            params=params, assignment=assignment, processes=processes,
            timing=BasicPsync(None, system.topology()),
        )
        engine.restore(cp)
        while len(engine.trace) < horizon and not engine.all_correct_decided():
            engine.finish_round(engine.compose_round())
        assert canonical(engine.trace) == canonical(outcome.trace)

    def test_composed_timing_unions_removals(self):
        """ComposedTiming = union of the layers' removal-mask rows."""
        topo = ScenarioSystem(4, 1).topology()
        structural = BasicPsync(None, topo)
        drops = BasicPsync(ExplicitDrops({(0, 2, 5)}), None)
        composed = ComposedTiming(structural, drops)
        receivers = senders = tuple(range(8))

        def removed(timing):
            mask = timing.removed_mask(0, receivers, senders)
            return [
                {s for s, lost in zip(senders, row) if lost}
                for row in mask.tolist()
            ]

        want = removed(structural)
        want[5] |= {2}
        assert removed(composed) == want
        assert composed.active(0) and composed.ticks_executed(3) == 3


# ----------------------------------------------------------------------
# Surface: classic EIG / phase-king
# ----------------------------------------------------------------------
CLASSIC_SPECS = [
    ("eig", lambda: EIGSpec(4, 1, BINARY)),
    ("phase-king", lambda: PhaseKingSpec(5, 1, BINARY)),
]


def classic_fixture(spec):
    byz = (spec.ell - 1,)
    proposals = {k: k % 2 for k in range(spec.ell) if k not in byz}
    return byz, proposals


class TestClassicConformance:
    @pytest.mark.parametrize("spec_name,spec_fn", CLASSIC_SPECS,
                             ids=[s[0] for s in CLASSIC_SPECS])
    @pytest.mark.parametrize("sched_name,sched_fn", SCHEDULES, ids=SCHEDULE_IDS)
    @pytest.mark.parametrize("adv_name,adv_fn", ADVERSARIES, ids=ADVERSARY_IDS)
    def test_traces_verdicts_and_decisions(
        self, spec_name, spec_fn, sched_name, sched_fn, adv_name, adv_fn
    ):
        spec = spec_fn()
        byz, proposals = classic_fixture(spec)
        kernel_result = run_classic(
            spec, proposals, byzantine=byz, adversary=adv_fn(),
            timing=basic_timing(sched_fn()), require_termination=False,
        )
        reference_result = run_classic_reference(
            spec, proposals, byzantine=byz, adversary=adv_fn(),
            drop_schedule=sched_fn(), require_termination=False,
        )
        assert_result_conformance(kernel_result, reference_result)

    def test_partition_schedule(self):
        """``basic-partition``: a pre-GST network split."""
        spec = EIGSpec(4, 1, BINARY)
        byz, proposals = classic_fixture(spec)
        sched = lambda: PartitionSchedule(3, {0, 1}, {2, 3})  # noqa: E731
        kernel_result = run_classic(
            spec, proposals, byzantine=byz, timing=BasicPsync(sched()),
            require_termination=False,
        )
        reference_result = run_classic_reference(
            spec, proposals, byzantine=byz, drop_schedule=sched(),
            require_termination=False,
        )
        assert_result_conformance(kernel_result, reference_result)

    @pytest.mark.parametrize("spec_name,spec_fn", CLASSIC_SPECS,
                             ids=[s[0] for s in CLASSIC_SPECS])
    @pytest.mark.parametrize("policy_name", DELAY_POLICIES)
    def test_delay_timing_vs_tick_loop(self, spec_name, spec_fn, policy_name):
        """``delay-*``: the kernel facade under ``DelayBased`` equals
        the per-message tick-loop oracle."""
        spec = spec_fn()
        byz, proposals = classic_fixture(spec)
        policy = dict(delay_policy_battery(3))[policy_name]
        max_rounds = spec.max_rounds + 2

        kernel_result = run_classic(
            spec, proposals, byzantine=byz,
            adversary=RandomByzantineAdversary(seed=9),
            timing=DelayBased(policy), require_termination=False,
        )

        from repro.classic.runner import classic_factory
        params = SystemParams(n=spec.ell, ell=spec.ell, t=spec.t)
        assignment = balanced_assignment(spec.ell, spec.ell)
        procs = make_processes(
            classic_factory(spec), assignment, proposals, byz
        )
        reference = ReferenceDelaySimulator(
            params, assignment, procs, policy, byzantine=byz,
            adversary=RandomByzantineAdversary(seed=9),
        )
        ref_result = reference.run(max_rounds=max_rounds)

        assert canonical(kernel_result.trace) == canonical(ref_result.trace)
        assert kernel_result.ticks == ref_result.ticks_executed
        assert [
            p.decision for p in kernel_result.processes if p is not None
        ] == [p.decision for p in procs if p is not None]
        byz_set = set(byz)
        assert sorted(kernel_result.losses) == sorted(
            d for d in ref_result.dropped if d[2] not in byz_set
        )


# ----------------------------------------------------------------------
# Surface: the three broadcast primitives
# ----------------------------------------------------------------------
BROADCAST_RUNNERS = [
    ("auth",
     lambda **kw: run_authenticated_broadcast(5, 4, 1, **kw),
     lambda **kw: run_authenticated_broadcast_reference(5, 4, 1, **kw)),
    ("reliable",
     lambda **kw: run_reliable_broadcast(
         5, 4, 1, sender_ident=2, values_by_slot={1: "v"}, **kw),
     lambda **kw: run_reliable_broadcast_reference(
         5, 4, 1, sender_ident=2, values_by_slot={1: "v"}, **kw)),
    ("multiplicity",
     lambda **kw: run_multiplicity_broadcast(6, 4, 1, broadcaster_ident=1, **kw),
     lambda **kw: run_multiplicity_broadcast_reference(
         6, 4, 1, broadcaster_ident=1, **kw)),
]


class TestBroadcastConformance:
    @pytest.mark.parametrize("surface,kernel_fn,ref_fn", BROADCAST_RUNNERS,
                             ids=[b[0] for b in BROADCAST_RUNNERS])
    @pytest.mark.parametrize("sched_name,sched_fn", SCHEDULES, ids=SCHEDULE_IDS)
    @pytest.mark.parametrize("adv_name,adv_fn", ADVERSARIES, ids=ADVERSARY_IDS)
    def test_traces_deliveries_and_accepts(
        self, surface, kernel_fn, ref_fn, sched_name, sched_fn,
        adv_name, adv_fn
    ):
        byzantine = (4,) if adv_name != "silent" else ()
        kernel_run = kernel_fn(
            byzantine=byzantine, adversary=adv_fn(),
            timing=basic_timing(sched_fn()),
        )
        reference_run = ref_fn(
            byzantine=byzantine, adversary=adv_fn(), drop_schedule=sched_fn()
        )
        if surface == "reliable":
            assert canonical(kernel_run.trace) == canonical(reference_run.trace)
            assert kernel_run.deliveries == reference_run.deliveries
            assert kernel_run.metrics == reference_run.metrics
            assert [
                (p.delivered, p.decision_round)
                for p in kernel_run.correct_processes
            ] == [
                (p.delivered, p.decision_round)
                for p in reference_run.correct_processes
            ]
        else:
            assert_broadcast_conformance(kernel_run, reference_run)

    @pytest.mark.parametrize("sched_name,sched_fn", SCHEDULES, ids=SCHEDULE_IDS)
    def test_inboxes_on_recording_hosts(self, sched_name, sched_fn):
        """Receiver-by-receiver inbox equality for the broadcast payload
        shapes, kernel vs the pre-fabric loop."""

        class RecordingHost(AuthenticatedBroadcastHost):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.received = {}

            def deliver(self, round_no, inbox):
                self.received[round_no] = inbox
                super().deliver(round_no, inbox)

        n, ell, t, byz, rounds = 5, 4, 1, (4,), 6
        params = SystemParams(n=n, ell=ell, t=t)
        assignment = balanced_assignment(n, ell)

        def hosts():
            return [
                None if k in byz else RecordingHost(
                    assignment.identifier_of(k), ell, t, value=k
                )
                for k in range(n)
            ]

        procs_k = hosts()
        kernel = ExecutionKernel(
            params=params, assignment=assignment, processes=procs_k,
            byzantine=byz, adversary=RandomByzantineAdversary(seed=2),
            timing=BasicPsync(sched_fn(), None),
        )
        procs_r = hosts()
        reference = ReferenceRoundEngine(
            params=params, assignment=assignment, processes=procs_r,
            byzantine=byz, adversary=RandomByzantineAdversary(seed=2),
            drop_schedule=sched_fn(),
        )
        kernel.run(max_rounds=rounds, stop_when_all_decided=False)
        reference.run(max_rounds=rounds, stop_when_all_decided=False)
        for k in range(n):
            if k in byz:
                continue
            for r in range(rounds):
                got = procs_k[k].received[r]
                want = procs_r[k].received[r]
                assert got.messages() == want.messages(), (
                    f"{sched_name}: inbox of host {k} differs in round {r}"
                )
        assert kernel.deliveries == reference.deliveries


# ----------------------------------------------------------------------
# Large-n fabric cases: the array path's target range
# ----------------------------------------------------------------------
class TestLargeNConformance:
    """The array fabric's raison d'etre is n in the hundreds; pin the
    kernel against :class:`ReferenceRoundEngine` there too (whichever
    delivery path is active -- both run under CI)."""

    @pytest.mark.parametrize("sched_name,sched_fn", SCHEDULES, ids=SCHEDULE_IDS)
    @pytest.mark.parametrize("n", [200])
    def test_inboxes_and_deliveries_at_large_n(self, n, sched_name, sched_fn):
        ell, rounds = 8, 4
        params = SystemParams(n=n, ell=ell, t=1)
        assignment = balanced_assignment(n, ell)

        def procs():
            return [
                EchoProcess(assignment.identifier_of(k), tag=("v", k % 5))
                for k in range(n)
            ]

        procs_k = procs()
        kernel = ExecutionKernel(
            params=params, assignment=assignment, processes=procs_k,
            timing=BasicPsync(sched_fn(), None),
        )
        procs_r = procs()
        reference = ReferenceRoundEngine(
            params=params, assignment=assignment, processes=procs_r,
            drop_schedule=sched_fn(),
        )
        kernel.run(max_rounds=rounds, stop_when_all_decided=False)
        reference.run(max_rounds=rounds, stop_when_all_decided=False)
        assert kernel.deliveries == reference.deliveries
        for k in range(n):
            for r in range(rounds):
                got = procs_k[k].received[r]
                want = procs_r[k].received[r]
                assert got.messages() == want.messages(), (
                    f"{sched_name}: inbox of process {k} differs in round {r}"
                )

    def test_delay_losses_at_large_n(self):
        """n=128 under a delay policy vs the per-message tick loop."""
        n, ell = 128, 8
        policy_fn = lambda: dict(delay_policy_battery(5))[  # noqa: E731
            "eventual-d2-gst24"
        ]
        params = SystemParams(n=n, ell=ell, t=1)
        assignment = balanced_assignment(n, ell)

        def procs():
            return [
                EchoProcess(assignment.identifier_of(k), tag=("v", k % 5))
                for k in range(n)
            ]

        procs_k = procs()
        kernel = ExecutionKernel(
            params=params, assignment=assignment, processes=procs_k,
            timing=DelayBased(policy_fn()),
        )
        kernel.run(max_rounds=14, stop_when_all_decided=False)

        procs_r = procs()
        reference = ReferenceDelaySimulator(
            params, assignment, procs_r, policy_fn()
        )
        ref_result = reference.run(
            max_rounds=14, stop_when_all_decided=False
        )
        assert canonical(kernel.trace) == canonical(ref_result.trace)
        assert sorted(kernel.losses) == sorted(ref_result.dropped)
        for k in range(n):
            for r in range(14):
                assert (
                    procs_k[k].received[r].messages()
                    == procs_r[k].received[r].messages()
                ), f"inbox of process {k} differs in round {r}"


# ----------------------------------------------------------------------
# Property tests: seeded random configurations
# ----------------------------------------------------------------------
@given(gst=st.integers(0, 6), seed=st.integers(0, 40))
@settings(max_examples=12, deadline=None)
def test_property_classic_conformance_random_drops(gst, seed):
    """Random pre-GST chaos + random Byzantine noise: the classic kernel
    facade and its oracle stay byte-identical."""
    spec = EIGSpec(4, 1, BINARY)
    byz, proposals = classic_fixture(spec)
    drop_seed = stable_seed(("conformance-classic", gst, seed))

    sched = lambda: RandomDrops(gst=gst, p=0.5, seed=drop_seed)  # noqa: E731

    def run(fn, **network):
        return fn(
            spec, proposals, byzantine=byz,
            adversary=RandomByzantineAdversary(seed=seed),
            require_termination=False, **network,
        )

    assert_result_conformance(
        run(run_classic, timing=BasicPsync(sched())),
        run(run_classic_reference, drop_schedule=sched()),
    )


@given(gst=st.integers(0, 6), seed=st.integers(0, 40))
@settings(max_examples=12, deadline=None)
def test_property_broadcast_conformance_random_drops(gst, seed):
    """The authenticated-broadcast runner equals its oracle under seeded
    random drop schedules and Byzantine mixtures."""
    drop_seed = stable_seed(("conformance-broadcast", gst, seed))

    sched = lambda: RandomDrops(gst=gst, p=0.5, seed=drop_seed)  # noqa: E731

    def run(fn, **network):
        return fn(
            5, 4, 1, byzantine=(4,),
            adversary=RandomByzantineAdversary(seed=seed),
            rounds=2 * gst + 6, **network,
        )

    assert_broadcast_conformance(
        run(run_authenticated_broadcast, timing=BasicPsync(sched())),
        run(run_authenticated_broadcast_reference, drop_schedule=sched()),
    )


@given(seed=st.integers(0, 40))
@settings(max_examples=8, deadline=None)
def test_property_scenario_conformance_random_drops(seed):
    """The kernelised scenario orchestration equals the pre-port loop
    under seeded random drop schedules stacked on the view wiring."""
    factory, horizon = scenario_factory(1)
    drop_seed = stable_seed(("conformance-scenario", seed))
    sched = lambda: RandomDrops(gst=4, p=0.3, seed=drop_seed)  # noqa: E731
    kernel_outcome = ScenarioSystem(4, 1).run(
        factory, max_rounds=horizon, timing=BasicPsync(sched())
    )
    reference_outcome = ReferenceScenarioSystem(4, 1).run(
        factory, max_rounds=horizon, drop_schedule=sched()
    )
    assert_scenario_conformance(kernel_outcome, reference_outcome)
