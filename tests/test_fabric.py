"""The array fabric: oracle parity, mask builders, byte sizes, COW.

Pins :func:`repro.sim.fabric.deliver_round`, the one delivery path,
against code outside the fabric:

* basic-model draws against the frozen pre-fabric oracle
  (:class:`~repro.sim.network.ReferenceRoundEngine`): byte-identical
  per-receiver inboxes, :class:`~repro.sim.metrics.RoundDeliveries` and
  traces across random (topology x drop schedule x adversary) draws,
  including n in the hundreds;
* delay draws against the per-message tick loop
  (:class:`~repro.sim.delay.ReferenceDelaySimulator`): traces, inboxes
  and loss sets, up to n = 256;
* composed timing against a per-link reconstruction from ``delivers``,
  ``drops`` and ``delay >= delta``;
* fixed systems against the basic-model oracle: per-payload byte
  sizes, homonym copies merged into survivor inboxes, and one ``repr``
  per payload and round;

plus the unit seams: the vectorized ``blocked_mask`` / ``dropped_mask``
/ ``delay_matrix`` builders vs their per-link primitives, the
``DelayBased`` mask guards, and the copy-on-write checkpoint scheme.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.canonical import stable_seed
from repro.core.errors import SimulationError
from repro.core.identity import IdentityAssignment, balanced_assignment
from repro.core.messages import Message
from repro.core.params import SystemParams
from repro.sim import fabric
from repro.sim.adversary import Adversary
from repro.sim.delay import (
    DelayPolicy,
    EventuallyBoundedDelays,
    ReferenceDelaySimulator,
)
from repro.sim.kernel import (
    BasicPsync,
    ComposedTiming,
    DelayBased,
    ExecutionKernel,
    LockStep,
)
from repro.sim.network import ReferenceRoundEngine, RoundEngine
from repro.sim.partial import (
    ExplicitDrops,
    NoDrops,
    PartitionSchedule,
    PredicateDrops,
    RandomDrops,
    SilenceUntil,
)
from repro.sim.process import EchoProcess, Process
from repro.sim.topology import CompleteTopology, DirectedTopology, Topology


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _system(n, ell, numerate, byzantine):
    assignment = balanced_assignment(n, ell)
    params = SystemParams(
        n=n, ell=ell, t=max(len(byzantine), 1), numerate=numerate
    )
    processes = [
        None if k in byzantine else EchoProcess(
            assignment.identifier_of(k), tag=("v", k % 3)
        )
        for k in range(n)
    ]
    return params, assignment, processes


def _build_kernel(n, ell, numerate, byzantine, adversary, timing):
    params, assignment, processes = _system(n, ell, numerate, byzantine)
    return ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary(),
        timing=timing(),
    )


def _build_reference(n, ell, numerate, byzantine, adversary, drop, topo):
    params, assignment, processes = _system(n, ell, numerate, byzantine)
    return ReferenceRoundEngine(
        params=params,
        assignment=assignment,
        processes=processes,
        byzantine=byzantine,
        adversary=adversary(),
        drop_schedule=drop,
        topology=topo,
    )


def _run(engine, rounds):
    engine.run(max_rounds=rounds, stop_when_all_decided=False)
    return engine


def _assert_inboxes_identical(got, want, correct, rounds, label):
    for q in correct:
        for r in range(rounds):
            assert (
                got[q].received[r].messages() == want[q].received[r].messages()
            ), f"{label}: inbox of process {q} differs in round {r}"


def _assert_engines_identical(got, want, rounds, label):
    assert got.deliveries == want.deliveries, label
    assert got.trace.snapshot() == want.trace.snapshot(), label
    _assert_inboxes_identical(
        got.processes, want.processes, got.correct, rounds, label
    )


def _compare_with_reference(n, ell, numerate, byzantine, adversary, timing,
                            rounds, label, reference):
    """Run the kernel and the frozen basic-model oracle side by side."""
    kernel = _run(
        _build_kernel(n, ell, numerate, byzantine, adversary, timing), rounds
    )
    drop, topo = reference
    oracle = _run(
        _build_reference(n, ell, numerate, byzantine, adversary, drop, topo),
        rounds,
    )
    _assert_engines_identical(kernel, oracle, rounds, label)
    return kernel


def _assert_losses_in_fabric_order(losses):
    """Per round, losses are (receiver-ascending, sender-ascending)."""
    assert losses == sorted(losses, key=lambda x: (x[0], x[2], x[1]))
    assert len(losses) == len(set(losses))


# ----------------------------------------------------------------------
# Property tests: random draws, parity with the oracles
# ----------------------------------------------------------------------
def _schedule_from(draw_kind, gst, seed, n):
    if draw_kind == "none":
        return None
    if draw_kind == "silence":
        return SilenceUntil(gst)
    if draw_kind == "partition":
        half = n // 2
        return PartitionSchedule(gst, tuple(range(half)), tuple(range(half, n)))
    if draw_kind == "random":
        return RandomDrops(gst=gst, p=0.5, seed=seed)
    assert draw_kind == "explicit"
    return ExplicitDrops({
        (r, s, (s + r + 1) % n)
        for r in range(gst)
        for s in range(0, n, 3)
    })


def _topology_from(draw_kind, n, seed):
    if draw_kind == "complete":
        return None
    wiring = {}
    for q in range(0, n, 2):
        allowed = {
            s for s in range(n) if stable_seed((seed, q, s)) % 3 != 0
        }
        wiring[q] = allowed
    return DirectedTopology(wiring)


@given(
    n=st.integers(3, 12),
    ell=st.integers(2, 3),
    numerate=st.booleans(),
    sched_kind=st.sampled_from(
        ["none", "silence", "partition", "random", "explicit"]
    ),
    topo_kind=st.sampled_from(["complete", "directed"]),
    gst=st.integers(1, 4),
    with_byz=st.booleans(),
    seed=st.integers(0, 50),
)
@settings(max_examples=25, deadline=None)
def test_property_three_way_parity(
    n, ell, numerate, sched_kind, topo_kind, gst, with_byz, seed
):
    """Kernel == ReferenceRoundEngine across random basic-model draws:
    inboxes, deliveries, traces."""
    ell = min(ell, n)
    byzantine = (n - 1,) if with_byz else ()
    sched = lambda: _schedule_from(sched_kind, gst, seed, n)  # noqa: E731
    topo = lambda: _topology_from(topo_kind, n, seed)  # noqa: E731
    adversary = (
        (lambda: RandomByzantineAdversary(seed=seed)) if with_byz
        else (lambda: None)
    )
    timing = lambda: BasicPsync(sched(), topo())  # noqa: E731
    _compare_with_reference(
        n, ell, numerate, byzantine, adversary, timing,
        rounds=gst + 2,
        label=f"{sched_kind}/{topo_kind}/n={n}",
        reference=(sched(), topo()),
    )


@given(
    n=st.sampled_from([100, 180, 256]),
    numerate=st.booleans(),
    sched_kind=st.sampled_from(["silence", "partition", "explicit"]),
    seed=st.integers(0, 10),
)
@settings(max_examples=5, deadline=None)
def test_property_three_way_parity_large_n(n, numerate, sched_kind, seed):
    """The same oracle parity with n in the hundreds (structural
    schedules, where the mask builders do real array work)."""
    sched = lambda: _schedule_from(sched_kind, 2, seed, n)  # noqa: E731
    timing = lambda: BasicPsync(sched(), None)  # noqa: E731
    _compare_with_reference(
        n, 3, numerate, (), lambda: None, timing,
        rounds=3,
        label=f"large-{sched_kind}/n={n}",
        reference=(sched(), None),
    )


@given(
    n=st.integers(3, 10),
    numerate=st.booleans(),
    gst_tick=st.integers(0, 12),
    delta=st.integers(1, 4),
    with_byz=st.booleans(),
    seed=st.integers(0, 50),
)
@settings(max_examples=20, deadline=None)
def test_property_delay_parity_with_losses(
    n, numerate, gst_tick, delta, with_byz, seed
):
    """Kernel under ``DelayBased`` == the per-message tick loop:
    traces, inboxes, and losses equal to the oracle's drops between
    correct processes.  The kernel logs each round's losses in
    (receiver-ascending, sender-ascending) order."""
    byzantine = (n - 1,) if with_byz else ()
    adversary = (
        (lambda: RandomByzantineAdversary(seed=seed)) if with_byz
        else (lambda: None)
    )
    policy = lambda: EventuallyBoundedDelays(  # noqa: E731
        delta, gst_tick, seed=seed
    )
    rounds = gst_tick // delta + 2
    label = f"delay/n={n}/delta={delta}"
    kernel = _run(
        _build_kernel(
            n, 3, numerate, byzantine, adversary,
            lambda: DelayBased(policy()),
        ),
        rounds,
    )
    params, assignment, processes = _system(n, 3, numerate, byzantine)
    oracle = ReferenceDelaySimulator(
        params, assignment, processes, policy(),
        byzantine=byzantine, adversary=adversary(),
    ).run(max_rounds=rounds, stop_when_all_decided=False)

    assert kernel.trace.snapshot() == oracle.trace.snapshot(), label
    _assert_inboxes_identical(
        kernel.processes, processes, kernel.correct, rounds, label
    )
    assert sorted(kernel.losses) == sorted(
        d for d in oracle.dropped if d[2] not in byzantine
    ), label
    _assert_losses_in_fabric_order(kernel.losses)


class _LateSenders(DelayPolicy):
    """A few senders' messages always miss every other window."""

    def __init__(self, late, delta=2):
        super().__init__(delta)
        self.late = frozenset(late)

    def delay(self, send_tick, sender, recipient):
        return self.delta if sender in self.late else 0

    def max_late_tick(self):
        return 10**9


@pytest.mark.parametrize("n,numerate", [(128, False), (256, True)])
@pytest.mark.parametrize("variant", ["late-senders", "dense"])
def test_large_n_delay_parity_with_losses(n, numerate, variant):
    """Kernel under ``DelayBased`` at large n == the per-message tick
    loop (traces, inboxes, loss set) and == the basic-model oracle
    replaying those losses (deliveries).  ``late-senders`` removes a
    few columns only; ``dense`` removes from every column."""
    byzantine, rounds = (n - 1,), 2
    if variant == "late-senders":
        policy = lambda: _LateSenders((3, n // 2, n - 2))  # noqa: E731
    else:
        policy = lambda: EventuallyBoundedDelays(2, 2, seed=n)  # noqa: E731
    adversary = lambda: RandomByzantineAdversary(seed=n)  # noqa: E731
    label = f"{variant}/n={n}"
    kernel = _run(
        _build_kernel(
            n, 4, numerate, byzantine, adversary,
            lambda: DelayBased(policy()),
        ),
        rounds,
    )
    params, assignment, processes = _system(n, 4, numerate, byzantine)
    oracle = ReferenceDelaySimulator(
        params, assignment, processes, policy(),
        byzantine=byzantine, adversary=adversary(),
    ).run(max_rounds=rounds, stop_when_all_decided=False)

    assert kernel.trace.snapshot() == oracle.trace.snapshot(), label
    _assert_inboxes_identical(
        kernel.processes, processes, kernel.correct, rounds, label
    )
    assert sorted(kernel.losses) == sorted(
        d for d in oracle.dropped if d[2] not in byzantine
    ), label
    _assert_losses_in_fabric_order(kernel.losses)
    lossy = {s for r, s, _ in kernel.losses if r == 0}
    if variant == "late-senders":
        assert lossy == {3, n // 2, n - 2}
    else:
        assert lossy == set(kernel.correct)
    replay = _run(
        _build_reference(
            n, 4, numerate, byzantine, adversary,
            ExplicitDrops(kernel.losses), None,
        ),
        rounds,
    )
    assert kernel.deliveries == replay.deliveries, label


def _composed_removals(timing, correct, rounds):
    """ComposedTiming's removals, rebuilt link by link outside the fabric.

    A link ``s -> q`` loses round ``r``'s message when the topology does
    not deliver it, the drop schedule drops it, or its delay reaches
    ``delta``.  Listed in (round, receiver, sender) order.
    """
    structural, delayed = timing.models
    policy = delayed.policy
    return [
        (r, s, q)
        for r in range(rounds) for q in correct for s in correct
        if s != q and (
            not structural.topology.delivers(s, q)
            or structural.drop_schedule.drops(r, s, q)
            or policy.delay(r * policy.delta, s, q) >= policy.delta
        )
    ]


def test_composed_timing_parity_with_losses():
    """ComposedTiming (structural + delay layers) == the basic-model
    oracle replaying a per-link reconstruction of its removals, and the
    merged loss log is exactly that reconstruction."""
    timing = lambda: ComposedTiming(  # noqa: E731
        BasicPsync(SilenceUntil(2), DirectedTopology({0: {1, 2}, 3: set()})),
        DelayBased(EventuallyBoundedDelays(2, 8, seed=3)),
    )
    n, byzantine, rounds = 9, (8,), 6
    correct = tuple(k for k in range(n) if k not in byzantine)
    removals = _composed_removals(timing(), correct, rounds)
    assert removals  # the draw does remove edges
    for numerate in (False, True):
        kernel = _compare_with_reference(
            n, 3, numerate, byzantine,
            lambda: RandomByzantineAdversary(seed=7), timing,
            rounds=rounds, label=f"composed/numerate={numerate}",
            reference=(ExplicitDrops(removals), None),
        )
        assert kernel.losses == removals


def test_large_n_deterministic_partition():
    """n=256 under an always-active partition: the shared-row inbox
    grouping (two distinct mask rows) stays oracle-identical."""
    n = 256
    half = n // 2
    sched = lambda: PartitionSchedule(  # noqa: E731
        10**9, tuple(range(half)), tuple(range(half, n))
    )
    timing = lambda: BasicPsync(sched(), None)  # noqa: E731
    _compare_with_reference(
        n, 4, True, (), lambda: None, timing,
        rounds=3, label="partition-256", reference=(sched(), None),
    )


class _CountingPsync(BasicPsync):
    """Records the rounds on which the fabric asks for a removal mask."""

    def __init__(self, *args):
        super().__init__(*args)
        self.mask_rounds = []

    def removed_mask(self, round_no, receivers, senders):
        self.mask_rounds.append(round_no)
        return super().removed_mask(round_no, receivers, senders)


def test_inactive_rounds_never_build_a_mask():
    """Only active rounds query ``removed_mask``, once per round; the
    inactive rounds after stabilisation stay oracle-identical."""
    gst, rounds = 3, 7
    timing = _CountingPsync(SilenceUntil(gst), None)
    _compare_with_reference(
        9, 3, False, (), lambda: None, lambda: timing,
        rounds=rounds, label="silence-gst", reference=(SilenceUntil(gst), None),
    )
    assert timing.mask_rounds == list(range(gst))


def test_path_names_report_the_one_array_path():
    """The compatibility names benchmark records read keep answering."""
    import numpy

    assert fabric.array_path_enabled() is True
    assert fabric.require_numpy() is numpy


# ----------------------------------------------------------------------
# Mask builders vs their per-link primitives
# ----------------------------------------------------------------------
class _ParityTopology(Topology):
    """Defines only ``delivers``: links between equal parities exist."""

    def delivers(self, sender, recipient):
        return sender % 2 == recipient % 2


class _UniformDelay(DelayPolicy):
    """Every edge, self-links included, gets the same delay."""

    def __init__(self, value, delta=2):
        super().__init__(delta)
        self.value = value

    def delay(self, send_tick, sender, recipient):
        return self.value

    def delay_matrix(self, send_tick, receivers, senders):
        return np.full((len(receivers), len(senders)), self.value, np.int64)

    def max_late_tick(self):
        return 10**9


class TestMaskBuilders:
    def _assert_mask_matches(self, mask, removed, receivers, senders):
        assert mask.shape == (len(receivers), len(senders))
        for i, q in enumerate(receivers):
            for j, s in enumerate(senders):
                assert bool(mask[i, j]) == removed(s, q), f"link {s}->{q}"

    def test_topology_masks(self):
        n = 12
        receivers = tuple(range(n))
        senders = tuple(range(0, n, 2))
        for topo in (
            CompleteTopology(),
            DirectedTopology({0: {2, 4}, 5: set(), 6: {6}}),
            _ParityTopology(),  # the default, per-link builder
        ):
            self._assert_mask_matches(
                topo.blocked_mask(receivers, senders),
                lambda s, q: s != q and not topo.delivers(s, q),
                receivers, senders,
            )

    def test_drop_schedule_masks(self):
        n = 10
        receivers = tuple(range(n))
        senders = tuple(range(n))
        schedules = [
            NoDrops(),
            SilenceUntil(3),
            PartitionSchedule(3, (0, 1, 2), (5, 6)),
            RandomDrops(gst=3, p=0.5, seed=9),
            ExplicitDrops({(0, 1, 2), (1, 2, 2), (2, 0, 0), (1, 9, 0)}),
            PredicateDrops(3, lambda r, s, q: (r + s + q) % 3 == 0),
        ]
        for sched in schedules:
            for round_no in range(5):
                self._assert_mask_matches(
                    sched.dropped_mask(round_no, receivers, senders),
                    lambda s, q: sched.drops(round_no, s, q),
                    receivers, senders,
                )

    def test_delay_matrix_matches_scalar_delay(self):
        policy = EventuallyBoundedDelays(3, 9, seed=4)
        receivers = tuple(range(8))
        senders = tuple(range(0, 8, 2))
        for send_tick in (0, 3, 9, 12):
            delays = policy.delay_matrix(send_tick, receivers, senders)
            for i, q in enumerate(receivers):
                for j, s in enumerate(senders):
                    if s == q:
                        assert delays[i, j] == 0
                    else:
                        assert delays[i, j] == policy.delay(send_tick, s, q)

    def test_removed_mask_never_reports_self(self):
        timing = BasicPsync(SilenceUntil(5), None)
        receivers = senders = tuple(range(6))
        mask = timing.removed_mask(0, receivers, senders)
        for k in range(6):
            assert not mask[k, k]
        assert mask.sum() == 30  # everything else dropped

    def test_partition_mask_matches_links_with_bystanders(self):
        """Processes 3, 4 and everything past the blocks' largest member
        are in neither block; receivers and senders overlap in part and
        are not all ascending from 0."""
        sched = PartitionSchedule(4, (0, 2, 7), (1, 5))
        receivers = (0, 1, 3, 4, 5, 7, 9, 12)
        senders = (1, 2, 3, 5, 7, 8, 11)
        for round_no in (0, 3, 4):
            self._assert_mask_matches(
                sched.dropped_mask(round_no, receivers, senders),
                lambda s, q: round_no < 4 and s != q
                and sched._drops_before_gst(round_no, s, q),
                receivers, senders,
            )

    def test_partition_masks_are_fresh_and_writable(self):
        sched = PartitionSchedule(4, (0, 1), (2, 3))
        for mask_of in (sched.dropped_mask, BasicPsync(sched, None).removed_mask):
            first = mask_of(0, (0, 1, 2, 3), (0, 1, 2, 3))
            assert first.flags.writeable
            first[:] = True  # a caller may write into its own mask
            second = mask_of(0, (0, 1, 2, 3), (0, 1, 2, 3))
            assert second.sum() == 8
            assert not np.shares_memory(first, second)

    def test_delay_mask_rejects_a_negative_delay(self):
        timing = DelayBased(_UniformDelay(-1))
        with pytest.raises(SimulationError):
            timing.removed_mask(0, (0, 1, 2), (0, 1, 2))

    def test_delay_mask_clears_late_self_links(self):
        """A delay matrix that fills the diagonal with late delays
        removes every link but the self-links, with receivers and
        senders overlapping in part."""
        receivers, senders = (0, 2, 3, 5), (1, 2, 4, 5)
        mask = DelayBased(_UniformDelay(2)).removed_mask(
            0, receivers, senders
        )
        assert mask.tolist() == [
            [q != s for s in senders] for q in receivers
        ]

    def test_delay_mask_of_no_senders_is_empty(self):
        timing = DelayBased(_UniformDelay(2))
        assert timing.removed_mask(0, (0, 1, 2), ()).shape == (3, 0)
        assert timing.removed_mask(0, (), (0, 1)).shape == (0, 2)

    def test_mask_from_links_bridges_link_predicates(self):
        queried = []

        def removed(s, q):
            queried.append((s, q))
            return q == 1 or s == 3

        mask = fabric.mask_from_links(
            removed, receivers=(0, 1, 3), senders=(0, 1, 3)
        )
        assert mask.tolist() == [
            [False, False, True],
            [True, False, True],
            [False, False, False],
        ]
        # Self-links are never queried; the rest in (receiver, sender)
        # order.
        assert queried == [(1, 0), (3, 0), (0, 1), (3, 1), (0, 3), (1, 3)]
        assert fabric.mask_from_links(removed, (), (0, 1)).shape == (0, 2)


# ----------------------------------------------------------------------
# Fixed systems: byte sizes, repr economy, merge corners
# ----------------------------------------------------------------------
class _FixedProcess(EchoProcess):
    """Broadcasts its tag itself every round; records its inboxes."""

    def compose(self, round_no):
        return self.tag


class _StaticAdversary(Adversary):
    """Every round, the same ``slot -> recipient -> payloads`` batches."""

    def __init__(self, emissions):
        self._emissions = emissions

    def emissions(self, view):
        return self._emissions


def _fixed_pair(ids, payloads, emissions, numerate, drops=None, rounds=2):
    """The fabric and the basic-model oracle on one fixed system.

    Slots in ``payloads`` are correct and broadcast ``payloads[k]``
    every round; the rest are Byzantine and send ``emissions``.
    Asserts deliveries, traces and inboxes (reprs included) equal and
    returns the fabric engine.
    """
    ell = max(ids)
    assignment = IdentityAssignment(ell=ell, ids=tuple(ids))
    byzantine = tuple(k for k in range(len(ids)) if k not in payloads)
    params = SystemParams(
        n=len(ids), ell=ell, t=max(len(byzantine), 1), numerate=numerate
    )
    engines = []
    for engine_cls in (RoundEngine, ReferenceRoundEngine):
        engines.append(_run(engine_cls(
            params=params,
            assignment=assignment,
            processes=[
                _FixedProcess(assignment.identifier_of(k), tag=payloads[k])
                if k in payloads else None
                for k in range(len(ids))
            ],
            byzantine=byzantine,
            adversary=_StaticAdversary(emissions),
            drop_schedule=drops,
        ), rounds))
    kernel, oracle = engines
    _assert_engines_identical(kernel, oracle, rounds, "fixed")
    for q in kernel.correct:
        for r in range(rounds):
            assert repr(kernel.processes[q].received[r].messages()) == repr(
                oracle.processes[q].received[r].messages()
            ), f"inbox reprs of process {q} differ in round {r}"
    return kernel


@pytest.mark.parametrize("numerate", [False, True])
def test_byte_sizes_follow_each_payloads_own_repr(numerate):
    """Regression: equal payloads whose reprs differ have different
    sizes -- ``('v', 1)``, ``('v', True)`` and ``('v', 1.0)`` are 8, 11
    and 10 bytes -- for correct senders and the adversary alike.  A
    size memo keyed on ``(type, payload)`` gave all three 8 bytes."""
    payloads = {0: ("v", 1), 1: ("v", True), 2: ("v", 1.0)}
    emissions = {3: {q: (("v", True),) for q in payloads}}
    kernel = _fixed_pair((1, 2, 3, 1), payloads, emissions, numerate)
    for record in kernel.deliveries:
        assert record.correct_payload_bytes == 3 * (8 + 11 + 10)
        assert record.byzantine_payload_bytes == 3 * 11


@pytest.mark.parametrize("numerate", [False, True])
@pytest.mark.parametrize("with_delta", [False, True])
def test_a_removed_copy_gives_way_to_the_first_surviving_one(
    numerate, with_delta
):
    """Homonym slots 0 and 1 send equal payloads whose reprs differ
    (``('v', 1)`` / ``('v', True)``); receiver 2 loses slot 0.  As in
    the oracle, its inbox shows slot 1's copy, at the position that
    copy's own key sorts to."""
    payloads = {0: ("v", 1), 1: ("v", True), 2: ("v", 2)}
    emissions = {3: {2: (("x",),)}} if with_delta else {}
    kernel = _fixed_pair(
        (1, 1, 2, 2), payloads, emissions, numerate,
        drops=ExplicitDrops({(r, 0, 2) for r in range(2)}),
    )
    shown = [repr(m.payload) for m in kernel.processes[2].received[0]]
    assert "('v', True)" in shown and "('v', 1)" not in shown


class _Counted:
    """A payload that counts how often it is ``repr``'d."""

    def __init__(self, tag):
        self.tag = tag
        self.reprs = 0

    def __eq__(self, other):
        return isinstance(other, _Counted) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        self.reprs += 1
        return f"_Counted({self.tag!r})"


class _CountedProcess(Process):
    """Broadcasts a fresh counted payload every round."""

    def __init__(self, identifier):
        super().__init__(identifier)
        self.sent = []

    def compose(self, round_no):
        payload = _Counted((self.identifier, round_no))
        self.sent.append(payload)
        return payload

    def deliver(self, round_no, inbox):
        pass


@pytest.mark.parametrize("numerate", [False, True])
def test_each_payload_is_repred_at_most_once_per_round(numerate):
    """Sort keys and byte sizes share one ``repr`` per sender and
    round, on the shared, survivor-row and merged-delta paths alike
    (homonyms send equal payloads, so innumerate rounds collapse)."""
    n, rounds = 9, 4
    assignment = balanced_assignment(n, 3)
    processes = [
        _CountedProcess(assignment.identifier_of(k)) for k in range(n - 1)
    ] + [None]
    kernel = _run(ExecutionKernel(
        params=SystemParams(n=n, ell=3, t=1, numerate=numerate),
        assignment=assignment,
        processes=processes,
        byzantine=(n - 1,),
        adversary=_StaticAdversary(
            {n - 1: {q: (("byz", q),) for q in range(0, n - 1, 2)}}
        ),
        timing=BasicPsync(PartitionSchedule(2, (0, 1, 2, 3), (4, 5, 6)), None),
    ), rounds)
    assert kernel.deliveries[0].correct_deliveries < (n - 1) ** 2
    sent = [p for proc in processes if proc is not None for p in proc.sent]
    assert len(sent) == rounds * (n - 1)
    assert max(p.reprs for p in sent) <= 1


@pytest.mark.parametrize("numerate", [False, True])
def test_merge_byzantine_homonym_stands_in_for_a_removed_sender(numerate):
    """Slot 3 (Byzantine, slot 0's homonym) re-sends slot 0's exact
    payload to receiver 2, whose mask row removes slot 0: the merge
    into the survivor inbox carries exactly one copy."""
    payloads = {0: ("v", 0), 1: ("v", 1), 2: ("v", 2)}
    kernel = _fixed_pair(
        (1, 2, 3, 1), payloads, {3: {2: (("v", 0),)}}, numerate,
        drops=ExplicitDrops({(r, 0, 2) for r in range(2)}),
    )
    for r in range(2):
        inbox = kernel.processes[2].received[r].messages()
        assert inbox.count(Message(1, ("v", 0))) == 1
        assert Message(2, ("v", 1)) in inbox


@pytest.mark.parametrize("numerate", [False, True])
def test_merge_delta_duplicating_a_surviving_message(numerate):
    """Slot 0's Byzantine homonym duplicates slot 0's message to
    receiver 1 (shared base) and receiver 2 (a survivor row that keeps
    slot 0 but loses slot 1): innumerate collapses the copy, numerate
    delivers both."""
    payloads = {0: ("v", 0), 1: ("v", 1), 2: ("v", 2)}
    kernel = _fixed_pair(
        (1, 2, 3, 1), payloads, {3: {1: (("v", 0),), 2: (("v", 0),)}},
        numerate, drops=ExplicitDrops({(r, 1, 2) for r in range(2)}),
    )
    copies = 2 if numerate else 1
    for q in (1, 2):
        inbox = kernel.processes[q].received[0].messages()
        assert inbox.count(Message(1, ("v", 0))) == copies
    assert Message(2, ("v", 1)) not in kernel.processes[2].received[0]


# ----------------------------------------------------------------------
# Copy-on-write checkpoints
# ----------------------------------------------------------------------
def _cow_kernel():
    n = 5
    assignment = balanced_assignment(n, n)
    params = SystemParams(n=n, ell=n, t=1)
    processes = [
        EchoProcess(assignment.identifier_of(k), tag=("v", k))
        for k in range(n)
    ]
    return ExecutionKernel(
        params=params, assignment=assignment, processes=processes,
        timing=LockStep(),
    )


def test_checkpoint_is_frozen_after_later_rounds():
    """Rounds executed after a snapshot never leak into it (the COW copy
    happens before the mutation)."""
    kernel = _cow_kernel()
    kernel.run(2, stop_when_all_decided=False)
    cp = kernel.checkpoint()
    snapshot_received = {
        q: dict(cp.processes[q].received) for q in kernel.correct
    }
    kernel.run(3, stop_when_all_decided=False)
    for q in kernel.correct:
        assert dict(cp.processes[q].received) == snapshot_received[q]
        assert len(kernel.processes[q].received) == 5
        assert kernel.processes[q] is not cp.processes[q]


def test_checkpoint_restore_roundtrip_shares_until_mutation():
    """A checkpoint/restore round-trip costs zero copies until the next
    mutating phase; the first step after it copies exactly once."""
    kernel = _cow_kernel()
    kernel.run(2, stop_when_all_decided=False)
    cp = kernel.checkpoint()
    assert kernel.processes[0] is cp.processes[0]  # aliased, not copied
    kernel.restore(cp)
    assert kernel.processes[0] is cp.processes[0]  # still aliased
    kernel.step()
    assert kernel.processes[0] is not cp.processes[0]  # owned now


def test_checkpoint_seeds_multiple_identical_branches():
    """One snapshot replayed twice produces byte-identical branches."""
    kernel = _cow_kernel()
    kernel.run(2, stop_when_all_decided=False)
    cp = kernel.checkpoint()

    def branch():
        kernel.restore(cp)
        kernel.run(3, stop_when_all_decided=False)
        return (
            kernel.trace.snapshot(),
            tuple(kernel.deliveries),
            [
                kernel.processes[q].received[4].messages()
                for q in kernel.correct
            ],
        )

    assert branch() == branch()


def test_restore_then_finish_round_copies_before_delivery():
    """The explorer's restore -> finish_round (no re-compose) pattern:
    delivery must not mutate the snapshot's processes."""
    kernel = _cow_kernel()
    payloads = kernel.compose_round()
    cp = kernel.checkpoint()
    kernel.finish_round(payloads)
    assert 0 in kernel.processes[0].received
    assert 0 not in cp.processes[0].received  # snapshot untouched
    kernel.restore(cp)
    kernel.finish_round(payloads)
    assert 0 not in cp.processes[0].received  # still untouched
