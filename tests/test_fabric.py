"""The array fabric: oracle parity, mask builders, memoization, COW.

Pins :func:`repro.sim.fabric.deliver_round`, the one delivery path,
against code outside the fabric:

* basic-model draws against the frozen pre-fabric oracle
  (:class:`~repro.sim.network.ReferenceRoundEngine`): byte-identical
  per-receiver inboxes, :class:`~repro.sim.metrics.RoundDeliveries` and
  traces across random (topology x drop schedule x adversary) draws,
  including n in the hundreds;
* delay draws against the per-message tick loop
  (:class:`~repro.sim.delay.ReferenceDelaySimulator`): traces, inboxes
  and loss sets;
* composed timing against a per-link reconstruction from ``delivers``,
  ``drops`` and ``delay >= delta``;

plus the unit seams: the vectorized ``blocked_mask`` / ``dropped_mask``
/ ``delay_matrix`` builders vs their per-link primitives, the
per-kernel payload-size memo, and the copy-on-write checkpoint scheme.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.canonical import stable_seed
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams
from repro.sim import fabric
from repro.sim.delay import EventuallyBoundedDelays, ReferenceDelaySimulator
from repro.sim.kernel import (
    BasicPsync,
    ComposedTiming,
    DelayBased,
    ExecutionKernel,
    LockStep,
)
from repro.sim.network import ReferenceRoundEngine
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
# Payload-size memoization
# ----------------------------------------------------------------------
class _ConstantProcess(Process):
    """Broadcasts the same payload every round (memo-friendliest case)."""

    def compose(self, round_no):
        return ("const", self.identifier % 2)

    def deliver(self, round_no, inbox):
        pass


def _counting_payload_size(monkeypatch):
    from repro.sim import metrics

    calls = []

    def counted(payload):
        calls.append(payload)
        return len(repr(payload))

    monkeypatch.setattr(fabric, "payload_size", counted)
    return calls, metrics.payload_size


def test_payload_size_memoized_across_rounds(monkeypatch):
    """Regression: ``_deliver_round`` used to recompute ``payload_size``
    for every sender every round; the memo computes once per distinct
    payload per kernel."""
    calls, _ = _counting_payload_size(monkeypatch)
    n, rounds = 8, 5
    assignment = balanced_assignment(n, 4)
    params = SystemParams(n=n, ell=4, t=1)
    processes = [
        _ConstantProcess(assignment.identifier_of(k)) for k in range(n)
    ]
    kernel = ExecutionKernel(
        params=params, assignment=assignment, processes=processes,
        timing=LockStep(),
    )
    kernel.run(max_rounds=rounds, stop_when_all_decided=False)
    # Two distinct payloads across all senders and rounds -> two calls,
    # not n * rounds.
    assert len(calls) == 2
    assert sorted(set(calls), key=repr) == [("const", 0), ("const", 1)]


def test_payload_size_memo_keys_by_type(monkeypatch):
    """``1`` and ``True`` are equal but repr differently; the memo must
    not conflate them."""
    calls, real = _counting_payload_size(monkeypatch)
    cache = {}
    assert fabric.memoized_payload_size(cache, 1) == real(1)
    assert fabric.memoized_payload_size(cache, True) == real(True)
    assert fabric.memoized_payload_size(cache, 1) == real(1)
    assert len(calls) == 2  # third call hit the memo
    assert real(True) != real(1)


def test_payload_size_memo_is_bounded(monkeypatch):
    calls, _ = _counting_payload_size(monkeypatch)
    cache = {}
    limit = fabric._SIZE_CACHE_LIMIT
    for i in range(limit + 10):
        fabric.memoized_payload_size(cache, ("p", i))
    assert len(cache) <= limit


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
