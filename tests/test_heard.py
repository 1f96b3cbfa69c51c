"""What an impostor hears is what the message fabric built for its slot.

The simulated-correct adversaries (obedient input-flippers, Lemma 17's
mirror) deliver :attr:`AdversaryView.heard
<repro.sim.adversary.AdversaryView.heard>` to their internal correct
instances, and the ghost faces deliver :meth:`GhostPlan.heard
<repro.explore.alphabet.GhostPlan.heard>`.  These tests pin:

* ``view.heard[slot]`` against the frozen pre-fabric rebuild
  (:func:`tests.oracles.heard.rebuild_inbox`), message for message and
  in order, over real kernel rounds with one or two Byzantine slots,
  homonyms, both numeracies and restrictions, equal-but-distinct twin
  payloads (``0``/``False``/``0.0``, ``1``/``True``/``1.0``) and active
  drop rounds -- drops never reach the full-information adversary;
* a :class:`~repro.adversaries.ghosts.GhostFaceAdversary` in a kernel
  against a :class:`~repro.explore.alphabet.GhostBank` stepped on the
  same correct payloads: the same faces, round by round;
* checkpoint/restore: a restored kernel hands the adversary the heard
  map of the checkpoint, not that of a divergent branch;
* the ghosts' views (:class:`~repro.explore.alphabet.GhostBank`) and
  the explorer's scratch deliveries (``_post_states``), both taken
  from the fabric's round table, against the frozen code they
  replaced (:func:`tests.oracles.heard.ghost_heard`,
  :func:`tests.oracles.heard.scratch_inboxes`), under random drops and
  cut schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.ghosts import GhostFaceAdversary
from repro.core.identity import IdentityAssignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.experiments.harness import algorithm_for
from repro.explore.alphabet import GhostBank, GhostPlan
from repro.explore.search import ExploreScenario, _post_states
from repro.explore.strategy import StrategyScript
from repro.sim.adversary import Adversary
from repro.sim.kernel import BasicPsync, ExecutionKernel
from repro.sim.partial import RandomDrops
from repro.sim.process import EchoProcess, Process
from repro.sim.runner import make_processes
from tests.oracles.heard import ghost_heard, rebuild_inbox, scratch_inboxes

#: Equal-but-distinct twins (same ``==`` and hash, other type and
#: ``repr``), plus tuples carrying them.
VALUES = (0, False, 0.0, 1, True, 1.0, ("v", 0), ("v", False), ("v", 1.0))


def exact_payload(payload):
    """A payload as a key that tells twins apart."""
    return type(payload), repr(payload)


def exact(inbox):
    """An inbox as a list that tells twins apart."""
    return [(m.sender_id, *exact_payload(m.payload)) for m in inbox]


class _Scripted(Process):
    """Broadcasts ``script[round]`` (``None``: silent), ignores inboxes."""

    def __init__(self, identifier, script):
        super().__init__(identifier)
        self._script = script

    def compose(self, round_no):
        return self._script[round_no]

    def deliver(self, round_no, inbox):
        pass


class _Probe(Adversary):
    """Emits a fixed script and keeps every view it is shown."""

    def __init__(self, script):
        self._script = script
        self.views = []

    def emissions(self, view):
        self.views.append(view)
        return self._script[view.round_no]


@st.composite
def executions(draw):
    """A small homonym system, its scripts and a timing model."""
    n = draw(st.integers(3, 6))
    n_byz = draw(st.integers(1, 2))
    ell = draw(st.integers(1, n))
    ids = list(range(1, ell + 1)) + draw(
        st.lists(st.integers(1, ell), min_size=n - ell, max_size=n - ell)
    )
    ids = draw(st.permutations(ids))
    byzantine = tuple(sorted(draw(st.sets(
        st.integers(0, n - 1), min_size=n_byz, max_size=n_byz
    ))))
    restricted = draw(st.booleans())
    params = SystemParams(
        n=n, ell=ell, t=n_byz,
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=draw(st.booleans()), restricted=restricted,
    )
    rounds = draw(st.integers(2, 4))
    payload = st.one_of(st.none(), st.sampled_from(VALUES))
    scripts = {
        k: [draw(payload) for _ in range(rounds)]
        for k in range(n) if k not in byzantine
    }
    batch = st.lists(
        st.sampled_from(VALUES), max_size=1 if restricted else 2
    ).map(tuple)
    emissions = [
        {b: {q: draw(batch) for q in range(n)} for b in byzantine}
        for _ in range(rounds)
    ]
    # p = 1.0 loses every correct-to-correct link before GST, so no
    # correct receiver hears every broadcast in those rounds.
    drops = draw(st.sampled_from((None, 0.4, 1.0)))
    timing = None if drops is None else BasicPsync(
        RandomDrops(gst=draw(st.integers(1, rounds)), p=drops,
                    seed=draw(st.integers(0, 99)))
    )
    return params, IdentityAssignment(ell, tuple(ids)), byzantine, \
        scripts, emissions, timing, rounds


@settings(max_examples=150, deadline=None)
@given(executions())
def test_heard_matches_the_frozen_rebuild(case):
    params, assignment, byzantine, scripts, emissions, timing, rounds = case
    processes = [
        _Scripted(assignment.identifier_of(k), scripts[k])
        if k in scripts else None
        for k in range(params.n)
    ]
    probe = _Probe(emissions)
    kernel = ExecutionKernel(
        params, assignment, processes, byzantine, probe, timing
    )
    kernel.run(rounds, stop_when_all_decided=False)
    assert probe.views[0].heard == {}
    for view in probe.views[1:]:
        record = kernel.trace.record(view.round_no - 1)
        assert sorted(view.heard) == list(byzantine)
        for slot in byzantine:
            got = view.heard[slot]
            want = rebuild_inbox(view, record, slot)
            assert got.numerate == want.numerate
            assert exact(got) == exact(want), (view.round_no - 1, slot)


def test_heard_shares_the_receivers_inbox_object():
    """A slot that hears exactly what a correct receiver hears gets
    that receiver's inbox object (so per-inbox memos hit for it)."""
    params = SystemParams(n=4, ell=2, t=1, numerate=True)
    assignment = IdentityAssignment(2, (1, 2, 1, 2))
    processes = [EchoProcess(assignment.identifier_of(k)) for k in range(3)]
    probe = _Probe([{}, {3: {0: ("x",)}}, {}])
    kernel = ExecutionKernel(
        params, assignment, processes + [None], (3,), probe
    )
    kernel.run(3, stop_when_all_decided=False)
    assert probe.views[1].heard[3] is processes[1].received[0]
    # Round 1 addressed a message to receiver 0 only.
    assert probe.views[2].heard[3] is processes[1].received[1]
    assert probe.views[2].heard[3] is not processes[0].received[1]


# ----------------------------------------------------------------------
# The ghost face and the explorer's ghost bank hear alike
# ----------------------------------------------------------------------
GHOST_PARAMS = [
    SystemParams(n=4, ell=3, t=1, numerate=False),
    SystemParams(n=4, ell=3, t=1, numerate=True),
    SystemParams(n=5, ell=3, t=2, numerate=False),
    SystemParams(n=5, ell=3, t=2, numerate=True),
]


def _ghost_faces_agree(params, plan, rounds=8):
    assignment = IdentityAssignment(
        params.ell, tuple(k % params.ell + 1 for k in range(params.n))
    )
    byzantine = tuple(range(params.n - params.t, params.n))
    _, factory, _ = algorithm_for(params, BINARY, unchecked=True)
    proposals = {
        k: k % 2 for k in range(params.n) if k not in byzantine
    }
    kernel = ExecutionKernel(
        params, assignment,
        make_processes(factory, assignment, proposals, byzantine),
        byzantine, GhostFaceAdversary(factory, plan),
    )
    kernel.run(rounds, stop_when_all_decided=False)
    bank = GhostBank(ExploreScenario(
        params=params, assignment=assignment, byzantine=byzantine,
        factory=factory, proposals=proposals, depth=rounds,
        ghost_plans=(plan,),
    ))
    prev = None
    for record in kernel.trace:
        faces = bank.step(record.round_no, prev)
        for slot in byzantine:
            emitted = record.emissions.get(slot, {})
            want = faces[slot, 0]
            if want is None:
                assert emitted == {}
            else:
                assert set(emitted) == set(range(params.n))
                for batch in emitted.values():
                    assert len(batch) == 1
                    assert exact_payload(batch[0]) == exact_payload(want)
        prev = record.payloads


def test_imposter_face_matches_the_bank():
    for params in GHOST_PARAMS:
        for proposal in BINARY.domain:
            _ghost_faces_agree(params, GhostPlan(proposal, None))


def test_partition_face_matches_the_bank():
    for params in GHOST_PARAMS:
        for proposal in BINARY.domain:
            _ghost_faces_agree(params, GhostPlan(proposal, (0, 2)))


# ----------------------------------------------------------------------
# Restore safety
# ----------------------------------------------------------------------
def test_restore_brings_back_the_heard_map():
    params = SystemParams(n=5, ell=3, t=2, numerate=True)
    assignment = IdentityAssignment(3, (1, 2, 3, 1, 2))
    byzantine = (3, 4)
    script = [
        {3: {q: (r, "a") for q in range(5)}, 4: {3: (("b", r),)}}
        for r in range(6)
    ]

    def fresh():
        probe = _Probe(script)
        processes = [EchoProcess(assignment.identifier_of(k)) for k in range(3)]
        kernel = ExecutionKernel(
            params, assignment, processes + [None, None], byzantine, probe
        )
        return kernel, probe

    straight, straight_probe = fresh()
    straight.run(4, stop_when_all_decided=False)
    want = straight_probe.views[3].heard

    kernel, probe = fresh()
    kernel.run(3, stop_when_all_decided=False)
    snapshot = kernel.checkpoint()
    # A divergent branch: other emissions, then a further round.
    kernel.finish_round(kernel.compose_round(), {3: {3: ("other",)}})
    kernel.step()
    assert exact(probe.views[-1].heard[3]) != exact(want[3])
    kernel.restore(snapshot)
    kernel.step()
    got = probe.views[-1].heard
    assert probe.views[-1].round_no == 3
    assert sorted(got) == sorted(want)
    for slot in byzantine:
        assert exact(got[slot]) == exact(want[slot])


# ----------------------------------------------------------------------
# Ghost views and scratch deliveries against the frozen oracles
# ----------------------------------------------------------------------
class _Recorder(_Scripted):
    """A scripted process that keeps every inbox it is delivered."""

    def __init__(self, identifier, script):
        super().__init__(identifier, script)
        self.received = {}

    def deliver(self, round_no, inbox):
        self.received[round_no] = inbox


@st.composite
def explorer_rounds(draw):
    """A homonym system, correct and ghost scripts, ghost plans, a
    delta alphabet and a lossy timing model (random drops or a cut)."""
    n = draw(st.integers(3, 6))
    n_byz = draw(st.integers(1, 2))
    ell = draw(st.integers(1, n))
    ids = list(range(1, ell + 1)) + draw(
        st.lists(st.integers(1, ell), min_size=n - ell, max_size=n - ell)
    )
    ids = draw(st.permutations(ids))
    byzantine = tuple(sorted(draw(st.sets(
        st.integers(0, n - 1), min_size=n_byz, max_size=n_byz
    ))))
    correct = [k for k in range(n) if k not in byzantine]
    params = SystemParams(
        n=n, ell=ell, t=n_byz, numerate=draw(st.booleans()),
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
    )
    rounds = draw(st.integers(2, 4))
    payload = st.one_of(st.none(), st.sampled_from(VALUES))
    scripts = {k: [draw(payload) for _ in range(rounds)] for k in correct}
    visible = st.one_of(st.none(), st.lists(
        st.sampled_from(correct), unique=True, max_size=len(correct) - 1
    ).map(lambda slots: tuple(sorted(slots))))
    plans = tuple(
        GhostPlan(i, draw(visible)) for i in range(draw(st.integers(1, 3)))
    )
    ghost_scripts = [[draw(payload) for _ in range(rounds)] for _ in plans]
    deltas = draw(st.lists(st.lists(st.tuples(
        st.sampled_from(byzantine), st.sampled_from(VALUES)
    ), max_size=2), min_size=1, max_size=3))
    loss = draw(st.sampled_from(("none", "drops", "cut")))
    if loss == "drops":
        schedule = RandomDrops(gst=rounds, p=draw(st.sampled_from((0.4, 1.0))),
                               seed=draw(st.integers(0, 99)))
    elif loss == "cut":
        block = draw(st.sets(st.sampled_from(correct)))
        schedule = StrategyScript(emissions={}, cut=(
            tuple(sorted(block)),
            tuple(k for k in correct if k not in block),
        ), cut_until=rounds).drop_schedule()
    timing = None if loss == "none" else BasicPsync(schedule)
    scenario = ExploreScenario(
        params=params, assignment=IdentityAssignment(ell, tuple(ids)),
        byzantine=byzantine,
        factory=lambda ident, i: _Recorder(ident, ghost_scripts[i]),
        proposals={}, depth=rounds, ghost_plans=plans,
    )
    return scenario, scripts, deltas, timing


@settings(max_examples=150, deadline=None)
@given(explorer_rounds())
def test_table_inboxes_match_the_frozen_oracles(case):
    scenario, scripts, deltas, timing = case
    params, assignment = scenario.params, scenario.assignment
    ident_of = assignment.identifier_of
    kernel = ExecutionKernel(params, assignment, [
        _Recorder(ident_of(k), scripts[k]) if k in scripts else None
        for k in range(params.n)
    ], scenario.byzantine, None, timing)
    bank = GhostBank(scenario)
    prev = None
    last = {}
    for r in range(scenario.depth):
        faces = bank.step(r, prev)
        if prev is not None:
            for (slot, i), ghost in bank._ghosts.items():
                want = ghost_heard(
                    scenario.ghost_plans[i].visible, prev, ident_of, slot,
                    last[slot, i], params.numerate,
                )
                got = ghost.received[r - 1]
                assert got.numerate == want.numerate
                assert exact(got) == exact(want), (r - 1, slot, i)
        last = faces

        payloads = kernel.compose_round()
        outcomes = _post_states(
            scenario, kernel, kernel.checkpoint(), payloads, deltas, {}
        )
        receivers = kernel.correct
        rows = [[False] * len(payloads)] * len(receivers)
        if kernel.timing.active(r):
            rows = kernel.timing.removed_mask(
                r, receivers, tuple(payloads)
            ).tolist()
        for q, row in zip(receivers, rows):
            want = scratch_inboxes(
                payloads, ident_of, params.numerate, row, deltas
            )
            got = [proc.received[r] for _, proc in outcomes[q]]
            assert [inbox.numerate for inbox in got] == \
                [inbox.numerate for inbox in want]
            assert list(map(exact, got)) == list(map(exact, want)), (r, q)
        kernel.finish_round(payloads, {})
        prev = payloads
