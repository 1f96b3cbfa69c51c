"""Golden certificates for the strategy explorer's state identity.

The explorer's transposition table keys every post-round process state
by :func:`repro.core.canonical.canonical_state_key`.  These tests pin
the exact deterministic summary (nodes expanded, children, duplicate
faces, transposition hits, raw tree size) and the witness of a set of
small scopes, covering every process type the explorer runs: T(EIG)
(synchronous), Figure 7 (restricted, numerate) and Figure 5 (partially
synchronous, in both search modes).  Any change to how states are
identified that merges or splits states shows up here as a changed
count.

Two of the violation scopes are chosen for where their violating child
sits: after duplicate per-receiver outcome classes (children the search
credits in bulk instead of walking), so the counters they stop with pin
how those duplicates are credited -- before a recursion (the n = 4,
ell = 3 hunt) and before the violating child itself (the toy
``DissentProcess`` scope).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic.eig import EIGSpec, EIGState
from repro.core.canonical import canonical_state_key, reflective_state_key
from repro.core.messages import Inbox, Message
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.explore import alphabet, default_scenario, explore, search
from repro.homonyms.transform import HomonymProcess
from repro.psync.ablations import (
    NoDecideRelayDLSProcess,
    NoVoteDLSProcess,
    no_decide_relay_factory,
    no_vote_factory,
)
from repro.psync.dls_homonyms import DLSHomonymProcess
from repro.psync.restricted import RestrictedNumerateProcess
from repro.sim.process import Process

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS

#: name -> (params, default_scenario keyword arguments).
SCENARIOS = {
    **{
        f"sync-n4-byz{b}-d6": (SystemParams(4, 4, 1), dict(byzantine=(b,), depth=6))
        for b in range(4)
    },
    "sync-n3-d6": (SystemParams(3, 3, 1), dict(depth=6)),
    "sync-n3-default": (SystemParams(3, 3, 1), {}),
    "restricted-n3-d4": (
        SystemParams(3, 3, 1, numerate=True, restricted=True), dict(depth=4),
    ),
    "psync-n3-d4": (SystemParams(3, 3, 1, PSYNC), dict(depth=4)),
    "psync-n3-tree-d2": (
        SystemParams(3, 3, 1, PSYNC), dict(depth=2, persistent=False),
    ),
    "sync-n4-ell3-byz0-d8": (
        SystemParams(4, 3, 1),
        dict(byzantine=(0,), proposals={1: 0, 2: 1, 3: 1}),
    ),
    "dissent-n3-d2": (SystemParams(3, 3, 1), dict(depth=2)),
}


class DissentProcess(Process):
    """Toy process: adopts a value identifier 3 alone contradicts it with.

    Under the n = 3 scope (identifier 3 is the Byzantine slot's) a
    receiver's outcome classes merge silence with whichever face it
    ignores, so the first disagreement the search reaches follows
    duplicates of the children before it.
    """

    def compose(self, round_no):
        return self.proposal

    def deliver(self, round_no, inbox):
        heard = {m.payload for m in inbox.from_identifier(3)}
        if len(heard) == 1:
            (value,) = heard
            if value is not None and value != self.proposal:
                self.record_decision(value, round_no)


#: name -> the process factory replacing the scope's default algorithm.
FACTORIES = {"dissent-n3-d2": DissentProcess}

_N4 = (
    "exhausted: 84 nodes expanded (9674 children, 142 duplicate faces, "
    "6216 transposition hits); raw tree 10168443865 nodes -> "
    "121052903.2x reduction; depth 6"
)

#: name -> (outcome + deterministic summary, sha256 of the witness JSON).
GOLDEN = {
    **{f"sync-n4-byz{b}-d6": (_N4, None) for b in range(4)},
    "sync-n3-d6": (
        "exhausted: 30 nodes expanded (443 children, 41 duplicate faces, "
        "270 transposition hits); raw tree 1553526 nodes -> 51784.2x "
        "reduction; depth 6",
        None,
    ),
    "sync-n3-default": (
        "violation: 152 nodes expanded (2211 children, 225 duplicate "
        "faces, 1890 transposition hits); depth 8",
        "2dab7152f73e0829c2ce5beb15ea6d32115801e90335ab706667275f247f1097",
    ),
    "restricted-n3-d4": (
        "exhausted: 474 nodes expanded (6714 children, 626 duplicate "
        "faces, 5086 transposition hits); raw tree 36887 nodes -> 77.8x "
        "reduction; depth 4",
        None,
    ),
    "psync-n3-d4": (
        "exhausted: 164 nodes expanded (41 children, 0 duplicate faces, "
        "0 transposition hits); raw tree 164 nodes -> 1.0x reduction; "
        "depth 4",
        None,
    ),
    "psync-n3-tree-d2": (
        "exhausted: 20 nodes expanded (1276 children, 24 duplicate faces, "
        "17 transposition hits); raw tree 1278 nodes -> 63.9x reduction; "
        "depth 2",
        None,
    ),
    "sync-n4-ell3-byz0-d8": (
        "violation: 589 nodes expanded (35041 children, 1673 duplicate "
        "faces, 33666 transposition hits); depth 8",
        "232781df2d9960bbc9fca7416911e28fd00075d853956577e36003636bdb8fe1",
    ),
    "dissent-n3-d2": (
        "violation: 2 nodes expanded (18 children, 4 duplicate faces, "
        "2 transposition hits); depth 2",
        "fa2f964a5f761b18856395f8b3c1eea489155999c969fbd50e5c9bfec72441d6",
    ),
}


def certificate_fingerprint(name: str) -> tuple[str, str | None]:
    """``(outcome: deterministic summary, witness digest)`` of one scope."""
    params, kwargs = SCENARIOS[name]
    scenario = default_scenario(params, **kwargs)
    if name in FACTORIES:
        scenario = dataclasses.replace(scenario, factory=FACTORIES[name])
    certificate = explore(scenario)
    summary = f"{certificate.outcome}: {certificate.stats.deterministic_summary()}"
    witness = None
    if certificate.witness is not None:
        text = json.dumps(certificate.witness.to_dict(), sort_keys=True)
        witness = hashlib.sha256(text.encode()).hexdigest()
    return summary, witness


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_certificate(name):
    assert certificate_fingerprint(name) == GOLDEN[name]


# ----------------------------------------------------------------------
# The explicit keys agree with the reflective oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_certificate_under_reflective_oracle(name, monkeypatch):
    # The reflective key is the specification of state identity: the
    # explicit state_key() overrides may only be faster, never produce
    # a different search.
    monkeypatch.setattr(search, "canonical_state_key", reflective_state_key)
    monkeypatch.setattr(alphabet, "canonical_state_key", reflective_state_key)
    assert certificate_fingerprint(name) == GOLDEN[name]


#: The process classes with their own state_key(), each with an
#: explorer scope that reaches its states.
_PSYNC3 = SystemParams(3, 3, 1, PSYNC)
_RESTRICTED3 = SystemParams(3, 3, 1, numerate=True, restricted=True)
STATE_SCOPES = {
    HomonymProcess: (SystemParams(4, 4, 1), dict(depth=6), None),
    RestrictedNumerateProcess: (_RESTRICTED3, dict(depth=3), None),
    DLSHomonymProcess: (_PSYNC3, dict(depth=2, persistent=False), None),
    NoVoteDLSProcess: (_PSYNC3, dict(depth=16), no_vote_factory),
    NoDecideRelayDLSProcess: (_PSYNC3, dict(depth=16), no_decide_relay_factory),
}

#: Payload leaves the adversary may swap in: values ``==`` merges but the
#: reflective key separates, plus strings and nested tuples.
ADVERSARIAL_VALUES = (
    0, 1, True, False, 1.0, 0.0, "1", (1, (True,)), (True, (1,)), ((0,), "0"),
)


def _equal_twins(value) -> list:
    """The adversarial values ``==``-equal to ``value`` (itself first)."""
    return [value] + [
        w for w in ADVERSARIAL_VALUES if w == value and repr(w) != repr(value)
    ]


@functools.lru_cache(maxsize=None)
def reached_states(cls) -> tuple:
    """``(next round, frozen copy)`` of every state ``cls`` reaches
    while the explorer searches its scope (kernel processes, scratch
    post-states and ghosts alike)."""
    params, kwargs, factory = STATE_SCOPES[cls]
    scenario = default_scenario(params, **kwargs)
    if factory is not None:
        scenario = dataclasses.replace(
            scenario, factory=factory(params, BINARY, unchecked=True)
        )
    seen: dict = {}
    original = cls.deliver
    overrides = "deliver" in vars(cls)

    def recording_deliver(self, round_no, inbox):
        original(self, round_no, inbox)
        if type(self) is cls:
            snapshot = copy.deepcopy(self)
            key = (round_no + 1, reflective_state_key(snapshot))
            seen.setdefault(key, (round_no + 1, snapshot))

    cls.deliver = recording_deliver
    try:
        explore(scenario)
    finally:
        if overrides:
            cls.deliver = original
        else:
            del cls.deliver
    assert len(seen) >= 10, f"{cls.__name__}: only {len(seen)} states reached"
    return tuple(seen[key] for key in sorted(seen))


def _states_by_round(cls) -> dict:
    """:func:`reached_states` grouped by their next round."""
    groups: dict = {}
    for entry in reached_states(cls):
        groups.setdefault(entry[0], []).append(entry)
    return groups


def _substitute(payload, picks, twins):
    """``payload`` with its int leaves rewritten, in walk order.

    The ``i``-th int leaf becomes ``ADVERSARIAL_VALUES[picks[i]]`` when
    ``picks`` (a dict) holds ``i``, and then the ``twins[i]``-th value
    ``==``-equal to it (``twins`` repeats cyclically) -- so two calls
    with the same picks and different twins build payloads that compare
    equal but differ in ``1`` versus ``True`` versus ``1.0``.
    """
    position = [0]

    def walk(node):
        if isinstance(node, tuple):
            return tuple(walk(child) for child in node)
        if type(node) is not int:
            return node
        i = position[0]
        position[0] += 1
        if i in picks:
            node = ADVERSARIAL_VALUES[picks[i]]
        if twins:
            options = _equal_twins(node)
            node = options[twins[i % len(twins)] % len(options)]
        return node

    return walk(payload)


@st.composite
def state_and_inboxes(draw, cls):
    """A reached state plus two adversarial inboxes for its next round.

    Each inbox is the state's own next payload (as every identifier
    sends it) with some int leaves swapped for adversarial values.  The
    second inbox is either the first or an ``==``-equal variant of it,
    so the two deliveries can only be told apart by value types.
    """
    by_round = _states_by_round(cls)
    group = by_round[draw(st.sampled_from(sorted(by_round)))]
    round_no, state = group[draw(st.integers(0, len(group) - 1))]
    payload = state.clone().compose(round_no)
    picks = draw(st.dictionaries(
        st.integers(0, 15), st.integers(0, len(ADVERSARIAL_VALUES) - 1),
        max_size=3,
    ))
    twins = draw(st.lists(st.integers(1, 2), min_size=1, max_size=16))
    config = state.spec if isinstance(state, HomonymProcess) else state.params
    numerate = getattr(config, "numerate", False)

    def inbox(twin_picks):
        messages = [Message(state.identifier, payload)]
        for ident in range(1, config.ell + 1):
            messages.append(Message(ident, _substitute(payload, picks, twin_picks)))
        return Inbox(messages, numerate=numerate)

    same = draw(st.booleans())
    return round_no, state, inbox(()), inbox(() if same else twins)


def _delivered(state, round_no, inbox):
    twin = state.clone()
    twin.deliver(round_no, inbox)
    return twin


@pytest.mark.parametrize("cls", list(STATE_SCOPES), ids=lambda c: c.__name__)
def test_state_key_matches_reflective_oracle(cls):
    @settings(max_examples=100, deadline=None)
    @given(state_and_inboxes(cls), st.data())
    def check(case, data):
        round_no, state, inbox_a, inbox_b = case
        a = _delivered(state, round_no, inbox_a)
        b = _delivered(state, round_no, inbox_b)
        # ... and against an unrelated reached state, which collides
        # exactly when the explorer reached one state twice.
        states = reached_states(cls)
        c = states[data.draw(st.integers(0, len(states) - 1))][1]
        for x, y in ((a, b), (a, state), (state, c), (a, c)):
            assert (x.state_key() == y.state_key()) == (
                reflective_state_key(x) == reflective_state_key(y)
            )
            assert canonical_state_key(x) == x.state_key()

    check()


def test_state_key_separates_values_equality_merges():
    spec = EIGSpec(4, 1, BINARY, unchecked=True)
    keys = set()
    for value in (1, True, 1.0, "1", (1,)):
        proc = HomonymProcess(spec, 1, 0)
        proc.state = EIGState(ident=1, rounds_done=1, tree=(((), 0), ((2,), value)))
        keys.add(proc.state_key())
    assert len(keys) == 5
    # A path of bools is not the path of ints it equals.
    proc = HomonymProcess(spec, 1, 0)
    proc.state = EIGState(ident=1, rounds_done=1, tree=(((), 0), ((True,), 1)))
    assert proc.state_key() not in keys
    # Insertion order of dict and set state does not matter.
    params = SystemParams(4, 4, 1, PSYNC)
    a = DLSHomonymProcess(params, BINARY, 1, 0)
    b = DLSHomonymProcess(params, BINARY, 1, 0)
    a.locks.update({0: 1, 1: 2})
    b.locks.update({1: 2, 0: 1})
    a._leader_locks[0] = {0, 1}
    b._leader_locks[0] = {1, 0}
    assert a.state_key() == b.state_key()
    b.locks[1] = 3
    assert a.state_key() != b.state_key()


def _attributes(obj):
    """``(owner, name)`` of every attribute of ``obj``, recursing into
    the sub-objects that key themselves (broadcasts, trackers)."""
    for name, value in vars(obj).items():
        if hasattr(type(value), "clone"):
            yield from _attributes(value)
        else:
            yield obj, name


@pytest.mark.parametrize("cls", list(STATE_SCOPES), ids=lambda c: c.__name__)
def test_state_key_covers_every_attribute(cls):
    # Replacing any one attribute, anywhere in the process, with a value
    # it never holds changes the reflective key, so it must change the
    # explicit key too: no attribute is left out of state_key().
    other_spec = EIGSpec(5, 1, BINARY)
    for _, state in reached_states(cls)[:: max(1, len(reached_states(cls)) // 5)]:
        base = state.state_key()
        for owner, name in list(_attributes(state)):
            saved = getattr(owner, name)
            probe = other_spec if isinstance(saved, EIGSpec) else ("probe",)
            setattr(owner, name, probe)
            try:
                assert state.state_key() != base, name
            finally:
                setattr(owner, name, saved)
        assert state.state_key() == base


# ----------------------------------------------------------------------
# clone() is a deep copy in behaviour
# ----------------------------------------------------------------------
def _mutate_every_container(obj, seen=None) -> int:
    """Add a probe to every dict, set and list reachable from ``obj``'s
    attributes; returns how many containers were mutated."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    count = 0
    if isinstance(obj, dict):
        for value in list(obj.values()):
            count += _mutate_every_container(value, seen)
        obj[("probe",)] = ("probe",)
        return count + 1
    if isinstance(obj, (set, list)):
        for value in list(obj):
            count += _mutate_every_container(value, seen)
        if isinstance(obj, set):
            obj.add(("probe",))
        else:
            obj.append(("probe",))
        return count + 1
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        for value in vars(obj).values():
            count += _mutate_every_container(value, seen)
    return count


@pytest.mark.parametrize("cls", list(STATE_SCOPES), ids=lambda c: c.__name__)
def test_clone_is_independent_and_equal_to_deepcopy(cls):
    @settings(max_examples=40, deadline=None)
    @given(state_and_inboxes(cls))
    def check(case):
        round_no, state, inbox, _ = case
        before = reflective_state_key(state)
        twin = state.clone()
        assert reflective_state_key(twin) == before
        assert twin.state_key() == state.state_key()
        # The same delivery to a clone and to a deep copy ends equal.
        deep = copy.deepcopy(state)
        twin.deliver(round_no, inbox)
        deep.deliver(round_no, inbox)
        assert reflective_state_key(twin) == reflective_state_key(deep)
        assert reflective_state_key(state) == before
        # No container is shared: mutating all of the clone's leaves
        # the source untouched.
        _mutate_every_container(twin)
        assert reflective_state_key(state) == before

    check()


def test_clone_copies_every_mutable_table():
    params = SystemParams(4, 4, 1, PSYNC)
    dls = DLSHomonymProcess(params, BINARY, 1, 0)
    dls.locks[0] = 1
    dls._prop_support[0] = {0: {1, 2}}
    dls._vote_support[(0, 0)] = {1}
    dls._leader_locks[0] = {0}
    dls._own_lock[0] = 0
    dls.ab._echoing.add((("vote", 0, 0), 1, 2))
    dls.ab._echo_ids[(("vote", 0, 0), 1, 2)] = {3}
    dls.ab._accepted[(("vote", 0, 0), 2)] = 1
    dls.proper._ids_for_value[0] = {1}
    restricted = RestrictedNumerateProcess(
        SystemParams(4, 2, 1, numerate=True, restricted=True), BINARY, 1, 0
    )
    restricted.locks[0] = 1
    restricted._witness_max[(("vote", 0), 2)] = 3
    restricted._leader_locks[0] = {0}
    restricted.mb._a[(1, ("vote", 0), 2)] = 2
    restricted.mb._round_echoes[(1, ("vote", 0), 2)] = [1]
    restricted.proper._round_counts[0] = 1
    for proc in (dls, restricted):
        before = reflective_state_key(proc)
        assert _mutate_every_container(proc.clone()) >= 8
        assert reflective_state_key(proc) == before
