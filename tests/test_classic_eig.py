"""Tests for the EIG baseline (classic unique-identifier BA)."""

import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversaries.generic import (
    CrashAdversary,
    DuplicatorAdversary,
    EquivocatorAdversary,
    InputFlipAdversary,
    RandomByzantineAdversary,
)
from repro.classic import eig
from repro.classic.eig import EIGSpec, EIGState
from repro.classic.runner import ClassicProcess, classic_factory
from repro.core.canonical import exact_key, reflective_state_key
from repro.core.errors import BoundViolation
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams
from repro.core.problem import BINARY, AgreementProblem
from repro.sim.runner import run_agreement


def run_eig(ell, t, proposals, byz=(), adversary=None, problem=BINARY):
    spec = EIGSpec(ell, t, problem)
    params = SystemParams(n=ell, ell=ell, t=t)
    return run_agreement(
        params=params,
        assignment=balanced_assignment(ell, ell),
        factory=classic_factory(spec),
        proposals=proposals,
        byzantine=byz,
        adversary=adversary,
        max_rounds=spec.max_rounds + 2,
    ), spec


class TestSpecBasics:
    def test_bound_enforced(self):
        with pytest.raises(BoundViolation):
            EIGSpec(3, 1, BINARY)

    def test_unchecked_escape_hatch(self):
        spec = EIGSpec(3, 1, BINARY, unchecked=True)
        assert spec.ell == 3

    def test_init_state_has_root_value(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(2, 1)
        assert state.tree_dict()[()] == 1
        assert state.rounds_done == 0

    def test_init_validates_value(self):
        spec = EIGSpec(4, 1, BINARY)
        with pytest.raises(ValueError):
            spec.init(1, 7)

    def test_round_one_message_is_own_value(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(2, 1)
        tag, r, entries = spec.message(state, 1)
        assert tag == "eig" and r == 1
        assert entries == (((), 1),)

    def test_silent_after_max_rounds(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(1, 0)
        assert spec.message(state, spec.max_rounds + 1) is None

    def test_decide_none_before_completion(self):
        spec = EIGSpec(4, 1, BINARY)
        assert spec.decide(spec.init(1, 0)) is None

    def test_state_repr_is_canonical(self):
        # Two states built from the same entries in different orders must
        # have equal reprs (required by the T(A) selection round).
        spec = EIGSpec(4, 1, BINARY)
        s1 = spec.init(1, 0)
        s2 = spec.transition(s1, 1, {2: ("eig", 1, (((), 1),)),
                                     3: ("eig", 1, (((), 0),))})
        s3 = spec.transition(s1, 1, {3: ("eig", 1, (((), 0),)),
                                     2: ("eig", 1, (((), 1),))})
        assert repr(s2) == repr(s3)


class TestTransitionRobustness:
    """Byzantine payloads must never corrupt the tree structurally."""

    def test_malformed_payloads_ignored(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(1, 0)
        for junk in (None, 42, ("eig",), ("eig", 1, "nope"),
                     ("wrong", 1, ()), ("eig", 2, (((), 0),))):
            after = spec.transition(state, 1, {2: junk})
            assert after.tree_dict() == {(): 0}
        assert spec.is_state(state)

    def test_path_with_sender_already_in_it_ignored(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(1, 0)
        state = spec.transition(state, 1, {2: ("eig", 1, (((), 1),))})
        # Round 2: sender 2 relays a path already containing 2 -> ignored.
        after = spec.transition(state, 2, {2: ("eig", 2, (((2,), 1),))})
        assert (2, 2) not in after.tree_dict()

    def test_duplicate_paths_in_payload_first_wins(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(1, 0)
        after = spec.transition(
            state, 1, {2: ("eig", 1, (((), 1), ((), 0)))}
        )
        assert after.tree_dict()[(2,)] == 1

    def test_out_of_range_identifiers_in_path_ignored(self):
        spec = EIGSpec(4, 1, BINARY)
        state = spec.init(1, 0)
        state = spec.transition(state, 1, {2: ("eig", 1, (((), 1),))})
        after = spec.transition(state, 2, {3: ("eig", 2, (((9,), 1),))})
        assert all(
            all(1 <= j <= 4 for j in path) for path in after.tree_dict()
        )

    def test_is_state_rejects_structural_garbage(self):
        spec = EIGSpec(4, 1, BINARY)
        assert not spec.is_state("not a state")
        assert not spec.is_state(
            EIGState(ident=9, rounds_done=0, tree=(((), 0),))
        )
        assert not spec.is_state(
            EIGState(ident=1, rounds_done=0, tree=(((1, 1), 0),))
        )


class TestFactMemo:
    """Facts derived from a frozen state are memoised by identity, out
    of sight of every equality and serialisation the state has."""

    def _touch(self, spec, state):
        """Compute (and so memoise) every derived fact of ``state``."""
        return (
            repr(state), spec.is_state(state), spec.state_key(state),
            spec.decide(state),
        )

    def test_forged_float_path_stays_invalid_after_an_equal_valid_state(self):
        spec = EIGSpec(4, 1, BINARY)
        valid = EIGState(ident=1, rounds_done=1, tree=(((), 0), ((2,), 1)))
        forged = EIGState(ident=1, rounds_done=1, tree=(((), 0), ((2.0,), 1)))
        assert valid == forged and hash(valid) == hash(forged)
        assert spec.is_state(valid)
        assert spec.state_key(valid) is valid
        assert not spec.is_state(forged)
        assert spec.state_key(forged) == exact_key(forged)
        assert spec.state_key(forged) != spec.state_key(valid)
        assert repr(forged) != repr(valid)
        # And the other way round: a cached rejection does not leak.
        assert not spec.is_state(forged)
        assert spec.is_state(valid)

    def test_validity_is_memoised_per_bound(self):
        state = EIGState(ident=4, rounds_done=0, tree=(((), 0),))
        assert EIGSpec(4, 1, BINARY).is_state(state)
        assert not EIGSpec(3, 1, BINARY, unchecked=True).is_state(state)
        assert EIGSpec(4, 1, BINARY).is_state(state)

    def test_facts_are_invisible_to_keys_equality_and_pickling(self):
        spec = EIGSpec(4, 1, BINARY)
        state = EIGState(
            ident=2, rounds_done=2,
            tree=(((), 1), ((1,), 1), ((3,), 0), ((1, 3), 1)),
        )
        twin = EIGState(state.ident, state.rounds_done, state.tree)
        before = (
            reflective_state_key(state), exact_key(state), hash(state),
            pickle.dumps(state), dict(vars(state)),
        )
        facts = self._touch(spec, state)
        assert facts == self._touch(spec, state)
        after = (
            reflective_state_key(state), exact_key(state), hash(state),
            pickle.dumps(state), dict(vars(state)),
        )
        assert after == before
        assert state == twin and pickle.dumps(twin) == before[3]
        assert reflective_state_key(twin) == before[0]
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state and self._touch(spec, clone) == facts

    def test_memo_does_not_keep_states_alive(self):
        spec = EIGSpec(4, 1, BINARY)
        gc.collect()
        baseline = len(eig._FACTS)
        states = [
            EIGState(ident=1 + k % 4, rounds_done=2, tree=(((), k % 2),))
            for k in range(50)
        ]
        for state in states:
            self._touch(spec, state)
        assert len(eig._FACTS) == baseline + len(states)
        probe = weakref.ref(states[0])
        del states, state
        gc.collect()
        assert probe() is None
        assert len(eig._FACTS) == baseline

    def test_payloads_parse_per_identifier_range(self):
        # One payload object, two specs: the parse memo keys on ell.
        payload = ("eig", 2, (((5,), 1), ((2,), 0)))
        state = EIGState(ident=1, rounds_done=1, tree=(((), 0),))
        wide = EIGSpec(7, 2, BINARY).transition(state, 2, {3: payload})
        narrow = EIGSpec(4, 1, BINARY).transition(state, 2, {3: payload})
        assert wide.tree_dict() == {(): 0, (5, 3): 1, (2, 3): 0}
        assert narrow.tree_dict() == {(): 0, (2, 3): 0}


#: The dataclass-generated repr the hand-written one must reproduce.
_DataclassState = dataclasses.make_dataclass(
    "EIGState", ["ident", "rounds_done", "tree"], frozen=True
)

_LEAVES = st.sampled_from([1, True, 1.0, "1", 0, False, None, -2])
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


@given(
    ident=st.one_of(_LEAVES, _VALUES),
    rounds_done=st.one_of(_LEAVES, _VALUES),
    tree=st.lists(
        st.tuples(st.lists(_LEAVES, max_size=3).map(tuple), _VALUES),
        max_size=4,
    ).map(tuple),
)
@example(ident="1", rounds_done=True, tree=(((1.0,), "1"), ((), (1, (True,)))))
@settings(max_examples=200, deadline=None)
def test_state_repr_matches_the_dataclass_repr(ident, rounds_done, tree):
    state = EIGState(ident=ident, rounds_done=rounds_done, tree=tree)
    expected = repr(_DataclassState(ident, rounds_done, tree))
    assert repr(state) == expected
    assert repr(state) == expected  # memoised


class TestAgreementRuns:
    def test_all_correct_unanimous(self):
        result, _ = run_eig(4, 1, {k: 1 for k in range(4)})
        assert result.verdict.ok and result.verdict.agreed_value == 1

    def test_silent_byzantine(self):
        result, _ = run_eig(4, 1, {0: 0, 1: 1, 2: 0}, byz=(3,))
        assert result.verdict.ok

    def test_validity_under_input_flip_attack(self):
        spec = EIGSpec(4, 1, BINARY)
        adversary = InputFlipAdversary(classic_factory(spec), proposal=1)
        result, _ = run_eig(4, 1, {0: 0, 1: 0, 2: 0}, byz=(3,),
                            adversary=adversary)
        assert result.verdict.ok and result.verdict.agreed_value == 0

    def test_equivocator_cannot_split(self):
        spec = EIGSpec(4, 1, BINARY)
        adversary = EquivocatorAdversary(classic_factory(spec))
        result, _ = run_eig(4, 1, {0: 0, 1: 1, 2: 0}, byz=(3,),
                            adversary=adversary)
        assert result.verdict.ok

    def test_duplicator_cannot_split(self):
        spec = EIGSpec(4, 1, BINARY)
        adversary = DuplicatorAdversary(classic_factory(spec))
        result, _ = run_eig(4, 1, {0: 1, 1: 0, 2: 1}, byz=(3,),
                            adversary=adversary)
        assert result.verdict.ok

    def test_crash_mid_protocol(self):
        spec = EIGSpec(4, 1, BINARY)
        adversary = CrashAdversary(classic_factory(spec), crash_round=1,
                                   proposal=1)
        result, _ = run_eig(4, 1, {0: 0, 1: 0, 2: 1}, byz=(3,),
                            adversary=adversary)
        assert result.verdict.ok

    def test_two_faults_seven_processes(self):
        result, _ = run_eig(7, 2, {k: k % 2 for k in range(5)}, byz=(5, 6),
                            adversary=RandomByzantineAdversary(seed=11))
        assert result.verdict.ok

    def test_larger_domain(self):
        problem = AgreementProblem(("a", "b", "c"))
        result, _ = run_eig(4, 1, {k: "b" for k in range(4)}, problem=problem)
        assert result.verdict.ok and result.verdict.agreed_value == "b"

    def test_decides_at_round_t_plus_one(self):
        result, spec = run_eig(4, 1, {k: 0 for k in range(4)})
        # Engine rounds are 0-indexed: round t+1 of the paper is index t.
        assert result.verdict.last_decision_round == spec.max_rounds - 1


@given(
    seed=st.integers(0, 50),
    inputs=st.tuples(*[st.integers(0, 1)] * 3),
)
@settings(max_examples=25, deadline=None)
def test_eig_agreement_under_random_byzantine(seed, inputs):
    """Property: EIG with n=4, t=1 survives any seeded chaos adversary."""
    result, _ = run_eig(
        4, 1, {k: inputs[k] for k in range(3)}, byz=(3,),
        adversary=RandomByzantineAdversary(seed=seed),
    )
    assert result.verdict.ok


# ----------------------------------------------------------------------
# One state per value: the append-only transition and the value table
# ----------------------------------------------------------------------
def _full_rebuild(spec, state, round_no, received):
    """The transition as a full rebuild: the tree as a dict, extended
    and re-sorted whole -- the oracle for the append-only path."""
    if round_no > spec.t + 1:
        return state
    tree = state.tree_dict()
    for sender in sorted(received):
        for path, value in spec._parse_payload(received[sender], round_no):
            if len(path) == round_no - 1 and sender not in path:
                tree.setdefault(path + (sender,), value)
    return EIGState(state.ident, round_no, eig._canonical_tree(tree))


#: Path elements and values ``==`` merges but ``repr`` and the
#: reflective key keep apart, plus out-of-range identifiers.
_PATH_IDS = st.sampled_from([1, 2, 3, 4, 5, True, 1.0, 0, 9])
_TREE_VALUES = st.sampled_from([0, 1, True, False, 1.0, "1", None, (1,), (True,)])


def _entries(path_lengths):
    return st.lists(
        st.tuples(
            path_lengths.flatmap(
                lambda k: st.lists(_PATH_IDS, min_size=k, max_size=k).map(tuple)
            ),
            _TREE_VALUES,
        ),
        max_size=5,
    ).map(tuple)


@st.composite
def _forged_state(draw):
    """An unsorted tree with entries at and past any round's level."""
    return EIGState(
        ident=draw(st.integers(1, 5)),
        rounds_done=draw(st.integers(0, 3)),
        tree=(((), draw(_TREE_VALUES)),) + draw(_entries(st.integers(0, 3))),
    )


@st.composite
def _steps(draw):
    """Rounds and received maps for a short chain of transitions."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        round_no = draw(st.integers(1, 4))
        senders = draw(st.lists(
            st.sampled_from([1, 2, 3, 4, 5, True]), max_size=5, unique=True,
        ))
        received = {}
        for sender in senders:
            if draw(st.integers(0, 9)) == 0:
                received[sender] = draw(st.sampled_from([None, ("eig",), 7]))
                continue
            tag_round = draw(st.sampled_from([round_no, round_no, round_no + 1]))
            level = st.sampled_from([round_no - 1] * 4 + [max(round_no - 2, 0)])
            received[sender] = ("eig", tag_round, draw(_entries(level)))
        steps.append((round_no, received))
    return steps


@given(
    start=st.one_of(st.integers(0, 1), _forged_state()),
    ident=st.integers(1, 5),
    steps=_steps(),
)
@example(start=0, ident=1, steps=[
    (1, {2: ("eig", 1, (((), 1),)), 3: ("eig", 1, (((), True),))}),
    (2, {2: ("eig", 2, (((True,), 1), ((3,), 1.0))),
         4: ("eig", 2, (((1,), 0), ((1.0,), 1)))}),
])
@settings(max_examples=300, deadline=None)
def test_append_transition_matches_the_full_rebuild(start, ident, steps):
    spec = EIGSpec(5, 2, BINARY, unchecked=True)
    if isinstance(start, EIGState):
        state = expected = start
    else:
        state = spec.init(ident, start)
        expected = EIGState(ident, 0, (((), start),))
    for round_no, received in steps:
        state = spec.transition(state, round_no, received)
        expected = _full_rebuild(spec, expected, round_no, received)
        assert repr(state) == repr(expected)
        # Plainness derived along the chain equals a fresh check of it.
        plain = eig._plain_tree(state.tree) and type(state.ident) is int
        assert (spec.state_key(state) is state) == plain
        assert spec.state_key(state) == spec.state_key(expected)


class TestValueSharing:
    """``init``/``transition`` hand out one instance per plain value."""

    def test_equal_plain_states_are_one_object(self):
        spec = EIGSpec(4, 1, BINARY)
        s1 = spec.init(1, 0)
        assert spec.init(1, 0) is s1
        s2 = spec.transition(s1, 1, {2: ("eig", 1, (((), 1),)),
                                     3: ("eig", 1, (((), 0),))})
        s3 = spec.transition(s1, 1, {3: ("eig", 1, (((), 0),)),
                                     2: ("eig", 1, (((), 1),))})
        assert s2 is s3
        # A forged equal state is not handed out, but its transition
        # (a full rebuild) joins the shared value.
        forged = EIGState(1, 0, (((), 0),))
        assert forged is not s1
        assert spec.transition(forged, 1, {2: ("eig", 1, (((), 1),)),
                                           3: ("eig", 1, (((), 0),))}) is s2

    def test_one_tree_and_true_tree_are_never_shared(self):
        spec = EIGSpec(4, 1, BINARY)
        root = spec.init(1, 0)
        ones = spec.transition(root, 1, {2: ("eig", 1, (((), 1),))})
        trues = spec.transition(root, 1, {2: ("eig", 1, (((), True),))})
        floats = spec.transition(root, 1, {2: ("eig", 1, (((), 1.0),))})
        assert ones == trues == floats
        assert ones is not trues and ones is not floats
        assert len({repr(ones), repr(trues), repr(floats)}) == 3
        assert spec.state_key(ones) is ones
        assert spec.state_key(trues) != spec.state_key(ones)
        assert spec.state_key(floats) != spec.state_key(ones)
        # Nor is a non-plain state shared with its own equal twin.
        again = spec.transition(root, 1, {2: ("eig", 1, (((), True),))})
        assert again is not trues and repr(again) == repr(trues)
        # A relayed True path is not the int path it equals either.
        ints = spec.transition(ones, 2, {3: ("eig", 2, (((1,), 1),))})
        bools = spec.transition(ones, 2, {3: ("eig", 2, (((True,), 1),))})
        assert ints == bools and ints is not bools
        assert spec.state_key(ints) is ints
        assert spec.state_key(bools) != spec.state_key(ints)

    def test_value_table_does_not_keep_states_alive(self):
        spec = EIGSpec(4, 1, BINARY)
        gc.collect()
        baseline = (len(eig._VALUES), len(eig._FACTS))
        states = []
        for k in range(20):
            state = spec.init(1 + k % 4, k % 2)
            payload = ("eig", 1, (((), k % 3),))
            states.append(spec.transition(state, 1, {2 + k % 3: payload}))
        assert len(eig._VALUES) > baseline[0]
        probes = [weakref.ref(state) for state in states]
        del states, state
        gc.collect()
        assert all(probe() is None for probe in probes)
        assert (len(eig._VALUES), len(eig._FACTS)) == baseline
