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
