"""Tests for the generic adversary library itself."""

import pytest

from repro.adversaries.generic import (
    CrashAdversary,
    DuplicatorAdversary,
    EquivocatorAdversary,
    InputFlipAdversary,
    RandomByzantineAdversary,
    standard_attack_suite,
)
from repro.classic.eig import EIGSpec
from repro.classic.runner import classic_factory
from repro.core.errors import AdversaryViolation
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams
from repro.core.problem import BINARY
from repro.sim.kernel import ExecutionKernel
from repro.sim.process import EchoProcess


def make_engine(adversary, n=4, ell=4, t=1, byz=(3,), restricted=False,
                numerate=True):
    params = SystemParams(n=n, ell=ell, t=t, restricted=restricted,
                          numerate=numerate)
    assignment = balanced_assignment(n, ell)
    processes = [
        None if k in byz else EchoProcess(assignment.identifier_of(k))
        for k in range(n)
    ]
    engine = ExecutionKernel(
        params=params, assignment=assignment, processes=processes,
        byzantine=byz, adversary=adversary,
    )
    return engine, processes


def eig_fact():
    return classic_factory(EIGSpec(4, 1, BINARY))


class TestCrashAdversary:
    def test_speaks_then_goes_silent(self):
        engine, procs = make_engine(CrashAdversary(eig_fact(), crash_round=2))
        for _ in range(4):
            engine.step()
        byz_rounds = [
            r.round_no for r in engine.trace if r.byzantine_message_count
        ]
        assert byz_rounds == [0, 1]

    def test_pre_crash_messages_mimic_the_protocol(self):
        engine, procs = make_engine(CrashAdversary(eig_fact(), crash_round=2,
                                                   proposal=1))
        engine.step()
        inbox = procs[0].received[0]
        from_byz = [m for m in inbox if m.sender_id == 4]
        assert from_byz and from_byz[0].payload[0] == "eig"


class TestEquivocator:
    def test_sends_different_faces_by_recipient_parity(self):
        engine, procs = make_engine(EquivocatorAdversary(eig_fact()))
        engine.step()
        even_face = [m.payload for m in procs[0].received[0]
                     if m.sender_id == 4]
        odd_face = [m.payload for m in procs[1].received[0]
                    if m.sender_id == 4]
        assert even_face and odd_face and even_face != odd_face

    def test_legal_under_restriction(self):
        engine, _ = make_engine(EquivocatorAdversary(eig_fact()),
                                restricted=True)
        engine.step()  # must not raise


class TestDuplicator:
    def test_sends_two_messages_per_recipient(self):
        engine, procs = make_engine(DuplicatorAdversary(eig_fact()))
        engine.step()
        copies = [m for m in procs[0].received[0] if m.sender_id == 4]
        assert len(copies) == 2

    def test_illegal_under_restriction(self):
        engine, _ = make_engine(DuplicatorAdversary(eig_fact()),
                                restricted=True)
        with pytest.raises(AdversaryViolation):
            engine.step()


class TestInputFlip:
    def test_behaves_exactly_like_a_correct_process(self):
        engine, procs = make_engine(InputFlipAdversary(eig_fact(), proposal=1))
        for _ in range(2):
            engine.step()
        # Its round-0 message equals a correct process's with input 1.
        inbox = procs[0].received[0]
        from_byz = [m.payload for m in inbox if m.sender_id == 4]
        assert from_byz == [("eig", 1, (((), 1),))]


class TestRandomByzantine:
    def test_deterministic_per_seed(self):
        def emissions_of(seed):
            engine, _ = make_engine(RandomByzantineAdversary(seed=seed))
            records = []
            for _ in range(5):
                records.append(engine.step().emissions)
            return repr(records)

        assert emissions_of(3) == emissions_of(3)
        assert emissions_of(3) != emissions_of(4)

    def test_respects_restriction(self):
        engine, _ = make_engine(RandomByzantineAdversary(seed=1),
                                restricted=True)
        for _ in range(6):
            record = engine.step()
            for per_recipient in record.emissions.values():
                assert all(len(batch) <= 1 for batch in per_recipient.values())


class TestStandardSuite:
    def test_unrestricted_suite_contains_duplicator(self):
        names = [name for name, _ in standard_attack_suite(eig_fact(), False)]
        assert "duplicator" in names
        assert "equivocator" in names

    def test_restricted_suite_excludes_duplicator(self):
        names = [name for name, _ in standard_attack_suite(eig_fact(), True)]
        assert "duplicator" not in names

    def test_seeded_attacks_included(self):
        names = [name for name, _ in
                 standard_attack_suite(eig_fact(), False, seeds=(7, 9))]
        assert "random-7" in names and "random-9" in names
