"""Tests for execution traces and metrics accounting."""

import pytest

from repro.core.errors import ReplayError
from repro.sim.metrics import (
    Metrics,
    RoundDeliveries,
    metrics_from_deliveries,
    payload_size,
)
from repro.sim.trace import RoundRecord, Trace


def record(round_no, payloads=None, emissions=None, decisions=None):
    return RoundRecord(
        round_no=round_no,
        payloads=payloads or {},
        emissions=emissions or {},
        decisions=decisions or {},
    )


class TestTrace:
    def test_appends_in_order(self):
        trace = Trace()
        trace.append(record(0))
        trace.append(record(1))
        assert len(trace) == 2

    def test_rejects_out_of_order_rounds(self):
        trace = Trace()
        with pytest.raises(ReplayError):
            trace.append(record(1))

    def test_payload_lookup(self):
        trace = Trace()
        trace.append(record(0, payloads={2: "hello"}))
        assert trace.payload_of(0, 2) == "hello"
        assert trace.payload_of(0, 1) is None

    def test_missing_round_raises(self):
        trace = Trace()
        with pytest.raises(ReplayError):
            trace.record(0)

    def test_decisions_keep_first_occurrence(self):
        trace = Trace()
        trace.append(record(0, decisions={1: "a"}))
        trace.append(record(1, decisions={1: "b", 2: "c"}))
        assert trace.decisions() == {1: "a", 2: "c"}
        assert trace.decision_rounds() == {1: 0, 2: 1}

    def test_summary_is_bounded(self):
        trace = Trace()
        for r in range(30):
            trace.append(record(r, payloads={0: "x"}))
        text = trace.summary(max_rounds=5)
        assert "more rounds" in text


class TestRoundRecord:
    def test_byzantine_message_count(self):
        rec = record(
            0,
            emissions={3: {0: ("a", "b"), 1: ("c",)}},
        )
        assert rec.byzantine_message_count == 3

    def test_correct_message_count(self):
        assert record(0, payloads={0: "x", 1: "y"}).correct_message_count == 2


class TestMetrics:
    def test_payload_size_is_repr_length(self):
        assert payload_size("ab") == len(repr("ab"))

    def test_merge(self):
        a = Metrics(rounds=1, correct_broadcasts=2, correct_messages=4,
                    byzantine_messages=1, payload_bytes=10)
        b = Metrics(rounds=2, correct_broadcasts=1, correct_messages=2,
                    byzantine_messages=0, payload_bytes=5)
        c = a.merge(b)
        assert (c.rounds, c.correct_broadcasts, c.correct_messages,
                c.byzantine_messages, c.payload_bytes) == (3, 3, 6, 1, 15)

    def test_summary_format(self):
        assert "rounds" in Metrics().summary()


class TestMetricsFromDeliveries:
    def test_fold(self):
        deliveries = [
            RoundDeliveries(
                round_no=0, correct_broadcasts=2, correct_deliveries=5,
                byzantine_deliveries=1, correct_payload_bytes=40,
                byzantine_payload_bytes=3,
            ),
            RoundDeliveries(
                round_no=1, correct_broadcasts=1, correct_deliveries=3,
                byzantine_deliveries=0, correct_payload_bytes=9,
                byzantine_payload_bytes=0,
            ),
        ]
        m = metrics_from_deliveries(deliveries)
        assert m.rounds == 2
        assert m.correct_broadcasts == 3
        assert m.correct_messages == 8
        assert m.byzantine_messages == 1
        assert m.total_messages == 9
        assert m.payload_bytes == 52

    def test_empty_log(self):
        assert metrics_from_deliveries([]) == Metrics()

    def test_full_fanout_counts_every_copy(self):
        """On the complete topology with no drops, every broadcast
        reaches all ``n`` processes, so the exact count is closed form."""
        from repro.core.identity import balanced_assignment
        from repro.core.params import SystemParams
        from repro.sim.kernel import ExecutionKernel
        from repro.sim.process import EchoProcess

        n, rounds = 5, 4
        assignment = balanced_assignment(n, n)
        engine = ExecutionKernel(
            params=SystemParams(n=n, ell=n, t=0),
            assignment=assignment,
            processes=[EchoProcess(assignment.identifier_of(k))
                       for k in range(n)],
        )
        engine.run(max_rounds=rounds, stop_when_all_decided=False)
        exact = metrics_from_deliveries(engine.deliveries)
        assert exact.rounds == rounds
        assert exact.correct_broadcasts == n * rounds
        assert exact.correct_messages == n * n * rounds
        assert exact.byzantine_messages == 0
