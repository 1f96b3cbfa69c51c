"""Message and round accounting.

The paper is a computability paper -- it proves no complexity bounds --
but the benchmark harness reports message/round costs so that the
relative costs of the algorithms (e.g. the 3x round overhead of the
Figure 3 transformation, or the echo amplification of authenticated
broadcast) are visible in the regenerated tables.

Accounting is exact: the network engine's message fabric counts every
edge it actually delivers (after topology cuts and drop schedules) and
logs a :class:`RoundDeliveries` record per round;
:func:`metrics_from_deliveries` folds the log into :class:`Metrics`.
This is what :func:`repro.sim.runner.run_execution` reports.

"Bytes" are approximated by the length of ``repr(payload)``, which is
stable, cheap, and good enough to compare algorithms against each other
within this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable


@dataclass
class Metrics:
    """Aggregated execution costs."""

    rounds: int = 0
    correct_broadcasts: int = 0
    correct_messages: int = 0  # broadcasts fanned out to recipients
    byzantine_messages: int = 0
    payload_bytes: int = 0

    def merge(self, other: "Metrics") -> "Metrics":
        return Metrics(
            rounds=self.rounds + other.rounds,
            correct_broadcasts=self.correct_broadcasts + other.correct_broadcasts,
            correct_messages=self.correct_messages + other.correct_messages,
            byzantine_messages=self.byzantine_messages + other.byzantine_messages,
            payload_bytes=self.payload_bytes + other.payload_bytes,
        )

    @property
    def total_messages(self) -> int:
        return self.correct_messages + self.byzantine_messages

    def summary(self) -> str:
        return (
            f"{self.rounds} rounds, "
            f"{self.correct_broadcasts} broadcasts "
            f"({self.correct_messages} correct msgs, "
            f"{self.byzantine_messages} byzantine msgs), "
            f"~{self.payload_bytes} payload bytes"
        )


@dataclass(frozen=True)
class RoundDeliveries:
    """Exact per-round delivery counts, as observed by the message fabric.

    One record per executed round.  "Deliveries" are edges that actually
    carried a message into a correct process's inbox: self-delivery
    counts, topology-cut and schedule-dropped edges do not, and
    adversary messages addressed to Byzantine slots (which have no
    process to receive them) do not.  Counts are physical -- innumerate
    set-collapse happens *after* delivery and does not reduce them.

    Attributes
    ----------
    round_no:
        The 0-indexed round.
    correct_broadcasts:
        Correct processes that composed a payload this round.
    correct_deliveries:
        Correct-sender edges delivered (including self-delivery).
    byzantine_deliveries:
        Adversary messages delivered to correct processes.
    correct_payload_bytes:
        Approximate bytes over the delivered correct edges.
    byzantine_payload_bytes:
        Approximate bytes over the delivered adversary messages.
    """

    round_no: int
    correct_broadcasts: int
    correct_deliveries: int
    byzantine_deliveries: int
    correct_payload_bytes: int
    byzantine_payload_bytes: int


def payload_size(payload: Hashable) -> int:
    """Approximate wire size of a payload (repr length)."""
    return len(repr(payload))


def metrics_from_deliveries(deliveries: Iterable[RoundDeliveries]) -> Metrics:
    """Fold an engine's per-round delivery log into :class:`Metrics`.

    This is the exact accounting path: every count comes from an edge
    the fabric actually delivered, so the totals are correct under any
    topology and drop schedule.

    Args:
        deliveries: Per-round records, e.g.
            :attr:`repro.sim.network.RoundEngine.deliveries`.

    Returns:
        The aggregated metrics.
    """
    m = Metrics()
    for d in deliveries:
        m.rounds += 1
        m.correct_broadcasts += d.correct_broadcasts
        m.correct_messages += d.correct_deliveries
        m.byzantine_messages += d.byzantine_deliveries
        m.payload_bytes += d.correct_payload_bytes + d.byzantine_payload_bytes
    return m


@dataclass
class WindowAggregator:
    """Streaming fold of per-instance verdict/cost records.

    The soak farm never holds its instance stream in memory: each
    finished agreement instance is folded into these cumulative
    counters, and every window boundary snapshots them into the
    checkpoint row of the streaming log.  All fields are deterministic
    functions of the instance stream (no wall-clock), which is what
    keeps checkpoint rows byte-identical across kill/resume.
    """

    instances: int = 0
    ok: int = 0
    violations: int = 0
    rounds: int = 0
    messages: int = 0
    losses: int = 0

    def add(
        self, ok: bool, rounds: int, messages: int, losses: int = 0
    ) -> None:
        """Fold one finished instance into the counters.

        Args:
            ok: The instance's agreement verdict.
            rounds: Rounds the instance executed (its latency in the
                round-model clock).
            messages: Delivered-edge count (exact fabric accounting).
            losses: Basic-model loss edges under a loss-logging timing
                model.
        """
        self.instances += 1
        if ok:
            self.ok += 1
        else:
            self.violations += 1
        self.rounds += int(rounds)
        self.messages += int(messages)
        self.losses += int(losses)

    def add_record(self, record: "dict | object") -> None:
        """Fold a run-record-shaped mapping or object.

        Accepts anything carrying ``ok``/``rounds``/``messages``/
        ``losses`` as keys or attributes -- a
        :class:`~repro.experiments.harness.RunRecord`, its ``asdict``
        form, or a soak log instance row.
        """
        get = record.get if isinstance(record, dict) else (
            lambda name, default=0: getattr(record, name, default)
        )
        self.add(
            ok=bool(get("ok", False)),
            rounds=get("rounds", 0),
            messages=get("messages", 0),
            losses=get("losses", 0),
        )

    def snapshot(self) -> dict:
        """The cumulative counters as a JSON-compatible dict."""
        return {
            "instances": self.instances,
            "ok": self.ok,
            "violations": self.violations,
            "rounds": self.rounds,
            "messages": self.messages,
            "losses": self.losses,
        }
