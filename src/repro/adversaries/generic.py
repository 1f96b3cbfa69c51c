"""Reusable Byzantine strategies.

These are the attack library used for fuzzing the algorithms near their
bounds (Table 1's "solvable" cells must survive every strategy here)
and as building blocks for the paper-specific constructions.

Most interesting strategies run *correct algorithm instances* inside the
adversary -- a Byzantine process pretending to be a correct process with
a different input, crashing mid-run, or showing different faces to
different recipients.  :class:`SimulatedCorrectAdversary` provides the
shared machinery: it feeds the internal instances the fabric's inbox
for their slot (a Byzantine process is full-information, so it hears
every correct broadcast regardless of topology or drop schedules).
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Mapping, Sequence

from repro.core.identity import IdentityAssignment
from repro.core.messages import Inbox
from repro.core.params import SystemParams
from repro.sim.adversary import Adversary, AdversaryView, Emission, NullAdversary
from repro.sim.process import Process

#: Factory building the correct-process object an adversary imitates:
#: ``(identifier, proposal) -> Process``.
ImitationFactory = Callable[[int, Hashable], Process]


class SimulatedCorrectAdversary(Adversary):
    """Base class: each Byzantine slot runs internal correct instances.

    Subclasses configure, per slot, a list of ``(proposal, factory)``
    pairs via :meth:`instance_plan` and turn the instances' current
    payloads into per-recipient emissions via :meth:`route`.

    The internal instances are driven exactly like engine processes:
    ``compose(r)`` happens while the adversary answers round ``r``, and
    the round-``r`` inbox (:meth:`heard`: the fabric's, ignoring drops
    and topology -- the adversary hears everything) is delivered when
    round ``r + 1`` is being answered.
    """

    def __init__(self, factory: ImitationFactory) -> None:
        self._factory = factory
        self._instances: dict[int, list[Process]] = {}

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def instance_plan(self, slot: int, ident: int) -> Sequence[Hashable]:
        """Proposals of the internal instances for ``slot`` (default: one,
        proposing the domain-default-like value 0)."""
        return (0,)

    def route(
        self,
        view: AdversaryView,
        slot: int,
        payloads: Sequence[Hashable],
    ) -> Emission:
        """Map the instances' payloads to recipients.  Default: first
        instance's payload to everybody (a perfectly obedient imposter)."""
        if not payloads or payloads[0] is None:
            return {}
        return {q: (payloads[0],) for q in range(view.params.n)}

    def heard(self, view: AdversaryView, slot: int) -> Inbox:
        """Last round's inbox for ``slot`` (default: ``view.heard``)."""
        return view.heard[slot]

    # ------------------------------------------------------------------
    # Adversary interface
    # ------------------------------------------------------------------
    def setup(
        self,
        params: SystemParams,
        assignment: IdentityAssignment,
        byzantine: tuple[int, ...],
        proposals: Mapping[int, Hashable],
    ) -> None:
        self._instances = {}
        for slot in byzantine:
            ident = assignment.identifier_of(slot)
            self._instances[slot] = [
                self._factory(ident, proposal)
                for proposal in self.instance_plan(slot, ident)
            ]

    def emissions(self, view: AdversaryView) -> Mapping[int, Emission]:
        if view.round_no > 0:
            for slot, instances in self._instances.items():
                inbox = self.heard(view, slot)
                for inst in instances:
                    inst.deliver(view.round_no - 1, inbox)
        result: dict[int, Emission] = {}
        for slot in view.byzantine:
            payloads = [
                inst.compose(view.round_no) for inst in self._instances[slot]
            ]
            emission = self.route(view, slot, payloads)
            if emission:
                result[slot] = emission
        return result


class CrashAdversary(SimulatedCorrectAdversary):
    """Behaves correctly (with a chosen input) then goes silent forever.

    ``crash_round`` is the first silent round; ``proposal`` is the input
    the impostor pretends to have.
    """

    def __init__(
        self, factory: ImitationFactory, crash_round: int, proposal: Hashable = 0
    ) -> None:
        super().__init__(factory)
        self.crash_round = int(crash_round)
        self.proposal = proposal

    def instance_plan(self, slot: int, ident: int) -> Sequence[Hashable]:
        return (self.proposal,)

    def route(self, view, slot, payloads) -> Emission:
        if view.round_no >= self.crash_round:
            return {}
        return super().route(view, slot, payloads)


class InputFlipAdversary(SimulatedCorrectAdversary):
    """Runs the correct algorithm with an adversarially chosen input.

    The strongest "semantic" attack that is fully protocol-compliant; a
    correct algorithm must absorb it (this is how validity is stressed:
    all correct processes propose ``v`` while impostors propose ``w``).
    """

    def __init__(self, factory: ImitationFactory, proposal: Hashable) -> None:
        super().__init__(factory)
        self.proposal = proposal

    def instance_plan(self, slot: int, ident: int) -> Sequence[Hashable]:
        return (self.proposal,)


class EquivocatorAdversary(SimulatedCorrectAdversary):
    """Two-faced: runs two correct instances with different inputs and
    shows one face to even-indexed recipients, the other to odd.

    Legal even in the restricted model (one message per recipient per
    round); it is the canonical attack that the voting superround of
    Figure 5 and the echo thresholds of the broadcast primitives exist
    to defuse.
    """

    def __init__(
        self,
        factory: ImitationFactory,
        proposal_even: Hashable = 0,
        proposal_odd: Hashable = 1,
    ) -> None:
        super().__init__(factory)
        self.proposal_even = proposal_even
        self.proposal_odd = proposal_odd

    def instance_plan(self, slot: int, ident: int) -> Sequence[Hashable]:
        return (self.proposal_even, self.proposal_odd)

    def route(self, view, slot, payloads) -> Emission:
        emission: dict[int, tuple[Hashable, ...]] = {}
        for q in range(view.params.n):
            payload = payloads[q % 2]
            if payload is not None:
                emission[q] = (payload,)
        return emission


class DuplicatorAdversary(SimulatedCorrectAdversary):
    """Sends *both* faces to *every* recipient, every round.

    Exercises the unrestricted-model power the paper's lower bounds
    exploit (multiple messages to one recipient in one round).  Using it
    under restricted params raises
    :class:`~repro.core.errors.AdversaryViolation` -- by design.
    """

    def __init__(
        self,
        factory: ImitationFactory,
        proposal_a: Hashable = 0,
        proposal_b: Hashable = 1,
    ) -> None:
        super().__init__(factory)
        self.proposal_a = proposal_a
        self.proposal_b = proposal_b

    def instance_plan(self, slot: int, ident: int) -> Sequence[Hashable]:
        return (self.proposal_a, self.proposal_b)

    def route(self, view, slot, payloads) -> Emission:
        batch = tuple(p for p in payloads if p is not None)
        if not batch:
            return {}
        return {q: batch for q in range(view.params.n)}


class RandomByzantineAdversary(Adversary):
    """Seeded chaos: per round and slot, pick a strategy at random.

    Strategies: silence; *mimic* (replay a random correct process's
    current payload under our identifier -- rushing); *stale* (replay a
    random payload from an earlier round); *garbage* (a random small
    tuple).  Under unrestricted parameters each recipient may get up to
    ``burst`` messages; under restricted parameters exactly one.

    Deterministic for a fixed seed, so failures shrink and replay.
    """

    STRATEGIES = ("silent", "mimic", "stale", "garbage")

    def __init__(self, seed: int = 0, burst: int = 2) -> None:
        # reprolint: disable=RL003 -- int-typed seed (salt-free); the
        # stream is pinned by replay/equivalence tests and cached
        # campaign records: reseeding it is a CACHE_SCHEMA bump.
        self._rng = random.Random(seed)
        self.seed = seed
        self.burst = max(1, int(burst))

    def emissions(self, view: AdversaryView) -> Mapping[int, Emission]:
        result: dict[int, Emission] = {}
        for slot in view.byzantine:
            emission: dict[int, tuple[Hashable, ...]] = {}
            for q in range(view.params.n):
                count = 1
                if not view.params.restricted and self._rng.random() < 0.3:
                    count = self._rng.randint(2, self.burst + 1)
                batch = tuple(
                    p
                    for p in (
                        self._one_payload(view) for _ in range(count)
                    )
                    if p is not None
                )
                if batch:
                    emission[q] = batch
            if emission:
                result[slot] = emission
        return result

    def _one_payload(self, view: AdversaryView) -> Hashable:
        strategy = self._rng.choice(self.STRATEGIES)
        if strategy == "silent":
            return None
        if strategy == "mimic":
            payloads = sorted(view.correct_payloads.items())
            if not payloads:
                return None
            return self._rng.choice(payloads)[1]
        if strategy == "stale":
            if len(view.trace) == 0:
                return None
            record = view.trace.record(self._rng.randrange(len(view.trace)))
            payloads = sorted(record.payloads.items())
            if not payloads:
                return None
            return self._rng.choice(payloads)[1]
        # garbage
        depth = self._rng.randint(0, 2)
        return self._garbage(depth)

    def _garbage(self, depth: int) -> Hashable:
        if depth <= 0:
            return self._rng.choice(
                (0, 1, -1, "x", "lock", "ack", ("decide", 0), 42)
            )
        return tuple(self._garbage(depth - 1) for _ in range(self._rng.randint(1, 3)))


def standard_attack_suite(
    factory: ImitationFactory, restricted: bool, seeds: Sequence[int] = (1, 2, 3)
) -> list[tuple[str, Adversary]]:
    """The named attacks every "solvable" configuration must survive."""
    attacks: list[tuple[str, Adversary]] = [
        ("silent", NullAdversary()),
        ("crash@3", CrashAdversary(factory, crash_round=3, proposal=1)),
        ("flip0", InputFlipAdversary(factory, proposal=0)),
        ("flip1", InputFlipAdversary(factory, proposal=1)),
        ("equivocator", EquivocatorAdversary(factory)),
    ]
    if not restricted:
        attacks.append(("duplicator", DuplicatorAdversary(factory)))
    attacks.extend(
        (f"random-{seed}", RandomByzantineAdversary(seed=seed)) for seed in seeds
    )
    return attacks
