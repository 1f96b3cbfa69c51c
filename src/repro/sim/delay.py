"""Delay-based partial synchrony and its simulation of the basic model.

The paper (Section 2, following Dwork--Lynch--Stockmeyer) works in the
*basic* partially synchronous model -- lock-step rounds with finitely
many message losses -- and notes that it is equivalent to the two
delay-based formulations practitioners usually state:

* **eventually-bounded delays** -- message delivery times are bounded by
  a *known* constant ``delta``, but only from some unknown global
  stabilisation tick (GST) onwards;
* **unknown-bound delays** -- delivery times are *always* bounded by a
  constant ``delta``, but the algorithm does not know ``delta``.

This module makes the first (and, via an adapter, the second) direction
of that equivalence executable: :class:`DelayPolicy` assigns each
correct message an adversarial delay, and the classical *round
simulation* runs on top -- round ``r`` occupies the tick window
``[r*delta, (r+1)*delta)``; a message sent at the start of the window
and delivered inside it becomes part of the round-``r`` inbox, and a
message that arrives late is **discarded, which is exactly a basic-model
message loss**.  Because delays are bounded by ``delta`` from the GST
on, only finitely many messages are ever late: the simulated execution
is a legitimate basic-model execution, so every algorithm in
:mod:`repro.psync` runs unchanged over delay-based networks.

(The reverse direction -- the basic model simulating the delay models --
is the trivial inclusion the paper also notes: a basic-model round *is*
a delay-1 network.)

The round simulation itself executes on the unified kernel: wrap a
policy in :class:`~repro.sim.kernel.DelayBased` and pass it as the
``timing`` of :func:`~repro.sim.runner.run_execution` (or any other
runner).  The timing model stamps each round's late edges straight
onto the message fabric; the result's ``losses`` are those
correct-to-correct late edges and its ``ticks`` the network ticks the
executed rounds occupied.  The old per-message tick loop is kept
verbatim as a test oracle (``tests/oracles/delay.py``).

Determinism: delay policies derive their per-message RNG from
:func:`repro.core.canonical.stable_seed`, never from the builtin
``hash`` (whose string salting made "deterministic given the seed"
policies differ between interpreter runs).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

import numpy as np

from repro.core.canonical import stable_seed
from repro.core.errors import ConfigurationError


class DelayPolicy(ABC):
    """Chooses the delivery delay (in ticks) of each correct message.

    The returned delay is measured from the send tick; ``0`` means
    same-tick delivery.  Implementations encode one of the paper's two
    delay models via their constraints; :meth:`max_late_tick` names the
    first send tick from which no delay may reach ``delta`` (the
    finiteness witness the equivalence argument needs -- and, on the
    kernel, the gate past which rounds skip delay evaluation entirely).
    """

    def __init__(self, delta: int) -> None:
        if delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {delta}")
        self.delta = int(delta)

    @abstractmethod
    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        """Delay in ticks for this message."""

    def delay_matrix(
        self, send_tick: int, receivers: Sequence[int], senders: Sequence[int]
    ):
        """All of one tick's edge delays as a ``(receivers, senders)`` array.

        The message fabric's batch form of :meth:`delay`: entry ``[i, j]``
        is the delay of the message ``senders[j] -> receivers[i]`` sent
        at ``send_tick``.  Self-edges are skipped (left ``0``; they
        never traverse the network and ``delta >= 1`` keeps them
        punctual).  The default queries :meth:`delay` per edge in
        (receiver, sender) order, so RNG-backed policies -- whose
        per-link ``stable_seed`` draws cannot be vectorized
        byte-identically -- participate in the fabric unchanged;
        closed-form policies may override with real array ops.

        Args:
            send_tick: The window's first tick.
            receivers: The receiving process indices (ascending).
            senders: This round's composing senders (ascending).

        Returns:
            A numpy int64 array of delays.
        """
        delays = np.zeros((len(receivers), len(senders)), dtype=np.int64)
        for i, q in enumerate(receivers):
            for j, s in enumerate(senders):
                if s == q:
                    continue
                delays[i, j] = self.delay(send_tick, s, q)
        return delays

    @abstractmethod
    def max_late_tick(self) -> int:
        """First send tick from which every delay is strictly below ``delta``.

        Sends at ticks ``< max_late_tick()`` may be late (delay
        ``>= delta``); sends at ticks ``>= max_late_tick()`` must not
        be.  The exclusive reading is load-bearing: the kernel's
        :class:`~repro.sim.kernel.DelayBased` model skips delay
        evaluation for every round whose send tick has reached it, and
        :func:`equivalent_basic_gst` derives the loss-free round from
        it -- a policy that is still late *at* this tick would deliver
        over-``delta`` messages silently.
        """


def _link_rng(*key: Hashable) -> random.Random:
    """One independent, cross-run-stable RNG per message key."""
    return random.Random(stable_seed(key))


class EventuallyBoundedDelays(DelayPolicy):
    """Known ``delta``, honoured only from ``gst_tick`` onwards.

    Before the GST the (seeded) adversary may stretch delays up to
    ``chaos_factor * delta`` ticks; afterwards every delay is within
    ``delta``.  This is the paper's "delivery times eventually bounded
    by a known constant" model.
    """

    def __init__(
        self, delta: int, gst_tick: int, chaos_factor: int = 4, seed: int = 0
    ) -> None:
        super().__init__(delta)
        if gst_tick < 0:
            raise ConfigurationError(f"gst_tick must be >= 0, got {gst_tick}")
        self.gst_tick = int(gst_tick)
        self.chaos_factor = max(1, int(chaos_factor))
        self.seed = int(seed)

    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        if send_tick >= self.gst_tick:
            rng = _link_rng(self.seed, send_tick, sender, recipient)
            return rng.randrange(0, self.delta)
        rng = _link_rng(self.seed, "pre", send_tick, sender, recipient)
        return rng.randrange(0, self.chaos_factor * self.delta + 1)

    def max_late_tick(self) -> int:
        return self.gst_tick

class AlwaysBoundedUnknownDelays(DelayPolicy):
    """Delays always within a bound the *algorithm* does not know.

    The adversary fixes ``true_delta`` once; the simulation layer is
    configured with a (possibly wrong, smaller) guess and doubles it on
    observation of late traffic -- mirroring how algorithms for this
    model probe the unknown bound.  From the tick where the guess first
    reaches ``true_delta``, no message is ever late again, which is this
    model's route to basic-model finiteness.
    """

    def __init__(self, true_delta: int, seed: int = 0) -> None:
        super().__init__(true_delta)
        self.seed = int(seed)

    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        rng = _link_rng(self.seed, send_tick, sender, recipient)
        return rng.randrange(0, self.delta)

    def max_late_tick(self) -> int:
        # Delays are always within the (unknown) bound; lateness exists
        # only relative to a too-small guess, never beyond the tick at
        # which the guess catches up.  The simulator computes that tick.
        return 0


def equivalent_basic_gst(policy: DelayPolicy) -> int:
    """Round from which the simulated basic-model execution loses nothing.

    A message sent at tick ``s`` with delay ``< delta`` lands inside its
    round window, so every send from ``max_late_tick()`` on is punctual;
    the first fully punctual round is ``ceil(max_late_tick / delta)``.
    """
    delta = policy.delta
    return (policy.max_late_tick() + delta - 1) // delta
