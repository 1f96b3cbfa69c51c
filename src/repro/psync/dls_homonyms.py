"""Figure 5: partially synchronous Byzantine agreement with homonyms.

Solves Byzantine agreement for ``n`` processes sharing ``ell``
identifiers against up to ``t`` unrestricted Byzantine processes in the
DLS basic partially synchronous model, **iff** ``2*ell > n + 3t``
(Theorem 13).  Works for innumerate processes.

The protocol generalises Dwork--Lynch--Stockmeyer and runs in *phases*
of four superrounds (eight engine rounds).  Phase ``ph`` has leaders:
all processes with identifier ``(ph mod ell) + 1``.  Quorums are sets of
``ell - t`` distinct *identifiers*; by Lemma 7, when ``2*ell > n + 3t``
any two such quorums share an identifier held by exactly one process,
which is correct -- the linchpin of every safety argument here.

Phase structure (superrounds within the phase):

1. every process ``Broadcast``s ``<propose V, ph>`` where ``V`` is its
   proper values not conflicting with a held lock;
2. (first round) each *leader* that accepted proposes containing some
   ``v`` from ``ell - t`` identifiers sends ``<lock v, ph>`` to all;
3. every process that received a leader lock for an acceptable ``v``
   ``Broadcast``s ``<vote v, ph>`` -- the voting superround is new
   relative to DLS and defuses multiple homonym leaders proposing
   different values (Lemma 8);
4. (first round) a process that accepted votes for ``v`` from
   ``ell - t`` identifiers locks ``(v, ph)`` and sends ``<ack v, ph>``;
   a leader collecting ``ell - t`` acks for its lock value decides.
   (second round) decided processes send ``<decide v>``; receiving it
   from ``t + 1`` identifiers decides -- this relay lets a correct
   process sharing its identifier with a Byzantine process terminate.
   Finally, locks conflicting with an ``ell - t``-supported later vote
   are released.

Termination: after stabilisation every sole-owner correct process
decides in a phase it leads, and there are at least ``2t + 1`` of those
(``n <= 2*ell - 3t - 1``), so the decide relay reaches everybody.
"""

from __future__ import annotations

import copy
from typing import Hashable

from repro.broadcast.authenticated import (
    AuthenticatedBroadcast,
    parse_broadcast_items,
)
from repro.core.canonical import exact_key, shared_key
from repro.core.errors import BoundViolation
from repro.core.memo import MISS, IdentityMemo
from repro.core.messages import Inbox
from repro.core.params import SystemParams
from repro.core.problem import AgreementProblem
from repro.psync.proper import IdentifierProperTracker, decode_proper
from repro.sim.process import Process

#: Payload tag for all Figure 5 bundles.
BUNDLE_TAG = "fig5"

ROUNDS_PER_SUPERROUND = 2
SUPERROUNDS_PER_PHASE = 4
ROUNDS_PER_PHASE = ROUNDS_PER_SUPERROUND * SUPERROUNDS_PER_PHASE


def leader_of_phase(phase: int, ell: int) -> int:
    """Identifier of the phase's leaders: ``(ph mod ell) + 1``."""
    return (phase % ell) + 1


def check_dls_bound(n: int, ell: int, t: int) -> None:
    """Raise unless ``2*ell > n + 3t`` (and hence ``ell > 3t`` since n >= ell).

    ``t = 0`` is exempt: with no faults the problem is trivially
    solvable for any ``ell`` (the deterministic-minimum choices keep
    even anonymous homonyms aligned), matching
    :func:`repro.analysis.bounds.solvable`.
    """
    if t == 0:
        return
    if 2 * ell <= n + 3 * t:
        raise BoundViolation(
            f"Figure 5 requires 2*ell > n + 3t, got n={n}, ell={ell}, t={t}"
        )


#: Parsed bundles: payload object, problem key -> :func:`_parse_bundle`.
_BUNDLES = IdentityMemo(128)


def _parse_bundle(
    payload: Hashable, problem: AgreementProblem, problem_key: str
):
    """One Figure 5 payload's ``((inits, echoes), directs,
    proper_values)``, or ``None`` for a payload that is not a bundle.

    Computed once per payload object (``problem_key`` is the problem's
    :func:`~repro.core.canonical.shared_key`); the answer is shared by
    every receiver, which only reads it.
    """
    bundle = _BUNDLES.get(payload, problem_key)
    if bundle is not MISS:
        return bundle
    if not (
        isinstance(payload, tuple)
        and len(payload) == 5
        and payload[0] == BUNDLE_TAG
        and isinstance(payload[1], tuple)
        and isinstance(payload[2], tuple)
        and isinstance(payload[3], tuple)
    ):
        bundle = None
    else:
        bundle = (
            parse_broadcast_items(payload[1] + payload[2]),
            payload[3],
            decode_proper(payload[4], problem),
        )
    return _BUNDLES.put(payload, problem_key, bundle)


class DLSHomonymProcess(Process):
    """One process of the Figure 5 protocol."""

    def __init__(
        self,
        params: SystemParams,
        problem: AgreementProblem,
        identifier: int,
        proposal: Hashable,
        unchecked: bool = False,
    ) -> None:
        super().__init__(identifier, proposal)
        if not unchecked:
            check_dls_bound(params.n, params.ell, params.t)
        self.params = params
        self.problem = problem
        self.ell = params.ell
        self.t = params.t
        self.quorum = params.ell - params.t  # identifier quorum (Lemma 7)

        self.ab = AuthenticatedBroadcast(
            params.ell, params.t, identifier, unchecked=unchecked
        )
        self.proper = IdentifierProperTracker(problem, proposal, params.t)

        #: value -> phase of the lock (paper: set of (v, ph) pairs with
        #: at most one phase per value).
        self.locks: dict[Hashable, int] = {}
        #: phase -> value -> identifiers whose accepted propose carried it.
        self._prop_support: dict[int, dict[Hashable, set[int]]] = {}
        #: (phase, value) -> identifiers whose vote was accepted.
        self._vote_support: dict[tuple[int, Hashable], set[int]] = {}
        #: phase -> lock values received from that phase's leader identifier.
        self._leader_locks: dict[int, set[Hashable]] = {}
        #: phase -> the value this process (as leader) asked to lock.
        self._own_lock: dict[int, Hashable] = {}

    # ------------------------------------------------------------------
    # State identity and copying
    # ------------------------------------------------------------------
    def state_key(self) -> Hashable:
        return (
            type(self),
            *self._decision_key(),
            shared_key(self.params),
            shared_key(self.problem),
            self.ell, self.t, self.quorum,
            self.ab.state_key(),
            self.proper.state_key(),
            exact_key(self.locks),
            exact_key(self._prop_support),
            exact_key(self._vote_support),
            exact_key(self._leader_locks),
            exact_key(self._own_lock),
        )

    def clone(self) -> "DLSHomonymProcess":
        twin = copy.copy(self)
        twin.ab = self.ab.clone()
        twin.proper = self.proper.clone()
        twin.locks = dict(self.locks)
        twin._prop_support = {
            ph: {v: set(ids) for v, ids in support.items()}
            for ph, support in self._prop_support.items()
        }
        twin._vote_support = {
            key: set(ids) for key, ids in self._vote_support.items()
        }
        twin._leader_locks = {
            ph: set(values) for ph, values in self._leader_locks.items()
        }
        twin._own_lock = dict(self._own_lock)
        return twin

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @staticmethod
    def position(round_no: int) -> tuple[int, int, bool]:
        """Map an engine round to ``(phase, superround-in-phase, is-first-round)``."""
        superround, round_in_sr = divmod(round_no, ROUNDS_PER_SUPERROUND)
        phase, pos = divmod(superround, SUPERROUNDS_PER_PHASE)
        return phase, pos, round_in_sr == 0

    def _is_leader(self, phase: int) -> bool:
        return self.identifier == leader_of_phase(phase, self.ell)

    # ------------------------------------------------------------------
    # Compose
    # ------------------------------------------------------------------
    def compose(self, round_no: int) -> Hashable:
        phase, pos, first = self.position(round_no)
        superround = round_no // ROUNDS_PER_SUPERROUND
        directs: list[Hashable] = []

        if first and pos == 0:
            self._start_propose(phase, superround)
        elif first and pos == 1:
            lock = self._leader_lock_choice(phase)
            if lock is not None:
                directs.append(("lock", lock, phase))
        elif first and pos == 2:
            self._start_vote(phase, superround)
        elif first and pos == 3:
            ack = self._lock_and_ack(phase)
            if ack is not None:
                directs.append(("ack", ack, phase))
        elif not first and pos == 3 and self.decided:
            directs.append(("decide", self.decision))

        inits, echoes = self.ab.outgoing(round_no)
        return (BUNDLE_TAG, inits, echoes, tuple(directs), self.proper.encoded())

    def _start_propose(self, phase: int, superround: int) -> None:
        """Line 7-8: propose the proper values not conflicting with locks."""
        candidates = sorted(
            (
                v
                for v in self.proper.proper
                if not any(w != v for w in self.locks)
            ),
            key=repr,
        )
        self.ab.broadcast(("propose", tuple(candidates), phase), superround)

    def _leader_lock_choice(self, phase: int) -> Hashable:
        """Line 10-12: as a leader, pick a value with a propose quorum."""
        if not self._is_leader(phase):
            return None
        support = self._prop_support.get(phase, {})
        eligible = sorted(
            (v for v, ids in support.items() if len(ids) >= self.quorum), key=repr
        )
        if not eligible:
            return None
        choice = eligible[0]
        self._own_lock[phase] = choice
        return choice

    def _start_vote(self, phase: int, superround: int) -> None:
        """Line 14-16: vote for a leader-locked value with a propose quorum."""
        support = self._prop_support.get(phase, {})
        eligible = sorted(
            (
                v
                for v in self._leader_locks.get(phase, ())
                if len(support.get(v, ())) >= self.quorum
            ),
            key=repr,
        )
        if eligible:
            self.ab.broadcast(("vote", eligible[0], phase), superround)

    def _lock_and_ack(self, phase: int) -> Hashable:
        """Line 18-20: lock a vote-quorum value and acknowledge it."""
        eligible = sorted(
            (
                v
                for (ph, v), ids in self._vote_support.items()
                if ph == phase and len(ids) >= self.quorum
            ),
            key=repr,
        )
        if not eligible:
            return None
        value = eligible[0]
        self.locks[value] = phase  # replaces any earlier (value, *) pair
        return value

    # ------------------------------------------------------------------
    # Deliver
    # ------------------------------------------------------------------
    def deliver(self, round_no: int, inbox: Inbox) -> None:
        phase, pos, first = self.position(round_no)
        acks_this_round: dict[Hashable, set[int]] = {}
        decides_this_round: dict[Hashable, set[int]] = {}

        problem_key = shared_key(self.problem)
        for m in inbox:
            bundle = _parse_bundle(m.payload, self.problem, problem_key)
            if bundle is None:
                continue
            inits_echoes, directs, proper_values = bundle
            inits, echoes = inits_echoes
            for mm, r in inits:
                self.ab.note_init(m.sender_id, mm, r, round_no)
            for mm, r, i in echoes:
                self.ab.note_echo(m.sender_id, mm, r, i, round_no)
            if proper_values is not None:
                self.proper.note(m.sender_id, proper_values)
            for item in directs:
                self._route_direct(m.sender_id, item, phase, acks_this_round,
                                   decides_this_round)

        self._absorb_accepts()

        # Line 21-22: a leader that asked for a lock decides on an
        # identifier quorum of same-round acks.
        if first and pos == 3 and self._is_leader(phase):
            wanted = self._own_lock.get(phase)
            if wanted is not None and len(
                acks_this_round.get(wanted, ())
            ) >= self.quorum:
                self.record_decision(wanted, round_no)

        # Line 25-26: the decide relay.
        if not first and pos == 3:
            self._relay_decisions(decides_this_round, round_no)
            self._release_stale_locks()

    def _relay_decisions(
        self, decides_this_round: dict[Hashable, set[int]], round_no: int
    ) -> None:
        """Adopt a decision echoed by ``t + 1`` distinct identifiers."""
        for value in sorted(decides_this_round, key=repr):
            if len(decides_this_round[value]) >= self.t + 1:
                self.record_decision(value, round_no)
                break

    def _route_direct(
        self,
        sender_id: int,
        item: Hashable,
        current_phase: int,
        acks_this_round: dict[Hashable, set[int]],
        decides_this_round: dict[Hashable, set[int]],
    ) -> None:
        if not (isinstance(item, tuple) and len(item) >= 2):
            return
        tag = item[0]
        if tag == "lock" and len(item) == 3:
            _tag, value, ph = item
            if (
                isinstance(ph, int)
                and value in self.problem.domain
                and sender_id == leader_of_phase(ph, self.ell)
            ):
                self._leader_locks.setdefault(ph, set()).add(value)
        elif tag == "ack" and len(item) == 3:
            _tag, value, ph = item
            # Only same-phase acks count toward the leader's decision
            # quorum (line 21 reads "in this round").
            if value in self.problem.domain and ph == current_phase:
                acks_this_round.setdefault(value, set()).add(sender_id)
        elif tag == "decide" and len(item) == 2:
            _tag, value = item
            if value in self.problem.domain:
                decides_this_round.setdefault(value, set()).add(sender_id)

    def _absorb_accepts(self) -> None:
        """Fold fresh ``Accept`` events into the support tables."""
        for accept in self.ab.drain_accepts():
            msg = accept.message
            if not (isinstance(msg, tuple) and len(msg) == 3):
                continue
            tag, body, ph = msg
            if not isinstance(ph, int) or ph < 0:
                continue
            if tag == "propose" and isinstance(body, tuple):
                support = self._prop_support.setdefault(ph, {})
                for v in body:
                    if v in self.problem.domain:
                        support.setdefault(v, set()).add(accept.ident)
            elif tag == "vote" and body in self.problem.domain:
                self._vote_support.setdefault((ph, body), set()).add(accept.ident)

    def _release_stale_locks(self) -> None:
        """Line 27-30: drop locks superseded by a later vote quorum."""
        for v1, ph1 in list(self.locks.items()):
            superseded = any(
                ph2 > ph1 and v2 != v1 and len(ids) >= self.quorum
                for (ph2, v2), ids in self._vote_support.items()
            )
            if superseded:
                del self.locks[v1]


def dls_factory(
    params: SystemParams, problem: AgreementProblem, unchecked: bool = False
):
    """Process factory for :func:`repro.sim.runner.run_agreement`."""

    def factory(identifier: int, proposal: Hashable) -> DLSHomonymProcess:
        return DLSHomonymProcess(
            params, problem, identifier, proposal, unchecked=unchecked
        )

    return factory


def dls_horizon(params: SystemParams, gst_round: int, slack_phases: int = 3) -> int:
    """A round budget by which every correct process must have decided.

    After the first full phase past ``gst_round``, every identifier
    leads once within ``ell`` phases; each sole-owner correct leader
    decides in its own phase and the decide relay finishes the rest,
    so ``ell + slack`` phases past stabilisation suffice.
    """
    first_stable_phase = (gst_round + ROUNDS_PER_PHASE - 1) // ROUNDS_PER_PHASE + 1
    phases = first_stable_phase + params.ell + slack_phases
    return phases * ROUNDS_PER_PHASE
