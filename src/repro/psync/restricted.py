"""Figure 7: agreement against *restricted* Byzantine processes, ``ell > t``.

When Byzantine processes can send at most one message per recipient per
round and correct processes are numerate (can count message copies),
``t + 1`` identifiers suffice for partially synchronous Byzantine
agreement -- a dramatic drop from the ``2*ell > n + 3t`` of the
unrestricted model (Theorems 14/15).  Safety rests on ``n > 3t``;
liveness rests on ``ell > t`` (some identifier is held only by correct
processes, and the phase that identifier leads decides).

The protocol mirrors Figure 5's phase structure -- propose / lock /
vote / ack, four superrounds per phase -- but all thresholds count
*processes* (``n - t``, ``n - 2t``) rather than identifiers, via the
*witness* mechanism on top of the Figure 6 multiplicity broadcast:
the number of witnesses a process has for ``(m, r)`` is the sum over
identifiers ``i`` of the multiplicities ``alpha_i`` in the
``Accept(i, alpha_i, m, r)`` events it performed.  Unforgeability
bounds each ``alpha_i`` by (correct broadcasters) + ``f_i``, so ``n - t``
witnesses imply at least ``n - t - f`` correct broadcasters (Lemma 30),
and any two ``n - t``-witnessed broadcasts share a correct broadcaster
(Lemma 31) -- the process-counting analogue of the Lemma 7 quorum
intersection.

Differences from Figure 5 worth noting: there is no decide relay (all
correct processes decide directly in the good phase -- the decision rule
at lines 20-23 has no leader restriction), and the proper set counts
same-round *messages* instead of identifiers (sound because restricted
Byzantine processes contribute at most one message per round).

The receive path does its per-payload and per-inbox work once per
round, however many receivers share it: each payload object is parsed
once (bundle shape, multiplicity-item validity, proper set, directs),
and each inbox object is tallied once into a :class:`RoundView` -- the
Figure 6 thresholds, witness totals, proper-set rule, leader locks and
acks, none of which reads the receiver's state.  Each receiver then
applies the view to its own counters, witnesses, proper set and locks.
Both memos are keyed by object identity (``1 == True == 1.0``) and live
outside the processes (:mod:`repro.core.memo`).
"""

from __future__ import annotations

import copy
from typing import Hashable, NamedTuple

from repro.broadcast.multiplicity import (
    MultiplicityBroadcast,
    RoundTally,
    count_message,
    tally_round,
    validate_items,
)
from repro.core.canonical import exact_key, shared_key
from repro.core.errors import BoundViolation
from repro.core.memo import MISS, IdentityMemo
from repro.core.messages import Inbox
from repro.core.params import SystemParams
from repro.core.problem import AgreementProblem
from repro.psync.proper import (
    MessageProperTracker,
    decode_proper,
    message_proper_rule,
)
from repro.sim.process import Process

BUNDLE_TAG = "fig7"

ROUNDS_PER_SUPERROUND = 2
SUPERROUNDS_PER_PHASE = 4
ROUNDS_PER_PHASE = ROUNDS_PER_SUPERROUND * SUPERROUNDS_PER_PHASE


def leader_of_phase(phase: int, ell: int) -> int:
    """Identifier of the phase's leaders: ``(ph mod ell) + 1``."""
    return (phase % ell) + 1


def check_restricted_bound(n: int, ell: int, t: int) -> None:
    """Raise unless ``n > 3t`` (safety) and ``ell > t`` (liveness)."""
    if n <= 3 * t:
        raise BoundViolation(
            f"Figure 7 requires n > 3t, got n={n}, t={t}"
        )
    if ell <= t:
        raise BoundViolation(
            f"Figure 7 requires ell > t, got ell={ell}, t={t}"
        )


class RestrictedNumerateProcess(Process):
    """One process of the Figure 7 protocol."""

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
            check_restricted_bound(params.n, params.ell, params.t)
            if not params.numerate:
                raise BoundViolation(
                    "Figure 7 needs numerate processes (Theorem 19: innumerate "
                    "processes need ell > 3t even against restricted Byzantine)"
                )
            if not params.restricted:
                raise BoundViolation(
                    "Figure 7 is only correct against restricted Byzantine "
                    "processes (Theorem 13: unrestricted needs 2*ell > n + 3t)"
                )
        self.params = params
        self.problem = problem
        self.ell = params.ell
        self.t = params.t
        self.n = params.n
        self.quorum = params.n - params.t  # process-count quorum

        self.mb = MultiplicityBroadcast(
            params.n, params.t, identifier, unchecked=unchecked
        )
        self.proper = MessageProperTracker(problem, proposal, params.t)

        #: value -> phase (the paper's locks set, one phase per value).
        self.locks: dict[Hashable, int] = {}
        #: (m, r) -> historical maximum witness total.
        self._witness_max: dict[tuple[Hashable, int], int] = {}
        #: phase -> lock values received from that phase's leader identifier.
        self._leader_locks: dict[int, set[Hashable]] = {}

    # ------------------------------------------------------------------
    # State identity and copying
    # ------------------------------------------------------------------
    def state_key(self) -> Hashable:
        return (
            type(self),
            *self._decision_key(),
            shared_key(self.params),
            shared_key(self.problem),
            self.ell, self.t, self.n, self.quorum,
            self.mb.state_key(),
            self.proper.state_key(),
            exact_key(self.locks),
            exact_key(self._witness_max),
            exact_key(self._leader_locks),
        )

    def clone(self) -> "RestrictedNumerateProcess":
        twin = copy.copy(self)
        twin.mb = self.mb.clone()
        twin.proper = self.proper.clone()
        twin.locks = dict(self.locks)
        twin._witness_max = dict(self._witness_max)
        twin._leader_locks = {
            ph: set(values) for ph, values in self._leader_locks.items()
        }
        return twin

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @staticmethod
    def position(round_no: int) -> tuple[int, int, bool]:
        """Map an engine round to ``(phase, superround-in-phase, is-first)``."""
        superround, round_in_sr = divmod(round_no, ROUNDS_PER_SUPERROUND)
        phase, pos = divmod(superround, SUPERROUNDS_PER_PHASE)
        return phase, pos, round_in_sr == 0

    def _is_leader(self, phase: int) -> bool:
        return self.identifier == leader_of_phase(phase, self.ell)

    def witnesses(self, message: Hashable, superround: int) -> int:
        """Best witness total observed so far for ``(message, superround)``."""
        return self._witness_max.get((message, superround), 0)

    # ------------------------------------------------------------------
    # Compose
    # ------------------------------------------------------------------
    def compose(self, round_no: int) -> Hashable:
        phase, pos, first = self.position(round_no)
        superround = round_no // ROUNDS_PER_SUPERROUND
        directs: list[Hashable] = []

        if first and pos == 0:
            # Line 6-7: broadcast a propose per unconflicted proper value.
            for v in sorted(self._propose_values(), key=repr):
                self.mb.broadcast(("propose", v), superround)
        elif first and pos == 1 and self._is_leader(phase):
            # Lines 9-10: leader requests a lock on a witnessed value.
            eligible = sorted(
                (
                    v
                    for v in self.problem.domain
                    if self.witnesses(("propose", v), 4 * phase) >= self.quorum
                ),
                key=repr,
            )
            if eligible:
                directs.append(("lock", eligible[0], phase))
        elif first and pos == 2:
            # Lines 12-14: vote for a leader-locked, witnessed value.
            eligible = sorted(
                (
                    v
                    for v in self._leader_locks.get(phase, ())
                    if self.witnesses(("propose", v), 4 * phase) >= self.quorum
                ),
                key=repr,
            )
            if eligible:
                self.mb.broadcast(("vote", eligible[0]), superround)
        elif first and pos == 3:
            # Lines 16-19: lock and acknowledge a vote-witnessed value.
            eligible = sorted(
                (
                    v
                    for v in self.problem.domain
                    if self.witnesses(("vote", v), 4 * phase + 2) >= self.quorum
                ),
                key=repr,
            )
            if eligible:
                value = eligible[0]
                self.locks[value] = phase
                directs.append(("ack", value, phase))

        items = self.mb.outgoing(round_no)
        return (BUNDLE_TAG, items, tuple(directs), self.proper.encoded())

    def _propose_values(self) -> list[Hashable]:
        return [
            v
            for v in self.proper.proper
            if not any(w != v for w in self.locks)
        ]

    # ------------------------------------------------------------------
    # Deliver
    # ------------------------------------------------------------------
    def deliver(self, round_no: int, inbox: Inbox) -> None:
        phase, pos, first = self.position(round_no)
        view = round_view(
            inbox, round_no, self.n, self.t, self.ell, self.problem
        )

        for key, total in view.witnesses:
            if total > self._witness_max.get(key, 0):
                self._witness_max[key] = total
        self.mb.apply(view.tally)
        self.proper.absorb(view.proper_adds, view.proper_domain)
        for ph, value in view.leader_locks:
            self._leader_locks.setdefault(ph, set()).add(value)

        # Lines 20-23: decide on n - t same-round acks for a witnessed value.
        if first and pos == 3:
            for value in view.acked:
                if self.witnesses(("propose", value), 4 * phase) >= self.quorum:
                    self.record_decision(value, round_no)
                    break

        # Lines 24-26: release locks superseded by later vote witnesses.
        if not first and pos == 3:
            self._release_stale_locks()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _release_stale_locks(self) -> None:
        for v1, ph1 in list(self.locks.items()):
            superseded = any(
                ph2 > ph1
                and v2 != v1
                and self.witnesses(("vote", v2), 4 * ph2 + 2) >= self.quorum
                for v2 in self.problem.domain
                for ph2 in range(ph1 + 1, self._max_known_phase() + 1)
            )
            if superseded:
                del self.locks[v1]

    def _max_known_phase(self) -> int:
        phases = [0]
        for (message, superround) in self._witness_max:
            phases.append(superround // 4)
        return max(phases)


class RoundView(NamedTuple):
    """The receiver-independent part of one Figure 7 round.

    Everything a round's inbox implies before a receiver's own state is
    consulted: the Figure 6 tally, the witness totals of its accepts,
    the proper-set rule outcome, the leader locks and the values with
    ``n - t`` same-round acks.  Each receiver then applies it to its own
    counters, witnesses, proper set and locks.
    """

    #: The multiplicity-broadcast tally (counter floors and accepts).
    tally: RoundTally
    #: ``((message, superround), witness total)`` per accepted broadcast.
    witnesses: tuple[tuple[tuple[Hashable, int], int], ...]
    #: Values the ``t + 1`` rule adds to the proper set, and whether the
    #: ``2t + 1`` rule adds the whole domain.
    proper_adds: tuple[Hashable, ...]
    proper_domain: bool
    #: ``(phase, value)`` lock requests from that phase's leaders.
    leader_locks: tuple[tuple[int, Hashable], ...]
    #: Values acked by ``n - t`` messages this round (pos-3 first
    #: rounds only), ``repr``-ordered.
    acked: tuple[Hashable, ...]


#: Parsed bundles: payload object, ``(round, problem key)`` ->
#: :func:`_parse_bundle`.
_BUNDLES = IdentityMemo(128)
#: Round views: inbox object, ``(round, n, t, ell, problem key)`` ->
#: :class:`RoundView`.
_VIEWS = IdentityMemo(32)


def _parse_bundle(
    payload: Hashable, round_no: int, problem: AgreementProblem
):
    """What one payload contributes to a round, whoever sent it.

    ``None`` for a payload that is not a bundle; otherwise ``(valid,
    proper_values, locks, acks)``: the multiplicity items'
    :func:`~repro.broadcast.multiplicity.validate_items` answer, the
    :func:`~repro.psync.proper.decode_proper` answer, the well-formed
    ``(phase, value)`` lock directs (the leader check needs the sender)
    and the value of the first ack for this round's phase when the round
    counts acks (a message counts once however many acks it holds).
    """
    if not (
        isinstance(payload, tuple)
        and len(payload) == 4
        and payload[0] == BUNDLE_TAG
        and isinstance(payload[1], tuple)
        and isinstance(payload[2], tuple)
    ):
        return None
    phase, pos, first = RestrictedNumerateProcess.position(round_no)
    counting_acks = first and pos == 3
    domain = problem.domain
    locks: list[tuple[int, Hashable]] = []
    acks: tuple[Hashable, ...] = ()
    for item in payload[2]:
        if not (isinstance(item, tuple) and len(item) == 3):
            continue
        tag, value, ph = item
        if value not in domain or not isinstance(ph, int):
            continue
        if tag == "lock":
            locks.append((ph, value))
        elif tag == "ack" and counting_acks and ph == phase and not acks:
            acks = (value,)
    return (
        validate_items(payload[1], round_no),
        decode_proper(payload[3], problem),
        tuple(locks),
        acks,
    )


def round_view(
    inbox: Inbox, round_no: int, n: int, t: int, ell: int,
    problem: AgreementProblem,
) -> RoundView:
    """The :class:`RoundView` of ``inbox`` in round ``round_no``.

    A pure function of the inbox and its context, computed once per
    inbox object: receivers the fabric hands the same inbox share it.
    Each payload is parsed once per round (:func:`_parse_bundle`),
    whichever inboxes hold it.
    """
    problem_key = shared_key(problem)
    context = (round_no, n, t, ell, problem_key)
    view = _VIEWS.get(inbox, context)
    if view is MISS:
        view = _VIEWS.put(
            inbox, context,
            _tally_inbox(inbox, round_no, n, t, ell, problem, problem_key),
        )
    return view


def _tally_inbox(
    inbox: Inbox, round_no: int, n: int, t: int, ell: int,
    problem: AgreementProblem, problem_key: str,
) -> RoundView:
    parse_context = (round_no, problem_key)
    inits: dict = {}
    echoes: dict = {}
    proper_counts: dict[Hashable, int] = {}
    proper_total = 0
    leader_locks: list[tuple[int, Hashable]] = []
    ack_counts: dict[Hashable, int] = {}

    for m in inbox:
        payload = m.payload
        bundle = _BUNDLES.get(payload, parse_context)
        if bundle is MISS:
            bundle = _BUNDLES.put(
                payload, parse_context,
                _parse_bundle(payload, round_no, problem),
            )
        if bundle is None:
            continue
        valid, proper_values, locks, acks = bundle
        count_message(inits, echoes, m.sender_id, valid)
        if proper_values is not None:
            proper_total += 1
            for v in proper_values:  # decode_proper kept domain values only
                proper_counts[v] = proper_counts.get(v, 0) + 1
        for ph, value in locks:
            if m.sender_id == leader_of_phase(ph, ell):
                leader_locks.append((ph, value))
        # Count *messages* containing an ack (numerate).
        for value in acks:
            ack_counts[value] = ack_counts.get(value, 0) + 1

    tally = tally_round(n, t, round_no, inits, echoes)
    # Witness totals sum multiplicities across identifiers; a
    # superround's Accepts arrive together (odd round), so the
    # per-superround sum is the sum over fresh accepts by ident.
    pending: dict[tuple[Hashable, int], dict[int, int]] = {}
    for (h, message, r), alpha in tally.accepts:
        per_ident = pending.setdefault((message, r), {})
        per_ident[h] = max(per_ident.get(h, 0), alpha)
    adds, whole_domain = message_proper_rule(proper_counts, proper_total, t)
    quorum = n - t
    return RoundView(
        tally,
        tuple(
            (key, sum(per_ident.values()))
            for key, per_ident in pending.items()
        ),
        adds,
        whole_domain,
        tuple(leader_locks),
        tuple(
            value for value in sorted(ack_counts, key=repr)
            if ack_counts[value] >= quorum
        ),
    )


def restricted_factory(
    params: SystemParams, problem: AgreementProblem, unchecked: bool = False
):
    """Process factory for :func:`repro.sim.runner.run_agreement`."""

    def factory(identifier: int, proposal: Hashable) -> RestrictedNumerateProcess:
        return RestrictedNumerateProcess(
            params, problem, identifier, proposal, unchecked=unchecked
        )

    return factory


def restricted_horizon(
    params: SystemParams, gst_round: int, slack_phases: int = 3
) -> int:
    """Round budget: a fully correct identifier leads within ``ell`` phases
    of stabilisation and its phase decides for everybody."""
    first_stable_phase = (gst_round + ROUNDS_PER_PHASE - 1) // ROUNDS_PER_PHASE + 1
    phases = first_stable_phase + params.ell + slack_phases
    return phases * ROUNDS_PER_PHASE
