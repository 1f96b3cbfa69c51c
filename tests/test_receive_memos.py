"""The receive-path identity memos never conflate equal objects.

Figure 7 (and Figure 5, and EIG) parse each payload object once per
round and Figure 7 tallies each inbox object once, sharing the answer
among every receiver handed that object.  ``1 == True == 1.0``, so a
memo keyed by equality would hand a receiver of ``True`` the parse of
an equal ``1``; process state keys tell those apart.  These properties
drive Figure 7 processes through short real runs, with Byzantine
bundles whose echo items, directs and proper sets mix equal-but-
distinct values, and check:

* delivery through the shared memos (one inbox object handed to two
  receivers, an equal twin inbox to a third) gives the same
  ``state_key()`` and decisions as delivering a fresh inbox, with every
  memo cleared, into a clone;
* the multiplicity broadcast's message-by-message host path
  (``note_message`` + ``end_round``) gives the same accepts, in the
  same order, as applying the inbox's tally.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.multiplicity import ECHO_TAG, INIT_TAG
from repro.core.identity import IdentityAssignment
from repro.core.messages import Inbox, Message
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync import restricted
from repro.psync.restricted import (
    BUNDLE_TAG,
    RestrictedNumerateProcess,
    round_view,
)

PARAMS = SystemParams(
    n=4, ell=2, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
    numerate=True, restricted=True,
)
ASSIGNMENT = IdentityAssignment(ell=2, ids=(1, 2, 1, 2))
CORRECT = (0, 1, 2)
BYZANTINE_ID = ASSIGNMENT.ids[3]

#: Each value's equal-but-distinct twin (same ``==`` and hash, other
#: type and ``repr``).  Pairs, not a dict: a dict would merge the keys.
TWINS = ((0, False), (False, 0.0), (0.0, 0), (1, True), (True, 1.0), (1.0, 1))
MIXED = tuple(value for value, _ in TWINS)


def _twin(value):
    for key, twin in TWINS:
        if type(key) is type(value) and key == value:
            return twin
    return value


def _twin_deep(obj):
    if isinstance(obj, tuple):
        return tuple(_twin_deep(x) for x in obj)
    if isinstance(obj, str):
        return obj
    return _twin(obj)


def _clear_memos():
    restricted._BUNDLES.clear()
    restricted._VIEWS.clear()


values = st.sampled_from(MIXED)
small = st.sampled_from((0, 1, 2, True))


@st.composite
def byzantine_bundles(draw, round_no):
    """A Byzantine Figure 7 bundle for ``round_no``: mostly valid
    multiplicity items (so echoes reach the thresholds), directs and a
    proper set, all over mixed ``0/False/0.0`` and ``1/True/1.0``."""
    superround = round_no // 2
    items = []
    if round_no % 2 == 0 and draw(st.booleans()):
        items.append((INIT_TAG, ("propose", draw(values)), superround))
    for _ in range(draw(st.integers(0, 3))):
        items.append((
            ECHO_TAG, draw(st.sampled_from((1, 2, True))), draw(small),
            (draw(st.sampled_from(("propose", "vote"))), draw(values)),
            draw(st.integers(0, superround)),
        ))
    directs = tuple(
        (draw(st.sampled_from(("lock", "ack"))), draw(values),
         draw(st.sampled_from((0, 1, True))))
        for _ in range(draw(st.integers(0, 2)))
    )
    proper = tuple(draw(st.lists(values, max_size=3)))
    return (BUNDLE_TAG, tuple(items), directs, proper)


def _state(process):
    return process.state_key(), process.decision, process.decision_round


def _host_accepts(mb, inbox, round_no):
    """The message-by-message host path, on ``mb``."""
    for m in inbox:
        payload = m.payload
        if (
            isinstance(payload, tuple) and len(payload) == 4
            and payload[0] == BUNDLE_TAG and isinstance(payload[1], tuple)
            and isinstance(payload[2], tuple)
        ):
            mb.note_message(m.sender_id, payload[1], round_no)
    return mb.end_round(round_no)


@given(data=st.data(), rounds=st.integers(1, 10),
       proposals=st.tuples(values, values, values))
@settings(max_examples=60, deadline=None)
def test_shared_memos_match_fresh_delivery(data, rounds, proposals):
    processes = [
        RestrictedNumerateProcess(
            PARAMS, BINARY, ASSIGNMENT.ids[k], proposals[k]
        )
        for k in CORRECT
    ]
    _clear_memos()
    for round_no in range(rounds):
        base = [
            Message(p.identifier, p.compose(round_no)) for p in processes
        ]
        bundle = data.draw(byzantine_bundles(round_no))
        twin = _twin_deep(bundle)
        assert twin == bundle
        shared = Inbox(base + [Message(BYZANTINE_ID, bundle)], True)
        twinned = Inbox(base + [Message(BYZANTINE_ID, twin)], True)
        # Receivers 0 and 2 share one inbox object; 1 gets the twin.
        handed = [shared, twinned, shared]
        order = data.draw(st.permutations(range(len(processes))))
        clones = [p.clone() for p in processes]
        for k in order:
            processes[k].deliver(round_no, handed[k])
        for k, clone in enumerate(clones):
            fresh = Inbox(handed[k].messages(), True)
            mb = clone.mb.clone()
            host = _host_accepts(mb, fresh, round_no)
            _clear_memos()
            inbox_path = clone.mb.clone()
            tally = round_view(
                fresh, round_no, PARAMS.n, PARAMS.t, PARAMS.ell, BINARY
            ).tally
            inbox_path.apply(tally)
            assert [
                repr(((a.ident, a.message, a.superround), a.multiplicity))
                for a in host
            ] == list(map(repr, tally.accepts))
            assert all(
                a.accepted_superround == round_no // 2 for a in host
            )
            assert mb.state_key() == inbox_path.state_key()
            _clear_memos()
            clone.deliver(round_no, fresh)
            assert _state(clone) == _state(processes[k]), (
                f"receiver {k}, round {round_no}"
            )
