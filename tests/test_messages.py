"""Unit tests for repro.core.messages: set vs multiset inboxes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolViolation
from repro.core.messages import Inbox, Message, ensure_hashable


def msg(ident, payload):
    return Message(ident, payload)


class TestMessage:
    def test_paper_aliases(self):
        m = msg(3, ("hello",))
        assert m.id == 3 and m.val == ("hello",)

    def test_sort_key_is_deterministic_across_types(self):
        messages = [msg(1, "b"), msg(1, 2), msg(2, "a"), msg(1, (0,))]
        assert sorted(messages) == sorted(reversed(messages))

    def test_equality_is_structural(self):
        assert msg(1, (1, 2)) == msg(1, (1, 2))
        assert msg(1, (1, 2)) != msg(2, (1, 2))


class TestEnsureHashable:
    def test_accepts_tuples_and_scalars(self):
        for payload in (0, "x", (1, (2, 3)), frozenset({1})):
            assert ensure_hashable(payload) is payload

    def test_rejects_lists_and_dicts(self):
        for payload in ([1], {"a": 1}, {1, 2}):
            with pytest.raises(ProtocolViolation):
                ensure_hashable(payload)


class TestInnumerateInbox:
    def test_collapses_identical_messages(self):
        inbox = Inbox([msg(1, "v"), msg(1, "v"), msg(1, "v")], numerate=False)
        assert len(inbox) == 1

    def test_keeps_distinct_payloads_from_same_id(self):
        inbox = Inbox([msg(1, "v"), msg(1, "w")], numerate=False)
        assert len(inbox) == 2

    def test_counting_is_forbidden(self):
        inbox = Inbox([msg(1, "v")], numerate=False)
        with pytest.raises(ProtocolViolation):
            inbox.count_copies(msg(1, "v"))
        with pytest.raises(ProtocolViolation):
            inbox.count_matching(lambda m: True)
        with pytest.raises(ProtocolViolation):
            inbox.payload_counter()

    def test_distinct_ids_still_available(self):
        inbox = Inbox([msg(1, "v"), msg(2, "v"), msg(2, "w")], numerate=False)
        assert inbox.distinct_ids() == {1, 2}
        assert inbox.distinct_ids(lambda m: m.payload == "v") == {1, 2}
        assert inbox.count_distinct_ids(lambda m: m.payload == "w") == 1


class TestNumerateInbox:
    def test_preserves_copies(self):
        inbox = Inbox([msg(1, "v")] * 3 + [msg(2, "v")], numerate=True)
        assert len(inbox) == 4
        assert inbox.count_copies(msg(1, "v")) == 3
        assert inbox.count_matching(lambda m: m.payload == "v") == 4

    def test_payload_counter(self):
        inbox = Inbox([msg(1, "v"), msg(1, "v"), msg(2, "w")], numerate=True)
        assert inbox.payload_counter() == {(1, "v"): 2, (2, "w"): 1}

    def test_from_identifier_ordering_is_deterministic(self):
        inbox = Inbox([msg(2, "b"), msg(2, "a"), msg(1, "z")], numerate=True)
        assert [m.payload for m in inbox.from_identifier(2)] == ["a", "b"]


class TestSupportHelper:
    def test_values_with_id_support(self):
        inbox = Inbox(
            [msg(1, ("dec", 0)), msg(2, ("dec", 0)), msg(3, ("dec", 1)),
             msg(1, "noise")],
            numerate=False,
        )

        def extract(m):
            return m.payload[1] if isinstance(m.payload, tuple) else None

        support = inbox.values_with_id_support(extract)
        assert support[0] == {1, 2}
        assert support[1] == {3}


@given(
    entries=st.lists(
        st.tuples(st.integers(1, 5), st.integers(0, 3)), max_size=30
    )
)
@settings(max_examples=60)
def test_innumerate_is_numerate_deduplicated(entries):
    """Property: the innumerate view is exactly the numerate view's set."""
    messages = [msg(i, v) for i, v in entries]
    innumerate = Inbox(messages, numerate=False)
    numerate = Inbox(messages, numerate=True)
    assert set(innumerate.messages()) == set(numerate.messages())
    assert len(innumerate) == len(set(messages))
    assert innumerate.distinct_ids() == numerate.distinct_ids()


#: Equal payloads with different reprs (1 / True / 1.0) exercise the
#: representative a collapse keeps and the position its key sorts to.
_PAYLOADS = st.sampled_from([0, 1, True, 1.0, False, "a", (1,), ("v", 1)])


@given(
    base=st.lists(st.tuples(st.integers(1, 3), _PAYLOADS), max_size=12),
    extra=st.lists(st.tuples(st.integers(1, 3), _PAYLOADS), max_size=6),
    numerate=st.booleans(),
)
@settings(max_examples=150)
def test_merged_is_the_full_sort(base, extra, numerate):
    """``Inbox.merged`` == ``Inbox(base + extra)``, message for message
    (the very objects, so ties and collapses keep the same copy), with
    and without a caller-supplied member set."""
    inbox = Inbox([msg(i, v) for i, v in base], numerate=numerate)
    keys = [m.sort_key() for m in inbox]
    added = [msg(i, v) for i, v in extra]
    keyed = [(m.sort_key(), m) for m in added]
    want = Inbox(list(inbox.messages()) + added, numerate=numerate)
    for members in (None, set(inbox.messages())):
        got = Inbox.merged(inbox, keys, keyed, members)
        assert got.numerate == numerate
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
