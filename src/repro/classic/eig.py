"""Exponential Information Gathering (EIG) Byzantine agreement.

The classic unique-identifier synchronous algorithm of Pease, Shostak
and Lamport [17] / Lamport, Shostak and Pease [13], in the tree-based
"exponential information gathering" formulation: tolerates ``t``
Byzantine faults among ``ell`` processes whenever ``ell > 3t``, deciding
after exactly ``t + 1`` rounds.  This is the reproduction's stand-in for
the paper's "any synchronous Byzantine agreement algorithm ... such
algorithms exist when ell = n > 3t, e.g. [13]".

Each process maintains a tree of values indexed by *paths* -- sequences
of distinct identifiers.  ``tree[(j1, ..., jk)] = v`` means "``jk`` told
me that ``jk-1`` told it that ... ``j1``'s input is ``v``".  In round
``r`` every process relays all level ``r-1`` nodes whose path does not
contain its own identifier; after round ``t+1`` the tree is resolved
bottom-up by majority, and the root's resolved value is the decision.

The state is a frozen dataclass whose tree is a *sorted tuple* of
``(path, value)`` pairs, giving the canonical ``repr`` that the
Figure 3 transformation requires.

Under ``T(A)`` and the strategy explorer the same states are
validated, ``repr``-ordered, keyed and resolved over and over: once per
receiver, per Byzantine delta, per explored node.  Each of those facts
is a pure function of the frozen state (and the spec's ``ell``/``t``),
so it is computed once per *state object* and memoised by identity --
never by equality, since ``1 == True == 1.0`` and a path element
``1.0`` is invalid where ``1`` is valid.  The memo lives outside the
state (its ``__dict__``, ``==``, ``hash`` and pickled form are
untouched) and holds it only weakly, so it never keeps a state alive.

``init`` and ``transition`` go one step further for *plain* states
(ints, strings, ``None`` and tuples only, where ``==`` is exact): they
return the live instance of an equal state when one exists, so the
identity memo serves every equal state the spec builds -- facts are
derived once per *value*.  States carrying ``True``, ``1.0`` or other
values ``==`` would merge are never shared.  A transition of a tree
the spec built itself appends the new level to the sorted tree instead
of rebuilding it: every path it adds is longer than all the existing
ones.  Likewise each run-round payload object is parsed once per round,
not once per receiver and delta, in the bounded identity memo every
receive path shares (:class:`~repro.core.memo.IdentityMemo`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Mapping

from repro.classic.spec import ClassicSpec, majority_value
from repro.core.canonical import exact_key, is_plain
from repro.core.memo import MISS, IdentityMemo
from repro.core.problem import AgreementProblem


Path = tuple[int, ...]


@dataclass(frozen=True, repr=False)
class EIGState:
    """EIG process state: identity, progress and the information tree."""

    ident: int
    rounds_done: int
    tree: tuple[tuple[Path, Hashable], ...]  # sorted by (len(path), path)

    def __deepcopy__(self, memo) -> "EIGState":
        # Frozen tuple-of-tuples content: transitions build new states
        # instead of mutating, so sharing across deep copies is safe
        # (and the tree is the bulk of a checkpointed process).
        return self

    def __repr__(self) -> str:
        # Byte-identical to the dataclass-generated repr; T(A) orders
        # candidate states by it in every selection round.
        facts = _facts(self)
        if facts.text is None:
            facts.text = (
                f"{type(self).__qualname__}(ident={self.ident!r}, "
                f"rounds_done={self.rounds_done!r}, tree={self.tree!r})"
            )
        return facts.text

    def tree_dict(self) -> dict[Path, Hashable]:
        return dict(self.tree)


class _Facts(weakref.ref):
    """A weak reference to one state plus the facts derived from it.

    ``text`` is the ``repr``, ``plain`` whether the state is its own
    explorer key, ``valid`` the ``is_state`` verdict per ``(ell, t)``
    and ``decisions`` the ``decide`` result per spec; each is ``None``
    until first asked for.  ``built`` is true when the spec built the
    state (its tree is sorted, with pairwise distinct paths) and
    ``value`` is the state's :data:`_VALUES` key while it has one.
    """

    __slots__ = ("key", "text", "plain", "valid", "decisions", "built", "value")


#: ``id(state) -> facts`` for live states.  An entry is dropped by its
#: weak reference's callback when the state dies, so the memo never
#: outgrows the states the caller keeps.
_FACTS: dict[int, _Facts] = {}

#: ``(ident, rounds_done, tree) -> facts`` of the live plain states the
#: spec built: the instance ``init``/``transition`` hand out for that
#: value.  Plain keys compare exactly, and the facts only reference the
#: state weakly; the same callback drops both entries.
_VALUES: dict[tuple, _Facts] = {}


def _forget(facts: _Facts) -> None:
    if _FACTS.get(facts.key) is facts:
        del _FACTS[facts.key]
    if facts.value is not None and _VALUES.get(facts.value) is facts:
        del _VALUES[facts.value]


def _facts(state: EIGState) -> _Facts:
    """The memo entry of ``state`` (by identity), created on first use."""
    key = id(state)
    facts = _FACTS.get(key)
    if facts is None or facts() is not state:
        facts = _FACTS[key] = _Facts(state, _forget)
        facts.key = key
        facts.text = facts.plain = facts.valid = facts.decisions = None
        facts.built = False
        facts.value = None
    return facts


def _built(ident: int, rounds_done: int, tree: tuple, plain: bool) -> EIGState:
    """The spec's state for these fields: the live equal instance when
    the state is plain and one exists, else a new one, marked as built.

    The caller guarantees ``tree`` is canonical -- sorted by ``(len(path),
    path)``, paths pairwise distinct tuples of ints -- and that ``plain``
    is the state's plainness.
    """
    if plain:
        value = (ident, rounds_done, tree)
        facts = _VALUES.get(value)
        if facts is not None:
            state = facts()
            if state is not None:
                return state
    state = EIGState(ident=ident, rounds_done=rounds_done, tree=tree)
    facts = _facts(state)
    facts.built = True
    facts.plain = plain
    if plain:
        facts.value = value
        _VALUES[value] = facts
    return state


#: Recently parsed run-round payloads: payload object, ``(round_no,
#: ell)`` -> ``(entries, plain)``.  Bounded; one explored node hands
#: every receiver the same handful of payload objects.
_PARSED = IdentityMemo(256)


def _plain_tree(tree: Hashable) -> bool:
    """True when ``tree`` is a tuple of ``(int path, plain value)`` pairs.

    Equivalent to :func:`~repro.core.canonical.is_plain` on the trees
    EIG builds, and about 4x faster on them: it runs once per explored
    post-round state.
    """
    if type(tree) is not tuple:
        return False
    for entry in tree:
        if type(entry) is not tuple or len(entry) != 2:
            return False
        if type(entry[0]) is not tuple:
            return False
    return _plain_entries(tree)


def _plain_entries(entries) -> bool:
    """:func:`_plain_tree` for entries known to be ``(tuple path,
    value)`` pairs."""
    for path, value in entries:
        if not is_plain(value):
            return False
        for j in path:
            if type(j) is not int:
                return False
    return True


def _canonical_tree(entries: Mapping[Path, Hashable]) -> tuple[tuple[Path, Hashable], ...]:
    return tuple(sorted(entries.items(), key=lambda kv: (len(kv[0]), kv[0])))


class EIGSpec(ClassicSpec):
    """EIG agreement for ``ell`` processes, ``ell > 3t``, ``t + 1`` rounds."""

    def __init__(
        self, ell: int, t: int, problem: AgreementProblem, unchecked: bool = False
    ) -> None:
        super().__init__(ell, t, problem, unchecked=unchecked)
        self.require_bound(3)

    # ------------------------------------------------------------------
    # Figure 2 interface
    # ------------------------------------------------------------------
    def init(self, ident: int, value: Hashable) -> EIGState:
        value = self.problem.validate_value(value)
        ident = int(ident)
        plain = type(ident) is int and is_plain(value)
        return _built(ident, 0, (((), value),), plain)

    def message(self, state: EIGState, round_no: int) -> Hashable:
        """Relay all level ``round_no - 1`` nodes not involving ``ident``."""
        if round_no > self.t + 1:
            return None  # algorithm is finished; stay silent
        level = round_no - 1
        entries = tuple(
            (path, value)
            for path, value in state.tree
            if len(path) == level and state.ident not in path
        )
        return ("eig", round_no, entries)

    def transition(
        self, state: EIGState, round_no: int, received: Mapping[int, Hashable]
    ) -> EIGState:
        if round_no > self.t + 1:
            return state
        facts = _facts(state)
        tree = state.tree
        senders = sorted(received)
        if not (
            facts.built
            and type(round_no) is int
            and len(tree[-1][0]) < round_no
        ):
            return self._rebuilt(state, round_no, received, senders)
        # Every new path has length round_no, so none equals an existing
        # (shorter) one; paths from different senders end differently,
        # and one sender's parsed paths are distinct.  Sorting the new
        # level and appending it is therefore the full rebuild's order.
        level = []
        mixed = False  # some payload holds a non-plain entry
        for sender in senders:
            if type(sender) is not int:
                return self._rebuilt(state, round_no, received, senders)
            entries, plain = self._payload_entries(received[sender], round_no)
            mixed = mixed or not plain
            for path, value in entries:
                if sender not in path:
                    level.append((path + (sender,), value))
        level.sort(key=itemgetter(0))
        # A built state's ident and rounds_done are ints, so the child
        # is plain exactly when the parent tree and the new level are.
        plain = facts.plain and (not mixed or _plain_entries(level))
        return _built(state.ident, round_no, tree + tuple(level), plain)

    def _rebuilt(
        self,
        state: EIGState,
        round_no: int,
        received: Mapping[int, Hashable],
        senders: list,
    ) -> EIGState:
        """:meth:`transition` by a full rebuild of the tree, for states
        the spec did not build (adopted forgeries, unpickled copies).

        A plain result has a canonical tree of int paths, so it joins
        the spec-built states; any other result stays a private object.
        """
        tree = state.tree_dict()
        for sender in senders:
            entries, _ = self._payload_entries(received[sender], round_no)
            for path, value in entries:
                if sender in path:
                    continue  # misattributed relay: ignore
                extended = path + (sender,)
                # First write wins; a correct sender never sends a path twice
                # in a round (payloads are de-duplicated tuples).
                tree.setdefault(extended, value)
        tree = _canonical_tree(tree)
        if (
            type(state.ident) is int
            and type(round_no) is int
            and _plain_tree(tree)
        ):
            return _built(state.ident, round_no, tree, True)
        return EIGState(ident=state.ident, rounds_done=round_no, tree=tree)

    def decide(self, state: EIGState) -> Hashable:
        if state.rounds_done < self.t + 1:
            return None
        facts = _facts(state)
        if facts.decisions is None:
            facts.decisions = {}
        if self not in facts.decisions:
            facts.decisions[self] = self._resolve(state.tree_dict(), ())
        return facts.decisions[self]

    # ------------------------------------------------------------------
    # Robustness / metadata
    # ------------------------------------------------------------------
    def is_state(self, obj: Hashable) -> bool:
        if not isinstance(obj, EIGState):
            return False
        facts = _facts(obj)
        if facts.valid is None:
            facts.valid = {}
        bound = (self.ell, self.t)
        valid = facts.valid.get(bound)
        if valid is None:
            valid = facts.valid[bound] = self._check_state(obj)
        return valid

    def _check_state(self, obj: EIGState) -> bool:
        if not 1 <= obj.ident <= self.ell:
            return False
        if not 0 <= obj.rounds_done <= self.t + 1:
            return False
        if not isinstance(obj.tree, tuple):
            return False
        for entry in obj.tree:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return False
            path, _value = entry
            if not isinstance(path, tuple) or len(path) > self.t + 1:
                return False
            if not all(isinstance(j, int) and 1 <= j <= self.ell for j in path):
                return False
            if len(set(path)) != len(path):
                return False
        return True

    @property
    def max_rounds(self) -> int:
        return self.t + 1

    def state_key(self, state: Hashable) -> Hashable:
        """The state itself when it holds only ints, strings and tuples.

        Those are the values whose ``==`` separates exactly what the
        reflective key separates, so the frozen state is its own key.
        States carrying anything else (a Byzantine relay of ``True`` or
        ``1.0``) take the :func:`~repro.core.canonical.exact_key` route;
        the two forms never compare equal.
        """
        if type(state) is EIGState:
            facts = _facts(state)
            if facts.plain is None:
                facts.plain = (
                    type(state.ident) is int
                    and type(state.rounds_done) is int
                    and _plain_tree(state.tree)
                )
            if facts.plain:
                return state
        return exact_key(state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _payload_entries(
        self, payload: Hashable, round_no: int
    ) -> tuple[tuple[tuple[Path, Hashable], ...], bool]:
        """The well-formed level ``round_no - 1`` entries of a payload,
        and whether they are all plain (int paths, plain values).

        Parsed defensively (malformed parts are skipped) once per
        payload object: every receiver of a round, under every
        Byzantine delta, is handed the same payload objects.
        """
        context = (round_no, self.ell)
        parsed = _PARSED.get(payload, context)
        if parsed is not MISS:
            return parsed
        level = round_no - 1
        entries = tuple(
            (path, value)
            for path, value in self._parse_payload(payload, round_no)
            if len(path) == level
        )
        return _PARSED.put(
            payload, context, (entries, _plain_entries(entries))
        )

    def _parse_payload(self, payload: Hashable, round_no: int):
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        tag, r, entries = payload
        if tag != "eig" or r != round_no or not isinstance(entries, tuple):
            return
        seen: set[Path] = set()
        for entry in entries:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                continue
            path, value = entry
            if not isinstance(path, tuple):
                continue
            if not all(isinstance(j, int) and 1 <= j <= self.ell for j in path):
                continue
            if len(set(path)) != len(path) or path in seen:
                continue
            seen.add(path)
            yield path, value

    def _resolve(self, tree: Mapping[Path, Hashable], path: Path) -> Hashable:
        """Bottom-up majority resolution; missing values fall to the default."""
        default = self.problem.default
        if len(path) == self.t + 1:
            value = tree.get(path, default)
            return value if value in self.problem.domain else default
        counts: dict[Hashable, int] = {}
        for j in range(1, self.ell + 1):
            if j in path:
                continue
            child = self._resolve(tree, path + (j,))
            counts[child] = counts.get(child, 0) + 1
        total = sum(counts.values())
        value, count = majority_value(counts, default)
        # Strict majority; ties and fragmentation resolve to the default.
        if 2 * count > total:
            return value
        return default
