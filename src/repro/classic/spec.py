"""The Figure 2 interface: classic synchronous BA as pure functions.

The paper's Figure 3 transformation ``T(A)`` consumes *any* synchronous
Byzantine agreement algorithm ``A`` for ``ell`` processes with unique
identifiers, provided ``A`` is expressed in the functional form of
Figure 2:

1. a set of local process states,
2. ``init(i, v)`` -- the initial state of process ``i`` with input ``v``,
3. ``message(s, r)`` -- the broadcast payload in state ``s``, round ``r``,
4. ``transition(s, r, R)`` -- the next state after receiving the round-``r``
   messages ``R``,
5. ``decide(s)`` -- the decision in state ``s`` (or ``None`` for "not yet");
   once non-``None`` it must stay constant along every reachable path.

States must be **hashable and canonically ordered by ``repr``**: the
transformation broadcasts states in its selection rounds and picks the
deterministic minimum, so two equal states must have equal reprs (use
sorted tuples, never raw frozensets, inside states).

``R`` is a mapping ``identifier -> payload`` containing at most one
payload per identifier: the engine-facing adapters collapse each
identifier's messages and *discard* identifiers that equivocated
(distinct payloads from one identifier in one round), which is exactly
the filtering of lines 12-14 of Figure 3 and is harmless in the unique-
identifier setting the specs are designed for.

Because ``T(A)`` runs these functions on states and payloads that may
have been *invented by Byzantine processes*, every implementation in
this package is defensive: malformed states are detectable via
:meth:`ClassicSpec.is_state` and malformed payload fragments are
silently ignored by transitions (equivalent to the sender being silent,
which Byzantine processes may be anyway).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Mapping

from repro.core.canonical import exact_key
from repro.core.errors import BoundViolation
from repro.core.messages import Inbox
from repro.core.problem import AgreementProblem


class ClassicSpec(ABC):
    """A synchronous BA algorithm for ``ell`` uniquely-identified processes."""

    def __init__(
        self, ell: int, t: int, problem: AgreementProblem, unchecked: bool = False
    ) -> None:
        self.ell = int(ell)
        self.t = int(t)
        self.problem = problem
        #: When set, :meth:`require_bound` is a no-op.  Only the
        #: lower-bound demonstrations use this: they deliberately run
        #: algorithms outside their solvability region.
        self.unchecked = bool(unchecked)

    def __deepcopy__(self, memo) -> "ClassicSpec":
        # Specs are pure Figure 2 function tables: configuration set in
        # ``__init__`` and never mutated.  Every process of an execution
        # (and every deep copy the strategy explorer's checkpointing
        # takes) can share one instance.
        return self

    # ------------------------------------------------------------------
    # Figure 2 functions
    # ------------------------------------------------------------------
    @abstractmethod
    def init(self, ident: int, value: Hashable) -> Hashable:
        """Initial state of process ``ident`` (1-indexed) with input ``value``."""

    @abstractmethod
    def message(self, state: Hashable, round_no: int) -> Hashable:
        """Broadcast payload for 1-indexed round ``round_no`` (``None`` = silent)."""

    @abstractmethod
    def transition(
        self, state: Hashable, round_no: int, received: Mapping[int, Hashable]
    ) -> Hashable:
        """Next state after the round-``round_no`` messages ``received``."""

    @abstractmethod
    def decide(self, state: Hashable) -> Hashable:
        """Decision in ``state`` or ``None``; stable once non-``None``."""

    # ------------------------------------------------------------------
    # Robustness hooks used by T(A)
    # ------------------------------------------------------------------
    @abstractmethod
    def is_state(self, obj: Hashable) -> bool:
        """Structural check: could ``obj`` be a state of this algorithm?

        ``T(A)``'s selection rounds only adopt candidate states passing
        this check, so Byzantine garbage cannot crash the transition
        functions of correct processes.
        """

    @property
    @abstractmethod
    def max_rounds(self) -> int:
        """Number of rounds after which every correct process has decided."""

    def state_key(self, state: Hashable) -> Hashable:
        """Hashable identity of ``state`` for the strategy explorer.

        Equal exactly when the states' reflective keys are equal
        (:func:`~repro.core.canonical.exact_key`); specs whose states
        have a cheaper exact identity override this.
        """
        return exact_key(state)

    # ------------------------------------------------------------------
    # Shared validation
    # ------------------------------------------------------------------
    def require_bound(self, minimum_ratio: int) -> None:
        """Raise :class:`BoundViolation` unless ``ell > minimum_ratio * t``."""
        if self.unchecked:
            return
        if self.ell <= minimum_ratio * self.t:
            raise BoundViolation(
                f"{type(self).__name__} requires ell > {minimum_ratio}t, "
                f"got ell={self.ell}, t={self.t}"
            )


def filter_equivocators(
    inbox: Inbox, select: Hashable = None
) -> dict[int, Hashable]:
    """Collapse an inbox to at most one payload per identifier.

    Identifiers that sent two or more *distinct* payloads this round are
    dropped entirely -- the receiver knows such an identifier harbours a
    Byzantine process (or quarrelling homonyms, indistinguishable from
    one) and ignores it, per Figure 3 lines 12-14.

    ``select`` optionally restricts attention to payloads for which
    ``select(payload)`` is true before collapsing (used when several
    logical channels share one physical round).
    """
    by_id: dict[int, set[Hashable]] = {}
    for m in inbox:
        if select is not None and not select(m.payload):
            continue
        by_id.setdefault(m.sender_id, set()).add(m.payload)
    return {
        ident: next(iter(payloads))
        for ident, payloads in by_id.items()
        if len(payloads) == 1
    }


def majority_value(
    counts: Mapping[Hashable, int], default: Hashable
) -> tuple[Hashable, int]:
    """Deterministic plurality: highest count, ties broken by repr order.

    Returns ``(value, count)``; on an empty mapping returns
    ``(default, 0)``.
    """
    if not counts:
        return default, 0
    best = max(counts.items(), key=lambda kv: (kv[1], ), default=None)
    top_count = best[1]
    tied = sorted(
        (value for value, c in counts.items() if c == top_count), key=repr
    )
    return tied[0], top_count
