"""Delivery topology: which correct-process links exist.

The paper's model is fully connected, and every algorithm in this
package assumes it.  Topologies exist for one purpose: the Figure 1
scenario argument (Proposition 1) builds a *larger* reference system in
which processes are wired so that three overlapping arcs each look like
a legitimate fully-connected n-process system.  The
:class:`DirectedTopology` implements that wiring.

Self-delivery is handled by the engine (a process always receives its
own broadcast) and is not subject to topology filtering; topologies
only govern links between distinct processes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.sim import fabric


class Topology(ABC):
    """Predicate deciding whether a link ``sender -> recipient`` exists."""

    @abstractmethod
    def delivers(self, sender: int, recipient: int) -> bool:
        """True when messages from ``sender`` reach ``recipient``."""

    def blocked_mask(self, receivers: Sequence[int], senders: Sequence[int]):
        """All cut links as one ``(receivers, senders)`` bool mask.

        The message fabric subtracts these links from the round's
        common delivery multiset: ``mask[i, j]`` is True when the link
        ``senders[j] -> receivers[i]`` is cut.  The default asks
        :meth:`delivers` link by link; subclasses with structural
        knowledge override it with real array ops.  Self-links are
        never reported (self-delivery is not subject to topology
        filtering).

        Args:
            receivers: The receiving process indices (ascending).
            senders: Candidate sender indices (ascending).

        Returns:
            A fresh, writable numpy bool array.
        """
        return fabric.mask_from_links(
            lambda s, q: not self.delivers(s, q), receivers, senders
        )


class CompleteTopology(Topology):
    """The paper's default: every process reaches every other."""

    def delivers(self, sender: int, recipient: int) -> bool:
        return True

    def blocked_mask(self, receivers: Sequence[int], senders: Sequence[int]):
        return fabric.new_mask(len(receivers), len(senders))

    def __repr__(self) -> str:
        return "CompleteTopology()"


class DirectedTopology(Topology):
    """Explicit in-neighbour sets per recipient.

    ``in_neighbors[r]`` is the set of sender indices whose messages
    reach process ``r``.  Senders absent from the mapping reach nobody;
    recipients absent from the mapping receive from everybody (complete
    default), which keeps scenario constructions concise.
    """

    def __init__(self, in_neighbors: Mapping[int, frozenset[int] | set[int]]) -> None:
        self._in: dict[int, frozenset[int]] = {
            int(r): frozenset(senders) for r, senders in in_neighbors.items()
        }
        for r, senders in self._in.items():
            if r < 0 or any(s < 0 for s in senders):
                raise ConfigurationError("process indices must be non-negative")

    def delivers(self, sender: int, recipient: int) -> bool:
        senders = self._in.get(recipient)
        if senders is None:
            return True
        return sender in senders

    def blocked_mask(self, receivers: Sequence[int], senders: Sequence[int]):
        mask = fabric.new_mask(len(receivers), len(senders))
        send = np.asarray(senders, dtype=np.int64)
        for i, q in enumerate(receivers):
            allowed = self._in.get(q)
            if allowed is None:
                continue
            row = ~np.isin(
                send, np.asarray(sorted(allowed), dtype=np.int64)
            )
            if q in senders:
                row[senders.index(q)] = False  # self-link never blocked
            mask[i] = row
        return mask

    def in_neighbors(self, recipient: int) -> frozenset[int] | None:
        """The configured in-set, or ``None`` when the recipient is open."""
        return self._in.get(recipient)

    def __repr__(self) -> str:
        return f"DirectedTopology({len(self._in)} constrained recipients)"
