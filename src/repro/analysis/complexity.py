"""Closed-form cost models of the implemented algorithms.

The paper proves computability results and explicitly leaves complexity
open ("complexity is yet to be explored").  The reproduction cannot
leave it open: users need to know what they are paying.  This module
states the cost models our implementations actually satisfy -- every
formula here is pinned by a test or benchmark comparing it against
measured traces, so the models are *verified documentation*.

Round counts use engine rounds (0-indexed internally; the formulas
count rounds, i.e. ``last index + 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.params import SystemParams


# ----------------------------------------------------------------------
# Classic baselines (Figure 2)
# ----------------------------------------------------------------------
def eig_rounds(t: int) -> int:
    """EIG decides after exactly ``t + 1`` rounds."""
    return t + 1


def eig_tree_nodes(ell: int, t: int) -> int:
    """Size of a full EIG information tree: ``sum_{k=0..t+1} ell!/(ell-k)!``.

    This is the per-process state bound and the driver of EIG's
    exponential message sizes.
    """
    total = 0
    for k in range(t + 2):
        total += math.perm(ell, k)
    return total


def eig_level_nodes(ell: int, level: int) -> int:
    """Nodes at one tree level: ``ell! / (ell - level)!``."""
    return math.perm(ell, level)


def phase_king_rounds(t: int) -> int:
    """Phase-King decides after ``2*(t + 1)`` rounds."""
    return 2 * (t + 1)


# ----------------------------------------------------------------------
# The transformation (Figure 3)
# ----------------------------------------------------------------------
def transform_decision_round(base_rounds: int) -> int:
    """Engine round (0-indexed) at which every T(A) process decides.

    Three rounds per simulated round of ``A``; the decision lands in the
    *deciding* round (offset 1) of the phase after ``A``'s last
    transition: ``3 * base_rounds + 1``.
    """
    return 3 * base_rounds + 1


# ----------------------------------------------------------------------
# Partially synchronous protocols (Figures 5 and 7)
# ----------------------------------------------------------------------
ROUNDS_PER_PHASE = 8  # four superrounds of two rounds


def dls_first_decision_bound(params: SystemParams, gst_round: int) -> int:
    """Upper bound on the first decision round of Figure 5.

    After the first full phase past ``gst_round``, every identifier
    leads within ``ell`` phases, and the first *sole-owner correct*
    leader's phase decides; there are at least ``2t + 1`` sole-owner
    correct processes, so such a leader occurs within the first
    ``n - ell + t + 1`` identifiers of the rotation in the worst case
    (that many identifiers can be homonym-or-Byzantine).  Conservative
    bound: one full rotation.
    """
    first_stable_phase = (gst_round + ROUNDS_PER_PHASE - 1) // ROUNDS_PER_PHASE + 1
    return (first_stable_phase + params.ell + 1) * ROUNDS_PER_PHASE


def dls_all_decided_bound(params: SystemParams, gst_round: int) -> int:
    """Upper bound on the last decision round of Figure 5.

    ``t + 1`` sole-owner leaders must decide before the decide relay
    finishes everyone; they all lead within one rotation past
    stabilisation, plus one phase for the relay itself.
    """
    return dls_first_decision_bound(params, gst_round) + ROUNDS_PER_PHASE


def restricted_all_decided_bound(params: SystemParams, gst_round: int) -> int:
    """Upper bound on the last decision round of Figure 7.

    The first phase after stabilisation led by a fully correct
    identifier decides for *everybody* at once (no relay needed); such
    an identifier exists (``ell > t``) and leads within ``ell`` phases.
    """
    first_stable_phase = (gst_round + ROUNDS_PER_PHASE - 1) // ROUNDS_PER_PHASE + 1
    return (first_stable_phase + params.ell + 1) * ROUNDS_PER_PHASE


def broadcasts_per_round(params: SystemParams) -> int:
    """Correct broadcasts per engine round (one each: the model's shape)."""
    return params.n - params.t  # worst case all t Byzantine


@dataclass(frozen=True)
class CostEstimate:
    """A round/message budget for one configuration."""

    rounds: int
    correct_messages: int  # broadcasts x fanout

    @staticmethod
    def for_dls(params: SystemParams, gst_round: int) -> "CostEstimate":
        rounds = dls_all_decided_bound(params, gst_round)
        return CostEstimate(
            rounds=rounds,
            correct_messages=rounds * broadcasts_per_round(params) * params.n,
        )
