"""Classic unique-identifier synchronous BA baselines (Figure 2 form)."""

from repro.classic.eig import EIGSpec, EIGState
from repro.classic.phase_king import PhaseKingSpec, PhaseKingState
from repro.classic.runner import (
    ClassicProcess,
    classic_factory,
    run_classic,
)
from repro.classic.spec import ClassicSpec, filter_equivocators, majority_value

__all__ = [
    "ClassicProcess",
    "ClassicSpec",
    "EIGSpec",
    "EIGState",
    "PhaseKingSpec",
    "PhaseKingState",
    "classic_factory",
    "filter_equivocators",
    "majority_value",
    "run_classic",
]
