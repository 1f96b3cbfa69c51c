"""Core model: parameters, identities, messages, and the problem spec."""

from repro.core.errors import (
    AdversaryViolation,
    BoundViolation,
    ConfigurationError,
    ProtocolViolation,
    ReplayError,
    ReproError,
    SimulationError,
)
from repro.core.identity import (
    IdentityAssignment,
    all_assignments,
    assignment_from_sizes,
    balanced_assignment,
    random_assignment,
    stacked_assignment,
)
from repro.core.messages import Inbox, Message
from repro.core.params import Synchrony, SystemParams, model_space
from repro.core.problem import (
    BINARY,
    AgreementProblem,
    Verdict,
    Violation,
    check_agreement_properties,
)

__all__ = [
    "AdversaryViolation",
    "AgreementProblem",
    "BINARY",
    "BoundViolation",
    "ConfigurationError",
    "IdentityAssignment",
    "Inbox",
    "Message",
    "ProtocolViolation",
    "ReplayError",
    "ReproError",
    "SimulationError",
    "Synchrony",
    "SystemParams",
    "Verdict",
    "Violation",
    "all_assignments",
    "assignment_from_sizes",
    "balanced_assignment",
    "check_agreement_properties",
    "model_space",
    "random_assignment",
    "stacked_assignment",
]
