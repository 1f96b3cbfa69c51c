"""Bounded adversary-strategy exploration (small-scope model checking).

The paper's theorems quantify over every Byzantine strategy; the rest
of this package tests against *chosen* strategies.  :mod:`repro.explore`
closes the gap at small scope: it systematically enumerates adversary
strategies round by round over a finite emission alphabet
(:mod:`~repro.explore.alphabet`), drives the ordinary
:class:`~repro.sim.kernel.ExecutionKernel` through the resulting
strategy tree with checkpoint/restore (:mod:`~repro.explore.search`), and
returns either a concrete replayable violation
(:mod:`~repro.explore.strategy`) or an explicit bounded-exhaustiveness
certificate (:mod:`~repro.explore.certificate`).

On the tightness frontier of Table 1 this *re-discovers* the paper's
lower bounds instead of replaying them: at ``n = 3t`` (synchronous) and
``2*ell = n + 3t`` (partially synchronous) the explorer finds agreement
violations no handcrafted adversary in :mod:`repro.adversaries`
triggers, while just inside the bounds it certifies their absence.

Entry points: :func:`~repro.explore.search.default_scenario` +
:func:`~repro.explore.search.explore`, the ``python -m repro explore``
subcommand, and the ``explore`` campaign-unit kind
(:mod:`~repro.explore.units`) that shards frontier sweeps across the
campaign worker pool.
"""

from repro.explore.alphabet import GhostBank, GhostPlan
from repro.explore.certificate import Certificate, SearchStats
from repro.explore.search import (
    ExploreScenario,
    default_scenario,
    explore,
    replay_witness,
)
from repro.explore.strategy import StrategyScript, StrategyTreeAdversary
from repro.explore.units import (
    explore_battery,
    explore_slice_keys,
    run_explore_unit,
)

__all__ = [
    "Certificate",
    "ExploreScenario",
    "GhostBank",
    "GhostPlan",
    "SearchStats",
    "StrategyScript",
    "StrategyTreeAdversary",
    "default_scenario",
    "explore",
    "explore_battery",
    "explore_slice_keys",
    "replay_witness",
    "run_explore_unit",
]
