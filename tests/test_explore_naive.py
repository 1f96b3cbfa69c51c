"""The strategy explorer against a brute-force walk of the same tree.

:func:`tests.oracles.naive_explore.naive_explore` runs every child of
every node through ``restore`` + ``finish_round``, with none of the
search's shortcuts: no transposition table, no outcome-class walk, no
scratch deliveries, no shared ghost step and no ``clone()``.  On each
scope the two must end the same way -- outcome, violated property and
round, decisions and witness JSON -- and an exhausted search's
``raw_tree_size`` must be the walk's node count, the unshared tree
size it claims to measure.

The tier-1 scopes take a few seconds in all; the larger ones (tens of
thousands of raw nodes each) are marked ``exhaustive``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identity import IdentityAssignment
from repro.core.params import SystemParams, Synchrony
from repro.explore import default_scenario, explore
from tests.oracles.naive_explore import naive_explore
from tests.test_explore_state_keys import FACTORIES

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS
_RESTRICTED3 = SystemParams(3, 3, 1, numerate=True, restricted=True)

#: name -> (params, default_scenario keyword arguments).
SCOPES = {
    **{
        f"sync-n3-d{d}": (SystemParams(3, 3, 1), dict(depth=d))
        for d in (1, 2, 3, 4)
    },
    **{
        f"sync-n4-byz{b}-d2": (
            SystemParams(4, 4, 1), dict(byzantine=(b,), depth=2),
        )
        for b in range(4)
    },
    "restricted-n3-d3": (_RESTRICTED3, dict(depth=3)),
    "psync-n3-tree-d2": (
        SystemParams(3, 3, 1, PSYNC), dict(depth=2, persistent=False),
    ),
    "dissent-n3-d2": (SystemParams(3, 3, 1), dict(depth=2)),
}

#: The same comparison on scopes of 36,887 to 113,526 raw nodes.
EXHAUSTIVE_SCOPES = {
    "sync-n3-d5": (SystemParams(3, 3, 1), dict(depth=5)),
    "sync-n4-d3": (SystemParams(4, 4, 1), dict(depth=3)),
    "restricted-n3-d4": (_RESTRICTED3, dict(depth=4)),
}


def _witness_json(script) -> str | None:
    if script is None:
        return None
    return json.dumps(script.to_dict(), sort_keys=True)


def assert_search_matches_naive_walk(scenario) -> None:
    certificate = explore(scenario)
    naive = naive_explore(scenario)
    assert certificate.outcome == naive.outcome
    assert certificate.violation == naive.violation
    assert certificate.violation_round == naive.violation_round
    assert certificate.decisions == naive.decisions
    assert _witness_json(certificate.witness) == _witness_json(naive.witness)
    if certificate.outcome == "exhausted":
        assert certificate.stats.raw_tree_size == naive.nodes


def _scenario(scopes: dict, name: str):
    params, kwargs = scopes[name]
    scenario = default_scenario(params, **kwargs)
    if name in FACTORIES:
        scenario = dataclasses.replace(scenario, factory=FACTORIES[name])
    return scenario


@pytest.mark.parametrize("name", sorted(SCOPES))
def test_search_matches_naive_walk(name):
    assert_search_matches_naive_walk(_scenario(SCOPES, name))


def test_dissent_scope_stops_at_a_violation():
    # The comparison covers the violation path too, not only counts.
    naive = naive_explore(_scenario(SCOPES, "dissent-n3-d2"))
    assert naive.outcome == "violation"
    assert naive.violation.startswith("agreement")


@pytest.mark.exhaustive
@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_SCOPES))
def test_search_matches_naive_walk_exhaustive(name):
    assert_search_matches_naive_walk(_scenario(EXHAUSTIVE_SCOPES, name))


@st.composite
def small_sync_scopes(draw):
    """A synchronous scope with drawn assignment, placement and depth."""
    n = draw(st.sampled_from((3, 4)))
    ell = draw(st.integers(1, n))
    ids = draw(st.permutations(
        list(range(1, ell + 1))
        + draw(st.lists(st.integers(1, ell), min_size=n - ell,
                        max_size=n - ell))
    ))
    return default_scenario(
        SystemParams(n, ell, 1),
        assignment=IdentityAssignment(ell, tuple(ids)),
        byzantine=(draw(st.integers(0, n - 1)),),
        depth=draw(st.integers(1, 3 if n == 3 else 2)),
    )


@settings(max_examples=8, deadline=None)
@given(small_sync_scopes())
def test_search_matches_naive_walk_on_drawn_scopes(scenario):
    assert_search_matches_naive_walk(scenario)
