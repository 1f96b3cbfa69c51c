"""Regressions for verdict and metrics accounting.

Two bug classes are pinned here:

* :func:`repro.sim.runner.run_execution` must hand *every* correct
  slot's proposal -- including ``None`` -- to the validity check.  The
  old code silently dropped ``None`` proposals, so the check concluded
  unanimity from the remaining processes and issued false validity
  verdicts.
* :meth:`repro.sim.runner.ExecutionResult.brief` must order decisions
  by the shared canonical key (:mod:`repro.core.canonical`), not by
  ``repr``, whose formatting and set-iteration order can drift across
  Python versions and hash seeds -- and with it the campaign cache
  identity.
"""

import hashlib
import json
from dataclasses import fields
from typing import Hashable

import repro
from repro.core.canonical import canonical_json, canonical_key
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams
from repro.atlas.evidence import AtlasUnit
from repro.experiments.campaign import (
    CACHE_SCHEMA,
    DelayUnit,
    DemonstrationUnit,
    ExploreUnit,
    SliceUnit,
)
from repro.sim.metrics import Metrics
from repro.sim.process import Process
from repro.sim.runner import ExecutionResult, run_execution
from repro.sim.trace import Trace
from repro.soak.units import SoakWindow


class InstantDecider(Process):
    """Broadcasts nothing and decides a fixed value in round 0."""

    def __init__(self, identifier: int, proposal: Hashable,
                 decide: Hashable) -> None:
        super().__init__(identifier, proposal)
        self._decide = decide

    def compose(self, round_no: int) -> Hashable:
        return None

    def deliver(self, round_no: int, inbox) -> None:
        self.record_decision(self._decide, round_no)


def _run(proposals_and_decisions):
    n = len(proposals_and_decisions)
    assignment = balanced_assignment(n, n)
    processes = [
        InstantDecider(assignment.identifier_of(k), proposal, decide)
        for k, (proposal, decide) in enumerate(proposals_and_decisions)
    ]
    return run_execution(
        params=SystemParams(n=n, ell=n, t=0),
        assignment=assignment,
        processes=processes,
        max_rounds=2,
    )


class TestValidityWithNoneProposals:
    def test_none_proposal_breaks_unanimity(self):
        """A non-proposing correct process voids the validity premise.

        Processes 0 and 1 propose 1, process 2 proposes nothing; all
        decide 0.  Not all correct processes proposed the same value,
        so deciding 0 is legal.  The old filtered map saw {1, 1},
        concluded unanimity, and issued a false validity violation.
        """
        result = _run([(1, 0), (1, 0), (None, 0)])
        assert result.verdict.ok
        assert not result.verdict.violated("validity")

    def test_unanimous_proposals_still_enforced(self):
        result = _run([(1, 0), (1, 0), (1, 0)])
        assert result.verdict.violated("validity")

    def test_unanimous_proposals_satisfied(self):
        result = _run([(1, 1), (1, 1), (1, 1)])
        assert result.verdict.ok


class TestCanonicalKeys:
    def test_pinned_primitive_keys(self):
        """The key format is a contract: cache identity depends on it."""
        assert canonical_key(None) == "null"
        assert canonical_key(True) == "bool:True"
        assert canonical_key(1) == "int:1"
        assert canonical_key("1") == 'str:"1"'
        assert canonical_key((0, 1)) == "seq:[int:0,int:1]"
        assert canonical_key([0, 1]) == "seq:[int:0,int:1]"

    def test_type_tags_keep_lookalikes_apart(self):
        assert len({canonical_key(v) for v in (1, True, "1", 1.0)}) == 4

    def test_unordered_containers_sort_by_element_key(self):
        assert canonical_key(frozenset({"b", "a"})) == 'set:{str:"a",str:"b"}'
        assert canonical_key({"b": 2, "a": 1}) == \
               'map:{str:"a"=int:1,str:"b"=int:2}'

    def test_quoting_prevents_separator_forgery(self):
        """Strings carrying structural separators cannot collide."""
        assert canonical_key(("a", "b")) != canonical_key(('a,str:"b"',))
        assert canonical_key({"a": 1}) != canonical_key({'a"=int:1': 1})
        assert canonical_key(("a",)) != canonical_key((("a",),))

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [2, "x"]}) == \
               '{"a":[2,"x"],"b":1}'

    def test_brief_orders_decisions_canonically(self):
        """Mixed-type decisions come out in canonical-key order."""
        n = 4
        assignment = balanced_assignment(n, n)
        values = ["a", (0, 1), frozenset({"b", "a"}), 1]
        processes = []
        for k, value in enumerate(values):
            proc = InstantDecider(assignment.identifier_of(k), 0, value)
            proc.record_decision(value, 0)
            processes.append(proc)
        result = ExecutionResult(
            params=SystemParams(n=n, ell=n, t=0),
            assignment=assignment,
            byzantine=(),
            verdict=_run([(0, 0)]).verdict,
            trace=Trace(),
            metrics=Metrics(),
            processes=processes,
        )
        summary = result.brief()
        assert summary.decisions == (
            1, (0, 1), frozenset({"a", "b"}), "a",
        )
        assert [canonical_key(v) for v in summary.decisions] == sorted(
            canonical_key(v) for v in values
        )

    def test_unit_id_hashes_canonical_json(self):
        """Every spec's cache key is sha1 over the shared
        canonicalisation of its kind and fields (cells by their
        description)."""
        params = SystemParams(n=5, ell=4, t=1)
        specs = [
            SliceUnit("x", params, 0, 1),
            DelayUnit("x", params, 0, 1),
            ExploreUnit("x", params, 0, 1),
            DemonstrationUnit("x", params),
            AtlasUnit("x", params, "campaign"),
            SoakWindow("quick", 0, 0, 8),
        ]
        for unit in specs:
            identity = {f.name: getattr(unit, f.name) for f in fields(unit)}
            if "params" in identity:
                identity["params"] = params.describe()
            payload = canonical_json(
                [CACHE_SCHEMA, repro.__version__, unit.kind, identity]
            )
            assert unit.unit_id == \
                hashlib.sha1(payload.encode()).hexdigest()[:16]
            # Canonical JSON is loadable and key-sorted, so the id
            # cannot depend on dict insertion order or separator
            # whitespace.
            assert json.loads(payload)[0] == CACHE_SCHEMA
        assert len({unit.unit_id for unit in specs}) == len(specs)
