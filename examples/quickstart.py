#!/usr/bin/env python
"""Quickstart: Byzantine agreement among homonyms in ten minutes.

Paper scenario: Figure 5 / Theorem 13 -- partially synchronous
agreement among innumerate homonyms, solvable because
``2*ell > n + 3t``.

Seven processes share six authenticated identifiers (so one identifier
has two holders -- homonyms), one process is Byzantine, the network is
partially synchronous (arbitrary message loss before an unknown
stabilisation round), and nobody can count message copies.  The
Figure 5 algorithm still reaches agreement, because
``2*ell = 12 > n + 3t = 10``.

Run:  python examples/quickstart.py
"""

from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.sim.kernel import BasicPsync
from repro.sim.partial import RandomDrops
from repro.sim.runner import run_agreement


def main() -> None:
    # 1. Describe the system: n processes, ell identifiers, t faults.
    params = SystemParams(
        n=7, ell=6, t=1,
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=False,   # inboxes are sets: copies cannot be counted
        restricted=False,  # Byzantine processes may multi-send per round
    )
    print(f"System: {params.describe()}")

    # 2. Assign identifiers.  balanced_assignment gives identifier 1 two
    #    holders (slots 0 and 6): those two processes are homonyms.
    assignment = balanced_assignment(params.n, params.ell)
    print(f"Assignment: {assignment.describe()}")
    print(f"Homonym identifiers: {assignment.homonym_ids()}")

    # 3. Pick the Byzantine slot and everyone's proposals.  Slot 6
    #    shares identifier 1 with the correct slot 0 -- the hardest
    #    placement: its group is poisoned.
    byzantine = (6,)
    proposals = {k: k % 2 for k in range(params.n) if k not in byzantine}
    print(f"Byzantine slot: {byzantine}, proposals: {proposals}")

    # 4. Choose the network conditions: random message loss until round
    #    16, chaos from the Byzantine process throughout.
    schedule = RandomDrops(gst=16, p=0.5, seed=42)
    adversary = RandomByzantineAdversary(seed=42)

    # 5. Run the Figure 5 agreement protocol.
    result = run_agreement(
        params=params,
        assignment=assignment,
        factory=dls_factory(params, BINARY),
        proposals=proposals,
        byzantine=byzantine,
        adversary=adversary,
        timing=BasicPsync(schedule),
        max_rounds=dls_horizon(params, gst_round=16),
    )

    # 6. Inspect the verdict: validity, agreement and termination are
    #    checked automatically against the recorded execution.
    print()
    print(result.summary())
    assert result.verdict.ok, "the paper guarantees this configuration!"
    print()
    print(f"All correct processes decided {result.verdict.agreed_value!r} "
          f"by round {result.verdict.last_decision_round}.")
    print("The homonym pair (slots 0 and 6 share identifier 1) did not "
          "stop slot 0 from deciding:",
          f"decision round {result.verdict.decision_rounds[0]}.")


if __name__ == "__main__":
    main()
