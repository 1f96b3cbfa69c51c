#!/usr/bin/env python
"""Ring membership for a Chord-style DHT with hashed (colliding) node IDs.

Paper scenario: the Section 1 DHT motivation (hashed identifiers
collide), handled by the Figure 5 partially synchronous protocol under
the Theorem 13 bound.

The paper's opening motivation: Pastry and Chord assume unique node
identifiers, derived in practice by hashing.  Hashes collide -- rarely
by accident, deliberately under attack -- and the moment they do, every
protocol built on "one ID = one node" silently loses its footing.

This example builds a miniature ring of storage nodes whose identifiers
are derived by hashing their (possibly duplicated) join keys into a tiny
identifier space, then uses the homonym-aware Figure 5 protocol to run
a *membership reconfiguration vote*: should the ring evict the suspect
shard and re-replicate?  The library decides up front -- from (n, ℓ, t)
alone -- whether the vote is safe to run, runs it through partition-
style network weather plus a Byzantine node, and applies the decision.

Run:  python examples/dht_membership.py
"""

import hashlib

from repro.adversaries.generic import EquivocatorAdversary
from repro.analysis.bounds import solvable
from repro.core.identity import IdentityAssignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import AgreementProblem
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.sim.kernel import BasicPsync
from repro.sim.partial import PartitionSchedule
from repro.sim.runner import run_agreement

#: The ring's nodes: (node name, join key).  Two nodes were provisioned
#: from the same image and share a join key -- a real-world collision.
NODES = [
    ("node-a", "key-7f31"),
    ("node-b", "key-90aa"),
    ("node-c", "key-41c2"),
    ("node-d", "key-7f31"),   # cloned image: collides with node-a!
    ("node-e", "key-c55e"),
    ("node-f", "key-08d1"),
    ("node-g", "key-63b7"),
]

ID_SPACE = 128  # big enough that only the deliberate clone collides here;
                # shrink it to watch accidental collisions push the ring
                # below the Theorem 13 bound and the vote refuse itself
VOTE = AgreementProblem(("keep", "evict"))


def ring_identifier(join_key: str) -> int:
    """Chord-style: hash the key into the identifier space."""
    digest = hashlib.sha256(join_key.encode()).digest()
    return int.from_bytes(digest[:4], "big") % ID_SPACE + 1


def main() -> None:
    raw_ids = [ring_identifier(key) for _, key in NODES]
    # Compact to a dense 1..ell space (the library's identifier format).
    distinct = sorted(set(raw_ids))
    remap = {old: new for new, old in enumerate(distinct, start=1)}
    ids = tuple(remap[i] for i in raw_ids)
    ell = len(distinct)
    n, t = len(NODES), 1

    print("DHT ring membership vote")
    print("========================")
    for (name, key), ident in zip(NODES, ids):
        print(f"  {name}: join key {key} -> ring identifier {ident}")
    assignment = IdentityAssignment(ell, ids)
    homonyms = assignment.homonym_ids()
    print(f"\n{n} nodes, {ell} distinct identifiers; "
          f"collided identifiers: {homonyms or 'none'}")

    params = SystemParams(
        n=n, ell=ell, t=t, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )
    safe = solvable(params)
    print(f"Membership vote safe per Theorem 13? 2*{ell} > {n} + 3*{t} "
          f"-> {safe}")
    if not safe:
        print("Refusing to run the vote -- add identifiers or nodes.")
        return

    # node-g is compromised and two-faced; the ring is also split by a
    # flaky switch for the first 16 rounds.
    byzantine = (6,)
    factory = dls_factory(params, VOTE)
    proposals = {}
    for k in range(n):
        if k in byzantine:
            continue
        # Nodes that observed the suspect shard's corruption vote evict.
        proposals[k] = "evict" if k in (0, 2, 3, 5) else "keep"
    weather = PartitionSchedule(16, block_a=[0, 1, 2], block_b=[3, 4, 5])

    result = run_agreement(
        params=params,
        assignment=assignment,
        factory=factory,
        proposals=proposals,
        byzantine=byzantine,
        adversary=EquivocatorAdversary(factory, "keep", "evict"),
        timing=BasicPsync(weather),
        max_rounds=dls_horizon(params, 16),
    )

    print(f"\n{result.verdict.summary()}")
    assert result.verdict.ok
    decision = result.verdict.agreed_value
    print(f"\nRing decision: {decision!r} "
          f"(by round {result.verdict.last_decision_round}, through a "
          f"16-round partition, a collision and a two-faced node).")
    if decision == "evict":
        print("-> shard evicted; re-replication scheduled.")
    else:
        print("-> shard kept; corruption reports dismissed.")


if __name__ == "__main__":
    main()
