#!/usr/bin/env python
"""Privacy through homonyms: agreeing under domain-name identifiers.

Paper scenario: the Section 1 privacy motivation (users sign with a
shared domain name), solved with the Figure 5 protocol and sized with
the Theorem 13 bound ``2*ell > n + 3t``.

The paper's motivating scenario (Section 1): users keep some anonymity
by signing messages only with their *domain name*, not a personal key.
Several users of one domain become homonyms -- observers see that
"someone at example.org" participates, never who.

This example models three organisations of different sizes running a
partially synchronous agreement on a binary proposal ("adopt the new
protocol version?") with one compromised machine, and shows how to pick
the smallest safe number of domains with the library's bound
calculators.

Run:  python examples/domain_privacy.py
"""

from repro.analysis.bounds import min_identifiers, solvable
from repro.core.identity import assignment_from_sizes
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.adversaries.generic import EquivocatorAdversary
from repro.sim.kernel import BasicPsync
from repro.sim.partial import SilenceUntil
from repro.sim.runner import run_agreement

#: Domain -> number of participating users.  13 users, 9 domains: the
#: big domains hide their users among homonyms.
DOMAINS = {
    "research.example.org": 3,
    "ops.example.org": 3,
    "lab.example.net": 1,
    "www.example.net": 1,
    "a.example.com": 1,
    "b.example.com": 1,
    "c.example.com": 1,
    "d.example.com": 1,
    "e.example.com": 1,
}


def main() -> None:
    names = list(DOMAINS)
    sizes = {i + 1: DOMAINS[name] for i, name in enumerate(names)}
    assignment = assignment_from_sizes(sizes)
    n, ell, t = assignment.n, assignment.ell, 1

    print(f"{n} users across {ell} domains, tolerating t={t} compromise")
    for ident, name in enumerate(names, start=1):
        members = assignment.group(ident)
        tag = "homonyms" if len(members) > 1 else "sole user"
        print(f"  id {ident} = {name:24s} {len(members)} user(s) ({tag})")

    params = SystemParams(
        n=n, ell=ell, t=t, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )
    print(f"\nSolvable per Theorem 13 (2*ell > n + 3t)? "
          f"{2 * ell} > {n + 3 * t} -> {solvable(params)}")
    fewest = min_identifiers(
        n, t, Synchrony.PARTIALLY_SYNCHRONOUS, numerate=False, restricted=False
    )
    print(f"Fewest domains that would still work for {n} users: {fewest}")

    # The compromised machine: a user inside the biggest domain, so its
    # whole domain group is poisoned; it plays both sides of the vote.
    byzantine = (assignment.group(1)[0],)
    proposals = {
        k: (1 if assignment.identifier_of(k) <= 4 else 0)
        for k in range(n) if k not in byzantine
    }
    adversary = EquivocatorAdversary(
        dls_factory(params, BINARY), proposal_even=0, proposal_odd=1
    )

    result = run_agreement(
        params=params,
        assignment=assignment,
        factory=dls_factory(params, BINARY),
        proposals=proposals,
        byzantine=byzantine,
        adversary=adversary,
        timing=BasicPsync(SilenceUntil(16)),  # a rough network start
        max_rounds=dls_horizon(params, 16),
    )
    print()
    print(result.verdict.summary())
    assert result.verdict.ok
    decided = result.verdict.agreed_value
    print(f"\nThe federation decided {decided!r} -- and the two correct "
          f"users of {names[0]} stayed hidden in their domain crowd.")


if __name__ == "__main__":
    main()
