#!/usr/bin/env python
"""Restricted faults in practice: a fleet of flaky-but-not-malicious nodes.

Paper scenario: Section 5 / Figure 7 and Theorems 14/15 -- restricted
Byzantine senders plus numerate receivers make ``ell > t`` sufficient.

The paper's Section 5 observation: if Byzantine processes are just
*malfunctioning* machines -- sending wrong values, but physically unable
to inject more traffic than a healthy node (one message per recipient
per round) -- then ``t + 1`` identifiers suffice, provided receivers can
count message copies.

Scenario: a rack of 10 collectors shares 3 hardware-type identifiers
(identifiers = device model, not device id: the fleet owner only
provisions per-model signing keys).  Up to 2 devices may glitch.  With
the classical theory you would need 2*ell > n + 3t, i.e. 9 distinct
keys; with the restricted model, 3 suffice -- Figure 7 in action.

Run:  python examples/malfunctioning_fleet.py
"""

from repro.adversaries.generic import CrashAdversary, EquivocatorAdversary
from repro.analysis.bounds import restriction_gain
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.restricted import restricted_factory, restricted_horizon
from repro.sim.kernel import BasicPsync
from repro.sim.partial import RandomDrops
from repro.sim.runner import run_agreement

N_DEVICES = 10
N_MODELS = 3  # identifiers: one signing key per hardware model
T_GLITCHES = 2


def main() -> None:
    unrestricted_need, restricted_need = restriction_gain(N_DEVICES, T_GLITCHES)
    print(f"Fleet: {N_DEVICES} devices, {T_GLITCHES} may glitch.")
    print(f"Keys needed if glitches could flood  : {unrestricted_need}")
    print(f"Keys needed for restricted glitches  : {restricted_need}"
          f" (we provision {N_MODELS})")

    params = SystemParams(
        n=N_DEVICES, ell=N_MODELS, t=T_GLITCHES,
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=True,     # collectors count copies per model key
        restricted=True,   # glitchy devices cannot out-talk healthy ones
    )
    assignment = balanced_assignment(N_DEVICES, N_MODELS)
    print(f"\nModel assignment: {assignment.describe()}")

    glitchy = (8, 9)
    # The fleet votes on "promote firmware B?": sensors disagree 4 vs 4.
    proposals = {k: k % 2 for k in range(N_DEVICES) if k not in glitchy}

    for name, adversary in [
        ("two-faced glitch", EquivocatorAdversary(
            restricted_factory(params, BINARY))),
        ("boot-loop glitch", CrashAdversary(
            restricted_factory(params, BINARY), crash_round=5, proposal=1)),
    ]:
        result = run_agreement(
            params=params,
            assignment=assignment,
            factory=restricted_factory(params, BINARY),
            proposals=proposals,
            byzantine=glitchy,
            adversary=adversary,
            timing=BasicPsync(RandomDrops(gst=12, p=0.3, seed=7)),
            max_rounds=restricted_horizon(params, 12),
        )
        print(f"\n[{name}] {result.verdict.summary()}")
        assert result.verdict.ok

    print(f"\nAgreement reached with only {N_MODELS} keys for "
          f"{N_DEVICES} devices -- the restricted-Byzantine dividend.")


if __name__ == "__main__":
    main()
