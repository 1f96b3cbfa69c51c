"""Frozen pre-kernel execution loops, kept as differential test oracles.

The conformance grid, the engine-equivalence tests and the speedup
floors in ``benchmarks/`` pin :class:`~repro.sim.kernel.ExecutionKernel`
against these loops.  They are test fixtures, not package API: nothing
under ``src/repro`` imports them.  reprolint RL004 pins their sources
(``tools/reprolint/oracle_digests.json``).
"""


def canonical(trace):
    """A trace in the order-free form differential pairs compare in."""
    return [
        (
            r.round_no,
            sorted(r.payloads.items(), key=repr),
            sorted(
                (b, sorted(pr.items(), key=repr))
                for b, pr in r.emissions.items()
            ),
            sorted(r.decisions.items(), key=repr),
        )
        for r in trace
    ]
