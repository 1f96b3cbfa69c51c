"""Benchmark: kernel ``DelayBased`` vs the per-message delay tick loop.

The legacy :class:`~tests.oracles.delay.ReferenceDelaySimulator` puts every
copy of every broadcast in flight individually and sweeps the in-flight
list once per tick -- O(delta * n^2) work per round before it even
builds an inbox.  The unified kernel's
:class:`~repro.sim.kernel.DelayBased` timing model computes each
round's late edges directly on the message fabric (and, once the
policy's ``max_late_tick`` has passed, skips delay evaluation entirely
and stamps the shared canonical inbox).  This bench runs both over
identical workloads at n = 64, checks the traces and loss sets stay
equivalent, and asserts the kernel is at least 2x faster.

Like the fabric bench, the speedup assertion is gated so contended CI
machines don't flake: it applies only with at least 2 usable CPUs and
can be tuned (or disabled with 0) via ``DELAY_BENCH_MIN_SPEEDUP``.
"""

from __future__ import annotations

import os
import time
from typing import Hashable

from benchmarks.conftest import emit, run_once, snapshot
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.sim.delay import EventuallyBoundedDelays
from repro.sim.kernel import DelayBased, ExecutionKernel
from repro.sim.process import Process
from tests.oracles.delay import ReferenceDelaySimulator


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class BroadcastProcess(Process):
    """Minimal sender so the bench times the engine, not an algorithm."""

    def compose(self, round_no: int) -> Hashable:
        return ("vote", self.identifier, round_no % 4)

    def deliver(self, round_no: int, inbox) -> None:
        pass


def _setup(n: int, ell: int):
    params = SystemParams(
        n=n, ell=ell, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
    )
    assignment = balanced_assignment(n, ell)
    processes = [
        BroadcastProcess(assignment.identifier_of(k)) for k in range(n)
    ]
    return params, assignment, processes


def _policy(seed: int = 0) -> EventuallyBoundedDelays:
    # Four chaotic rounds, then punctual: the realistic delay profile
    # (losses are finite) and the kernel's fast-path showcase.
    return EventuallyBoundedDelays(delta=4, gst_tick=16, chaos_factor=3,
                                   seed=seed)


def test_delay_kernel_throughput(benchmark):
    """n=64 delay rounds: kernel DelayBased vs the tick loop, >= 2x."""
    n, ell, rounds = 64, 16, 32

    def body():
        params, assignment, procs_ref = _setup(n, ell)
        reference = ReferenceDelaySimulator(
            params, assignment, procs_ref, _policy()
        )
        t0 = time.perf_counter()
        ref_result = reference.run(max_rounds=rounds,
                                   stop_when_all_decided=False)
        ref_sps = rounds / (time.perf_counter() - t0)

        params, assignment, procs_k = _setup(n, ell)
        kernel = ExecutionKernel(
            params=params, assignment=assignment, processes=procs_k,
            timing=DelayBased(_policy()),
        )
        t0 = time.perf_counter()
        kernel.run(max_rounds=rounds, stop_when_all_decided=False)
        kernel_sps = rounds / (time.perf_counter() - t0)

        # Differential check: same physics under both loops.
        assert len(kernel.trace) == len(ref_result.trace) == rounds
        for a, b in zip(kernel.trace, ref_result.trace):
            assert (a.payloads, a.emissions) == (b.payloads, b.emissions)
        assert sorted(kernel.losses) == sorted(ref_result.dropped)
        return kernel_sps, ref_sps

    kernel_sps, ref_sps = run_once(benchmark, body)
    speedup = kernel_sps / ref_sps
    emit(f"DelayBased kernel vs per-message tick loop (n={n})", [
        ("engine", "steps/s"),
        ("kernel DelayBased", f"{kernel_sps:.1f}"),
        ("reference tick loop", f"{ref_sps:.1f}"),
        ("speedup", f"{speedup:.2f}x"),
    ])

    cpus = _usable_cpus()
    benchmark.extra_info["delay_speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = cpus
    snapshot(
        "delay_kernel",
        {"n": n, "ell": ell, "rounds": rounds},
        ops_per_s=kernel_sps,
        speedup=speedup,
    )
    min_speedup = float(os.environ.get("DELAY_BENCH_MIN_SPEEDUP", "2.0"))
    if cpus >= 2 and min_speedup > 0:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup}x delay-kernel speedup at n={n}, "
            f"got {speedup:.2f}x"
        )
