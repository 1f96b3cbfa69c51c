"""Window execution: a shard of the soak stream as one campaign unit.

The farm's unit of pool work is a *window* -- ``count`` consecutive
instances of the deterministic stream starting at ``start``.  A window
executes by building every instance's kernel and driving them all with
the kernel's batch scheduler (:func:`repro.sim.kernel.run_batch`):
round-robin interleaving in slices of ``batch`` kernels, so a window's
wavefront advances together instead of serialising behind its slowest
instance.  Kernels share no state, so each instance's verdict and costs
are bit-identical to a solo :func:`~repro.soak.mixture.run_instance`
replay -- the property the farm's replay contract rests on.

A window's spec is a :class:`SoakWindow` -- profile, farm seed, start
and count, nothing else -- which rides the campaign engine's unit
pipeline (:func:`repro.experiments.campaign.run_units`) and so gets its
process pool, content-hash disk cache and prompt cancel-on-failure for
free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.errors import ConfigurationError
from repro.experiments.campaign import UnitSpec
from repro.experiments.harness import RunRecord
from repro.sim.kernel import ExecutionKernel, run_batch
from repro.sim.runner import make_processes, result_from_kernel
from repro.soak.mixture import (
    BuiltInstance,
    build_instance,
    get_profile,
    sample_instance,
)

#: Kernels driven concurrently per round-robin slice.  Bounds the live
#: process objects per worker while keeping the interleaving wide
#: enough to exercise mixed traffic.
DEFAULT_BATCH = 32


def make_kernel(built: BuiltInstance) -> ExecutionKernel:
    """Assemble the execution kernel for one built instance."""
    processes = make_processes(
        built.factory, built.assignment, built.proposals, built.byzantine
    )
    return ExecutionKernel(
        params=built.params,
        assignment=built.assignment,
        processes=processes,
        byzantine=built.byzantine,
        adversary=built.adversary,
        timing=built.timing,
    )


def run_soak_window(
    profile: str,
    farm_seed: int,
    start: int,
    count: int,
    batch: int = DEFAULT_BATCH,
) -> list[RunRecord]:
    """Execute one window of the soak stream on batched kernels.

    Args:
        profile: A :data:`~repro.soak.mixture.PROFILES` key.
        farm_seed: The farm's seed.
        start: Index of the window's first instance.
        count: Number of consecutive instances.
        batch: Kernels per round-robin slice.

    Returns:
        One :class:`~repro.experiments.harness.RunRecord` per instance,
        in stream order.

    Raises:
        ConfigurationError: Unknown profile or a non-positive window.
    """
    get_profile(profile)  # fail fast on unknown profiles
    if count < 1:
        raise ConfigurationError(f"soak window needs count >= 1, got {count}")
    if start < 0:
        raise ConfigurationError(f"soak window needs start >= 0, got {start}")
    records: list[RunRecord] = []
    for chunk_start in range(start, start + count, max(1, batch)):
        chunk = range(
            chunk_start, min(chunk_start + max(1, batch), start + count)
        )
        builds = [
            build_instance(sample_instance(profile, farm_seed, index))
            for index in chunk
        ]
        jobs = [(make_kernel(built), built.horizon) for built in builds]
        executed = run_batch(jobs)
        for built, (kernel, _), rounds in zip(builds, jobs, executed):
            brief = result_from_kernel(kernel, rounds).brief()
            records.append(
                RunRecord(
                    label=built.spec.describe(),
                    ok=brief.ok,
                    detail=brief.detail,
                    rounds=brief.rounds,
                    messages=brief.messages,
                    losses=brief.losses,
                )
            )
    return records


@dataclass(frozen=True)
class SoakWindow(UnitSpec):
    """``count`` consecutive instances of a profile's stream from ``start``.

    :meth:`run` is :func:`run_soak_window`, which also validates the
    profile and the window bounds -- in the worker, like any other
    failure of a unit's work.
    """

    kind = "soak"

    profile: str
    seed: int
    start: int
    count: int

    @property
    def label(self) -> str:
        return f"soak/{self.profile}"

    def slice_key(self) -> tuple[int, int]:
        """A window's result reports its stream slice ``(start, count)``."""
        return self.start, self.count

    def describe(self) -> str:
        end = self.start + self.count
        return f"{self.label} [{self.profile}[{self.start}:{end}]]"

    def run(self) -> dict:
        records = run_soak_window(
            self.profile, self.seed, self.start, self.count
        )
        return {
            "algorithm": "soak-mixture",
            "records": [asdict(r) for r in records],
        }
