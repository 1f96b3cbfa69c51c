"""The benchmark's four workloads.

Each workload builds its inputs from the seed (:meth:`setup`), runs one
fixed amount of work per :meth:`run_pass` and checks the outputs of that
pass.  The runner repeats passes for the measured time and reports the
best one.  A workload may also define ``check_run``, for checks made
once per run outside the timed passes.  Every call into ``repro`` goes
through a module attribute (``soak_driver.run_soak``,
``search.explore``, ...), so the span wrappers of :mod:`spans` see it.
``unit`` names what the workload's ``units_per_s`` counts.

Scales: ``full`` is what the benchmark measures; ``tiny`` is a
seconds-long smoke of the same code paths for ``selftest.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.atlas.driver as atlas_driver
import repro.atlas.merge as merge
import repro.atlas.render as render
import repro.explore.search as search
import repro.soak.driver as soak_driver
import repro.soak.mixture as mixture
from repro.atlas.evidence import CONFLICT
from repro.atlas.lattice import LatticeSpec
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony, model_space
from repro.experiments.campaign import CampaignCache, enumerate_atlas_units
from repro.sim import fabric
from repro.sim.delay import DelayPolicy
from repro.sim.kernel import BasicPsync, DelayBased, ExecutionKernel
from repro.sim.partial import PartitionSchedule
from repro.sim.process import Process


@dataclass
class PassResult:
    """One pass: its timing, its checked output units and a digest."""

    wall_s: float
    #: Output units checked in this pass (instances, cells, explorations,
    #: kernel rounds) and how many of them failed their check.
    units: int
    failed: int
    #: The workload's headline throughput, reported as ``units_per_s``.
    rate: float
    #: Workload-named metrics (``instances_per_s``, ``cells_per_s``...).
    named: dict = field(default_factory=dict)
    #: SHA-256 over every output byte the pass produced.
    digest: str = ""
    problems: list = field(default_factory=list)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# soak-farm
# ----------------------------------------------------------------------
class SoakFarm:
    """``run_soak`` on the quick profile with a two-worker pool.

    A pass is 500 instances: four windows of 125, one scheduling wave,
    so each pass starts one pool.  Short passes give a run enough of
    them for its best pass to be steady on a shared host.
    """

    name = "soak-farm"
    unit = "instances"
    profile = "quick"

    def __init__(self, workdir: Path, scale: str = "full") -> None:
        self.workdir = workdir
        tiny = scale == "tiny"
        self.instances = 60 if tiny else 500
        self.window = 20 if tiny else 125
        self.workers = 2
        self.replays = 4 if tiny else 24

    def setup(self, seed: int) -> dict:
        expected = soak_driver.expected_row_ids(
            self.profile, seed, self.instances, self.window
        )
        return {"seed": seed, "expected": expected, "digest": None,
                "rows": None}

    def run_pass(self, state: dict) -> PassResult:
        pass_dir = _fresh_dir(self.workdir / "soak")
        log = pass_dir / "soak.jsonl"
        start = time.perf_counter()
        outcome = soak_driver.run_soak(
            self.profile, seed=state["seed"], instances=self.instances,
            window=self.window, workers=self.workers,
            cache=CampaignCache(pass_dir / "cache"), log_path=str(log),
        )
        wall = time.perf_counter() - start

        data = log.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        rows = [json.loads(line) for line in data.splitlines()]
        instances = [r for r in rows if r["kind"] == "instance"]
        failed = sum(1 for r in instances if not r["ok"])
        problems = (
            [f"{failed} instances violated agreement"] if failed else []
        )
        whole_pass = []
        if outcome.violations != failed:
            whole_pass.append("outcome and log disagree on violations")
        if [r["unit_id"] for r in rows] != state["expected"]:
            whole_pass.append("log rows differ from the expected id sequence")
        if state["digest"] is None:
            state["digest"], state["rows"] = digest, instances
        elif digest != state["digest"]:
            whole_pass.append("log sha256 differs from this seed's first pass")
        if whole_pass:
            failed = self.instances
            problems += whole_pass
        return PassResult(
            wall_s=wall, units=self.instances, failed=failed,
            rate=self.instances / wall,
            named={"instances_per_s": self.instances / wall},
            digest=digest, problems=problems,
        )

    def check_run(self, state: dict) -> tuple[int, int, list]:
        """Solo-replay a seeded sample and compare with the logged rows."""
        rows = state["rows"]
        sample = random.Random(state["seed"]).sample(
            range(len(rows)), min(self.replays, len(rows))
        )
        failed, problems = 0, []
        for index in sample:
            record = mixture.run_instance(
                mixture.sample_instance(self.profile, state["seed"], index)
            )
            logged = rows[index]
            if {k: logged[k] for k in record} != record:
                failed += 1
                problems.append(f"instance {index} replays differently")
        return len(sample), failed, problems


# ----------------------------------------------------------------------
# atlas-table1
# ----------------------------------------------------------------------
class AtlasTable1:
    """A lattice swept as cold shards, merged, re-swept warm and rendered.

    The lattice is the synchronous half of the quick lattice cut to
    n=3..4: 28 cells, solvable and unsolvable, with explorer hunts at
    n=3, about 1.5 s a pass.  The full quick lattice (96 cells, about
    10 s) leaves one or two passes per run, too few for a steady figure;
    evidence fusion, merge, render and the cache and log paths do not
    depend on the model family.
    """

    name = "atlas-table1"
    unit = "cells"
    shards = 2

    def __init__(self, workdir: Path, scale: str = "full") -> None:
        self.workdir = workdir
        if scale == "tiny":
            self.lattice = LatticeSpec(n_min=3, n_max=3, explore_max_n=0)
        else:
            self.lattice = LatticeSpec(
                n_min=3, n_max=4, explore_max_n=3,
                models=tuple(m for m in model_space()
                             if m[0] is Synchrony.SYNCHRONOUS),
            )

    def setup(self, seed: int) -> dict:
        cells = self.lattice.cells()
        units = enumerate_atlas_units(
            [(c.label, c.params, c.variant) for c in cells], seed=seed,
        )
        return {"seed": seed, "cells": len(cells), "units": len(units)}

    def run_pass(self, state: dict) -> PassResult:
        pass_dir = _fresh_dir(self.workdir / "atlas")
        cache = CampaignCache(pass_dir / "cache")
        shard_logs = [
            pass_dir / f"atlas-{i}-of-{self.shards}.jsonl"
            for i in range(self.shards)
        ]
        merged = pass_dir / "atlas.jsonl"
        unsharded = pass_dir / "atlas-unsharded.jsonl"
        seed = state["seed"]

        start = time.perf_counter()
        for i, path in enumerate(shard_logs):
            atlas_driver.run_atlas(
                self.lattice, str(path), seed=seed, workers=1, cache=cache,
                strict=False, shard=(i, self.shards),
            )
        merge.merge_shards(shard_logs, merged, strict=False)
        cold_done = time.perf_counter()
        warm = atlas_driver.run_atlas(
            self.lattice, str(unsharded), seed=seed, workers=1, cache=cache,
            resume=True, strict=False,
        )
        agg, _, _ = render.aggregate_incremental(
            unsharded, pass_dir / "atlas.cursor.json"
        )
        markdown = render.render_markdown(
            agg, self.lattice.describe(), unsharded.name
        )
        end = time.perf_counter()

        cells = state["cells"]
        merged_bytes = merged.read_bytes()
        unsharded_bytes = unsharded.read_bytes()
        merged_lines = merged_bytes.splitlines()
        unsharded_lines = unsharded_bytes.splitlines()
        problems = []
        failed = 0
        for a, b in zip(merged_lines, unsharded_lines):
            if a != b or json.loads(a)["verdict"] == CONFLICT:
                failed += 1
        if failed:
            problems.append(f"{failed} cells conflict or differ after merge")
        if not (len(merged_lines) == len(unsharded_lines) == cells):
            problems.append("merged or unsharded log has the wrong row count")
            failed = cells
        if warm.cached != cells:
            problems.append(
                f"warm re-sweep served {warm.cached} of {cells} cells "
                f"from the unit cache"
            )
            failed = cells
        digest = hashlib.sha256(
            merged_bytes + unsharded_bytes + markdown.encode()
        ).hexdigest()
        cold_s = cold_done - start
        warm_s = end - cold_done
        return PassResult(
            wall_s=end - start, units=cells, failed=failed,
            rate=cells / cold_s,
            named={"cells_per_s": cells / cold_s,
                   "warm_cells_per_s": cells / warm_s},
            digest=digest, problems=problems,
        )


# ----------------------------------------------------------------------
# explore-cert
# ----------------------------------------------------------------------
class ExploreCert:
    """The synchronous n=4, ell=4, t=1 certificate search, horizon 6.

    The scenario is the certificate's; the horizon is cut from its
    default (12; the search saturates at 8 with 6834 nodes, about 20 s)
    to 6 rounds (84 nodes, 9674 children, about 0.2 s), so a run holds
    many passes.  Per child, the work is the same: restore, split-phase
    round, deep copy, state digest, transposition lookup.  The seed
    picks the Byzantine slot; with four distinct identifiers every
    choice is the same search up to relabelling.
    """

    name = "explore-cert"
    unit = "nodes"

    def __init__(self, workdir: Path, scale: str = "full") -> None:
        self.depth = 3 if scale == "tiny" else 6

    def setup(self, seed: int) -> dict:
        scenario = search.default_scenario(
            SystemParams(n=4, ell=4, t=1), byzantine=(seed % 4,),
            depth=self.depth,
        )
        return {"scenario": scenario, "nodes": None}

    def run_pass(self, state: dict) -> PassResult:
        start = time.perf_counter()
        cert = search.explore(state["scenario"])
        wall = time.perf_counter() - start
        stats = cert.stats
        problems = []
        if cert.outcome != "exhausted":
            problems.append(f"outcome {cert.outcome!r}, expected exhausted")
        if state["nodes"] is None:
            state["nodes"] = stats.nodes_expanded
        elif stats.nodes_expanded != state["nodes"]:
            problems.append(
                f"{stats.nodes_expanded} nodes expanded, first pass "
                f"expanded {state['nodes']}"
            )
        summary = f"{cert.outcome}: {stats.deterministic_summary()}"
        return PassResult(
            wall_s=wall, units=1, failed=1 if problems else 0,
            rate=stats.nodes_expanded / wall,
            named={"nodes_per_s": stats.nodes_expanded / wall,
                   "nodes_expanded": stats.nodes_expanded},
            digest=hashlib.sha256(summary.encode()).hexdigest(),
            problems=problems,
        )


# ----------------------------------------------------------------------
# fabric-large-n
# ----------------------------------------------------------------------
class Broadcaster(Process):
    """Constant-shape sender: the kernel's delivery work, nothing else."""

    def compose(self, round_no: int):
        return ("vote", self.identifier, round_no % 4)

    def deliver(self, round_no: int, inbox) -> None:
        pass


class SlowSenders(DelayPolicy):
    """Messages from a fixed sender set to everyone else are always late.

    A closed-form policy: every round stays inside the late window, and
    each round removes exactly ``|slow| * (n - |slow|)`` edges.
    """

    def __init__(self, slow, delta: int = 2) -> None:
        super().__init__(delta)
        self.slow = frozenset(slow)

    def delay(self, send_tick: int, sender: int, recipient: int) -> int:
        late = sender in self.slow and recipient not in self.slow
        return self.delta if late else 0

    def delay_matrix(self, send_tick, receivers, senders):
        np = fabric.require_numpy()
        slow = np.asarray(sorted(self.slow), dtype=np.int64)
        late = (~np.isin(receivers, slow))[:, None] & \
            np.isin(senders, slow)[None, :]
        return np.where(late, self.delta, 0).astype(np.int64)

    def max_late_tick(self) -> int:
        return 10**9


class FabricLargeN:
    """Kernel rounds at large n under two always-active timing models."""

    name = "fabric-large-n"
    unit = "steps"

    def __init__(self, workdir: Path, scale: str = "full") -> None:
        if scale == "tiny":
            self.rounds = {16: 3, 32: 3}
        else:
            self.rounds = {256: 24, 1024: 6}
        self.slow = 4

    def kernels(self, seed: int) -> list[tuple]:
        """``(n, kernel, rounds, delivered edges per round)`` per model."""
        rng = random.Random(seed)
        jobs = []
        for n, rounds in self.rounds.items():
            ell = max(4, n // 8)
            params = SystemParams(n=n, ell=ell, t=1,
                                  synchrony=Synchrony.PARTIALLY_SYNCHRONOUS)
            assignment = balanced_assignment(n, ell)
            order = rng.sample(range(n), n)
            half = sorted(order[: n // 2])
            rest = sorted(order[n // 2:])
            slow = sorted(order[: self.slow])
            models = (
                (BasicPsync(PartitionSchedule(10**9, half, rest), None),
                 len(half) ** 2 + len(rest) ** 2),
                (DelayBased(SlowSenders(slow)),
                 n * n - len(slow) * (n - len(slow))),
            )
            for timing, edges in models:
                kernel = ExecutionKernel(
                    params=params,
                    assignment=assignment,
                    processes=[
                        Broadcaster(assignment.identifier_of(k))
                        for k in range(n)
                    ],
                    timing=timing,
                )
                jobs.append((n, kernel, rounds, edges))
        return jobs

    def setup(self, seed: int) -> dict:
        self.kernels(seed)
        return {"seed": seed}

    def run_pass(self, state: dict) -> PassResult:
        jobs = self.kernels(state["seed"])
        largest = max(self.rounds)
        wall = 0.0
        large_s = 0.0
        for n, kernel, rounds, _ in jobs:
            start = time.perf_counter()
            kernel.run(max_rounds=rounds, stop_when_all_decided=False)
            elapsed = time.perf_counter() - start
            wall += elapsed
            if n == largest:
                large_s += elapsed
        units = failed = 0
        digest = hashlib.sha256()
        for n, kernel, rounds, edges in jobs:
            units += rounds
            failed += rounds - len(kernel.deliveries)
            for record in kernel.deliveries:
                delivered = (record.correct_deliveries
                             + record.byzantine_deliveries)
                failed += delivered != edges
                digest.update(repr(record).encode())
            digest.update(repr(kernel.losses).encode())
        problems = (
            [f"{failed} rounds off the closed-form edge count"]
            if failed else []
        )
        steps = 2 * self.rounds[largest]
        return PassResult(
            wall_s=wall, units=units, failed=failed, rate=steps / large_s,
            named={"steps_per_s": steps / large_s},
            digest=digest.hexdigest(), problems=problems,
        )


WORKLOADS = {
    cls.name: cls for cls in (SoakFarm, AtlasTable1, ExploreCert, FabricLargeN)
}
