"""Layer spans recorded from outside the program.

The benchmark never edits ``repro``: :func:`install` replaces the public
functions and methods of each layer, at every name a caller looks them
up by, with wrappers that time the call into a :class:`Tracer`.
:func:`uninstall` puts the originals back.  Wrappers only observe; the
wrapped call's arguments, return value and exceptions pass through
unchanged, so a traced run's outputs are byte-identical to an untraced
run's (``selftest.py`` checks this for every workload).

Spans nest.  A span's *self time* is its duration minus the time its
child spans cover.  Only the outermost call of a name is recorded, so a
recursive function (``copy.deepcopy``, ``canonical_state_key``) or a
method calling its parent class's version counts once.

Pool workers forked by the campaign engine inherit the wrappers; each
worker-side ``execute_unit`` ships its span totals back inside the
result under :data:`SPANS_KEY`, and the parent-side ``execute_units``
wrapper removes the key before the program sees the result.
"""

from __future__ import annotations

import copy
import functools
import importlib
import inspect
import os
import pickle
import pkgutil
import sys
import time

#: Result key carrying a pool worker's span totals back to the parent.
SPANS_KEY = "__perfbench_spans__"


class Tracer:
    """Accumulates per-name span totals and counters in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Drop every total and the open-span stack."""
        #: name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._active: set[str] = set()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if name in self._active:
            return fn(*args, **kwargs)
        self._active.add(name)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._active.discard(name)
            if self._stack:
                self._stack[-1][0] += elapsed
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]

    def inside(self, prefix: str) -> bool:
        """True while a span whose name starts with ``prefix`` is open."""
        return any(name.startswith(prefix) for name in self._active)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def absorb(self, exported: dict) -> None:
        """Add another tracer's totals (a pool worker's) to this one."""
        for name, (calls, total, own) in exported["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, amount in exported["counters"].items():
            self.count(name, amount)

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def own(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def import_all_repro() -> None:
    """Import every ``repro`` submodule so every subclass is visible."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _lookup_modules(extra_modules) -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ] + list(extra_modules)


def _wrap_function(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, iterator)
                except StopIteration:
                    return
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def patch_function(patches, modules, fn, wrapper) -> None:
    """Point every module-level name bound to ``fn`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.set(module, attr, wrapper)


def _subclasses(base) -> list:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def patch_methods(patches, tracer, base, method: str, name: str) -> None:
    """Wrap ``method`` on ``base`` and every subclass that defines it."""
    for cls in _subclasses(base):
        fn = cls.__dict__.get(method)
        if not inspect.isfunction(fn):
            continue
        if getattr(fn, "__isabstractmethod__", False):
            continue
        patches.set(cls, method, _wrap_function(tracer, name, fn))


#: (module, function, span name) wrapped wherever the function is bound.
FUNCTION_SPANS = (
    ("repro.sim.kernel", "run_batch", "kernel.run_batch"),
    ("repro.sim.adversary", "normalize_emissions",
     "adversary.normalize_emissions"),
    ("repro.sim.runner", "result_from_kernel", "runner.result_from_kernel"),
    ("repro.soak.mixture", "sample_instance", "mixture.sample_instance"),
    ("repro.soak.mixture", "build_instance", "mixture.build_instance"),
    ("repro.soak.units", "make_kernel", "units.make_kernel"),
    ("repro.soak.driver", "run_soak", "soak.run_soak"),
    ("repro.atlas.evidence", "run_atlas_unit", "evidence.run_atlas_unit"),
    ("repro.atlas.evidence", "fuse_evidence", "evidence.fuse_evidence"),
    ("repro.atlas.driver", "run_atlas", "atlas.run_atlas"),
    ("repro.atlas.merge", "merge_shards", "merge.merge_shards"),
    ("repro.atlas.render", "aggregate_incremental",
     "render.aggregate_incremental"),
    ("repro.atlas.render", "render_markdown", "render.render_markdown"),
    ("repro.core.canonical", "canonical_state_key",
     "canonical.canonical_state_key"),
)

#: (module, class, method, span name) wrapped on the class and every
#: subclass that overrides the method.
METHOD_SPANS = (
    ("repro.sim.process", "Process", "compose", "process.compose"),
    ("repro.sim.process", "Process", "deliver", "process.deliver"),
    ("repro.sim.adversary", "Adversary", "emissions", "adversary.emissions"),
    ("repro.sim.kernel", "TimingModel", "removed_mask",
     "fabric.removed_mask"),
    ("repro.sim.kernel", "ExecutionKernel", "compose_round",
     "kernel.compose_round"),
    ("repro.sim.kernel", "ExecutionKernel", "finish_round",
     "kernel.finish_round"),
    ("repro.sim.kernel", "ExecutionKernel", "checkpoint", "kernel.checkpoint"),
    ("repro.sim.kernel", "ExecutionKernel", "restore", "kernel.restore"),
    ("repro.sim.trace", "Trace", "append", "trace.append"),
    ("repro.sim.metrics", "WindowAggregator", "add_record",
     "metrics.window_add_record"),
    ("repro.experiments.campaign", "CampaignCache", "store",
     "campaign.cache_store"),
    ("repro.atlas.stream", "AtlasLog", "rows", "stream.rows"),
)


def install(tracer: Tracer, extra_modules=()) -> Patches:
    """Wrap every layer boundary; returns the patches to undo.

    Args:
        tracer: Receives the spans and counters.
        extra_modules: Modules outside ``repro`` (the benchmark's own)
            whose bindings of wrapped functions are patched too.
    """
    import_all_repro()
    patches = Patches()
    modules = _lookup_modules(extra_modules)

    for module_name, attr, name in FUNCTION_SPANS:
        fn = getattr(importlib.import_module(module_name), attr)
        patch_function(patches, modules, fn, _wrap_function(tracer, name, fn))
    for module_name, cls_name, method, name in METHOD_SPANS:
        base = getattr(importlib.import_module(module_name), cls_name)
        patch_methods(patches, tracer, base, method, name)

    _install_fabric(patches, modules, tracer)
    _install_explore(patches, modules, tracer)
    _install_campaign(patches, modules, tracer)
    _install_stream(patches, tracer)
    _install_deepcopy(patches, tracer)
    return patches


def uninstall(patches: Patches) -> None:
    patches.undo()


def _install_fabric(patches, modules, tracer) -> None:
    from repro.sim import fabric

    original = fabric.deliver_round

    @functools.wraps(original)
    def deliver_round(kernel, round_no, payloads, emissions):
        if fabric.array_path_enabled() and kernel.timing.active(round_no):
            tracer.count("fabric.array_rounds")
        tracer.count("fabric.rounds")
        record = tracer.call(
            "fabric.deliver_round", original,
            kernel, round_no, payloads, emissions,
        )
        tracer.count(
            "fabric.edges_delivered",
            record.correct_deliveries + record.byzantine_deliveries,
        )
        return record

    patch_function(patches, modules, original, deliver_round)


def _install_explore(patches, modules, tracer) -> None:
    from repro.explore import search

    original = search.explore

    @functools.wraps(original)
    def explore(scenario):
        cert = tracer.call("explore.explore", original, scenario)
        tracer.count("explore.transposition_hits",
                     cert.stats.transposition_hits)
        tracer.count("explore.children_generated",
                     cert.stats.children_generated)
        return cert

    patch_function(patches, modules, original, explore)


def _install_campaign(patches, modules, tracer) -> None:
    from repro.experiments import campaign

    execute_unit = campaign.execute_unit

    @functools.wraps(execute_unit)
    def traced_execute_unit(unit):
        if os.getpid() == tracer.pid:
            return tracer.call("campaign.execute_unit", execute_unit, unit)
        # A forked pool worker: start from empty totals (the fork copied
        # the parent's) and ship this unit's spans home in the result.
        tracer.reset()
        result = dict(
            tracer.call("campaign.execute_unit", execute_unit, unit)
        )
        result[SPANS_KEY] = tracer.export()
        return result

    patch_function(patches, modules, execute_unit, traced_execute_unit)

    execute_units = campaign.execute_units

    @functools.wraps(execute_units)
    def traced_execute_units(pending, workers, finish):
        worker_busy = [0.0]

        def traced_finish(unit, result):
            spans = result.pop(SPANS_KEY, None)
            if spans is not None:
                tracer.absorb(spans)
            worker_busy[0] += result.get("elapsed_s", 0.0)
            if workers > 1:
                tracer.count(
                    "campaign.pool.result_bytes", len(pickle.dumps(result))
                )
            return finish(unit, result)

        # Pooled, the parent only waits: its span is named as waiting so
        # the self-time table does not rank it as a working layer.
        name = ("campaign.pool.wait" if workers > 1
                else "campaign.execute_units")
        start = time.perf_counter()
        try:
            return tracer.call(
                name, execute_units, pending, workers, traced_finish,
            )
        finally:
            if workers > 1:
                wall = time.perf_counter() - start
                tracer.count(
                    "campaign.pool.dispatch_s",
                    workers * wall - worker_busy[0],
                )

    patch_function(patches, modules, execute_units, traced_execute_units)

    load = campaign.CampaignCache.load

    @functools.wraps(load)
    def traced_load(self, unit):
        result = tracer.call("campaign.cache_load", load, self, unit)
        tracer.count("campaign.cache_loads")
        if result is not None:
            tracer.count("campaign.cache_hits")
        return result

    patches.set(campaign.CampaignCache, "load", traced_load)


def _install_stream(patches, tracer) -> None:
    from repro.atlas.stream import AtlasLog

    def sized(method, name):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            before = self.path.stat().st_size if self.path.exists() else 0
            try:
                return tracer.call(name, method, self, *args, **kwargs)
            finally:
                after = self.path.stat().st_size if self.path.exists() else 0
                tracer.count("stream.bytes_written", after - before)
        return wrapper

    for method, name in (("append", "stream.append"),
                         ("append_many", "stream.append_many")):
        patches.set(AtlasLog, method, sized(AtlasLog.__dict__[method], name))

    fsync = os.fsync

    @functools.wraps(fsync)
    def counted_fsync(fd):
        if tracer.inside("stream."):
            tracer.count("stream.fsyncs")
        return fsync(fd)

    patches.set(os, "fsync", counted_fsync)


def _install_deepcopy(patches, tracer) -> None:
    # copy.deepcopy recurses through its own module global, so wrapping
    # the module attribute sees every nested call; the tracer records
    # the outermost one only.
    patches.set(copy, "deepcopy", _wrap_function(tracer, "copy.deepcopy",
                                                 copy.deepcopy))
