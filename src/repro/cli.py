"""Command-line interface: explore the paper from a shell.

Subcommands:

* ``table1`` -- print the symbolic Table 1 and a per-ell boundary map;
* ``check N ELL T`` -- classify one configuration in all four model
  families, with the relevant theorem for each verdict;
* ``run`` -- execute one agreement instance (model, assignment, attack
  and drop schedule selectable) and print the verdict, optionally with
  the ASCII execution timeline;
* ``attack`` -- run a lower-bound construction (``fig1``/``fig4``/
  ``mirror``) and print the machine-checked violation;
* ``explore`` -- bounded adversary-strategy exploration: search *every*
  strategy in a finite emission alphabet instead of running one fixed
  attack, and print either a replayable violating strategy trace or a
  bounded exhaustiveness certificate with pruning counters;
* ``campaign`` -- validate the whole Table 1 battery through the
  parallel campaign engine (worker pool, disk cache, shardable,
  JSON/Markdown reports); ``--explore`` runs the tightness frontier and
  ``--delay`` the delay-model workload family through the same pool
  instead;
* ``atlas`` -- sweep the ``(n, t, ell)`` x model lattice and fuse, per
  cell, the closed-form Table 1 predicate with campaign verdicts and
  explorer certificates into a provenance-annotated verdict, streamed
  to a resumable JSONL log and rendered as the machine-derived Table 1
  plus per-``(n, t)`` boundary maps; ``atlas merge`` fuses per-shard
  logs into the canonical ``atlas.jsonl``, ``atlas render`` re-renders
  incrementally via a persisted cursor, and ``atlas serve`` exposes a
  fused log as a stdlib JSON query API.

``run`` executes on the unified kernel and accepts a timing model:
``--timing rounds`` (lock-step, the default), ``--timing eventual``
(delays bounded by ``--delta`` from ``--gst-tick`` on) or ``--timing
bounded`` (delays always bounded, bound unknown to the algorithm).

Examples::

    python -m repro table1 --n 8 --t 1
    python -m repro check 9 6 1
    python -m repro run --n 7 --ell 6 --t 1 --model psync --gst 16 --timeline
    python -m repro run --n 7 --ell 6 --t 1 --model psync \\
        --timing eventual --delta 3 --gst-tick 24 --chaos 4
    python -m repro attack fig4 --n 9 --ell 6 --t 1
    python -m repro explore --n 3 --ell 3 --t 1 --model sync
    python -m repro explore --n 4 --ell 4 --t 1 --model sync --json cert.json
    python -m repro campaign --workers 4 --report table1.json
    python -m repro campaign --workers 4 --resume --shard 0/2
    python -m repro campaign --explore --workers 4
    python -m repro campaign --delay --workers 4
    python -m repro atlas --quick --workers 4
    python -m repro atlas --max-n 8 --resume --markdown atlas.md
    python -m repro atlas --quick --shard 0/3 --workers 4
    python -m repro atlas merge atlas-0-of-3.jsonl atlas-1-of-3.jsonl \\
        atlas-2-of-3.jsonl --out atlas.jsonl
    python -m repro atlas render --log atlas.jsonl --markdown atlas.md
    python -m repro atlas serve --log atlas.jsonl --port 8008
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.adversaries.generic import (
    EquivocatorAdversary,
    RandomByzantineAdversary,
)
from repro.adversaries.mirror import mirror_chain_scan
from repro.adversaries.partition import run_partition_attack
from repro.adversaries.scenario import run_scenario
from repro.analysis.bounds import solvable
from repro.analysis.tables import boundary_map, table1_text
from repro.classic.eig import EIGSpec
from repro.core.identity import (
    balanced_assignment,
    random_assignment,
    stacked_assignment,
)
from repro.core.canonical import canonical_json
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.core.errors import AtlasLogCorrupt, ConfigurationError
from repro.experiments.campaign import (
    CampaignCache,
    parse_shard,
    run_campaign,
)
from repro.experiments.harness import algorithm_for
from repro.experiments.report import cell_grid_report, failures_report
from repro.homonyms.transform import transform_factory, transform_horizon
from repro.psync.dls_homonyms import DLSHomonymProcess, dls_horizon
from repro.psync.restricted import restricted_factory, restricted_horizon
from repro.sim.delay import (
    AlwaysBoundedUnknownDelays,
    EventuallyBoundedDelays,
    equivalent_basic_gst,
)
from repro.sim.kernel import BasicPsync, DelayBased
from repro.sim.partial import RandomDrops, SilenceUntil
from repro.sim.render import render_decision_summary, render_timeline
from repro.sim.runner import run_agreement


def _params(args, synchrony=None) -> SystemParams:
    """Build :class:`SystemParams` from parsed CLI arguments.

    Args:
        args: The parsed namespace (``n``/``ell``/``t`` required;
            ``model``/``numerate``/``restricted`` optional).
        synchrony: Override the synchrony instead of deriving it from
            ``args.model``.

    Returns:
        The parameter object for the requested model.
    """
    if synchrony is None:
        synchrony = (
            Synchrony.PARTIALLY_SYNCHRONOUS
            if getattr(args, "model", "psync") == "psync"
            else Synchrony.SYNCHRONOUS
        )
    return SystemParams(
        n=args.n, ell=args.ell, t=args.t,
        synchrony=synchrony,
        numerate=getattr(args, "numerate", False),
        restricted=getattr(args, "restricted", False),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_table1(args) -> int:
    """``table1``: print the symbolic table (and optional boundary map).

    Args:
        args: Parsed namespace with optional ``n`` and ``t``.

    Returns:
        Process exit code (always 0).
    """
    print(table1_text())
    if args.n is not None:
        print()
        print(boundary_map(args.n, args.t))
    return 0


def cmd_check(args) -> int:
    """``check``: classify one ``(n, ell, t)`` in all four model families.

    Args:
        args: Parsed namespace with ``n``, ``ell``, ``t``.

    Returns:
        Process exit code (always 0).
    """
    n, ell, t = args.n, args.ell, args.t
    rows = [
        ("synchronous, unrestricted", Synchrony.SYNCHRONOUS, False, False,
         "Theorem 3: ell > 3t"),
        ("synchronous, restricted+numerate", Synchrony.SYNCHRONOUS, True,
         True, "Theorem 14: ell > t"),
        ("partially synchronous, unrestricted",
         Synchrony.PARTIALLY_SYNCHRONOUS, False, False,
         "Theorem 13: 2*ell > n + 3t"),
        ("partially synchronous, restricted+numerate",
         Synchrony.PARTIALLY_SYNCHRONOUS, True, True,
         "Theorem 15: ell > t"),
    ]
    print(f"n={n}, ell={ell}, t={t} (PSL bound n > 3t: "
          f"{'met' if n > 3 * t else 'VIOLATED'})")
    for name, synchrony, numerate, restricted, theorem in rows:
        params = SystemParams(n=n, ell=ell, t=t, synchrony=synchrony,
                              numerate=numerate, restricted=restricted)
        verdict = "solvable" if solvable(params) else "unsolvable"
        print(f"  {name:<44} {verdict:<11} ({theorem})")
    return 0


def _delay_timing(args) -> tuple[DelayBased | None, int]:
    """Build the ``run`` subcommand's delay timing model, if requested.

    Args:
        args: Parsed namespace with ``timing``/``delta``/``gst_tick``/
            ``chaos``/``seed``.

    Returns:
        ``(timing, equivalent_gst_round)`` -- ``(None, 0)`` for the
        default round-granular timing.

    Raises:
        ConfigurationError: When delay timing is combined with ``--gst``
            drop schedules (the delay model supplies its own losses).
    """
    def reject_set_flags(pairs, detail):
        set_flags = [flag for flag, value in pairs if value is not None]
        if set_flags:
            raise ConfigurationError(f"{'/'.join(set_flags)} {detail}")

    if args.timing == "rounds":
        reject_set_flags(
            (("--delta", args.delta), ("--gst-tick", args.gst_tick),
             ("--chaos", args.chaos)),
            "only applies with --timing eventual/bounded",
        )
        return None, 0
    if args.gst:
        raise ConfigurationError(
            "--timing eventual/bounded replaces drop schedules with "
            "delay-derived losses; drop --gst"
        )
    delta = 3 if args.delta is None else args.delta
    if args.timing == "eventual":
        policy = EventuallyBoundedDelays(
            delta=delta,
            gst_tick=24 if args.gst_tick is None else args.gst_tick,
            chaos_factor=4 if args.chaos is None else args.chaos,
            seed=args.seed,
        )
    else:  # "bounded": always within delta, bound unknown to the algorithm
        reject_set_flags(
            (("--gst-tick", args.gst_tick), ("--chaos", args.chaos)),
            "only applies with --timing eventual; --timing bounded "
            "delays are always within --delta",
        )
        policy = AlwaysBoundedUnknownDelays(true_delta=delta, seed=args.seed)
    return DelayBased(policy), equivalent_basic_gst(policy)


def cmd_run(args) -> int:
    """``run``: execute one agreement instance and print the verdict.

    Args:
        args: Parsed namespace (model, assignment, attack, drop
            schedule, delay timing, timeline options).

    Returns:
        0 on a clean verdict, 1 on violations, 2 when the
        configuration is unsolvable per the paper.
    """
    params = _params(args)
    problem = BINARY
    if not solvable(params):
        print(f"{params.describe()} is UNSOLVABLE per the paper "
              f"(see `python -m repro check {params.n} {params.ell} "
              f"{params.t}`); try `python -m repro attack` to watch the "
              f"matching lower-bound construction break it.")
        return 2
    timing, delay_gst = _delay_timing(args)
    name, factory, horizon = algorithm_for(params, problem)
    if args.gst:
        horizon = max(horizon, args.gst + horizon)
    if delay_gst:
        horizon += delay_gst

    assignment = (
        random_assignment(params.n, params.ell, args.seed)
        if args.assignment == "random"
        else balanced_assignment(params.n, params.ell)
    )
    byzantine = tuple(range(params.n - params.t, params.n))
    proposals = {
        k: k % 2 for k in range(params.n) if k not in byzantine
    }
    adversary = {
        "silent": None,
        "chaos": RandomByzantineAdversary(seed=args.seed),
        "equivocate": EquivocatorAdversary(factory),
    }[args.attack]
    network = timing  # None runs lock-step rounds
    if args.gst and args.drops == "silence":
        network = BasicPsync(SilenceUntil(args.gst))
    elif args.gst:
        network = BasicPsync(RandomDrops(gst=args.gst, p=0.5, seed=args.seed))

    print(f"algorithm: {name} on {params.describe()}")
    print(f"assignment: {assignment.describe()}  byzantine: {byzantine}")
    if timing is not None:
        print(f"timing: {timing.describe()} "
              f"(equivalent basic-model GST round: {delay_gst})")
    result = run_agreement(
        params=params,
        assignment=assignment,
        factory=factory,
        proposals=proposals,
        byzantine=byzantine,
        adversary=adversary,
        timing=network,
        max_rounds=horizon,
    )
    print()
    print(result.verdict.summary())
    print(result.metrics.summary())
    if timing is not None:
        last = max((r for r, _s, _q in result.losses), default=None)
        late = (
            f"{len(result.losses)} late messages became basic-model "
            f"losses (last in round {last})"
            if result.losses else "no message was ever late"
        )
        print(f"{result.ticks} network ticks; {late}")
    if args.timeline:
        print()
        print(render_timeline(result.trace, assignment, byzantine,
                              rounds_per_phase=args.phase_ruler))
        print()
        print(render_decision_summary(result.trace, proposals))
    return 0 if result.verdict.ok else 1


def cmd_attack(args) -> int:
    """``attack``: run one lower-bound construction.

    Args:
        args: Parsed namespace with ``construction`` in
            ``fig1``/``fig4``/``mirror`` plus ``n``, ``ell``, ``t``.

    Returns:
        0 when the construction exhibits the paper's violation,
        1 otherwise.
    """
    n, ell, t = args.n, args.ell, args.t
    if args.construction == "fig1":
        spec = EIGSpec(3 * t, t, BINARY, unchecked=True)
        outcome = run_scenario(
            n, t, transform_factory(spec, unchecked=True),
            max_rounds=transform_horizon(spec),
        )
        print(outcome.summary())
        return 0 if outcome.contradiction_exhibited else 1
    if args.construction == "fig4":
        params = _params(args, Synchrony.PARTIALLY_SYNCHRONOUS)

        def factory(ident, value):
            return DLSHomonymProcess(params, BINARY, ident, value,
                                     unchecked=True)

        outcome = run_partition_attack(
            n, ell, t, factory, reference_rounds=dls_horizon(params, 0)
        )
        print(outcome.summary())
        return 0 if outcome.attack_succeeded else 1
    # mirror
    params = SystemParams(
        n=n, ell=ell, t=t, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        numerate=True, restricted=True,
    )
    outcome = mirror_chain_scan(
        params,
        restricted_factory(params, BINARY, unchecked=True),
        max_rounds=restricted_horizon(params, 0),
    )
    print(outcome.summary())
    return 0 if outcome.impossibility_evidence else 1


def cmd_explore(args) -> int:
    """``explore``: bounded strategy exploration of one configuration.

    Builds the standard exploration scenario for ``(n, ell, t)`` in the
    selected model, searches every strategy in its bounded family, and
    prints the outcome: a violating strategy trace (re-confirmed by a
    replay through the normal execution pipeline) or a bounded
    exhaustiveness certificate with pruning counters.

    Args:
        args: Parsed namespace (model flags, assignment/byzantine/input
            selectors, depth, mode overrides, ``--json``).

    Returns:
        0 when the outcome is consistent with the paper's Table 1
        prediction for the configuration, 1 otherwise.
    """
    from repro.core.problem import BINARY
    from repro.explore import default_scenario, explore, replay_witness

    params = _params(args)
    assignment = (
        stacked_assignment(params.n, params.ell)
        if args.assignment == "stacked"
        else balanced_assignment(params.n, params.ell)
    )
    byzantine = (
        tuple(sorted(set(args.byz))) if args.byz
        else tuple(range(params.n - params.t, params.n))
    )
    if len(byzantine) > params.t:
        raise ConfigurationError(
            f"--byz names {len(byzantine)} slots but t={params.t}; the "
            f"Table 1 prediction (and the consistency verdict) assume at "
            f"most t Byzantine processes"
        )
    correct = tuple(k for k in range(params.n) if k not in set(byzantine))
    proposals = {
        "mixed": {k: pos % 2 for pos, k in enumerate(correct)},
        "zeros": {k: 0 for k in correct},
        "ones": {k: 1 for k in correct},
    }[args.inputs]
    persistent = None
    if args.per_round:
        persistent = False
    elif args.persistent:
        persistent = True

    scenario = default_scenario(
        params,
        assignment=assignment,
        byzantine=byzantine,
        proposals=proposals,
        depth=args.depth,
        problem=BINARY,
        persistent=persistent,
    )
    print(f"exploring {params.describe()}")
    print(f"  algorithm: {scenario.algorithm}, depth {scenario.depth}, "
          f"{'persistent-face' if scenario.persistent_faces else 'per-round'}"
          f" mode, {len(scenario.ghost_plans)} ghosts, "
          f"{len(scenario.cuts)} cut alternatives")
    certificate = explore(scenario)
    print()
    print(certificate.summary())

    if certificate.found_violation:
        result = replay_witness(scenario, certificate.witness)
        print()
        print("witness replayed through the normal engine:")
        print("  " + result.verdict.summary().replace("\n", "\n  "))

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(certificate.to_json() + "\n")
        print(f"certificate written to {args.json}")

    predicted = solvable(params)
    consistent = certificate.consistent_with(predicted)
    print()
    if consistent:
        verdict = "consistent"
    elif predicted:
        # A violation inside the solvable region falsifies the paper
        # (or, far more likely, the implementation).
        verdict = "INCONSISTENT (violation inside the solvable region)"
    else:
        verdict = (
            "inconclusive (no violation in this bounded family; widen "
            "the scope, e.g. --inputs mixed or a larger --depth)"
        )
    print(f"paper predicts {'solvable' if predicted else 'unsolvable'}: "
          f"{verdict}")
    return 0 if consistent else 1


def cmd_campaign(args) -> int:
    """``campaign``: validate the Table 1 battery via the campaign engine.

    Runs the full cell/workload grid through
    :func:`repro.experiments.campaign.run_campaign` -- parallel across
    ``--workers`` processes, resumable from the on-disk unit cache, and
    shardable across machines -- then prints the empirical Table 1 grid
    and writes the JSON/Markdown reports.

    Args:
        args: Parsed namespace (``workers``, ``seed``, ``full``,
            ``shard``, ``resume``, ``cache_dir``, ``report``,
            ``markdown``, ``verbose``).

    Returns:
        0 when every evaluated cell is consistent with the paper,
        1 otherwise.
    """
    shard = parse_shard(args.shard) if args.shard is not None else None
    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = ".campaign-cache"
    cache = CampaignCache(cache_dir) if cache_dir else None
    progress = print if args.verbose else None

    if args.explore:
        unit_kind = "explore"
    elif args.delay:
        unit_kind = "delay"
    else:
        unit_kind = "validate"
    report = run_campaign(
        cells=None,
        seed=args.seed,
        quick=not args.full,
        workers=args.workers,
        cache=cache,
        resume=args.resume,
        shard=shard,
        progress=progress,
        unit_kind=unit_kind,
    )

    cells = report.cell_results()
    print(cell_grid_report(cells))
    if not report.all_consistent:
        print()
        print(failures_report(cells))
    print()
    print(f"{len(report.unit_results)} units "
          f"({report.executed} executed, {report.cached} cached) "
          f"on {report.workers} worker(s) in {report.elapsed_s:.2f}s")

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"JSON report written to {args.report}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(report.to_markdown() + "\n")
        print(f"Markdown report written to {args.markdown}")
    return 0 if report.all_consistent else 1


def _atlas_lattice(args):
    """Build the sweep lattice from the atlas CLI flags."""
    import dataclasses

    from repro.atlas import default_lattice, quick_lattice

    if args.quick:
        lattice = quick_lattice()
        if args.campaign_max_n is not None:
            lattice = dataclasses.replace(
                lattice, campaign_max_n=args.campaign_max_n
            )
        return lattice
    return default_lattice(
        n_max=args.max_n,
        t_values=tuple(args.t),
        explore_max_n=args.explore_max_n,
        campaign_max_n=args.campaign_max_n,
    )


def _atlas_sweep(args) -> int:
    """The ``atlas sweep`` action (also the default with no action)."""
    from repro.atlas import (
        AtlasLog,
        aggregate,
        known_violation_fixture,
        render_json,
        render_markdown,
        run_atlas,
    )
    from repro.core.errors import AtlasConflict

    lattice = _atlas_lattice(args)
    shard = parse_shard(args.shard) if args.shard is not None else None
    log_path = args.log
    if shard is not None and log_path == "atlas.jsonl":
        # The canonical per-shard log name; merge fuses them back into
        # the unsharded atlas.jsonl.
        log_path = f"atlas-{shard[0]}-of-{shard[1]}.jsonl"
    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = ".atlas-cache"
    cache = CampaignCache(cache_dir) if cache_dir else None

    inject = {}
    if args.inject_conflict:
        target = next(
            (cell.label for cell in lattice.cells()
             if solvable(cell.params)),
            None,
        )
        if target is None:
            raise ConfigurationError(
                "--inject-conflict needs a predicted-solvable cell in the "
                "lattice; widen --max-n"
            )
        inject[target] = [known_violation_fixture()]
        print(f"injecting known-violation fixture into solvable cell "
              f"{target!r}")

    stripe = f" (shard {shard[0]}/{shard[1]})" if shard else ""
    print(f"atlas over {lattice.describe()}{stripe}")
    try:
        outcome = run_atlas(
            lattice,
            log_path=log_path,
            seed=args.seed,
            quick=not args.full,
            workers=args.workers,
            cache=cache,
            resume=args.resume,
            inject=inject,
            progress=print if args.verbose else None,
            shard=shard,
        )
    except AtlasConflict as exc:
        print(f"ATLAS CONFLICT (hard error): {exc}", file=sys.stderr)
        print(f"partial rows remain in {log_path}; the conflicting cell "
              f"was not recorded", file=sys.stderr)
        return 1

    agg = aggregate(AtlasLog(log_path).rows())
    print(outcome.summary())
    for (synchrony, numerate), tally in sorted(agg.families.items()):
        name = (f"{synchrony:<5} "
                f"{'numerate' if numerate else 'innumerate'}")
        counts = ", ".join(f"{c} {v}" for v, c in sorted(tally.items()))
        print(f"  {name:<18} {counts}")
    coverage = (
        "every cell carries non-symbolic evidence"
        if not agg.symbolic_only
        else f"{len(agg.symbolic_only)} cells are symbolic-only"
    )
    print(f"{coverage}; {len(agg.conflicts)} CONFLICT cells")
    print(f"per-cell provenance streamed to {log_path}")

    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(render_markdown(agg, lattice.describe(), log_path)
                     + "\n")
        print(f"Markdown atlas written to {args.markdown}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(agg, lattice.describe(), log_path) + "\n")
        print(f"JSON atlas written to {args.json}")
    return 0 if agg.ok else 1


def _atlas_merge(args) -> int:
    """The ``atlas merge`` action: fuse shard logs canonically."""
    from repro.atlas import merge_shards
    from repro.core.errors import AtlasConflict, AtlasMergeError

    if not args.inputs:
        raise ConfigurationError(
            "atlas merge needs at least one shard log, e.g. "
            "`python -m repro atlas merge atlas-*-of-3.jsonl --out "
            "atlas.jsonl`"
        )
    try:
        outcome = merge_shards(args.inputs, args.out)
    except AtlasConflict as exc:
        print(f"ATLAS CONFLICT at merge time (hard error): {exc}",
              file=sys.stderr)
        for row in exc.rows:
            print(f"  provenance row: {canonical_json(row)}",
                  file=sys.stderr)
        return 1
    except AtlasMergeError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    print(outcome.summary())
    return 0 if outcome.ok else 1


def _atlas_render(args) -> int:
    """The ``atlas render`` action: cursor-backed incremental re-render."""
    from repro.atlas import (
        aggregate_incremental,
        render_json,
        render_markdown,
    )

    if not os.path.isfile(args.log):
        # Folding nothing would report "rendered 0 cells" and leave a
        # cursor behind for a log that does not exist.
        print(f"error: no atlas log at {args.log}", file=sys.stderr)
        return 1
    cursor = args.cursor or f"{args.log}.cursor.json"
    agg, new_rows, incremental = aggregate_incremental(args.log, cursor)
    mode = "incremental" if incremental else "full refold"
    print(f"rendered {agg.cells} cells from {args.log} "
          f"({mode}: {new_rows} rows folded this call; cursor {cursor})")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(render_markdown(agg, f"rows of {args.log}", args.log)
                     + "\n")
        print(f"Markdown atlas written to {args.markdown}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(agg, f"rows of {args.log}", args.log)
                     + "\n")
        print(f"JSON atlas written to {args.json}")
    return 0 if agg.ok else 1


def _atlas_serve(args) -> int:
    """The ``atlas serve`` action: bind the stdlib query service."""
    from repro.atlas import serve_atlas

    server = serve_atlas(
        args.log, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(f"serving {args.log} ({len(server.index.rows)} cells, "
          f"etag {server.index.etag[:12]}...) on http://{host}:{port}")
    print("routes: /health /cells /cell/<unit_id> /boundary/<n>/<t>")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_atlas(args) -> int:
    """``atlas``: the sharded, mergeable, queryable solvability atlas.

    Four actions share the subcommand:

    * ``sweep`` (the default) walks the ``(n, t, ell)`` x model lattice
      through :func:`repro.atlas.driver.run_atlas` -- campaign-pooled,
      unit-cached, resumable, optionally one ``--shard`` stripe --
      streaming one provenance row per cell into the JSONL log and
      rendering the machine-derived Table 1;
    * ``merge`` fuses per-shard logs into the canonical ``atlas.jsonl``
      (byte-identical to an unsharded sweep, conflicts are hard
      errors);
    * ``render`` re-renders a log incrementally via a persisted cursor
      (O(new rows));
    * ``serve`` binds the stdlib JSON query service over a fused log.

    Args:
        args: Parsed namespace (``action`` plus the flags of the
            selected action).

    Returns:
        0 on success, 1 on conflicts/gaps, 2 on configuration errors.
    """
    return {
        "sweep": _atlas_sweep,
        "merge": _atlas_merge,
        "render": _atlas_render,
        "serve": _atlas_serve,
    }[args.action](args)


def cmd_soak(args) -> int:
    """``soak``: sustained adversarial agreement traffic on the kernel.

    Drives the deterministic soak stream of a mixture profile through
    :func:`repro.soak.driver.run_soak` -- batched kernels, the campaign
    pool and unit cache, and a torn-line-safe JSONL metrics log with
    checkpointed cumulative counters.  ``--quick`` selects the quick
    profile with the standard 10k-instance smoke budget; kill the
    process at any point and rerun with ``--resume`` to continue to a
    byte-identical log.

    Args:
        args: Parsed namespace (``profile``, ``instances``,
            ``duration``, ``window``, ``workers``, ``seed``,
            ``resume``, ``cache_dir``, ``log``, ``report``,
            ``verbose``, ``quick``).

    Returns:
        0 when every instance satisfied agreement, 1 on any violation.
    """
    from repro.soak import PROFILES, run_soak

    profile = args.profile
    instances = args.instances
    if args.quick:
        profile = "quick"
        if instances is None and args.duration is None:
            instances = 10_000
    if instances is None and args.duration is None:
        raise ConfigurationError(
            "pass an --instances or --duration budget (or --quick for "
            "the standard 10k-instance smoke run)"
        )
    if profile not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ConfigurationError(
            f"unknown soak profile {profile!r} (profiles: {known})"
        )

    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = ".soak-cache"
    cache = CampaignCache(cache_dir) if cache_dir else None

    budget = (
        f"{instances} instances" if instances is not None
        else f"{args.duration:g}s"
    )
    print(f"soak farm: profile={profile} seed={args.seed} budget={budget} "
          f"window={args.window} workers={args.workers}")
    outcome = run_soak(
        profile,
        seed=args.seed,
        instances=instances,
        duration=args.duration,
        window=args.window,
        workers=args.workers,
        cache=cache,
        resume=args.resume,
        log_path=args.log,
        progress=print if args.verbose else None,
    )
    print(outcome.summary())
    print(f"per-instance metrics streamed to {outcome.log_path}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(canonical_json(
                {
                    "schema": "soak-report/1",
                    "profile": outcome.profile,
                    "seed": outcome.seed,
                    "window": outcome.window,
                    "budget": outcome.budget,
                    "instances": outcome.instances,
                    "ok": outcome.ok,
                    "violations": outcome.violations,
                    "rounds": outcome.rounds,
                    "messages": outcome.messages,
                    "losses": outcome.losses,
                    "passed": outcome.passed,
                }
            ) + "\n")
        print(f"JSON report written to {args.report}")
    if not outcome.passed:
        print(f"SOAK FAILED: {outcome.violations} agreement violations "
              f"(grep the log for \"ok\": false)", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with all subcommands.

    Returns:
        The configured :class:`argparse.ArgumentParser`.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Byzantine Agreement with Homonyms (PODC 2011) "
                    "-- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print Table 1 and a boundary map")
    p.add_argument("--n", type=int, default=None,
                   help="also print the per-ell map for this n")
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("check", help="classify one (n, ell, t)")
    p.add_argument("n", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="execute one agreement instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--model", choices=("sync", "psync"), default="psync")
    p.add_argument("--numerate", action="store_true")
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--assignment", choices=("balanced", "random"),
                   default="balanced")
    p.add_argument("--attack", choices=("silent", "chaos", "equivocate"),
                   default="chaos")
    p.add_argument("--gst", type=int, default=0,
                   help="drop messages before this round")
    p.add_argument("--drops", choices=("random", "silence"), default="random")
    p.add_argument("--timing", choices=("rounds", "eventual", "bounded"),
                   default="rounds",
                   help="execution timing model: lock-step rounds "
                        "(default), eventually-bounded delays (known "
                        "delta honoured from --gst-tick on), or "
                        "always-bounded delays of unknown bound -- the "
                        "delay models run on the same kernel with late "
                        "arrivals materialised as basic-model losses")
    p.add_argument("--delta", type=int, default=None,
                   help="delay bound in ticks (delay timing only; "
                        "default 3)")
    p.add_argument("--gst-tick", type=int, default=None,
                   help="global stabilisation tick for --timing eventual "
                        "(default 24)")
    p.add_argument("--chaos", type=int, default=None,
                   help="pre-GST delay stretch factor for --timing "
                        "eventual (default 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeline", action="store_true",
                   help="render the ASCII execution timeline")
    p.add_argument("--phase-ruler", type=int, default=8,
                   help="rounds per phase for the timeline ruler")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="run a lower-bound construction")
    p.add_argument("construction", choices=("fig1", "fig4", "mirror"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "explore",
        help="bounded adversary-strategy exploration of one configuration",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--model", choices=("sync", "psync"), default="sync")
    p.add_argument("--numerate", action="store_true")
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--assignment", choices=("balanced", "stacked"),
                   default="balanced")
    p.add_argument("--byz", type=int, nargs="*", default=None,
                   metavar="SLOT", help="Byzantine slot indices "
                   "(default: the last t slots)")
    p.add_argument("--inputs", choices=("mixed", "zeros", "ones"),
                   default="mixed")
    p.add_argument("--depth", type=int, default=None,
                   help="round horizon (default: model-specific)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--per-round", action="store_true",
                      help="branch every round (synchronous default)")
    mode.add_argument("--persistent", action="store_true",
                      help="commit faces per partition block for the "
                           "whole run (partially synchronous default)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the certificate JSON here")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "campaign",
        help="validate the Table 1 battery via the parallel campaign engine",
    )
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (<=1 runs inline)")
    p.add_argument("--seed", type=int, default=0,
                   help="battery seed shared by every unit")
    p.add_argument("--full", action="store_true",
                   help="run the full battery instead of the quick one")
    p.add_argument("--shard", default=None, metavar="INDEX/COUNT",
                   help="run only this stripe of the unit grid")
    p.add_argument("--resume", action="store_true",
                   help="skip units already present in the cache")
    p.add_argument("--cache-dir", default=None,
                   help="unit cache directory (default .campaign-cache "
                        "when --resume is set)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the JSON report here")
    p.add_argument("--markdown", default=None, metavar="PATH",
                   help="write the Markdown report here")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per finished unit")
    family = p.add_mutually_exclusive_group()
    family.add_argument("--explore", action="store_true",
                        help="run the bounded strategy explorer over the "
                             "tightness frontier instead of the validation "
                             "battery")
    family.add_argument("--delay", action="store_true",
                        help="run the delay-model workload family instead: "
                             "every partially synchronous solvable cell "
                             "over the kernel's DelayBased timing models "
                             "(punctual and eventually-bounded delay "
                             "policies), late arrivals materialised as "
                             "basic-model losses")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "atlas",
        help="evidence-fused solvability sweep over the (n, t, ell) "
             "x model lattice -- shardable, mergeable, queryable",
    )
    p.add_argument("action", nargs="?", default="sweep",
                   choices=("sweep", "merge", "render", "serve"),
                   help="sweep the lattice (default), merge shard logs "
                        "into the canonical atlas.jsonl, re-render a "
                        "log incrementally, or serve the fused log as "
                        "a JSON query API")
    p.add_argument("inputs", nargs="*", metavar="SHARD_LOG",
                   help="shard logs to fuse (merge action only)")
    p.add_argument("--quick", action="store_true",
                   help="sweep the small CI lattice (n=3..5, t=1)")
    p.add_argument("--max-n", type=int, default=6,
                   help="largest n of the default lattice (ignored "
                        "with --quick)")
    p.add_argument("--t", type=int, nargs="+", default=[1],
                   help="fault budgets to sweep (ignored with --quick)")
    p.add_argument("--explore-max-n", type=int, default=4,
                   help="largest n getting explorer evidence (ignored "
                        "with --quick; restricted+numerate cells are "
                        "always outside explorer scope)")
    p.add_argument("--campaign-max-n", type=int, default=None,
                   help="campaign cost envelope: cells with larger n "
                        "skip the empirical workloads and carry an "
                        "explicit budget-skipped evidence note instead "
                        "(default: no envelope)")
    p.add_argument("--shard", default=None, metavar="INDEX/COUNT",
                   help="sweep only this stripe of the lattice; the "
                        "default log becomes atlas-INDEX-of-COUNT.jsonl")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (<=1 runs inline)")
    p.add_argument("--seed", type=int, default=0,
                   help="battery seed shared by every cell")
    p.add_argument("--full", action="store_true",
                   help="run the full workload batteries instead of the "
                        "quick ones")
    p.add_argument("--resume", action="store_true",
                   help="keep the valid prefix of the existing log and "
                        "reuse the unit cache")
    p.add_argument("--cache-dir", default=None,
                   help="unit cache directory (default .atlas-cache "
                        "when --resume is set)")
    p.add_argument("--log", default="atlas.jsonl", metavar="PATH",
                   help="streaming JSONL result log (one row per cell)")
    p.add_argument("--out", default="atlas.jsonl", metavar="PATH",
                   help="merge action: destination for the fused "
                        "canonical log")
    p.add_argument("--cursor", default=None, metavar="PATH",
                   help="render action: cursor sidecar (default "
                        "LOG.cursor.json)")
    p.add_argument("--host", default="127.0.0.1",
                   help="serve action: bind address")
    p.add_argument("--port", type=int, default=8008,
                   help="serve action: bind port (0 picks an ephemeral "
                        "one)")
    p.add_argument("--markdown", default=None, metavar="PATH",
                   help="write the Markdown atlas here")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the JSON atlas here")
    p.add_argument("--inject-conflict", action="store_true",
                   help="seed a known-violation witness into a solvable "
                        "cell to demonstrate that conflicts fail the run")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per fused cell (sweep) or per "
                        "request (serve)")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser(
        "soak",
        help="sustained adversarial agreement traffic on the execution "
             "kernel (the soak farm)",
    )
    p.add_argument("--quick", action="store_true",
                   help="quick profile with the standard 10k-instance "
                        "smoke budget")
    p.add_argument("--profile", default="standard",
                   help="mixture profile (default: standard; --quick "
                        "overrides to quick)")
    p.add_argument("--instances", type=int, default=None,
                   help="total instance budget")
    p.add_argument("--duration", type=float, default=None,
                   help="wall-clock budget in seconds (the farm stops "
                        "after the first window logged past it)")
    p.add_argument("--window", type=int, default=250,
                   help="instances per window (checkpoint cadence and "
                        "pool unit of work)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (<=1 runs inline)")
    p.add_argument("--seed", type=int, default=0,
                   help="farm seed fixing the whole instance stream")
    p.add_argument("--resume", action="store_true",
                   help="keep the valid prefix of the existing log and "
                        "reuse the unit cache")
    p.add_argument("--cache-dir", default=None,
                   help="window unit cache directory (default "
                        ".soak-cache when --resume is set)")
    p.add_argument("--log", default="soak.jsonl", metavar="PATH",
                   help="streaming JSONL metrics log (one row per "
                        "instance plus one checkpoint row per window)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write a JSON summary report here")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per flushed window")
    p.set_defaults(func=cmd_soak)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Args:
        argv: Argument vector (defaults to ``sys.argv[1:]``).

    Returns:
        The exit code of the selected subcommand (2 on configuration
        errors such as inconsistent parameters or a malformed
        ``--shard``; 1 when a result log is corrupt mid-file).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AtlasLogCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `python -m repro ... | head`
        return 0
    except OSError as exc:  # e.g. unwritable --report path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
