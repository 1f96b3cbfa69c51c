"""Byzantine Agreement with Homonyms -- a full reproduction.

Reproduces Delporte-Gallet, Fauconnier, Guerraoui, Kermarrec, Ruppert,
Tran-The: *Byzantine Agreement with Homonyms*, PODC 2011: a round-based
simulator for homonymous message-passing systems, all four algorithm
families of the paper, executable versions of every lower-bound
construction, and the analysis/benchmark layer regenerating Table 1 and
Figures 1-7.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro.core import BINARY, SystemParams, Synchrony, balanced_assignment
    from repro.psync import dls_factory, dls_horizon
    from repro.sim import BasicPsync, SilenceUntil, run_agreement

    params = SystemParams(n=7, ell=6, t=1,
                          synchrony=Synchrony.PARTIALLY_SYNCHRONOUS)
    result = run_agreement(
        params=params,
        assignment=balanced_assignment(7, 6),
        factory=dls_factory(params, BINARY),
        proposals={k: k % 2 for k in range(6)},
        byzantine=(6,),
        timing=BasicPsync(SilenceUntil(16)),
        max_rounds=dls_horizon(params, 16),
    )
    assert result.verdict.ok

Package layout:

* :mod:`repro.core` -- parameters, identities, messages, problem spec;
* :mod:`repro.sim` -- the round engine, synchrony models, adversary API;
  every runner takes one ``timing`` model (``LockStep``, ``BasicPsync``
  for basic-model losses, ``DelayBased`` for the delay formulations);
* :mod:`repro.classic` -- unique-identifier baselines (EIG, Phase-King)
  in the Figure 2 functional form;
* :mod:`repro.homonyms` -- the Figure 3 transformation ``T(A)``;
* :mod:`repro.broadcast` -- authenticated broadcast (Proposition 6) and
  its multiplicity variant (Figure 6);
* :mod:`repro.psync` -- the partially synchronous protocols (Figures 5
  and 7) and proper-set maintenance;
* :mod:`repro.adversaries` -- generic attacks plus the Figure 1 / Figure
  4 / Lemma 17 lower-bound constructions;
* :mod:`repro.analysis` -- solvability predicates, quorum lemmas, Table 1;
* :mod:`repro.experiments` -- the cell-validation harness, the parallel
  campaign engine (:mod:`repro.experiments.campaign`: worker-pool
  fan-out, on-disk unit cache, sharding, JSON/Markdown reports), and
  text reports;
* :mod:`repro.explore` -- the bounded adversary-strategy explorer:
  systematic small-scope search over every strategy in a finite
  emission alphabet, producing replayable violation witnesses at the
  unsolvable edge of Table 1 and bounded exhaustiveness certificates
  just inside it;
* :mod:`repro.atlas` -- the solvability atlas: the ``(n, t, ell)`` x
  model lattice swept with closed-form, campaign, and explorer
  evidence fused per cell into provenance-annotated verdicts,
  streamed through a resumable JSONL log and rendered as the
  machine-derived Table 1 plus boundary maps;
* :mod:`repro.cli` -- the ``python -m repro`` command line
  (``table1`` / ``check`` / ``run`` / ``attack`` / ``explore`` /
  ``campaign`` / ``atlas``).

Start with the top-level ``README.md`` for a worked CLI session and
``docs/ARCHITECTURE.md`` for the package <-> paper map and the module
dependency diagram.
"""

__version__ = "1.0.0"

__all__ = [
    "adversaries",
    "analysis",
    "atlas",
    "broadcast",
    "classic",
    "core",
    "experiments",
    "explore",
    "homonyms",
    "psync",
    "sim",
]
