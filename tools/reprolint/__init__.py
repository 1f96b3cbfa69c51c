"""reprolint: the repository's AST-based invariant linter.

Every load-bearing guarantee this reproduction makes -- byte-identical
atlas resume, replayable explorer witnesses, the kernel-conformance
grid against the frozen ``Reference*`` oracles in ``tests/oracles/``
-- rests on conventions that used to be hand-enforced: seed only via
:func:`repro.core.canonical.stable_seed`, never touch a reference
oracle without acknowledging it, bump ``CACHE_SCHEMA`` whenever a
campaign result shape changes.  reprolint turns those conventions into
machine-checked rules at lint time.

The linter is stdlib-only (``ast`` + ``tokenize``), honouring the
repository's no-third-party-runtime-deps rule.  Run it from the
repository root::

    python -m tools.reprolint src tests benchmarks tools

Rules
-----

==== =========================== ========================================
code name                        enforces
==== =========================== ========================================
RL001 no-raw-hash-seeding        ``hash()`` never feeds a seed/RNG path
RL002 no-wallclock-in-sim        no wall-clock reads in the package/oracles
RL003 no-unseeded-rng            RNGs are seeded, traceably deterministic
RL004 frozen-oracle-drift        ``tests/oracles/`` sources are pinned
RL005 cache-schema-fingerprint   result-dict shape changes bump the schema
RL006 canonical-iteration-order  no iteration over unordered expressions
==== =========================== ========================================

Findings are file/line-precise and individually suppressible with an
inline ``# reprolint: disable=RL003 -- justification`` comment (on the
flagged line, or alone on the line above it).  The two repo-level
rules (RL004/RL005) are not suppressible; their pins are regenerated
deliberately via ``--update-oracles`` / ``--update-schema``.
"""

from tools.reprolint.engine import (  # noqa: F401
    Diagnostic,
    FileContext,
    all_rules,
    lint_paths,
    lint_source,
)

__version__ = "1.0"
