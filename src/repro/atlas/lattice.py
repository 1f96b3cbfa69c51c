"""The atlas lattice: which cells the evidence sweep covers.

A *cell* is one point of the paper's parameter space -- a numeric
triple ``(n, ell, t)`` crossed with one of the eight model combinations
(synchrony x numeracy x Byzantine restriction).  A *lattice* is the
rectangular sweep the atlas walks: every ``ell`` of every ``n`` in a
range, for each fault budget and each model, in one fixed enumeration
order that the streaming result log and the resume logic both key on.

The explorer dimension is part of the cell spec: bounded strategy
exploration is a small-scope instrument, so :class:`LatticeSpec` marks
exactly which cells are inside its scope (``n <= explore_max_n`` and
not the restricted+numerate family, whose deep per-round horizons make
exhaustive sweeps intractable even at ``n = 3``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError
from repro.core.params import Synchrony, SystemParams, model_space

#: The evidence plans an atlas cell's unit
#: (:class:`~repro.atlas.evidence.AtlasUnit`) can run.
WITH_EXPLORER = "campaign+explorer"
CAMPAIGN_ONLY = "campaign"
BUDGET_SKIPPED = "budget-skipped"
PLANS = (WITH_EXPLORER, CAMPAIGN_ONLY, BUDGET_SKIPPED)


@dataclass(frozen=True)
class AtlasCell:
    """One lattice cell: a labelled parameter point plus its evidence plan.

    Attributes
    ----------
    label:
        Unique display label (doubles as the campaign aggregation key).
    params:
        The cell's system parameters.
    with_explorer:
        Whether bounded strategy exploration contributes evidence for
        this cell (small-scope cells only).
    with_campaign:
        Whether the cell is inside the campaign cost envelope.  Cells
        outside it never run workloads: their unit emits an explicit
        ``budget-skipped`` evidence note instead, so the exclusion is
        visible in the provenance rather than silent.
    """

    label: str
    params: SystemParams
    with_explorer: bool = False
    with_campaign: bool = True

    @property
    def variant(self) -> str:
        """The cell's evidence plan (one of :data:`PLANS`)."""
        if not self.with_campaign:
            return BUDGET_SKIPPED
        return WITH_EXPLORER if self.with_explorer else CAMPAIGN_ONLY


def _cell_label(params: SystemParams) -> str:
    """The canonical cell label: compact and unique per lattice point."""
    num = "num" if params.numerate else "innum"
    res = "res" if params.restricted else "unres"
    return (
        f"n{params.n} ell{params.ell} t{params.t} "
        f"{params.synchrony.short} {num} {res}"
    )


@dataclass(frozen=True)
class LatticeSpec:
    """A rectangular ``(n, t, ell)`` x model sweep specification.

    Attributes
    ----------
    n_min, n_max:
        Inclusive process-count range; every ``ell`` in ``1..n`` is
        swept for each ``n``.
    t_values:
        Fault budgets to sweep.
    models:
        The model combinations as ``(synchrony, numerate, restricted)``
        triples; defaults to the paper's full 2x2x2 space in
        :func:`repro.core.params.model_space` order.
    explore_max_n:
        Largest ``n`` for which cells get explorer evidence (``0``
        disables exploration entirely).  Restricted+numerate cells are
        always outside explorer scope regardless of size.
    campaign_max_n:
        The campaign cost envelope: largest ``n`` for which cells run
        empirical workload batteries.  ``None`` (the default) places no
        envelope.  Cells beyond it still appear in the atlas -- closed
        form everywhere -- but carry an explicit ``budget-skipped``
        evidence note and fuse to ``consistent`` instead of silently
        vanishing, which is what lets lattices reach ``n`` in the tens
        without the sweep cost exploding.
    """

    n_min: int = 3
    n_max: int = 6
    t_values: tuple[int, ...] = (1,)
    models: tuple[tuple[Synchrony, bool, bool], ...] = field(
        default_factory=lambda: tuple(model_space())
    )
    explore_max_n: int = 3
    campaign_max_n: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigurationError(
                f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}"
            )
        if not self.t_values or any(t < 0 for t in self.t_values):
            raise ConfigurationError(
                f"t_values must be non-empty and non-negative, "
                f"got {self.t_values}"
            )
        if not self.models:
            raise ConfigurationError("lattice needs at least one model")
        if self.campaign_max_n is not None and self.campaign_max_n < 1:
            raise ConfigurationError(
                f"campaign_max_n must be >= 1 (or None for no envelope), "
                f"got {self.campaign_max_n}"
            )

    def in_explorer_scope(self, params: SystemParams) -> bool:
        """Whether a cell's evidence plan includes the explorer.

        Args:
            params: The cell's parameters.

        Returns:
            True for small-scope cells outside the restricted+numerate
            family (whose deep horizons defeat exhaustive search).
        """
        if params.restricted and params.numerate:
            return False
        return params.n <= self.explore_max_n

    def in_campaign_budget(self, params: SystemParams) -> bool:
        """Whether a cell's evidence plan includes empirical workloads.

        Args:
            params: The cell's parameters.

        Returns:
            True when no campaign cost envelope is set or the cell is
            inside it.  Cells outside the envelope are never silently
            skipped -- they carry an explicit ``budget-skipped``
            evidence note instead (see
            :func:`repro.atlas.evidence.budget_skipped_evidence`).
        """
        return self.campaign_max_n is None or params.n <= self.campaign_max_n

    def cells(self) -> list[AtlasCell]:
        """Enumerate the lattice in its canonical, resume-stable order.

        The order is ``t``, then ``n``, then ``ell``, then the model in
        :func:`~repro.core.params.model_space` order -- the order the
        streaming log's rows appear in and the resume check validates
        against.

        Returns:
            The ordered cell list.
        """
        out: list[AtlasCell] = []
        for t in self.t_values:
            for n in range(self.n_min, self.n_max + 1):
                for ell in range(1, n + 1):
                    for synchrony, numerate, restricted in self.models:
                        params = SystemParams(
                            n=n, ell=ell, t=t, synchrony=synchrony,
                            numerate=numerate, restricted=restricted,
                        )
                        with_campaign = self.in_campaign_budget(params)
                        out.append(AtlasCell(
                            label=_cell_label(params),
                            params=params,
                            with_explorer=(
                                with_campaign
                                and self.in_explorer_scope(params)
                            ),
                            with_campaign=with_campaign,
                        ))
        return out

    def describe(self) -> str:
        """One-line human-readable description of the sweep."""
        t_part = ",".join(str(t) for t in self.t_values)
        budget = (
            "" if self.campaign_max_n is None
            else f", campaign budget n<={self.campaign_max_n}"
        )
        return (
            f"n={self.n_min}..{self.n_max}, t={{{t_part}}}, ell=1..n, "
            f"{len(self.models)} models, explorer scope n<={self.explore_max_n}"
            f"{budget}"
        )


def quick_lattice() -> LatticeSpec:
    """The ``--quick`` lattice: small enough for CI, wide enough for
    every Table 1 condition to appear on both sides of its boundary."""
    return LatticeSpec(n_min=3, n_max=5, t_values=(1,), explore_max_n=3)


def default_lattice(n_max: int = 6, t_values: tuple[int, ...] = (1,),
                    explore_max_n: int = 4,
                    campaign_max_n: int | None = None) -> LatticeSpec:
    """The default CLI lattice (override the bounds via CLI flags).

    Args:
        n_max: Largest process count swept.
        t_values: Fault budgets swept.
        explore_max_n: Explorer scope bound.
        campaign_max_n: Campaign cost envelope (None for no envelope).

    Returns:
        The lattice specification.
    """
    return LatticeSpec(
        n_min=3, n_max=n_max, t_values=t_values, explore_max_n=explore_max_n,
        campaign_max_n=campaign_max_n,
    )
