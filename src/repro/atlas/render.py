"""Render the atlas: machine-derived Table 1 and boundary maps.

The renderer is a stream fold: it consumes the JSONL row stream once,
accumulating only fixed-size aggregates -- per-family tallies for the
Table 1 view, per-``(n, t)`` glyph maps for the boundary view, and
evidence-source counters for the provenance summary -- so rendering
scales to lattices far larger than memory would allow if rows were
retained.  The renderer never parses the log itself: rows arrive
through :class:`~repro.atlas.stream.AtlasLog` -- ``rows()``, or
``fold()`` from a render cursor's byte offset -- which owns the line
format and the torn-tail rule.

Outputs:

* :func:`render_markdown` -- the paper's Table 1 with each condition
  cell annotated by the atlas verdict tally behind it, followed by
  per-``(n, t)`` boundary maps and a provenance summary;
* :func:`render_json` -- the same aggregates as a JSON document (the
  full per-cell provenance stays in the JSONL log, which the document
  references).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis.tables import condition_strings
from repro.atlas.evidence import (
    CONFLICT,
    CONSISTENT,
    PROVED_SOLVABLE,
    WITNESSED_UNSOLVABLE,
)
from repro.atlas.stream import AtlasLog

#: One glyph per verdict, used by the boundary maps.
GLYPHS = {
    PROVED_SOLVABLE: "S",
    CONSISTENT: "c",
    WITNESSED_UNSOLVABLE: "u",
    CONFLICT: "!",
}

#: Table 1's four condition cells as (synchrony, numeracy) pairs.
_FAMILIES = [
    ("sync", False), ("sync", True), ("psync", False), ("psync", True),
]


def _family_key(cell: Mapping) -> tuple[str, bool]:
    return (cell["synchrony"], bool(cell["numerate"]))


def _model_label(cell: Mapping) -> str:
    num = "num" if cell["numerate"] else "innum"
    res = "res" if cell["restricted"] else "unres"
    return f"{cell['synchrony']:<5} {num:<5} {res}"


class AtlasAggregates:
    """The fixed-size fold state accumulated over one row stream."""

    def __init__(self) -> None:
        self.cells = 0
        self.verdicts: Counter = Counter()
        #: (synchrony, numerate) -> verdict tally.
        self.families: dict[tuple[str, bool], Counter] = {}
        #: (n, t) -> model label -> ell -> glyph.
        self.maps: dict[tuple[int, int], dict[str, dict[int, str]]] = {}
        #: evidence kind -> item count.
        self.evidence_kinds: Counter = Counter()
        self.symbolic_only: list[str] = []
        self.conflicts: list[dict] = []

    def fold(self, row: Mapping) -> None:
        """Accumulate one row."""
        cell = row["cell"]
        verdict = row["verdict"]
        self.cells += 1
        self.verdicts[verdict] += 1
        family = self.families.setdefault(_family_key(cell), Counter())
        family[verdict] += 1
        nt_map = self.maps.setdefault((cell["n"], cell["t"]), {})
        nt_map.setdefault(_model_label(cell), {})[cell["ell"]] = (
            GLYPHS.get(verdict, "?")
        )
        non_symbolic = 0
        for item in row.get("evidence", ()):
            self.evidence_kinds[item.get("kind", "?")] += 1
            if item.get("kind") != "closed-form":
                non_symbolic += 1
        if not non_symbolic:
            self.symbolic_only.append(row["label"])
        if verdict == CONFLICT:
            self.conflicts.append({
                "label": row["label"],
                "evidence": row.get("evidence", ()),
            })

    @property
    def ok(self) -> bool:
        """No conflicts and every cell carries non-symbolic evidence."""
        return not self.conflicts and not self.symbolic_only

    def to_dict(self) -> dict:
        """Serialise the fold state (the render cursor's payload).

        Returns:
            A JSON-compatible dict :meth:`from_dict` round-trips
            exactly, so an incremental re-render resumes the fold from
            persisted state instead of re-reading old rows.
        """
        return {
            "cells": self.cells,
            "verdicts": dict(self.verdicts),
            "families": [
                [synchrony, numerate, dict(tally)]
                for (synchrony, numerate), tally in sorted(
                    self.families.items()
                )
            ],
            "maps": [
                [n, t, {
                    label: {str(ell): glyph
                            for ell, glyph in sorted(per_ell.items())}
                    for label, per_ell in sorted(per_model.items())
                }]
                for (n, t), per_model in sorted(self.maps.items())
            ],
            "evidence_kinds": dict(self.evidence_kinds),
            "symbolic_only": list(self.symbolic_only),
            "conflicts": list(self.conflicts),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AtlasAggregates":
        """Rebuild fold state from :meth:`to_dict` output.

        Args:
            data: The serialised fold state.

        Returns:
            The reconstructed aggregates, ready for further
            :meth:`fold` calls.
        """
        state = cls()
        state.cells = data["cells"]
        state.verdicts = Counter(data["verdicts"])
        state.families = {
            (synchrony, bool(numerate)): Counter(tally)
            for synchrony, numerate, tally in data["families"]
        }
        state.maps = {
            (n, t): {
                label: {int(ell): glyph for ell, glyph in per_ell.items()}
                for label, per_ell in per_model.items()
            }
            for n, t, per_model in data["maps"]
        }
        state.evidence_kinds = Counter(data["evidence_kinds"])
        state.symbolic_only = list(data["symbolic_only"])
        state.conflicts = list(data["conflicts"])
        return state


def aggregate(rows: Iterable[Mapping]) -> AtlasAggregates:
    """Fold a row stream into the render aggregates.

    Args:
        rows: Atlas rows, e.g. ``AtlasLog(path).rows()``.

    Returns:
        The populated fold state.
    """
    state = AtlasAggregates()
    for row in rows:
        state.fold(row)
    return state


#: Render-cursor sidecar schema tag; bump when the cursor shape (or the
#: aggregate payload it embeds) changes so stale cursors refold.
CURSOR_SCHEMA = "atlas-render-cursor/1"


def _prefix_sha256(path: Path, length: int) -> str:
    """Content hash of the log's first ``length`` bytes."""
    digest = hashlib.sha256()
    remaining = length
    with path.open("rb") as fh:
        while remaining > 0:
            chunk = fh.read(min(1 << 20, remaining))
            if not chunk:
                break
            digest.update(chunk)
            remaining -= len(chunk)
    return digest.hexdigest()


def aggregate_incremental(
    log_path: str | os.PathLike,
    cursor_path: str | os.PathLike,
) -> tuple[AtlasAggregates, int, bool]:
    """Fold a log into aggregates, reusing a persisted render cursor.

    The cursor sidecar records how many bytes and rows a previous
    render folded, the SHA-256 of that byte prefix, and the serialised
    :class:`AtlasAggregates`.  When the log still starts with the same
    bytes, only rows appended since are folded -- O(new rows) -- and
    the cursor is advanced; any mismatch (rewritten log, truncated
    resume, schema bump) falls back to a full refold.  The cursor is
    rewritten after every call, so renders chain.

    Args:
        log_path: The JSONL atlas log.
        cursor_path: The cursor sidecar (created if missing).

    Returns:
        ``(aggregates, new_rows, incremental)`` -- the full fold state,
        how many rows this call folded, and whether the cursor was
        reused (``False`` means full refold).

    Raises:
        AtlasLogCorrupt: Mid-file corruption in the log.
    """
    log = Path(log_path)
    cursor_file = Path(cursor_path)
    cursor = None
    try:
        data = json.loads(cursor_file.read_text())
        if (
            isinstance(data, dict)
            and data.get("schema") == CURSOR_SCHEMA
            and isinstance(data.get("bytes"), int)
            and data["bytes"] >= 0
        ):
            cursor = data
    except (OSError, ValueError):
        cursor = None

    incremental = False
    agg = AtlasAggregates()
    start_bytes = 0
    size = log.stat().st_size if log.exists() else 0
    if (
        cursor is not None
        and cursor["bytes"] <= size
        and _prefix_sha256(log, cursor["bytes"]) == cursor["prefix_sha256"]
    ):
        try:
            agg = AtlasAggregates.from_dict(cursor["aggregates"])
            start_bytes = cursor["bytes"]
            incremental = True
        except (KeyError, TypeError, ValueError):
            agg = AtlasAggregates()
            start_bytes = 0
            incremental = False

    folded, end_bytes = AtlasLog(log).fold(agg.fold, start_bytes)
    cursor_file.parent.mkdir(parents=True, exist_ok=True)
    cursor_file.write_text(json.dumps({
        "schema": CURSOR_SCHEMA,
        "bytes": end_bytes,
        "rows": agg.cells,
        "prefix_sha256": _prefix_sha256(log, end_bytes) if log.exists()
        else hashlib.sha256().hexdigest(),
        "aggregates": agg.to_dict(),
    }, sort_keys=True))
    return agg, folded, incremental


def _family_cell(agg: AtlasAggregates, synchrony: str, numerate: bool) -> str:
    tally = agg.families.get((synchrony, numerate), Counter())
    if not tally:
        return "no cells"
    parts = [
        f"{tally[v]} {v}"
        for v in (PROVED_SOLVABLE, WITNESSED_UNSOLVABLE, CONSISTENT, CONFLICT)
        if tally[v]
    ]
    return ", ".join(parts)


def render_markdown(agg: AtlasAggregates, lattice_desc: str,
                    log_name: str) -> str:
    """Render the atlas aggregates as a Markdown document.

    Args:
        agg: The fold state from :func:`aggregate`.
        lattice_desc: The lattice description line.
        log_name: Name of the JSONL log holding per-cell provenance.

    Returns:
        The Markdown text.
    """
    conditions = condition_strings()
    lines = [
        "# Solvability atlas",
        "",
        f"- lattice: {lattice_desc}",
        f"- cells: {agg.cells}",
        "- verdicts: " + (", ".join(
            f"{agg.verdicts[v]} {v}" for v in sorted(agg.verdicts)
        ) or "none"),
        f"- per-cell provenance: `{log_name}` (one JSON row per cell)",
        "",
        "## Table 1, machine-derived",
        "",
        "Each condition is the paper's; the tally under it counts the "
        "atlas cells of that model family and how their fused evidence "
        "came out.",
        "",
        "| | Synchronous | Partially synchronous |",
        "|---|---|---|",
    ]
    for numerate, row_name in ((False, "Innumerate"), (True, "Numerate")):
        cells = []
        for synchrony in ("sync", "psync"):
            key = (
                "synchronous" if synchrony == "sync"
                else "partially_synchronous"
            )
            condition = conditions[(key, "numerate" if numerate else
                                    "innumerate")]
            cells.append(
                f"`{condition}`<br>{_family_cell(agg, synchrony, numerate)}"
            )
        lines.append(f"| {row_name} processes | {cells[0]} | {cells[1]} |")
    lines += [
        "",
        "In all cases, n must be greater than 3t.",
        "",
        "## Boundary maps",
        "",
        "`S` proved-solvable, `u` witnessed-unsolvable, `c` consistent, "
        "`!` CONFLICT; columns are `ell = 1..n`.",
        "",
    ]
    for (n, t) in sorted(agg.maps):
        lines.append(f"### n={n}, t={t}")
        lines.append("")
        lines.append("```")
        lines.append("ell:              "
                     + " ".join(f"{ell:2d}" for ell in range(1, n + 1)))
        per_model = agg.maps[(n, t)]
        for label in sorted(per_model):
            # Same geometry as the header: 2-char cells, 1-space joins,
            # so each glyph sits under its ell column.
            marks = " ".join(
                f"{per_model[label].get(ell, '?'):>2}"
                for ell in range(1, n + 1)
            )
            lines.append(f"{label:<18}{marks}")
        lines.append("```")
        lines.append("")
    lines += [
        "## Provenance",
        "",
        "- evidence items: " + (", ".join(
            f"{agg.evidence_kinds[k]} {k}"
            for k in sorted(agg.evidence_kinds)
        ) or "none"),
    ]
    if agg.symbolic_only:
        lines.append(
            f"- **{len(agg.symbolic_only)} cells carry symbolic evidence "
            f"only**: " + ", ".join(agg.symbolic_only)
        )
    else:
        lines.append(
            "- every cell carries at least one non-symbolic evidence "
            "source (campaign verdict or explorer certificate)"
        )
    if agg.conflicts:
        lines += ["", "## CONFLICTS", ""]
        for conflict in agg.conflicts:
            lines.append(f"- **{conflict['label']}**")
    else:
        lines.append("- zero CONFLICT cells")
    return "\n".join(lines)


def render_json(agg: AtlasAggregates, lattice_desc: str,
                log_name: str, indent: int = 2) -> str:
    """Render the atlas aggregates as a JSON document.

    Args:
        agg: The fold state from :func:`aggregate`.
        lattice_desc: The lattice description line.
        log_name: Name of the JSONL log holding per-cell provenance.
        indent: JSON indentation.

    Returns:
        The JSON text.
    """
    conditions = condition_strings()
    data = {
        "lattice": lattice_desc,
        "cells": agg.cells,
        "provenance_log": log_name,
        "verdicts": dict(sorted(agg.verdicts.items())),
        "table1": [
            {
                "synchrony": synchrony,
                "numerate": numerate,
                "condition": conditions[(
                    "synchronous" if synchrony == "sync"
                    else "partially_synchronous",
                    "numerate" if numerate else "innumerate",
                )],
                "tally": dict(sorted(
                    agg.families.get((synchrony, numerate), Counter()).items()
                )),
            }
            for synchrony, numerate in _FAMILIES
        ],
        "boundary_maps": [
            {
                "n": n,
                "t": t,
                "models": {
                    label: {
                        str(ell): glyph
                        for ell, glyph in sorted(per_ell.items())
                    }
                    for label, per_ell in sorted(agg.maps[(n, t)].items())
                },
            }
            for (n, t) in sorted(agg.maps)
        ],
        "evidence_items": dict(sorted(agg.evidence_kinds.items())),
        "symbolic_only_cells": list(agg.symbolic_only),
        "conflicts": agg.conflicts,
        "ok": agg.ok,
    }
    return json.dumps(data, indent=indent, sort_keys=True)
