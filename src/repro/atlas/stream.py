"""Streaming result logs: append-only JSONL, resumable, bounded.

Every result log -- the atlas log, its shard logs and the soak farm's
log -- is written and read by :class:`AtlasLog`, the one owner of the
line format.  Results never accumulate in memory: every row becomes one
line of canonical JSON (:func:`repro.core.canonical.canonical_json`, so
the bytes are independent of dict insertion order and hash seeds)
appended to the log and immediately forgotten.  Reading is a generator;
the renderer folds the stream into fixed-size aggregates.

Torn-tail rule: writers only ever append, so a crash can damage only
the *final* line (torn mid-write, or garbled up to a flushed newline).
Every reader goes through one byte-level line scanner that applies the
rule: a bad final line ends the stream silently, while a bad line
followed by a well-formed row cannot come from a torn append and raises
:class:`~repro.core.errors.AtlasLogCorrupt`.

Resume contract: rows are written in lattice enumeration order and
each row carries its cell's campaign ``unit_id`` (a content hash of the
full cell spec).  :meth:`AtlasLog.resume_prefix` walks the existing
file against the expected id sequence and truncates it to the longest
valid prefix -- a torn final line (a previous run died mid-append) or
an id mismatch (the lattice or schema changed) cuts the prefix there,
while mid-file corruption raises like every other reader.  Because
every row is deterministic, a resumed run's final log is byte-for-byte
identical to a fresh one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.canonical import canonical_json
from repro.core.errors import AtlasLogCorrupt


def _parse(raw: bytes) -> dict | None:
    """Parse one raw line; ``None`` for a torn, corrupt or non-dict line."""
    if not raw.endswith(b"\n"):
        return None  # torn final line from an interrupted append
    try:
        row = json.loads(raw)
    except ValueError:  # UnicodeDecodeError included
        return None
    return row if isinstance(row, dict) else None


class AtlasLog:
    """One append-only JSONL result log on disk."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def reset(self) -> None:
        """Start a fresh log (truncate or create the file)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")

    def append(self, row: dict) -> None:
        """Append one row as a line of canonical JSON and flush it.

        Args:
            row: The JSON-compatible row (must contain ``unit_id``).
        """
        self._write((row,))

    def append_many(self, rows: Sequence[dict]) -> None:
        """Append a batch of rows with a single flush+fsync.

        The soak farm appends thousands of rows per window; one fsync
        per row (:meth:`append`) would dominate its wall clock.  A crash
        mid-batch can still only tear the *final* line -- the writes go
        through one buffered handle in order -- which is exactly the
        wear :meth:`resume_prefix` repairs.

        Args:
            rows: JSON-compatible rows (each must contain ``unit_id``).
        """
        if rows:
            self._write(rows)

    def _write(self, rows: Sequence[dict]) -> None:
        """Append rows through one buffered handle, then flush+fsync."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            for row in rows:
                fh.write(canonical_json(row) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _scan(self, start: int = 0) -> Iterator[tuple[dict | None, int]]:
        """The line scanner every reader goes through.

        Yields ``(row, end)`` per line from byte offset ``start``: the
        parsed row (``None`` for a torn or corrupt line) and the offset
        just past the line.  Nothing is yielded after the first bad
        line; a reader that keeps iterating past it has the torn-tail
        rule enforced on the rest of the file.

        Raises:
            AtlasLogCorrupt: A bad line has a well-formed row after it
                (mid-file corruption, not a torn append).
        """
        if not self.path.exists():
            return
        end = start
        bad_line = None
        with self.path.open("rb") as fh:
            fh.seek(start)
            for lineno, raw in enumerate(fh, start=1):
                end += len(raw)
                row = _parse(raw)
                if bad_line is None:
                    if row is None:
                        bad_line = lineno
                    yield row, end
                elif row is not None:
                    origin = f" after byte {start}" if start else ""
                    raise AtlasLogCorrupt(
                        f"{self.path}: corrupt line {bad_line}{origin} "
                        f"is followed by a well-formed row at line "
                        f"{lineno}; a torn append can only damage the "
                        "final line, so this file was corrupted mid-stream"
                    )

    def rows(self, limit: int | None = None) -> Iterator[dict]:
        """Stream the log's rows without holding them in memory.

        A torn or corrupt *final* line (a previous writer died
        mid-append) ends iteration silently -- that is normal wear,
        repaired by :meth:`resume_prefix`.  A bad line *followed by*
        well-formed rows cannot come from a torn append and raises
        :class:`~repro.core.errors.AtlasLogCorrupt` instead of silently
        dropping the valid tail.

        Args:
            limit: Stop after this many rows (``None`` streams all).

        Yields:
            One parsed row dict per complete, well-formed line.

        Raises:
            AtlasLogCorrupt: A corrupt line has well-formed rows after
                it (mid-file corruption, not a torn append).
        """
        count = 0
        for row, _ in self._scan():
            if limit is not None and count >= limit:
                return
            if row is not None:
                yield row
                count += 1

    def fold(self, fn: Callable[[dict], None],
             start: int = 0) -> tuple[int, int]:
        """Feed every row from a byte offset onward to ``fn``.

        The same torn-tail rule as :meth:`rows` applies; the returned
        offset lets an incremental reader resume after the last row.

        Args:
            fn: Called once per well-formed row, in log order.
            start: Offset of the first row to read (a line boundary).

        Returns:
            ``(rows_folded, end)`` where ``end`` is the offset just
            past the last well-formed row (``start`` if there is none).

        Raises:
            AtlasLogCorrupt: Mid-file corruption at or after ``start``.
        """
        folded, end_bytes = 0, start
        for row, end in self._scan(start):
            if row is not None:
                fn(row)
                folded += 1
                end_bytes = end
        return folded, end_bytes

    def resume_prefix(self, expected_unit_ids: Iterable[str]) -> int:
        """Validate and keep the longest usable prefix of the log.

        Walks existing rows against the expected per-cell unit-id
        sequence; a torn or corrupt final line, or an id mismatch, ends
        the prefix.  The file is physically truncated to the surviving
        rows, so subsequent :meth:`append` calls continue the stream
        seamlessly.  A bad line with well-formed rows after it is not
        wear but mid-file corruption: truncating there would silently
        re-execute fsynced rows, so it raises instead and the file is
        left as it was.

        Args:
            expected_unit_ids: Cell unit ids in lattice enumeration
                order (the id hashes the full cell spec, so a changed
                lattice, seed, or schema invalidates the tail).  May be
                unbounded; it is read only as far as the log reaches.

        Returns:
            The number of rows kept; the next cell to execute is
            ``expected_unit_ids[kept]``.

        Raises:
            AtlasLogCorrupt: A bad line inside the walked prefix has a
                well-formed row after it.
        """
        if not self.path.exists():
            self.reset()
            return 0
        kept = keep_bytes = 0
        scan = self._scan()
        for expected, (row, end) in zip(expected_unit_ids, scan):
            if row is None:
                for _ in scan:  # raises if a well-formed row follows
                    pass
                break
            if row.get("unit_id") != expected:
                break
            kept += 1
            keep_bytes = end
        if keep_bytes < self.path.stat().st_size:
            with self.path.open("rb+") as fh:
                fh.truncate(keep_bytes)
        return kept
