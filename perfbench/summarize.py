"""Aggregate benchmark results files into per-workload medians.

Usage::

    python3 perfbench/summarize.py [RESULTS_DIR]

For every workload and trace mode, prints each metric's median and
quartiles over runs, the spread ``(q3 - q1) / median``, and the
workload-named metrics of the results files (``instances_per_s``,
``warm_cells_per_s``, ``failed_fraction``...).  Runs whose environment
(CPUs, Python, numpy, fabric path, pool workers, commit) differs from
the group's most common one are listed with the difference next to
their numbers.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

from run import quartiles

ENV_KEYS = ("cpus", "python", "numpy", "fabric_path", "pool_workers",
            "commit")


def env_of(record) -> tuple:
    return tuple((key, record["env"].get(key)) for key in ENV_KEYS)


def summarize(records) -> list[str]:
    groups = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    lines = []
    for (workload, trace), group in sorted(groups.items()):
        usual = Counter(env_of(r) for r in group).most_common(1)[0][0]
        lines.append(f"## {workload} (trace {trace}, {len(group)} runs; "
                     f"env {dict(usual)})")
        series = defaultdict(list)
        for record in group:
            for name, metric in record["metrics"].items():
                series[(name, metric["unit"])].append(metric["value"])
            for name, stats in record.get("named", {}).items():
                value = stats["median"] if isinstance(stats, dict) else stats
                series[(name, "named")].append(value)
        for (name, unit), values in sorted(series.items()):
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            lines.append(f"  {name:40} {median:14.6g} {unit:6} "
                         f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
        failed = sum(r["failed"] for r in group)
        attempted = sum(r["attempted"] for r in group)
        verdict = "" if all(r["correct"] for r in group) else \
            "  (INCORRECT RUNS)"
        lines.append(f"  {'failed / attempted':40} {failed} / {attempted}"
                     f"{verdict}")
        for record in group:
            diff = {k: v for k, v in env_of(record) if (k, v) not in usual}
            if diff:
                values = {name: round(m["value"], 4)
                          for name, m in record["metrics"].items()}
                lines.append(f"  seed {record['seed']}: env differs {diff}: "
                             f"{values}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parent / "results"
    records = [json.loads(p.read_text()) for p in sorted(root.glob("*.json"))]
    if not records:
        print(f"no results in {root}", file=sys.stderr)
        return 1
    print("\n".join(summarize(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
