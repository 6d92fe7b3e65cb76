"""``python -m bench compare BASE.json NEW.json``: verdict per (metric, workload).

Each file holds the records ``python -m bench --out FILE`` appended, one per
workload run.  For every end-to-end metric of every workload in both files
the medians are compared against the metric's bound and direction from
``BENCHMARK.json``:

* ``regressed`` / ``improved`` — the new median is worse / better than the
  base median by more than the bound;
* ``agree`` — within the bound;
* ``unresolved`` — either side's run-to-run spread is wider than the bound,
  unless every new run reads better (``improved``) or worse (``regressed``)
  than every base run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load_runs(path: str) -> dict[str, list[dict]]:
    """``{workload: [metrics of each timed run]}`` from an ``--out`` file."""
    with open(path) as handle:
        records = json.load(handle)
    runs: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        if not record["trace"]:
            runs[record["workload"]].append(record["result"]["metrics"])
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range (full range below four runs) as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative worsening of the new median) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(new) - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "improved", worse
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "agree", worse


def compare(spec: dict, base: dict[str, list[dict]], new: dict[str, list[dict]]) -> list:
    """Rows ``(workload, [(metric, verdict, worsening)])`` for workloads in both."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if not base.get(workload) or not new.get(workload):
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells.append(
                (
                    name,
                    *verdict(
                        [run[name]["value"] for run in base[workload]],
                        [run[name]["value"] for run in new[workload]],
                        metric["better"],
                        metric["bound"],
                    ),
                )
            )
        rows.append((workload, cells))
    return rows


def format_rows(rows: list) -> str:
    lines = []
    for workload, cells in rows:
        text = "  ".join(f"{name}={word}({worse:+.1%})" for name, word, worse in cells)
        lines.append(f"{workload:<14} {text}")
    return "\n".join(lines)
