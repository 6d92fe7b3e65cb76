"""Measured end-to-end and per-layer benchmark of the RTGS SLAM stack.

``python -m bench`` runs the workloads declared in ``BENCHMARK.json`` at the
repository root, each in a fresh subprocess with pinned inputs, and prints
every end-to-end metric by name with its unit.  ``--trace 1`` runs a separate
traced pass that reports the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def load_spec() -> dict:
    """The benchmark declaration: workloads, metrics, units, directions, bounds."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def metric_units(spec: dict, kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}
