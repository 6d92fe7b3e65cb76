"""Committed performance baselines and the CI perf-regression gate.

The fast paths this repository ships (the flat rasterizer backend, the
batched mapping scheduler) are pinned by committed *speedup ratios* under
``benchmarks/baselines/*.json``.  Ratios of two timings measured back-to-back
on the same machine are far more stable across hardware than absolute
wall-clock, which is what makes them gateable on shared CI runners.

A benchmark measures its ratio and calls :func:`check_speedup`; the measured
value is always printed, and the assertion fires when the gate is active and
the ratio regressed more than :data:`MAX_REGRESSION` (20%) below the
committed baseline.  The gate is active

* locally (a quiet developer machine — same policy as the existing
  ``STRICT_TIMING`` switch), and
* in the dedicated CI ``perf`` job, which sets ``REPRO_PERF_STRICT=1``;

on ordinary CI runners (``CI`` set, ``REPRO_PERF_STRICT`` unset) the check is
advisory so a scheduler hiccup in an unrelated job cannot fail the build.

After an intentional performance change, re-measure and update the baseline
JSON in the same commit.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

# A measured speedup may fall this far below its committed baseline before the
# gate fails the run.
MAX_REGRESSION = 0.20

# When set, every measured ratio is also written to
# ``$REPRO_PERF_OUTPUT_DIR/<name>.json`` (same shape as the baseline files,
# plus a ``<key>:baseline`` entry for context).  The CI perf job points this
# at its artifact directory so the bench trajectory accumulates run over run
# and the job log can print a measured-vs-baseline summary table.
OUTPUT_ENV = "REPRO_PERF_OUTPUT_DIR"


def perf_gate_active() -> bool:
    """True when a failed baseline check must fail the test run."""
    if os.environ.get("REPRO_PERF_STRICT"):
        return True
    return not os.environ.get("CI")


# Every gate skipped this session, as (name, key, reason): the conftest prints
# them in the terminal summary so a skipped gate is always visible in the job
# log, never a silent pass.
SKIPPED_GATES: list[tuple[str, str, str]] = []


def skip_gate(name: str, key: str, reason: str) -> None:
    """Skip a perf gate with a logged, machine-readable reason.

    Prints the ``[perf:skip]`` line (the convention CI log scrapers and the
    terminal-summary hook key on), records it in :data:`SKIPPED_GATES`, and
    raises ``pytest.skip`` so the test reports as skipped — a gate that cannot
    measure must never silently pass.
    """
    SKIPPED_GATES.append((name, key, reason))
    print(f"[perf:skip] {name}.{key}: {reason}")
    import pytest

    pytest.skip(f"{name}.{key}: {reason}")


def load_baselines(name: str) -> dict[str, float]:
    path = BASELINE_DIR / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(
            f"no committed perf baseline {path}; add it with the benchmark "
            "that measures it"
        )
    with open(path) as handle:
        return json.load(handle)


def record_measurement(name: str, key: str, measured: float, baseline: float) -> None:
    """Persist one measured ratio to the perf output directory, if configured."""
    output_dir = os.environ.get(OUTPUT_ENV)
    if not output_dir:
        return
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    data: dict[str, float] = {}
    if path.exists():
        with open(path) as handle:
            data = json.load(handle)
    data[key] = measured
    data[f"{key}:baseline"] = baseline
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_speedup(name: str, key: str, measured: float, minimum: float | None = None) -> None:
    """Gate ``measured`` (a speedup ratio) against the committed baseline.

    ``minimum`` optionally enforces an absolute floor on top of the relative
    regression check (e.g. "the batched path must stay >= 1.5x" regardless of
    what the baseline file says).

    A missing baseline file or key skips the gate with a logged
    ``[perf:skip]`` reason (via :func:`skip_gate`) instead of erroring or
    silently passing: freshly added benchmarks whose baseline has not been
    committed yet stay visible in the job log until the baseline lands.
    """
    try:
        baselines = load_baselines(name)
    except FileNotFoundError:
        skip_gate(
            name,
            key,
            f"missing-baseline:benchmarks/baselines/{name}.json is not committed; "
            "add it with the benchmark that measures it",
        )
        return
    if key not in baselines:
        skip_gate(
            name,
            key,
            f"missing-baseline-key:benchmarks/baselines/{name}.json has no entry "
            f"{key!r}; add it with the benchmark that measures it",
        )
        return
    baseline = baselines[key]
    record_measurement(name, key, measured, baseline)
    floor = baseline * (1.0 - MAX_REGRESSION)
    if minimum is not None:
        floor = max(floor, minimum)
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(
        f"[perf:{verdict}] {name}.{key}: measured {measured:.2f}x, "
        f"baseline {baseline:.2f}x, floor {floor:.2f}x"
    )
    if perf_gate_active():
        assert measured >= floor, (
            f"performance regression on {name}.{key}: measured {measured:.2f}x "
            f"but the gate floor is {floor:.2f}x (committed baseline "
            f"{baseline:.2f}x, max regression {MAX_REGRESSION:.0%}"
            + (f", absolute minimum {minimum:.2f}x" if minimum is not None else "")
            + "); if the slowdown is intentional, update "
            f"benchmarks/baselines/{name}.json in the same change"
        )


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall-clock of ``fn()`` (the standard timing loop here)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_of_interleaved(*sides, repeats: int = 3) -> tuple[float, ...]:
    """Best-of-N wall-clock of several functions, sampled alternately.

    Each round times one call of each side, and the side that goes first
    rotates every round (two sides alternate which one goes first).  A slow
    spell of the host (a noisy neighbour, a frequency change) then costs
    every side alike, where timing all of one side before the next lets it
    land on one side only and skew the ratio.  The cyclic garbage collector
    is off while timing, as in :mod:`timeit`: a collection of the test
    process's whole heap lands on whichever side happens to cross the
    allocation threshold.  Returns each side's best time, in argument order.
    """
    count = len(sides)
    best = [float("inf")] * count
    gc.collect()
    gc.disable()
    try:
        for round_index in range(repeats):
            for offset in range(count):
                side = (round_index + offset) % count
                start = time.perf_counter()
                sides[side]()
                best[side] = min(best[side], time.perf_counter() - start)
    finally:
        gc.enable()
    return tuple(best)
