"""Pipeline latency breakdowns (Fig. 3).

These helpers aggregate modelled GPU latencies over a SLAM run to reproduce
the paper's two profiling views: the share of total runtime spent in tracking
versus mapping (Fig. 3(a)) and the per-step breakdown of a single iteration
(Fig. 3(b)), which shows Step 3 Rendering and Step 4 Rendering BP dominating.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.hardware.gpu_model import EdgeGPUModel
from repro.slam.records import WorkloadSnapshot


def latency_breakdown(
    snapshots: list[WorkloadSnapshot],
    model: EdgeGPUModel | None = None,
) -> dict[str, float]:
    """Fraction of total modelled runtime spent in tracking / mapping (Fig. 3a)."""
    model = model or EdgeGPUModel("onx")
    totals = {"tracking": 0.0, "mapping": 0.0}
    for snapshot in snapshots:
        totals[snapshot.stage] += model.iteration_latency(snapshot).total
    grand = sum(totals.values())
    if grand <= 0:
        return {"tracking": 0.0, "mapping": 0.0, "other": 0.0}
    # "Other" covers the non-iteration work (I/O, keyframe management), which
    # the paper measures at well under 20% of the pipeline.
    other_fraction = 0.08
    scale = 1.0 - other_fraction
    return {
        "tracking": scale * totals["tracking"] / grand,
        "mapping": scale * totals["mapping"] / grand,
        "other": other_fraction,
    }


def stage_breakdown(
    snapshots: list[WorkloadSnapshot],
    model: EdgeGPUModel | None = None,
    stage: str | None = None,
) -> dict[str, float]:
    """Per-pipeline-step share of runtime (Fig. 3b), optionally for one stage."""
    model = model or EdgeGPUModel("onx")
    accumulator = None
    for snapshot in snapshots:
        if stage is not None and snapshot.stage != stage:
            continue
        latency = model.iteration_latency(snapshot)
        if accumulator is None:
            accumulator = latency
        else:
            accumulator = accumulator + latency
    if accumulator is None or accumulator.total <= 0:
        return {}
    shares = {name: value / accumulator.total for name, value in accumulator.as_dict().items()}
    return shares


def rendering_dominance(shares: dict[str, float]) -> float:
    """Combined share of Step 3 Rendering + Step 4 Rendering BP (Observation 2)."""
    return float(shares.get("rendering", 0.0) + shares.get("rendering_bp", 0.0))


def batch_amortization_report(
    snapshots: list[WorkloadSnapshot], model: EdgeGPUModel | None = None
) -> dict[str, float]:
    """Modelled effect of batching and geometry caching on mapping.

    Compares the mapping iterations as recorded (per-view snapshots carrying
    their window's ``batch_size`` and geometry-cache status, both of which
    the hardware model amortises) against the same workload re-priced as
    sequential, uncached single-view iterations.  ``speedup`` is the
    combined modelled amortisation; ``step12_amortization`` isolates the
    cache's share by re-pricing only the cache statuses.  The cache
    hit/refresh/miss counts make the Fig. 3-style latency
    breakdown attributable.  Which backend executed the work does not enter
    the model: sharded execution and its fault handling are recorded on
    ``ShardAttribution`` (``MappingResult.shardings``), not on snapshots.
    Wall-clock speedups of the software rasterizer are measured separately in
    ``benchmarks/test_batched_mapping.py`` and
    ``benchmarks/test_sharded_speedup.py``.
    """
    model = model or EdgeGPUModel("onx")
    mapping = [s for s in snapshots if s.stage == "mapping"]
    batched = 0.0
    sequential = 0.0
    cached_step12 = 0.0
    uncached_step12 = 0.0
    for snapshot in mapping:
        latency = model.iteration_latency(snapshot)
        batched += latency.total
        cached_step12 += latency.preprocessing + latency.sorting
        sequential += model.iteration_latency(
            replace(snapshot, batch_size=1, cache_status="uncached")
        ).total
        as_uncached = model.iteration_latency(replace(snapshot, cache_status="uncached"))
        uncached_step12 += as_uncached.preprocessing + as_uncached.sorting
    batch_sizes = [s.batch_size for s in mapping]
    statuses = [s.cache_status for s in mapping]
    report = {
        "batched_s": batched,
        "sequential_s": sequential,
        "speedup": sequential / batched if batched > 0 else 1.0,
        "mean_batch_size": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "n_mapping_iterations": float(len(mapping)),
        # -- geometry-cache accounting --------------------------------------
        "cache_hits": float(statuses.count("hit")),
        "cache_refreshes": float(statuses.count("refresh")),
        "cache_misses": float(statuses.count("miss")),
        "cache_uncached": float(statuses.count("uncached")),
        "step12_cached_s": cached_step12,
        "step12_uncached_s": uncached_step12,
        "step12_amortization": (
            uncached_step12 / cached_step12 if cached_step12 > 0 else 1.0
        ),
    }
    # -- async-pipeline accounting (zero on a serial run) ---------------------
    # One publication marker per background mapping job (its last snapshot):
    # count them, sum the mapping wall-clock that ran concurrently with
    # tracking, and express it as the fraction of background-mapping
    # wall-clock that tracking hid, so the overlap is visible next to the
    # amortisation numbers.
    publications = [s for s in mapping if s.async_published]
    overlap_seconds = float(sum(s.async_overlap_seconds for s in publications))
    mapping_seconds = float(sum(s.async_mapping_seconds for s in publications))
    report["async_publications"] = float(len(publications))
    report["async_overlap_s"] = overlap_seconds
    report["async_overlap_fraction"] = (
        overlap_seconds / mapping_seconds if mapping_seconds > 0 else 0.0
    )
    return report


def per_frame_latency_series(
    snapshots: list[WorkloadSnapshot], model: EdgeGPUModel | None = None
) -> np.ndarray:
    """Modelled per-frame latency in seconds, ordered by frame index."""
    model = model or EdgeGPUModel("onx")
    per_frame: dict[int, float] = {}
    for snapshot in snapshots:
        per_frame.setdefault(snapshot.frame_index, 0.0)
        per_frame[snapshot.frame_index] += model.iteration_latency(snapshot).total
    return np.array([per_frame[key] for key in sorted(per_frame)])
