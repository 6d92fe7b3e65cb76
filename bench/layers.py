"""Per-layer metrics: which public methods are wrapped, and what each number moves.

Times and counts are per item — per frame on the SLAM workloads, per job on
``service_read`` — so they read the same whatever the run length.  Ratios are
ratios of run totals.  Spans come from :class:`bench.tracer.Tracer`; work
counts and cache, async and service accounting come from the program's own
outputs (``SLAMResult``, ``CacheStats``, ``SessionStats``), gathered by the
workloads into ``Measurement.totals``.
"""

from __future__ import annotations

from bench.tracer import Target, Tracer

SLAM = ("mono_rtgs", "photo_mapping", "mono_async")
ALL = SLAM + ("service_read",)


def _views(result) -> dict:
    return {"views": result.n_views}


def _fraction(result) -> dict:
    return {"fraction": float(result)}


def _sharding(result) -> dict:
    sharding = result.sharding
    if sharding is None:  # degraded to the serial path: nothing was dispatched
        return {}
    return {
        "dispatch_s": sharding.dispatch_seconds,
        "stitch_s": sharding.stitch_seconds,
        "worker_s": float(sum(sharding.worker_seconds.values())),
        "fault_events": len(sharding.fault_events),
        "retries": sharding.fault_retries,
    }


_ENGINE = "repro.engine.engine"
_PRUNER = ("repro.core.pruning", "AdaptiveGaussianPruner")
_PRUNER_METHODS = ("begin_frame", "after_backward", "end_frame")
_CACHE = ("repro.gaussians.geom_cache", "GeometryCache")
_BACKENDS = (
    ("repro.engine.backends", "FlatBackend", "flat"),
    ("repro.engine.sharded", "ShardedBackend", "sharded"),
    ("repro.engine.async_backend", "AsyncBackend", "async"),
)

TARGETS: list[Target] = [
    Target("repro.slam.pipeline", "SLAMPipeline", "run", "slam.pipeline"),
    Target("repro.slam.tracking", "GradientTracker", "track", "slam.tracking"),
    Target("repro.slam.tracking", "GeometricTracker", "track", "slam.tracking"),
    Target("repro.slam.mapping", "StreamingMapper", "map", "slam.mapping"),
    Target("repro.slam.optimizer", "Adam", "step", "slam.optimizer"),
    *(Target(*_PRUNER, method, f"core.pruning.{method}") for method in _PRUNER_METHODS),
    Target(
        "repro.core.downsampling",
        "DynamicDownsampler",
        "resolution_fraction",
        "core.downsampling",
        observe=_fraction,
    ),
    Target(_ENGINE, "RenderEngine", "render", "engine.render"),
    Target(_ENGINE, "RenderEngine", "backward", "engine.backward"),
    Target(_ENGINE, "RenderEngine", "render_batch", "engine.render_batch", observe=_views),
    Target(_ENGINE, "RenderEngine", "backward_batch", "engine.backward_batch"),
    Target(_ENGINE, "RenderEngine", "speculate_batch", "engine.speculate_batch"),
    Target(_ENGINE, "RenderEngine", "drain", "engine.drain"),
    Target(_ENGINE, "RenderEngine", "invalidate_cache", "engine.invalidate_cache"),
    *(
        target
        for module, owner, backend in _BACKENDS
        for target in (
            Target(module, owner, "plan_batch", "gaussians.plan"),
            Target(module, owner, "execute_units", "gaussians.execute"),
            Target(
                module,
                owner,
                "render_batch",
                f"backend.{backend}.render_batch",
                observe=_sharding if backend == "sharded" else None,
            ),
            Target(module, owner, "backward_batch", f"backend.{backend}.backward_batch"),
        )
    ),
    *(
        Target(*_CACHE, method, f"gaussians.geom_cache.{method}")
        for method in ("plan_view", "build_view", "render_view", "render_single")
    ),
    Target("repro.service.service", "RenderService", "run_round", "service.round"),
]

# Per-layer metric -> the (end-to-end metric, workloads) pairs it should move.
# Written down before measuring, as the benchmark's prediction.
_TRACKING = [("latency_p50_ms", ("mono_rtgs",))]
_MAPPING = [("throughput_per_s", ("photo_mapping",)), ("latency_tail20_ms", ("mono_rtgs",))]
_CACHE_MOVES = [("throughput_per_s", ("photo_mapping", "service_read"))]
_CONCURRENCY = [
    ("throughput_per_s", ("mono_async", "service_read")),
    ("latency_tail20_ms", ("mono_async",)),
]
_SERVICE = [("latency_tail20_ms", ("service_read",))]

MOVES: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    **{
        name: _TRACKING
        for name in (
            "slam.tracking.s",
            "slam.tracking.self_s",
            "slam.tracking.iterations",
            "core.pruning.s",
            "core.pruning.calls",
            "core.pruning.removed",
            "core.pruning.removed_ratio",
            "core.downsampling.s",
            "core.downsampling.mean_fraction",
            "engine.render.calls",
            "engine.render.s",
            "engine.backward.calls",
            "engine.backward.s",
            *(f"gaussians.step{step}.{kind}" for step in range(1, 6) for kind in ("s", "share")),
            *(f"hardware.modelled.step{step}.share" for step in range(1, 6)),
        )
    },
    **{
        name: _MAPPING
        for name in (
            "slam.mapping.s",
            "slam.mapping.self_s",
            "slam.mapping.iterations",
            "slam.optimizer.s",
            "engine.render_batch.calls",
            "engine.render_batch.s",
            "engine.backward_batch.calls",
            "engine.backward_batch.s",
            "engine.batch.views_mean",
            "engine.invalidate_cache.calls",
            "gaussians.plan.s",
            "gaussians.execute.s",
        )
    },
    **{
        name: _CACHE_MOVES
        for name in (
            "gaussians.geom_cache.lookups",
            "gaussians.geom_cache.hit_ratio",
            "gaussians.geom_cache.exact_hit_ratio",
            "gaussians.geom_cache.evictions",
            "gaussians.geom_cache.build.s",
        )
    },
    **{
        name: [("throughput_per_s", ALL)]
        for name in (
            "gaussians.visible",
            "gaussians.tile_pairs",
            "gaussians.fragments",
            "gaussians.fragments_per_s",
            "bench.trace_overhead",
        )
    },
    **{
        name: _CONCURRENCY
        for name in (
            "engine.sharded.render_batch.s",
            "engine.sharded.backward_batch.s",
            "engine.sharded.dispatch_s",
            "engine.sharded.stitch_s",
            "engine.sharded.worker_s",
            "engine.sharded.fault_events",
            "engine.sharded.retries",
            "engine.speculate_batch.calls",
            "engine.drain.s",
            "engine.async.consumed_ratio",
            "slam.mapping.overlap_s",
            "slam.mapping.hidden_ratio",
            "slam.frame.blocked_s",
        )
    },
    **{
        name: _SERVICE
        for name in (
            "service.rounds",
            "service.round.s",
            "service.queue_wait_s",
            "service.budget_evictions",
            "service.admission_rejects",
        )
    },
    "slam.gaussians_peak": [("latency_p50_ms", SLAM)],
    "slam.gaussians_final": [("latency_p50_ms", SLAM)],
    # Accuracy: what a faster SLAM must keep.
    "slam.ate_cm": [("throughput_per_s", SLAM)],
    "slam.psnr_db": [("throughput_per_s", SLAM)],
}

_PRUNING = tuple(f"core.pruning.{method}" for method in _PRUNER_METHODS)
_SHARDED = "backend.sharded.render_batch"

# Metrics read from spans: metric -> (statistic, span names).  ``seconds`` and
# ``calls`` are per item, ``self`` is seconds minus child spans per item,
# ``attr:KEY`` sums an observed attribute per item, ``mean:KEY`` averages it
# over the spans that carry it.
SPAN_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "slam.tracking.s": ("seconds", ("slam.tracking",)),
    "slam.tracking.self_s": ("self", ("slam.tracking",)),
    "core.pruning.s": ("seconds", _PRUNING),
    "core.pruning.calls": ("calls", _PRUNING),
    "core.downsampling.s": ("seconds", ("core.downsampling",)),
    "core.downsampling.mean_fraction": ("mean:fraction", ("core.downsampling",)),
    "engine.render.calls": ("calls", ("engine.render",)),
    "engine.render.s": ("seconds", ("engine.render",)),
    "engine.backward.calls": ("calls", ("engine.backward",)),
    "engine.backward.s": ("seconds", ("engine.backward",)),
    "slam.mapping.s": ("seconds", ("slam.mapping",)),
    "slam.mapping.self_s": ("self", ("slam.mapping",)),
    "slam.optimizer.s": ("seconds", ("slam.optimizer",)),
    "engine.render_batch.calls": ("calls", ("engine.render_batch",)),
    "engine.render_batch.s": ("seconds", ("engine.render_batch",)),
    "engine.backward_batch.calls": ("calls", ("engine.backward_batch",)),
    "engine.backward_batch.s": ("seconds", ("engine.backward_batch",)),
    "engine.batch.views_mean": ("mean:views", ("engine.render_batch",)),
    "engine.invalidate_cache.calls": ("calls", ("engine.invalidate_cache",)),
    "gaussians.plan.s": ("seconds", ("gaussians.plan",)),
    "gaussians.execute.s": ("seconds", ("gaussians.execute",)),
    "gaussians.geom_cache.build.s": ("seconds", ("gaussians.geom_cache.build_view",)),
    "engine.sharded.render_batch.s": ("seconds", (_SHARDED,)),
    "engine.sharded.backward_batch.s": ("seconds", ("backend.sharded.backward_batch",)),
    "engine.sharded.dispatch_s": ("attr:dispatch_s", (_SHARDED,)),
    "engine.sharded.stitch_s": ("attr:stitch_s", (_SHARDED,)),
    "engine.sharded.worker_s": ("attr:worker_s", (_SHARDED,)),
    "engine.sharded.fault_events": ("attr:fault_events", (_SHARDED,)),
    "engine.sharded.retries": ("attr:retries", (_SHARDED,)),
    "engine.speculate_batch.calls": ("calls", ("engine.speculate_batch",)),
    "engine.drain.s": ("seconds", ("engine.drain",)),
    # The SLAM thread's time outside tracking and mapping calls: waiting on
    # the background mapper in async mode, bookkeeping otherwise.
    "slam.frame.blocked_s": ("self", ("slam.pipeline",)),
    "service.rounds": ("calls", ("service.round",)),
    "service.round.s": ("seconds", ("service.round",)),
}

# Metrics read from the program's outputs: metric -> (statistic, total keys).
# ``per`` divides a total by the item count, ``ratio`` divides two totals and
# ``value`` reports a total as is.
OUTPUT_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "slam.tracking.iterations": ("per", ("tracking.iterations",)),
    "slam.mapping.iterations": ("per", ("mapping.iterations",)),
    "core.pruning.removed": ("per", ("pruning.removed",)),
    "core.pruning.removed_ratio": ("ratio", ("pruning.removed", "pruning.seen")),
    "gaussians.geom_cache.lookups": ("per", ("cache.lookups",)),
    "gaussians.geom_cache.hit_ratio": ("ratio", ("cache.useful", "cache.lookups")),
    "gaussians.geom_cache.exact_hit_ratio": ("ratio", ("cache.exact", "cache.lookups")),
    "gaussians.geom_cache.evictions": ("per", ("cache.evictions",)),
    "gaussians.visible": ("per", ("gaussians.visible",)),
    "gaussians.tile_pairs": ("per", ("gaussians.tile_pairs",)),
    "gaussians.fragments": ("per", ("gaussians.fragments",)),
    "gaussians.fragments_per_s": ("ratio", ("gaussians.fragments", "wall_s")),
    "engine.async.consumed_ratio": ("ratio", ("async.consumed", "async.speculated")),
    "slam.mapping.overlap_s": ("per", ("async.overlap_s",)),
    "slam.mapping.hidden_ratio": ("ratio", ("async.overlap_s", "async.mapping_s")),
    "service.queue_wait_s": ("per", ("service.queue_wait_s",)),
    "service.budget_evictions": ("per", ("service.budget_evictions",)),
    "service.admission_rejects": ("per", ("service.admission_rejects",)),
    "slam.gaussians_peak": ("value", ("gaussians.peak",)),
    "slam.gaussians_final": ("value", ("gaussians.final",)),
    "slam.ate_cm": ("value", ("ate_cm",)),
    "slam.psnr_db": ("value", ("psnr_db",)),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_statistic(tracer: Tracer, statistic: str, names: tuple[str, ...], items: int) -> float:
    spans = [span for name in names for span in tracer.named(name)]
    if statistic == "seconds":
        return sum(span.seconds for span in spans) / items
    if statistic == "calls":
        return len(spans) / items
    if statistic == "self":
        return sum(tracer.self_seconds(name) for name in names) / items
    kind, key = statistic.split(":")
    values = [span.attrs[key] for span in spans if key in span.attrs]
    if kind == "attr":
        return sum(values) / items
    return _ratio(sum(values), len(values))


def layer_metrics(
    tracer: Tracer, items: int, totals: dict[str, float], extra: dict[str, float]
) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric, and ``{metric: "missing:<reason>"}``.

    ``totals`` are run totals from the program's outputs; ``extra`` holds the
    metrics computed elsewhere (the Step 1-5 probe, the tracing overhead).  A
    metric whose span could not be wrapped reads 0 and is listed as missing.
    """
    items = max(items, 1)
    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    for metric, (statistic, names) in SPAN_METRICS.items():
        reasons = [tracer.missing[name] for name in names if name in tracer.missing]
        if reasons:
            missing[metric] = f"missing:{reasons[0]}"
            values[metric] = 0.0
        else:
            values[metric] = _span_statistic(tracer, statistic, names, items)
    for metric, (statistic, keys) in OUTPUT_METRICS.items():
        numbers = [totals.get(key, 0.0) for key in keys]
        if statistic == "per":
            values[metric] = numbers[0] / items
        elif statistic == "ratio":
            values[metric] = _ratio(*numbers)
        else:
            values[metric] = numbers[0]
    values.update(extra)
    return values, missing
