"""Cross-backend scenario matrix: every scenario × every engine configuration.

The :class:`ScenarioMatrix` declaratively crosses the merged scenario library
(:func:`repro.testing.scenarios.matrix_library` — behavioural corners plus the
adversarial growth set) against four execution axes:

* ``backend`` — ``tile`` (reference loop), ``flat`` (fragment-list fast
  path), ``sharded`` (multi-process flat), ``async`` (speculative
  double-buffered pipelining over the sharded pool — its mapper cells
  exercise the speculate/consume/discard machinery end-to-end);
* ``cache`` — geometry cache ``off`` / ``on`` (exact configuration: only the
  bit-identical reuse tiers);
* ``batch`` — ``single`` view / ``multi`` view
  (:meth:`repro.engine.RenderEngine.render_batch`);
* ``mapping`` — a direct ``render`` or a short
  :class:`repro.slam.mapping.StreamingMapper` window driven end-to-end
  through the cell's engine.

Each cell executes through a pinned :class:`repro.engine.RenderEngine` and is
compared against the memoized **flat cache-off reference** of the same
workload shape, recording a structured :class:`ScenarioCellResult` — status,
max abs diff, the tolerance it was judged against, wall-clock and the
per-view :class:`~repro.slam.records.WorkloadSnapshot` attribution.

Cells a backend *cannot* execute are skipped with a machine-readable reason
instead of silently running a substitute:

* ``capability:*`` — the backend's typed capabilities report ``cache=False``
  / ``batch=False`` (e.g. tile batch cells, where the engine would silently
  fall back to a flat batch and the cell would not exercise tile; sharded
  cache-on cells execute — worker-resident caches — so tile is the only
  backend skipping cache cells);
* ``backend-unavailable:*`` — :meth:`repro.engine.RenderEngine.availability`
  reported a config/host limitation (e.g. the sharded backend resolving to
  fewer than two worker processes, with the knob and core count named);
* ``fault-schedule:*`` — the cell is not meaningfully comparable under an
  active fault schedule (cache-on mapper cells: losing worker-resident
  entries to a fault legitimately diverges from an uninterrupted cached
  reference at Adam-amplified ulp scale).

Tolerances are inherited from :class:`repro.testing.differential
.DifferentialRunner` and documented per cell: flat and sharded cells must
match the reference **bitwise** (tolerance 0 — same work units, and the exact
cache configuration keeps only bit-identical reuse tiers); tile cells inherit
``forward_tol`` (reduction regrouping).  Cached mapper cells are pinned
bitwise against an *independent* cached flat run (determinism + engine-state
isolation) rather than the uncached run: Adam's gradient normalisation
amplifies the cached backward's last-ulp regrouping unboundedly on
near-degenerate scenes, so cache-vs-uncached equivalence is pinned at render
level instead.

A matrix constructed with a ``fault_schedule`` (the
:mod:`repro.engine.faults` grammar, also reachable via ``--faults`` or the
``REPRO_SHARD_FAULTS`` environment variable) runs every cell with that fault
plan active: sharded cells exercise the self-healing dispatch
(retry/redispatch/quarantine/escalation) and must still pass their bitwise
gates, and each cell's fault-event counts land in the attribution of the
markdown/JSON reports — this is the CI ``chaos`` job.

CLI::

    python -m repro.testing.matrix --filter backend=sharded
    python -m repro.testing.matrix --tier long --markdown matrix.md --json matrix.json
    python -m repro.testing.matrix --faults "random:1234:0.25" --filter backend=sharded,async
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine import EngineConfig, RenderEngine, fault_plan
from repro.testing.differential import (
    _EXACT_ENGINE_CACHE,
    DifferentialRunner,
    _max_abs_diff,
)
from repro.testing.scenarios import ScenarioLibrary, SceneSpec, matrix_library

# The declarative axes every scenario is crossed against, in display order.
AXES: dict[str, tuple[str, ...]] = {
    "backend": ("tile", "flat", "sharded", "async"),
    "cache": ("off", "on"),
    "batch": ("single", "multi"),
    "mapping": ("render", "mapper"),
}

TIERS = ("fast", "long")


@dataclass(frozen=True)
class MatrixOptions:
    """Per-scenario matrix parameters (views, tier, mapper behaviour)."""

    n_views: int = 3  # views of multi cells and frames of mapper cells
    tier: str = "fast"  # "fast" runs on every push; "long" on schedule/label
    churn: bool = False  # mapper cells densify + prune mid-window
    mapper_iterations: int = 2


# Scenario-specific overrides; everything else uses the defaults above.
SCENARIO_OPTIONS: dict[str, MatrixOptions] = {
    "long_trajectory": MatrixOptions(n_views=12, tier="long", mapper_iterations=3),
    "aggressive_motion": MatrixOptions(n_views=6),
    "mixed_resolution": MatrixOptions(n_views=3),
    # Distorted per-view intrinsics stay pinhole-projected, so every cell
    # keeps its backend's documented tolerance (bitwise flat/sharded,
    # forward_tol on tile) — tolerance_for needs no scenario carve-out.
    "camera_distortion": MatrixOptions(n_views=3),
    # All six row-band poses of the readout in one window: multi cells batch
    # the full intra-frame motion, mapper cells speculate across it.
    "rolling_shutter": MatrixOptions(n_views=6),
    "densify_churn": MatrixOptions(churn=True),
}


@dataclass(frozen=True)
class MatrixCell:
    """One (scenario, backend, cache, batch, mapping) point of the sweep."""

    scenario: str
    backend: str
    cache: str  # "off" | "on"
    batch: str  # "single" | "multi"
    mapping: str  # "render" | "mapper"
    tier: str = "fast"

    @property
    def cache_enabled(self) -> bool:
        return self.cache == "on"

    @property
    def id(self) -> str:
        """Stable identifier, also the pytest parametrization id."""
        return (
            f"{self.scenario}/{self.backend}/cache-{self.cache}/"
            f"{self.batch}/{self.mapping}"
        )

    def axis_value(self, key: str) -> str:
        if key == "scenario":
            return self.scenario
        if key == "tier":
            return self.tier
        if key in AXES:
            return getattr(self, key)
        raise KeyError(f"unknown matrix axis {key!r}; known: scenario, tier, {', '.join(AXES)}")


@dataclass
class ScenarioCellResult:
    """Structured outcome of one matrix cell."""

    cell: MatrixCell
    status: str  # "pass" | "fail" | "skip"
    skip_reason: str | None = None  # machine-readable, always set for skips
    max_abs_diff: float = 0.0  # worst diff vs the flat cache-off reference
    tolerance: float = 0.0  # the documented tolerance the diff was judged against
    wall_seconds: float = 0.0
    n_fragments: int = 0
    n_views: int = 1
    failures: list[str] = field(default_factory=list)
    notes: str = ""  # e.g. cache statuses observed, degradation remarks
    snapshots: list = field(default_factory=list)  # WorkloadSnapshot attribution

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def explained(self) -> bool:
        """Skips must carry a machine-readable reason; pass/fail are explained."""
        return self.status != "skip" or bool(self.skip_reason)

    @property
    def plan_site(self) -> str:
        """Where Step 1-2 planning ran for this cell's renders.

        ``worker`` when any snapshot reports worker-resident planning (sharded
        batches), ``parent`` for executed serial/parent-planned cells, ``-``
        for skips and cells that emitted no snapshots.
        """
        sites = {snap.plan_site for snap in self.snapshots}
        if not sites:
            return "-"
        return "worker" if "worker" in sites else "parent"

    @property
    def fault_events(self) -> int:
        """Total fault events of this cell's batches (0 on a healthy run)."""
        return sum(snap.fault_events for snap in self.snapshots if snap.view_index == 0)

    def attribution(self) -> dict[str, object]:
        """Aggregate of the per-view workload snapshots (JSON-friendly)."""
        workers = {snap.shard_workers for snap in self.snapshots}
        statuses: dict[str, int] = {}
        for snap in self.snapshots:
            statuses[snap.cache_status] = statuses.get(snap.cache_status, 0) + 1
        return {
            "n_snapshots": len(self.snapshots),
            "shard_workers": sorted(workers) if workers else [1],
            "cache_statuses": statuses,
            "plan_site": self.plan_site,
            # Batch-level fault counts ride on every view of a batch, so sum
            # them from view_index == 0 snapshots; escalation is per view.
            "faults": {
                "events": self.fault_events,
                "retries": sum(
                    snap.fault_retries
                    for snap in self.snapshots
                    if snap.view_index == 0
                ),
                "quarantines": sum(
                    snap.fault_quarantines
                    for snap in self.snapshots
                    if snap.view_index == 0
                ),
                "escalated_views": sum(
                    1 for snap in self.snapshots if snap.fault_escalated
                ),
            },
        }

    def to_json(self) -> dict[str, object]:
        return {
            "id": self.cell.id,
            "scenario": self.cell.scenario,
            "backend": self.cell.backend,
            "cache": self.cell.cache,
            "batch": self.cell.batch,
            "mapping": self.cell.mapping,
            "tier": self.cell.tier,
            "status": self.status,
            "skip_reason": self.skip_reason,
            "max_abs_diff": self.max_abs_diff,
            "tolerance": self.tolerance,
            "wall_seconds": self.wall_seconds,
            "n_fragments": self.n_fragments,
            "n_views": self.n_views,
            "failures": self.failures,
            "notes": self.notes,
            "plan_site": self.plan_site,
            "attribution": self.attribution(),
        }


class ScenarioMatrix:
    """Execute scenario × configuration cells through pinned render engines.

    ``shard_workers`` pins the sharded backend's worker-process count (two by
    default, matching :class:`DifferentialRunner`) so sharded cells execute
    their multi-process path even on small hosts; passing ``0`` lets the
    backend's cpu-count default decide, in which case under-provisioned hosts
    skip sharded cells with the machine-readable ``workers:...`` reason.
    """

    def __init__(
        self,
        library: ScenarioLibrary | None = None,
        runner: DifferentialRunner | None = None,
        shard_workers: int | None = 2,
        backends: tuple[str, ...] | None = None,
        fault_schedule: str | None = None,
    ):
        self.library = library if library is not None else matrix_library()
        self.shard_workers = shard_workers
        self.runner = runner if runner is not None else DifferentialRunner(
            n_shard_workers=shard_workers if shard_workers else 2
        )
        self.backends = backends if backends is not None else AXES["backend"]
        # A repro.engine.faults schedule kept active while cells execute (the
        # chaos job): sharded cells must heal and still pass their gates.
        self.fault_schedule = fault_schedule
        self._cache_engines: dict[str, RenderEngine] = {}
        self._specs: dict[str, SceneSpec] = {}
        self._frames: dict[str, list] = {}
        self._render_refs: dict[tuple[str, str], list] = {}
        self._mapper_refs: dict[tuple[str, str], tuple] = {}

    # -- declarative enumeration --------------------------------------------
    def options_for(self, scenario: str) -> MatrixOptions:
        return SCENARIO_OPTIONS.get(scenario, MatrixOptions())

    def cells(
        self,
        tier: str = "fast",
        filters: dict[str, set[str]] | None = None,
    ) -> list[MatrixCell]:
        """Every cell of the sweep, optionally restricted by tier and filters.

        ``tier`` is ``"fast"``, ``"long"`` or ``"all"``; ``filters`` maps an
        axis name (``scenario``/``backend``/``cache``/``batch``/``mapping``/
        ``tier``) to the set of accepted values.
        """
        cells = []
        for name in self.library.names():
            scenario_tier = self.options_for(name).tier
            if tier != "all" and scenario_tier != tier:
                continue
            for backend in self.backends:
                for cache in AXES["cache"]:
                    for batch in AXES["batch"]:
                        for mapping in AXES["mapping"]:
                            cell = MatrixCell(
                                scenario=name,
                                backend=backend,
                                cache=cache,
                                batch=batch,
                                mapping=mapping,
                                tier=scenario_tier,
                            )
                            if filters and not all(
                                cell.axis_value(key) in accepted
                                for key, accepted in filters.items()
                            ):
                                continue
                            cells.append(cell)
        return cells

    # -- engines ------------------------------------------------------------
    def engine_for(self, cell: MatrixCell) -> RenderEngine:
        """The pinned engine executing ``cell`` (shared across same-config cells).

        Cache-off cells share the :class:`DifferentialRunner` engines (the
        very engines the per-scenario differential gates run through);
        cache-on cells get a per-backend engine whose geometry cache is in
        its exact configuration, so cached cells stay bitwise-comparable.
        """
        if not cell.cache_enabled:
            return self.runner.engine_for(cell.backend)
        if cell.backend not in self._cache_engines:
            extra = (
                {"shard_workers": self.shard_workers}
                if cell.backend
                in (self.runner.sharded_backend, self.runner.async_backend)
                and self.shard_workers
                else {}
            )
            self._cache_engines[cell.backend] = RenderEngine(
                EngineConfig(
                    backend=cell.backend,
                    geom_cache=True,
                    **_EXACT_ENGINE_CACHE,
                    **extra,
                )
            )
        return self._cache_engines[cell.backend]

    def _reference_engine(self) -> RenderEngine:
        return self.runner.engine_for(self.runner.candidate_backend)

    # -- capability-aware planning ------------------------------------------
    def plan_cell(self, cell: MatrixCell) -> str | None:
        """``None`` when the cell executes; else the machine-readable skip reason."""
        engine = self.engine_for(cell)
        unavailable = engine.availability()
        if unavailable is not None:
            return f"backend-unavailable:{unavailable}"
        capabilities = engine.capabilities()
        if cell.cache_enabled and not capabilities.cache:
            return (
                f"capability:no-cache-support (backend {cell.backend!r} reports "
                "cache=False)"
            )
        if (cell.batch == "multi" or cell.mapping == "mapper") and not (
            capabilities.batch
        ):
            return (
                f"capability:no-batch-support (backend {cell.backend!r} reports "
                "batch=False; the engine would silently substitute a flat "
                "batch, so the cell would not exercise this backend)"
            )
        if (
            self.fault_schedule
            and cell.cache_enabled
            and cell.mapping == "mapper"
            and cell.backend
            in (self.runner.sharded_backend, self.runner.async_backend)
        ):
            # A fault irrecoverably loses worker-resident cache entries, so
            # later iterations legitimately rebuild tiers the healthy cached
            # reference serves from its retained entries; the
            # cached backward's last-ulp regrouping then diverges, and Adam
            # amplifies it unboundedly on near-degenerate scenes (the same
            # reason cache-on mapper cells are pinned against an independent
            # *cached* run rather than an uncached one).  Faulted cached
            # coverage stays at render granularity, where every tier is
            # bitwise.
            return (
                "fault-schedule:cached-mapper-not-comparable (a fault drops "
                "worker-resident cache entries, so the run legitimately "
                "diverges from an uninterrupted cached mapper at Adam-"
                "amplified ulp scale; faulted cache-on coverage is pinned "
                "at render granularity instead)"
            )
        return None

    # -- tolerances ----------------------------------------------------------
    def tolerance_for(self, cell: MatrixCell) -> tuple[float, str]:
        """The documented tolerance of ``cell`` and why it applies."""
        if cell.backend == self.runner.reference_backend:
            return (
                self.runner.forward_tol,
                "tile reduction regrouping (DifferentialRunner.forward_tol)",
            )
        if cell.mapping == "mapper" and cell.cache_enabled:
            return (
                0.0,
                "bitwise (vs an independent cached flat mapper run: pins cached-mapper "
                "determinism and engine-state isolation; cache-vs-uncached equivalence "
                "is pinned at render level, where Adam cannot amplify rounding)",
            )
        return 0.0, "bitwise (same work units as the flat reference)"

    # -- memoized scenario state --------------------------------------------
    def spec(self, scenario: str) -> SceneSpec:
        if scenario not in self._specs:
            self._specs[scenario] = self.library.get(scenario).build()
        return self._specs[scenario]

    def frames(self, scenario: str) -> list:
        """Synthetic keyframes of ``scenario``: reference renders as observations.

        Each of the scenario's prescribed views is rendered once through the
        flat cache-off reference engine; the resulting RGB-D images become
        ground-truth observations for the mapper cells, so every cell's
        mapper optimises against identical, deterministic targets.
        """
        if scenario not in self._frames:
            from repro.slam.frame import Frame

            spec = self.spec(scenario)
            n_frames = self.options_for(scenario).n_views
            engine = self._reference_engine()
            frames = []
            for index, (pose, camera) in enumerate(
                zip(spec.view_poses(n_frames), spec.view_cameras(n_frames))
            ):
                observation = engine.render(
                    spec.cloud,
                    camera,
                    pose,
                    background=spec.background,
                    tile_size=spec.tile_size,
                    subtile_size=spec.subtile_size,
                )
                frames.append(
                    Frame(
                        index=index,
                        image=observation.image,
                        depth=observation.depth,
                        camera=camera,
                        estimated_pose_cw=pose,
                        is_keyframe=True,
                    )
                )
            self._frames[scenario] = frames
        return self._frames[scenario]

    def _render_reference(self, scenario: str, batch: str) -> list:
        """Flat cache-off reference views of the cell's exact workload shape.

        ``single`` cells compare against one unmanaged flat render of the
        base pose; ``multi`` cells against an unmanaged flat batch over the
        scenario's prescribed views (``managed=False`` keeps the memoized
        results off the engine's recycled arena).
        """
        key = (scenario, batch)
        if key not in self._render_refs:
            spec = self.spec(scenario)
            engine = self._reference_engine()
            if batch == "single":
                views = [
                    engine.render(
                        spec.cloud,
                        spec.camera,
                        spec.pose_cw,
                        background=spec.background,
                        tile_size=spec.tile_size,
                        subtile_size=spec.subtile_size,
                    )
                ]
            else:
                n_views = self.options_for(scenario).n_views
                reference = engine.render_batch(
                    spec.cloud,
                    spec.view_cameras(n_views),
                    spec.view_poses(n_views),
                    backgrounds=[spec.background] * n_views,
                    tile_size=spec.tile_size,
                    subtile_size=spec.subtile_size,
                    managed=False,
                )
                views = list(reference.views)
            self._render_refs[key] = views
        return self._render_refs[key]

    def _mapper_config(self, cell: MatrixCell, options: MatrixOptions):
        from repro.slam.mapping import MappingConfig

        spec = self.spec(cell.scenario)
        n_frames = len(self.frames(cell.scenario))
        churn = options.churn
        return MappingConfig(
            n_iterations=options.mapper_iterations,
            batch_views=1 if cell.batch == "single" else min(3, n_frames),
            keyframe_window=3,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
            record_workloads=True,
            densify_stride=4,
            # Non-churn cells freeze the cloud's structure so every backend
            # optimises the same rows; churn cells keep thresholds that fire.
            densify_alpha_threshold=0.5 if churn else 0.0,
            densify_depth_error=0.15 if churn else 1e9,
            opacity_prune_threshold=0.1 if churn else 0.0,
        )

    def _run_mapper(self, cell: MatrixCell, engine: RenderEngine):
        from repro.slam.mapping import StreamingMapper

        spec = self.spec(cell.scenario)
        config = self._mapper_config(cell, self.options_for(cell.scenario))
        cloud = spec.cloud.copy()
        mapper = StreamingMapper(config, engine=engine)
        result = mapper.map(cloud, self.frames(cell.scenario))
        return cloud, result

    def _mapper_reference(self, cell: MatrixCell) -> tuple:
        """The flat mapper run this cell's mapper outcome must match bitwise.

        Cache-off cells share one memoized flat cache-off run.  Cache-on
        cells compare against an *independent* flat run with the same exact
        cache configuration (a fresh engine, so cross-cell engine state
        cannot leak into the reference): comparing a cached mapper against an
        uncached one is not meaningful at mapper granularity, because Adam's
        gradient normalisation amplifies the cached backward's last-ulp
        reduction regrouping unboundedly on near-degenerate scenes
        (collapsed covariances drive the second-moment estimate toward zero).
        """
        key = (cell.scenario, cell.batch, cell.cache)
        if key not in self._mapper_refs:
            reference_cell = replace(cell, backend=self.runner.candidate_backend)
            if cell.cache_enabled:
                engine = RenderEngine(
                    EngineConfig(
                        backend=self.runner.candidate_backend,
                        geom_cache=True,
                        **_EXACT_ENGINE_CACHE,
                    )
                )
            else:
                engine = self._reference_engine()
            self._mapper_refs[key] = self._run_mapper(reference_cell, engine)
        return self._mapper_refs[key]

    # -- execution -----------------------------------------------------------
    def run_cell(self, cell: MatrixCell) -> ScenarioCellResult:
        """Execute one cell (or skip it with its machine-readable reason)."""
        skip_reason = self.plan_cell(cell)
        tolerance, tolerance_why = self.tolerance_for(cell)
        if skip_reason is not None:
            return ScenarioCellResult(
                cell=cell, status="skip", skip_reason=skip_reason, tolerance=tolerance
            )
        result = ScenarioCellResult(
            cell=cell, status="pass", tolerance=tolerance, notes=f"tolerance: {tolerance_why}"
        )
        start = time.perf_counter()
        try:
            with fault_plan(self.fault_schedule) if self.fault_schedule else nullcontext():
                if cell.mapping == "render":
                    self._execute_render_cell(cell, result)
                else:
                    self._execute_mapper_cell(cell, result)
        except Exception as error:  # a crashing cell fails; the sweep continues
            result.failures.append(f"crashed: {error!r}")
        result.wall_seconds = time.perf_counter() - start
        result.status = "pass" if not result.failures else "fail"
        return result

    def _execute_render_cell(self, cell: MatrixCell, result: ScenarioCellResult) -> None:
        spec = self.spec(cell.scenario)
        engine = self.engine_for(cell)
        reference_views = self._render_reference(cell.scenario, cell.batch)
        managed = cell.cache_enabled
        if cell.batch == "single":
            renders = [
                engine.render(
                    spec.cloud,
                    spec.camera,
                    spec.pose_cw,
                    background=spec.background,
                    tile_size=spec.tile_size,
                    subtile_size=spec.subtile_size,
                    managed=managed,
                )
            ]
            sharding = None
            claimed = renders[0] if managed else None
        else:
            n_views = self.options_for(cell.scenario).n_views
            batch = engine.render_batch(
                spec.cloud,
                spec.view_cameras(n_views),
                spec.view_poses(n_views),
                backgrounds=[spec.background] * n_views,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
                managed=managed,
            )
            renders = list(batch.views)
            sharding = batch.sharding
            claimed = batch if managed else None
        try:
            result.n_views = len(renders)
            result.n_fragments = sum(view.n_fragments for view in renders)
            statuses = sorted({view.cache_status for view in renders})
            result.notes += f"; cache_status={','.join(statuses)}"
            for index, (view, reference) in enumerate(zip(renders, reference_views)):
                label = f"view {index}"
                for name in ("image", "depth", "alpha"):
                    diff = _max_abs_diff(getattr(view, name), getattr(reference, name))
                    result.max_abs_diff = max(result.max_abs_diff, diff)
                    if not diff <= result.tolerance:
                        result.failures.append(
                            f"{label}: {name} diff {diff:.3e} exceeds tolerance "
                            f"{result.tolerance:.1e} vs the flat reference"
                        )
                if not np.array_equal(
                    view.fragments_per_pixel, reference.fragments_per_pixel
                ):
                    result.failures.append(
                        f"{label}: per-pixel fragment counts differ from the flat reference"
                    )
                result.snapshots.append(
                    engine.snapshot(
                        view,
                        None,
                        stage="matrix",
                        frame_index=0,
                        iteration=0,
                        is_keyframe=True,
                        loss=0.0,
                        n_gaussians_total=spec.cloud.n_total,
                        n_gaussians_active=spec.cloud.n_active,
                        batch_size=len(renders),
                        view_index=index,
                        shard_workers=1 if sharding is None else sharding.n_workers,
                        shard_worker_id=(
                            0 if sharding is None else sharding.worker_ids[index]
                        ),
                        shard_seconds=(
                            0.0 if sharding is None else sharding.view_shard_seconds[index]
                        ),
                        shard_stitch_seconds=(
                            0.0
                            if sharding is None
                            else sharding.stitch_seconds / max(len(renders), 1)
                        ),
                        shard_plan_seconds=(
                            sharding.view_plan_seconds[index]
                            if sharding is not None and sharding.view_plan_seconds
                            else 0.0
                        ),
                        plan_site="parent" if sharding is None else sharding.plan_site,
                        fault_events=(
                            0 if sharding is None else len(sharding.fault_events)
                        ),
                        fault_retries=(
                            0 if sharding is None else sharding.fault_retries
                        ),
                        fault_quarantines=(
                            0
                            if sharding is None
                            else len(sharding.fault_quarantined_workers)
                        ),
                        fault_escalated=(
                            sharding is not None
                            and index in sharding.escalated_views
                        ),
                    )
                )
        finally:
            if claimed is not None:
                engine.release(claimed)

    def _execute_mapper_cell(self, cell: MatrixCell, result: ScenarioCellResult) -> None:
        cloud, mapped = self._run_mapper(cell, self.engine_for(cell))
        reference_cloud, reference_mapped = self._mapper_reference(cell)
        result.n_views = len(self.frames(cell.scenario))
        result.snapshots = list(mapped.snapshots)
        result.n_fragments = sum(
            int(snap.fragments_per_pixel.sum()) for snap in mapped.snapshots
        )
        if len(cloud) != len(reference_cloud):
            result.failures.append(
                f"final cloud size {len(cloud)} != reference {len(reference_cloud)} "
                "(densify/prune decisions diverged)"
            )
            result.max_abs_diff = float("inf")
            return
        for name in ("positions", "log_scales", "opacity_logits", "colors"):
            diff = _max_abs_diff(getattr(cloud, name), getattr(reference_cloud, name))
            result.max_abs_diff = max(result.max_abs_diff, diff)
            if not diff <= result.tolerance:
                result.failures.append(
                    f"final cloud {name} diff {diff:.3e} exceeds tolerance "
                    f"{result.tolerance:.1e} vs the flat-reference mapper run"
                )
        loss_diff = _max_abs_diff(
            np.asarray(mapped.losses), np.asarray(reference_mapped.losses)
        )
        result.max_abs_diff = max(result.max_abs_diff, loss_diff)
        if not loss_diff <= max(result.tolerance, 1e-12):
            result.failures.append(
                f"per-iteration losses diff {loss_diff:.3e} exceeds tolerance "
                f"{result.tolerance:.1e} vs the flat-reference mapper run"
            )
        if (mapped.n_added, mapped.n_pruned) != (
            reference_mapped.n_added,
            reference_mapped.n_pruned,
        ):
            result.failures.append(
                f"densify/prune counts ({mapped.n_added}, {mapped.n_pruned}) != "
                f"reference ({reference_mapped.n_added}, {reference_mapped.n_pruned})"
            )

    def run(
        self,
        cells: list[MatrixCell] | None = None,
        tier: str = "fast",
        filters: dict[str, set[str]] | None = None,
        progress=None,
    ) -> list[ScenarioCellResult]:
        """Run ``cells`` (or the tier/filter selection) and return all results."""
        if cells is None:
            cells = self.cells(tier=tier, filters=filters)
        results = []
        for cell in cells:
            outcome = self.run_cell(cell)
            if progress is not None:
                progress(outcome)
            results.append(outcome)
        return results


# -- reporting ----------------------------------------------------------------
def parse_filters(pairs: list[str]) -> dict[str, set[str]]:
    """Parse repeated ``key=value[,value...]`` CLI filters into axis sets."""
    known = ("scenario", "tier", *AXES)
    filters: dict[str, set[str]] = {}
    for pair in pairs:
        key, separator, values = pair.partition("=")
        if not separator or not values:
            raise ValueError(f"filter {pair!r} is not of the form key=value")
        if key not in known:
            raise ValueError(f"unknown filter axis {key!r}; known: {', '.join(known)}")
        filters.setdefault(key, set()).update(values.split(","))
    return filters


def summarize(results: list[ScenarioCellResult]) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0, "skip": 0, "unexplained_skips": 0}
    for result in results:
        counts[result.status] += 1
        if not result.explained:
            counts["unexplained_skips"] += 1
    return counts


def summary_table(results: list[ScenarioCellResult]) -> str:
    """Per-cell markdown table (the CI job-summary artifact)."""
    counts = summarize(results)
    lines = [
        f"**Scenario matrix**: {len(results)} cells — "
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped (all with machine-readable reasons)"
        if not counts["unexplained_skips"]
        else f"**Scenario matrix**: {len(results)} cells — "
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped — {counts['unexplained_skips']} UNEXPLAINED",
        "",
        "| scenario | backend | cache | batch | mapping | plan_site | status "
        "| faults | max diff | tolerance | wall (ms) | fragments | detail |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for result in results:
        cell = result.cell
        if result.status == "skip":
            detail = result.skip_reason or "UNEXPLAINED"
        elif result.failures:
            detail = "; ".join(result.failures)
        else:
            detail = result.notes
        detail = detail.replace("|", "\\|")
        lines.append(
            f"| {cell.scenario} | {cell.backend} | {cell.cache} | {cell.batch} "
            f"| {cell.mapping} | {result.plan_site} | {result.status} "
            f"| {result.fault_events} "
            f"| {result.max_abs_diff:.2e} | {result.tolerance:.1e} "
            f"| {result.wall_seconds * 1e3:.1f} | {result.n_fragments} | {detail} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.matrix",
        description="Run the cross-backend scenario matrix (or any filtered slice).",
    )
    parser.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="restrict an axis, e.g. backend=sharded or scenario=dense_random,one_pixel; "
        "repeatable (axes AND together, comma-separated values OR together)",
    )
    parser.add_argument(
        "--tier",
        choices=("fast", "long", "all"),
        default="fast",
        help="scenario tier to run (default: fast; 'long' adds trajectory-scale scenes)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes pinned for the sharded backend (default: 2; "
        "0 defers to the backend's cpu-count default)",
    )
    parser.add_argument(
        "--faults",
        metavar="SCHEDULE",
        default=None,
        help="run every cell under this fault schedule (repro.engine.faults "
        "grammar, e.g. 'random:1234:0.25'); sharded cells must self-heal and "
        "still pass their bitwise gates (the CI chaos job)",
    )
    parser.add_argument("--list", action="store_true", help="list selected cell ids and exit")
    parser.add_argument(
        "--markdown", metavar="PATH", help="write the per-cell markdown summary table here"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write per-cell structured results (JSON) here"
    )
    args = parser.parse_args(argv)

    try:
        filters = parse_filters(args.filter)
    except ValueError as error:
        parser.error(str(error))

    matrix = ScenarioMatrix(
        shard_workers=args.shard_workers or None, fault_schedule=args.faults
    )
    cells = matrix.cells(tier=args.tier, filters=filters)
    if args.list:
        for cell in cells:
            print(cell.id)
        print(f"{len(cells)} cells")
        return 0

    def progress(result: ScenarioCellResult) -> None:
        marker = {"pass": "ok", "fail": "FAIL", "skip": "skip"}[result.status]
        detail = (
            result.skip_reason
            if result.status == "skip"
            else f"diff={result.max_abs_diff:.2e} tol={result.tolerance:.1e} "
            f"wall={result.wall_seconds * 1e3:.1f}ms"
        )
        print(f"[{marker:>4}] {result.cell.id}: {detail}")

    results = matrix.run(cells, progress=progress)
    counts = summarize(results)
    print(
        f"\n{len(results)} cells: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped ({counts['unexplained_skips']} unexplained)"
    )
    for result in results:
        if result.status == "fail":
            print(f"  FAIL {result.cell.id}: {'; '.join(result.failures)}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(summary_table(results) + "\n")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([result.to_json() for result in results], handle, indent=2)
    return 1 if counts["fail"] or counts["unexplained_skips"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
