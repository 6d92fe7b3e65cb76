"""The equivalence harness: every scenario × every engine configuration.

The :class:`ScenarioMatrix` declaratively crosses the merged scenario library
(:func:`repro.testing.scenarios.matrix_library` — behavioural corners plus the
adversarial growth set) against four execution axes:

* ``backend`` — every registered backend: ``flat`` (fragment-list fast
  path), ``sharded`` (multi-process flat), ``async`` (speculative
  double-buffered pipelining over the sharded pool — its mapper cells
  exercise the speculate/consume/discard machinery end-to-end);
* ``cache`` — geometry cache ``off`` / ``on``: render cells pass the
  engine's cache in and run it through every invalidation path, service
  cells open cache-on sessions, and mapper cells run on a cache-enabled
  engine, which the mapper never consults, so they pin that it stays exact;
* ``batch`` — ``single`` view (:meth:`repro.engine.RenderEngine.render`, a
  batch of one) / ``multi`` view
  (:meth:`repro.engine.RenderEngine.render_batch`);
* ``mapping`` — a direct ``render``, a short
  :class:`repro.slam.mapping.StreamingMapper` window driven end-to-end
  through the cell's engine, or ``service``: interleaved
  :class:`repro.service.RenderService` sessions over the cell's backend.

Every render and service cell is compared against the **direct
implementation** the engine wraps — ``rasterize_flat``, then
``rasterize_backward``, then ``preprocess_backward`` —
under a loss seeded by :func:`repro.utils.random.derive_seed` from the
workload (scenario, cloud state and view index), so every backend and
cache setting of one workload backprops the same loss against one memoized
reference.  Cache-on cells are held to that cache-off reference too: every
cache tier is exact.  A multi-view batch is compared view by view against N
sequential single-view renders, its fused backward bitwise against
``preprocess_backward_batch`` over the sequential views' screen-space
gradients and within :data:`GRAD_TOL` against the sum of their per-view
gradients.  Gradients cover every :data:`GRADIENT_FIELDS` entry and the
per-view pose twists.  Cache-on render cells repeat the check through a
mutation sequence (:func:`cache_rounds`), each round with its expected
cache status: miss, hit, two appearance-only refreshes, then — on
single-view cells — an Adam-style step, densify, prune, mask and
``remove_inactive``.  Service cells open :data:`N_SERVICE_SESSIONS`
sessions with round quantum :data:`SERVICE_ROUND_QUANTUM`, submit every job
before consuming any result, and check each session's batch — forward and
fused backward — against its solo direct reference (cache-on: a miss
round, then a hit round).  Mapper cells compare their final cloud, losses and densify/prune
counts against the flat cache-off mapper run.  Each cell records a
structured :class:`ScenarioCellResult` — status, max abs diff, the
tolerance it was judged against, wall-clock and the per-view
:class:`~repro.slam.records.WorkloadSnapshot` attribution.

Tolerance: every cell must match **bitwise** (tolerance 0 — same work
units, and every cache tier is exact).  The per-tile reference loop
(``rasterize_tile``) is not a backend; ``tests/test_fast_raster.py`` holds
the flat path to it on every matrix scenario.

Cells a backend *cannot* execute are skipped with a machine-readable reason
instead of silently running a substitute:

* ``capability:*`` — the backend's typed capabilities report ``cache=False``
  (no built-in backend does; a registered one may);
* ``backend-unavailable:*`` — :meth:`repro.engine.RenderEngine.availability`
  reported a config/host limitation (e.g. the sharded backend resolving to
  fewer than two worker processes, with the knob and core count named).

A matrix constructed with a ``fault_schedule`` (the
:mod:`repro.engine.faults` grammar, also reachable via ``--faults`` or the
``REPRO_SHARD_FAULTS`` environment variable) runs every cell with that fault
plan active, its random seed re-derived per cell
(:meth:`ScenarioMatrix.fault_plan_for`): sharded and async cells exercise
the fault path (pool close plus serial parent execution of the lost views)
and must still pass their bitwise gates, and each cell's fault-event counts
land in the attribution of the markdown/JSON reports — this is the CI
``chaos`` job.

CLI::

    python -m repro.testing.matrix --filter backend=sharded
    python -m repro.testing.matrix --filter mapping=service
    python -m repro.testing.matrix --tier long --markdown matrix.md --json matrix.json
    python -m repro.testing.matrix --faults "random:1234:0.25" --filter backend=sharded,async
"""

from __future__ import annotations

import argparse
import json
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine import EngineConfig, FaultPlan, RenderEngine, fault_plan
from repro.gaussians.backward import (
    preprocess_backward,
    preprocess_backward_batch,
    rasterize_backward,
)
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.gaussian_model import GaussianCloud
from repro.testing.scenarios import ScenarioLibrary, SceneSpec, matrix_library
from repro.utils.random import derive_seed

# A fused backward regroups the per-view sums, so it agrees with the sum of
# per-view gradients to this bound only (the flat-vs-tile tests use it too).
GRAD_TOL = 1e-8

GRADIENT_FIELDS = (
    "positions",
    "log_scales",
    "rotations",
    "opacity_logits",
    "colors",
    "cov3d",
    "pose_twist",
    "per_gaussian_pose",
)
_FORWARD_FIELDS = ("image", "depth", "alpha")
# CacheStats counter of each per-view cache status.
_TIER_COUNTERS = {"hit": "hits", "refresh": "refreshes", "miss": "misses"}

# Service cells: that many interleaved tenants, each round a sub-batch of at
# most this many units, so multi-view jobs genuinely interleave.
N_SERVICE_SESSIONS = 3
SERVICE_ROUND_QUANTUM = 2

# The declarative axes every scenario is crossed against, in display order.
AXES: dict[str, tuple[str, ...]] = {
    "backend": ("flat", "sharded", "async"),
    "cache": ("off", "on"),
    "batch": ("single", "multi"),
    "mapping": ("render", "mapper", "service"),
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
    # stays bitwise: no scenario carve-out.
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
    mapping: str  # "render" | "mapper" | "service"
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
    max_abs_diff: float = 0.0  # worst diff judged against ``tolerance``
    tolerance: float = 0.0  # the documented tolerance of the cell
    wall_seconds: float = 0.0
    n_fragments: int = 0
    n_views: int = 1
    failures: list[str] = field(default_factory=list)
    notes: str = ""  # e.g. cache statuses observed, degradation remarks
    snapshots: list = field(default_factory=list)  # per-view WorkloadSnapshots
    # Execution record of each batch the cell rendered (ShardAttribution, or
    # None for a batch that ran unsharded).
    shardings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def explained(self) -> bool:
        """Skips must carry a machine-readable reason; pass/fail are explained."""
        return self.status != "skip" or bool(self.skip_reason)

    @property
    def _executed(self) -> list:
        return [sharding for sharding in self.shardings if sharding is not None]

    @property
    def fault_events(self) -> int:
        """Fault events of this cell's batches (0 on a healthy run)."""
        return sum(len(sharding.fault_events) for sharding in self._executed)

    def attribution(self) -> dict[str, object]:
        """Workload and execution summary of the cell (JSON-friendly)."""
        executed = self._executed
        statuses: dict[str, int] = {}
        for snap in self.snapshots:
            statuses[snap.cache_status] = statuses.get(snap.cache_status, 0) + 1
        return {
            "n_snapshots": len(self.snapshots),
            "shard_workers": sorted({s.n_workers for s in executed}) or [1],
            "cache_statuses": statuses,
            "faults": {
                "events": self.fault_events,
                "escalated_views": sum(len(s.escalated_views) for s in executed),
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
            "attribution": self.attribution(),
        }


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def cache_rounds(cloud: GaussianCloud, structural: bool = True):
    """Mutate ``cloud`` through the cache's reuse tiers and invalidation paths.

    Yields ``(label, expected cache status)`` after each step: a first
    lookup (miss), a repeat (hit), two appearance-only steps (refresh), then
    — with ``structural`` — an Adam-style step that moves geometry, densify,
    prune, mask and ``remove_inactive`` (the ``notify_removed`` path), each
    a miss.  The parameter steps need a non-empty cloud and are skipped on
    an empty one.
    """
    yield "initial", "miss"
    yield "repeat", "hit"
    rng = np.random.default_rng(97)
    n = len(cloud)
    if n:
        cloud.apply_parameter_step(d_opacity_logits=rng.normal(0.0, 0.05, size=n))
        yield "opacity-step", "refresh"
        cloud.apply_parameter_step(d_colors=rng.normal(0.0, 0.02, size=(n, 3)))
        yield "color-step", "refresh"
    if not structural:
        return
    if n:
        cloud.apply_parameter_step(
            d_positions=rng.normal(0.0, 1e-3, size=(n, 3)),
            d_log_scales=rng.normal(0.0, 1e-3, size=(n, 3)),
            d_opacity_logits=rng.normal(0.0, 0.05, size=n),
            d_colors=rng.normal(0.0, 0.02, size=(n, 3)),
        )
        yield "adam-step", "miss"
    cloud.extend(
        GaussianCloud.from_points(
            np.array([[0.05, -0.03, 0.08], [-0.1, 0.06, 0.2]]),
            np.array([[0.8, 0.3, 0.2], [0.2, 0.6, 0.9]]),
            scale=0.12,
            opacity=0.75,
        )
    )
    yield "densify", "miss"
    cloud.remove(np.array([len(cloud) - 1]))
    yield "prune", "miss"
    cloud.mask(np.array([0]))
    yield "mask", "miss"
    cloud.remove_inactive()
    yield "remove-inactive", "miss"


@dataclass(frozen=True)
class _ReferenceView:
    """One view through the direct implementation: what a cell is compared on."""

    image: np.ndarray
    depth: np.ndarray
    alpha: np.ndarray
    fragments_per_pixel: np.ndarray
    loss: tuple  # (dL_dimage, dL_ddepth)
    screen: object  # ScreenSpaceGradients of rasterize_backward under ``loss``
    gradients: object  # CloudGradients of preprocess_backward on ``screen``


@dataclass
class _Reference:
    """The direct implementation over one window of views."""

    views: list  # _ReferenceViews, rendered one view at a time
    fused: object  # CloudGradients of preprocess_backward_batch over the views
    twists: np.ndarray  # (V, 6) per-view pose twists of the fused pass
    summed: dict  # GRADIENT_FIELDS name -> sum of the per-view gradients

    @property
    def losses(self) -> list:
        return [view.loss for view in self.views]


class ScenarioMatrix:
    """Execute scenario × configuration cells through pinned render engines.

    ``shard_workers`` pins the sharded and async backends' worker-process
    count (two by default) so their cells execute the multi-process path
    even on small hosts; passing ``0`` or ``None`` lets the backend's
    cpu-count default decide, in which case under-provisioned hosts skip
    those cells with the machine-readable ``workers:...`` reason.
    """

    def __init__(
        self,
        library: ScenarioLibrary | None = None,
        shard_workers: int | None = 2,
        backends: tuple[str, ...] | None = None,
        fault_schedule: str | None = None,
    ):
        self.library = library if library is not None else matrix_library()
        self.shard_workers = shard_workers
        self.backends = backends if backends is not None else AXES["backend"]
        # A repro.engine.faults schedule kept active while cells execute (the
        # chaos job): sharded cells must survive the faults and still pass
        # their gates.
        self.fault_schedule = fault_schedule
        self._engines: dict[tuple[str, bool], RenderEngine] = {}
        self._specs: dict[str, SceneSpec] = {}
        self._frames: dict[str, list] = {}
        self._orbits: dict[str, tuple[list, list]] = {}
        self._mapper_refs: dict[tuple[str, str], tuple] = {}
        # Direct references of the scenario being swept (cells run scenario
        # by scenario, so older scenarios' entries are dropped).
        self._reference_scenario: str | None = None
        self._references: dict[tuple, object] = {}

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
    def config_for(self, backend: str, geom_cache: bool) -> EngineConfig:
        """The engine config of ``backend`` cells (pinned worker count)."""
        extra = (
            {"shard_workers": self.shard_workers}
            if backend in ("sharded", "async") and self.shard_workers
            else {}
        )
        return EngineConfig(backend=backend, geom_cache=geom_cache, **extra)

    def engine_for(self, cell: MatrixCell) -> RenderEngine:
        """The pinned engine of ``cell``'s configuration (shared across cells).

        Cache-on render cells mutate a private cloud through a fresh engine
        instead, so every cell's rounds start from an empty cache.
        """
        key = (cell.backend, cell.cache_enabled)
        if key not in self._engines:
            self._engines[key] = RenderEngine(self.config_for(*key))
        return self._engines[key]

    # -- capability-aware planning ------------------------------------------
    def plan_cell(self, cell: MatrixCell) -> str | None:
        """``None`` when the cell executes; else the machine-readable skip reason."""
        engine = self.engine_for(cell)
        unavailable = engine.availability()
        if unavailable is not None:
            return f"backend-unavailable:{unavailable}"
        if cell.cache_enabled and not engine.capabilities().cache:
            return (
                f"capability:no-cache-support (backend {cell.backend!r} reports "
                "cache=False)"
            )
        return None

    # -- memoized scenario state --------------------------------------------
    def spec(self, scenario: str) -> SceneSpec:
        if scenario not in self._specs:
            self._specs[scenario] = self.library.get(scenario).build()
        return self._specs[scenario]

    def frames(self, scenario: str) -> list:
        """Synthetic keyframes of ``scenario``: reference renders as observations.

        Each of the scenario's prescribed views is rendered once with
        ``rasterize_flat``; the resulting RGB-D images become ground-truth
        observations for the mapper cells, so every cell's mapper optimises
        against identical, deterministic targets.
        """
        if scenario not in self._frames:
            from repro.slam.frame import Frame

            spec = self.spec(scenario)
            n_frames = self.options_for(scenario).n_views
            cameras, poses = self._orbit(scenario)
            frames = []
            for index, (pose, camera) in enumerate(zip(poses[:n_frames], cameras)):
                observation = rasterize_flat(
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

    def _orbit(self, scenario: str) -> tuple[list, list]:
        """Every view camera and pose any cell of ``scenario`` renders."""
        if scenario not in self._orbits:
            spec = self.spec(scenario)
            n_views = self.options_for(scenario).n_views + N_SERVICE_SESSIONS - 1
            self._orbits[scenario] = (spec.view_cameras(n_views), spec.view_poses(n_views))
        return self._orbits[scenario]

    def _window(self, cell: MatrixCell, offset: int = 0) -> tuple[list, list]:
        """The cameras and poses ``cell`` renders, starting ``offset`` views in."""
        n_views = 1 if cell.batch == "single" else self.options_for(cell.scenario).n_views
        cameras, poses = self._orbit(cell.scenario)
        return cameras[offset : offset + n_views], poses[offset : offset + n_views]

    def _reference(
        self,
        cell: MatrixCell,
        cloud: GaussianCloud,
        round_label: str,
        offset: int = 0,
    ) -> _Reference:
        """The direct implementation of the cell's window, ``offset`` views in.

        Each view renders alone through ``rasterize_flat`` and runs
        ``rasterize_backward`` and
        ``preprocess_backward``; the fused pass is ``preprocess_backward_batch``
        over the views' screen-space gradients.  Cache-on cells are held to
        this cache-off reference: every cache tier is exact.  ``cloud`` must
        be the scenario's cloud at ``round_label`` (:func:`cache_rounds`
        mutates deterministically), so references are memoized and shared
        by every cell that renders the same view in the same round.
        """
        if cell.scenario != self._reference_scenario:
            self._reference_scenario = cell.scenario
            self._references.clear()
        n_views = len(self._window(cell)[1])
        key = (cell.batch, offset, round_label)
        if key not in self._references:
            views = [
                self._reference_view(cell.scenario, cloud, round_label, index)
                for index in range(offset, offset + n_views)
            ]
            fused, twists = preprocess_backward_batch(
                [view.screen for view in views], cloud, compute_pose_gradient=True
            )
            summed = {
                name: sum(np.asarray(getattr(view.gradients, name)) for view in views)
                for name in GRADIENT_FIELDS
            }
            self._references[key] = _Reference(
                views=views, fused=fused, twists=twists, summed=summed
            )
        return self._references[key]

    def _reference_view(
        self, scenario: str, cloud: GaussianCloud, round_label: str, index: int
    ) -> _ReferenceView:
        """View ``index`` of the scenario's orbit through the direct implementation.

        The loss is seeded by :func:`derive_seed` from the scenario, the
        cloud's state and the view index — not from the backend, cache or
        window — so every cell that renders this view backprops the same
        loss.  A repeat lookup renders the unchanged cloud of the first.
        """
        state = "initial" if round_label == "repeat" else round_label
        key = (state, index)
        if key not in self._references:
            spec = self.spec(scenario)
            cameras, poses = self._orbit(scenario)
            view = rasterize_flat(
                cloud,
                cameras[index],
                poses[index],
                background=spec.background,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )
            rng = np.random.default_rng(
                derive_seed(zlib.crc32(f"{scenario}/{state}".encode()), index)
            )
            loss = (
                rng.uniform(-1.0, 1.0, size=view.image.shape),
                rng.uniform(-1.0, 1.0, size=view.depth.shape),
            )
            screen = rasterize_backward(view, *loss)
            self._references[key] = _ReferenceView(
                image=view.image,
                depth=view.depth,
                alpha=view.alpha,
                fragments_per_pixel=view.fragments_per_pixel,
                loss=loss,
                screen=screen,
                gradients=preprocess_backward(screen, cloud, compute_pose_gradient=True),
            )
        return self._references[key]

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
        """The flat cache-off mapper run this cell's outcome must match bitwise.

        Memoized per (scenario, batch): the mapper never consults a geometry
        cache, so cache-on cells share the cache-off reference.
        """
        key = (cell.scenario, cell.batch)
        if key not in self._mapper_refs:
            reference_cell = replace(cell, backend="flat", cache="off")
            self._mapper_refs[key] = self._run_mapper(
                reference_cell, self.engine_for(reference_cell)
            )
        return self._mapper_refs[key]

    # -- execution -----------------------------------------------------------
    def fault_plan_for(self, cell: MatrixCell) -> FaultPlan | None:
        """The fault plan ``cell`` executes under, if the matrix has one.

        A sharded backend restarts its operation counter for every new plan,
        so one random seed shared by all cells would replay the same draws
        (operation 0, 1, ...) in each of them.  The schedule's random seed is
        therefore re-derived per cell from a stable digest of the cell id:
        every cell draws its own faults, and the same schedule still yields
        the same faults on every run.
        """
        if not self.fault_schedule:
            return None
        plan = FaultPlan.parse(self.fault_schedule)
        if plan.seed is None:
            return plan
        return replace(
            plan, seed=derive_seed(plan.seed, zlib.crc32(cell.id.encode()))
        )

    def run_cell(self, cell: MatrixCell) -> ScenarioCellResult:
        """Execute one cell (or skip it with its machine-readable reason)."""
        skip_reason = self.plan_cell(cell)
        if skip_reason is not None:
            return ScenarioCellResult(cell=cell, status="skip", skip_reason=skip_reason)
        result = ScenarioCellResult(cell=cell, status="pass")
        start = time.perf_counter()
        try:
            plan = self.fault_plan_for(cell)
            with fault_plan(plan) if plan is not None else nullcontext():
                if cell.mapping == "render":
                    self._execute_render_cell(cell, result)
                elif cell.mapping == "service":
                    self._execute_service_cell(cell, result)
                else:
                    self._execute_mapper_cell(cell, result)
        except Exception as error:  # a crashing cell fails; the sweep continues
            result.failures.append(f"crashed: {error!r}")
        result.wall_seconds = time.perf_counter() - start
        result.status = "pass" if not result.failures else "fail"
        if result.snapshots:
            statuses = sorted({snap.cache_status for snap in result.snapshots})
            result.notes = f"cache_status={','.join(statuses)}"
        return result

    def _execute_render_cell(self, cell: MatrixCell, result: ScenarioCellResult) -> None:
        spec = self.spec(cell.scenario)
        if not cell.cache_enabled:
            self._check_round(cell, result, self.engine_for(cell), spec.cloud, "initial")
            return
        # Cache on: a fresh engine and a private cloud copy, so the rounds'
        # statuses do not depend on what earlier cells left in a cache.  A
        # batch looks every view up through the same cache tiers as a single
        # render, so the structural invalidations run on single-view cells
        # and multi-view cells stop after the reuse tiers.
        engine = RenderEngine(self.config_for(cell.backend, geom_cache=True))
        cloud = spec.cloud.copy()
        for round_label, expected in cache_rounds(cloud, structural=cell.batch == "single"):
            self._check_round(cell, result, engine, cloud, round_label, expected)

    def _check_round(
        self,
        cell: MatrixCell,
        result: ScenarioCellResult,
        engine: RenderEngine,
        cloud: GaussianCloud,
        round_label: str,
        expected_status: str = "uncached",
    ) -> None:
        """Render and backprop the cell's window through ``engine``; check it all."""
        spec = self.spec(cell.scenario)
        cameras, poses = self._window(cell)
        kwargs = dict(tile_size=spec.tile_size, subtile_size=spec.subtile_size)
        cache = engine.cache if cell.cache_enabled else None
        direct = self._reference(cell, cloud, round_label)
        dL_dimages = [image for image, _ in direct.losses]
        dL_ddepths = [depth for _, depth in direct.losses]
        before = engine.cache_stats().as_dict() if cache is not None else None
        if cell.batch == "single":
            views = [
                engine.render(
                    cloud, cameras[0], poses[0], background=spec.background,
                    cache=cache, **kwargs,
                )
            ]
        else:
            batch = engine.render_batch(
                cloud, cameras, poses, backgrounds=[spec.background] * len(poses),
                cache=cache, managed=False, **kwargs,
            )
            views = list(batch.views)
            result.shardings.append(batch.sharding)
        label = f"{round_label}: " if cell.cache_enabled else ""
        if cache is not None:
            # The cache's tier counters must move exactly as the statuses say
            # (a pooled batch folds its lookups back into the parent cache).
            after = engine.cache_stats().as_dict()
            counted = {name: after[name] - before[name] for name in _TIER_COUNTERS.values()}
            statuses = [_TIER_COUNTERS.get(view.cache_status) for view in views]
            if counted != {name: statuses.count(name) for name in _TIER_COUNTERS.values()}:
                result.failures.append(
                    f"{label}cache tier counts moved by {counted}, statuses "
                    f"{[view.cache_status for view in views]}"
                )
        self._check_forward(result, label, views, direct.views, expected_status)
        if cell.batch == "single":
            grads = engine.backward(views[0], cloud, dL_dimages[0], dL_ddepths[0])
            self._check_gradients(result, label, grads, direct.views[0].gradients)
        else:
            fused = engine.backward_batch(
                batch, cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
            )
            self._check_fused(result, label, fused, direct)
        for index, view in enumerate(views):
            result.snapshots.append(self._snapshot(engine, cloud, view, index, len(views)))
        result.n_views = len(views)
        result.n_fragments = sum(view.n_fragments for view in views)

    def _execute_service_cell(self, cell: MatrixCell, result: ScenarioCellResult) -> None:
        """Interleaved service sessions, each bitwise against its solo reference.

        Every session submits its job before any result is consumed, so the
        weighted-fair scheduler interleaves the tenants' units over the
        backend.  Each session renders its own window (shifted by one view
        per session, so cross-session contamination cannot hide behind
        identical inputs).  The backward runs after all jobs of the round
        completed: on the pool, later rounds may have rotated a session's
        batch out of the workers, which the backward heals in the parent.
        """
        from repro.service import RenderService

        spec = self.spec(cell.scenario)
        windows = [self._window(cell, offset=s) for s in range(N_SERVICE_SESSIONS)]
        n_views = len(windows[0][1])
        service = RenderService(
            self.config_for(cell.backend, cell.cache_enabled),
            round_quantum=SERVICE_ROUND_QUANTUM,
        )
        try:
            sessions = [
                service.open_session(f"session-{s}") for s in range(N_SERVICE_SESSIONS)
            ]
            rounds = (
                (("initial", "miss"), ("repeat", "hit"))
                if cell.cache_enabled
                else (("initial", "uncached"),)
            )
            for round_label, expected in rounds:
                jobs = [
                    session.submit(
                        spec.cloud, cameras, poses,
                        backgrounds=[spec.background] * n_views,
                        tile_size=spec.tile_size, subtile_size=spec.subtile_size,
                    )
                    for session, (cameras, poses) in zip(sessions, windows)
                ]
                batches = [job.result() for job in jobs]
                result.n_fragments = sum(
                    view.n_fragments for batch in batches for view in batch.views
                )
                for s, (session, batch, (cameras, poses)) in enumerate(
                    zip(sessions, batches, windows)
                ):
                    label = f"{round_label}: session {s}: "
                    result.shardings.append(batch.sharding)
                    direct = self._reference(cell, spec.cloud, round_label, offset=s)
                    self._check_forward(result, label, batch.views, direct.views, expected)
                    fused = session.backward_batch(
                        batch, spec.cloud,
                        [image for image, _ in direct.losses],
                        [depth for _, depth in direct.losses],
                        compute_pose_gradient=True,
                    )
                    self._check_fused(result, label, fused, direct)
                    for index, view in enumerate(batch.views):
                        result.snapshots.append(
                            self._snapshot(session.engine, spec.cloud, view, index, n_views)
                        )
            if n_views > SERVICE_ROUND_QUANTUM and not any(
                units < n_views for _session, units in service.dispatch_log
            ):
                result.failures.append(
                    "the dispatch log shows no sub-batch rounds: the sessions "
                    "were not interleaved"
                )
        finally:
            service.close()
        result.n_views = N_SERVICE_SESSIONS * n_views

    # -- comparisons ---------------------------------------------------------
    @staticmethod
    def _check(result, label: str, actual, expected, tolerance: float | None) -> None:
        """Fail ``result`` when ``|actual - expected|`` exceeds the tolerance.

        ``tolerance=None`` judges against the cell's own tolerance and feeds
        the reported ``max_abs_diff``; an explicit one only fails.
        """
        diff = _max_abs_diff(actual, expected)
        if tolerance is None:
            tolerance = result.tolerance
            result.max_abs_diff = max(result.max_abs_diff, diff)
        if not diff <= tolerance:
            result.failures.append(
                f"{label}diff {diff:.3e} exceeds tolerance {tolerance:.1e}"
            )

    def _check_forward(
        self, result, label: str, views, references, expected_status: str
    ) -> None:
        """Forward outputs, fragment counts and cache statuses, view by view.

        The statuses are judged against the round's expected status rather
        than the sequential reference's: a batch plans every view before it
        stores any, so a pose repeated within one window misses twice in a
        batch but hits on the second sequential lookup.
        """
        if len(views) != len(references):
            result.failures.append(
                f"{label}{len(views)} views, expected {len(references)}"
            )
        for index, (view, reference) in enumerate(zip(views, references)):
            prefix = f"{label}view {index}: "
            for name in _FORWARD_FIELDS:
                self._check(
                    result, f"{prefix}{name} ", getattr(view, name),
                    getattr(reference, name), None,
                )
            if not np.array_equal(view.fragments_per_pixel, reference.fragments_per_pixel):
                result.failures.append(f"{prefix}per-pixel fragment counts differ")
            if view.cache_status != expected_status:
                result.failures.append(
                    f"{prefix}cache status {view.cache_status!r}, expected "
                    f"{expected_status!r}"
                )

    def _check_gradients(self, result, label: str, grads, reference) -> None:
        for name in GRADIENT_FIELDS:
            self._check(
                result, f"{label}gradient {name} ", getattr(grads, name),
                getattr(reference, name), None,
            )

    def _check_fused(self, result, label: str, fused, direct: _Reference) -> None:
        """A fused backward: bitwise against the direct fused pass, and within
        ``GRAD_TOL`` of the sum of the per-view gradients."""
        self._check_gradients(result, f"{label}fused ", fused.cloud, direct.fused)
        self._check(
            result, f"{label}per-view pose twists ", fused.per_view_pose_twists,
            direct.twists, None,
        )
        for name, summed in direct.summed.items():
            self._check(
                result, f"{label}fused vs per-view sum: gradient {name} ",
                getattr(fused.cloud, name), summed, GRAD_TOL,
            )
        self._check(
            result, f"{label}fused vs per-view: pose twists ", fused.per_view_pose_twists,
            np.stack([view.gradients.pose_twist for view in direct.views]), GRAD_TOL,
        )

    @staticmethod
    def _snapshot(engine: RenderEngine, cloud: GaussianCloud, view, index: int, n_views: int):
        return engine.snapshot(
            view,
            None,
            stage="matrix",
            frame_index=0,
            iteration=0,
            is_keyframe=True,
            loss=0.0,
            n_gaussians_total=cloud.n_total,
            n_gaussians_active=cloud.n_active,
            batch_size=n_views,
            view_index=index,
        )

    def _execute_mapper_cell(self, cell: MatrixCell, result: ScenarioCellResult) -> None:
        cloud, mapped = self._run_mapper(cell, self.engine_for(cell))
        reference_cloud, reference_mapped = self._mapper_reference(cell)
        result.n_views = len(self.frames(cell.scenario))
        result.snapshots = list(mapped.snapshots)
        result.shardings = list(mapped.shardings)
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
        "| scenario | backend | cache | batch | mapping | status "
        "| faults | max diff | tolerance | wall (ms) | fragments | detail |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
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
            f"| {cell.mapping} | {result.status} "
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
        "grammar, e.g. 'random:1234:0.25'); sharded cells must survive the faults and "
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
