"""Differential verification: render every scenario through two backends.

The :class:`DifferentialRunner` renders each scenario through a *reference*
backend (the per-tile loop) and a *candidate* backend (the flat fragment-list
fast path) — each driven by its own pinned :class:`repro.engine.RenderEngine`
— runs the full backward pass on both renders with a deterministic loss, and
reports the worst observed disagreement for every quantity the rest of the
system consumes: image, depth, accumulated alpha, per-pixel fragment counts,
per-subtile fragment counts, and all cloud/pose gradients.

Forward outputs must agree to ``forward_tol`` (default 1e-10; in practice the
flat backend is bit-identical), gradients to ``grad_tol`` (default 1e-8; the
flat backward pass regroups reductions, so tiny rounding drift is expected).
Fragment counts must match exactly — they define the hardware model's
workload and are integers.

Every scenario additionally pins the batched path
(:meth:`repro.engine.RenderEngine.render_batch`): a batch of one view must
match a single candidate-backend render (images to ``forward_tol``, gradients
to ``grad_tol``, fragment counts exactly), and a 3-view batch over
:meth:`SceneSpec.view_poses` must match three sequential single-view renders,
with the fused backward equal to the per-view gradient sum.

Every scenario also runs a cached-vs-uncached equivalence check against the
geometry cache (:mod:`repro.gaussians.geom_cache`) in its exact configuration
(zero tolerance): renders and gradients served from an engine-managed cache
must be **bit-identical** to uncached renders before any mutation, after a
repeat lookup (cache hit), after an appearance-only update (refresh tier),
and after every invalidation path — an Adam-style parameter step,
densification, pruning, masking and ``notify_removed``-style removal.

Finally, :meth:`DifferentialRunner.verify_engine` pins the engine-mediated
path itself: for both backends *plus* the ``sharded`` multi-process backend,
cache on and off, an engine render (and its backward) must be bit-identical
to the legacy free-function implementation it wraps, and
:meth:`DifferentialRunner.verify_sharded` pins the sharded batch — forward
views, fragment counts, fused backward gradients and per-view pose twists —
bitwise against the flat batch on every scenario, cache off *and* on: the
sharded backend's worker-resident geometry caches must stay bit-identical to
the parent-resident flat cache through miss, hit and refresh rounds.  A
runner constructed with a ``fault_schedule`` (:mod:`repro.engine.faults`
grammar) additionally re-renders each scenario's window under that schedule
and requires the self-healing sharded dispatch to complete it
bitwise-identical to the healthy run — the CI chaos job and the
fault-injection tests drive this phase.

A runner constructed with ``n_service_sessions > 0`` adds a multi-tenant
phase (:meth:`DifferentialRunner.verify_service`): that many concurrent
:mod:`repro.service` sessions — submitted first, then driven to completion so
the weighted-fair scheduler genuinely interleaves their work units over the
shared pool — must each produce a batch bitwise-identical to a solo private
engine rendering the same window, forward and fused backward, with the
geometry cache off and on (exact configuration, miss and hit rounds), and,
when the runner also carries a ``fault_schedule``, under injected faults
against the healthy solo run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import REGISTRY, EngineConfig, RenderEngine
from repro.gaussians.backward import (
    CloudGradients,
    preprocess_backward,
    rasterize_backward,
)
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.geom_cache import GeomCacheConfig, GeometryCache
from repro.gaussians.rasterizer import RenderResult, rasterize_tile
from repro.testing.scenarios import DEFAULT_LIBRARY, Scenario, ScenarioLibrary, SceneSpec

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

# Exact-mode cache configuration: only the bit-identical reuse tiers.
_EXACT_CACHE = dict(tolerance_px=0.0)
_EXACT_ENGINE_CACHE = dict(cache_tolerance_px=0.0)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


@dataclass
class ScenarioReport:
    """Worst-case disagreements observed for one scenario."""

    name: str
    n_fragments: int
    image_diff: float
    depth_diff: float
    alpha_diff: float
    fragments_equal: bool
    subtile_fragments_equal: bool
    gradient_diffs: dict[str, float]
    batch1_image_diff: float = 0.0
    batch1_gradient_diff: float = 0.0
    batch_image_diff: float = 0.0
    batch_gradient_diff: float = 0.0
    cache_image_diff: float = 0.0
    cache_gradient_diff: float = 0.0
    engine_image_diff: float = 0.0
    engine_gradient_diff: float = 0.0
    sharded_image_diff: float = 0.0
    sharded_gradient_diff: float = 0.0
    async_image_diff: float = 0.0
    async_gradient_diff: float = 0.0
    async_fault_diff: float = 0.0
    async_cached_diff: float = 0.0
    fault_image_diff: float = 0.0
    fault_gradient_diff: float = 0.0
    fault_events: int = 0  # fault events observed during the fault phase
    service_image_diff: float = 0.0
    service_gradient_diff: float = 0.0
    service_cached_image_diff: float = 0.0
    service_cached_gradient_diff: float = 0.0
    service_fault_diff: float = 0.0
    service_fault_events: int = 0  # fault events during the service fault phase
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def max_gradient_diff(self) -> float:
        return max(self.gradient_diffs.values()) if self.gradient_diffs else 0.0

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: fragments={self.n_fragments} "
            f"image={self.image_diff:.3e} depth={self.depth_diff:.3e} "
            f"alpha={self.alpha_diff:.3e} grad={self.max_gradient_diff:.3e} "
            f"batch={max(self.batch1_image_diff, self.batch_image_diff):.3e}/"
            f"{max(self.batch1_gradient_diff, self.batch_gradient_diff):.3e} "
            f"cache={self.cache_image_diff:.3e}/{self.cache_gradient_diff:.3e} "
            f"engine={self.engine_image_diff:.3e}/{self.engine_gradient_diff:.3e} "
            f"sharded={self.sharded_image_diff:.3e}/{self.sharded_gradient_diff:.3e} "
            f"async={self.async_image_diff:.3e}/{self.async_gradient_diff:.3e}"
            + (
                f" faults={self.fault_events}"
                f" fault={self.fault_image_diff:.3e}/{self.fault_gradient_diff:.3e}"
                if self.fault_events
                else ""
            )
        )


@dataclass
class DifferentialRunner:
    """Renders scenarios through two engine-driven backends and asserts agreement.

    Parameters
    ----------
    forward_tol:
        Maximum allowed absolute difference on image / depth / alpha.
    grad_tol:
        Maximum allowed absolute difference on any backward gradient field.
    reference_backend, candidate_backend:
        Registered backend names; each side renders through its own pinned
        :class:`RenderEngine` and its backward pass is forced to the matching
        backend, so the comparison covers the full forward + backward
        pipeline of each implementation.
    """

    forward_tol: float = 1e-10
    grad_tol: float = 1e-8
    reference_backend: str = "tile"
    candidate_backend: str = "flat"
    sharded_backend: str = "sharded"  # multi-process backend pinned to flat batches
    async_backend: str = "async"  # speculative pipelining backend pinned to flat
    n_batch_views: int = 3  # views of the multi-view batch-vs-sequential check
    n_shard_workers: int = 2  # worker processes of the sharded checks
    # A REPRO_SHARD_FAULTS schedule (repro.engine.faults grammar).  When set,
    # verify_sharded adds a fault phase: the same batch re-rendered under the
    # schedule must complete, stay bitwise-identical to the healthy flat
    # batch (forward and fused backward), and surface its fault events on the
    # attribution.  None (the default) skips the phase.
    fault_schedule: str | None = None
    fault_deadline_s: float = 20.0  # shard deadline of the fault-phase engine
    # Sessions of the multi-tenant service phase (repro.service): that many
    # interleaved sessions each compared bitwise against a solo private
    # engine — cache off and on, plus under the fault schedule when one is
    # set.  0 (the default) skips the phase.
    n_service_sessions: int = 0
    n_service_views: int = 4  # views per service session's job

    def __post_init__(self) -> None:
        self._engines: dict[str, RenderEngine] = {}

    def engine_for(self, backend: str) -> RenderEngine:
        """The pinned, cache-less engine this runner renders ``backend`` through."""
        if backend not in self._engines:
            extra = (
                {"shard_workers": self.n_shard_workers}
                if backend in (self.sharded_backend, self.async_backend)
                else {}
            )
            self._engines[backend] = RenderEngine(
                EngineConfig(backend=backend, geom_cache=False, **extra)
            )
        return self._engines[backend]

    def _render(self, engine: RenderEngine, spec: SceneSpec, cloud=None, **kwargs) -> RenderResult:
        return engine.render(
            spec.cloud if cloud is None else cloud,
            spec.camera,
            spec.pose_cw,
            background=spec.background,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
            **kwargs,
        )

    def render_pair(self, spec: SceneSpec) -> tuple[RenderResult, RenderResult]:
        """Render ``spec`` through both backends."""
        reference = self._render(self.engine_for(self.reference_backend), spec)
        candidate = self._render(self.engine_for(self.candidate_backend), spec)
        return reference, candidate

    def backward_pair(
        self, spec: SceneSpec, reference: RenderResult, candidate: RenderResult
    ) -> tuple[CloudGradients, CloudGradients]:
        """Run the full backward pass on both renders with a deterministic loss."""
        rng = np.random.default_rng(abs(hash((spec.camera.width, spec.camera.height))) % (2**32))
        dL_dimage = rng.uniform(-1.0, 1.0, size=reference.image.shape)
        dL_ddepth = rng.uniform(-1.0, 1.0, size=reference.depth.shape)
        grads_ref = self.engine_for(self.reference_backend).backward(
            reference, spec.cloud, dL_dimage, dL_ddepth, backend=self.reference_backend
        )
        grads_cand = self.engine_for(self.candidate_backend).backward(
            candidate, spec.cloud, dL_dimage, dL_ddepth, backend=self.candidate_backend
        )
        return grads_ref, grads_cand

    def _loss_arrays(
        self, spec: SceneSpec, image_shape, depth_shape, salt: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        seed = abs(hash((spec.camera.width, spec.camera.height, salt))) % (2**32)
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(-1.0, 1.0, size=image_shape),
            rng.uniform(-1.0, 1.0, size=depth_shape),
        )

    def verify_batch(
        self, spec: SceneSpec, base_render: RenderResult | None = None
    ) -> tuple[dict[str, float], list[str]]:
        """Pin the engine batch path against sequential candidate-backend renders.

        Checks batch-of-1 ≡ single view and an ``n_batch_views``-view batch ≡
        the same views rendered sequentially, forward and backward (the fused
        backward against the per-view gradient sum).  ``base_render`` lets the
        caller donate an existing candidate-backend render of the scenario's
        base pose (``run_scenario`` reuses the one from ``render_pair``)
        instead of re-rendering it.  Returns the worst diffs and the failure
        descriptions.
        """
        engine = self.engine_for(self.candidate_backend)
        failures: list[str] = []
        diffs = {
            "batch1_image": 0.0,
            "batch1_grad": 0.0,
            "batch_image": 0.0,
            "batch_grad": 0.0,
        }

        def forward_diff(batch_view: RenderResult, single: RenderResult, label: str) -> float:
            worst = max(
                _max_abs_diff(batch_view.image, single.image),
                _max_abs_diff(batch_view.depth, single.depth),
                _max_abs_diff(batch_view.alpha, single.alpha),
            )
            if not worst <= self.forward_tol:
                failures.append(
                    f"{label}: forward diff {worst:.3e} exceeds tolerance "
                    f"{self.forward_tol:.1e}"
                )
            if not np.array_equal(
                batch_view.fragments_per_pixel, single.fragments_per_pixel
            ):
                failures.append(f"{label}: fragment counts differ from single view")
            return worst

        def gradient_diff(
            batch_cloud_grads, summed_fields: dict[str, np.ndarray], label: str
        ) -> float:
            worst = 0.0
            for name, expected in summed_fields.items():
                value = _max_abs_diff(np.asarray(getattr(batch_cloud_grads, name)), expected)
                worst = max(worst, value)
                if not value <= self.grad_tol:
                    failures.append(
                        f"{label}: gradient {name} diff {value:.3e} exceeds "
                        f"tolerance {self.grad_tol:.1e}"
                    )
            return worst

        for n_views, prefix in ((1, "batch1"), (self.n_batch_views, "batch")):
            poses = spec.view_poses(n_views)
            # view_poses(n)[0] is always the scenario's own pose, so the
            # donated base render stands in for the first sequential call.
            singles = [
                base_render
                if index == 0 and base_render is not None
                else engine.render(
                    spec.cloud,
                    spec.camera,
                    pose,
                    background=spec.background,
                    tile_size=spec.tile_size,
                    subtile_size=spec.subtile_size,
                )
                for index, pose in enumerate(poses)
            ]
            batch = engine.render_batch(
                spec.cloud,
                [spec.camera] * n_views,
                poses,
                backgrounds=[spec.background] * n_views,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )
            image_worst = max(
                forward_diff(batch_view, single, f"{prefix} view {index}")
                for index, (batch_view, single) in enumerate(zip(batch.views, singles))
            )
            diffs[f"{prefix}_image"] = image_worst

            losses = [
                self._loss_arrays(spec, single.image.shape, single.depth.shape, salt=index)
                for index, single in enumerate(singles)
            ]
            sequential = [
                engine.backward(
                    single,
                    spec.cloud,
                    dL_dimage,
                    dL_ddepth,
                    backend=self.candidate_backend,
                )
                for single, (dL_dimage, dL_ddepth) in zip(singles, losses)
            ]
            fused = engine.backward_batch(
                batch,
                spec.cloud,
                [dL_dimage for dL_dimage, _ in losses],
                [dL_ddepth for _, dL_ddepth in losses],
                compute_pose_gradient=True,
            )
            summed = {
                name: sum(np.asarray(getattr(grads, name)) for grads in sequential)
                for name in (
                    "positions",
                    "log_scales",
                    "rotations",
                    "opacity_logits",
                    "colors",
                    "cov3d",
                    "per_gaussian_pose",
                    "pose_twist",
                )
            }
            diffs[f"{prefix}_grad"] = gradient_diff(fused.cloud, summed, prefix)
            twist_diff = _max_abs_diff(
                fused.per_view_pose_twists,
                np.stack([grads.pose_twist for grads in sequential]),
            )
            diffs[f"{prefix}_grad"] = max(diffs[f"{prefix}_grad"], twist_diff)
            if not twist_diff <= self.grad_tol:
                failures.append(
                    f"{prefix}: per-view pose twists diff {twist_diff:.3e} exceeds "
                    f"tolerance {self.grad_tol:.1e}"
                )
        return diffs, failures

    def verify_cache(self, spec: SceneSpec) -> tuple[dict[str, float], list[str]]:
        """Pin engine-cached renders bit-identical to uncached ones across mutations.

        Runs an engine whose geometry cache is in its exact configuration
        (``tolerance_px=0``) on a private copy of the scenario cloud and, for
        every stage of a mutation sequence covering all invalidation paths —
        repeat render (hit), appearance-only step (refresh), Adam-style
        parameter step, densify, prune, mask + ``remove_inactive`` (the
        ``notify_removed`` path) — asserts the cached forward outputs equal an
        uncached render *bitwise* and the backward gradients match to
        ``grad_tol`` (the flat backward on identical caches is bit-identical
        in practice).  Returns worst diffs and failure descriptions.
        """
        failures: list[str] = []
        diffs = {"cache_image": 0.0, "cache_grad": 0.0}
        cloud = spec.cloud.copy()
        cached_engine = RenderEngine(
            EngineConfig(
                backend=self.candidate_backend,
                geom_cache=True,
                **_EXACT_ENGINE_CACHE,
            )
        )
        plain_engine = self.engine_for(self.candidate_backend)
        expected_statuses = {
            "initial": "miss",
            "repeat": "hit",
            "opacity-step": "refresh",
            "color-step": "refresh",
        }

        def compare(label: str) -> None:
            cached = self._render(cached_engine, spec, cloud=cloud, managed=True)
            plain = self._render(plain_engine, spec, cloud=cloud)
            expected = expected_statuses.get(label, "miss")
            if cached.cache_status != expected:
                failures.append(
                    f"cache {label}: expected status {expected!r}, got "
                    f"{cached.cache_status!r}"
                )
            for name in ("image", "depth", "alpha"):
                a, b = getattr(cached, name), getattr(plain, name)
                if not np.array_equal(a, b):
                    worst = _max_abs_diff(a, b)
                    diffs["cache_image"] = max(diffs["cache_image"], worst)
                    failures.append(
                        f"cache {label}: {name} differs from uncached render "
                        f"(max diff {worst:.3e})"
                    )
            if not np.array_equal(cached.fragments_per_pixel, plain.fragments_per_pixel):
                failures.append(f"cache {label}: fragment counts differ from uncached")
            # Backward on the cached render before the next lookup reuses the
            # arena its tile caches alias (this also releases the engine's
            # arena claim).
            dL_dimage, dL_ddepth = self._loss_arrays(
                spec, plain.image.shape, plain.depth.shape, salt=17
            )
            grads_cached = cached_engine.backward(cached, cloud, dL_dimage, dL_ddepth)
            grads_plain = plain_engine.backward(plain, cloud, dL_dimage, dL_ddepth)
            for name in GRADIENT_FIELDS:
                value = _max_abs_diff(
                    np.asarray(getattr(grads_cached, name)),
                    np.asarray(getattr(grads_plain, name)),
                )
                diffs["cache_grad"] = max(diffs["cache_grad"], value)
                if not value <= self.grad_tol:
                    failures.append(
                        f"cache {label}: gradient {name} diff {value:.3e} exceeds "
                        f"tolerance {self.grad_tol:.1e}"
                    )

        compare("initial")
        compare("repeat")

        rng = np.random.default_rng(97)
        n = len(cloud)
        if n:
            cloud.apply_parameter_step(d_opacity_logits=rng.normal(0.0, 0.05, size=n))
            compare("opacity-step")
            cloud.apply_parameter_step(d_colors=rng.normal(0.0, 0.02, size=(n, 3)))
            compare("color-step")
            # A full Adam-style step moves geometry too: exact mode must rebuild.
            cloud.apply_parameter_step(
                d_positions=rng.normal(0.0, 1e-3, size=(n, 3)),
                d_log_scales=rng.normal(0.0, 1e-3, size=(n, 3)),
                d_opacity_logits=rng.normal(0.0, 0.05, size=n),
                d_colors=rng.normal(0.0, 0.02, size=(n, 3)),
            )
            compare("adam-step")
        cloud.extend(
            GaussianCloud.from_points(
                np.array([[0.05, -0.03, 0.08], [-0.1, 0.06, 0.2]]),
                np.array([[0.8, 0.3, 0.2], [0.2, 0.6, 0.9]]),
                scale=0.12,
                opacity=0.75,
            )
        )
        compare("densify")
        cloud.remove(np.array([len(cloud) - 1]))
        compare("prune")
        cloud.mask(np.array([0]))
        compare("mask")
        cloud.remove_inactive()  # the notify_removed removal path
        compare("remove-inactive")
        return diffs, failures

    # -- engine-vs-legacy equivalence ----------------------------------------
    def _legacy_render(
        self, backend: str, spec: SceneSpec, cache: GeometryCache | None
    ) -> RenderResult | None:
        """The pre-engine free-function implementation of ``backend``, if known."""
        kwargs = dict(
            background=spec.background,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
        )
        if backend == "tile":
            # The reference loop ignores caches (its legacy contract).
            return rasterize_tile(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
        if backend == "flat":
            if cache is not None:
                return cache.render_single(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
            return rasterize_flat(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
        if backend == "sharded":
            # Single-view sharded renders run the serial flat fast path by
            # contract, parent-resident cache included.
            if cache is not None:
                return cache.render_single(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
            return rasterize_flat(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
        return None

    def verify_engine(self, spec: SceneSpec) -> tuple[dict[str, float], list[str]]:
        """Pin engine-mediated renders bit-identical to the legacy path.

        For each of the runner's backends — reference, candidate and the
        ``sharded`` multi-process backend (whose single-view renders degrade
        to the flat fast path by contract) — with the geometry cache off and
        on (exact configuration), the engine render — first call (miss) and
        repeat call (hit) — must equal the legacy free-function
        implementation bitwise on every forward output, agree on
        ``cache_status``, and produce bitwise-equal backward gradients.
        Backends the runner does not recognise as built-ins are skipped.
        """
        failures: list[str] = []
        diffs = {"engine_image": 0.0, "engine_grad": 0.0}
        for backend in dict.fromkeys(
            (self.reference_backend, self.candidate_backend, self.sharded_backend)
        ):
            if backend not in ("tile", "flat", "sharded") or backend not in REGISTRY:
                continue
            for cached in (False, True):
                engine = RenderEngine(
                    EngineConfig(
                        backend=backend,
                        geom_cache=cached,
                        shard_workers=self.n_shard_workers,
                        **_EXACT_ENGINE_CACHE,
                    )
                )
                supports_cache = engine.capabilities().cache
                legacy_cache = (
                    GeometryCache(GeomCacheConfig(**_EXACT_CACHE))
                    if cached and supports_cache
                    else None
                )
                for round_label in ("first", "repeat"):
                    label = f"engine {backend} cache={'on' if cached else 'off'} {round_label}"
                    engine_render = self._render(engine, spec, managed=cached)
                    legacy_render = self._legacy_render(backend, spec, legacy_cache)
                    for name in ("image", "depth", "alpha"):
                        a = getattr(engine_render, name)
                        b = getattr(legacy_render, name)
                        if not np.array_equal(a, b):
                            worst = _max_abs_diff(a, b)
                            diffs["engine_image"] = max(diffs["engine_image"], worst)
                            failures.append(
                                f"{label}: {name} differs from the legacy path "
                                f"(max diff {worst:.3e})"
                            )
                    if not np.array_equal(
                        engine_render.fragments_per_pixel, legacy_render.fragments_per_pixel
                    ):
                        failures.append(f"{label}: fragment counts differ from the legacy path")
                    if engine_render.cache_status != legacy_render.cache_status:
                        failures.append(
                            f"{label}: cache status {engine_render.cache_status!r} != "
                            f"legacy {legacy_render.cache_status!r}"
                        )
                    dL_dimage, dL_ddepth = self._loss_arrays(
                        spec, engine_render.image.shape, engine_render.depth.shape, salt=29
                    )
                    engine_grads = engine.backward(
                        engine_render, spec.cloud, dL_dimage, dL_ddepth
                    )
                    # The sharded backend's single-view legacy equivalent is
                    # the flat pipeline, Step 4 included.
                    legacy_step4 = "flat" if backend == "sharded" else backend
                    legacy_screen = rasterize_backward(
                        legacy_render, dL_dimage, dL_ddepth, backend=legacy_step4
                    )
                    legacy_grads = preprocess_backward(
                        legacy_screen, spec.cloud, compute_pose_gradient=True
                    )
                    for name in GRADIENT_FIELDS:
                        a = np.asarray(getattr(engine_grads, name))
                        b = np.asarray(getattr(legacy_grads, name))
                        if not np.array_equal(a, b):
                            worst = _max_abs_diff(a, b)
                            diffs["engine_grad"] = max(diffs["engine_grad"], worst)
                            failures.append(
                                f"{label}: gradient {name} differs from the legacy "
                                f"path (max diff {worst:.3e})"
                            )
        return diffs, failures

    def verify_sharded(self, spec: SceneSpec) -> tuple[dict[str, float], list[str]]:
        """Pin the sharded batch bitwise against the flat batch.

        Renders an ``n_batch_views``-view batch through an engine pinned to
        the ``sharded`` backend (``n_shard_workers`` worker processes) and
        through the flat engine, and requires every forward output, the
        per-view fragment counts, the fused backward's cloud gradients and
        the per-view pose twists to be **bit-identical** — the sharded
        backend executes the very same work units the flat backend runs
        serially, so any divergence is a real defect, not rounding.  On
        platforms where worker processes cannot spawn the sharded engine
        degrades to the serial flat path and the check still pins that
        degradation's equivalence.
        """
        failures: list[str] = []
        diffs = {
            "sharded_image": 0.0,
            "sharded_grad": 0.0,
            "fault_image": 0.0,
            "fault_grad": 0.0,
            "fault_events": 0.0,
        }
        if self.sharded_backend not in REGISTRY:
            return diffs, failures
        sharded_engine = self.engine_for(self.sharded_backend)
        flat_engine = self.engine_for(self.candidate_backend)
        poses = spec.view_poses(self.n_batch_views)
        cameras = [spec.camera] * self.n_batch_views
        backgrounds = [spec.background] * self.n_batch_views

        def batch_through(engine: RenderEngine):
            return engine.render_batch(
                spec.cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )

        sharded = batch_through(sharded_engine)
        flat = batch_through(flat_engine)
        for index, (sharded_view, flat_view) in enumerate(zip(sharded.views, flat.views)):
            for name in ("image", "depth", "alpha"):
                a = getattr(sharded_view, name)
                b = getattr(flat_view, name)
                if not np.array_equal(a, b):
                    worst = _max_abs_diff(a, b)
                    diffs["sharded_image"] = max(diffs["sharded_image"], worst)
                    failures.append(
                        f"sharded view {index}: {name} differs from the flat batch "
                        f"(max diff {worst:.3e})"
                    )
            if not np.array_equal(
                sharded_view.fragments_per_pixel, flat_view.fragments_per_pixel
            ):
                failures.append(
                    f"sharded view {index}: fragment counts differ from the flat batch"
                )

        losses = [
            self._loss_arrays(spec, view.image.shape, view.depth.shape, salt=41 + index)
            for index, view in enumerate(flat.views)
        ]
        sharded_grads = sharded_engine.backward_batch(
            sharded,
            spec.cloud,
            [dL_dimage for dL_dimage, _ in losses],
            [dL_ddepth for _, dL_ddepth in losses],
            compute_pose_gradient=True,
        )
        flat_grads = flat_engine.backward_batch(
            flat,
            spec.cloud,
            [dL_dimage for dL_dimage, _ in losses],
            [dL_ddepth for _, dL_ddepth in losses],
            compute_pose_gradient=True,
        )
        for name in GRADIENT_FIELDS:
            a = np.asarray(getattr(sharded_grads.cloud, name))
            b = np.asarray(getattr(flat_grads.cloud, name))
            if not np.array_equal(a, b):
                worst = _max_abs_diff(a, b)
                diffs["sharded_grad"] = max(diffs["sharded_grad"], worst)
                failures.append(
                    f"sharded batch: gradient {name} differs from the flat batch "
                    f"(max diff {worst:.3e})"
                )
        if not np.array_equal(
            sharded_grads.per_view_pose_twists, flat_grads.per_view_pose_twists
        ):
            worst = _max_abs_diff(
                sharded_grads.per_view_pose_twists, flat_grads.per_view_pose_twists
            )
            diffs["sharded_grad"] = max(diffs["sharded_grad"], worst)
            failures.append(
                f"sharded batch: per-view pose twists differ from the flat batch "
                f"(max diff {worst:.3e})"
            )
        if self.fault_schedule:
            failures.extend(
                self._verify_sharded_faulted(spec, flat, losses, flat_grads, diffs)
            )
        cached_failures = self._verify_sharded_cached(spec, diffs)
        failures.extend(cached_failures)
        return diffs, failures

    def _verify_sharded_faulted(
        self, spec: SceneSpec, flat, losses, flat_grads, diffs: dict[str, float]
    ) -> list[str]:
        """The fault phase: the batch under ``fault_schedule`` must still match.

        Re-renders the same window through a dedicated sharded engine (short
        deadline, so injected hangs cost seconds, not minutes) while the
        runner's fault schedule is active.  The self-healing dispatch must
        complete the batch with forward outputs and fused backward gradients
        **bit-identical** to the healthy flat batch, and any events it logged
        must be visible on the attribution.
        """
        from repro.engine import fault_plan

        failures: list[str] = []
        engine = RenderEngine(
            EngineConfig(
                backend=self.sharded_backend,
                geom_cache=False,
                shard_workers=self.n_shard_workers,
                shard_deadline_s=self.fault_deadline_s,
                shard_backoff_s=1.0,
            )
        )
        poses = spec.view_poses(self.n_batch_views)
        with fault_plan(self.fault_schedule):
            faulted = engine.render_batch(
                spec.cloud,
                [spec.camera] * self.n_batch_views,
                poses,
                backgrounds=[spec.background] * self.n_batch_views,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
                managed=False,
            )
        for index, (faulted_view, flat_view) in enumerate(zip(faulted.views, flat.views)):
            for name in ("image", "depth", "alpha"):
                a = getattr(faulted_view, name)
                b = getattr(flat_view, name)
                if not np.array_equal(a, b):
                    worst = _max_abs_diff(a, b)
                    diffs["fault_image"] = max(diffs["fault_image"], worst)
                    failures.append(
                        f"fault phase view {index}: {name} differs from the "
                        f"healthy flat batch (max diff {worst:.3e})"
                    )
            if not np.array_equal(
                faulted_view.fragments_per_pixel, flat_view.fragments_per_pixel
            ):
                failures.append(
                    f"fault phase view {index}: fragment counts differ from "
                    "the healthy flat batch"
                )
        if faulted.sharding is not None:
            diffs["fault_events"] += float(len(faulted.sharding.fault_events))
        faulted_grads = engine.backward_batch(
            faulted,
            spec.cloud,
            [dL_dimage for dL_dimage, _ in losses],
            [dL_ddepth for _, dL_ddepth in losses],
            compute_pose_gradient=True,
        )
        for name in GRADIENT_FIELDS:
            a = np.asarray(getattr(faulted_grads.cloud, name))
            b = np.asarray(getattr(flat_grads.cloud, name))
            if not np.array_equal(a, b):
                worst = _max_abs_diff(a, b)
                diffs["fault_grad"] = max(diffs["fault_grad"], worst)
                failures.append(
                    f"fault phase: gradient {name} differs from the healthy "
                    f"flat batch (max diff {worst:.3e})"
                )
        if not np.array_equal(
            faulted_grads.per_view_pose_twists, flat_grads.per_view_pose_twists
        ):
            failures.append(
                "fault phase: per-view pose twists differ from the healthy flat batch"
            )
        return failures

    def _verify_sharded_cached(self, spec: SceneSpec, diffs: dict[str, float]) -> list[str]:
        """Pin worker-resident sharded caching bitwise against the flat cache.

        The same batch rendered through a sharded engine (worker-resident
        geometry caches, exact configuration) and a flat engine (parent-
        resident cache, same configuration) must agree bitwise on every
        forward output, report identical per-view cache statuses, and produce
        bitwise-equal fused backward gradients — across a miss round, a hit
        round and a refresh round (appearance-only mutation).
        """
        failures: list[str] = []
        poses = spec.view_poses(self.n_batch_views)
        cameras = [spec.camera] * self.n_batch_views
        backgrounds = [spec.background] * self.n_batch_views
        cloud = spec.cloud.copy()

        sharded_engine = RenderEngine(
            EngineConfig(
                backend=self.sharded_backend,
                geom_cache=True,
                shard_workers=self.n_shard_workers,
                **_EXACT_ENGINE_CACHE,
            )
        )
        flat_engine = RenderEngine(
            EngineConfig(
                backend=self.candidate_backend, geom_cache=True, **_EXACT_ENGINE_CACHE
            )
        )

        def batch_through(engine: RenderEngine):
            return engine.render_batch(
                cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )

        def compare_round(label: str, expected_statuses: set[str]) -> None:
            sharded = batch_through(sharded_engine)
            flat = batch_through(flat_engine)
            sharded_statuses = [view.cache_status for view in sharded.views]
            flat_statuses = [view.cache_status for view in flat.views]
            if sharded_statuses != flat_statuses:
                failures.append(
                    f"sharded cache {label}: statuses {sharded_statuses} != "
                    f"flat cache statuses {flat_statuses}"
                )
            if not set(sharded_statuses) <= expected_statuses:
                failures.append(
                    f"sharded cache {label}: statuses {sharded_statuses} outside "
                    f"expected {sorted(expected_statuses)}"
                )
            for index, (sharded_view, flat_view) in enumerate(
                zip(sharded.views, flat.views)
            ):
                for name in ("image", "depth", "alpha"):
                    a = getattr(sharded_view, name)
                    b = getattr(flat_view, name)
                    if not np.array_equal(a, b):
                        worst = _max_abs_diff(a, b)
                        diffs["sharded_image"] = max(diffs["sharded_image"], worst)
                        failures.append(
                            f"sharded cache {label} view {index}: {name} differs "
                            f"from the flat-cached batch (max diff {worst:.3e})"
                        )
                if not np.array_equal(
                    sharded_view.fragments_per_pixel, flat_view.fragments_per_pixel
                ):
                    failures.append(
                        f"sharded cache {label} view {index}: fragment counts "
                        "differ from the flat-cached batch"
                    )
            losses = [
                self._loss_arrays(spec, view.image.shape, view.depth.shape, salt=53 + index)
                for index, view in enumerate(flat.views)
            ]
            sharded_grads = sharded_engine.backward_batch(
                sharded,
                cloud,
                [dL_dimage for dL_dimage, _ in losses],
                [dL_ddepth for _, dL_ddepth in losses],
                compute_pose_gradient=True,
            )
            flat_grads = flat_engine.backward_batch(
                flat,
                cloud,
                [dL_dimage for dL_dimage, _ in losses],
                [dL_ddepth for _, dL_ddepth in losses],
                compute_pose_gradient=True,
            )
            for name in GRADIENT_FIELDS:
                a = np.asarray(getattr(sharded_grads.cloud, name))
                b = np.asarray(getattr(flat_grads.cloud, name))
                if not np.array_equal(a, b):
                    worst = _max_abs_diff(a, b)
                    diffs["sharded_grad"] = max(diffs["sharded_grad"], worst)
                    failures.append(
                        f"sharded cache {label}: gradient {name} differs from the "
                        f"flat-cached batch (max diff {worst:.3e})"
                    )

        compare_round("miss", {"miss"})
        compare_round("hit", {"hit"})
        if len(cloud):
            cloud.apply_parameter_step(
                d_colors=np.full((len(cloud), 3), 0.01),
            )
            compare_round("refresh", {"refresh"})
        # Eagerly free the per-scenario worker-resident entries (also
        # exercises the cross-process invalidation broadcast).
        sharded_engine.invalidate_cache()
        return failures

    def verify_async(self, spec: SceneSpec) -> tuple[dict[str, float], list[str]]:
        """Pin the async pipelining backend bitwise against the flat batch.

        Four phases, all required **bit-identical** to the flat serial batch:

        1. a plain batch with no speculation (empty pending list == plain
           sharded behaviour), forward and fused backward;
        2. the speculate -> consume path: the batch is speculated first, the
           matching render must adopt it (handle ``consumed``) and still
           equal flat — the speculation is the same pure function evaluated
           early on another thread;
        3. invalidation: a cloud epoch bump between speculation and render
           must *discard* the speculative plan (handle ``discarded``, never
           stitched) and the synchronous re-render must still equal flat;
        4. the ``drain()`` barrier retires a pending speculation (handle
           ``drained``) and the next render equals flat.

        With a ``fault_schedule`` set, phase 2 is repeated under injected
        faults through a dedicated short-deadline engine; a cached variant
        re-runs speculate -> consume with exact-configuration geometry caches
        on both sides.  On platforms where worker processes cannot spawn, the
        inner sharded backend degrades to the serial flat path and the checks
        pin that degradation's equivalence instead.
        """
        diffs = {
            "async_image": 0.0,
            "async_grad": 0.0,
            "async_fault": 0.0,
            "async_cached": 0.0,
        }
        failures: list[str] = []
        if self.async_backend not in REGISTRY:
            return diffs, failures
        async_engine = self.engine_for(self.async_backend)
        flat_engine = self.engine_for(self.candidate_backend)
        poses = spec.view_poses(self.n_batch_views)
        cameras = [spec.camera] * self.n_batch_views
        backgrounds = [spec.background] * self.n_batch_views

        def batch_through(engine: RenderEngine):
            return engine.render_batch(
                spec.cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )

        def speculate(engine: RenderEngine):
            return engine.speculate_batch(
                spec.cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )

        def compare_forward(batch, flat, phase: str, key: str) -> None:
            for index, (async_view, flat_view) in enumerate(zip(batch.views, flat.views)):
                for name in ("image", "depth", "alpha"):
                    a = getattr(async_view, name)
                    b = getattr(flat_view, name)
                    if not np.array_equal(a, b):
                        worst = _max_abs_diff(a, b)
                        diffs[key] = max(diffs[key], worst)
                        failures.append(
                            f"async {phase} view {index}: {name} differs from the "
                            f"flat batch (max diff {worst:.3e})"
                        )
                if not np.array_equal(
                    async_view.fragments_per_pixel, flat_view.fragments_per_pixel
                ):
                    failures.append(
                        f"async {phase} view {index}: fragment counts differ "
                        "from the flat batch"
                    )

        # Phase 1: no speculation — plain batch, forward + fused backward.
        flat = batch_through(flat_engine)
        plain = batch_through(async_engine)
        compare_forward(plain, flat, "plain", "async_image")
        losses = [
            self._loss_arrays(spec, view.image.shape, view.depth.shape, salt=61 + index)
            for index, view in enumerate(flat.views)
        ]
        flat_grads = flat_engine.backward_batch(
            flat,
            spec.cloud,
            [dL_dimage for dL_dimage, _ in losses],
            [dL_ddepth for _, dL_ddepth in losses],
            compute_pose_gradient=True,
        )
        async_grads = async_engine.backward_batch(
            plain,
            spec.cloud,
            [dL_dimage for dL_dimage, _ in losses],
            [dL_ddepth for _, dL_ddepth in losses],
            compute_pose_gradient=True,
        )
        for name in GRADIENT_FIELDS:
            a = np.asarray(getattr(async_grads.cloud, name))
            b = np.asarray(getattr(flat_grads.cloud, name))
            if not np.array_equal(a, b):
                worst = _max_abs_diff(a, b)
                diffs["async_grad"] = max(diffs["async_grad"], worst)
                failures.append(
                    f"async batch: gradient {name} differs from the flat batch "
                    f"(max diff {worst:.3e})"
                )
        if not np.array_equal(
            async_grads.per_view_pose_twists, flat_grads.per_view_pose_twists
        ):
            failures.append(
                "async batch: per-view pose twists differ from the flat batch"
            )

        # Phase 2: speculate -> consume.
        handle = speculate(async_engine)
        consumed = batch_through(async_engine)
        if handle is None or not handle.consumed:
            failures.append(
                "async speculate->consume: speculative plan was not consumed "
                f"(status {handle.status if handle else 'none'})"
            )
        compare_forward(consumed, flat, "speculated", "async_image")
        async_engine.release()

        # Phase 3: mutate between speculation and render — must discard.
        handle = speculate(async_engine)
        spec.cloud.bump_epoch()  # content-free epoch bump: caches/speculation stale
        discarded = batch_through(async_engine)
        if handle is not None and handle.status != "discarded":
            failures.append(
                "async invalidation: epoch bump did not discard the "
                f"speculative plan (status {handle.status})"
            )
        compare_forward(discarded, flat, "post-discard", "async_image")
        async_engine.release()

        # Phase 4: drain() barrier.
        handle = speculate(async_engine)
        async_engine.drain()
        if handle is not None and handle.status != "drained":
            failures.append(
                f"async drain: handle not drained (status {handle.status})"
            )
        drained = batch_through(async_engine)
        compare_forward(drained, flat, "post-drain", "async_image")
        async_engine.release()

        if self.fault_schedule:
            failures.extend(self._verify_async_faulted(spec, flat, diffs))
        failures.extend(self._verify_async_cached(spec, diffs))
        flat_engine.release()
        return diffs, failures

    def _verify_async_faulted(self, spec: SceneSpec, flat, diffs) -> list[str]:
        """Speculate -> consume under injected faults: still bitwise to flat.

        The speculation thread dispatches over the pool while the fault plan
        is active, so injected worker deaths/hangs/poisons hit the
        speculative path itself; the self-healing dispatch must deliver a
        bit-identical batch through the consume anyway.
        """
        from repro.engine import fault_plan

        failures: list[str] = []
        engine = RenderEngine(
            EngineConfig(
                backend=self.async_backend,
                geom_cache=False,
                shard_workers=self.n_shard_workers,
                shard_deadline_s=self.fault_deadline_s,
                shard_backoff_s=1.0,
            )
        )
        poses = spec.view_poses(self.n_batch_views)
        cameras = [spec.camera] * self.n_batch_views
        backgrounds = [spec.background] * self.n_batch_views
        with fault_plan(self.fault_schedule):
            handle = engine.speculate_batch(
                spec.cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )
            faulted = engine.render_batch(
                spec.cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )
        if handle is not None and not handle.consumed:
            failures.append(
                "async fault phase: speculative plan was not consumed "
                f"(status {handle.status})"
            )
        for index, (faulted_view, flat_view) in enumerate(zip(faulted.views, flat.views)):
            for name in ("image", "depth", "alpha"):
                a = getattr(faulted_view, name)
                b = getattr(flat_view, name)
                if not np.array_equal(a, b):
                    worst = _max_abs_diff(a, b)
                    diffs["async_fault"] = max(diffs["async_fault"], worst)
                    failures.append(
                        f"async fault phase view {index}: {name} differs from "
                        f"the healthy flat batch (max diff {worst:.3e})"
                    )
        engine.release()
        engine.drain()
        return failures

    def _verify_async_cached(self, spec: SceneSpec, diffs) -> list[str]:
        """Speculate -> consume with exact-configuration caches on both sides.

        Two rounds (a miss round, then a speculated round over warm caches):
        the async engine's worker-resident cache entries are keyed by the
        same cloud epochs the flat parent cache uses, so in exact mode both
        sides must stay bit-identical regardless of which tier served them.
        """
        failures: list[str] = []
        async_cached = RenderEngine(
            EngineConfig(
                backend=self.async_backend,
                geom_cache=True,
                shard_workers=self.n_shard_workers,
                **_EXACT_ENGINE_CACHE,
            )
        )
        flat_cached = RenderEngine(
            EngineConfig(
                backend=self.candidate_backend, geom_cache=True, **_EXACT_ENGINE_CACHE
            )
        )
        poses = spec.view_poses(self.n_batch_views)
        cameras = [spec.camera] * self.n_batch_views
        backgrounds = [spec.background] * self.n_batch_views

        def batch_through(engine: RenderEngine):
            return engine.render_batch(
                spec.cloud,
                cameras,
                poses,
                backgrounds=backgrounds,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
            )

        for round_label in ("miss", "warm"):
            if round_label == "warm":
                handle = async_cached.speculate_batch(
                    spec.cloud,
                    cameras,
                    poses,
                    backgrounds=backgrounds,
                    tile_size=spec.tile_size,
                    subtile_size=spec.subtile_size,
                )
            else:
                handle = None
            async_batch = batch_through(async_cached)
            flat_batch = batch_through(flat_cached)
            if round_label == "warm" and handle is not None and not handle.consumed:
                failures.append(
                    "async cached warm round: speculative plan was not "
                    f"consumed (status {handle.status})"
                )
            for index, (async_view, flat_view) in enumerate(
                zip(async_batch.views, flat_batch.views)
            ):
                for name in ("image", "depth", "alpha"):
                    a = getattr(async_view, name)
                    b = getattr(flat_view, name)
                    if not np.array_equal(a, b):
                        worst = _max_abs_diff(a, b)
                        diffs["async_cached"] = max(diffs["async_cached"], worst)
                        failures.append(
                            f"async cached {round_label} round view {index}: "
                            f"{name} differs from the flat cached batch "
                            f"(max diff {worst:.3e})"
                        )
            async_cached.release(async_batch)
            flat_cached.release(flat_batch)
        async_cached.drain()
        async_cached.invalidate_cache()
        flat_cached.invalidate_cache()
        return failures

    def verify_service(self, spec: SceneSpec) -> tuple[dict[str, float], list[str]]:
        """Pin interleaved service sessions bitwise against solo engines.

        Opens ``n_service_sessions`` sessions on one :class:`RenderService`
        (round quantum 2, so every round is a genuine sub-batch over the
        shared pool), submits every session's ``n_service_views``-view job
        *before* consuming any result — the weighted-fair scheduler then
        truly interleaves the tenants — and requires each session's stitched
        batch to be **bit-identical**, forward and fused backward, to a solo
        private engine rendering the same window.  The cached variant runs
        the same tenants with per-session exact-configuration geometry caches
        (a miss round then a hit round; the parent-resident cached path is
        bitwise against uncached by the cache phase's guarantee), and a
        ``fault_schedule`` adds a run under injected faults compared against
        the healthy solo batches.  Each batch must also carry its session's
        id on the attribution.
        """
        diffs = {
            "service_image": 0.0,
            "service_grad": 0.0,
            "service_cached_image": 0.0,
            "service_cached_grad": 0.0,
            "service_fault": 0.0,
            "service_fault_events": 0.0,
        }
        failures: list[str] = []
        if self.n_service_sessions <= 0 or self.sharded_backend not in REGISTRY:
            return diffs, failures
        from repro.service import RenderService

        n_sessions = self.n_service_sessions
        n_views = self.n_service_views
        # Overlapping per-session windows: distinct poses per tenant catch
        # cross-session result contamination that identical windows would
        # mask, while every pose still comes from the scenario's orbit.
        poses_all = spec.view_poses(n_views + n_sessions - 1)
        windows = [poses_all[i : i + n_views] for i in range(n_sessions)]
        cameras = [spec.camera] * n_views
        batch_kwargs = dict(
            backgrounds=[spec.background] * n_views,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
        )

        solo_engine = self.engine_for(self.sharded_backend)
        solos = [
            solo_engine.render_batch(
                spec.cloud, cameras, window, **batch_kwargs, managed=False
            )
            for window in windows
        ]
        losses = [
            [
                self._loss_arrays(
                    spec, view.image.shape, view.depth.shape, salt=71 + 16 * s + v
                )
                for v, view in enumerate(solo.views)
            ]
            for s, solo in enumerate(solos)
        ]
        solo_grads = [
            solo_engine.backward_batch(
                solo,
                spec.cloud,
                [image for image, _ in loss],
                [depth for _, depth in loss],
                compute_pose_gradient=True,
            )
            for solo, loss in zip(solos, losses)
        ]

        def interleave(service: RenderService, label: str):
            sessions = [
                service.open_session(f"svc-{label}-{s}") for s in range(n_sessions)
            ]
            jobs = [
                session.submit(spec.cloud, cameras, window, **batch_kwargs)
                for session, window in zip(sessions, windows)
            ]
            return sessions, [job.result() for job in jobs]

        def compare(label, sessions, batches, image_key, grad_key) -> None:
            for s, (session, batch, solo) in enumerate(zip(sessions, batches, solos)):
                sharding = batch.sharding
                if sharding is None or sharding.session_id != session.session_id:
                    failures.append(
                        f"service {label} session {s}: attribution does not "
                        "carry its session id"
                    )
                for v, (view, solo_view) in enumerate(zip(batch.views, solo.views)):
                    for name in ("image", "depth", "alpha"):
                        a = getattr(view, name)
                        b = getattr(solo_view, name)
                        if not np.array_equal(a, b):
                            worst = _max_abs_diff(a, b)
                            diffs[image_key] = max(diffs[image_key], worst)
                            failures.append(
                                f"service {label} session {s} view {v}: {name} "
                                f"differs from the solo engine (max diff "
                                f"{worst:.3e})"
                            )
                    if not np.array_equal(
                        view.fragments_per_pixel, solo_view.fragments_per_pixel
                    ):
                        failures.append(
                            f"service {label} session {s} view {v}: fragment "
                            "counts differ from the solo engine"
                        )
                grads = session.backward_batch(
                    batch,
                    spec.cloud,
                    [image for image, _ in losses[s]],
                    [depth for _, depth in losses[s]],
                    compute_pose_gradient=True,
                )
                for name in GRADIENT_FIELDS:
                    a = np.asarray(getattr(grads.cloud, name))
                    b = np.asarray(getattr(solo_grads[s].cloud, name))
                    if not np.array_equal(a, b):
                        worst = _max_abs_diff(a, b)
                        diffs[grad_key] = max(diffs[grad_key], worst)
                        failures.append(
                            f"service {label} session {s}: gradient {name} "
                            f"differs from the solo engine (max diff "
                            f"{worst:.3e})"
                        )
                if not np.array_equal(
                    grads.per_view_pose_twists, solo_grads[s].per_view_pose_twists
                ):
                    failures.append(
                        f"service {label} session {s}: per-view pose twists "
                        "differ from the solo engine"
                    )

        # -- cache-off tenants over the shared pool ------------------------
        service = RenderService(
            EngineConfig(
                backend=self.sharded_backend,
                geom_cache=False,
                shard_workers=self.n_shard_workers,
            ),
            round_quantum=2,
        )
        sessions, batches = interleave(service, "pool")
        compare("pool", sessions, batches, "service_image", "service_grad")
        if not any(
            units < n_views for _sid, units in service.dispatch_log
        ) and n_sessions > 1:
            failures.append(
                "service pool: the dispatch log shows no sub-batch rounds — "
                "the sessions were not interleaved"
            )
        service.close()

        # -- cache-on tenants (parent-resident exact caches) ---------------
        service = RenderService(
            EngineConfig(
                backend=self.sharded_backend,
                geom_cache=True,
                shard_workers=self.n_shard_workers,
                **_EXACT_ENGINE_CACHE,
            ),
            round_quantum=2,
        )
        sessions, batches = interleave(service, "cached")
        for s, batch in enumerate(batches):
            statuses = [view.cache_status for view in batch.views]
            if statuses != ["miss"] * n_views:
                failures.append(
                    f"service cached session {s}: first-round statuses "
                    f"{statuses}, expected all misses"
                )
        # Exact-mode cached renders are bitwise against uncached, so the solo
        # uncached batches remain the reference.  compare() also runs the
        # backward, which consumes each session's arena claim and unblocks
        # the hit round below.
        compare("cached", sessions, batches, "service_cached_image", "service_cached_grad")
        jobs = [
            session.submit(spec.cloud, cameras, window, **batch_kwargs)
            for session, window in zip(sessions, windows)
        ]
        repeats = [job.result() for job in jobs]
        for s, batch in enumerate(repeats):
            statuses = [view.cache_status for view in batch.views]
            if statuses != ["hit"] * n_views:
                failures.append(
                    f"service cached session {s}: repeat-round statuses "
                    f"{statuses}, expected all hits"
                )
        compare(
            "cached-hit", sessions, repeats, "service_cached_image", "service_cached_grad"
        )
        service.close()

        # -- the same tenants under the fault schedule ----------------------
        if self.fault_schedule:
            from repro.engine import fault_plan

            service = RenderService(
                EngineConfig(
                    backend=self.sharded_backend,
                    geom_cache=False,
                    shard_workers=self.n_shard_workers,
                    shard_deadline_s=self.fault_deadline_s,
                    shard_backoff_s=1.0,
                ),
                round_quantum=2,
            )
            with fault_plan(self.fault_schedule):
                sessions, batches = interleave(service, "fault")
            for batch in batches:
                if batch.sharding is not None:
                    diffs["service_fault_events"] += float(
                        len(batch.sharding.fault_events)
                    )
            compare("fault", sessions, batches, "service_fault", "service_fault")
            service.close()
        return diffs, failures

    def run_scenario(self, scenario: Scenario) -> ScenarioReport:
        """Render + backprop ``scenario`` through both backends and compare."""
        spec = scenario.build()
        reference, candidate = self.render_pair(spec)
        grads_ref, grads_cand = self.backward_pair(spec, reference, candidate)
        batch_diffs, batch_failures = self.verify_batch(spec, base_render=candidate)
        cache_diffs, cache_failures = self.verify_cache(spec)
        engine_diffs, engine_failures = self.verify_engine(spec)
        sharded_diffs, sharded_failures = self.verify_sharded(spec)
        async_diffs, async_failures = self.verify_async(spec)
        service_diffs, service_failures = self.verify_service(spec)

        image_diff = _max_abs_diff(reference.image, candidate.image)
        depth_diff = _max_abs_diff(reference.depth, candidate.depth)
        alpha_diff = _max_abs_diff(reference.alpha, candidate.alpha)
        fragments_equal = np.array_equal(
            reference.fragments_per_pixel, candidate.fragments_per_pixel
        )
        subtile_equal = np.array_equal(
            reference.fragments_per_subtile(), candidate.fragments_per_subtile()
        )
        gradient_diffs = {
            name: _max_abs_diff(
                np.asarray(getattr(grads_ref, name)), np.asarray(getattr(grads_cand, name))
            )
            for name in GRADIENT_FIELDS
        }

        failures: list[str] = []
        for label, value in (("image", image_diff), ("depth", depth_diff), ("alpha", alpha_diff)):
            if not value <= self.forward_tol:
                failures.append(
                    f"{label} diff {value:.3e} exceeds forward tolerance {self.forward_tol:.1e}"
                )
        if not fragments_equal:
            failures.append("per-pixel fragment counts differ")
        if not subtile_equal:
            failures.append("per-subtile fragment counts differ")
        for name, value in gradient_diffs.items():
            if not value <= self.grad_tol:
                failures.append(
                    f"gradient {name} diff {value:.3e} exceeds tolerance {self.grad_tol:.1e}"
                )
        if reference.n_fragments != candidate.n_fragments:
            failures.append(
                f"total fragment count differs: {reference.n_fragments} vs {candidate.n_fragments}"
            )
        failures.extend(batch_failures)
        failures.extend(cache_failures)
        failures.extend(engine_failures)
        failures.extend(sharded_failures)
        failures.extend(async_failures)
        failures.extend(service_failures)

        return ScenarioReport(
            name=scenario.name,
            n_fragments=reference.n_fragments,
            image_diff=image_diff,
            depth_diff=depth_diff,
            alpha_diff=alpha_diff,
            fragments_equal=fragments_equal,
            subtile_fragments_equal=subtile_equal,
            gradient_diffs=gradient_diffs,
            batch1_image_diff=batch_diffs["batch1_image"],
            batch1_gradient_diff=batch_diffs["batch1_grad"],
            batch_image_diff=batch_diffs["batch_image"],
            batch_gradient_diff=batch_diffs["batch_grad"],
            cache_image_diff=cache_diffs["cache_image"],
            cache_gradient_diff=cache_diffs["cache_grad"],
            engine_image_diff=engine_diffs["engine_image"],
            engine_gradient_diff=engine_diffs["engine_grad"],
            sharded_image_diff=sharded_diffs["sharded_image"],
            sharded_gradient_diff=sharded_diffs["sharded_grad"],
            async_image_diff=async_diffs["async_image"],
            async_gradient_diff=async_diffs["async_grad"],
            async_fault_diff=async_diffs["async_fault"],
            async_cached_diff=async_diffs["async_cached"],
            fault_image_diff=sharded_diffs["fault_image"],
            fault_gradient_diff=sharded_diffs["fault_grad"],
            fault_events=int(sharded_diffs["fault_events"]),
            service_image_diff=service_diffs["service_image"],
            service_gradient_diff=service_diffs["service_grad"],
            service_cached_image_diff=service_diffs["service_cached_image"],
            service_cached_gradient_diff=service_diffs["service_cached_grad"],
            service_fault_diff=service_diffs["service_fault"],
            service_fault_events=int(service_diffs["service_fault_events"]),
            failures=failures,
        )

    def run_all(self, library: ScenarioLibrary | None = None) -> list[ScenarioReport]:
        """Run every scenario of ``library`` (the default library if ``None``)."""
        return [self.run_scenario(s) for s in (library or DEFAULT_LIBRARY)]

    def assert_all(self, library: ScenarioLibrary | None = None) -> list[ScenarioReport]:
        """Like :meth:`run_all`, but raises ``AssertionError`` on any failure."""
        reports = self.run_all(library)
        failed = [r for r in reports if not r.passed]
        if failed:
            lines = [f"{r.name}: {'; '.join(r.failures)}" for r in failed]
            raise AssertionError(
                "differential verification failed:\n  " + "\n  ".join(lines)
            )
        return reports
