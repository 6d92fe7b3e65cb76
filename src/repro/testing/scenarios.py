"""Deterministic render scenarios for the scenario matrix and golden testing.

Every scenario is a fully reproducible scene (cloud + camera + pose +
background + tiling): building the same scenario twice yields bitwise
identical inputs, so renders are comparable across backends, across runs and
against committed golden fixtures.  The default :class:`ScenarioLibrary`
covers the rasterizer's behavioural corners:

* empty / all-culled clouds (no fragments at all),
* a single splat (the minimal compositing case),
* stacked opaque splats that trigger early termination,
* near-saturated opacities that hit the 0.99 alpha clamp,
* off-screen and behind-camera culling,
* dense random scenes (the realistic workload),
* degenerate tilings (single-tile image, 1x1-pixel image / 1x1 tiles,
  ragged tiles where the image is not a multiple of the tile size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.se3 import SE3


def _look_at_origin(distance: float = 2.0) -> SE3:
    return SE3.look_at(
        np.array([0.0, 0.0, -distance]), np.array([0.0, 0.0, 0.0]), up=(0, 1, 0)
    )


@dataclass(frozen=True)
class SceneSpec:
    """Everything :meth:`repro.engine.RenderEngine.render` needs for one render.

    ``extra_view_poses`` / ``extra_view_cameras`` let a scenario prescribe
    its *own* multi-view geometry (trajectory scenarios, mixed-resolution
    batches) instead of the default small-perturbation orbit; both default to
    empty, which preserves the historical single-camera behaviour bitwise.
    """

    cloud: GaussianCloud
    camera: Camera
    pose_cw: SE3
    background: np.ndarray
    tile_size: int = 16
    subtile_size: int = 4
    extra_view_poses: tuple[SE3, ...] = ()
    extra_view_cameras: tuple[Camera, ...] = ()

    def view_poses(self, n_views: int) -> list[SE3]:
        """Deterministic multi-view poses for batched-rasterizer testing.

        The first pose is the scenario's own.  When the scenario carries
        ``extra_view_poses`` (trajectory / aggressive-motion scenes) those are
        used, cycling if more views are requested than prescribed; otherwise
        subsequent poses apply small, fixed left perturbations (a shrinking
        orbit around the base view: view ``k`` halves view ``k - 1``'s
        twist), so every view is distinct and a batch over them exercises
        genuinely different projections while staying reproducible — the
        same property the single-view scenarios guarantee.
        """
        if self.extra_view_poses:
            pool = [self.pose_cw, *self.extra_view_poses]
            return [pool[k % len(pool)] for k in range(n_views)]
        poses = [self.pose_cw]
        twist = np.array([0.04, -0.03, 0.02, 0.05, -0.04, 0.03])
        for k in range(1, n_views):
            poses.append(SE3.exp(0.5 ** (k - 1) * twist) @ self.pose_cw)
        return poses

    def view_cameras(self, n_views: int) -> list[Camera]:
        """Per-view cameras matching :meth:`view_poses`.

        The base camera everywhere unless the scenario prescribes
        ``extra_view_cameras`` (the mixed-resolution workload), which cycle
        in after the base exactly like the extra poses do.
        """
        pool = [self.camera, *self.extra_view_cameras]
        return [pool[k % len(pool)] for k in range(n_views)]

    @property
    def n_prescribed_views(self) -> int:
        """Views this scenario natively describes (1 + prescribed extras)."""
        return 1 + max(len(self.extra_view_poses), len(self.extra_view_cameras))


@dataclass(frozen=True)
class Scenario:
    """A named, deterministic scene builder."""

    name: str
    description: str
    builder: Callable[[], SceneSpec]

    def build(self) -> SceneSpec:
        return self.builder()


class ScenarioLibrary:
    """Ordered registry of scenarios, addressable by name."""

    def __init__(self, scenarios: list[Scenario] | None = None):
        self._scenarios: dict[str, Scenario] = {}
        for scenario in scenarios or []:
            self.register(scenario)

    def register(self, scenario: Scenario) -> Scenario:
        if scenario.name in self._scenarios:
            raise ValueError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def add(self, name: str, description: str):
        """Decorator form of :meth:`register` for builder functions."""

        def wrap(builder: Callable[[], SceneSpec]) -> Scenario:
            return self.register(Scenario(name=name, description=description, builder=builder))

        return wrap

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return list(self._scenarios)

    def __iter__(self):
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)


DEFAULT_LIBRARY = ScenarioLibrary()


@DEFAULT_LIBRARY.add("empty_cloud", "zero Gaussians: background-only render, no fragments")
def _empty_cloud() -> SceneSpec:
    return SceneSpec(
        cloud=GaussianCloud.empty(),
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.2, 0.1, 0.3]),
    )


@DEFAULT_LIBRARY.add("single_gaussian", "one splat at the image centre")
def _single_gaussian() -> SceneSpec:
    cloud = GaussianCloud.from_points(
        np.array([[0.0, 0.0, 0.0]]),
        np.array([[0.9, 0.4, 0.2]]),
        scale=0.15,
        opacity=0.8,
    )
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.zeros(3),
    )


@DEFAULT_LIBRARY.add(
    "overlapping_opaque",
    "opaque splats stacked in depth: transmittance collapses, early termination",
)
def _overlapping_opaque() -> SceneSpec:
    n = 8
    points = np.zeros((n, 3))
    points[:, 2] = np.linspace(-0.3, 0.4, n)  # stacked along the view axis
    rng = np.random.default_rng(11)
    colors = rng.uniform(0.1, 0.9, size=(n, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.25, opacity=0.98)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.05, 0.05, 0.05]),
    )


@DEFAULT_LIBRARY.add(
    "alpha_clamp", "near-saturated opacity: raw alpha exceeds the 0.99 clamp"
)
def _alpha_clamp() -> SceneSpec:
    cloud = GaussianCloud.from_points(
        np.array([[0.0, 0.0, 0.0], [0.05, 0.02, 0.1]]),
        np.array([[0.8, 0.8, 0.2], [0.2, 0.6, 0.9]]),
        scale=0.3,
        opacity=0.9995,
    )
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.zeros(3),
    )


@DEFAULT_LIBRARY.add(
    "offscreen_culling",
    "mixture of visible, off-screen and behind-camera splats exercising culling",
)
def _offscreen_culling() -> SceneSpec:
    points = np.array(
        [
            [0.0, 0.0, 0.0],  # visible
            [0.3, -0.2, 0.1],  # visible
            [50.0, 0.0, 0.0],  # far off-screen laterally
            [0.0, 80.0, 0.0],  # far off-screen vertically
            [0.0, 0.0, -10.0],  # behind the camera
            [0.0, 0.0, -5.0],  # behind the camera
        ]
    )
    colors = np.linspace(0.1, 0.9, points.shape[0] * 3).reshape(-1, 3)
    cloud = GaussianCloud.from_points(points, colors, scale=0.12, opacity=0.7)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.0, 0.1, 0.0]),
    )


@DEFAULT_LIBRARY.add("all_culled", "every Gaussian behind the camera: nothing projects")
def _all_culled() -> SceneSpec:
    points = np.array([[0.0, 0.0, -8.0], [0.5, 0.2, -6.0], [-0.4, 0.1, -12.0]])
    colors = np.full((3, 3), 0.5)
    cloud = GaussianCloud.from_points(points, colors, scale=0.1, opacity=0.7)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.3, 0.3, 0.3]),
    )


@DEFAULT_LIBRARY.add("dense_random", "dense random cloud: the realistic mixed workload")
def _dense_random() -> SceneSpec:
    rng = np.random.default_rng(42)
    points = rng.uniform(-0.6, 0.6, size=(150, 3))
    points[:, 2] *= 0.4
    colors = rng.uniform(0.05, 0.95, size=(150, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.1, opacity=0.65)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(64, 48, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.1, 0.2, 0.3]),
    )


@DEFAULT_LIBRARY.add("single_tile", "image exactly one tile wide and tall")
def _single_tile() -> SceneSpec:
    rng = np.random.default_rng(5)
    points = rng.uniform(-0.3, 0.3, size=(12, 3))
    points[:, 2] *= 0.3
    colors = rng.uniform(0.1, 0.9, size=(12, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.12, opacity=0.7)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(16, 16, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.zeros(3),
        tile_size=16,
        subtile_size=4,
    )


@DEFAULT_LIBRARY.add("one_pixel", "1x1-pixel image with 1x1 tiles: the smallest grid")
def _one_pixel() -> SceneSpec:
    cloud = GaussianCloud.from_points(
        np.array([[0.0, 0.0, 0.0], [0.01, 0.01, 0.2]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        scale=0.2,
        opacity=0.8,
    )
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(1, 1, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.5, 0.5, 0.5]),
        tile_size=1,
        subtile_size=1,
    )


@DEFAULT_LIBRARY.add(
    "ragged_tiles", "image size not a multiple of the tile size: partial edge tiles"
)
def _ragged_tiles() -> SceneSpec:
    rng = np.random.default_rng(23)
    points = rng.uniform(-0.5, 0.5, size=(40, 3))
    points[:, 2] *= 0.3
    colors = rng.uniform(0.1, 0.9, size=(40, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.13, opacity=0.6)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(21, 13, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.0, 0.0, 0.2]),
        tile_size=8,
        subtile_size=4,
    )


# ---------------------------------------------------------------------------
# Adversarial library: the scenario-matrix growth set.
#
# These scenes extend the behavioural corners above with the workloads the
# cross-backend matrix (:mod:`repro.testing.matrix`) sweeps: near-degenerate
# Gaussians, sparse and trajectory-driven multi-view batches, mixed camera
# resolutions, and a churn scene whose mapper cells densify/prune mid-window.
# They live in their own library (not ``DEFAULT_LIBRARY``) so the committed
# golden fixtures keep their exact historical scope; :func:`matrix_library`
# merges both for matrix consumers.
# ---------------------------------------------------------------------------

ADVERSARIAL_LIBRARY = ScenarioLibrary()


@ADVERSARIAL_LIBRARY.add(
    "zero_opacity",
    "near-degenerate opacities: splats at the sigmoid floor contribute ~nothing",
)
def _zero_opacity() -> SceneSpec:
    rng = np.random.default_rng(31)
    points = rng.uniform(-0.4, 0.4, size=(20, 3))
    points[:, 2] *= 0.3
    colors = rng.uniform(0.1, 0.9, size=(20, 3))
    opacity = np.full(20, 1e-6)
    opacity[::7] = 0.7  # a few real splats so the render is not pure background
    cloud = GaussianCloud.from_points(points, colors, scale=0.12, opacity=opacity)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.1, 0.1, 0.1]),
    )


@ADVERSARIAL_LIBRARY.add(
    "collapsed_covariance",
    "near-collapsed 3D covariances: sub-pixel footprints stress the radius floors",
)
def _collapsed_covariance() -> SceneSpec:
    rng = np.random.default_rng(37)
    points = rng.uniform(-0.3, 0.3, size=(15, 3))
    points[:, 2] *= 0.3
    colors = rng.uniform(0.2, 0.9, size=(15, 3))
    scales = np.full(15, 1e-6)
    scales[::5] = 0.15  # mix collapsed and healthy footprints in one scene
    cloud = GaussianCloud.from_points(points, colors, scale=scales, opacity=0.8)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(32, 24, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.zeros(3),
    )


@ADVERSARIAL_LIBRARY.add(
    "sparse_wide", "a handful of splats scattered wide: mostly-empty tiles"
)
def _sparse_wide() -> SceneSpec:
    points = np.array(
        [
            [-0.9, -0.6, 0.1],
            [0.95, 0.55, 0.0],
            [0.0, 0.0, 0.3],
            [-0.8, 0.7, -0.1],
            [0.7, -0.75, 0.2],
        ]
    )
    colors = np.linspace(0.15, 0.9, 15).reshape(5, 3)
    cloud = GaussianCloud.from_points(points, colors, scale=0.08, opacity=0.75)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(72, 54, fov_x_degrees=85.0),
        pose_cw=_look_at_origin(2.4),
        background=np.array([0.02, 0.02, 0.05]),
    )


def _trajectory_spec(n_views: int, aggressive: bool, seed: int) -> SceneSpec:
    from repro.datasets.trajectory import scenario_trajectory

    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.55, 0.55, size=(80, 3))
    points[:, 2] *= 0.5
    colors = rng.uniform(0.1, 0.9, size=(80, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.11, opacity=0.65)
    poses = scenario_trajectory(n_views, aggressive=aggressive, seed=seed)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(40, 30, fov_x_degrees=70.0),
        pose_cw=poses[0],
        background=np.array([0.08, 0.12, 0.18]),
        extra_view_poses=tuple(poses[1:]),
    )


@ADVERSARIAL_LIBRARY.add(
    "long_trajectory",
    "12-view smooth orbit of one cloud: the long multi-view window workload",
)
def _long_trajectory() -> SceneSpec:
    return _trajectory_spec(n_views=12, aggressive=False, seed=43)


@ADVERSARIAL_LIBRARY.add(
    "aggressive_motion",
    "large rotations + positional jitter between views: projection/tiling churn",
)
def _aggressive_motion() -> SceneSpec:
    return _trajectory_spec(n_views=6, aggressive=True, seed=47)


@ADVERSARIAL_LIBRARY.add(
    "mixed_resolution",
    "one batch, three camera resolutions: per-view output shapes diverge",
)
def _mixed_resolution() -> SceneSpec:
    rng = np.random.default_rng(53)
    points = rng.uniform(-0.5, 0.5, size=(60, 3))
    points[:, 2] *= 0.4
    colors = rng.uniform(0.1, 0.9, size=(60, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.11, opacity=0.7)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(48, 36, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.05, 0.1, 0.05]),
        extra_view_cameras=(
            Camera.from_fov(24, 18, fov_x_degrees=70.0),
            Camera.from_fov(64, 44, fov_x_degrees=70.0),
        ),
    )


@ADVERSARIAL_LIBRARY.add(
    "camera_distortion",
    "anamorphic and decentered intrinsics: fx != fy, principal point off-centre",
)
def _camera_distortion() -> SceneSpec:
    # The rectified-crop proxy for lens distortion: real pipelines undistort
    # and crop, leaving anamorphic focal lengths (fx != fy) and a principal
    # point well away from the image centre.  The projection model stays
    # pinhole (the rasterizer's contract), but every x/y symmetry assumption
    # in projection, tiling and culling is broken per view.
    rng = np.random.default_rng(61)
    points = rng.uniform(-0.5, 0.5, size=(50, 3))
    points[:, 2] *= 0.4
    colors = rng.uniform(0.1, 0.9, size=(50, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.11, opacity=0.7)
    base = Camera.from_fov(40, 30, fov_x_degrees=70.0)
    return SceneSpec(
        cloud=cloud,
        camera=base,
        pose_cw=_look_at_origin(),
        background=np.array([0.06, 0.04, 0.1]),
        extra_view_cameras=(
            # Anamorphic: squeezed vertically, principal point pushed toward
            # the top-left quadrant (an off-centre rectified crop).
            Camera(40, 30, fx=base.fx, fy=0.6 * base.fy, cx=11.0, cy=7.5),
            # Stretched horizontally with the principal point near the
            # bottom-right corner: splats spill across the opposite tiles.
            Camera(40, 30, fx=1.45 * base.fx, fy=base.fy, cx=31.0, cy=24.0),
        ),
    )


@ADVERSARIAL_LIBRARY.add(
    "rolling_shutter",
    "per-row capture-time poses: one fast intra-frame motion sampled row by row",
)
def _rolling_shutter() -> SceneSpec:
    # Rolling-shutter proxy for a global-shutter rasterizer: a rolling
    # sensor captures each scanline at a slightly later time, so under fast
    # motion every row sees the scene from a different pose.  The rasterizer
    # renders rigid views only, so the scenario samples that intra-frame
    # trajectory instead — one prescribed view per row *band*, posed at the
    # band's capture time by interpolating a single fast twist on SE(3).
    # Batching the prescribed views is then exactly the per-row-band render
    # a rolling-shutter-aware pipeline would stitch, and the large pose
    # spread across an otherwise identical scene stresses the speculation
    # key (every view differs only by pose bytes) and the planner's tiling.
    rng = np.random.default_rng(67)
    points = rng.uniform(-0.5, 0.5, size=(70, 3))
    points[:, 2] *= 0.4
    colors = rng.uniform(0.1, 0.9, size=(70, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.11, opacity=0.7)
    base = _look_at_origin()
    # One readout's worth of motion: a strong yaw + lateral translation, the
    # classic rolling-shutter "wobble" direction.  Band k is captured at
    # normalised time t_k and posed at exp(t_k * twist) @ base, the constant
    # velocity interpolation between shutter open (t=0) and close (t=1).
    readout_twist = np.array([0.02, 0.22, 0.05, 0.12, -0.03, 0.04])
    n_bands = 6
    band_times = np.linspace(0.0, 1.0, n_bands)
    band_poses = tuple(
        SE3.exp(float(t) * readout_twist) @ base for t in band_times[1:]
    )
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(40, 30, fov_x_degrees=70.0),
        pose_cw=base,  # band 0: shutter open, t=0
        background=np.array([0.07, 0.09, 0.12]),
        extra_view_poses=band_poses,
    )


@ADVERSARIAL_LIBRARY.add(
    "densify_churn",
    "under-covered scene whose mapper cells densify and prune mid-window",
)
def _densify_churn() -> SceneSpec:
    rng = np.random.default_rng(59)
    # Deliberately under-covered (few, small splats) so mapping's coverage
    # densification fires, plus low-opacity splats the transparency prune
    # removes: matrix mapper cells on this scene mutate the cloud mid-window.
    points = rng.uniform(-0.4, 0.4, size=(12, 3))
    points[:, 2] *= 0.3
    colors = rng.uniform(0.2, 0.8, size=(12, 3))
    opacity = np.full(12, 0.7)
    opacity[::3] = 0.05
    cloud = GaussianCloud.from_points(points, colors, scale=0.07, opacity=opacity)
    return SceneSpec(
        cloud=cloud,
        camera=Camera.from_fov(36, 28, fov_x_degrees=70.0),
        pose_cw=_look_at_origin(),
        background=np.array([0.1, 0.05, 0.05]),
    )


def matrix_library() -> ScenarioLibrary:
    """The scenario-matrix sweep set: every default + every adversarial scene.

    Returns a fresh merged library so callers may register additional
    scenarios without mutating either source library.
    """
    return ScenarioLibrary(list(DEFAULT_LIBRARY) + list(ADVERSARIAL_LIBRARY))
