"""Golden ``.npz`` fixtures pinning the reference rasterizer's outputs.

Each scenario of the default library has one committed fixture under
``src/repro/testing/goldens/`` holding the reference (tile loop) forward
outputs.  The golden tests re-render the scenario and compare against the
fixture, so any refactor of projection, sorting, tiling or compositing that
changes observable behaviour fails loudly instead of silently shifting every
downstream figure.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python -m repro.testing.regold

and commit the updated fixtures together with the change that motivated them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.gaussians.rasterizer import RenderResult, rasterize_tile
from repro.testing.scenarios import Scenario, SceneSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Committed goldens are compared with a small absolute tolerance rather than
# bitwise: BLAS/compiler differences across platforms legitimately perturb the
# last few ulps of the projection matmuls.
GOLDEN_ATOL = 1e-9


def golden_path(name: str, directory: Path | None = None) -> Path:
    return (directory or GOLDEN_DIR) / f"{name}.npz"


def render_reference(spec: SceneSpec) -> RenderResult:
    """Render ``spec`` with the reference tile loop (the golden source of truth)."""
    return rasterize_tile(
        spec.cloud,
        spec.camera,
        spec.pose_cw,
        background=spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
    )


def save_golden(scenario: Scenario, directory: Path | None = None) -> Path:
    """Render ``scenario`` with the reference tile loop and write its fixture."""
    result = render_reference(scenario.build())
    path = golden_path(scenario.name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        image=result.image,
        depth=result.depth,
        alpha=result.alpha,
        fragments_per_pixel=result.fragments_per_pixel,
        fragments_per_subtile=result.fragments_per_subtile(),
        n_fragments=np.int64(result.n_fragments),
    )
    return path


def load_golden(name: str, directory: Path | None = None) -> dict[str, np.ndarray]:
    path = golden_path(name, directory)
    if not path.exists():
        raise FileNotFoundError(
            f"no golden fixture for scenario {name!r} at {path}; "
            "run `PYTHONPATH=src python -m repro.testing.regold` to generate it"
        )
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def compare_to_golden(
    result: RenderResult, golden: dict[str, np.ndarray], atol: float = GOLDEN_ATOL
) -> list[str]:
    """Return a list of mismatch descriptions (empty when the render matches)."""
    failures: list[str] = []
    for key in ("image", "depth", "alpha"):
        current = getattr(result, key)
        expected = golden[key]
        if current.shape != expected.shape:
            failures.append(f"{key} shape {current.shape} != golden {expected.shape}")
            continue
        diff = float(np.max(np.abs(current - expected))) if expected.size else 0.0
        if not diff <= atol:
            failures.append(f"{key} drifted from golden by {diff:.3e} (atol {atol:.1e})")
    if not np.array_equal(result.fragments_per_pixel, golden["fragments_per_pixel"]):
        failures.append("per-pixel fragment counts differ from golden")
    if not np.array_equal(result.fragments_per_subtile(), golden["fragments_per_subtile"]):
        failures.append("per-subtile fragment counts differ from golden")
    if result.n_fragments != int(golden["n_fragments"]):
        failures.append(
            f"total fragments {result.n_fragments} != golden {int(golden['n_fragments'])}"
        )
    return failures
