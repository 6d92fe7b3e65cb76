"""Tests for the repro.testing subsystem: scenarios, the equivalence matrix, goldens."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import FlatBackend
from repro.testing import (
    DEFAULT_LIBRARY,
    MatrixCell,
    Scenario,
    ScenarioLibrary,
    ScenarioMatrix,
    SceneSpec,
    compare_to_golden,
    load_golden,
    render_reference,
    save_golden,
)
from repro.testing.regold import main as regold_main
from repro.testing.scenarios import matrix_library


class TestScenarioLibrary:
    def test_default_library_covers_required_scenarios(self):
        names = set(DEFAULT_LIBRARY.names())
        required = {
            "empty_cloud",
            "single_gaussian",
            "overlapping_opaque",
            "alpha_clamp",
            "offscreen_culling",
            "all_culled",
            "dense_random",
        }
        assert required <= names

    def test_scenarios_are_deterministic(self):
        scenario = DEFAULT_LIBRARY.get("dense_random")
        a, b = scenario.build(), scenario.build()
        np.testing.assert_array_equal(a.cloud.positions, b.cloud.positions)
        np.testing.assert_array_equal(a.cloud.colors, b.cloud.colors)
        result_a, result_b = render_reference(a), render_reference(b)
        np.testing.assert_array_equal(result_a.image, result_b.image)

    def test_view_orbit_poses_are_pairwise_distinct(self):
        """Scenarios without prescribed extra poses orbit the base view with
        one distinct, small perturbation per view."""
        specs = [scenario.build() for scenario in matrix_library()]
        orbiting = [spec for spec in specs if not spec.extra_view_poses]
        assert len(orbiting) == 16
        for spec in orbiting:
            matrices = [pose.matrix() for pose in spec.view_poses(6)]
            for i in range(len(matrices)):
                for j in range(i + 1, len(matrices)):
                    assert not np.array_equal(matrices[i], matrices[j]), (i, j)
            # A shrinking orbit: each view sits closer to the base than the last.
            offsets = [np.abs(m - matrices[0]).max() for m in matrices[1:]]
            assert offsets == sorted(offsets, reverse=True)
            assert offsets[0] < 0.2

    def test_duplicate_registration_rejected(self):
        library = ScenarioLibrary(list(DEFAULT_LIBRARY))
        with pytest.raises(ValueError, match="already registered"):
            library.register(DEFAULT_LIBRARY.get("empty_cloud"))

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(KeyError, match="available:"):
            DEFAULT_LIBRARY.get("nope")

    def test_scenarios_exercise_early_termination_and_clamp(self):
        result = render_reference(DEFAULT_LIBRARY.get("overlapping_opaque").build())
        assert any((~c.processed).any() for c in result.tile_caches), (
            "overlapping_opaque must trigger early termination"
        )
        result = render_reference(DEFAULT_LIBRARY.get("alpha_clamp").build())
        assert any(c.clamp_mask.any() for c in result.tile_caches), (
            "alpha_clamp must hit the 0.99 alpha clamp"
        )
        spec = DEFAULT_LIBRARY.get("offscreen_culling").build()
        result = render_reference(spec)
        assert 0 < result.projected.n_visible < len(spec.cloud)


class TestMatrixCatchesDefects:
    """A backend off by one ulp-scale nudge fails its cell: the matrix compares."""

    CELL = MatrixCell("dense_random", "flat", "off", "multi", "render")

    def test_perturbed_view_image_fails_its_cell(self, monkeypatch):
        render_batch = FlatBackend.render_batch

        def perturbed(self, request):
            batch = render_batch(self, request)
            image = batch.views[1].image
            image[image.shape[0] // 2, image.shape[1] // 2, 0] += 1e-12
            return batch

        monkeypatch.setattr(FlatBackend, "render_batch", perturbed)
        result = ScenarioMatrix().run_cell(self.CELL)
        assert result.status == "fail"
        assert any(failure.startswith("view 1: image") for failure in result.failures)
        assert 0.0 < result.max_abs_diff < 1e-11

    def test_perturbed_gradient_fails_its_cell(self, monkeypatch):
        backward_batch = FlatBackend.backward_batch

        def perturbed(self, *args, **kwargs):
            grads = backward_batch(self, *args, **kwargs)
            grads.cloud.colors[0, 0] += 1e-12
            return grads

        monkeypatch.setattr(FlatBackend, "backward_batch", perturbed)
        result = ScenarioMatrix().run_cell(self.CELL)
        assert result.status == "fail"
        assert any("fused gradient colors" in failure for failure in result.failures)
        # The forward outputs are untouched.
        assert not any("image" in failure for failure in result.failures)


class TestGoldens:
    @pytest.mark.parametrize("name", DEFAULT_LIBRARY.names())
    def test_render_matches_committed_golden(self, name):
        scenario = DEFAULT_LIBRARY.get(name)
        result = render_reference(scenario.build())
        golden = load_golden(name)
        failures = compare_to_golden(result, golden)
        assert not failures, (
            f"golden drift for {name}: {failures}; if the change is intentional, "
            "run `PYTHONPATH=src python -m repro.testing.regold` and commit the fixtures"
        )

    def test_missing_golden_has_actionable_error(self):
        with pytest.raises(FileNotFoundError, match="regold"):
            load_golden("does_not_exist")

    def test_save_golden_roundtrip(self, tmp_path):
        scenario = DEFAULT_LIBRARY.get("single_gaussian")
        path = save_golden(scenario, directory=tmp_path)
        assert path.exists()
        golden = load_golden("single_gaussian", directory=tmp_path)
        assert not compare_to_golden(render_reference(scenario.build()), golden)

    def test_compare_detects_drift(self):
        scenario = DEFAULT_LIBRARY.get("single_gaussian")
        result = render_reference(scenario.build())
        golden = load_golden("single_gaussian")
        golden = dict(golden)
        golden["image"] = golden["image"] + 1e-3
        failures = compare_to_golden(result, golden)
        assert any("image drifted" in f for f in failures)


class TestRegoldCLI:
    def test_list_option(self, capsys):
        assert regold_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "dense_random" in out

    def test_regold_single_scenario(self, tmp_path, monkeypatch, capsys):
        import repro.testing.golden as golden_mod
        import repro.testing.regold as regold_mod

        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", tmp_path)
        monkeypatch.setattr(regold_mod, "GOLDEN_DIR", tmp_path)
        assert regold_main(["-s", "one_pixel"]) == 0
        assert (tmp_path / "one_pixel.npz").exists()


def test_custom_scenario_through_runner():
    """The harness accepts user-defined scenarios, not just the built-ins."""
    from repro.gaussians import Camera, GaussianCloud, SE3

    def build():
        cloud = GaussianCloud.from_points(
            np.array([[0.0, 0.0, 0.5]]), np.array([[0.1, 0.9, 0.5]]), scale=0.1
        )
        return SceneSpec(
            cloud=cloud,
            camera=Camera.from_fov(12, 10, fov_x_degrees=60.0),
            pose_cw=SE3.identity(),
            background=np.zeros(3),
            tile_size=4,
            subtile_size=2,
        )

    library = ScenarioLibrary([Scenario("custom", "single splat, 4px tiles", build)])
    results = ScenarioMatrix(library=library, backends=("flat",)).run()
    assert {result.cell.scenario for result in results} == {"custom"}
    assert all(result.passed for result in results)
    assert len(results) == 12  # every cache/batch/mapping combination
