"""Tests for the repro.testing subsystem: scenarios, differential runner, goldens."""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import (
    DEFAULT_LIBRARY,
    GRADIENT_FIELDS,
    DifferentialRunner,
    Scenario,
    ScenarioLibrary,
    SceneSpec,
    compare_to_golden,
    load_golden,
    render_reference,
    save_golden,
)
from repro.testing.regold import main as regold_main


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


class TestDifferentialRunner:
    def test_all_default_scenarios_agree(self):
        # The acceptance gate of the flat backend: image/depth/alpha within
        # 1e-10 of the tile backend, gradients within 1e-8, fragment counts
        # exactly equal — on every scenario.
        reports = DifferentialRunner(forward_tol=1e-10, grad_tol=1e-8).assert_all()
        assert len(reports) == len(DEFAULT_LIBRARY)
        assert {r.name for r in reports} == set(DEFAULT_LIBRARY.names())
        # At least one scenario must carry a realistic fragment load.
        assert max(r.n_fragments for r in reports) > 10_000

    def test_report_summaries_are_printable(self):
        report = DifferentialRunner().run_scenario(DEFAULT_LIBRARY.get("single_gaussian"))
        assert "single_gaussian" in report.summary()
        assert report.passed
        assert set(report.gradient_diffs) == set(GRADIENT_FIELDS)

    def test_runner_detects_disagreement(self):
        # A runner with an impossible tolerance must fail on a non-trivial
        # scene — proving the harness actually compares something.
        runner = DifferentialRunner(forward_tol=-1.0)
        report = runner.run_scenario(DEFAULT_LIBRARY.get("dense_random"))
        assert not report.passed
        with pytest.raises(AssertionError, match="differential verification failed"):
            runner.assert_all()

    @pytest.mark.parametrize("name", DEFAULT_LIBRARY.names())
    def test_verify_engine_bit_identical_on_every_scenario(self, name):
        # Engine-mediated renders must equal the direct implementations
        # bitwise — both backends, cache on and off, miss and hit rounds.
        runner = DifferentialRunner()
        diffs, failures = runner.verify_engine(DEFAULT_LIBRARY.get(name).build())
        assert not failures, failures
        assert diffs["engine_image"] == 0.0
        assert diffs["engine_grad"] == 0.0


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
    reports = DifferentialRunner().assert_all(library)
    assert len(reports) == 1 and reports[0].passed
