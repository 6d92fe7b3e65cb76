"""The cross-backend scenario matrix: every cell individually, plus mechanics.

``test_matrix_cell`` parametrizes over every fast-tier cell of
:class:`repro.testing.matrix.ScenarioMatrix`, so each (scenario, backend,
cache, batch, mapping) point is an individually reportable test: executed
cells must match their direct reference — forward, backward and cache
statuses — within the cell's documented tolerance, and skipped cells must
carry a machine-readable reason (capability or availability) — an
unexplained skip is a failure, not a skip.

The mechanics tests pin the matrix subsystem itself: axis coverage (>= 10
scenarios x three backends x cache on/off), deterministic skip planning,
filter parsing, the markdown summary and the ``python -m repro.testing.matrix``
CLI.  The hypothesis property test closes the loop with the golden machinery:
*any* matrix scene — adversarial library included — round-trips through
``save_golden``/``load_golden``/``compare_to_golden`` (the same comparison
``regold --check`` runs) without drift.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.testing.golden import (
    compare_to_golden,
    load_golden,
    render_reference,
    save_golden,
)
from repro.testing.matrix import (
    AXES,
    MatrixCell,
    ScenarioMatrix,
    main,
    parse_filters,
    summarize,
    summary_table,
)
from repro.testing.scenarios import ADVERSARIAL_LIBRARY, DEFAULT_LIBRARY, matrix_library

# One module-level matrix: engines, scenario specs, reference renders and
# reference mapper runs are memoized across all parametrized cells.
MATRIX = ScenarioMatrix()
FAST_CELLS = MATRIX.cells(tier="fast")

SKIP_REASON = re.compile(r"^(capability|backend-unavailable):")

# The seeded fault schedule the CI chaos job runs the fast tier under.
CI_CHAOS_SCHEDULE = "random:20250807:0.25"


@pytest.mark.parametrize("cell", FAST_CELLS, ids=[cell.id for cell in FAST_CELLS])
def test_matrix_cell(cell):
    result = MATRIX.run_cell(cell)
    if result.status == "skip":
        assert result.skip_reason and SKIP_REASON.match(result.skip_reason), (
            f"unexplained or malformed skip for {cell.id}: {result.skip_reason!r}"
        )
        pytest.skip(result.skip_reason)
    assert result.passed, (
        f"{cell.id}: max diff {result.max_abs_diff:.3e} "
        f"(tolerance {result.tolerance:.1e}): " + "; ".join(result.failures)
    )


class TestMatrixCoverage:
    def test_required_axis_coverage(self):
        # Acceptance floor: >= 10 scenarios crossed with all three backends
        # and both cache settings, every combination enumerated.
        cells = MATRIX.cells(tier="all")
        scenarios = {cell.scenario for cell in cells}
        assert len(scenarios) >= 10
        assert scenarios >= set(DEFAULT_LIBRARY.names())
        assert scenarios >= set(ADVERSARIAL_LIBRARY.names())
        for backend in ("tile", "flat", "sharded"):
            for cache in ("off", "on"):
                covered = {
                    cell.scenario
                    for cell in cells
                    if cell.backend == backend and cell.cache == cache
                }
                assert covered == scenarios, f"{backend}/cache-{cache} misses scenarios"

    def test_every_scenario_has_executed_cells(self):
        # Each scenario must actually execute on flat (all 12 cells), the tile
        # reference (single render) and sharded (all 12 cells — cache-on
        # cells plan in the parent and rasterize on the pool).
        for name in matrix_library().names():
            executed = {
                (cell.backend, cell.cache, cell.batch, cell.mapping)
                for cell in MATRIX.cells(tier="all", filters={"scenario": {name}})
                if MATRIX.plan_cell(cell) is None
            }
            assert ("tile", "off", "single", "render") in executed
            assert sum(1 for key in executed if key[0] == "flat") == 12
            assert sum(1 for key in executed if key[0] == "sharded") == 12

    def test_no_unexplained_skips_anywhere(self):
        for cell in MATRIX.cells(tier="all"):
            reason = MATRIX.plan_cell(cell)
            if reason is not None:
                assert SKIP_REASON.match(reason), f"{cell.id}: malformed reason {reason!r}"

    def test_tier_partition(self):
        fast = {cell.scenario for cell in MATRIX.cells(tier="fast")}
        long = {cell.scenario for cell in MATRIX.cells(tier="long")}
        assert "long_trajectory" in long and "long_trajectory" not in fast
        assert fast and not (fast & long)
        everything = {cell.scenario for cell in MATRIX.cells(tier="all")}
        assert everything == fast | long


class TestSkipPlanning:
    def test_tile_batch_cells_skip_instead_of_silently_running_flat(self):
        reason = MATRIX.plan_cell(
            MatrixCell("single_gaussian", "tile", "off", "multi", "render")
        )
        assert reason is not None and reason.startswith("capability:no-batch-support")
        assert "silently substitute" in reason
        # Mapper and service cells render batches too.
        for mapping in ("mapper", "service"):
            reason = MATRIX.plan_cell(
                MatrixCell("single_gaussian", "tile", "off", "single", mapping)
            )
            assert reason is not None and reason.startswith("capability:no-batch-support")

    def test_cache_cells_skip_on_cacheless_backends(self):
        # Only the tile reference lacks cache support: the sharded backend
        # plans cached batches in the parent and rasterizes them on the pool,
        # so its cache-on cells execute instead of skipping.
        reason = MATRIX.plan_cell(
            MatrixCell("single_gaussian", "tile", "on", "single", "render")
        )
        assert reason is not None and reason.startswith("capability:no-cache-support")

    def test_sharded_cache_cells_execute(self):
        for batch in ("single", "multi"):
            cell = MatrixCell("single_gaussian", "sharded", "on", batch, "render")
            assert MATRIX.plan_cell(cell) is None, f"{cell.id} should execute"

    def test_underprovisioned_sharded_workers_skip_with_core_count(self):
        starved = ScenarioMatrix(shard_workers=1)
        reason = starved.plan_cell(
            MatrixCell("single_gaussian", "sharded", "off", "multi", "render")
        )
        assert reason is not None
        assert reason.startswith("backend-unavailable:workers:1<2")
        assert "cpu_count=" in reason

    def test_unknown_backend_skips_with_reason(self):
        exotic = ScenarioMatrix(backends=("flat", "cuda"))
        reason = exotic.plan_cell(
            MatrixCell("single_gaussian", "cuda", "off", "single", "render")
        )
        assert reason is not None and "unknown-backend" in reason


class TestFiltersAndReporting:
    def test_parse_filters(self):
        filters = parse_filters(["backend=sharded", "scenario=one_pixel,empty_cloud"])
        assert filters == {
            "backend": {"sharded"},
            "scenario": {"one_pixel", "empty_cloud"},
        }
        with pytest.raises(ValueError, match="key=value"):
            parse_filters(["backend"])
        with pytest.raises(ValueError, match="unknown filter axis"):
            parse_filters(["gpu=on"])

    def test_cells_honour_filters(self):
        cells = MATRIX.cells(
            tier="all", filters={"backend": {"sharded"}, "mapping": {"mapper"}}
        )
        assert cells
        assert all(
            cell.backend == "sharded" and cell.mapping == "mapper" for cell in cells
        )

    def test_cell_ids_are_stable_and_unique(self):
        ids = [cell.id for cell in MATRIX.cells(tier="all")]
        assert len(ids) == len(set(ids))
        assert "single_gaussian/sharded/cache-off/multi/render" in ids

    def test_summary_table_lists_every_cell(self):
        results = MATRIX.run(
            filters={"scenario": {"single_gaussian"}, "backend": {"flat", "tile"}}
        )
        table = summary_table(results)
        assert "| scenario | backend | cache |" in table
        assert "| mapping | status |" in table
        assert table.count("| single_gaussian |") == len(results)
        counts = summarize(results)
        assert counts["unexplained_skips"] == 0
        assert counts["pass"] > 0 and counts["fail"] == 0

    def test_summary_table_attributes_sharded_execution(self):
        # Sharded multi-view cells, cached or not, run on the pool and their
        # attribution names its workers; flat cells run in one process.
        results = MATRIX.run(
            filters={
                "scenario": {"single_gaussian"},
                "backend": {"flat", "sharded"},
                "batch": {"multi"},
                "mapping": {"render"},
            }
        )
        by_backend = {
            (result.cell.backend, result.cell.cache): result for result in results
        }
        for cache in ("off", "on"):
            flat = by_backend[("flat", cache)].to_json()["attribution"]
            assert flat["shard_workers"] == [1]
            sharded = by_backend[("sharded", cache)].to_json()["attribution"]
            assert sharded["shard_workers"] == [2]

    def test_cell_results_serialize(self):
        result = MATRIX.run_cell(
            MatrixCell("single_gaussian", "flat", "off", "single", "render")
        )
        payload = result.to_json()
        assert payload["status"] == "pass"
        assert payload["tolerance"] == 0.0
        assert payload["attribution"]["n_snapshots"] == 1
        json.dumps(payload)  # JSON-serializable end to end


class TestChaosSchedule:
    def test_every_cell_draws_its_own_stable_fault_seed(self):
        chaos = ScenarioMatrix(fault_schedule=CI_CHAOS_SCHEDULE)
        cells = chaos.cells(filters={"backend": {"sharded", "async"}})
        seeds = [chaos.fault_plan_for(cell).seed for cell in cells]
        assert len(set(seeds)) == len(cells)
        assert seeds == [chaos.fault_plan_for(cell).seed for cell in cells]
        assert ScenarioMatrix().fault_plan_for(cells[0]) is None

    def test_async_multi_view_cells_see_faults(self):
        # Async multi-view cells must actually be exercised by the chaos
        # schedule, not just pass because no fault ever fired in them.
        chaos = ScenarioMatrix(fault_schedule=CI_CHAOS_SCHEDULE)
        results = chaos.run(
            filters={
                "scenario": {"empty_cloud", "single_gaussian", "alpha_clamp"},
                "backend": {"async"},
                "batch": {"multi"},
                "mapping": {"render", "mapper"},
            }
        )
        executed = [result for result in results if result.status != "skip"]
        assert executed
        for result in executed:
            assert result.passed, f"{result.cell.id}: " + "; ".join(result.failures)
        assert sum(result.fault_events for result in executed) >= 1


class TestCLI:
    def test_cli_runs_a_filtered_slice(self, tmp_path, capsys):
        json_path = tmp_path / "matrix.json"
        markdown_path = tmp_path / "matrix.md"
        exit_code = main(
            [
                "--filter",
                "scenario=single_gaussian",
                "--filter",
                "backend=flat",
                "--json",
                str(json_path),
                "--markdown",
                str(markdown_path),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "0 failed" in printed and "0 unexplained" in printed
        cells = json.loads(json_path.read_text())
        assert len(cells) == 12  # flat executes every cache/batch/mapping combination
        assert all(cell["status"] == "pass" for cell in cells)
        assert markdown_path.read_text().startswith("**Scenario matrix**")

    def test_cli_list(self, capsys):
        assert main(["--list", "--tier", "all", "--filter", "backend=tile"]) == 0
        printed = capsys.readouterr().out
        assert "long_trajectory/tile/cache-off/single/render" in printed

    def test_cli_rejects_unknown_filter_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["--filter", "gpu=on"])
        assert "unknown filter axis" in capsys.readouterr().err

    def test_axes_constant_matches_cell_fields(self):
        assert set(AXES) == {"backend", "cache", "batch", "mapping"}


# -- golden round-trip property (satellite of the matrix harness) -------------
@given(name=st.sampled_from(sorted(matrix_library().names())))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_matrix_scene_roundtrips_through_golden_machinery(name):
    """Every matrix scene survives the exact ``regold --check`` comparison.

    Save a fresh fixture to a temporary directory, load it back, re-render
    with the reference backend and compare with the committed-golden
    tolerance: any nondeterminism in a scenario builder (adversarial library
    included, which has no committed fixtures) or any asymmetry in the
    save/load/compare machinery shows up as drift here.
    """
    scenario = matrix_library().get(name)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        save_golden(scenario, directory=directory)
        golden = load_golden(name, directory=directory)
        mismatches = compare_to_golden(render_reference(scenario.build()), golden)
        assert mismatches == [], f"{name}: {'; '.join(mismatches)}"
