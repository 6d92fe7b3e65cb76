"""Equivalence and golden verification harness for the rendering pipeline.

This package is the repo's testing subsystem: deterministic render scenarios
(:mod:`repro.testing.scenarios`), golden ``.npz`` fixtures pinning the
reference outputs (:mod:`repro.testing.golden`, regenerated via
``python -m repro.testing.regold``), and the scenario matrix
(:mod:`repro.testing.matrix`, runnable via ``python -m repro.testing.matrix``)
— the one equivalence harness — which checks every scenario across the
backend/cache/batch/mapping axes against the direct implementations.
"""

from repro.testing.golden import (
    GOLDEN_ATOL,
    GOLDEN_DIR,
    compare_to_golden,
    golden_path,
    load_golden,
    render_reference,
    save_golden,
)
from repro.testing.scenarios import (
    ADVERSARIAL_LIBRARY,
    DEFAULT_LIBRARY,
    Scenario,
    ScenarioLibrary,
    SceneSpec,
    matrix_library,
)

# The matrix names resolve lazily so `python -m repro.testing.matrix` does not
# re-import the module it is executing (runpy's sys.modules warning) and the
# mapper-adjacent machinery stays off the import path until actually used.
_MATRIX_EXPORTS = (
    "AXES",
    "GRADIENT_FIELDS",
    "GRAD_TOL",
    "MatrixCell",
    "MatrixOptions",
    "ScenarioCellResult",
    "ScenarioMatrix",
    "summary_table",
)


def __getattr__(name: str):
    if name in _MATRIX_EXPORTS:
        from repro.testing import matrix

        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ADVERSARIAL_LIBRARY",
    "AXES",
    "DEFAULT_LIBRARY",
    "GOLDEN_ATOL",
    "GOLDEN_DIR",
    "GRADIENT_FIELDS",
    "GRAD_TOL",
    "MatrixCell",
    "MatrixOptions",
    "Scenario",
    "ScenarioCellResult",
    "ScenarioLibrary",
    "ScenarioMatrix",
    "SceneSpec",
    "compare_to_golden",
    "golden_path",
    "load_golden",
    "matrix_library",
    "render_reference",
    "save_golden",
    "summary_table",
]
