"""Regenerate or verify the golden rasterizer fixtures.

Usage::

    PYTHONPATH=src python -m repro.testing.regold            # all scenarios
    PYTHONPATH=src python -m repro.testing.regold -s dense_random -s alpha_clamp
    PYTHONPATH=src python -m repro.testing.regold --check    # drift check (CI)

Without ``--check``, renders each scenario with the reference tile loop
and rewrites the ``.npz`` fixture under ``src/repro/testing/goldens/``.  Only
run this after an intentional change to rendering behaviour, and commit the
fixtures together with that change.

With ``--check``, nothing is written: each scenario is re-rendered and
compared against its committed fixture, and the command exits non-zero when a
fixture is missing, has drifted, or no longer corresponds to any scenario —
the CI golden-drift gate.
"""

from __future__ import annotations

import argparse

from repro.testing.golden import (
    GOLDEN_DIR,
    compare_to_golden,
    load_golden,
    render_reference,
    save_golden,
)
from repro.testing.scenarios import DEFAULT_LIBRARY


def check_goldens(names: list[str]) -> int:
    """Verify committed fixtures for ``names``; returns the number of failures."""
    failures = 0
    for name in names:
        scenario = DEFAULT_LIBRARY.get(name)
        try:
            golden = load_golden(name)
        except FileNotFoundError:
            print(f"[MISSING] {name}: no committed fixture under {GOLDEN_DIR}")
            failures += 1
            continue
        mismatches = compare_to_golden(render_reference(scenario.build()), golden)
        if mismatches:
            print(f"[DRIFT] {name}: " + "; ".join(mismatches))
            failures += 1
        else:
            print(f"[ok] {name}")

    # Fixtures that no longer correspond to any scenario are also drift: they
    # would silently stop being checked.
    if set(names) == set(DEFAULT_LIBRARY.names()):
        known = {f"{name}.npz" for name in names}
        for path in sorted(GOLDEN_DIR.glob("*.npz")):
            if path.name not in known:
                print(f"[ORPHAN] {path.name}: fixture has no matching scenario")
                failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.regold", description=__doc__
    )
    parser.add_argument(
        "-s",
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="regenerate only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available scenarios and exit"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify committed fixtures instead of rewriting them; "
        "exit 1 on missing, drifted or orphaned fixtures",
    )
    args = parser.parse_args(argv)

    if args.list:
        for scenario in DEFAULT_LIBRARY:
            print(f"{scenario.name:20s} {scenario.description}")
        return 0

    names = args.scenarios or DEFAULT_LIBRARY.names()
    try:
        scenarios = [DEFAULT_LIBRARY.get(name) for name in names]
    except KeyError as error:
        parser.error(str(error.args[0]))

    if args.check:
        failures = check_goldens(names)
        if failures:
            print(
                f"{failures} golden fixture(s) out of sync; regenerate with "
                "`PYTHONPATH=src python -m repro.testing.regold` and commit "
                "them with the change that moved them"
            )
            return 1
        print(f"{len(names)} golden fixture(s) match the reference renderer")
        return 0

    for scenario in scenarios:
        path = save_golden(scenario)
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent.parent.parent)}")
    print(f"{len(names)} golden fixture(s) regenerated under {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
