"""Command line: run workloads, or compare two result files.

    python -m bench [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
    python -m bench compare BASE.json NEW.json

Each workload runs in a fresh subprocess (``bench.runner``) with
``PYTHONHASHSEED=0``, one BLAS/OpenMP thread and every ``REPRO_*`` variable
removed.  The last line of standard output is one JSON object; with a single
workload it is exactly the runner's result (``correct``, ``attempted``,
``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from bench import ROOT, load_spec
from bench.compare import compare, format_rows, load_runs

# A run must end within 180 s; the runner gets slightly less.
CHILD_TIMEOUT_S = 170.0


def _child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a fresh process; its result, or ``None`` if it failed."""
    command = [
        sys.executable, "-m", "bench.runner",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group: the runner and its shard workers
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        output = ""
    finally:
        # Kill whatever is left of the group (nothing, after a clean exit),
        # then reap the runner.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = output.strip().splitlines()
    if not lines:
        print(f"bench: {workload} produced no result (exit {child.returncode})", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"bench: {workload} printed no JSON result", file=sys.stderr)
        return None


def _print_result(workload: str, result: dict) -> None:
    info = result.get("info", {})
    status = "ok" if result["correct"] else "FAILED"
    print(f"== {workload} (seed {info.get('seed')}, {status}: "
          f"{result['failed']} of {result['attempted']} failed)")
    for problem in info.get("problems", []):
        print(f"   check: {problem}")
    missing = info.get("missing", {})
    for name, metric in result["metrics"].items():
        value = missing.get(name, f"{metric['value']:.6g}")
        print(f"   {name:<40} {value:>14} {metric['unit']}")
    metrics = result["metrics"]
    if "gaussians.step1.share" in metrics:
        print("   step  measured  modelled (EdgeGPUModel)")
        for step in range(1, 6):
            measured = metrics[f"gaussians.step{step}.share"]["value"]
            modelled = metrics[f"hardware.modelled.step{step}.share"]["value"]
            print(f"   {step:>4}  {measured:>8.1%}  {modelled:>8.1%}")
    if "trace_file" in info:
        print(f"   trace: {info['trace_file']}")


def _append_records(path: str, records: list[dict]) -> None:
    existing = []
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
    with open(path, "w") as handle:
        json.dump(existing + records, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        rows = compare(spec, load_runs(args.base), load_runs(args.new))
        print(format_rows(rows))
        return 1 if any(word == "regressed" for _, cells in rows for _, word, _ in cells) else 0

    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="append each workload's record to this JSON list")
    args = parser.parse_args(argv)

    # A terminated launcher still stops its runner (see run_child's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = {}
    for workload in args.workload:
        result = run_child(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 2
        _print_result(workload, result)
        results[workload] = result
    if args.out:
        _append_records(
            args.out,
            [
                {"workload": name, "seed": args.seed, "trace": args.trace, "result": result}
                for name, result in results.items()
            ],
        )
    for result in results.values():
        result.pop("info", None)
    correct = all(result["correct"] for result in results.values())
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": correct,
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "workloads": {name: result["metrics"] for name, result in results.items()},
        }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
