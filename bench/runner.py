"""One workload in one process: ``python -m bench.runner --workload NAME ...``.

``python -m bench`` launches this module with pinned inputs (hash seed, BLAS
threads, no ``REPRO_*`` knobs).  It prints one JSON line on standard output:
the result object plus an ``info`` key the launcher strips.  The exit code is
non-zero when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import repro
from bench import RESULTS_DIR, ROOT, load_spec, metric_units
from bench.layers import TARGETS, layer_metrics
from bench.probe import probe_steps
from bench.tracer import Tracer
from bench.workloads import SHARD_WORKERS, make_workload

# Set-ups per timed run; set-up time is reported as their median.
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """This process's peak RSS plus the peak RSS of its live child processes."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = str(os.getpid())
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
            if stat.rsplit(")", 1)[1].split()[1] != me:
                continue
            for line in (entry / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    kilobytes += int(line.split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we read it
    return kilobytes / 1024.0


def tail_mean(values, share: float) -> float:
    """Mean of the slowest ``share`` of ``values``, the boundary item weighted fractionally.

    Unlike a single high percentile, it does not jump when the percentile
    falls between two clusters, such as tracking-only frames and keyframes.
    """
    ordered = np.sort(np.asarray(values, dtype=float))[::-1]
    count = share * len(ordered)
    whole = int(count)
    total = ordered[:whole].sum()
    if whole < len(ordered):
        total += (count - whole) * ordered[whole]
    return float(total / count)


def host_fingerprint() -> dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "shard_workers": SHARD_WORKERS,
    }


def _result(measurement, metrics: dict[str, float], units: dict[str, str], info: dict) -> dict:
    return {
        "correct": measurement.failed == 0 and not measurement.problems,
        "attempted": max(measurement.items, 1),
        "failed": measurement.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
        "info": info,
    }


def run_timed(workload, seconds: float, units: dict[str, str]) -> dict:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()  # tear the previous set-up down outside the timing
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    measurement = workload.measure(seconds)
    latencies_ms = np.asarray(measurement.latencies) * 1e3
    metrics = {
        "throughput_per_s": statistics.median(measurement.rates),
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_tail20_ms": tail_mean(latencies_ms, 0.2),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "samples": len(latencies_ms),
        "measured_s": measurement.seconds,
        "setups_s": setups,
        "ate_cm": measurement.totals["ate_cm"],
        "psnr_db": measurement.totals["psnr_db"],
        "problems": measurement.problems[:20],
    }
    return _result(measurement, metrics, units, info)


def run_traced(workload, seconds: float, units: dict[str, str], trace_path: Path) -> dict:
    """Half the time untraced, half traced on the same set-up, then the probe."""
    workload.setup()
    untraced = workload.measure(seconds / 2)
    tracer = Tracer(TARGETS)
    with tracer:
        traced = workload.measure(seconds / 2)
    probe = probe_steps(traced.probe_cloud, traced.probe_views)
    overhead = statistics.median(untraced.rates) / statistics.median(traced.rates) - 1.0
    values, missing = layer_metrics(
        tracer,
        traced.items,
        traced.totals,
        {**probe.metrics(), "bench.trace_overhead": overhead},
    )
    traced.items += untraced.items + probe.views
    traced.failed += untraced.failed + probe.mismatched
    traced.problems += untraced.problems
    if probe.mismatched:
        traced.problems.append(f"{probe.mismatched} probed views differ from the engine path")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    info = {
        "trace_file": str(trace_path),
        "spans": len(tracer.spans),
        "missing": missing,
        "problems": traced.problems[:20],
    }
    return _result(traced, values, units, info)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    results_dir: Path = RESULTS_DIR,
) -> dict:
    """Run workload ``name`` and return its result object (with ``info``).

    ``tiny`` shrinks the workload to a few frames or windows and
    ``results_dir`` receives the Chrome trace; the test suite sets both.
    """
    spec = load_spec()
    workload = make_workload(name, seed, tiny=tiny)
    try:
        if trace:
            path = results_dir / f"trace-{name}-seed{seed}.json"
            result = run_traced(workload, seconds, metric_units(spec, "per_layer"), path)
        else:
            result = run_timed(workload, seconds, metric_units(spec, "end_to_end"))
        result["info"].update(workload.info())
    finally:
        workload.close()
    result["info"].update(workload=name, seed=seed, trace=trace, host=host_fingerprint())
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not Path(repro.__file__).resolve().is_relative_to(source):
        # Benchmark the checkout's program, never an installed copy.
        parser.error(f"repro was imported from {repro.__file__}, not from {source}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
