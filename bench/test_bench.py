"""Checks of the benchmark itself: tiny workloads, declared names, tracer, digest."""

from __future__ import annotations

import importlib
import json
import time

import pytest

from bench import load_spec, metric_units
from bench.compare import verdict
from bench.layers import MOVES, OUTPUT_METRICS, SPAN_METRICS, TARGETS, layer_metrics
from bench.probe import ProbeResult
from bench.runner import run
from bench.tracer import Target, Tracer
from bench.workloads import make_workload, slam_digest

SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks_and_emits_every_declared_metric(workload, tmp_path):
    timed = run(workload, seed=0, seconds=0.0, trace=False, tiny=True)
    assert timed["correct"], timed["info"]["problems"]
    assert timed["failed"] == 0 and timed["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in timed["metrics"].items()}
    assert emitted == metric_units(SPEC, "end_to_end")
    assert all(metric["value"] > 0 for metric in timed["metrics"].values())

    # The traced run re-checks every traced segment against the untraced one.
    traced = run(workload, seed=0, seconds=0.0, trace=True, tiny=True, results_dir=tmp_path)
    assert traced["correct"], traced["info"]["problems"]
    emitted = {name: metric["unit"] for name, metric in traced["metrics"].items()}
    assert emitted == metric_units(SPEC, "per_layer")
    assert traced["info"]["missing"] == {}
    with open(traced["info"]["trace_file"]) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)


def test_declared_names_match_the_runner():
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    probe = set(ProbeResult([0.0] * 5, {}, 1, 0).metrics())
    computed = set(SPAN_METRICS) | set(OUTPUT_METRICS) | probe | {"bench.trace_overhead"}
    assert declared == set(MOVES) == computed
    assert {metric["name"] for metric in SPEC["end_to_end"]} == END_TO_END
    for moves in MOVES.values():
        for end_to_end, workloads in moves:
            assert end_to_end in END_TO_END
            assert set(workloads) <= set(WORKLOADS)


def _classes():
    return {
        (getattr(importlib.import_module(t.module), t.owner), t.method) for t in TARGETS
    }


def test_tracer_restores_every_wrapped_method_and_reports_missing_ones():
    before = {(owner, method): owner.__dict__.get(method) for owner, method in _classes()}
    gone = Target("repro.slam.tracking", "GradientTracker", "no_such_method", "slam.tracking")
    with Tracer(TARGETS + [gone]) as tracer:
        for (owner, method), original in before.items():
            assert owner.__dict__.get(method) is not original
    for (owner, method), original in before.items():
        assert owner.__dict__.get(method) is original
    assert not hasattr(importlib.import_module("repro.slam.tracking").GradientTracker,
                       "no_such_method")
    values, missing = layer_metrics(tracer, 1, {}, {})
    assert missing["slam.tracking.s"].startswith("missing:AttributeError")
    assert values["slam.tracking.s"] == 0.0


class _Layers:
    def outer(self):
        time.sleep(0.002)
        return self.inner()

    def inner(self):
        time.sleep(0.001)
        return 7


def test_spans_record_parents_and_self_time():
    targets = [
        Target(__name__, "_Layers", "outer", "outer"),
        Target(__name__, "_Layers", "inner", "inner"),
    ]
    with Tracer(targets) as tracer:
        assert _Layers().outer() == 7
    (outer,) = tracer.named("outer")
    (inner,) = tracer.named("inner")
    assert inner.parent == outer.id and outer.parent is None
    assert tracer.self_seconds("outer") == pytest.approx(outer.seconds - inner.seconds)
    assert json.loads(json.dumps(tracer.chrome_trace()))["traceEvents"][0]["name"] == "outer"


def test_slam_digest_is_deterministic_and_sensitive():
    workload = make_workload("photo_mapping", seed=0, tiny=True)
    workload.setup()
    first = workload.make_pipeline().run(workload.sequence)
    second = workload.make_pipeline().run(workload.sequence)
    assert slam_digest(first) == slam_digest(second)
    second.cloud.positions[0, 0] += 1e-12
    assert slam_digest(first) != slam_digest(second)


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.0, 10.1], "lower", "agree"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "regressed"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher", "improved"),
        ([10.0, 14.0, 7.0, 10.0], [10.0, 13.0, 8.0, 10.5], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert verdict(base, new, better, bound=0.1)[0] == expected
