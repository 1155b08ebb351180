"""Tests of the benchmark itself: span arithmetic, output checks, wrappers.

    python3 -m pytest perfbench/tests
"""

import copy
import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import jobs
import run
import spans

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_is_duration_minus_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    fake = SimpleNamespace()
    fake.inner = lambda: None
    fake.outer = lambda: (fake.inner(), fake.inner())
    tracer.wrap(fake, "inner", "inner")
    tracer.wrap(fake, "outer", "outer")

    fake.outer()  # outer 0..10 around inner 1..3 and inner 4..7

    summary = tracer.summary()
    assert summary["spans"]["outer"] == {
        "calls": 1, "total_s": 10.0, "self_s": 5.0, "max_s": 10.0}
    assert summary["spans"]["inner"] == {
        "calls": 2, "total_s": 5.0, "self_s": 5.0, "max_s": 3.0}
    assert summary["root_s"] == 10.0
    assert list(tracer.parent) == [-1, 0, 0]


def test_skipped_calls_are_counted_and_reraised():
    tracer = spans.Tracer()
    fake = SimpleNamespace(f=lambda: 1 / 0)
    tracer.wrap(fake, "f", "f", skip=(ZeroDivisionError,))
    with pytest.raises(ZeroDivisionError):
        fake.f()
    assert tracer.counts["f.skipped"] == 1
    assert tracer.summary()["spans"]["f"]["calls"] == 1
    assert tracer._stack == [-1]


def test_wrappers_are_removed_after_the_traced_run():
    targets = [(spans._resolve(m), attr) for m, attr, _ in spans.WRAPS]
    originals = [getattr(mod, attr) for mod, attr in targets]
    with spans.Tracer().install() as tracer:
        assert all(getattr(mod, attr) is not orig
                   for (mod, attr), orig in zip(targets, originals))
        summary = jobs.run("edgeless", jobs.load("edgeless"))
    assert [getattr(mod, attr) for mod, attr in targets] == originals
    assert jobs.mismatches(summary, jobs.expected("edgeless")) == []
    recorded = tracer.summary()["spans"]
    assert recorded["language"]["calls"] == 1
    assert recorded["graphs.canonical_form"]["calls"] > 0


def test_wrappers_are_removed_when_the_job_raises():
    language = importlib.import_module("graphsplice.language")
    original = language.language
    with pytest.raises(RuntimeError):
        with spans.Tracer().install():
            raise RuntimeError("job failed")
    assert language.language is original


def test_functions_the_program_lacks_are_listed_not_wrapped():
    tracer = spans.Tracer().install(wraps=[
        ("graphsplice.language", "no_such_function", "a"),
        ("graphsplice.no_such_module", "f", "b"),
    ])
    assert tracer.missing == ["graphsplice.language.no_such_function",
                              "graphsplice.no_such_module.f"]
    assert tracer._patches == []


@pytest.mark.parametrize("job", ["gap", "split", "triangle", "edgeless", "verify"])
def test_a_corrupted_expected_value_fails_the_check(job):
    want = jobs.expected(job)
    assert jobs.mismatches(copy.deepcopy(want), want) == []
    corrupted = copy.deepcopy(want)
    if job == "verify":
        corrupted["reports"]["regularity-preservation"][1] += 1
        assert jobs.mismatches(want, corrupted) == ["reports"]
    else:
        corrupted["raw_products"][-1] += 1
        assert jobs.mismatches(want, corrupted) == ["raw_products"]


def test_a_real_output_fails_a_corrupted_expectation():
    summary = jobs.run("edgeless", jobs.load("edgeless"))
    corrupted = dict(jobs.expected("edgeless"), classes=9)
    assert jobs.mismatches(summary, corrupted) == ["classes"]


def test_verify_pins_the_by_design_violation():
    want = jobs.expected("verify")
    statuses = {check: status for check, (status, _) in want["reports"].items()}
    assert statuses.pop("regularity-preservation") == "violated"
    assert set(statuses.values()) == {"verified"}
    assert want["reports"]["regularity-preservation"][1] == 7288
    assert (want["combos"], want["products_built"], want["iso_order_instances"]) == (
        52627, 129094, 18850)


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [m[:3] for m in spans.LAYER_METRICS]
    values = spans.layer_metrics(spans.merge([]), 1.0, 1.0)
    assert set(values) == {m[0] for m in spans.LAYER_METRICS}
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)


def test_a_job_over_budget_is_killed_and_fails(monkeypatch):
    monkeypatch.setattr(jobs, "JOB_BUDGET_S", 0.5)
    record = run.run_job("triangle", False, deadline=float("inf"))
    assert record["error"] == "timeout" and not record["ok"]
    assert record["wall_s"] < 5


def _record(backend):
    metrics = {"wall_s": {"value": 2.0, "unit": "s"}}
    return {"env": {"backend": backend, "workload": "verify", "trace": False},
            "result": {"metrics": metrics}}


def test_compare_refuses_results_from_different_backends():
    with pytest.raises(compare.Incomparable, match="backend"):
        compare.compare(_record("pure"), _record("compiled"))
    assert "wall_s" in compare.compare(_record("pure"), _record("pure"))[0]
