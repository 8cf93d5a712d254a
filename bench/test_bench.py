"""Smoke test for the benchmark itself, at a 30 s simulated horizon.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json

import pytest

import run  # bench/run.py; puts the checkout's src/ on sys.path
import layers
import workloads

HORIZON_S = 30.0
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ZERO_ON_BASELINE = ("envelope.", "trustproto.", "node.control_calls.")


@pytest.fixture(scope="module")
def traced():
    """Layer results for every workload, with the bindings seen before tracing."""
    before = {}
    for _, target, _ in layers.ENTRY_POINTS:
        owner, attr = layers._resolve(target)
        before[target] = vars(owner)[attr]
    results = {
        name: run.measure_layers(workloads.traced_part(workloads.make(name, 1, HORIZON_S)))[0]
        for name in workloads.NAMES
    }
    return before, results


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_declared_metrics_match_the_script():
    declared = {e["name"]: (e["unit"], e["better"]) for e in DECLARED["end_to_end"]}
    assert declared == {k: (u, b) for k, (u, b, gated) in run.END_TO_END.items() if gated}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_prints_every_declared_metric_with_its_unit(name):
    result, notes = run.measure_end_to_end(workloads.make(name, 1, HORIZON_S), seconds=0.01)
    assert result["correct"], notes
    assert result["failed"] == 0 and result["attempted"] == len(workloads.make(name, 1).configs)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(DECLARED["end_to_end"])
    assert all(result["metrics"][k]["value"] > 0 for k in ("wall_s", "setup_s", "peak_rss_mb"))
    for metric, (unit, _, _) in run.END_TO_END.items():
        assert any(f" {metric} " in line and f" {unit} " in line for line in notes), metric


def test_traced_run_prints_every_layer_metric_with_its_unit(traced):
    _, results = traced
    for result in results.values():
        assert result["correct"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _units(DECLARED["per_layer"])


def test_baseline_matrix_bypasses_the_control_plane(traced):
    _, results = traced
    baseline = results["baseline_matrix"]["metrics"]
    zeroed = [k for k in baseline if k.startswith(ZERO_ON_BASELINE)]
    assert len(zeroed) > 10
    assert all(baseline[k]["value"] == 0 for k in zeroed), {k: baseline[k] for k in zeroed}
    assert baseline["experiment.runs"]["value"] == len(
        workloads.traced_part(workloads.make("baseline_matrix", 1)).configs)
    for name in ("connected_proposed", "scale_200"):
        metrics = results[name]["metrics"]
        assert metrics["envelope.verify_calls"]["value"] > 0
        assert metrics["trustproto.cert_verify_calls"]["value"] > 0
        assert metrics["experiment.runs"]["value"] == 0


def test_wrappers_are_restored_after_the_traced_run(traced):
    before, _ = traced
    for target, original in before.items():
        owner, attr = layers._resolve(target)
        assert vars(owner)[attr] is original, target


def test_missing_entry_point_is_reported_not_zeroed():
    bogus = ("simulation.send_control", "manetguard.simulation:Simulation.no_such_method", None)
    points = tuple(p for p in layers.ENTRY_POINTS if not p[0].startswith("simulation."))
    tracer = layers.Tracer(points + (bogus,))
    tracer.install()
    tracer.restore()
    assert tracer.missing == ["manetguard.simulation:Simulation.no_such_method"]
    assert not tracer.verify_restored()
    metrics, unavailable = layers.layer_metrics(tracer, {"control_messages": 0, "overhead_s": 0.0})
    assert "simulation.ctrl_send_calls" in unavailable
    assert "simulation.ctrl_send_calls" not in metrics
    assert "simulation.reduce_s" in unavailable
    assert "engine.events" in metrics
