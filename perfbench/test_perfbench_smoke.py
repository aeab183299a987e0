"""Smoke test of the benchmark itself, at mesh sizes n <= 2."""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
from workloads import COMMANDS, END_TO_END, LAYERS, PER_LAYER, WORKLOADS  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0",
         "--scale", "smoke", *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines):
    """``metric <name> <value> <unit>`` lines as {name: unit}."""
    return {
        parts[1]: parts[3]
        for parts in (line.split() for line in lines)
        if parts[0] == "metric"
    }


@pytest.mark.parametrize("workload", ["diffusion-variants", "dar-diagnose"])
def test_traced_run_prints_every_metric_with_its_unit(workload):
    lines, result = _bench("--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == PER_LAYER[name]
        assert isinstance(entry["value"], (int, float))
    printed = _printed(lines)
    for name, unit in END_TO_END.items():
        assert printed[name] == unit
    for command in WORKLOADS[workload]["commands"]:
        assert printed[f"{command}_s"] == "s"
    assert "fail_ratio" in printed
    assert sum(line.startswith("overhead ") for line in lines) == len(END_TO_END)


def test_untraced_run_reports_end_to_end_metrics_and_ratios():
    lines, result = _bench("--workload", "ar-sweep", "--trace", "0")
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("ratio et_s/dg_s ") for line in lines)
    assert any(line.startswith("ratio l2error(et)/l2error(dg) ") for line in lines)


def test_wrong_reference_value_counts_as_failure():
    wrong = json.loads(json.dumps(REFERENCE))
    row = wrong["smoke"]["ar-sweep"]["dg"]["rows"][-1]
    row[5] = repr(float(row[5]) * 1.001)
    result = worker.run_worker("ar-sweep", "smoke", 0, seed=1, reference=wrong)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    right = worker.run_worker("ar-sweep", "smoke", 0, seed=1, reference=REFERENCE)
    assert right["failed"] == 0


def _traced(workload):
    tracer = tracer_mod.Tracer()
    try:
        result = worker.run_worker(workload, "smoke", 0, seed=2, tracer=tracer,
                                   reference=REFERENCE)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0
    return tracer, result


def test_child_spans_lie_inside_their_parents_and_counts_repeat():
    tracer, first = _traced("diffusion-variants")
    spans = tracer.spans
    assert len(spans) > 100
    for name, start, end, parent, command in spans:
        assert start <= end
        if parent >= 0:
            p_name, p_start, p_end, _, p_command = spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert command == p_command
    _, second = _traced("diffusion-variants")
    counts = [q for q, (unit, _) in LAYERS.items() if unit == "count"]
    for command in first["layers"][0]:
        a, b = first["layers"][0][command], second["layers"][0][command]
        assert {q: a[q] for q in counts} == {q: b[q] for q in counts}
    assert first["layers"][0]["etbox"]["local_ops.element_calls"] > 0
    assert first["layers"][0]["dg"]["solver.factorizations"] > 0


def test_missing_hook_target_warns_and_drops_its_metrics():
    tracer = tracer_mod.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer._hook("mesh", "no_such_function", "mesh.build_structured_mesh")
    assert any("no_such_function" in str(w.message) for w in caught)
    assert tracer._patches == []
    tracer.command = "0:dg"
    tracer.add("dg_forms.nnz", 1)
    values = tracer.layer_values()["0:dg"]
    assert "mesh.build_s" not in values
    assert "cli.self_s" in values


def test_every_layer_metric_names_a_known_command():
    assert len(PER_LAYER) <= 128
    for name in PER_LAYER:
        assert name.startswith("trace.overhead.") or name.rsplit(".", 1)[1] in COMMANDS
