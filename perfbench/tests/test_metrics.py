"""The benchmark reports exactly the metrics BENCHMARK.json declares."""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _outcome(name: str, traced: bool, wall: float = 1.0) -> run.Outcome:
    return run.Outcome(name, wall, 1.5 * wall, 100.0, 0, [], traced)


def _trace_record(calls: int) -> dict:
    tracer = Tracer()
    for layer, _, _, name in TARGETS:
        tracer.wrap(layer, name, lambda: None)
    record = tracer.record()
    for name in record["calls"]:
        record["calls"][name] = calls
        record["self_s"][name] = 0.01 * calls
    record["counts"]["simplex.pivots"] = 10 * calls
    record["import_s"] = 0.3
    record["wall_s"] = 1.2
    return record


def test_end_to_end_names_and_units():
    outcomes = [_outcome("a", False, 1.0), _outcome("a", False, 3.0), _outcome("b", False)]
    metrics = run.end_to_end_metrics(outcomes, 0.3)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metrics["wall_s"][0] == 3.0          # median of a (2.0) plus b (1.0)
    assert metrics["ok_share"][0] == 1.0


def test_failed_command_lowers_ok_share():
    bad = run.Outcome("a", 1.0, 1.0, 1.0, 1, ["exit code 1"], False)
    metrics = run.end_to_end_metrics([bad, _outcome("a", False)], 0.3)
    assert metrics["ok_share"][0] == 0.5


def test_per_layer_names_and_units():
    passes = [[_trace_record(1)], [_trace_record(1)]]
    metrics, problems = run.layer_metrics("wellorder", passes, [_outcome("a", False)])
    assert problems == []
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert abs(metrics["trace.overhead_share"][0] - 0.2) < 1e-12


def test_silent_layer_and_unsteady_count_are_problems():
    passes = [[_trace_record(0)], [_trace_record(1)]]
    _, problems = run.layer_metrics("oracle", passes, [_outcome("a", False)])
    assert any("recorded no calls" in p for p in problems)
    assert any("simplex.pivots differs" in p for p in problems)
