"""tools/bench_pairs.py: the run order of its pairs and its summary rows,
on made-up results (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(p50: float, ops: float) -> dict:
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


def test_order_flips_every_pair(tool):
    assert [tool.pair_order(i) for i in range(4)] == [
        ("base", "change"), ("change", "base"),
        ("base", "change"), ("change", "base")]


def test_directions_come_from_the_benchmark_spec(tool):
    better = tool.directions(TOOL_PATH.parents[1])
    assert better["op_p50_ms"] == "lower"
    assert better["ops_per_s"] == "higher"


def test_summary_counts_wins_in_each_metric_direction(tool):
    base = [(30.0, 33.0), (31.0, 32.0), (29.0, 34.0), (32.0, 31.0)]
    change = [(24.0, 41.0), (25.0, 40.0), (30.0, 33.0), (23.0, 42.0)]
    pairs = [{"base": result(*b), "change": result(*c)}
             for b, c in zip(base, change)]
    rows = {row[0]: row[1:] for row in tool.summarize(
        pairs, {"op_p50_ms": "lower", "ops_per_s": "higher"})}
    qb, qc, rel, won, resolved = rows["op_p50_ms"]
    assert qb[1] == 30.5 and qc[1] == 24.5
    assert rel == pytest.approx(-6.0 / 30.5)
    assert won == 3 and resolved  # gap 6.0 > base IQR 1.0
    qb, qc, rel, won, resolved = rows["ops_per_s"]
    assert won == 3 and resolved
    # a change that is worse is never "resolved" as a gain
    rows = {row[0]: row[1:] for row in tool.summarize(
        [{"base": p["change"], "change": p["base"]} for p in pairs],
        {"op_p50_ms": "lower", "ops_per_s": "higher"})}
    assert rows["op_p50_ms"][3] == 1 and not rows["op_p50_ms"][4]
