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


def test_bounds_come_from_the_benchmark_spec(tool):
    limits = tool.end_to_end_bounds(TOOL_PATH.parents[1])
    assert limits["setup_s"] == 0.25 and limits["peak_rss_mb"] == 0.05
    assert "signals.derivative_ms" not in limits  # per-layer: no bound


def test_a_median_worse_by_more_than_its_bound_is_flagged(tool):
    # a 33 % rise of a lower-is-better metric against a 25 % bound
    base = [(0.30, 10.0), (0.31, 10.0), (0.29, 10.0), (0.30, 10.0)]
    change = [(0.40, 7.4), (0.41, 7.6), (0.39, 7.5), (0.40, 7.5)]
    pairs = [{"base": result(*b), "change": result(*c)}
             for b, c in zip(base, change)]
    better = {"op_p50_ms": "lower", "ops_per_s": "higher"}
    rows = {row[0]: row[1:3] for row in tool.summarize(pairs, better)}
    assert tool.past_bound(*rows["op_p50_ms"], "lower", 0.25)
    assert not tool.past_bound(*rows["op_p50_ms"], "lower", 0.40)
    # a higher-is-better metric that fell 25 %: past a 20 % bound only
    assert tool.past_bound(*rows["ops_per_s"], "higher", 0.20)
    assert not tool.past_bound(*rows["ops_per_s"], "higher", 0.30)
    # a gain is never past its bound, however large
    swapped = {row[0]: row[1:3] for row in tool.summarize(
        [{"base": p["change"], "change": p["base"]} for p in pairs], better)}
    assert not tool.past_bound(*swapped["op_p50_ms"], "lower", 0.0)
    assert not tool.past_bound(*swapped["ops_per_s"], "higher", 0.0)


def test_verdict_reads_worse_unresolved_or_ok(tool):
    # base runs whose interquartile range is 40 % of their median, against
    # a 25 % bound
    base = [0.8, 0.8, 1.2, 1.2, 1.0]
    assert tool.quartiles(base) == (0.8, 1.0, 1.2)
    mixed = [1.0, 1.2, 0.8, 1.0, 0.9]
    assert tool.verdict(base, mixed, "lower", 0.25) == "unresolved"
    better = [0.7, 0.75, 0.6, 0.65, 0.7]  # every run beats every base run
    assert tool.verdict(base, better, "lower", 0.25) == "ok"
    # the same, for a higher-is-better metric
    assert tool.verdict([-x for x in base], [-x for x in mixed],
                        "higher", 0.25) == "unresolved"
    assert tool.verdict([2.0 - x for x in base], [2.0 - x for x in better],
                        "higher", 0.25) == "ok"
    # the past-bound case of the test above, and a tight base spread
    past_base, past_change = [0.30, 0.31, 0.29, 0.30], [0.40, 0.41, 0.39, 0.40]
    assert tool.verdict(past_base, past_change, "lower", 0.25) == "worse"
    assert tool.verdict(past_base, past_base, "lower", 0.25) == "ok"


def test_seconds_override_the_benchmark_spec_only_when_given(tool):
    root = TOOL_PATH.parents[1]
    base = ["../base", ".", "--workload", "sweep", "--seed", "11",
            "--pairs", "15"]
    args = tool.parse_args(base)
    assert args.seconds is None
    assert tool.run_seconds(args.seconds, root) == tool.bench_spec(
        root)["run_seconds"]
    args = tool.parse_args(base + ["--seconds", "0.1"])
    assert tool.run_seconds(args.seconds, root) == 0.1
