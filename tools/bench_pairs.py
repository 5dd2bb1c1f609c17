"""Alternating before/after pairs of the benchmark on two checkouts.

Runs ``bench/run.py`` of two source trees, a base (for example a
``git worktree`` or a ``git archive`` of the parent commit) and a change,
one after the other, for N pairs.  The order flips with every pair (base
first in pairs 1, 3, ..., change first in pairs 2, 4, ...), so a drift of
the machine during the runs falls on both sides alike.  Each tree runs its
own ``bench/run.py`` from its own root, exactly as

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

with T the ``run_seconds`` that ``BENCHMARK.json`` fixes for every run
(``--seconds`` overrides it), and the last line of its standard output is
parsed as the run's JSON result.  Nothing under ``bench/`` is changed.

For every metric it prints the base and the change median with their
quartiles, the relative change of the medians, the number of pairs in
which the change was better (the direction comes from ``BENCHMARK.json``
of the change tree), whether the gap of the medians exceeds the
interquartile range of the base runs, and, for each end-to-end metric, a
verdict against that metric's ``bound`` in ``BENCHMARK.json`` (a fraction
of the base median): ``worse`` when the change's median is worse than the
base median by more than the bound, the rule by which a change that slows
the benchmark is refused; otherwise ``unresolved`` when the base runs
spread wider than the bound and the change runs do not all beat every
base run, so the runs cannot tell; otherwise ``ok``.

    python3 tools/bench_pairs.py ../base . --workload reports-64k --seed 43 --pairs 10

A short ``--seconds`` turns the pairs into an alternation of the setup
alone: ``setup_s`` (the package import and the workload's build) does not
depend on the run length, and each run still takes its minimum samples.

    python3 tools/bench_pairs.py ../base . --workload sweep --seed 11 --seconds 0.1 --pairs 15
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout of the base tree")
    ap.add_argument("change", type=Path, help="checkout of the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of "
                         "BENCHMARK.json)")
    return ap.parse_args(argv)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``; its parsed JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: bench exited {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def pair_order(i: int) -> tuple:
    """Sides of pair i (0-based) in run order; the base goes first in
    even pairs."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def bench_spec(tree: Path) -> dict:
    return json.loads((tree / "BENCHMARK.json").read_text())


def run_seconds(override, tree: Path) -> float:
    """The length of every run: ``override`` when given, else the
    ``run_seconds`` of the tree's BENCHMARK.json."""
    return bench_spec(tree)["run_seconds"] if override is None else override


def directions(tree: Path) -> dict:
    """metric name -> "lower" or "higher", from the tree's BENCHMARK.json."""
    spec = bench_spec(tree)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def end_to_end_bounds(tree: Path) -> dict:
    """end-to-end metric name -> its bound, from the tree's BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in bench_spec(tree).get("end_to_end", [])}


def past_bound(qb: tuple, qc: tuple, better: str, bound: float) -> bool:
    """Whether the change's median ``qc[1]`` is worse than the base median
    ``qb[1]`` by more than ``bound`` times the base median, in the
    metric's direction ``better``."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (qc[1] - qb[1]) > bound * abs(qb[1])


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok``: the end-to-end verdict on the
    base and change runs of one metric against its ``bound``."""
    qb = quartiles(base)
    if past_bound(qb, quartiles(change), better, bound):
        return "worse"
    sign = 1.0 if better == "lower" else -1.0
    separated = max(sign * c for c in change) < min(sign * b for b in base)
    if qb[2] - qb[0] > bound * abs(qb[1]) and not separated:
        return "unresolved"
    return "ok"


def side_values(pairs: list, name: str, side: str) -> list:
    """The values of one metric in the runs of one side."""
    return [p[side]["metrics"][name]["value"] for p in pairs]


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, better: dict) -> list:
    """One row per metric of the runs: name, base (q1, median, q3), change
    (q1, median, q3), relative change of the medians, pairs won by the
    change, and whether the median gap exceeds the base IQR.  ``pairs`` is
    a list of {"base": result, "change": result}."""
    names = [name for name in pairs[0]["base"]["metrics"]
             if all(name in p[side]["metrics"]
                    for p in pairs for side in ("base", "change"))]
    rows = []
    for name in names:
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        base = side_values(pairs, name, "base")
        change = side_values(pairs, name, "change")
        won = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        rel = (qc[1] - qb[1]) / qb[1] if qb[1] else float("nan")
        gap = qc[1] - qb[1]
        resolved = sign * gap < 0 and abs(gap) > qb[2] - qb[0]
        rows.append((name, qb, qc, rel, won, resolved))
    return rows


def _cell(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            sys.exit(f"bench_pairs: no bench/run.py under {tree}")
    seconds = run_seconds(args.seconds, trees["change"])
    pairs = []
    for i in range(args.pairs):
        pair = {}
        for side in pair_order(i):
            result = run_bench(trees[side], args.workload, args.seed, seconds)
            pair[side] = result
            print(f"pair {i + 1}/{args.pairs} {side}: correct="
                  f"{result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        pairs.append(pair)

    n = len(pairs)
    print(f"{args.workload}, seed {args.seed}, {n} pairs of "
          f"{seconds:g} s; base = {trees['base']}, "
          f"change = {trees['change']}")
    for side in ("base", "change"):
        good = sum(p[side]["correct"] and p[side]["failed"] == 0
                   for p in pairs)
        print(f"{side}: {good}/{n} runs correct with 0 failed")
    print(f"{'metric':<14} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'won':>6}  "
          "gap > base IQR  verdict")
    better = directions(trees["change"])
    limits = end_to_end_bounds(trees["change"])
    for name, qb, qc, rel, won, resolved in summarize(pairs, better):
        flag = ("" if name not in limits else verdict(
            side_values(pairs, name, "base"), side_values(pairs, name, "change"),
            better[name], limits[name]))
        print(f"{name:<14} {_cell(qb):>30} {_cell(qc):>30} "
              f"{100.0 * rel:>+7.1f}% {f'{won}/{n}':>6}  "
              f"{'yes' if resolved else 'no':<14}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
