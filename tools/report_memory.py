"""Fresh pages, heap peak and time of the verify reports, per kind.

Runs the report kinds of the benchmark's ``reports-64k`` mix, the 2p-order
bound (hpw) and the sharpened bound with the Gram term (shw) at p = 1, 2
and 4 and the absolute-moment bound (hw) at p = 2 and 4, on the grid
-8:8:65537.  Each round runs every kind once in a seeded order, on a
chirped Gaussian with its own parameter set, weight and centres; the
round's signals are formed before its first report.  The kinds, the
parameter sets and the distributions of the draws are the benchmark's
(``tests/test_report_memory.py`` compares the first two with it); the
draws themselves are not, since the seed feeds another generator.  One
warm-up round runs first, then N rounds (``--reports``).

Per kind and over all reports it prints the median count of minor page
faults per report (``getrusage``), the median ``tracemalloc`` peak of a
report above what was allocated before it, taken in a second pass over the
same reports (tracing slows the allocations it counts), and the median
wall time per report in ms:

    PYTHONPATH=src python tools/report_memory.py --reports 10 --seed 11

A minor fault is the first touch of a page the allocator took from the
kernel, so the count shows how much of a report's memory is fresh.  numpy
reports its array buffers to ``tracemalloc``, so for one numpy build the
peaks are the same on every run.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np

import olct

KINDS = (("hpw", 1), ("hpw", 2), ("hpw", 4), ("shw", 1), ("shw", 2),
         ("shw", 4), ("hw", 2), ("hw", 4))
MIB = float(1 << 20)


def _params(a: float, b: float, tau: float) -> olct.OlctParams:
    """(a, b, tau) with (c, d) solved from a*d - b*c = 1."""
    c = 0.5 if a else -1.0 / b
    d = (1.0 + b * c) / a if a else 0.4
    return olct.OlctParams(a, b, c, d, tau, 0.0)


PARAM_SETS = [_params(a, b, tau) for a in (0.0, 0.6, 6.0)
              for b in (0.05, 0.5, 1.0) for tau in (0.0, 1.0)]
PARAM_SETS.append(olct.OlctParams(0.6, 0.05, 0.5, 0.4, 0.0, 1.0, strict=False))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reports", type=int, default=10,
                    help="rounds of reports after the warm-up round")
    ap.add_argument("--seed", type=int, default=11)
    return ap.parse_args(argv)


def report(kind: tuple, grid: olct.Grid, rng):
    """A call that runs one report of ``kind`` on its own drawn signal."""
    bound, p = kind
    params = PARAM_SETS[int(rng.integers(len(PARAM_SETS)))]
    r = float(10.0 ** rng.uniform(0.0, 1.0))
    chirp = params.chirp_rate + float(rng.uniform(-2.0, 2.0))
    omega = olct.exp_weight(r) if rng.random() < 0.5 else olct.unit_weight()
    t_m = float(rng.choice((0.0, 0.3)))
    xi_m = float(rng.choice((0.0, params.tau + 0.5)))
    f = olct.SampledSignal(grid, np.exp(-(r / 2.0 + 1j * chirp)
                                        * grid.points() ** 2))
    if bound == "hw":
        return lambda: olct.verify_hw(f, params, p, t_m=t_m, xi_m=xi_m)
    cfg = olct.HpwConfig(p=p, t_m=t_m, xi_m=xi_m, omega=omega)
    if bound == "hpw":
        return lambda: olct.verify_hpw(f, params, cfg)
    return lambda: olct.verify_shw(f, params, cfg, a_mode="gram")


def rounds(count: int, grid: olct.Grid, seed: int) -> list:
    """``count`` rounds of (kind, report call), every kind once per round
    in a seeded order; the first round is the warm-up."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count + 1):
        order = rng.permutation(len(KINDS))
        out.append([(KINDS[i], report(KINDS[i], grid, rng)) for i in order])
    return out


def measure(plan: list) -> dict:
    """kind -> list of (minor faults, ms) of its reports, warm-up dropped."""
    out = {kind: [] for kind in KINDS}
    for i, batch in enumerate(plan):
        for kind, run in batch:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            run()
            ms = (perf_counter() - t0) * 1e3
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if i:
                out[kind].append((faults, ms))
    return out


def peaks(plan: list) -> dict:
    """kind -> list of the tracemalloc peaks (bytes) of its reports above
    the memory traced before each, warm-up dropped."""
    out = {kind: [] for kind in KINDS}
    tracemalloc.start()
    try:
        for i, batch in enumerate(plan):
            for kind, run in batch:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run()
                if i:
                    out[kind].append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return out


def table(runs: dict, heap: dict) -> list:
    """Rows (label, median faults, median peak MiB, median ms), one per
    kind and one over all reports."""
    rows = []
    for kind in KINDS:
        rows.append((f"{kind[0]} p={kind[1]}",
                     statistics.median(f for f, _ in runs[kind]),
                     statistics.median(heap[kind]) / MIB,
                     statistics.median(ms for _, ms in runs[kind])))
    every = [x for kind in KINDS for x in runs[kind]]
    rows.append(("all", statistics.median(f for f, _ in every),
                 statistics.median(b for kind in KINDS for b in heap[kind]) / MIB,
                 statistics.median(ms for _, ms in every)))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.reports < 1:
        sys.exit("report_memory.py: --reports must be at least 1")
    grid = olct.make_grid(-8.0, 8.0, 65537)
    runs = measure(rounds(args.reports, grid, args.seed))
    heap = peaks(rounds(args.reports, grid, args.seed))
    print(f"-8:8:65537, {args.reports} reports per kind, "
          f"seed {args.seed}, numpy {np.__version__}")
    print(f"{'kind':<8} {'faults':>8} {'peak MiB':>9} {'ms':>8}")
    for label, faults, peak, ms in table(runs, heap):
        print(f"{label:<8} {faults:>8g} {peak:>9.2f} {ms:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
