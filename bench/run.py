"""olct benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload reports-64k --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout, in this one process, with every thread pool held at one
thread.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the layer functions (see ``tracer.py``) and reports
the per-layer metrics instead, writing its spans under ``.bench_out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("reports-64k", "sweep", "cli-repro")
SETUP_REPEATS = 3
# The 90th percentile needs at least ten samples beyond it.
MIN_SAMPLES = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Times the package import in a fresh interpreter; argv[1] is src/.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import olct, olct.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_olct():
    """Import the checkout's ``olct`` (never another installed copy).

    Returns the package and the median import time of this import and of
    ``SETUP_REPEATS - 1`` imports in fresh interpreters, since a module is
    imported only once per process."""
    src = ROOT / "src"
    if not (src / "olct" / "__init__.py").is_file():
        sys.exit(f"bench: no olct sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("OLCT_NUM_THREADS", None)
    sys.path.insert(0, str(src))
    start = perf_counter()
    import olct
    import olct.cli
    elapsed = perf_counter() - start
    if Path(olct.__file__).resolve().parent != (src / "olct").resolve():
        sys.exit(f"bench: imported olct from {olct.__file__}, not {src}")
    times = [elapsed]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                               check=True, capture_output=True, text=True)
        times.append(float(probe.stdout))
    return olct, statistics.median(times)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` have passed and at least
    ``MIN_SAMPLES`` rows ran; time each operation, check each output."""
    samples, keys, problems = [], [], []
    attempted = failed = 0
    busy = 0.0
    start = perf_counter()
    while perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        for op in workload.round():
            if tracer is not None:
                tracer.op = attempted
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the check reports it with its op
                out = exc
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            rows = len(op.keys)
            busy += elapsed
            samples += [elapsed / rows] * rows
            keys += op.keys
            attempted += rows
            n_failed, problem = op.check(out)
            failed += n_failed
            if problem:
                problems.append(problem)
    wall = perf_counter() - start
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return {
        "samples": samples, "attempted": attempted, "failed": failed,
        "problems": problems, "busy_s": busy, "wall_s": wall,
        "repeat_share": repeats / len(keys),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    olct, import_s = import_olct()
    import workloads  # after the timed import: it loads the oracle's scipy parts

    WORKDIR.mkdir(exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    builds = []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = make(olct, args.seed, i, WORKDIR)
        workload.warm_up()
        builds.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        res = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    samples = res["samples"]
    p50_ms = statistics.median(samples) * 1e3
    p90_ms = statistics.quantiles(samples, n=10)[8] * 1e3
    completed = res["attempted"] - res["failed"]
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "op_p90_ms": {"value": p90_ms, "unit": "ms"},
            "ops_per_s": {"value": completed / res["busy_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    else:
        metrics = tracer.layer_metrics(res["attempted"])
        spans = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rows {res['attempted']}  failed {res['failed']}  "
          f"repeat_share {res['repeat_share']:.4f}  busy {res['busy_s']:.2f} s  "
          f"wall {res['wall_s']:.2f} s")
    if tracer is not None:
        print(f"  traced op_p50_ms {p50_ms:.4f}  op_p90_ms {p90_ms:.4f}  "
              f"spans {len(tracer.spans)} -> {spans.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in res["problems"][:10]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
