"""Span tracer for the benchmark's traced mode.

Layers are the ``olct`` modules.  Each layer is timed from outside the
program: the tracer replaces that module's public functions with wrappers
that record one span per call (layer, function, start, end, parent span,
operation id).  A function imported by name into several modules (for
example ``olct_forward`` into ``verify``, ``moments`` and ``cli``) is
replaced at every such name, so every call path is seen.  Spans stay in
memory and are written out once, after the timed loop.

A layer's ``_ms`` metric is self time: each span's duration minus the
durations of its direct child spans, summed and divided by the number of
operations.  Counts are recorded at the same boundaries and attached to the
innermost open span.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span group -> (olct module, public functions it times)
LAYER_FUNCTIONS = {
    "transform.olct_forward": ("transform", ("olct_forward", "olct_forward_b0")),
    "transform.default_xi_grid": ("transform", ("default_xi_grid",)),
    "signals.derivative": ("signals", ("derivative",)),
    "moments.ppr_check": ("moments", ("ppr_check",)),
    "moments.moment": ("moments", ("time_moment_2p", "spectral_moment_2p",
                                   "abs_moment_p")),
    "bounds.hpw_core": ("bounds", ("hpw_core",)),
    "bounds.moment_pair": ("bounds", ("moment_pair",)),
    "bounds.gram": ("bounds", ("saturating_gram_term", "gram_offset",
                               "default_unit_gaussian")),
    "verify.self": ("verify", ("verify_hpw", "verify_shw", "verify_hw",
                               "sweep_r")),
    "cli.self": ("cli", ("main",)),
    "cli.load_config": ("cli", ("load_config",)),
    "cli.format": ("cli", ("csv_text", "dumps")),
    "cli.write": ("cli", ("write_text",)),
}
SAMPLE_GROUP = "signals.sample"  # AnalyticSignal.sample, a method

TIME_METRICS = [group + "_ms" for group in (
    "transform.olct_forward", "transform.default_xi_grid",
    "signals.derivative", "signals.sample", "moments.ppr_check",
    "moments.moment", "bounds.hpw_core", "bounds.moment_pair", "bounds.gram",
    "verify.self", "cli.load_config", "cli.format", "cli.write", "cli.self")]
# count metric -> unit
COUNT_METRICS = {
    "transform.olct_forward_calls": "count",
    "transform.czt_calls": "count",
    "signals.derivative_calls": "count",
    "cli.bytes_written": "bytes",
}

# span record fields
_GROUP, _FUNC, _START, _END, _PARENT, _OP, _CHILD, _COUNTS = range(8)


class Tracer:
    """Records spans while installed; ``op`` is the current operation id."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _count(self, name: str, n: int) -> None:
        if self._stack:
            rec = self.spans[self._stack[-1]]
            if rec[_COUNTS] is None:
                rec[_COUNTS] = {}
            rec[_COUNTS][name] = rec[_COUNTS].get(name, 0) + n

    def _wrap(self, group: str, fn):
        tracer = self
        func = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._stack, tracer.spans
            if stack and spans[stack[-1]][_FUNC] == func:
                return fn(*args, **kwargs)  # recursion stays in one span
            parent = stack[-1] if stack else -1
            rec = [group, func, 0.0, 0.0, parent, tracer.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            if func == "write_text":
                text = args[1] if len(args) > 1 else kwargs["text"]
                tracer._count("bytes_written", len(text.encode()))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[_START], rec[_END] = start, end
                if parent >= 0:
                    spans[parent][_CHILD] += end - start

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer functions at every name they are bound to inside
        the ``olct`` package, plus ``AnalyticSignal.sample`` and the CZT
        plan constructor of scipy."""
        import scipy.signal

        olct_modules = [m for name, m in sys.modules.items()
                        if m is not None
                        and (name == "olct" or name.startswith("olct."))]
        for group, (modname, names) in LAYER_FUNCTIONS.items():
            module = sys.modules["olct." + modname]
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(group, original)
                for mod in olct_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

        analytic = sys.modules["olct.signals"].AnalyticSignal
        self._patch(analytic, "sample",
                    self._wrap(SAMPLE_GROUP, analytic.sample))

        tracer = self
        czt_init = scipy.signal.CZT.__init__

        @functools.wraps(czt_init)
        def counted_init(*args, **kwargs):
            tracer._count("czt_plans", 1)
            return czt_init(*args, **kwargs)

        self._patch(scipy.signal.CZT, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Every per-layer metric, per operation, over spans inside
        operations; a layer that never ran reads 0."""
        self_ms = defaultdict(float)
        counts = defaultdict(int)
        for rec in self.spans:
            if rec[_OP] is None:
                continue
            group = rec[_GROUP]
            self_ms[group + "_ms"] += (rec[_END] - rec[_START] - rec[_CHILD]) * 1e3
            if rec[_FUNC] == "olct_forward":
                counts["transform.olct_forward_calls"] += 1
            elif rec[_FUNC] == "derivative":
                counts["signals.derivative_calls"] += 1
            extra = rec[_COUNTS] or {}
            counts["transform.czt_calls"] += extra.get("czt_plans", 0)
            counts["cli.bytes_written"] += extra.get("bytes_written", 0)
        out = {name: {"value": self_ms[name] / n_ops, "unit": "ms"}
               for name in TIME_METRICS}
        for name, unit in COUNT_METRICS.items():
            out[name] = {"value": counts[name] / n_ops, "unit": unit}
        return out

    def write(self, path) -> None:
        """One JSON line per span, times in ms from the first span."""
        origin = min((rec[_START] for rec in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "layer": rec[_GROUP], "func": rec[_FUNC],
                    "start_ms": (rec[_START] - origin) * 1e3,
                    "end_ms": (rec[_END] - origin) * 1e3,
                    "self_ms": (rec[_END] - rec[_START] - rec[_CHILD]) * 1e3,
                    "parent": rec[_PARENT], "op": rec[_OP],
                    "counts": rec[_COUNTS] or {},
                }) + "\n")
