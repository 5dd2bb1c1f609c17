"""The benchmark's tracer times layers by wrapping ``olct`` functions by
name; a renamed or deleted function would silently read 0 in its layer
metric, so every hook name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import scipy.signal

import olct

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hook_names_resolve():
    tracer = load_tracer()
    missing = [f"olct.{modname}.{name} ({group})"
               for group, (modname, names) in tracer.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module("olct." + modname),
                                       name, None))]
    assert missing == []
    assert callable(getattr(olct.signals.AnalyticSignal, "sample", None))
    assert callable(getattr(scipy.signal, "CZT", None))
