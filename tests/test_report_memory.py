"""tools/report_memory.py: one round of every report kind on a small grid,
the imports it is allowed, and its copy of the benchmark's report mix."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import olct

ROOT = Path(__file__).resolve().parents[1]
TOOL_PATH = ROOT / "tools" / "report_memory.py"


def load(name: str, path: Path, monkeypatch=None):
    """The module at ``path``; with ``monkeypatch`` it is also entered in
    sys.modules for the test, where its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load("report_memory", TOOL_PATH)


def test_one_round_on_a_small_grid_gives_every_kind(tool):
    grid = olct.make_grid(-8.0, 8.0, 4097)
    plan = tool.rounds(1, grid, 11)
    rows = tool.table(tool.measure(plan), tool.peaks(plan))
    assert [row[0] for row in rows] == (
        [f"{bound} p={p}" for bound, p in tool.KINDS] + ["all"])
    for _, faults, peak_mib, ms in rows:
        assert faults >= 0 and peak_mib > 0 and ms > 0


def test_imports_only_the_package_numpy_and_the_standard_library():
    tree = ast.parse(TOOL_PATH.read_text())
    names = {alias.name.partition(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.partition(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names - sys.stdlib_module_names == {"numpy", "olct"}


def test_kinds_and_parameter_sets_are_the_benchmarks(tool, monkeypatch,
                                                     tmp_path):
    pytest.importorskip("scipy")  # the benchmark's oracle needs it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = load("bench_workloads", ROOT / "bench" / "workloads.py",
                     monkeypatch)
    mix = workloads.Reports64k(olct, 11, 0, tmp_path)
    assert tool.KINDS == mix.KINDS
    assert tool.PARAM_SETS == mix.param_sets
