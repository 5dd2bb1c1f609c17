"""The ``olct`` namespace holds only what its callers use; these tests fail
when a name that the benchmark or the README quick start reaches through
``olct.`` goes missing, or when a module reaches into another's private
names."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import olct
import olct.cli  # the benchmark imports it alongside the package

ROOT = Path(__file__).resolve().parents[1]
OLCT_PATH = re.compile(r"\bolct((?:\.[A-Za-z_]\w*){1,2})")


def test_bench_olct_paths_resolve():
    paths = {match.group(1) for source in sorted(ROOT.glob("bench/*.py"))
             for match in OLCT_PATH.finditer(source.read_text())}
    assert paths
    missing = []
    for path in sorted(paths):
        obj = olct
        for attr in path.lstrip(".").split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append("olct" + path)
    assert missing == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import olct" in code
    exec(compile(code, "README.md", "exec"), {})


def test_no_module_imports_a_private_name_of_another():
    # each report stage is one public function; a private twin imported
    # across modules would bypass it, and the benchmark's tracer, which
    # hooks public names only
    private = []
    for path in sorted((ROOT / "src" / "olct").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("olct")):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


# The top-level modules that ``import olct, olct.cli`` loads once numpy is
# loaded.  The benchmark's setup time is that import in a fresh
# interpreter, so a module added here (resource, tracemalloc, ctypes,
# scipy, ...) is paid by every run.
PACKAGE_IMPORTS = {"__future__", "_json", "argparse", "configparser", "copy",
                   "dataclasses", "gettext", "json", "olct"}
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
                "before = set(sys.modules); import olct, olct.cli; "
                "print(*sorted({name.partition('.')[0] "
                "for name in set(sys.modules) - before}))")


def test_package_import_adds_only_its_known_modules():
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                            str(ROOT / "src")],
                           check=True, capture_output=True, text=True)
    added = set(probe.stdout.split())
    assert "olct" in added
    assert added <= PACKAGE_IMPORTS, sorted(added - PACKAGE_IMPORTS)
