"""Digest of every CLI run on the shipped repro configs.

Runs each subcommand on every ``repro/*.cfg`` of the imported ``olct``
package, plus the aliasing reproducer, through ``olct.cli.main``
in-process, in human and ``--json`` modes, with the relative ``--out out``
inside a temporary working directory.  Prints one line per run: the argv,
the exit code, and the sha256 of stdout, of stderr and of each output file.
Two source trees print the same lines exactly when every run is
byte-identical, so a diff of two digests checks a refactor:

    PYTHONPATH=src python tools/repro_digest.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/repro_digest.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import olct.cli

SUBCOMMANDS = (
    ["transform"],
    ["ppr"],
    ["verify", "--bound", "hpw"],
    ["verify", "--bound", "shw"],
    ["verify", "--bound", "hw"],
    ["sweep"],
    ["bound-table"],
    ["gap-curve"],
    ["energy"],
)

# The aliasing reproducer: its default output grid reaches past the
# discrete-Fourier band of the grid (the same config as the benchmark's).
ALIAS_NAME = "alias_ft_r2_chirp30.cfg"
ALIAS_CONFIG = """\
[alias-ft-r2-chirp30]
signal = gaussian_chirp
signal_r = 2
signal_chirp = 30
a = 0
b = 1
c = -1
d = 0
grid = -8:8:4097
"""


def configs() -> dict:
    """Config file name -> text: the shipped repro configs, then the
    aliasing reproducer."""
    repro = Path(olct.cli.__file__).resolve().parent / "repro"
    out = {path.name: path.read_text() for path in sorted(repro.glob("*.cfg"))}
    out[ALIAS_NAME] = ALIAS_CONFIG
    return out


def argvs(names) -> list:
    """Every run on the named configs, relative to the working directory."""
    return [cmd + ["--config", f"cfg/{name}", "--out", "out"] + mode
            for name in names for cmd in SUBCOMMANDS for mode in ([], ["--json"])]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(argv: list) -> str:
    """Run one argv in the working directory and describe its outputs."""
    shutil.rmtree("out", ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = olct.cli.main(argv)
    files = sorted(Path("out").rglob("*")) if Path("out").is_dir() else []
    fields = [" ".join(argv), f"exit {code}",
              f"stdout {_sha(stdout.getvalue().encode())}",
              f"stderr {_sha(stderr.getvalue().encode())}"]
    fields += [f"{path.as_posix()} {_sha(path.read_bytes())}"
               for path in files if path.is_file()]
    return " | ".join(fields)


def run(names=None) -> list:
    """Digest lines of every run on ``names`` (default: every config), all
    made in one temporary working directory."""
    texts = configs()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("cfg").mkdir()
            for name, text in texts.items():
                Path("cfg", name).write_text(text)
            return [digest_line(argv) for argv in argvs(names or texts)]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in run()))
