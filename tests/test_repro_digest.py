"""``tools/repro_digest.py`` is the byte-identity check for refactors; it
must keep covering every shipped repro config and the library reports."""

import importlib.util
import os
import re
from importlib.resources import files
from pathlib import Path

import pytest

import olct

DIGEST_PATH = Path(__file__).resolve().parents[1] / "tools" / "repro_digest.py"
# The committed outputs of ``repro_digest.py`` and ``repro_digest.py
# --values``.  A change that moves an output byte or a report value
# regenerates both files in the same commit:
#     PYTHONPATH=src python tools/repro_digest.py > tests/data/repro_digest.txt
#     PYTHONPATH=src python tools/repro_digest.py --values \
#         > tests/data/repro_digest_values.txt
PINNED_DIGEST = Path(__file__).resolve().parent / "data" / "repro_digest.txt"
PINNED_VALUES = PINNED_DIGEST.with_name("repro_digest_values.txt")


def load_digest():
    spec = importlib.util.spec_from_file_location("repro_digest", DIGEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_covers_every_repro_config():
    digest = load_digest()
    shipped = sorted(entry.name for entry in files("olct").joinpath("repro")
                     .iterdir() if entry.name.endswith(".cfg"))
    assert len(shipped) == 11
    names = list(digest.configs())
    assert names == shipped + [digest.ALIAS_NAME]
    argvs = digest.argvs(names)
    assert len(argvs) == len(names) * len(digest.SUBCOMMANDS) * 2
    assert {argv[argv.index("--config") + 1] for argv in argvs} == {
        f"cfg/{name}" for name in names}


def test_digest_line_names_every_output():
    digest = load_digest()
    cwd = os.getcwd()
    lines = digest.run(["gap_curve.cfg"])
    assert os.getcwd() == cwd
    assert len(lines) == len(digest.SUBCOMMANDS) * 2
    sha = "[0-9a-f]{64}"
    run = "gap-curve --config cfg/gap_curve.cfg --out out --json"
    [line] = [line for line in lines if line.startswith(run + " |")]
    assert re.fullmatch(rf"{run} \| exit 0 \| stdout {sha} \| stderr {sha} "
                        rf"\| out/gap_curve\.csv {sha}", line)


def test_library_lines_cover_every_scenario_order_and_sweep():
    digest = load_digest()
    assert len(digest.LIBRARY_SCENARIOS) == 4
    assert digest.LIBRARY_ORDERS == (1, 2, 3, 4)
    assert digest.LARGE_GRID_LINE == ("published", 4, 65537)
    assert digest.EVEN_GRID_LINE == ("negative-b", 4, 4096)
    assert digest.BAND_FILLING_LINE == ("band-filling", 1, 16385)
    lines = digest.library_lines()
    sweeps = list(olct.verify.SWEEP_SCENARIOS)
    assert len(lines) == 4 * 4 + 3 + len(sweeps) == 23
    sha = "[0-9a-f]{64}"
    names = "|".join(re.escape(name) for name in digest.LIBRARY_SCENARIOS)
    for line in lines[:16]:
        assert re.fullmatch(rf"library ({names}) p=[1-4] \| reports {sha} "
                            rf"\| core {sha} \| pair {sha}", line)
    assert [line.split(" ")[:3] for line in lines[:16]] == [
        ["library", name, f"p={p}"] for name in digest.LIBRARY_SCENARIOS
        for p in digest.LIBRARY_ORDERS]
    assert re.fullmatch(rf"library published p=4 n=65537 \| reports {sha} "
                        rf"\| core {sha} \| pair {sha}", lines[16])
    assert re.fullmatch(rf"library negative-b p=4 n=4096 \| reports {sha} "
                        rf"\| core {sha} \| pair {sha}", lines[17])
    assert re.fullmatch(rf"library band-filling p=1 n=16385 \| reports {sha} "
                        rf"\| core {sha} \| pair {sha}", lines[18])
    for line, scenario in zip(lines[19:], sweeps):
        assert re.fullmatch(rf"sweep_r {scenario} \| rows {sha}", line)


def test_value_lines_list_every_report_field():
    digest = load_digest()
    lines = digest.value_lines()
    columns = olct.verify.REPORT_COLUMNS
    # 5 reports at p = 1 and 6 (with the absolute-moment bound) at p >= 2,
    # over 4 scenarios, then the large-grid and even-grid lines at p = 4 and
    # the band-filling line at p = 1
    assert len(lines) == (4 * (5 + 3 * 6) + 2 * 6 + 5) * len(columns)
    first = lines[: len(columns)]
    assert [line.split(" | ")[2].split(" ")[0] for line in first] == columns
    assert first[0] == "library published p=1 | hpw | scenario published"
    reports = digest.library_reports("negative-b", 4, 4096)[-1]
    even = [line for line in lines
            if line.startswith("library negative-b p=4 n=4096 | shw gram | lhs ")]
    [gram] = [rep for rep in reports if rep.a_mode == "gram"]
    assert even == [f"library negative-b p=4 n=4096 | shw gram | lhs "
                    f"{olct.verify.fmt(gram.lhs)}"]


def test_cli_and_library_lines_match_the_pinned_digest():
    digest = load_digest()
    pinned = PINNED_DIGEST.read_text().splitlines()
    lines = digest.run() + digest.library_lines()
    for number, (line, want) in enumerate(zip(lines, pinned), start=1):
        assert line == want, f"line {number} of {PINNED_DIGEST.name}"
    assert len(lines) == len(pinned)


def test_value_lines_match_the_pinned_values():
    digest = load_digest()
    pinned = PINNED_VALUES.read_text().splitlines()
    lines = digest.value_lines()
    for number, (line, want) in enumerate(zip(lines, pinned), start=1):
        assert line == want, f"line {number} of {PINNED_VALUES.name}"
    assert len(lines) == len(pinned)


BEFORE_VALUES = """\
library a p=1 | hpw | scenario a
library a p=1 | hpw | passed_hpw true
library a p=1 | hpw | passed_hw 
library a p=1 | hpw | mu_spec 2
library a p=1 | hpw | ppr_gap 1e-15
library a p=1 | hpw | parseval_gap 0
library a p=2 | shw gram | passed_hpw true
library a p=2 | shw gram | mu_spec 4
library a p=2 | shw gram | ppr_gap 3e-16
library a p=2 | shw gram | parseval_gap 2e-16
"""

AFTER_VALUES = """\
library a p=1 | hpw | scenario a
library a p=1 | hpw | passed_hpw false
library a p=1 | hpw | passed_hw 
library a p=1 | hpw | mu_spec 2.5
library a p=1 | hpw | ppr_gap 1e-15
library a p=1 | hpw | parseval_gap 1e-16
library a p=2 | shw gram | passed_hpw true
library a p=2 | shw gram | mu_spec 3
library a p=2 | shw gram | ppr_gap 2e-15
library a p=2 | shw gram | parseval_gap 2e-16
"""


def test_compare_lists_moves_per_field_and_the_worst_gaps(tmp_path):
    digest = load_digest()
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    before.write_text(BEFORE_VALUES)
    after.write_text(AFTER_VALUES)
    lines, same_keys = digest.compare(digest.parse_values(BEFORE_VALUES),
                                      digest.parse_values(AFTER_VALUES))
    assert same_keys
    assert lines == [
        "mu_spec moved 2 abs 1 rel 0.25",
        "parseval_gap moved 1 abs 1e-16 rel 1",
        "passed_hpw moved 1 abs - rel -",
        "ppr_gap moved 1 abs 1.7e-15 rel 0.85",
        "worst ppr_gap before 1e-15 after 2e-15",
        "worst parseval_gap before 2e-16 after 2e-16",
    ]
    assert digest.main(["--compare", str(before), str(before)]) == 0


def test_compare_exits_1_on_different_keys(tmp_path, capsys):
    digest = load_digest()
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    before.write_text(BEFORE_VALUES)
    after.write_text(AFTER_VALUES.replace("| mu_spec 3", "| mu_time 3"))
    assert digest.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in BEFORE: library a p=2 | shw gram | mu_spec",
        "only in AFTER: library a p=2 | shw gram | mu_time",
    ]


@pytest.mark.parametrize("argv", [["--value"], ["--compare", "before.txt"]])
def test_bad_arguments_exit_2_before_any_run(argv, monkeypatch, capsys):
    digest = load_digest()

    def no_run(*args, **kwargs):
        raise AssertionError("a digest ran")

    for name in ("run", "library_lines", "value_lines", "parse_values"):
        monkeypatch.setattr(digest, name, no_run)
    assert digest.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == digest.USAGE + "\n"


@pytest.mark.parametrize("which", ["missing", "directory", "binary"])
def test_compare_exits_2_on_an_unreadable_file(which, tmp_path, monkeypatch,
                                               capsys):
    digest = load_digest()

    def no_run(*args, **kwargs):
        raise AssertionError("a digest ran")

    for name in ("run", "library_lines", "value_lines"):
        monkeypatch.setattr(digest, name, no_run)
    good = tmp_path / "good.txt"
    good.write_text(BEFORE_VALUES)
    bad = tmp_path / which
    if which == "directory":
        bad.mkdir()
    elif which == "binary":
        bad.write_bytes(b"\xff\xfe\x00")
    assert digest.main(["--compare", str(good), str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"repro_digest.py: cannot read {bad}: ")
