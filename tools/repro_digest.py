"""Digest of every CLI run on the shipped repro configs and of the library
reports behind them.

Runs each subcommand on every ``repro/*.cfg`` of the imported ``olct``
package, plus the aliasing reproducer, through ``olct.cli.main``
in-process, in human and ``--json`` modes, with the relative ``--out out``
inside a temporary working directory.  Prints one line per run: the argv,
the exit code, and the sha256 of stdout, of stderr and of each output file.

Then it prints one line per library scenario and half-order p = 1..4: the
sha256 of the ``reports_to_csv`` text of every 2p-order report (the plain
bound, the sharpened bound in each auxiliary-term mode, and the
absolute-moment bound for p >= 2), of ``repr((core, terms))`` from
``hpw_core`` and of the bytes of ``moment_pair``'s (u, v); the same for the
published scenario at p = 4 on the 65537-point grid, for the negative-b
scenario at p = 4 on an even, 4096-point grid and for a band-filling
spectrum at p = 1 on a 16385-point grid; and one line per sweep scenario
with the sha256 of the ``sweep_r`` rows.

Two source trees print the same lines exactly when every run is
byte-identical, so a diff of two digests checks a refactor:

    PYTHONPATH=src python tools/repro_digest.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/repro_digest.py > before.txt
    diff before.txt after.txt

With ``--values`` it prints instead every field of every library report,
one line each at 17 significant digits, so the same diff lists the values
a change moved.  ``--compare BEFORE AFTER`` summarises two such outputs:

    python tools/repro_digest.py --compare before_values.txt after_values.txt

It prints, for each field that moved, the count of moved lines and the
largest absolute and relative move, then the worst ``ppr_gap`` and
``parseval_gap`` on each side.  A move between two values at or below
``REFINE_FLOOR`` in magnitude, such as a gap at rounding level, reads as
relative move 0; its absolute move is still printed.  It exits 1, listing the difference, when
the two files do not list the same keys, and 2, with one line on stderr,
when it cannot read one of them.

With ``--refine`` it runs every library scenario and order on -8:8:4097
and on -8:8:16385 and prints, for each float field of the reports, its
worst relative move between the two grids, the field's discretization
error, and where it happens.  A value at or below ``REFINE_FLOOR`` in
magnitude on both grids, such as A* of the minimizer, reads as no move:

    PYTHONPATH=src python tools/repro_digest.py --refine

Any other arguments print a usage line and exit 2 before anything runs.
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
from olct import bounds, signals, transform, verify

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

# The aliasing reproducer (the same config as the benchmark's): a chirped
# Gaussian whose spectrum spans |xi| <= 280 of this grid's discrete-Fourier
# band |xi| <= pi/dt = 804.  The default grid stays inside the band, so
# every run passes.
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


def _completed(a: float, b: float, tau: float, eta: float):
    """Parameter set with (c, d) solved from a*d - b*c = 1."""
    c = 0.5 if a else -1.0 / b
    d = (1.0 + b * c) / a if a else 0.4
    return transform.OlctParams(a, b, c, d, tau, eta)


# Library scenarios: name -> (params, signal, weight, t_m, xi_m), all on the
# grid -8:8:4097.  Between them: the published parameter set, b < 0,
# tau != 0, t_m != 0, xi_m != tau, unit and exponential weights, and the
# equality-attaining minimizer.
_PUBLISHED = transform.OlctParams(0.6, 0.05, 0.5, 0.4, 0.0, 1.0, strict=False)
_NEGATIVE_B = _completed(0.6, -0.5, 1.0, 0.5)
_OFFSET = _completed(0.0, 1.0, 1.0, 0.0)
LIBRARY_SCENARIOS = {
    "published": (_PUBLISHED,
                  signals.gaussian_chirp(2.0, _PUBLISHED.chirp_rate),
                  signals.exp_weight(2.0), 0.0, 0.0),
    "negative-b": (_NEGATIVE_B,
                   signals.gaussian_chirp(1.5, _NEGATIVE_B.chirp_rate + 0.7),
                   signals.unit_weight(), 0.3, 1.5),
    "offset": (_OFFSET, signals.gaussian_chirp(3.0, _OFFSET.chirp_rate - 1.2),
               signals.exp_weight(1.0), -0.2, 0.4),
    "minimizer": (_PUBLISHED,
                  verify.minimizer_signal(1.0, 2.0, 0.3, 0.6, _PUBLISHED),
                  signals.unit_weight(), 0.3, 0.6),
}
LIBRARY_ORDERS = (1, 2, 3, 4)
LIBRARY_N = 4097
# The benchmark's grid size, the only one at which the transform's chirp
# phases reach their full range; one scenario and order keeps the run short.
LARGE_GRID_LINE = ("published", 4, 65537)
# An even point count, where the centred indices k - n//2 are asymmetric.
EVEN_GRID_LINE = ("negative-b", 4, 4096)
# A spectrum that fills most of the band |xi| <= pi/dt = 3217 of this grid,
# whose derivative keeps 98 % of its FFT bins; 4097 points undersample it,
# so it is not a 4097-point scenario.
BAND_FILLING_SCENARIO = (transform.ft_params(),
                         signals.gaussian_chirp(2.0, 300.0),
                         signals.unit_weight(), 0.0, 0.0)
BAND_FILLING_LINE = ("band-filling", 1, 16385)
SWEEP_R_VALUES = (0.5, 1.0, 2.5, 4.0)


def _library_label(name: str, p: int, n: int) -> str:
    return f"library {name} p={p}" + ("" if n == LIBRARY_N else f" n={n}")


def library_reports(name: str, p: int, n: int = LIBRARY_N) -> tuple:
    """Every 2p-order report of one library scenario at half-order p on
    -8:8:n: the plain bound, the sharpened bound in each auxiliary-term
    mode, and the absolute-moment bound for p >= 2.  Returns the sampled
    input, the parameters and the bound configuration with the reports."""
    params, signal, omega, t_m, xi_m = (
        BAND_FILLING_SCENARIO if name == BAND_FILLING_LINE[0]
        else LIBRARY_SCENARIOS[name])
    f = signal.sample(signals.make_grid(-8.0, 8.0, n))
    cfg = bounds.HpwConfig(p=p, t_m=t_m, xi_m=xi_m, omega=omega)
    reports = [verify.verify_hpw(f, params, cfg, scenario=name)]
    reports += [verify.verify_shw(f, params, cfg, a_mode=mode, a_value=0.5,
                                  scenario=name)
                for mode in ("zero", "fixed", "gram", "saturating")]
    if p >= 2:
        reports.append(verify.verify_hw(f, params, p, t_m=t_m, xi_m=xi_m,
                                        scenario=name))
    return f, params, cfg, reports


def library_line(name: str, p: int, n: int = LIBRARY_N) -> str:
    """Digest of every 2p-order report, the functional and the sharpening
    pair of one library scenario at half-order p on -8:8:n."""
    f, params, cfg, reports = library_reports(name, p, n)
    breakdown = bounds.hpw_core(f, params, cfg)
    u, v = bounds.moment_pair(f, params, cfg)
    return " | ".join([
        _library_label(name, p, n),
        f"reports {_sha(verify.reports_to_csv(reports).encode())}",
        f"core {_sha(repr((breakdown.core, breakdown.terms)).encode())}",
        f"pair {_sha(u.values.tobytes() + v.values.tobytes())}"])


def _library_keys() -> list:
    return ([(name, p, LIBRARY_N) for name in LIBRARY_SCENARIOS
             for p in LIBRARY_ORDERS]
            + [LARGE_GRID_LINE, EVEN_GRID_LINE, BAND_FILLING_LINE])


def value_lines() -> list:
    """One line per field of every library report, ``<label> | <bound>
    [<a_mode>] | <field> <value>``, floats at 17 significant digits."""
    lines = []
    for key in _library_keys():
        for report in library_reports(*key)[-1]:
            kind = " ".join(x for x in (report.bound, report.a_mode) if x)
            lines += [f"{_library_label(*key)} | {kind} | {field} {verify.fmt(value)}"
                      for field, value in verify.report_to_dict(report).items()]
    return lines


def sweep_line(scenario: str) -> str:
    """Digest of the ``sweep_r`` rows of one sweep scenario."""
    rows = verify.sweep_r(SWEEP_R_VALUES, scenario, transform.ft_params())
    return f"sweep_r {scenario} | rows {_sha(repr(rows).encode())}"


def library_lines() -> list:
    """Digest lines of every library scenario and order, then of the
    large-grid, even-grid and band-filling lines, then of every sweep
    scenario."""
    return ([library_line(*key) for key in _library_keys()]
            + [sweep_line(scenario) for scenario in verify.SWEEP_SCENARIOS])


REFINE_NS = (LIBRARY_N, 16385)
# Magnitude at or below which a field's value is rounding noise about 0
# (A* of the minimizer reads -5.4e-14, a slack at equality 1e-17), while
# the smallest true value of the scenarios, mu_spec of the published set
# at p = 4, is 5.1e-9.
REFINE_FLOOR = 1e-12


def refine_lines(names=None) -> list:
    """One line per float report field: its worst relative move from
    -8:8:4097 to -8:8:16385 over the library scenarios ``names`` (default:
    every one) and every order, and the report where it happens."""
    worst = {}  # field -> (move, where)
    skip = {"tol", *verify.GRID_FIELDS, *verify.PARAMS_FIELDS}
    for name in names or LIBRARY_SCENARIOS:
        for p in LIBRARY_ORDERS:
            coarse, fine = (library_reports(name, p, n)[-1] for n in REFINE_NS)
            for before, after in zip(coarse, fine):
                kind = " ".join(x for x in (before.bound, before.a_mode) if x)
                after = verify.report_to_dict(after)
                for field, x in verify.report_to_dict(before).items():
                    y = after[field]
                    if field in skip or not isinstance(x, float):
                        continue
                    scale = max(abs(x), abs(y))
                    move = abs(y - x) / scale if scale > REFINE_FLOOR else 0.0
                    if field not in worst or move > worst[field][0]:
                        worst[field] = (move, f"{_library_label(name, p, LIBRARY_N)}"
                                        f" | {kind}")
    return [f"{field} rel {_size(move)}" + (f" at {where}" if move else "")
            for field, (move, where) in worst.items()]


GAP_FIELDS = ("ppr_gap", "parseval_gap")


def parse_values(text: str) -> dict:
    """``<label> | <bound> | <field>`` -> value text, for every line of a
    ``--values`` output; a field that does not apply has the empty value."""
    return dict(line.rpartition(" ")[::2] for line in text.splitlines())


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare(before: dict, after: dict) -> tuple:
    """Summary lines of the moves from ``before`` to ``after`` (two
    :func:`parse_values` results), and whether they list the same keys.

    A move's relative size is taken against the larger of the two
    magnitudes, and is 0 when that is at or below ``REFINE_FLOOR``, as in
    :func:`refine_lines`; a field whose moved values are not both numbers
    (a flipped ``passed_*``) shows ``-`` for both sizes.
    """
    if before.keys() != after.keys():
        return ([f"only in {side}: {key}" for side, keys in
                 (("BEFORE", before.keys() - after.keys()),
                  ("AFTER", after.keys() - before.keys()))
                 for key in sorted(keys)], False)
    moves = {}  # field -> (count, largest absolute move, largest relative)
    for key, old in before.items():
        new = after[key]
        if new == old:
            continue
        field = key.rpartition(" | ")[2]
        count, big_abs, big_rel = moves.get(field, (0, 0.0, 0.0))
        x, y = _number(old), _number(new)
        if x is None or y is None:
            big_abs = big_rel = None
        elif big_abs is not None:
            big_abs = max(big_abs, abs(y - x))
            scale = max(abs(x), abs(y))
            if scale > REFINE_FLOOR:
                big_rel = max(big_rel, abs(y - x) / scale)
        moves[field] = (count + 1, big_abs, big_rel)
    lines = [f"{field} moved {count} abs {_size(big_abs)} rel {_size(big_rel)}"
             for field, (count, big_abs, big_rel) in sorted(moves.items())]
    lines += [f"worst {field} before {_size(_worst(before, field))} "
              f"after {_size(_worst(after, field))}" for field in GAP_FIELDS]
    return lines, True


def _worst(values: dict, field: str):
    """The largest number the field takes in a :func:`parse_values` result,
    or None."""
    numbers = [_number(v) for k, v in values.items() if k.endswith(f" | {field}")]
    return max((x for x in numbers if x is not None), default=None)


def _size(value) -> str:
    return "-" if value is None else f"{value:.3g}"


USAGE = "usage: repro_digest.py [--values | --refine | --compare BEFORE AFTER]"


def main(argv: list) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        texts = []
        for path in argv[1:]:
            try:
                texts.append(Path(path).read_text())
            except (OSError, UnicodeDecodeError) as exc:
                print(f"repro_digest.py: cannot read {path}: {exc}",
                      file=sys.stderr)
                return 2
        lines, same_keys = compare(*map(parse_values, texts))
    elif argv in ([], ["--values"], ["--refine"]):
        if not argv:
            lines = run() + library_lines()
        elif argv[0] == "--values":
            lines = value_lines()
        else:
            lines = refine_lines()
        same_keys = True
    else:
        print(USAGE, file=sys.stderr)
        return 2
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if same_keys else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
