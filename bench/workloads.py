"""The benchmark's workloads and the checks on their outputs.

Each workload hands out whole rounds of operations.  An operation is a pair
of callables: ``run`` is timed and calls into ``olct``; ``check`` is not
timed and compares the output with an oracle from ``oracle.py`` or with a
property the method must have.  ``check`` returns ``(failed, problem)``:
``failed`` counts rows of the operation that failed, ``problem`` describes
an output that is wrong (``None`` when it is right).

Every call into the package goes through a module attribute looked up at
call time (``olct.verify.verify_shw``), so the traced mode sees it.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Tolerances of the checks, fixed before any run.
LHS_RTOL = 1e-6       # lhs against the quadrature oracle (acceptance criterion 7)
BOUND_RTOL = 1e-6     # rhs <= lhs (1 + BOUND_RTOL), the library's inequality slack
PPR_TOL = 1e-4        # spectral-moment identity gap (the CLI's DEFAULT_PPR_TOL)
PARSEVAL_TOL = 1e-6   # energy-conservation gap (acceptance criterion 2)
ENERGY_RTOL = 1e-6    # an energy density integrates to the signal energy
SPECTRUM_RTOL = 1e-9  # a spectrum against its closed form, relative to its peak


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], tuple]
    keys: tuple  # one (signal, params, grid) key per row; len(keys) rows


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _bound_problems(lhs: float, rhs: dict, strict: bool = False) -> list:
    out = []
    for name, value in rhs.items():
        if value > lhs * (1.0 + BOUND_RTOL):
            out.append(f"{name} {value!r} > lhs {lhs!r}")
        elif strict and not lhs > value:
            out.append(f"{name} {value!r} not strictly below lhs {lhs!r}")
    return out


def _verdict(problems: list) -> tuple:
    return 0, ("; ".join(problems) or None)


def _raised(out, rows: int = 1):
    if isinstance(out, Exception):
        return rows, f"raised {type(out).__name__}: {out}"
    return None


def _family_lhs(r: float) -> float:
    """lhs of the b = 1 sweep family at r: weight exp(-r t), p = 1."""
    return oracle.report_lhs("shw", 1, r, 0.0, 0.0, 1.0, 0.0, r, 0.0, 0.0)


def _completed_params(olct, a: float, b: float, tau: float = 0.0):
    """(a, b, tau) with (c, d) solved from a*d - b*c = 1, as tests/conftest.py."""
    if a != 0.0:
        c, d = 0.5, (1.0 + b * 0.5) / a
    else:
        c, d = -1.0 / b, 0.4
    return olct.OlctParams(a, b, c, d, tau, 0.0)


class Reports64k:
    """One report per operation on the grid -8:8:65537.

    Every round holds each (bound, p) pair of ``KINDS`` once, in a seeded
    order, so per-operation counts do not depend on the seed.  Each
    operation draws its own signal, parameter set, weight and centers as the
    acceptance suite's randomized scenarios do.  The absolute-moment bound
    is defined for p >= 2 only, so it runs at p = 2 and 4.
    """

    KINDS = (("hpw", 1), ("hpw", 2), ("hpw", 4), ("shw", 1), ("shw", 2),
             ("shw", 4), ("hw", 2), ("hw", 4))

    def __init__(self, olct, seed: int, setup_index: int, workdir: Path):
        self.olct = olct
        self.rng = np.random.default_rng([seed, 0])
        self.warm_rng = np.random.default_rng([seed, 1, setup_index])
        self.grid = olct.make_grid(-8.0, 8.0, 65537)
        self.t = self.grid.points()
        self.param_sets = [_completed_params(olct, a, b, tau)
                           for a in (0.0, 0.6, 6.0) for b in (0.05, 0.5, 1.0)
                           for tau in (0.0, 1.0)]
        self.param_sets.append(
            olct.OlctParams(0.6, 0.05, 0.5, 0.4, 0.0, 1.0, strict=False))

    def warm_up(self) -> None:
        self._op("shw", 1, self.warm_rng).run()

    def round(self) -> list:
        order = self.rng.permutation(len(self.KINDS))
        return [self._op(*self.KINDS[i], self.rng) for i in order]

    def _op(self, bound: str, p: int, rng) -> Op:
        olct = self.olct
        params = self.param_sets[int(rng.integers(len(self.param_sets)))]
        r = float(10.0 ** rng.uniform(0.0, 1.0))
        chirp = params.chirp_rate + float(rng.uniform(-2.0, 2.0))
        weight_rate = r if rng.random() < 0.5 else 0.0
        t_m = float(rng.choice((0.0, 0.3)))
        xi_m = float(rng.choice((0.0, params.tau + 0.5)))
        f = olct.SampledSignal(self.grid,
                               np.exp(-(r / 2.0 + 1j * chirp) * self.t ** 2))
        if bound == "hw":
            def run():
                return olct.verify.verify_hw(f, params, p, t_m=t_m, xi_m=xi_m)
        else:
            omega = olct.exp_weight(r) if weight_rate else olct.unit_weight()
            cfg = olct.HpwConfig(p=p, t_m=t_m, xi_m=xi_m, omega=omega)
            if bound == "hpw":
                def run():
                    return olct.verify.verify_hpw(f, params, cfg)
            else:
                def run():
                    return olct.verify.verify_shw(f, params, cfg, a_mode="gram")

        def check(rep) -> tuple:
            raised = _raised(rep)
            if raised:
                return raised
            ref = oracle.report_lhs(bound, p, r, chirp, params.a, params.b,
                                    params.tau, weight_rate, t_m, xi_m)
            problems = []
            if _rel(rep.lhs, ref) > LHS_RTOL:
                problems.append(f"lhs {rep.lhs!r} vs oracle {ref!r}")
            if bound == "hw":
                rhs = {"hw_rhs": rep.hw_rhs}
            else:
                rhs = {"hpw_rhs": rep.hpw_rhs}
                if bound == "shw":
                    rhs["shw_rhs"] = rep.shw_rhs
            problems += _bound_problems(rep.lhs, rhs)
            if bound != "hw" and not rep.ppr_gap <= PPR_TOL:
                problems.append(f"ppr_gap {rep.ppr_gap!r}")
            if not rep.parseval_gap <= PARSEVAL_TOL:
                problems.append(f"parseval_gap {rep.parseval_gap!r}")
            if bound == "hw" and not (rep.holder_time_slack >= 0.0
                                      and rep.holder_spec_slack >= 0.0):
                problems.append("negative Holder slack")
            if problems:
                problems[0] = (f"{bound} p={p} r={r!r} chirp={chirp!r} "
                               f"{params}: " + problems[0])
            return _verdict(problems)

        key = (r, chirp, params.a, params.b, params.tau, params.eta)
        return Op(run, check, (key,))


class Sweep:
    """One sweep row per operation; rows are run 40 at a time by one
    ``sweep_r`` call, as the repro sweep configs run them.

    A round draws 40 values of r in [0.5, 5] (the repro configs' range) and
    sweeps them under each auxiliary-term mode, in a seeded order, on the
    b = 1 family; 3 of every 4 rows repeat an earlier row's signal, params
    and grid.  A call's time is shared equally among its rows.
    """

    MODES = ("gram", "a0", "a1", "saturating")
    ROWS = 40

    def __init__(self, olct, seed: int, setup_index: int, workdir: Path):
        self.olct = olct
        self.params = olct.ft_params()
        self.rng = np.random.default_rng([seed, 0])
        self.warm_rng = np.random.default_rng([seed, 1, setup_index])

    def warm_up(self) -> None:
        r = float(self.warm_rng.uniform(0.5, 5.0))
        self.olct.verify.sweep_r([r], "gram", self.params)

    def round(self) -> list:
        rs = sorted(float(r) for r in self.rng.uniform(0.5, 5.0, self.ROWS))
        refs = {}

        def ref(r: float) -> float:
            if r not in refs:
                refs[r] = _family_lhs(r)
            return refs[r]

        order = self.rng.permutation(len(self.MODES))
        return [self._op(self.MODES[i], rs, ref) for i in order]

    def _op(self, mode: str, rs: list, ref) -> Op:
        olct, params = self.olct, self.params

        def run():
            return olct.verify.sweep_r(rs, mode, params)

        def check(rows) -> tuple:
            raised = _raised(rows, len(rs))
            if raised:
                return raised
            if [row.r for row in rows] != rs:
                return 0, f"sweep {mode}: rows do not follow the input r values"
            problems = []
            for row in rows:
                if _rel(row.lhs, ref(row.r)) > LHS_RTOL:
                    problems.append(f"r={row.r!r}: lhs {row.lhs!r} vs oracle "
                                    f"{ref(row.r)!r}")
                problems += [f"r={row.r!r}: " + msg for msg in _bound_problems(
                    row.lhs, {"rhs": row.rhs}, strict=mode in ("a0", "a1"))]
            if problems:
                problems[0] = f"sweep {mode}: " + problems[0]
            return _verdict(problems)

        return Op(run, check, tuple(("family", r) for r in rs))


# --------------------------------------------------------------------------
# cli-repro


# command name -> (CLI subcommand, repro config stem).  Every repro config
# runs with the subcommand the package README gives it.  ``transform_b005``
# adds the fast-path spectrum of the published b = 0.05 scenario: with 13
# commands a round the median falls inside one command's times instead of
# between the fastest and slowest halves of the mix.
REPRO_COMMANDS = {
    "bound_table": (["bound-table"], "bound_table"),
    "energy": (["energy"], "energy"),
    "energy_fast_weight": (["energy"], "energy_fast_weight"),
    "energy_wide": (["energy"], "energy_wide"),
    "gap_curve": (["gap-curve"], "gap_curve"),
    "ppr": (["ppr"], "ppr"),
    "sweep_a0": (["sweep"], "sweep_a0"),
    "sweep_a1": (["sweep"], "sweep_a1"),
    "sweep_gram": (["sweep"], "sweep_gram"),
    "transform_b0": (["transform"], "transform_b0"),
    "transform_b005": (["transform"], "verify_saturating"),
    "verify_saturating": (["verify", "--bound", "shw"], "verify_saturating"),
}

# The aliasing reproducer: default_xi_grid picks |u| up to about 1200, past
# pi/dt = 804 on this grid, and the report still passes.
ALIAS_STEM = "alias_ft_r2_chirp30"
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

SWEEP_MODE_FILES = {"zero": "a0", "fixed": "a1", "gram": "gram",
                    "saturating": "saturating"}


class Scenario:
    """A repro config section read with the documented defaults, apart from
    the package's own config loader."""

    def __init__(self, path: Path):
        self.path = path
        parser = configparser.ConfigParser(interpolation=None)
        with open(path) as fh:
            parser.read_file(fh)
        sec = parser[parser.sections()[0]]
        num = lambda key, default: float(sec.get(key, default))
        self.a, self.b, self.c, self.d = (num("a", 0), num("b", 1),
                                          num("c", -1), num("d", 0))
        self.tau, self.eta = num("tau", 0), num("eta", 0)
        self.r = num("signal_r", 2)
        chirp = sec.get("signal_chirp", "auto")
        self.chirp = self.a / (2 * self.b) if chirp == "auto" else float(chirp)
        weight_r = sec.get("weight_r", "auto")
        self.weight_rate = (0.0 if sec.get("weight", "exp") == "unit" else
                            self.r if weight_r == "auto" else float(weight_r))
        self.p = int(sec.get("p", "1"))
        self.t_m, self.xi_m = num("t_m", 0), num("xi_m", 0)
        self.a_mode = sec.get("a_mode", "saturating")
        lo, hi, n = sec.get("grid", "-8:8:4097").split(":")
        self.grid = (float(lo), float(hi), int(n))
        self.r_values = [float(x) for x in sec.get(
            "r_values", "0.5,1,1.5,2,2.5,3,3.5,4,4.5,5").split(",")]
        start, stop, step = (float(x) for x in sec.get(
            "r_range", "0.05:10:0.05").split(":"))
        self.n_range = len(np.arange(start, stop + step / 2.0, step))

    def lhs(self) -> float:
        return oracle.report_lhs("shw", self.p, self.r, self.chirp, self.a,
                                 self.b, self.tau, self.weight_rate, self.t_m,
                                 self.xi_m)


def _csv(blob: bytes, header: list) -> np.ndarray:
    text = blob.decode("ascii")
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise ValueError(f"header {first!r}, expected {header}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _check_verify(sc: Scenario, files: dict) -> list:
    rep = json.loads(files["verify_shw.json"])
    ref = sc.lhs()
    problems = []
    if _rel(rep["lhs"], ref) > LHS_RTOL:
        problems.append(f"lhs {rep['lhs']!r} vs oracle {ref!r}")
    problems += _bound_problems(rep["lhs"], {"rhs_shw": rep["rhs_shw"],
                                             "rhs_hpw": rep["rhs_hpw"]})
    if not rep["ppr_gap"] <= PPR_TOL:
        problems.append(f"ppr_gap {rep['ppr_gap']!r}")
    if not rep["parseval_gap"] <= PARSEVAL_TOL:
        problems.append(f"parseval_gap {rep['parseval_gap']!r}")
    if rep["passed"] is not True:
        problems.append("report did not pass")
    return problems


def _check_ppr(sc: Scenario, files: dict) -> list:
    rep = json.loads(files["ppr.json"])
    ref = oracle.spectral_moment(sc.r, sc.chirp, sc.a, sc.b, sc.tau, sc.xi_m,
                                 sc.p)
    problems = [f"{side} {rep[side]!r} vs oracle {ref!r}"
                for side in ("lhs", "rhs") if _rel(rep[side], ref) > LHS_RTOL]
    if not rep["rel_gap"] <= PPR_TOL:
        problems.append(f"rel_gap {rep['rel_gap']!r}")
    return problems


def _check_sweep(sc: Scenario, files: dict) -> list:
    mode = SWEEP_MODE_FILES[sc.a_mode]
    rows = _csv(files[f"sweep_{mode}.csv"], ["r", "lhs", "rhs"])
    if rows[:, 0].tolist() != sc.r_values:
        return ["rows do not follow r_values"]
    problems = []
    for r, lhs, rhs in rows.tolist():
        ref = _family_lhs(r)
        if _rel(lhs, ref) > LHS_RTOL:
            problems.append(f"r={r!r}: lhs {lhs!r} vs oracle {ref!r}")
        problems += _bound_problems(lhs, {"rhs": rhs},
                                    strict=mode in ("a0", "a1"))
    return problems


def _check_bound_table(sc: Scenario, files: dict) -> list:
    # The sharpened closed form is the family's squared moment product b^2 lhs^2.
    problems = []
    for r, sharp, ref in _csv(files["bound_table.csv"],
                              ["r", "sharpened", "reference"]).tolist():
        expect = sc.b ** 2 * _family_lhs(r) ** 2
        if _rel(sharp, expect) > 1e-9:
            problems.append(f"r={r!r}: sharpened {sharp!r} vs oracle {expect!r}")
        if not sharp > ref > 0.0:
            problems.append(f"r={r!r}: sharpened {sharp!r} <= reference {ref!r}")
    return problems


def _check_gap_curve(sc: Scenario, files: dict) -> list:
    rows = _csv(files["gap_curve.csv"], ["r", "gap"])
    if len(rows) != sc.n_range:
        return [f"{len(rows)} rows, expected {sc.n_range}"]
    if not np.all(rows[:, 1] > 0.0):
        return ["non-positive gap factor"]
    return []


def _check_energy(sc: Scenario, files: dict) -> list:
    e_time = oracle.signal_energy(sc.r)
    expect = {"time": e_time, "weighted": oracle.signal_energy(sc.r, sc.weight_rate),
              "ft": e_time, "olct": e_time}
    summary = json.loads(files["energy_summary.json"])
    problems = []
    for view, ref in expect.items():
        axis = "t" if view in ("time", "weighted") else "xi"
        rows = _csv(files[f"energy_{view}.csv"], [axis, "density"])
        total = float(np.trapezoid(rows[:, 1], rows[:, 0]))
        for what, value in (("integral", total),
                            ("summary", summary[view]["energy"])):
            if _rel(value, ref) > ENERGY_RTOL:
                problems.append(f"{view} density {what} {value!r} vs "
                                f"signal energy {ref!r}")
    return problems


def _check_transform(sc: Scenario, files: dict) -> list:
    rows = _csv(files["spectrum.csv"], ["xi", "real", "imag"])
    xi, spec = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    if sc.b == 0.0:
        ref = oracle.b0_spectrum(xi, sc.r, sc.chirp, sc.c, sc.d, sc.tau,
                                 sc.eta, sc.grid[0], sc.grid[1])
        err = np.max(np.abs(spec - ref)) / np.max(np.abs(ref))
    else:
        ref = oracle.spectrum_magnitude(xi, sc.r, sc.chirp, sc.a, sc.b, sc.tau)
        err = np.max(np.abs(np.abs(spec) - ref)) / np.max(ref)
    problems = [] if err <= SPECTRUM_RTOL else [
        f"spectrum off its closed form by {err:.3e} of the peak"]
    energy = float(np.trapezoid(np.abs(spec) ** 2, xi))
    if _rel(energy, oracle.signal_energy(sc.r)) > ENERGY_RTOL:
        problems.append(f"spectrum energy {energy!r}")
    return problems


CHECKERS = {
    "bound_table": _check_bound_table,
    "gap_curve": _check_gap_curve,
    "ppr": _check_ppr,
    "transform_b0": _check_transform,
    "transform_b005": _check_transform,
    "verify_saturating": _check_verify,
}
CHECKERS.update({s: _check_energy for s in ("energy", "energy_fast_weight",
                                            "energy_wide")})
CHECKERS.update({s: _check_sweep for s in ("sweep_a0", "sweep_a1", "sweep_gram")})


class CliRepro:
    """One CLI command per operation, through ``olct.cli.main`` in-process.

    A round runs every repro config plus the aliasing reproducer, in a
    seeded order.  Each command writes into its own directory, which is
    emptied after its check.  The first run of each command is checked in
    full; every later run must give the same exit code and byte-identical
    files.
    """

    def __init__(self, olct, seed: int, setup_index: int, workdir: Path):
        self.olct = olct
        self.rng = np.random.default_rng([seed, 0])
        root = Path(olct.__file__).resolve().parent / "repro"
        self.out = workdir / "cli-repro"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        alias = self.out / f"{ALIAS_STEM}.cfg"
        alias.write_text(ALIAS_CONFIG)
        self.commands = [(stem, argv, root / f"{cfg}.cfg")
                         for stem, (argv, cfg) in REPRO_COMMANDS.items()]
        self.commands.append((ALIAS_STEM, ["verify", "--bound", "shw"], alias))
        missing = [str(cfg) for _, _, cfg in self.commands if not cfg.is_file()]
        if missing:
            raise FileNotFoundError(f"repro configs missing: {missing}")
        self.scenarios = {stem: Scenario(cfg) for stem, _, cfg in self.commands}
        self.first = {}

    def _main(self, argv: list) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.olct.cli.main(argv)
        return code, buf.getvalue()

    def warm_up(self) -> None:
        argv, _ = REPRO_COMMANDS["verify_saturating"]
        cfg = self.scenarios["verify_saturating"].path
        out = self.out / "warm-up"
        self._main(argv + ["--config", str(cfg), "--out", str(out), "--json"])
        shutil.rmtree(out)

    def round(self) -> list:
        return [self._op(*self.commands[i])
                for i in self.rng.permutation(len(self.commands))]

    def _op(self, stem: str, argv: list, cfg: Path) -> Op:
        out = self.out / stem
        full = argv + ["--config", str(cfg), "--out", str(out), "--json"]

        def run():
            return self._main(full)

        def check(result) -> tuple:
            raised = _raised(result)
            if raised:
                return raised
            code, stdout = result
            files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                     if out.is_dir() else {})
            shutil.rmtree(out, ignore_errors=True)
            digest = {name: hashlib.sha256(b).hexdigest()
                      for name, b in files.items()}
            if stem in self.first:
                first_code, first_digest, verdict = self.first[stem]
                if (code, digest) != (first_code, first_digest):
                    return 0, f"{stem}: output differs from the first pass"
                return verdict
            verdict = self._first_check(stem, code, stdout, files)
            self.first[stem] = (code, digest, verdict)
            return verdict

        return Op(run, check, (("cli", stem),))

    def _first_check(self, stem: str, code: int, stdout: str,
                     files: dict) -> tuple:
        sc = self.scenarios[stem]
        if stem == ALIAS_STEM:
            # Succeeds once the program refuses the scenario or gets it right.
            if code in (1, 3):
                return 0, None
            try:
                lhs = json.loads(files["verify_shw.json"])["lhs"]
                agrees = code == 0 and _rel(lhs, sc.lhs()) <= LHS_RTOL
            except (KeyError, ValueError):
                agrees = False
            return (0 if agrees else 1), None
        if code != 0:
            return 0, f"{stem}: exit code {code}"
        try:
            json.loads(stdout)
            problems = CHECKERS[stem](sc, files)
        except (KeyError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            problems[0] = f"{stem}: " + problems[0]
        return _verdict(problems)


WORKLOADS = {"reports-64k": Reports64k, "sweep": Sweep, "cli-repro": CliRepro}
