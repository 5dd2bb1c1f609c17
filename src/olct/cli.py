"""Command-line frontend.

Subcommands map onto the library layers: ``transform`` emits a spectrum and
its energy-conservation verdict, ``ppr`` checks the spectral-moment
identity, ``verify`` runs one inequality end to end, ``sweep`` reproduces
the family sweeps, ``bound-table`` and ``gap-curve`` evaluate the closed-form
bound comparison, and ``energy`` emits the four energy densities.

Exit codes: 0 all requested checks passed, 1 an inequality or check failed,
2 configuration error, 3 a numerical precondition failed (a closed-form
bound that overflows float64 included).  All floats in CSV/JSON output are
printed with 17 significant digits so repeated runs are byte-identical.
Each command hands its table to ``csv_text`` as the columns it already
holds, so a table is formatted in one pass, and ``main`` parses with the
one parser ``build_parser`` builds on its first call.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NumericsError
from .signals import (
    AnalyticSignal,
    Grid,
    SampledSignal,
    WeightFunction,
    check_decay,
    exp_weight,
    gaussian_chirp,
    make_grid,
    trapezoid,
    unit_weight,
)
from .transform import OlctParams, ft_params, olct_forward, parseval_gap
from .moments import ppr_check
from .bounds import (
    HpwConfig,
    bound_gap_factor,
    reference_bound_closed_form,
    sharpened_bound_closed_form,
)
from .verify import (
    A_MODES,
    GRID_FIELDS,
    PARAMS_FIELDS,
    SWEEP_SCENARIOS,
    csv_text,
    dumps,
    fmt,
    minimizer_signal,
    report_to_dict,
    sweep_r,
    verify_hpw,
    verify_hw,
    verify_shw,
)

__all__ = ["main", "ScenarioConfig", "ConfigError"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


# --------------------------------------------------------------------------
# output files


def write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}")


# --------------------------------------------------------------------------
# scenario configuration


def _finite(text: str) -> float:
    """The one float parser of the config codec: finite values only."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _colon_triple(text: str, kind: str, spec: str, last) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{kind} must be {spec}, got {text!r}")
    try:
        return _finite(parts[0]), _finite(parts[1]), last(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad {kind} spec {text!r}: {exc}")


def _parse_grid(text: str) -> tuple:
    return _colon_triple(text, "grid", "T_MIN:T_MAX:N", int)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _unset_as(word: str) -> tuple:
    """Codec of an optional float whose unset value is spelled ``word``."""
    return (lambda s: None if s.lower() == word else _finite(s),
            lambda v: word if v is None else fmt(v))


def _joined(sep: str):
    return lambda values: sep.join(map(fmt, values))


_FLOAT = (_finite, fmt)
_WORD = (str, fmt)

# Config key -> (parse, format), in ScenarioConfig field order.  Both
# ScenarioConfig.from_section and ScenarioConfig.to_text read this table.
CONFIG_CODEC = {
    "signal": _WORD,
    "signal_r": _FLOAT,
    "signal_chirp": _unset_as("auto"),
    "c0": _FLOAT,
    "c_p": _FLOAT,
    "weight": _WORD,
    "weight_r": _unset_as("auto"),
    **{key: _FLOAT for key in ("a", "b", "c", "d", "tau", "eta")},
    "strict_params": (_parse_bool, fmt),
    "p": (int, fmt),
    "t_m": _FLOAT,
    "xi_m": _FLOAT,
    "a_mode": _WORD,
    "a_value": _FLOAT,
    "grid": (_parse_grid, _joined(":")),
    "tol": _FLOAT,
    "r_values": (lambda s: tuple(_finite(x) for x in s.split(",")),
                 _joined(",")),
    "r_range": (lambda s: _colon_triple(s, "range", "START:STOP:STEP",
                                        _finite), _joined(":")),
    "reference_value": _unset_as("none"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: signal, weight, transform parameters, moment setup,
    auxiliary-term mode, grid, tolerances and sweep ranges.

    Every omitted key falls back to the defaults below; a config written
    with :meth:`to_text` parses back to an identical object.
    """

    name: str = "scenario"
    signal: str = "gaussian_chirp"      # gaussian_chirp | minimizer
    signal_r: float = 2.0
    signal_chirp: Optional[float] = None  # None -> a/(2b)
    c0: float = 1.0
    c_p: float = 1.0
    weight: str = "exp"                 # exp | unit
    weight_r: Optional[float] = None    # None -> signal_r
    a: float = 0.0
    b: float = 1.0
    c: float = -1.0
    d: float = 0.0
    tau: float = 0.0
    eta: float = 0.0
    strict_params: bool = True
    p: int = 1
    t_m: float = 0.0
    xi_m: float = 0.0
    a_mode: str = "saturating"          # one of verify.A_MODES
    a_value: float = 1.0
    grid: tuple = (-8.0, 8.0, 4097)
    tol: float = 1e-6
    r_values: tuple = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    r_range: tuple = (0.05, 10.0, 0.05)
    reference_value: Optional[float] = None  # published value to compare with

    @classmethod
    def from_section(cls, section: configparser.SectionProxy,
                     name: str) -> "ScenarioConfig":
        for key in section:
            if key not in CONFIG_CODEC:
                raise ConfigError(f"unknown config key {key!r} in [{name}]")
        kwargs = {}
        for key, (parse, _) in CONFIG_CODEC.items():
            raw = section.get(key, None)
            if raw is not None:
                try:
                    kwargs[key] = parse(raw.strip())
                except ValueError as exc:
                    raise ConfigError(f"[{name}] {key}: {exc}")
        cfg = cls(name=name, **kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.signal not in ("gaussian_chirp", "minimizer"):
            raise ConfigError(f"unknown signal family {self.signal!r}")
        if self.weight not in ("exp", "unit"):
            raise ConfigError(f"unknown weight {self.weight!r}")
        if self.a_mode not in A_MODES:
            raise ConfigError(f"unknown a_mode {self.a_mode!r}")
        if not self.signal_r > 0:
            raise ConfigError(f"signal_r must be positive, got {self.signal_r}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if self.reference_value == 0:
            raise ConfigError("reference_value must be nonzero, got 0")

    def to_text(self) -> str:
        """Config-file section with every effective value spelled out."""
        lines = [f"[{self.name}]"]
        lines += [f"{key} = {show(getattr(self, key))}"
                  for key, (_, show) in CONFIG_CODEC.items()]
        return "\n".join(lines) + "\n"

    # -- builders ----------------------------------------------------------

    def grid_obj(self) -> Grid:
        try:
            return make_grid(*self.grid)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}")

    def params_obj(self) -> OlctParams:
        try:
            return OlctParams(self.a, self.b, self.c, self.d, self.tau,
                              self.eta, strict=self.strict_params)
        except ValueError as exc:
            raise ConfigError(f"params: {exc}")

    def weight_obj(self) -> WeightFunction:
        if self.weight == "unit":
            return unit_weight()
        r = self.signal_r if self.weight_r is None else self.weight_r
        return exp_weight(r)

    def signal_obj(self, params: OlctParams) -> AnalyticSignal:
        if self.signal == "minimizer":
            return minimizer_signal(self.c0, self.c_p, self.t_m, self.xi_m,
                                    params)
        if self.signal_chirp is None:
            if params.is_degenerate:
                raise ConfigError(
                    "signal_chirp = auto needs b != 0; set an explicit value")
            chirp = params.chirp_rate
        else:
            chirp = self.signal_chirp
        return gaussian_chirp(self.signal_r, chirp)

    def sampled_signal(self, params: OlctParams) -> SampledSignal:
        return self.signal_obj(params).sample(self.grid_obj())

    def hpw_config(self) -> HpwConfig:
        return HpwConfig(p=self.p, t_m=self.t_m, xi_m=self.xi_m,
                         omega=self.weight_obj())


def load_config(path: Optional[str], scenario: Optional[str],
                overrides: argparse.Namespace) -> ScenarioConfig:
    if path is None:
        cfg = ScenarioConfig()
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}")
        names = parser.sections()
        if not names:
            raise ConfigError(f"config {path!r} has no scenario sections")
        pick = scenario or names[0]
        if pick not in names:
            raise ConfigError(
                f"scenario {pick!r} not in {path!r}; available: {names}")
        cfg = ScenarioConfig.from_section(parser[pick], pick)
    if getattr(overrides, "grid", None):
        cfg = replace(cfg, grid=_parse_grid(overrides.grid))
    if getattr(overrides, "tol", None) is not None:
        cfg = replace(cfg, tol=float(overrides.tol))
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# subcommands


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(dumps(payload) + "\n")
    else:
        sys.stdout.write(human + "\n")


def _report_payload(report) -> dict:
    """The CLI view of :func:`report_to_dict`: the right sides as
    ``rhs_<bound>``, slack and verdict of the report's own bound, and the
    grid and parameter fields nested."""
    row = report_to_dict(report)
    bound = report.bound
    return {
        "scenario": row["scenario"],
        "p": row["p"],
        "lhs": row["lhs"],
        "rhs_hpw": row["hpw_rhs"],
        "rhs_shw": row["shw_rhs"],
        "rhs_hw": row["hw_rhs"],
        "slack": row["slack_" + bound],
        "rel_slack": row["rel_slack_" + bound],
        "passed": row["passed_" + bound],
        "ppr_gap": row["ppr_gap"],
        "parseval_gap": row["parseval_gap"],
        "grid": {col: row[col] for col in GRID_FIELDS},
        "params": {col: row[col] for col in PARAMS_FIELDS},
    }


def cmd_transform(args) -> int:
    cfg = load_config(args.config, args.scenario, args)
    params = cfg.params_obj()
    f = cfg.sampled_signal(params)
    spectrum = olct_forward(f, params)
    gap = parseval_gap(f, spectrum)
    out_dir = Path(args.out or ".")
    write_text(out_dir / "spectrum.csv",
               csv_text(["xi", "real", "imag"],
                        [spectrum.grid.points(), spectrum.values.real,
                         spectrum.values.imag]))
    ok = gap <= cfg.tol
    _emit(args, {"scenario": cfg.name, "parseval_gap": gap, "tol": cfg.tol,
                 "passed": ok, "spectrum_csv": str(out_dir / "spectrum.csv")},
          f"parseval_gap = {fmt(gap)} (tol {fmt(cfg.tol)}): "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_ppr(args) -> int:
    cfg = load_config(args.config, args.scenario, args)
    params = cfg.params_obj()
    f = cfg.sampled_signal(params)
    res = ppr_check(f, params, cfg.p, cfg.xi_m)
    ok = res.rel_gap <= cfg.tol
    payload = {"scenario": cfg.name, "p": cfg.p, "xi_m": cfg.xi_m,
               "lhs": res.lhs, "rhs": res.rhs, "rel_gap": res.rel_gap,
               "tol": cfg.tol, "passed": ok}
    if args.out:
        write_text(Path(args.out) / "ppr.json", dumps(payload) + "\n")
    _emit(args, payload,
          f"moment identity p={cfg.p}: lhs={fmt(res.lhs)} rhs={fmt(res.rhs)} "
          f"rel_gap={fmt(res.rel_gap)} (tol {fmt(cfg.tol)}): "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify(args) -> int:
    cfg = load_config(args.config, args.scenario, args)
    params = cfg.params_obj()
    f = cfg.sampled_signal(params)
    if args.bound == "hpw":
        report = verify_hpw(f, params, cfg.hpw_config(), tol=cfg.tol,
                            scenario=cfg.name)
    elif args.bound == "shw":
        report = verify_shw(f, params, cfg.hpw_config(), a_mode=cfg.a_mode,
                            a_value=cfg.a_value, tol=cfg.tol,
                            scenario=cfg.name)
    else:
        if cfg.p < 2:
            raise ConfigError("bound 'hw' needs p >= 2")
        report = verify_hw(f, params, cfg.p, t_m=cfg.t_m, xi_m=cfg.xi_m,
                           tol=cfg.tol, scenario=cfg.name)
    payload = _report_payload(report)
    note = ""
    if args.bound == "shw" and report.a_admissible is False:
        payload["a_admissible"] = False
        note = " [A exceeds admissible range; bound not applicable]"
    if cfg.reference_value is not None:
        payload["reference_value"] = cfg.reference_value
        payload["computed_over_reference"] = report.lhs / cfg.reference_value
        note = (f" [reference {fmt(cfg.reference_value)}, computed/reference "
                f"= {fmt(payload['computed_over_reference'])}]")
    if args.out:
        write_text(Path(args.out) / f"verify_{args.bound}.json",
                   dumps(payload) + "\n")
    rhs = payload["rhs_" + args.bound]
    _emit(args, payload,
          f"{args.bound} [{cfg.name}]: lhs={fmt(report.lhs)} rhs={fmt(rhs)} "
          f"slack={fmt(payload['slack'])}: "
          f"{'PASS' if payload['passed'] else 'FAIL'}{note}")
    return EXIT_OK if payload["passed"] else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, None, args)
    scenario = args.scenario or cfg.a_mode
    alias = {"zero": "a0", "fixed": "a1"}
    scenario = alias.get(scenario, scenario)
    if scenario not in SWEEP_SCENARIOS:
        raise ConfigError(
            f"unknown sweep scenario {scenario!r}; expected one of "
            f"{sorted(SWEEP_SCENARIOS)}")
    fixed_a = SWEEP_SCENARIOS[scenario][1]
    if fixed_a is not None and cfg.a_value != fixed_a:
        raise ConfigError(
            f"a_value = {fmt(cfg.a_value)}, but sweep scenario {scenario!r} "
            f"runs A = {fmt(fixed_a)}")
    params = cfg.params_obj()
    rows = sweep_r(cfg.r_values, scenario, params, p=cfg.p)
    out_dir = Path(args.out or ".")
    path = out_dir / f"sweep_{scenario}.csv"
    write_text(path, csv_text(["r", "lhs", "rhs"],
                              list(zip(*((row.r, row.lhs, row.rhs)
                                         for row in rows)))))
    bad = [row for row in rows if row.lhs < row.rhs - cfg.tol * abs(row.lhs)]
    ok = not bad
    _emit(args, {"scenario": scenario, "rows": len(rows), "passed": ok,
                 "csv": str(path)},
          f"sweep {scenario}: {len(rows)} rows, "
          f"{'all lhs >= rhs' if ok else f'{len(bad)} violations'}: "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_bound_table(args) -> int:
    cfg = load_config(args.config, args.scenario, args)
    rows = []
    ok = True
    for r in cfg.r_values:
        sharp = sharpened_bound_closed_form(r, cfg.b)
        ref = reference_bound_closed_form(r, cfg.b)
        ok = ok and sharp > ref
        rows.append((r, sharp, ref))
    out_dir = Path(args.out or ".")
    path = out_dir / "bound_table.csv"
    write_text(path, csv_text(["r", "sharpened", "reference"],
                              list(zip(*rows))))
    lines = [f"r={fmt(r)}: sharpened={fmt(s)} reference={fmt(ref)}"
             for r, s, ref in rows]
    _emit(args, {"b": cfg.b, "rows": [{"r": r, "sharpened": s, "reference": ref}
                                      for r, s, ref in rows],
                 "passed": ok, "csv": str(path)},
          "\n".join(lines) + f"\nsharpened > reference in every row: "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_gap_curve(args) -> int:
    cfg = load_config(args.config, args.scenario, args)
    start, stop, step = cfg.r_range
    if start <= 0 or step <= 0 or stop < start:
        raise ConfigError(f"bad r_range {cfg.r_range}")
    rs = np.arange(start, stop + step / 2.0, step)
    rows = [(float(r), bound_gap_factor(float(r))) for r in rs]
    out_dir = Path(args.out or ".")
    path = out_dir / "gap_curve.csv"
    write_text(path, csv_text(["r", "gap"], list(zip(*rows))))
    ok = all(gap > 0 for _, gap in rows)
    _emit(args, {"rows": len(rows), "min_gap": min(g for _, g in rows),
                 "passed": ok, "csv": str(path)},
          f"gap factor on ({fmt(start)}, {fmt(stop)}] step {fmt(step)}: "
          f"min={fmt(min(g for _, g in rows))}, all positive: "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _second_central_moment(grid: Grid, dens: np.ndarray) -> dict:
    x = grid.points()
    total = float(trapezoid(grid, dens))
    centroid = float(trapezoid(grid, x * dens) / total) if total > 0 else 0.0
    spread = (float(trapezoid(grid, (x - centroid) ** 2 * dens) / total)
              if total > 0 else 0.0)
    return {"energy": total, "centroid": centroid,
            "second_central_moment": spread}


def cmd_energy(args) -> int:
    cfg = load_config(args.config, args.scenario, args)
    params = cfg.params_obj()
    f = cfg.sampled_signal(params)
    ft = olct_forward(f, ft_params())
    olct_spec = olct_forward(f, params)
    # view -> (axis, grid, density); every density passes the truncation
    # guard before any file is written
    views = {
        "time": ("t", f.grid, np.abs(f.values) ** 2),
        "weighted": ("t", f.grid,
                     np.abs(cfg.weight_obj()(f.grid.points()) * f.values) ** 2),
        "ft": ("xi", ft.grid, np.abs(ft.values) ** 2),
        "olct": ("xi", olct_spec.grid, np.abs(olct_spec.values) ** 2),
    }
    for view, (_, _, dens) in views.items():
        check_decay(dens, f"the {view} energy density")

    out_dir = Path(args.out or ".")
    summary = {"scenario": cfg.name}
    for view, (axis, grid, dens) in views.items():
        write_text(out_dir / f"energy_{view}.csv",
                   csv_text([axis, "density"], [grid.points(), dens]))
        summary[view] = _second_central_moment(grid, dens)
    write_text(out_dir / "energy_summary.json", dumps(summary) + "\n")
    _emit(args, summary,
          "\n".join(f"{k}: spread={fmt(v['second_central_moment'])}"
                    for k, v in summary.items() if isinstance(v, dict)))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="scenario config file (INI sections)")
    sub.add_argument("--scenario", help="section name inside the config")
    sub.add_argument("--out", help="output directory (file-producing commands default to the working directory)")
    sub.add_argument("--tol", type=float, default=None,
                     help="tolerance override")
    sub.add_argument("--grid", help="grid override T_MIN:T_MAX:N")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable JSON to stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``olct`` argument parser, built on the first call and shared by
    every later one: ``parse_args`` returns a fresh namespace each time and
    leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="olct",
        description="Offset linear canonical transform and "
                    "duration-bandwidth bound checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("transform", help="emit a spectrum and the "
                          "energy-conservation verdict")
    _add_common(sub)
    sub.set_defaults(func=cmd_transform)

    sub = subs.add_parser("ppr", help="check the spectral-moment identity")
    _add_common(sub)
    sub.set_defaults(func=cmd_ppr)

    sub = subs.add_parser("verify", help="verify one inequality end to end")
    _add_common(sub)
    sub.add_argument("--bound", choices=("hpw", "shw", "hw"), default="shw")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("sweep", help="family sweep over r")
    _add_common(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("bound-table", help="closed-form bound comparison")
    _add_common(sub)
    sub.set_defaults(func=cmd_bound_table)

    sub = subs.add_parser("gap-curve", help="closed-form bound gap factor")
    _add_common(sub)
    sub.set_defaults(func=cmd_gap_curve)

    sub = subs.add_parser("energy", help="emit the four energy densities")
    _add_common(sub)
    sub.set_defaults(func=cmd_energy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow and NaN reach the guards, which turn them into exit 3;
        # numpy's own warnings about them would only clutter stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ValueError as exc:
        if isinstance(exc, NumericsError):
            kind, prefix, code = ("numerics", "numerical precondition failed",
                                  EXIT_NUMERICS)
        else:
            kind, prefix, code = "config", "config error", EXIT_CONFIG
        if getattr(args, "json", False):
            payload = {"error": {"type": kind, "message": str(exc)}}
            sys.stdout.write(dumps(payload) + "\n")
        else:
            sys.stderr.write(f"{prefix}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
