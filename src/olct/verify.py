"""End-to-end inequality verification: assemble the moment products and all
right-hand sides into reports, and run the parameter sweeps behind the
reproduction scenarios.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NumericsError
from .signals import (
    AnalyticSignal,
    Grid,
    SampledSignal,
    abs_energy,
    energy,
    exp_weight,
    gaussian_chirp,
    make_grid,
)
from .transform import (
    OlctParams,
    bin_spectrum,
    default_xi_grid,
    energy_gap,
    olct_forward,
)
from .moments import (
    abs_moment_p,
    relative_gap,
    spectral_moment_2p,
    time_moment_2p,
)
from .bounds import (
    HpwConfig,
    default_unit_gaussian,
    gram_offset,
    hpw_core,
    hpw_rhs,
    hw_rhs,
    saturating_gram_term,
    shw_rhs,
)

__all__ = [
    "UncertaintyReport",
    "SweepRow",
    "verify_hpw",
    "verify_shw",
    "verify_hw",
    "minimizer_signal",
    "family_grid",
    "sweep_r",
    "report_to_dict",
    "reports_to_csv",
    "report_to_json",
    "REPORT_COLUMNS",
    "GRID_FIELDS",
    "PARAMS_FIELDS",
    "SWEEP_SCENARIOS",
    "A_MODES",
]

DEFAULT_TOL = 1e-6

# Sample spacing and smallest half-width of the sweep-family grids.
FAMILY_DT = 16.0 / 4096.0
FAMILY_T_HALF_MIN = 8.0

# Auxiliary-term modes of the sharpened bound (see :func:`verify_shw`).
A_MODES = ("zero", "fixed", "gram", "saturating")


@dataclass(frozen=True, kw_only=True)
class UncertaintyReport:
    """One verified inequality: left side, right sides, slacks and flags.

    The fields are declared in their CSV column order, the grid and the
    transform parameters last."""

    scenario: str
    bound: str
    p: int
    lhs: float
    hpw_rhs: Optional[float] = None
    shw_rhs: Optional[float] = None
    hw_rhs: Optional[float] = None
    slack_hpw: Optional[float] = None
    slack_shw: Optional[float] = None
    slack_hw: Optional[float] = None
    rel_slack_hpw: Optional[float] = None
    rel_slack_shw: Optional[float] = None
    rel_slack_hw: Optional[float] = None
    passed_hpw: Optional[bool] = None
    passed_shw: Optional[bool] = None
    passed_hw: Optional[bool] = None
    ppr_gap: Optional[float] = None
    parseval_gap: float
    core: Optional[float] = None
    gram_term: Optional[float] = None
    sharpened: Optional[float] = None
    a_mode: Optional[str] = None
    a_admissible: Optional[bool] = None
    mu_time: float
    mu_spec: float
    energy: float
    holder_time_slack: Optional[float] = None
    holder_spec_slack: Optional[float] = None
    tol: float
    grid: Grid
    params: OlctParams

    @property
    def passed(self) -> bool:
        flags = [f for f in (self.passed_hpw, self.passed_shw, self.passed_hw)
                 if f is not None]
        return bool(flags) and all(flags)


# The serialized report fields: the report's own, then those of its grid
# and of its transform parameters.  REPORT_COLUMNS is their fixed column
# order in the CSV serialization (one report per row).
_OWN_FIELDS = [f.name for f in fields(UncertaintyReport)
               if f.name not in ("grid", "params")]
GRID_FIELDS = ["t_min", "t_max", "n"]
PARAMS_FIELDS = ["a", "b", "c", "d", "tau", "eta"]
REPORT_COLUMNS = _OWN_FIELDS + GRID_FIELDS + PARAMS_FIELDS


def _slack(lhs: float, rhs: float, tol: float) -> tuple:
    slack = lhs - rhs
    rel = slack / lhs if lhs != 0.0 else math.inf if slack > 0 else 0.0
    return slack, rel, bool(slack >= -tol * abs(lhs))


@contextmanager
def _scenario_context(scenario: str):
    """Attach the scenario label to numerical failures raised downstream."""
    try:
        yield
    except NumericsError as exc:
        if scenario:
            raise NumericsError(f"[{scenario}] {exc}") from exc
        raise


def _report(f: SampledSignal, params: OlctParams, cfg: HpwConfig, tol: float,
            scenario: str, a_mode: Optional[str] = None,
            a_value: Optional[float] = None) -> UncertaintyReport:
    """Shared body of the 2p-order reports: the plain bound when ``a_mode``
    is None, else the sharpened bound with that auxiliary-term mode.

    One FFT (:func:`~olct.transform.bin_spectrum`) serves the report: the
    transform onto the default output grid is read off its bins and feeds
    the output-domain moment, and :func:`hpw_core` reads the derivatives of
    g_b off the same bins.  The pair (u, v) formed from its breakdown feeds
    both the Gram term and the moment-identity gap: mu_spec against
    b^(2p) ||v||^2, with |v| = |g_b^(p)|.
    Both right sides are assembled here from E and the auxiliary term A,
    which is 0 for the plain bound.  The :class:`~olct.signals.AbsEnergy`
    of f, u and v, and the energy of the spectrum, are each formed once and
    shared by the moments, the gaps, the ``energy`` field and the Gram
    terms; u is formed only for the sharpened bound.
    """
    with _scenario_context(scenario):
        bins = bin_spectrum(f, params, cfg.xi_m)
        spectrum = olct_forward(f, params, xi_m=cfg.xi_m, bins=bins)
        # |f| serves the energy and the time moment, and is freed after them
        abs_f = abs_energy(f)
        e_f = abs_f.energy
        mu_t = time_moment_2p(abs_f, cfg.p, cfg.t_m, cfg.omega)
        del abs_f
        mu_s = spectral_moment_2p(spectrum, cfg.p, cfg.xi_m)
        lhs = (mu_t * mu_s) ** (1.0 / (2.0 * cfg.p))
        breakdown = hpw_core(f, params, cfg, bins=bins)
        del bins  # nothing reads the M-point spectrum again
        core = breakdown.core
        # the gap and the Gram terms read only |u|, |v| and their
        # energies; u and v themselves are freed before the Gram terms run
        v = abs_energy(breakdown.v)
        u = abs_energy(breakdown.u()) if a_mode is not None else None
        del breakdown
        ppr_gap = relative_gap(mu_s, params.b ** (2 * cfg.p) * v.energy)

        rhs_h = hpw_rhs(core, params.b, cfg.p)
        a_term = 0.0
        if a_mode is not None:
            a_star = saturating_gram_term(u, v)
            if a_mode == "fixed":
                a_term = float(a_value)
            elif a_mode == "gram":
                a_term = gram_offset(
                    u, v, default_unit_gaussian(f.grid, cfg.t_m))
            elif a_mode == "saturating":
                a_term = a_star
        sharpened = math.hypot(core, 2.0 * a_term)
        shw = {}
        if a_mode is not None:
            rhs_s = shw_rhs(sharpened, params.b, cfg.p)
            slack_s, rel_s, ok_s = _slack(lhs, rhs_s, tol)
            admissible = bool(abs(a_term) <= a_star * (1.0 + 1e-12) + 1e-300)
            shw = dict(shw_rhs=rhs_s, slack_shw=slack_s, rel_slack_shw=rel_s,
                       passed_shw=ok_s or (not admissible and a_mode == "fixed"),
                       a_mode=a_mode, a_admissible=admissible)
        slack_h, rel_h, ok_h = _slack(lhs, rhs_h, tol)
    return UncertaintyReport(
        scenario=scenario, bound="hpw" if a_mode is None else "shw", p=cfg.p,
        lhs=lhs, hpw_rhs=rhs_h, slack_hpw=slack_h, rel_slack_hpw=rel_h,
        passed_hpw=ok_h, ppr_gap=ppr_gap,
        parseval_gap=energy_gap(e_f, abs_energy(spectrum).energy), core=core,
        gram_term=a_term, sharpened=sharpened, mu_time=mu_t, mu_spec=mu_s,
        energy=e_f,
        tol=tol, grid=f.grid, params=params, **shw,
    )


def verify_hpw(f: SampledSignal, params: OlctParams, cfg: HpwConfig,
               tol: float = DEFAULT_TOL,
               scenario: str = "") -> UncertaintyReport:
    """Verify the 2p-order bound on one signal/parameter configuration.

    The left side is the product of the 2p-th roots of the weighted time
    moment and the output-domain moment (computed by direct quadrature of
    the transform); the right side comes from the bound functional.  The
    report also carries two numerical health checks from the same single
    transform: the relative gap of the spectral-moment identity (the
    output-domain moment against b^(2p) ||g_b^(p)||^2, the latter by
    spectral differentiation on the transform's bins) and the
    energy-conservation gap.
    """
    return _report(f, params, cfg, tol, scenario)


def verify_shw(f: SampledSignal, params: OlctParams, cfg: HpwConfig,
               a_mode: str = "saturating", a_value: Optional[float] = None,
               tol: float = DEFAULT_TOL,
               scenario: str = "") -> UncertaintyReport:
    """Verify the sharpened bound, with the auxiliary term chosen by mode.

    Modes: ``"zero"`` (A = 0, reduces to the plain bound), ``"fixed"``
    (A = ``a_value`` as given, which must be finite), ``"gram"``
    (A = ||u|| x0 - ||v|| y0 against the unit-norm Gaussian centered at
    t_m, :func:`default_unit_gaussian`), ``"saturating"`` (the largest
    admissible A, which turns the bound into an equality whenever the plain
    inequality chain is tight).

    A fixed A beyond the admissible range can push the right side above the
    left; the report flags that case through ``a_admissible`` instead of
    calling it a bound violation.  The health checks are those of
    :func:`verify_hpw`.
    """
    if a_mode == "fixed" and (a_value is None or not math.isfinite(a_value)):
        raise ValueError(f"a_mode='fixed' needs a finite a_value, got {a_value!r}")
    if a_mode not in A_MODES:
        raise ValueError(f"unknown a_mode {a_mode!r}")
    return _report(f, params, cfg, tol, scenario, a_mode, a_value)


def verify_hw(f: SampledSignal, params: OlctParams, p: int,
              t_m: float = 0.0, xi_m: float = 0.0, tol: float = DEFAULT_TOL,
              scenario: str = "") -> UncertaintyReport:
    """Verify the absolute-moment bound for p >= 2, including the
    intermediate power-mean inequality (mu_p)^(2/p) E^(1-2/p) >= mu_2 on
    both domains (stored as slacks)."""
    p = int(p)
    if p < 2:
        raise ValueError(f"absolute-moment order must be >= 2, got {p}")
    with _scenario_context(scenario):
        # the default grid's point count resolves |O|^2 times a polynomial;
        # |xi - xi_m|^p for odd p has a kink at xi_m, which the trapezoid
        # rule resolves only to O(dxi^(p+1)), so odd orders take the input's
        # count
        if p % 2:
            spectrum = olct_forward(
                f, params, default_xi_grid(f, params, xi_m=xi_m, n=f.grid.n))
        else:
            spectrum = olct_forward(f, params, xi_m=xi_m)
        # |x - centre| and |s|^2 of each domain serve both orders and the
        # energy
        dist_t = np.abs(f.grid.points() - t_m)
        sq_f = np.abs(f.values) ** 2
        dist_s = np.abs(spectrum.grid.points() - xi_m)
        sq_o = np.abs(spectrum.values) ** 2
        mu_t = abs_moment_p(f.grid, dist_t, sq_f, p)
        mu_s = abs_moment_p(spectrum.grid, dist_s, sq_o, p)
        lhs = (mu_t * mu_s) ** (1.0 / p)
        e_f = energy(f.grid, sq_f)
        e_o = energy(spectrum.grid, sq_o)
        rhs = hw_rhs(e_f, params.b, p)
        slack, rel, ok = _slack(lhs, rhs, tol)

        mu2_t = abs_moment_p(f.grid, dist_t, sq_f, 2)
        mu2_s = abs_moment_p(spectrum.grid, dist_s, sq_o, 2)
        holder_t = mu_t ** (2.0 / p) * e_f ** (1.0 - 2.0 / p) - mu2_t
        holder_s = mu_s ** (2.0 / p) * e_o ** (1.0 - 2.0 / p) - mu2_s
    return UncertaintyReport(
        scenario=scenario, bound="hw", p=p, lhs=lhs,
        hw_rhs=rhs, slack_hw=slack, rel_slack_hw=rel, passed_hw=ok,
        parseval_gap=energy_gap(e_f, e_o),
        mu_time=mu_t, mu_spec=mu_s, energy=e_f, tol=tol,
        holder_time_slack=holder_t, holder_spec_slack=holder_s,
        grid=f.grid, params=params,
    )


def minimizer_signal(c0: float, c_p: float, t_m: float, xi_m: float,
                     params: OlctParams) -> AnalyticSignal:
    """The equality-attaining signal
    c0 * exp(-c_p (t - t_m)^2) * exp(j (xi_m/b t - a/(2b) t^2)).

    Its demodulated form is a Gaussian centered at t_m times a unimodular
    factor, so with a unit weight, centered moments, and tau = 0 the
    second-order bound is saturated.
    """
    if not c_p > 0:
        raise ValueError(f"Gaussian rate must be positive, got c_p={c_p}")
    if params.is_degenerate:
        raise ValueError("the minimizer requires b != 0")
    q2 = -c_p - 1j * params.chirp_rate
    q1 = 2.0 * c_p * t_m + 1j * xi_m / params.b
    q0 = -c_p * t_m * t_m
    return AnalyticSignal(c0, q2, q1, q0,
                          label=f"minimizer(c0={c0}, c_p={c_p}, t_m={t_m})")


def family_grid(r: float) -> Grid:
    """Symmetric grid with spacing ``FAMILY_DT`` and half-width
    max(``FAMILY_T_HALF_MIN``, sqrt(48/r)), wide enough that the Gaussian
    family exp(-(r/2) t^2) decays below the spectral-differentiation edge
    tolerance (|f|^2 <= e^-48 at the edges).  Every r >= 0.75 gets the same
    -8:8:4097 grid."""
    if not r > 0:
        raise ValueError(f"family parameter must be positive, got r={r}")
    t_half = max(FAMILY_T_HALF_MIN, math.sqrt(48.0 / r))
    half_n = int(math.ceil(t_half / FAMILY_DT))
    return make_grid(-t_half, t_half, 2 * half_n + 1)


@dataclass(frozen=True)
class SweepRow:
    r: float
    lhs: float
    rhs: float


SWEEP_SCENARIOS = {
    "gram": ("gram", None),
    "a0": ("zero", None),
    "a1": ("fixed", 1.0),
    "saturating": ("saturating", None),
}


def sweep_r(r_values: Sequence[float], scenario: str, params: OlctParams,
            p: int = 1) -> list:
    """Run the sharpened verification over the chirped-Gaussian family
    f = exp(-(r/2) t^2) exp(-j a/(2b) t^2) with weight exp(-r t), for each r.

    ``scenario`` picks the auxiliary-term mode: ``gram`` (default unit
    Gaussian), ``a0`` (A = 0), ``a1`` (A = 1) or ``saturating``.  Rows are
    computed one after another and come back in input order.
    """
    try:
        a_mode, a_value = SWEEP_SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown sweep scenario {scenario!r}; expected one of "
            f"{sorted(SWEEP_SCENARIOS)}"
        )
    rs = [float(r) for r in r_values]
    if any(r <= 0 for r in rs):
        raise ValueError("sweep values must be positive")

    def row(r: float) -> SweepRow:
        grid = family_grid(r)
        f = gaussian_chirp(r, params.chirp_rate).sample(grid)
        cfg = HpwConfig(p=p, omega=exp_weight(r))
        rep = verify_shw(f, params, cfg, a_mode=a_mode, a_value=a_value)
        return SweepRow(r=r, lhs=rep.lhs, rhs=rep.shw_rhs)

    return [row(r) for r in rs]


def fmt(value) -> str:
    """One CSV/text field: floats with 17 significant digits, booleans as
    ``true``/``false`` and ``None`` as the empty field."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV text: the header line, then one line per row of the equal-length
    ``columns``, every field as :func:`fmt` writes it.

    A float64 column (an ndarray or a list of floats) takes the ``%.17g``
    spec, which gives the bytes of :func:`fmt`; every other column is
    :func:`fmt`-ed value by value and takes ``%s``.  The body is then one
    ``%`` pass over a row template, so a ``%`` in the header or in a string
    value is never read as a directive."""
    specs, cells = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            values = column.tolist()
        else:
            values = list(column)
        if set(map(type, values)) <= {float}:
            specs.append("%.17g")
        else:
            specs.append("%s")
            values = [fmt(x) for x in values]
        cells.append(values)
    rows = len(cells[0]) if cells else 0
    if len(cells) != len(header) or any(len(c) != rows for c in cells):
        raise ValueError(
            "csv_text needs one column per header field, all of one length")
    template = (",".join(specs) + "\n") * rows
    return ",".join(header) + "\n" + template % tuple(chain.from_iterable(
        zip(*cells)))


def dumps(obj, indent: int = 0) -> str:
    """JSON text with floats fixed at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, float)):
        return fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def report_to_dict(report: UncertaintyReport) -> dict:
    """Flat snake_case dictionary of every report field, in
    :data:`REPORT_COLUMNS` order."""
    out = {col: getattr(report, col) for col in _OWN_FIELDS}
    out.update((col, getattr(report.grid, col)) for col in GRID_FIELDS)
    out.update((col, getattr(report.params, col)) for col in PARAMS_FIELDS)
    return out


def report_to_json(report: UncertaintyReport) -> str:
    """The :func:`report_to_dict` fields as JSON, in :func:`dumps` format."""
    return dumps(report_to_dict(report))


def reports_to_csv(reports: Iterable[UncertaintyReport]) -> str:
    """CSV with one report per row and the fixed :data:`REPORT_COLUMNS`
    order; floats carry 17 significant digits."""
    rows = [report_to_dict(rep).values() for rep in reports]
    columns = list(zip(*rows)) if rows else [()] * len(REPORT_COLUMNS)
    return csv_text(REPORT_COLUMNS, columns)
