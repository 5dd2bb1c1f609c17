"""Lower-bound machinery for the duration-bandwidth inequalities.

Three bounds on the product of 2p-th (or absolute p-th) moment roots are
evaluated here:

* the 2p-order bound  (|b| / 2^(1/p)) * |E|^(1/p), where E is a signed
  functional assembled from weighted integrals of the squared derivatives
  of the demodulated signal g_b = exp(-j beta t) exp(j a/(2b) t^2) f,
  read off the bins of :func:`~olct.transform.bin_spectrum`;
* its sharpened form with E replaced by sqrt(E^2 + 4*A^2), where A comes
  from a Gram-determinant construction with an auxiliary unit-norm function
  applied to the pair (u, v) that :func:`hpw_core` forms with E;
* the absolute-moment bound (|b|/2) * (energy^2)^(1/p) for p >= 2.

:func:`hpw_core` makes the one FFT of a report and evaluates E, its
per-order terms and ||v||^2 on the subgrid of its bins; its breakdown
carries those bins, and with them the transform on the default output
grid, and forms u and v on demand.  The auxiliary terms, which read the
:class:`AbsEnergy` of u, v and h, and the right-hand sides are separate
functions, which the reports of :mod:`olct.verify` assemble.  The module
also provides numerical validators for the two differential identities
the functional is built on (the second one is the paper's expansion of
|g_b^(q)|^2 into derivatives of the chirp-multiplied signal, with the
coefficient functions defined here), and the closed-form bound pair for
the chirped-Gaussian family used in the verification scenarios.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

import numpy as np

from .errors import NumericsError
from .signals import (
    AbsEnergy,
    AnalyticSignal,
    Grid,
    SampledSignal,
    Subgrid,
    WeightFunction,
    centered_power,
    check_decay,
    derivative,
    energy,
    guarded_integral,
    trapezoid,
)
from .transform import BinSpectrum, OlctParams, bin_spectrum
from .moments import MAX_HALF_ORDER

__all__ = [
    "HpwConfig",
    "BoundBreakdown",
    "OrderTerm",
    "IdentityFit",
    "derivative_product_coeff",
    "modulation_square_coeff",
    "modulation_cross_coeff",
    "derived_sign",
    "half_power",
    "weight_deriv_centered",
    "hpw_core",
    "second_order_core_closed_form",
    "moment_pair",
    "default_unit_gaussian",
    "gram_offset",
    "saturating_gram_term",
    "hpw_rhs",
    "shw_rhs",
    "hw_rhs",
    "sharpened_bound_closed_form",
    "reference_bound_closed_form",
    "bound_gap_factor",
    "check_identity1",
    "check_identity2",
]

UNIT_NORM_TOL = 1e-8

# Where |g_b| has underflowed below this fraction of its peak, spectral
# derivatives of g_b carry only rounding noise; an exponentially growing
# weight would amplify that noise into the integrals, so those samples are
# zeroed.  The true derivative there is far smaller than the noise floor
# whenever the signal meets the edge-decay precondition.
DERIV_UNDERFLOW_MASK = 1e-13


@dataclass(frozen=True)
class HpwConfig:
    """Configuration of the 2p-order bound functional.

    Parameters
    ----------
    p : int
        Moment half-order, 1..``MAX_HALF_ORDER``: any integer, a numpy
        integer too (not a bool), stored as a Python ``int``.
    t_m, xi_m : float
        Time and output-domain moment centers.
    omega : WeightFunction
        Real weight entering the time moment and the integration-by-parts
        weight (t - t_m)^p * omega(t).
    """

    p: int
    t_m: float = 0.0
    xi_m: float = 0.0
    omega: WeightFunction = WeightFunction()

    def __post_init__(self):
        try:
            p = None if isinstance(self.p, bool) else operator.index(self.p)
        except TypeError:
            p = None
        if p is None or not 1 <= p <= MAX_HALF_ORDER:
            raise ValueError(
                f"half-order p must be an integer in [1, {MAX_HALF_ORDER}]")
        object.__setattr__(self, "p", p)
        if not (np.isfinite(self.t_m) and np.isfinite(self.xi_m)):
            raise ValueError("moment centers must be finite")


@dataclass(frozen=True)
class OrderTerm:
    """One q-term of the bound functional: coefficient D_q and value F_q."""

    q: int
    coeff: float
    value: float


@dataclass(frozen=True)
class BoundBreakdown:
    """The bound functional, its per-order terms and the energy of v, all
    summed on the subgrid of the bins (:class:`~olct.signals.Subgrid`),
    and the bins and configuration they came from: the record of one
    report.  The bins hold the transform on the default output grid and
    the subgrid, which the report reads for its other moments, and the
    sharpening pair (u, v) is formed from them over the whole grid on
    demand: the Gram terms read |u| and |v|, whose kinks a subgrid
    resolves less well.

    g_b and v carry the unimodular factor exp(j beta t) that the bins give
    every derivative (:meth:`~olct.transform.BinSpectrum.derivatives`), so
    u and v share it: their magnitudes, energies and inner product are
    those of the pair itself."""

    core: float            # signed functional E
    terms: tuple           # OrderTerm per q
    v_energy: float        # ||g_b^(p)||^2
    bins: BinSpectrum = field(repr=False, compare=False)
    cfg: HpwConfig = field(repr=False, compare=False)

    def u(self) -> SampledSignal:
        """The pair's u = omega(t) (t - t_m)^p g_b(t), times exp(j beta t),
        on the whole grid."""
        g, cfg = self.bins.g, self.cfg
        t = g.grid.points()
        d = t - cfg.t_m
        mag = np.abs(d)
        u_weight = centered_power(d, mag, cfg.p, out=mag)
        u_weight *= cfg.omega(t)
        return g.with_values(u_weight * g.values)

    def v(self) -> SampledSignal:
        """The pair's v = g_b^(p), times exp(j beta t), on the whole grid:
        one inverse FFT of M points."""
        f = self.bins.f
        [(_, values)] = self.bins.derivatives([self.cfg.p], Subgrid(f.grid, 1))
        return f.with_values(values)


def half_power(x: float) -> complex:
    """(-1)**x for possibly half-integer x, read as exp(j*pi*x)."""
    return np.exp(1j * np.pi * x)


def derived_sign(q: int, i: int) -> int:
    """Cross-term sign (-1)^(q-i) that makes the modulated expansion of
    :func:`check_identity2` exact."""
    return (-1) ** (q - i)


def derivative_product_coeff(p: int, q: int) -> float:
    """Coefficient (-1)^q * p/(p-q) * binom(p-q, q) of the derivative-product
    expansion, for 0 <= q <= floor(p/2)."""
    p, q = int(p), int(q)
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if not 0 <= q <= p // 2:
        raise ValueError(f"index q={q} out of range for p={p}")
    return (-1) ** q * p / (p - q) * math.comb(p - q, q)


def modulation_square_coeff(q: int, n: int, alpha: float) -> float:
    """Diagonal coefficient binom(q, n)^2 * alpha^(2(q-n)), n in 0..q."""
    q, n = int(q), int(n)
    if not 0 <= n <= q:
        raise ValueError(f"index n={n} out of range for q={q}")
    return math.comb(q, n) ** 2 * float(alpha) ** (2 * (q - n))


def modulation_cross_coeff(q: int, i: int, z: int, alpha: float) -> float:
    """Cross coefficient binom(q,i) * binom(q,z) * alpha^(2q-z-i), i < z;
    the cross-term sign is :func:`derived_sign`'s."""
    q, i, z = int(q), int(i), int(z)
    if not 0 <= i < z <= q:
        raise ValueError(f"indices must satisfy 0 <= i < z <= q, got ({i}, {z}, {q})")
    return math.comb(q, i) * math.comb(q, z) * float(alpha) ** (2 * q - z - i)


def weight_deriv_centered(omega: WeightFunction, p: int, t_m: float, orders,
                          t: np.ndarray) -> dict:
    """Derivatives of (t - t_m)^p * omega(t): ``{k: k-th derivative}`` for
    every requested order k >= 0, by the Leibniz rule with the weight's
    exact derivatives.

    The weight w = omega(t) is evaluated once.  Each order is the
    term-by-term sum 0 + T_0 + T_1 + ..., T_m = binom(k, m) p!/(p-m)!
    (t - t_m)^(p-m) omega^(k-m), with each power as
    :func:`centered_power` forms it and each weight derivative
    omega^(j) as (-rate)^j w, w itself at j = 0.
    """
    t = np.asarray(t, dtype=float)
    w = omega(t)
    d = t - t_m
    mag = np.abs(d)
    out = {}
    for k in orders:
        out[k] = np.zeros_like(t)
        for m in range(min(k, p) + 1):
            term = (math.comb(k, m) * math.perm(p, m)) * centered_power(
                d, mag, p - m)
            # the (k - m)-th derivative of the weight, (-rate)^(k-m) w
            term *= (-omega.rate) ** (k - m) * w if k > m else w
            out[k] += term
    return out


def hpw_core(f: SampledSignal, params: OlctParams,
             cfg: HpwConfig) -> BoundBreakdown:
    """Evaluate the bound functional E = sum_q D_q F_q, q = 0..p/2, where
    F_q integrates the (p-2q)-th derivative of (t - t_m)^p omega(t) against
    |g_b^(q)|^2, with g_b = exp(-j beta t) exp(j a/(2b) t^2) f the
    demodulated signal, beta = (xi_m - tau)/b.  F_q carries the
    integration-by-parts sign (-1)^(p-2q), which equals (-1)^p for every q.

    The orders q = 1..p/2 of the F_q and the order p of v are read off the
    bins of ``bin_spectrum(f, params, cfg.xi_m)``, the report's one FFT, at
    the points of their subgrid, one small inverse FFT each.  |g_b| is
    |f|.  Every F_q and ||v||^2 is a sum over the subgrid
    (:class:`~olct.signals.Subgrid`): each F_q's integrand passes
    :func:`~olct.signals.check_decay`, and the coset gap of E, against
    sum_q |D_q F_q| since the terms cancel, and that of ||v||^2 pass
    :meth:`~olct.signals.Subgrid.check_alias`.  The weight is evaluated at
    the subgrid's points.  The breakdown carries the bins, so a report
    reads its transform and its subgrid there.
    """
    if params.is_degenerate:
        raise ValueError("the bound functional requires b != 0")
    bins = bin_spectrum(f, params, cfg.xi_m)
    p = cfg.p
    sub = bins.subgrid
    integrand = np.abs(f.values[sub.index])  # |g_b|, the q = 0 integrand
    underflow = integrand < DERIV_UNDERFLOW_MASK * np.max(integrand)
    wd = weight_deriv_centered(cfg.omega, p, cfg.t_m,
                               {p - 2 * q for q in range(p // 2 + 1)},
                               sub.points())
    sign = (-1) ** p
    terms = []
    core = gap = scale = 0.0

    def add_term(q: int, integrand: np.ndarray) -> None:
        # |g_b^(q)|^2 times the weight derivative, in place
        nonlocal core, gap, scale
        np.square(integrand, out=integrand)
        integrand *= wd[p - 2 * q]
        check_decay(integrand, "the weighted derivative-square integrand")
        value, diff = sub.cosets(integrand)
        f_q = sign * value
        d_q = derivative_product_coeff(p, q)
        terms.append(OrderTerm(q=q, coeff=d_q, value=f_q))
        core += d_q * f_q
        gap += d_q * sign * diff
        scale += abs(d_q * f_q)

    add_term(0, integrand)
    for k, values in bins.derivatives([*range(1, p // 2 + 1), p], sub):
        integrand = np.abs(values)
        if k == p:
            v_energy = energy(sub, integrand ** 2)
        else:
            integrand[underflow] = 0.0  # where g_b has underflowed
            add_term(k, integrand)
    sub.check_alias(gap, scale, "the bound functional")
    return BoundBreakdown(core, tuple(terms), v_energy, bins, cfg)


def second_order_core_closed_form(f: SampledSignal, omega: WeightFunction,
                                  t_m: float = 0.0) -> float:
    """Closed form of the p = 1 functional: integral of
    d/dt[(t - t_m) * omega(t)] * |f|^2.

    The generic path at p = 1 evaluates the same integral with the opposite
    (integration-by-parts) sign, so the two agree in magnitude.
    """
    t = f.grid.points()
    wd = weight_deriv_centered(omega, 1, t_m, [1], t)[1]
    return guarded_integral(f.grid, wd * np.abs(f.values) ** 2,
                            "the second-order closed-form integrand")


def moment_pair(f: SampledSignal, params: OlctParams,
                cfg: HpwConfig) -> tuple:
    """The pair (u, v) entering the sharpening: u = omega(t) (t-t_m)^p g_b(t)
    and v = g_b^(p)(t), with g_b the demodulated signal, from
    :func:`hpw_core`'s breakdown."""
    breakdown = hpw_core(f, params, cfg)
    return breakdown.u(), breakdown.v()


def default_unit_gaussian(grid: Grid, t_m: float = 0.0) -> AbsEnergy:
    """The :class:`AbsEnergy` of the unit-norm Gaussian
    h = exp(-(t - t_m)^2 / 2) / pi^(1/4) on the grid.

    h is positive, so |h| = h is formed on a real array.  Scaling by the
    reciprocal of the norm rounds as dividing complex samples by it does.
    """
    t = grid.points()
    h = np.exp(-((t - t_m) ** 2) / 2.0) / np.pi**0.25
    nh = math.sqrt(max(energy(grid, h ** 2), 0.0))
    if nh == 0.0:
        raise NumericsError(
            f"the unit Gaussian centred at t_m = {t_m!r} vanishes on the grid")
    h *= 1.0 / nh
    return AbsEnergy(grid, h, energy(grid, h ** 2))


def gram_offset(u: AbsEnergy, v: AbsEnergy, h: AbsEnergy) -> float:
    """Auxiliary term A = ||u|| x0 - ||v|| y0 with x0 = integral |v||h| and
    y0 = integral |u||h|, from the :class:`AbsEnergy` of u, v and h; h must
    be unit norm."""
    nh = math.sqrt(max(h.energy, 0.0))
    if abs(nh - 1.0) > UNIT_NORM_TOL:
        raise NumericsError(
            f"auxiliary function must be unit norm (||h|| = {nh!r})")
    x0 = float(trapezoid(u.grid, v.mag * h.mag))
    y0 = float(trapezoid(u.grid, u.mag * h.mag))
    return (math.sqrt(max(u.energy, 0.0)) * x0
            - math.sqrt(max(v.energy, 0.0)) * y0)


def saturating_gram_term(u: AbsEnergy, v: AbsEnergy) -> float:
    """Largest admissible auxiliary term, from the :class:`AbsEnergy` of u
    and v: A*^2 = ||u||^2 ||v||^2 - (integral |u||v|)^2."""
    uv = float(trapezoid(u.grid, u.mag * v.mag))
    return math.sqrt(max(u.energy * v.energy - uv * uv, 0.0))


def hpw_rhs(core: float, b: float, p: int) -> float:
    """(|b| / 2^(1/p)) * |E|^(1/p)."""
    p = int(p)
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if b == 0.0:
        raise ValueError("bound is undefined for b = 0")
    return abs(b) / 2.0 ** (1.0 / p) * abs(core) ** (1.0 / p)


def shw_rhs(sharpened: float, b: float, p: int) -> float:
    """(|b| / 2^(1/p)) * sharpened^(1/p), sharpened = sqrt(E^2 + 4 A^2):
    the 2p-order bound with E replaced by the sharpened functional."""
    if sharpened < 0.0:
        raise ValueError("sharpened functional must be nonnegative")
    return hpw_rhs(sharpened, b, p)


def hw_rhs(signal_energy: float, b: float, p: int) -> float:
    """(|b| / 2) * (energy^2)^(1/p), for absolute-moment order p >= 2."""
    p = int(p)
    if p < 2:
        raise ValueError(f"absolute-moment order must be >= 2, got {p}")
    if b == 0.0:
        raise ValueError("bound is undefined for b = 0")
    return abs(b) / 2.0 * (signal_energy**2) ** (1.0 / p)


def _check_family(r: float, b: float) -> None:
    if not r > 0:
        raise ValueError(f"family parameter must be positive, got r={r}")
    if b == 0.0:
        raise ValueError("bound is undefined for b = 0")


def _float64_closed_form(r: float, evaluate) -> float:
    """``evaluate()``, with an overflow past the largest float64 raised as
    :class:`NumericsError` naming the family parameter r."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise NumericsError(
            f"closed-form bound at r={r!r} overflows float64 (largest "
            f"finite value {sys.float_info.max!r})")
    return value


def sharpened_bound_closed_form(r: float, b: float) -> float:
    """Closed-form sharpened lower bound (b^2/2) pi e^r (1/(2r) + 1) on the
    squared moment product, for the chirped-Gaussian family with weight
    exp(-r t), p = 1 and centered moments."""
    _check_family(r, b)
    return _float64_closed_form(r, lambda: (b * b / 2.0) * math.pi
                                * math.exp(r) * (1.0 / (2.0 * r) + 1.0))


def reference_bound_closed_form(r: float, b: float) -> float:
    """Second-order reference bound (b^2/4) (pi/r) e^(r/2) (1 + r/2)^2 for
    the same family."""
    _check_family(r, b)
    return _float64_closed_form(r, lambda: (b * b / 4.0) * (math.pi / r)
                                * math.exp(r / 2.0) * (1.0 + r / 2.0) ** 2)


def bound_gap_factor(r: float) -> float:
    """Factor G(r) = e^(r/2) (1/(2r) + 1) - (1/(2r)) (1 + r/2)^2 in the
    difference of the two closed-form bounds:
    sharpened - reference = (b^2/2) pi e^(r/2) G(r)."""
    if not r > 0:
        raise ValueError(f"family parameter must be positive, got r={r}")
    return _float64_closed_form(r, lambda: (
        math.exp(r / 2.0) * (1.0 / (2.0 * r) + 1.0)
        - (1.0 / (2.0 * r)) * (1.0 + r / 2.0) ** 2))


def _interior(n: int) -> slice:
    trim = max(1, n // 10)
    return slice(trim, n - trim)


def check_identity1(f: AnalyticSignal, k: int, grid: Grid) -> float:
    """Residual of the derivative-product identity

        f conj(f^(k)) + f^(k) conj(f)
            = sum_l (-1)^l k/(k-l) binom(k-l, l) d^(k-2l)/dt^(k-2l) |f^(l)|^2

    evaluated with the signal's exact derivatives on the left and spectral
    differentiation of |f^(l)|^2 on the right; max norm over the grid
    interior.
    """
    k = int(k)
    if not 1 <= k <= MAX_HALF_ORDER:
        raise ValueError(f"derivative order must be in [1, {MAX_HALF_ORDER}]")
    t = grid.points()
    f0 = f(t)
    fk = np.asarray(f.deriv(k)(t), dtype=np.complex128)
    lhs = 2.0 * np.real(fk * np.conj(f0))

    rhs = np.zeros_like(lhs)
    for l in range(k // 2 + 1):
        fl = np.asarray(f.deriv(l)(t), dtype=np.complex128)
        sq = SampledSignal(grid, np.abs(fl) ** 2)
        order = k - 2 * l
        term = (derivative(sq, [order])[order].values.real if order >= 1
                else sq.values.real)
        rhs += derivative_product_coeff(k, l) * term

    sl = _interior(grid.n)
    return float(np.max(np.abs(lhs[sl] - rhs[sl])))


@dataclass(frozen=True)
class IdentityFit:
    """Residual under a sign convention plus the best exhaustive assignment."""

    residual: float
    best_signs: dict
    best_residual: float


def _modulated_deriv_sq(f: AnalyticSignal, alpha: float, q: int,
                        t: np.ndarray) -> np.ndarray:
    """|d^q/dt^q (exp(-j alpha t) f)|^2 via the binomial expansion with the
    signal's exact derivatives."""
    acc = np.zeros(t.shape, dtype=np.complex128)
    for i in range(q + 1):
        acc += (math.comb(q, i) * (-1j * alpha) ** (q - i)
                * np.asarray(f.deriv(i)(t), dtype=np.complex128))
    return np.abs(acc) ** 2


def check_identity2(f: AnalyticSignal, alpha: float, q: int,
                    grid: Grid) -> IdentityFit:
    """Validate the modulated-derivative expansion

        |(exp(-j alpha t) f)^(q)|^2 = sum_n B_qn |f^(n)|^2
            + 2 sum_{i<z} C_qiz Re((-1)^(q-(i+z)/2) f^(i) conj(f^(z)))

    returning the max-norm residual under the derived sign convention
    (-1)^(q-i) together with the best assignment
    found by exhaustive search over the 2^q sign choices.
    """
    q = int(q)
    if not 0 <= q <= 2:
        raise ValueError("exhaustive sign search supports q <= 2")
    t = grid.points()
    lhs = _modulated_deriv_sq(f, alpha, q, t)

    f_derivs = [np.asarray(f.deriv(i)(t), dtype=np.complex128)
                for i in range(q + 1)]
    base = np.zeros_like(lhs)
    for n in range(q + 1):
        base += modulation_square_coeff(q, n, alpha) * np.abs(f_derivs[n]) ** 2
    crosses = {}
    for i in range(q + 1):
        for z in range(i + 1, q + 1):
            coeff = modulation_cross_coeff(q, i, z, alpha)
            cross = np.real(half_power(q - (i + z) / 2.0)
                            * f_derivs[i] * np.conj(f_derivs[z]))
            crosses[(i, z)] = 2.0 * coeff * cross

    sl = _interior(grid.n)

    def residual_for(assign: Mapping[tuple, int]) -> float:
        rhs = base.copy()
        for (i, z), term in crosses.items():
            rhs += assign[(q, i)] * term
        return float(np.max(np.abs(lhs[sl] - rhs[sl])))

    given = {(q, i): derived_sign(q, i) for i in range(q)}
    res_given = residual_for(given) if q >= 1 else float(
        np.max(np.abs(lhs[sl] - base[sl])))

    best_signs = dict(given)
    best_res = res_given
    if q >= 1:
        for combo in product((1, -1), repeat=q):
            assign = {(q, i): combo[i] for i in range(q)}
            res = residual_for(assign)
            if res < best_res:
                best_res = res
                best_signs = assign
    return IdentityFit(residual=res_given, best_signs=best_signs,
                       best_residual=best_res)
