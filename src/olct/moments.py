"""Weighted even-order time moments, spectral moments, absolute moments,
chirp demodulation, and the moment identity tying the two domains together.

For b != 0 the 2p-th spectral moment of the transform equals
b^(2p) * ||g_b^(p)||^2, where g_b is the input after chirp cancellation and
demodulation,

    g_b(t) = exp(-j beta t) exp(j a/(2b) t^2) f(t),   beta = (xi_m - tau)/b.

``ppr_check`` evaluates both sides of that identity off one FFT, as the
verify reports do: the left side by quadrature of the transform on the
default output grid, the right side by spectral differentiation on the same
bins, and reports the relative gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (
    MAX_HALF_ORDER,
    AbsEnergy,
    Grid,
    SampledSignal,
    WeightFunction,
    centered_power,
    cis,
    energy,
    guarded_integral,
)
from .transform import OlctParams, bin_spectrum, olct_forward

__all__ = [
    "PprResult",
    "time_moment_2p",
    "spectral_moment_2p",
    "abs_moment_p",
    "demodulation_freq",
    "chirp_demodulate",
    "relative_gap",
    "ppr_check",
]

# Truncation-guard tolerance for moment integrands: one whose edge values
# exceed this fraction of its peak is not covered by the truncated grid.
COVERAGE_TOL = 1e-10


def _half_order(p) -> int:
    if p != int(p) or not 0 <= p <= MAX_HALF_ORDER:
        raise ValueError(f"moment half-order out of range: {p}")
    return int(p)


def time_moment_2p(f: AbsEnergy, p: int, t_m: float,
                   omega: WeightFunction,
                   weight: np.ndarray | None = None) -> float:
    """Weighted time moment: integral of w(t)^2 (t - t_m)^(2p) |f(t)|^2,
    from the :class:`AbsEnergy` of f on its grid or on a
    :class:`~olct.signals.Subgrid` (:func:`~olct.signals.guarded_integral`);
    ``weight`` passes the samples of omega at those points for a caller
    that has them.

    The weight multiplies |f| before squaring, so a weight that overflows
    where the signal has decayed gives a finite product, not inf * 0.
    The integrand and the power are each formed in one n-point buffer.
    """
    p = _half_order(p)
    if not np.isfinite(t_m):
        raise ValueError("moment center t_m must be finite")
    t = f.grid.points()
    integrand = np.multiply(omega(t) if weight is None else weight, f.mag)
    np.square(integrand, out=integrand)
    # an even power takes no sign, so |t - t_m| and its power share a buffer
    power = np.subtract(t, t_m)
    integrand *= centered_power(power, np.abs(power, out=power), 2 * p,
                                out=power)
    return guarded_integral(f.grid, integrand,
                            "the weighted time-moment integrand", COVERAGE_TOL)


def spectral_moment_2p(spectrum: SampledSignal, p: int, xi_m: float) -> float:
    """Spectral moment: integral of (xi - xi_m)^(2p) |O(xi)|^2."""
    p = _half_order(p)
    d = spectrum.grid.points() - xi_m
    integrand = (centered_power(d, np.abs(d), 2 * p)
                 * np.abs(spectrum.values) ** 2)
    return guarded_integral(spectrum.grid, integrand,
                            "the spectral-moment integrand", COVERAGE_TOL)


def abs_moment_p(grid: Grid, dist: np.ndarray, sq: np.ndarray,
                 p: int) -> float:
    """Absolute moment: integral of |x - center|^p |s(x)|^2, for p >= 2,
    from dist = |x - center| and sq = |s|^2 on the grid, which a caller
    taking several orders and the energy of one signal forms once.

    Orders below 2 are outside the duration-bandwidth machinery and are
    rejected.
    """
    p = int(p)
    if p < 2:
        raise ValueError(
            f"absolute moment of order {p} < 2 is not usable for the "
            "duration-bandwidth bound"
        )
    return guarded_integral(grid, dist ** p * sq,
                            "the absolute-moment integrand", COVERAGE_TOL)


def demodulation_freq(params: OlctParams, xi_m: float) -> float:
    """Demodulation frequency beta = (xi_m - tau) / b."""
    if params.is_degenerate:
        raise ValueError("demodulation frequency is undefined for b = 0")
    return (xi_m - params.tau) / params.b


def chirp_demodulate(f: SampledSignal, params: OlctParams,
                     xi_m: float) -> SampledSignal:
    """Chirp-cancelled, demodulated signal exp(-j beta t) exp(j a/(2b) t^2) f(t).

    The factors are unimodular, so the result has the same pointwise
    magnitude as the input.
    """
    beta = demodulation_freq(params, xi_m)
    t = f.grid.points()
    phase = params.chirp_rate * t * t - beta * t
    return f.with_values(f.values * cis(phase))


@dataclass(frozen=True)
class PprResult:
    """Both sides of the spectral-moment identity and their relative gap."""

    lhs: float
    rhs: float
    rel_gap: float


def relative_gap(lhs: float, rhs: float) -> float:
    """|lhs - rhs| / max(lhs, rhs), and 0 when both sides are 0, so
    near-zero moments do not blow the gap up."""
    scale = max(lhs, rhs)
    return 0.0 if scale == 0.0 else abs(lhs - rhs) / scale


def ppr_check(f: SampledSignal, params: OlctParams, p: int,
              xi_m: float = 0.0) -> PprResult:
    """Check integral (xi-xi_m)^(2p) |O|^2 dxi == b^(2p) ||g_b^(p)||^2.

    Both sides are read off one :func:`~olct.transform.bin_spectrum`, as
    the verify reports read them: the left side is direct quadrature of the
    transform on the default output grid, the right side the energy of the
    p-th derivative of the demodulated signal on the same bins, summed on
    their subgrid as :func:`~olct.bounds.hpw_core` sums it.  The gap is
    :func:`relative_gap`, the same rule the verify reports use for their
    ``ppr_gap``.
    """
    p = _half_order(p)
    if params.is_degenerate:
        raise ValueError("the moment identity requires b != 0")
    bins = bin_spectrum(f, params, xi_m)
    spectrum = olct_forward(f, params, xi_m=xi_m, bins=bins)
    lhs = spectral_moment_2p(spectrum, p, xi_m)
    sub = bins.subgrid
    if p >= 1:
        [(_, v)] = bins.derivatives([p], sub)
    else:
        v = bins.g.values[sub.index]
    rhs = params.b ** (2 * p) * energy(sub, np.abs(v) ** 2)
    return PprResult(lhs=lhs, rhs=rhs, rel_gap=relative_gap(lhs, rhs))
