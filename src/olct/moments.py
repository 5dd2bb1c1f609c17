"""Weighted even-order time moments, spectral moments, absolute moments,
chirp demodulation, and the moment identity tying the two domains together.

For b != 0 the 2p-th spectral moment of the transform equals
b^(2p) * ||g_b^(p)||^2, where g_b is the input after chirp cancellation and
demodulation,

    g_b(t) = exp(-j beta t) exp(j a/(2b) t^2) f(t),   beta = (xi_m - tau)/b.

``ppr_check`` evaluates both sides of that identity by independent routes
(direct output-domain quadrature vs. spectral differentiation) and reports
the relative gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .signals import (
    Grid,
    SampledSignal,
    WeightFunction,
    derivative,
    energy,
    quadrature_weights,
    unit_weight,
)
from .transform import OlctParams, Spectrum, default_xi_grid, olct_forward

__all__ = [
    "MomentSpec",
    "PprResult",
    "time_moment_2p",
    "spectral_moment_2p",
    "abs_moment_p",
    "demodulation_freq",
    "chirp_demodulate",
    "relative_gap",
    "ppr_check",
]

MAX_MOMENT_HALF_ORDER = 4

# A moment integrand whose edge values exceed this fraction of its peak is
# not covered by the truncated grid.
COVERAGE_TOL = 1e-10


@dataclass(frozen=True)
class MomentSpec:
    """Half-order p, centers, and weight for even-order moments."""

    p: int
    t_m: float = 0.0
    xi_m: float = 0.0
    omega: WeightFunction = field(default_factory=unit_weight)

    def __post_init__(self):
        if not (isinstance(self.p, int) and 0 <= self.p <= MAX_MOMENT_HALF_ORDER):
            raise ValueError(
                f"moment half-order must be an integer in [0, "
                f"{MAX_MOMENT_HALF_ORDER}], got {self.p!r}"
            )
        if not (np.isfinite(self.t_m) and np.isfinite(self.xi_m)):
            raise ValueError("moment centers must be finite")


def _covered_moment(grid: Grid, integrand: np.ndarray, what: str) -> float:
    peak = float(np.max(integrand))
    if peak > 0.0:
        edge = max(integrand[0], integrand[-1])
        if edge > COVERAGE_TOL * peak:
            raise NumericsError(
                f"{what} integrand is edge-heavy (edge/peak = "
                f"{edge / peak:.2e}); the truncated grid does not cover it"
            )
    w = quadrature_weights(grid.n, grid.dt)
    return float(np.sum(w * integrand))


def time_moment_2p(f: SampledSignal, spec: MomentSpec) -> float:
    """Weighted time moment: integral of w(t)^2 (t - t_m)^(2p) |f(t)|^2."""
    t = f.grid.points()
    integrand = (spec.omega(t) ** 2 * (t - spec.t_m) ** (2 * spec.p)
                 * np.abs(f.values) ** 2)
    return _covered_moment(f.grid, integrand, "weighted time-moment")


def spectral_moment_2p(spectrum: Spectrum, p: int, xi_m: float) -> float:
    """Spectral moment: integral of (xi - xi_m)^(2p) |O(xi)|^2."""
    p = int(p)
    if not 0 <= p <= MAX_MOMENT_HALF_ORDER:
        raise ValueError(f"moment half-order out of range: {p}")
    xi = spectrum.grid.points()
    integrand = (xi - xi_m) ** (2 * p) * np.abs(spectrum.values) ** 2
    return _covered_moment(spectrum.grid, integrand, "spectral moment")


def abs_moment_p(s: SampledSignal, p: int, center: float,
                 allow_low_order: bool = False) -> float:
    """Absolute moment: integral of |x - center|^p |s(x)|^2.

    Orders below 2 are outside the duration-bandwidth machinery and are
    rejected unless ``allow_low_order`` is set for diagnostics.
    """
    p = int(p)
    if p < 2 and not allow_low_order:
        raise ValueError(
            f"absolute moment of order {p} < 2 is not usable for the "
            "duration-bandwidth bound; pass allow_low_order=True to compute "
            "it anyway"
        )
    x = s.grid.points()
    integrand = np.abs(x - center) ** p * np.abs(s.values) ** 2
    return _covered_moment(s.grid, integrand, "absolute moment")


def demodulation_freq(params: OlctParams, xi_m: float) -> float:
    """Demodulation frequency beta = (xi_m - tau) / b."""
    if params.is_degenerate:
        raise ValueError("demodulation frequency is undefined for b = 0")
    return (xi_m - params.tau) / params.b


def chirp_demodulate(f: SampledSignal, params: OlctParams,
                     xi_m: float = 0.0) -> SampledSignal:
    """Chirp-cancelled, demodulated signal exp(-j beta t) exp(j a/(2b) t^2) f(t).

    The factors are unimodular, so the result has the same pointwise
    magnitude as the input.
    """
    beta = demodulation_freq(params, xi_m)
    t = f.grid.points()
    phase = params.chirp_rate * t * t - beta * t
    return f.with_values(f.values * np.exp(1j * phase))


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

    The left side is direct quadrature of the fast-path transform on the
    default output grid; the right side differentiates the demodulated
    signal spectrally.  The gap is :func:`relative_gap`, the same rule the
    verify reports use for their ``ppr_gap``.
    """
    p = int(p)
    if not 0 <= p <= MAX_MOMENT_HALF_ORDER:
        raise ValueError(f"moment half-order out of range: {p}")
    if params.is_degenerate:
        raise ValueError("the moment identity requires b != 0")
    spectrum = olct_forward(f, params, default_xi_grid(f, params, xi_m=xi_m))
    lhs = spectral_moment_2p(spectrum, p, xi_m)

    g_b = chirp_demodulate(f, params, xi_m)
    g_b_p = derivative(g_b, p) if p >= 1 else g_b
    rhs = params.b ** (2 * p) * energy(g_b_p)
    return PprResult(lhs=lhs, rhs=rhs, rel_gap=relative_gap(lhs, rhs))
