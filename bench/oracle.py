"""Reference values for the benchmark's output checks.

Nothing here calls into ``olct``.  Moments come from
``scipy.integrate.quad`` on closed-form integrands of the chirped-Gaussian
family f(t) = exp(-(r/2) t^2 - j c t^2), the way ``tests/conftest.py`` builds
its oracles; spectra come from their closed forms.

* the weighted time moment is integrated directly;
* the output-domain moment is taken through the moment identity
  integral (xi - xi_m)^(2k) |O(xi)|^2 dxi = b^(2k) ||g_b^(k)||^2, with the
  demodulated signal g_b(t) = exp(-j beta t) exp(j a/(2b) t^2) f(t) and its
  k-th derivative written as P_k(t) g_b(t) by the polynomial recursion
  P_0 = 1, P_(k+1) = P_k' + (2 alpha t + gamma) P_k.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

# The package truncates every integral to its grid; the family decays far
# below double precision long before this half-width.
_HALF_WIDTH = 30.0


def _rquad(fn, center: float) -> float:
    return quad(fn, -_HALF_WIDTH, _HALF_WIDTH, points=[center], limit=400,
                epsabs=0.0, epsrel=1e-12)[0]


def _deriv_poly(alpha: complex, gamma: complex, k: int) -> np.ndarray:
    """Ascending coefficients of P_k for exp(alpha t^2 + gamma t)."""
    poly = np.array([1.0 + 0.0j])
    lead = np.array([gamma, 2.0 * alpha])
    for _ in range(k):
        nxt = np.convolve(poly, lead)
        nxt[: len(poly) - 1] += poly[1:] * np.arange(1, len(poly))
        poly = nxt
    return poly


def time_moment(r: float, weight_rate: float, t_m: float, order: int) -> float:
    """integral w(t)^2 |t - t_m|^order exp(-r t^2) dt, w(t) = exp(-weight_rate t)
    (a unit weight at rate 0)."""
    return _rquad(lambda t: math.exp(-2.0 * weight_rate * t - r * t * t)
                  * abs(t - t_m) ** order, -weight_rate / r)


def spectral_moment(r: float, chirp: float, a: float, b: float, tau: float,
                    xi_m: float, k: int) -> float:
    """b^(2k) ||g_b^(k)||^2, the 2k-th output-domain moment about xi_m."""
    alpha = -(r / 2.0) - 1j * chirp + 1j * a / (2.0 * b)
    beta = (xi_m - tau) / b
    poly = _deriv_poly(alpha, -1j * beta, k)
    norm = _rquad(lambda t: abs(npoly.polyval(t, poly)) ** 2
                  * math.exp(-r * t * t), 0.0)
    return b ** (2 * k) * norm


def report_lhs(bound: str, p: int, r: float, chirp: float, a: float, b: float,
               tau: float, weight_rate: float, t_m: float, xi_m: float) -> float:
    """Left side of a verify report: (mu_t mu_s)^(1/(2p)) for the 2p-order
    bounds, (mu_t mu_s)^(1/p) for the absolute-moment bound (even p)."""
    if bound == "hw":
        mu_t = time_moment(r, 0.0, t_m, p)
        mu_s = spectral_moment(r, chirp, a, b, tau, xi_m, p // 2)
        return (mu_t * mu_s) ** (1.0 / p)
    mu_t = time_moment(r, weight_rate, t_m, 2 * p)
    mu_s = spectral_moment(r, chirp, a, b, tau, xi_m, p)
    return (mu_t * mu_s) ** (1.0 / (2.0 * p))


def signal_energy(r: float, weight_rate: float = 0.0) -> float:
    """integral exp(-2 weight_rate t) exp(-r t^2) dt."""
    return time_moment(r, weight_rate, 0.0, 0)


def b0_spectrum(xi: np.ndarray, r: float, chirp: float, c: float, d: float,
                tau: float, eta: float, t_min: float, t_max: float) -> np.ndarray:
    """Degenerate branch sqrt(d) exp(j(c d (xi-tau)^2/2 + xi eta)) f(d (xi-tau)),
    with f taken as zero outside the sampled interval [t_min, t_max]."""
    arg = d * (xi - tau)
    f = np.exp(-(r / 2.0) * arg**2 - 1j * chirp * arg**2)
    f = np.where((arg >= t_min) & (arg <= t_max), f, 0.0)
    return math.sqrt(d) * np.exp(1j * (c * d * (xi - tau) ** 2 / 2.0
                                       + xi * eta)) * f


def spectrum_magnitude(xi: np.ndarray, r: float, chirp: float, a: float,
                       b: float, tau: float) -> np.ndarray:
    """|O(xi)| for b != 0: the Gaussian integral
    integral exp(-alpha t^2 - j w t) dt = sqrt(pi/alpha) exp(-w^2/(4 alpha)),
    alpha = r/2 + j (chirp - a/(2b)), w = (xi - tau)/b, over sqrt(2 pi |b|)."""
    alpha = r / 2.0 + 1j * (chirp - a / (2.0 * b))
    w = (xi - tau) / b
    return (math.sqrt(math.pi / abs(alpha) / (2.0 * math.pi * abs(b)))
            * np.exp(-np.real(w**2 / (4.0 * alpha))))
