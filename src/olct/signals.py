"""Uniform grids, sampled complex signals, analytic signal families,
quadrature, differentiation, magnitudes and energies.

Everything here is a pure function over immutable value objects; results
only depend on the arguments, so signals and grids can be shared freely
across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import fft as sfft

from .errors import NumericsError

__all__ = [
    "Grid",
    "SampledSignal",
    "AnalyticSignal",
    "WeightFunction",
    "make_grid",
    "gaussian_chirp",
    "exp_quadratic",
    "exp_weight",
    "unit_weight",
    "quadrature_weights",
    "integrate",
    "check_decay",
    "guarded_integral",
    "cis",
    "centered_power",
    "derivative",
    "energy",
    "AbsEnergy",
    "abs_energy",
]

MIN_GRID_POINTS = 16

# Largest half-order p of a 2p-order moment, bound functional or
# derivative-product identity; every order check in the package reads it.
MAX_HALF_ORDER = 4

# Relative edge magnitude above which the truncation guard refuses a signal
# (spectral differentiation, the fast transform path) or a bound integrand.
EDGE_DECAY_TOL = 1e-8

# Spectrum bins below this fraction of the peak are rounding noise; the
# frequency-domain derivative multiplier would amplify them by omega^k, so
# they are zeroed first.
SPECTRAL_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniformly spaced sample locations on a closed interval."""

    t_min: float
    t_max: float
    n: int

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n - 1)

    def points(self) -> np.ndarray:
        """The n sample locations, ``np.linspace(t_min, t_max, n)``.

        They are computed on the first call and the same read-only array
        is returned by every later call on this grid.
        """
        return self._points

    @functools.cached_property
    def _points(self) -> np.ndarray:
        pts = np.linspace(self.t_min, self.t_max, self.n)
        pts.setflags(write=False)
        return pts

    @property
    def length(self) -> float:
        return self.t_max - self.t_min


def make_grid(t_min: float, t_max: float, n: int) -> Grid:
    """Build a uniform grid with at least ``MIN_GRID_POINTS`` samples.

    Parameters
    ----------
    t_min, t_max : float
        Interval endpoints, ``t_min < t_max``, both finite.
    n : int
        Number of samples, ``n >= 16``.
    """
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise ValueError("grid endpoints must be finite")
    if not t_min < t_max:
        raise ValueError(f"grid needs t_min < t_max, got [{t_min}, {t_max}]")
    n = int(n)
    if n < MIN_GRID_POINTS:
        raise ValueError(f"grid too small: n={n} < {MIN_GRID_POINTS}")
    return Grid(float(t_min), float(t_max), n)


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a signal on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"signal length {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "SampledSignal":
        return type(self)(self.grid, values)


class AnalyticSignal:
    """A signal given by closed-form callables with exact derivatives.

    ``eval_fn`` maps an array of sample times to complex values, and
    ``deriv_fn(k)`` returns the callable for the exact k-th derivative.
    """

    def __init__(self, eval_fn: Callable, deriv_fn: Callable, label: str):
        self.eval_fn = eval_fn
        self.deriv_fn = deriv_fn
        self.label = label

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(t, dtype=float)),
                          dtype=np.complex128)

    def deriv(self, k: int) -> Callable:
        if k == 0:
            return self.eval_fn
        return self.deriv_fn(int(k))

    def sample(self, grid: Grid) -> SampledSignal:
        return SampledSignal(grid, self(grid.points()))

    def __repr__(self):
        return f"AnalyticSignal({self.label!r})"


def exp_quadratic(c0: complex, q2: complex, q1: complex = 0.0,
                  q0: complex = 0.0, label: str = "") -> AnalyticSignal:
    """Signal c0 * exp(q2*t^2 + q1*t + q0) with exact derivatives of any order.

    The k-th derivative is P_k(t) * f(t) where P_0 = 1 and
    P_{k+1} = P_k' + (2*q2*t + q1) * P_k; the polynomial recursion is exact,
    so derivatives carry no discretization error.
    """
    c0 = complex(c0)
    lead = np.polynomial.Polynomial([complex(q1), 2.0 * complex(q2)])
    polys = [np.polynomial.Polynomial([1.0 + 0.0j])]

    def base(t):
        t = np.asarray(t, dtype=float)
        return c0 * np.exp(q2 * t * t + q1 * t + q0)

    def deriv(k: int) -> Callable:
        while len(polys) <= k:
            p = polys[-1]
            polys.append(p.deriv() + lead * p)
        pk = polys[k]
        return lambda t: pk(np.asarray(t, dtype=float)) * base(t)

    return AnalyticSignal(base, deriv, label=label)


def gaussian_chirp(r: float, chirp: float) -> AnalyticSignal:
    """Gaussian envelope with a quadratic phase: exp(-(r/2)t^2) * exp(-j*chirp*t^2).

    The squared magnitude is exp(-r t^2) and the value at t=0 is 1.
    """
    if not r > 0:
        raise ValueError(f"gaussian width parameter must be positive, got r={r}")
    return exp_quadratic(1.0, -(r / 2.0) - 1j * float(chirp),
                         label=f"gaussian_chirp(r={r}, chirp={chirp})")


@dataclass(frozen=True)
class WeightFunction:
    """Real weight with exact derivatives of every order."""

    eval_fn: Callable = field(repr=False)
    deriv_factory: Callable = field(repr=False)
    label: str = ""

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(t, dtype=float)), dtype=float)

    def deriv(self, k: int) -> Callable:
        k = int(k)
        if k == 0:
            return self.eval_fn
        return self.deriv_factory(k)


def exp_weight(r: float) -> WeightFunction:
    """Exponential weight w(t) = exp(-r t); d^k/dt^k w = (-r)^k exp(-r t)."""
    if not r > 0:
        raise ValueError(f"exponential weight rate must be positive, got r={r}")
    r = float(r)
    return WeightFunction(
        eval_fn=lambda t: np.exp(-r * t),
        deriv_factory=lambda k: (lambda t: (-r) ** k * np.exp(-r * t)),
        label=f"exp_weight({r})",
    )


def unit_weight() -> WeightFunction:
    """Constant weight w(t) = 1."""
    return WeightFunction(
        eval_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        deriv_factory=lambda k: (lambda t: np.zeros_like(np.asarray(t, dtype=float))),
        label="unit_weight",
    )


@functools.lru_cache(maxsize=8)
def quadrature_weights(n: int, dt: float) -> np.ndarray:
    """Trapezoid weights for ``n`` uniform samples: dt at every sample and
    dt/2 at both ends.

    Every integrand the package integrates has decayed at both grid ends
    (:func:`check_decay`), where the trapezoid rule converges exponentially
    (Trefethen & Weideman, SIAM Review 2014).  It is also the rule the DFT
    applies, so a Fourier sum with these weights has no spectral replica.
    The weights of the last few (n, dt) are kept and shared, so the array
    is read-only.
    """
    if n < 2:
        raise ValueError("quadrature needs at least two samples")
    w = np.full(n, float(dt))
    w[0] = w[-1] = dt / 2.0
    w.setflags(write=False)
    return w


def integrate(s: SampledSignal) -> complex:
    """Integral of the signal over its grid interval (trapezoid rule)."""
    w = quadrature_weights(s.grid.n, s.grid.dt)
    return complex(np.sum(w * s.values))


def check_decay(values: np.ndarray, what: str,
                tol: float = EDGE_DECAY_TOL) -> None:
    """Truncation guard: raise :class:`NumericsError` unless ``values`` is
    finite and has decayed at both grid ends,
    max(|x[0]|, |x[-1]|) <= tol * max|x|.

    Every whole-line integral, spectral derivative and fast transform in the
    package is computed on a truncated grid and relies on this condition.
    An all-zero array passes.
    """
    mag = np.abs(values)
    peak = np.max(mag)
    if not np.isfinite(peak):  # max propagates nan; inf is its own peak
        raise NumericsError(f"{what} has non-finite values (overflow or NaN)")
    if peak == 0.0:
        return
    edge = max(mag[0], mag[-1])
    if edge > tol * peak:
        raise NumericsError(
            f"{what} does not decay at the grid edges "
            f"(edge/peak = {edge / peak:.2e}, need <= {tol:.0e}); "
            "widen the grid"
        )


def guarded_integral(grid: Grid, integrand: np.ndarray, what: str,
                     tol: float = EDGE_DECAY_TOL) -> float:
    """Trapezoid-rule integral of a real integrand over the grid, after
    :func:`check_decay` has confirmed that the truncation drops nothing."""
    check_decay(integrand, what, tol)
    w = quadrature_weights(grid.n, grid.dt)
    return float(np.sum(w * integrand))


def cis(phase) -> np.ndarray:
    """exp(j*phase) for a real phase, as cos(phase) + j*sin(phase).

    One cosine and one sine pass write the real and imaginary parts of one
    complex array.  numpy's complex exponential gives the same values and
    takes longer.
    """
    phase = np.asarray(phase, dtype=float)
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def centered_power(d: np.ndarray, mag: np.ndarray, e: int) -> np.ndarray:
    """(x - center)^e for an integer e >= 0, from d = x - center and
    mag = |d|: mag^e with the sign of d restored for odd e.

    numpy raises a negative base to a power far more slowly than a
    non-negative one; the result is within 1 ulp of ``(x - center) ** e``.
    A caller that takes several powers of one d forms d and |d| once.
    """
    out = mag ** e
    if e % 2:
        # in place, unless a scalar d made out a numpy scalar
        out = np.copysign(out, d,
                          out=out if isinstance(out, np.ndarray) else None)
    return out


def derivative(s: SampledSignal, orders) -> dict:
    """Derivatives of a sampled signal by spectral differentiation:
    ``{k: k-th derivative}`` for every requested order ``k >= 1``.

    The signal must be negligible at the grid edges (:func:`check_decay`).
    The samples are zero-padded to the fast FFT length ``next_fast_len(n)``,
    which that decay makes harmless, and transformed once; each order is one
    (j omega)^k multiplier and one inverse FFT, truncated back to n.
    Spectrum bins below ``SPECTRAL_NOISE_FLOOR`` of the peak are zeroed
    before the multipliers, and for an even padded length the unmatched
    Nyquist bin is dropped at odd k.

    A decaying signal keeps few bins (39 to 128 of the 65610 on the
    benchmark's 65537-point reports, at most 40 % on its other workloads),
    so when at most half the bins are kept the multipliers and products are
    formed on those alone and scattered into one zeroed buffer per order;
    a band-filling spectrum takes the full-length products, which need no
    scatter.  Either way the inverse FFT overwrites its input, and the
    values are those of the full-length products bit for bit.
    """
    orders = [int(k) for k in orders]
    if orders and min(orders) < 1:
        raise ValueError(f"derivative order must be >= 1, got {min(orders)}")
    check_decay(s.values, "the signal to differentiate spectrally")
    n = s.grid.n
    nfft = sfft.next_fast_len(n)
    spec = sfft.fft(s.values, nfft)
    mag = np.abs(spec)
    # the bins below the floor (a NaN bin is kept, as before)
    drop = mag < SPECTRAL_NOISE_FLOOR * np.max(mag)
    del mag
    if 2 * np.count_nonzero(drop) >= nfft:
        kept = np.flatnonzero(~drop)
        spec = spec[kept]
    else:
        kept = np.arange(nfft)
        spec[drop] = 0.0
    del drop
    # fftfreq's values at the kept bins: signed bin index / (nfft dt)
    signed = np.where(kept < (nfft + 1) // 2, kept, kept - nfft)
    omega = 2.0j * np.pi * (signed * (1.0 / (nfft * s.grid.dt)))
    nyquist = np.flatnonzero(kept == nfft // 2) if nfft % 2 == 0 else kept[:0]
    out = {}
    for k in orders:
        mult = omega**k
        if k % 2 == 1:
            mult[nyquist] = 0.0  # unmatched Nyquist bin
        prod = spec * mult
        if spec.size < nfft:
            full = np.zeros(nfft, dtype=np.complex128)
            full[kept] = prod
            prod = full
        out[k] = s.with_values(sfft.ifft(prod, overwrite_x=True)[:n])
    return out


def energy(grid: Grid, sq: np.ndarray) -> float:
    """Integral over the grid of ``sq``, a squared magnitude |s|^2."""
    w = quadrature_weights(grid.n, grid.dt)
    return float(np.sum(w * sq))


class AbsEnergy(NamedTuple):
    """|s| and ||s||^2 of a signal s on its grid: what the moments, the
    gaps and the Gram terms of a report read of f, u, v and h, formed once
    so that the report shares them."""

    grid: Grid
    mag: np.ndarray
    energy: float


def abs_energy(s: SampledSignal) -> AbsEnergy:
    """The :class:`AbsEnergy` of a sampled signal."""
    mag = np.abs(s.values)
    return AbsEnergy(s.grid, mag, energy(s.grid, mag ** 2))
