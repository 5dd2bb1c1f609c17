"""Uniform grids, sampled complex signals, analytic signal families,
quadrature, differentiation, magnitudes and energies.

Everything here is a pure function over immutable value objects: the
analytic signal and the weight are frozen records of their closed-form
parameters, with no stored callables or caches of derivatives.  Results
only depend on the arguments, so signals, weights and grids can be shared
freely across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericsError

__all__ = [
    "Grid",
    "SampledSignal",
    "AnalyticSignal",
    "WeightFunction",
    "make_grid",
    "gaussian_chirp",
    "exp_weight",
    "unit_weight",
    "trapezoid",
    "trapezoid_samples",
    "check_decay",
    "guarded_integral",
    "cis",
    "centered_power",
    "kept_bins",
    "next_fast_len",
    "fourier_derivatives",
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
# they are zeroed first, and the default output grid is sized to the bins
# above it.  kept_bins applies it for both.
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


@dataclass(frozen=True)
class AnalyticSignal:
    """Signal c0 * exp(q2*t^2 + q1*t + q0) with exact derivatives of any order.

    The k-th derivative is P_k(t) * f(t) where P_0 = 1 and
    P_{k+1} = P_k' + (2*q2*t + q1) * P_k; the polynomial recursion is exact,
    so derivatives carry no discretization error.
    """

    c0: complex
    q2: complex
    q1: complex = 0.0
    q0: complex = 0.0
    label: str = ""

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return complex(self.c0) * np.exp(self.q2 * t * t + self.q1 * t + self.q0)

    def deriv(self, k: int) -> Callable:
        """The exact k-th derivative as a callable of the sample times; P_k
        is rebuilt on every call, so the signal holds no state."""
        if k == 0:
            return self
        lead = np.polynomial.Polynomial([complex(self.q1), 2.0 * complex(self.q2)])
        pk = np.polynomial.Polynomial([1.0 + 0.0j])
        for _ in range(int(k)):
            pk = pk.deriv() + lead * pk
        return lambda t: pk(np.asarray(t, dtype=float)) * self(t)

    def sample(self, grid: Grid) -> SampledSignal:
        return SampledSignal(grid, self(grid.points()))


def gaussian_chirp(r: float, chirp: float) -> AnalyticSignal:
    """Gaussian envelope with a quadratic phase: exp(-(r/2)t^2) * exp(-j*chirp*t^2).

    The squared magnitude is exp(-r t^2) and the value at t=0 is 1.
    """
    if not r > 0:
        raise ValueError(f"gaussian width parameter must be positive, got r={r}")
    return AnalyticSignal(1.0, -(r / 2.0) - 1j * float(chirp),
                          label=f"gaussian_chirp(r={r}, chirp={chirp})")


@dataclass(frozen=True)
class WeightFunction:
    """The weight w(t) = exp(-rate t), whose k-th derivative is
    (-rate)^k w(t); rate 0 is the unit weight w = 1."""

    rate: float = 0.0

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(-self.rate * t) if self.rate else np.ones_like(t)

    def derivs(self, t, orders) -> dict:
        """``{k: k-th derivative of w at t}`` for every requested order
        k >= 0, all from one evaluation of w (0 for k >= 1 at rate 0)."""
        w = self(t)
        return {k: (-self.rate) ** k * w if k else w for k in orders}


def exp_weight(r: float) -> WeightFunction:
    """Exponential weight w(t) = exp(-r t); d^k/dt^k w = (-r)^k exp(-r t)."""
    if not r > 0:
        raise ValueError(f"exponential weight rate must be positive, got r={r}")
    return WeightFunction(float(r))


def unit_weight() -> WeightFunction:
    """Constant weight w(t) = 1."""
    return WeightFunction()


def trapezoid(grid: Grid, x: np.ndarray):
    """Trapezoid-rule integral over the grid of the samples ``x``, real or
    complex: dt (sum x - (x[0] + x[-1])/2), weight dt at every sample and
    dt/2 at both ends.

    Every integrand the package integrates has decayed at both grid ends
    (:func:`check_decay`), where the trapezoid rule converges exponentially
    (Trefethen & Weideman, SIAM Review 2014).
    """
    return grid.dt * (np.sum(x) - (x[0] + x[-1]) / 2.0)


def trapezoid_samples(grid: Grid, x: np.ndarray) -> np.ndarray:
    """A new array of the samples ``x`` weighted by the trapezoid rule: dt x
    with both end samples halved, the input of a Fourier sum.

    The trapezoid rule is the rule the DFT applies, so a Fourier sum of
    these samples has no spectral replica.
    """
    out = grid.dt * x
    ends = [0, -1]
    out[ends] = (grid.dt / 2.0) * x[ends]
    return out


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
    return float(trapezoid(grid, integrand))


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


def kept_bins(spec: np.ndarray) -> tuple:
    """The bins of an FFT ``spec`` above the noise floor, ``(kept, signed)``:
    the indices whose amplitude is not below ``SPECTRAL_NOISE_FLOOR`` of the
    peak (a NaN bin is kept), and their signed indices, the values of
    ``fftfreq(size) * size`` there."""
    mag = np.abs(spec)
    kept = np.flatnonzero(~(mag < SPECTRAL_NOISE_FLOOR * np.max(mag)))
    signed = np.where(kept < (spec.size + 1) // 2, kept, kept - spec.size)
    return kept, signed


@functools.cache
def next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer (2^a 3^b 5^c 7^d 11^e) >= ``target``,
    a length pocketfft transforms fast; scipy's ``next_fast_len`` gives the
    same for complex input.  Its few distinct arguments are cached."""
    target = int(target)
    if target < 1:
        raise ValueError(f"FFT length target must be >= 1, got {target}")
    best = 1 << (target - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # p3 times the smallest power of two reaching target
                    best = min(best, p3 << (-(-target // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def fourier_derivatives(spec: np.ndarray, kept: np.ndarray, signed: np.ndarray,
                        dt: float, n: int, orders, beta: float = 0.0,
                        centre: int = 0) -> dict:
    """``{k: (d/dt - j beta)^k s}`` for every order k >= 1, at the n samples
    (spacing dt) of a signal s, read off ``spec``, the FFT of those samples
    zero-padded to spec.size points with sample ``centre`` at index 0 and
    the samples before it wrapped round to the end.  ``kept, signed`` is
    :func:`kept_bins` of ``spec``.

    (d/dt - j beta)^k s is exp(j beta t) times the k-th derivative of the
    demodulated exp(-j beta t) s, so the two have the same magnitude.  Only
    the kept bins get the multiplier (j (omega - beta))^k, and for an even
    length the unmatched Nyquist bin is dropped at odd k.  Their products
    are scattered into one zeroed buffer per order, which the inverse FFT
    overwrites; at beta = 0 the values are those of the full-length
    products with the dropped bins zeroed, bit for bit.
    """
    size = spec.size
    spec = spec[kept]
    # fftfreq's values at the kept bins: signed bin index / (size dt)
    omega = 2.0j * np.pi * (signed * (1.0 / (size * dt))) - 1j * beta
    nyquist = np.flatnonzero(kept == size // 2) if size % 2 == 0 else kept[:0]
    out = {}
    for k in orders:
        mult = omega**k
        if k % 2 == 1:
            mult[nyquist] = 0.0  # unmatched Nyquist bin
        full = np.zeros(size, dtype=np.complex128)
        full[kept] = spec * mult
        np.fft.ifft(full, out=full)
        out[k] = np.concatenate((full[size - centre :], full[: n - centre]))
    return out


def derivative(s: SampledSignal, orders) -> dict:
    """Derivatives of a sampled signal by spectral differentiation:
    ``{k: k-th derivative}`` for every requested order ``k >= 1``.

    The signal must be negligible at the grid edges (:func:`check_decay`).
    The samples are zero-padded to the fast FFT length ``next_fast_len(n)``,
    which that decay makes harmless, and transformed once; each order is one
    (j omega)^k multiplier and one inverse FFT, truncated back to n
    (:func:`fourier_derivatives` at beta = 0).
    """
    orders = [int(k) for k in orders]
    if orders and min(orders) < 1:
        raise ValueError(f"derivative order must be >= 1, got {min(orders)}")
    check_decay(s.values, "the signal to differentiate spectrally")
    n = s.grid.n
    spec = np.fft.fft(s.values, next_fast_len(n))
    derivs = fourier_derivatives(spec, *kept_bins(spec), s.grid.dt, n, orders)
    return {k: s.with_values(values) for k, values in derivs.items()}


def energy(grid: Grid, sq: np.ndarray) -> float:
    """Integral over the grid of ``sq``, a squared magnitude |s|^2."""
    return float(trapezoid(grid, sq))


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
