"""The six-parameter offset chirp transform: parameter algebra, kernel,
forward transform (direct quadrature and a fast chirp-factorized path),
inverse via the unitary adjoint, and an energy-conservation check.

Parameters (a, b, c, d | tau, eta) act on a signal f as

    O(xi) = integral f(t) K(t, xi) dt                       (b != 0)
    O(xi) = sqrt(d) exp(j[c d (xi-tau)^2/2 + xi eta]) f(d (xi-tau))   (b == 0)

with the unimodular-up-to-scale kernel

    K(t, xi) = (1/sqrt(j 2 pi b)) exp(j [ a/(2b) t^2 - t (xi-tau)/b
               - xi (d tau - b eta)/b + d/(2b) (xi^2 + tau^2) ]).

Square roots of complex numbers are always the principal branch, so
sqrt(j) = exp(j pi/4) and, for b < 0, sqrt(j 2 pi b) has argument -pi/4.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
from scipy import fft as sfft
from scipy.interpolate import CubicSpline

from .errors import NumericsError
from .signals import (
    MAX_HALF_ORDER,
    MIN_GRID_POINTS,
    SPECTRAL_NOISE_FLOOR,
    Grid,
    SampledSignal,
    abs_energy,
    check_decay,
    cis,
    make_grid,
    quadrature_weights,
)

__all__ = [
    "OlctParams",
    "ft_params",
    "olct_kernel",
    "olct_forward",
    "olct_forward_b0",
    "olct_inverse",
    "parseval_gap",
    "energy_gap",
    "default_xi_grid",
]

DET_TOL = 1e-12

# Level, relative to its own peak, at which a moment integrand of the
# input's spectrum ends the default output grid.  The edges then pass the
# moment guard's 1e-10 with room to spare, and the tails cut off move a
# moment by about this fraction, a rounding-level change (1e-13 moved
# Gaussian moments by up to 1.2e-13).
SPAN_TOL = 1e-16


@dataclass(frozen=True)
class OlctParams:
    """Transform parameters (a, b, c, d | tau, eta).

    The 2x2 block is expected to satisfy a*d - b*c = 1; pass ``strict=False``
    to accept a parameter set that violates it.  For ``b != 0`` none of the
    transform's magnitude-level properties (energy conservation, moment
    identities, bounds) depend on c or d, so non-unimodular sets remain
    numerically meaningful; they are merely flagged.
    """

    a: float
    b: float
    c: float
    d: float
    tau: float = 0.0
    eta: float = 0.0
    strict: InitVar[bool] = True

    def __post_init__(self, strict: bool):
        vals = (self.a, self.b, self.c, self.d, self.tau, self.eta)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"transform parameters must be finite, got {vals}")
        if strict and abs(self.determinant - 1.0) > DET_TOL:
            raise ValueError(
                f"parameter block must satisfy a*d - b*c = 1, got "
                f"{self.determinant!r} for (a={self.a}, b={self.b}, "
                f"c={self.c}, d={self.d})"
            )

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def is_degenerate(self) -> bool:
        """True when b = 0, selecting the scaling/chirp branch."""
        return self.b == 0.0

    @property
    def chirp_rate(self) -> float:
        """Rate a/(2b) of the quadratic phase attached to the input."""
        if self.is_degenerate:
            raise ValueError("chirp rate is undefined for b = 0")
        return self.a / (2.0 * self.b)


def ft_params() -> OlctParams:
    """Parameters (0, 1, -1, 0 | 0, 0) reducing the transform to a Fourier
    integral with kernel exp(-j t xi) and prefactor 1/sqrt(j 2 pi)."""
    return OlctParams(0.0, 1.0, -1.0, 0.0)


def _root_factor(b: float) -> complex:
    return 1.0 / np.sqrt(1j * 2.0 * np.pi * b)


def _outer_phase(xi: np.ndarray, p: OlctParams) -> np.ndarray:
    """xi-only part of the kernel exponent (everything except the t terms)."""
    return (-(1.0 / p.b) * xi * (p.d * p.tau - p.b * p.eta)
            + (p.d / (2.0 * p.b)) * (xi**2 + p.tau**2))


def olct_kernel(t, xi, params: OlctParams) -> np.ndarray:
    """Kernel K(t, xi); inputs broadcast. Modulus is 1/sqrt(2 pi |b|)."""
    if params.is_degenerate:
        raise ValueError("kernel is undefined for b = 0; use olct_forward_b0")
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    p = params
    # one unimodular factor per phase term: a single exponential of their
    # sum would round a phase of thousands of radians
    return (_root_factor(p.b) * cis((p.a / (2.0 * p.b)) * t**2)
            * cis(-(1.0 / p.b) * t * (xi - p.tau)) * cis(_outer_phase(xi, p)))


def _mirrored(chirp: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """chirp[|l|] for l = lo..hi-1, lo <= 0 < hi, from a reversed and a
    forward slice, which copy instead of gathering by index."""
    return np.concatenate([chirp[-lo:0:-1], chirp[:hi]])


def _fourier_sum(x: np.ndarray, x0: float, dx: float,
                 u0: float, du: float, m: int) -> np.ndarray:
    """sum_k x[k] * exp(-j u_j x_k) for x_k = x0 + k*dx, u_j = u0 + j*du.

    It serves the grids the bins of :func:`_bin_spectrum` do not: explicit
    output grids of :func:`olct_forward` and every :func:`olct_inverse`.
    Bluestein's chirp convolution on centered indices k' = k - n//2 and
    j' = j - m//2, with j'k' = (j'^2 + k'^2 - (j'-k')^2)/2.  Each chirp phase
    theta*l^2/2, theta = du*dx, is formed from the exact integer square l^2,
    so its rounding stays relative to that phase instead of growing with n^2
    as it does for a chirp built as a power of exp(-j theta).  Centering
    keeps the phases, and so their rounding, smallest in the middle of both
    grids, where the decaying input and its spectrum carry their weight.
    """
    n = x.size
    kc = np.arange(n) - n // 2
    theta = du * dx
    squares = np.arange(max(n, m)) ** 2
    chirp = cis(-0.5 * theta * squares)  # indexed by |l|
    y = (x * cis(-((u0 + (m // 2) * du) * dx) * kc)
         * _mirrored(chirp, -(n // 2), n - n // 2))
    # conj chirp at j' - k' for j - k = -(n-1)..m-1; the linear convolution
    # y * h holds output j at index j + n - 1
    shift = n // 2 - m // 2
    h = np.conj(_mirrored(chirp, shift - (n - 1), shift + m))
    nfft = sfft.next_fast_len(n + m - 1)
    conv = sfft.ifft(sfft.fft(y, nfft) * sfft.fft(h, nfft))[n - 1 : n - 1 + m]
    u = u0 + du * np.arange(m)
    return (cis(-u * (x0 + (n // 2) * dx)) * _mirrored(chirp, -(m // 2), m - m // 2)
            * conv)


def _bin_spectrum(f: SampledSignal, params: OlctParams, xi_m: float):
    """The one FFT behind the default output grid and the transform on it.

    The output is O(xi) ~ G(u) at u = (xi - tau)/b, where G is the Fourier
    transform of the chirp-multiplied input g = exp(j a/(2b) t^2) f.  g sits
    on the centered indices k' = k - n//2 of an array of
    M = 2 next_fast_len(n - 1) points, so bin j of its FFT is
    G_j = sum_k g_k exp(-j u_j k' dt) at u_j = j du, du = 2 pi/(M dt) <= pi/L
    (exactly pi/L on a 2^k + 1 grid), L the length of the input grid.
    Bins below ``SPECTRAL_NOISE_FLOOR`` of the peak amplitude are rounding
    noise and are dropped.  The grid spans the outermost bins where
    |G|^2 |u - u_m|^(2k), u_m = (xi_m - tau)/b, reaches ``SPAN_TOL`` of its
    own maximum for some k = 0..``MAX_HALF_ORDER``, so every moment
    integrand has decayed at its edges and the span stays inside the band
    |u| <= pi/dt; it is widened to an odd count of at least
    ``MIN_GRID_POINTS`` + 1 bins.

    Returns the grid, its bins j in grid order (descending for b < 0), g
    and the M-point FFT.
    """
    n, dt = f.grid.n, f.grid.dt
    t = f.grid.points()
    g = f.values * cis(params.chirp_rate * t * t)
    size = 2 * sfft.next_fast_len(n - 1)
    padded = np.zeros(size, dtype=np.complex128)
    padded[: n - n // 2] = g[n // 2 :]
    padded[size - n // 2 :] = g[: n // 2]
    spec = sfft.fft(padded, overwrite_x=True)
    du = 2.0 * np.pi / (size * dt)
    power = np.abs(spec) ** 2
    kept = np.flatnonzero(power >= SPECTRAL_NOISE_FLOOR**2 * np.max(power))
    power = power[kept]
    bins = np.where(kept < size // 2, kept, kept - size)  # signed bin index
    dist2 = (bins * du - (xi_m - params.tau) / params.b) ** 2
    covered = np.zeros(bins.size, dtype=bool)
    for _ in range(MAX_HALF_ORDER + 1):
        covered |= power >= SPAN_TOL * np.max(power)
        power = power * dist2
    lo, hi = int(np.min(bins[covered])), int(np.max(bins[covered]))
    hi += (hi - lo) % 2
    pad = max(0, MIN_GRID_POINTS // 2 - (hi - lo) // 2)
    lo, hi = lo - pad, hi + pad
    ends = sorted((params.tau + params.b * (lo * du),
                   params.tau + params.b * (hi * du)))
    # |b| du meets |b| pi/L exactly on a 2^k + 1 grid, and the float spacing
    # may round an ulp above it; moving the ends inward by an ulp keeps it
    # within, the points staying a few ulp from the bins
    cap = abs(params.b) * np.pi / f.grid.length
    while (ends[1] - ends[0]) / (hi - lo) > cap:
        ends = [np.nextafter(ends[0], ends[1]), np.nextafter(ends[1], ends[0])]
    grid = make_grid(*ends, hi - lo + 1)
    order = np.arange(lo, hi + 1) if params.b > 0 else np.arange(hi, lo - 1, -1)
    return grid, order, g, spec


def _forward_on_bins(f: SampledSignal, params: OlctParams, xi_m: float
                     ) -> SampledSignal:
    """The chirp_fft transform on the default output grid, read off the bins
    of :func:`_bin_spectrum`'s FFT.

    The quadrature weights are dt except at the two end samples, so the
    weighted sum at bin j is dt G_j plus the weight corrections at those
    two samples.  The centre phase exp(-j u t_c), t_c the middle sample,
    and the outer phase complete the kernel; both are taken at the grid
    points, which sit within a few ulp of tau + b u_j, as the other paths
    take them.
    """
    grid, bins, g, spec = _bin_spectrum(f, params, xi_m)
    n, dt = f.grid.n, f.grid.dt
    size = spec.size
    inner = dt * spec[bins % size]
    ends = np.array([0, n - 1])
    delta = quadrature_weights(n, dt)[ends] - dt
    turns = np.outer(bins, ends - n // 2) % size
    inner += cis((-2.0 * np.pi / size) * turns) @ (delta * g[ends])
    xi = grid.points()
    t_c = f.grid.t_min + (n // 2) * dt
    out = (_root_factor(params.b) * cis(_outer_phase(xi, params))
           * cis(-((xi - params.tau) / params.b) * t_c) * inner)
    return SampledSignal(grid, out)


def default_xi_grid(f: SampledSignal, params: OlctParams, xi_m: float = 0.0,
                    n: int | None = None) -> Grid:
    """Output grid that covers the spectrum's moment integrands and samples
    them finely enough for the quadrature: the bins of one zero-padded FFT
    of the chirp-multiplied input, spaced du <= pi/L in u = (xi - tau)/b
    (d xi <= |b| pi/L), as :func:`_bin_spectrum` describes.  It is the grid
    :func:`olct_forward` uses when given no grid.

    By Poisson summation, a trapezoid sum over such a grid of |G|^2 times a
    polynomial differs from the integral by aliases of the autocorrelation
    of g, which vanishes beyond lags of L; the spacing du puts those aliases
    at 2 pi/du >= 2L, whatever the spectrum's shape.  The same limit keeps
    the inverse transform alias-free.  ``n`` overrides the count on the
    same span; a transform on that grid runs the Bluestein sum.
    """
    if params.is_degenerate:
        raise ValueError("default output grid is only defined for b != 0")
    grid = _bin_spectrum(f, params, xi_m)[0]
    return grid if n is None else make_grid(grid.t_min, grid.t_max, n)


def olct_forward(f: SampledSignal, params: OlctParams,
                 xi_grid: Grid | None = None, path: str = "chirp_fft",
                 xi_m: float = 0.0) -> SampledSignal:
    """Forward transform of a sampled signal onto a uniform output grid.

    Parameters
    ----------
    f : SampledSignal
    params : OlctParams
        Requires ``b != 0``; b = 0 parameter sets are routed to
        :func:`olct_forward_b0`.
    xi_grid : Grid, optional
        Output grid; defaults to :func:`default_xi_grid` centred at
        ``xi_m``, which spans the input's spectrum (not the input grid) with
        its own point count.
    path : {"chirp_fft", "direct"}
        ``chirp_fft`` factorizes the kernel into chirp multiplication, a
        Fourier-type integral at frequencies (xi - tau)/b, and an output
        phase; it needs the signal to decay at the grid edges.  On the
        default grid the integral is read off the bins of the FFT that
        chose the grid, one FFT in all; on an explicit grid it is a
        Bluestein chirp transform.  ``direct`` evaluates the kernel
        quadrature densely and serves as the correctness reference.
    xi_m : float
        Centre of the default grid's moment integrands, as in
        :func:`default_xi_grid`; only meaningful without ``xi_grid`` (a
        nonzero value with one is an error), and unused for b = 0.

    Both paths apply the same trapezoid quadrature weights, so they agree
    to rounding error for decaying inputs.
    """
    if xi_grid is not None and xi_m != 0.0:
        raise ValueError("xi_m centres the default output grid; it cannot "
                         "be combined with an explicit xi_grid")
    if params.is_degenerate:
        return olct_forward_b0(f, params, xi_grid)
    if path not in ("chirp_fft", "direct"):
        raise ValueError(f"unknown forward path {path!r}")
    p = params
    t = f.grid.points()
    w = quadrature_weights(f.grid.n, f.grid.dt)

    if path == "chirp_fft":
        check_decay(f.values, "the input of the chirp_fft path")
        if xi_grid is None:
            return _forward_on_bins(f, p, xi_m)
        g = w * f.values * cis(p.chirp_rate * t * t)
        u0 = (xi_grid.t_min - p.tau) / p.b
        du = xi_grid.dt / p.b
        inner = _fourier_sum(g, f.grid.t_min, f.grid.dt, u0, du, xi_grid.n)
        out = _root_factor(p.b) * cis(_outer_phase(xi_grid.points(), p)) * inner
        return SampledSignal(xi_grid, out)

    if xi_grid is None:
        xi_grid = default_xi_grid(f, p, xi_m)
    xi = xi_grid.points()
    out = np.empty(xi_grid.n, dtype=np.complex128)
    weighted = w * f.values
    chunk = max(1, 2**22 // f.grid.n)
    for lo in range(0, xi_grid.n, chunk):
        block = xi[lo : lo + chunk, None]
        kern = olct_kernel(t[None, :], block, p)
        out[lo : lo + chunk] = kern @ weighted
    return SampledSignal(xi_grid, out)


def olct_forward_b0(f: SampledSignal, params: OlctParams,
                    xi_grid: Grid | None = None) -> SampledSignal:
    """Degenerate branch (b = 0): scaled, chirped copy of the input.

    Off-grid arguments d*(xi - tau) are evaluated with a cubic spline and
    taken as zero outside the sampled interval.  Only d > 0 is supported
    because the branch prefactor sqrt(d) has no principal value for d < 0.
    """
    if not params.is_degenerate:
        raise ValueError("olct_forward_b0 requires b = 0")
    if not params.d > 0:
        raise ValueError(
            f"b = 0 branch supports only d > 0 (got d={params.d}): the "
            "sqrt(d) prefactor is otherwise ambiguous"
        )
    p = params
    if xi_grid is None:
        xi_grid = make_grid(p.tau + f.grid.t_min / p.d,
                            p.tau + f.grid.t_max / p.d, f.grid.n)
    xi = xi_grid.points()
    arg = p.d * (xi - p.tau)
    spline = CubicSpline(f.grid.points(), f.values)
    vals = np.where((arg >= f.grid.t_min) & (arg <= f.grid.t_max),
                    spline(np.clip(arg, f.grid.t_min, f.grid.t_max)), 0.0)
    phase = p.c * p.d * (xi - p.tau) ** 2 / 2.0 + xi * p.eta
    return SampledSignal(xi_grid, math.sqrt(p.d) * cis(phase) * vals)


def olct_inverse(spectrum: SampledSignal, params: OlctParams, t_grid: Grid) -> SampledSignal:
    """Inverse transform as the adjoint: integral of O(xi) conj(K(t, xi)) dxi.

    The forward map is an L2 isometry for every b != 0, so the adjoint
    inverts it on well-resolved spectra.  The b = 0 branch has no inverse
    here.
    """
    if params.is_degenerate:
        raise ValueError("inverse is not provided for b = 0")
    p = params
    xi = spectrum.grid.points()
    t = t_grid.points()
    w = quadrature_weights(spectrum.grid.n, spectrum.grid.dt)
    h = w * spectrum.values * cis(-_outer_phase(xi, p))
    # sum_m h_m exp(+j t (xi_m - tau)/b), evaluated as a conjugated Bluestein sum
    u0 = t_grid.t_min / p.b
    du = t_grid.dt / p.b
    inner = np.conj(_fourier_sum(np.conj(h), spectrum.grid.t_min,
                                 spectrum.grid.dt, u0, du, t_grid.n))
    inner = inner * cis(-t * p.tau / p.b)
    out = np.conj(_root_factor(p.b)) * cis(-p.chirp_rate * t * t) * inner
    return SampledSignal(t_grid, out)


def parseval_gap(f: SampledSignal, spectrum: SampledSignal) -> float:
    """:func:`energy_gap` of a signal and its transform."""
    return energy_gap(abs_energy(f).energy, abs_energy(spectrum).energy)


def energy_gap(e_f: float, e_o: float) -> float:
    """Relative energy mismatch |E_f - E_O| / E_f between a signal of
    energy E_f and its transform of energy E_O; zero for an exactly unitary
    pair."""
    if not (np.isfinite(e_f) and np.isfinite(e_o)):
        raise NumericsError("energies must be finite")
    if e_f <= 0.0:
        raise NumericsError("zero-energy signal: relative energy gap undefined")
    return abs(e_f - e_o) / e_f
