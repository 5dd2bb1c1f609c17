"""The six-parameter offset chirp transform: parameter algebra, kernel,
forward transform (direct quadrature and a fast chirp-factorized path),
inverse via the unitary adjoint, and an energy-conservation check.

Parameters (a, b, c, d | tau, eta) act on a signal f as

    O(xi) = integral f(t) K(t, xi) dt                       (b != 0)
    O(xi) = sqrt(d) exp(j[c d (xi-tau)^2/2 + xi eta]) f(d (xi-tau))   (b == 0)

with the unimodular-up-to-scale kernel

    K(t, xi) = (1/sqrt(j 2 pi b)) exp(j [ a/(2b) t^2 - t (xi-tau)/b
               - xi (d tau - b eta)/b + d/(2b) (xi^2 + tau^2) ]).

The b = 0 branch maps the input grid onto its output grid, xi = tau + t/d,
so each output sample is the image of one input sample; it takes no output
grid.

Square roots of complex numbers are always the principal branch, so
sqrt(j) = exp(j pi/4) and, for b < 0, sqrt(j 2 pi b) has argument -pi/4.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError
from .signals import (
    MAX_HALF_ORDER,
    MIN_GRID_POINTS,
    Grid,
    SampledSignal,
    abs_energy,
    check_decay,
    cis,
    fourier_derivatives,
    kept_bins,
    make_grid,
    next_fast_len,
    trapezoid_samples,
)

__all__ = [
    "OlctParams",
    "ft_params",
    "olct_kernel",
    "BinSpectrum",
    "bin_spectrum",
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

    It serves the grids the bins of :func:`bin_spectrum` do not: explicit
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
    nfft = next_fast_len(n + m - 1)
    spec = np.fft.fft(y, nfft)
    spec *= np.fft.fft(h, nfft)
    conv = np.fft.ifft(spec, out=spec)[n - 1 : n - 1 + m]
    u = u0 + du * np.arange(m)
    return (cis(-u * (x0 + (n // 2) * dx)) * _mirrored(chirp, -(m // 2), m - m // 2)
            * conv)


class BinSpectrum(NamedTuple):
    """The one FFT of a report, from :func:`bin_spectrum`: its bins give the
    default output grid, the transform on that grid and every derivative of
    the demodulated input that the report reads.

    The output is O(xi) ~ G(u) at u = (xi - tau)/b, where G is the Fourier
    transform of the chirp-multiplied input g = exp(j a/(2b) t^2) f.  g sits
    on the centered indices k' = k - n//2 of an array of
    M = ``next_fast_len(n)`` points, so bin j of its FFT ``spec`` is
    G_j = sum_k g_k exp(-j u_j k' dt) at u_j = j du, du = 2 pi/(M dt).
    """

    f: SampledSignal      # the input
    params: OlctParams
    xi_m: float           # centre of the moment integrands
    g: SampledSignal      # exp(j a/(2b) t^2) f
    spec: np.ndarray      # the M-point FFT of the centred g
    kept: np.ndarray      # kept_bins(spec): the bins read
    signed: np.ndarray    # and their signed indices
    grid: Grid            # the default output grid
    order: np.ndarray     # its bins j in grid order (descending for b < 0)

    def derivatives(self, orders) -> dict:
        """``{k: (d/dt - j beta)^k g}`` at the input samples for every order
        k >= 1, beta = (xi_m - tau)/b, read off the bins
        (:func:`~olct.signals.fourier_derivatives`).

        exp(-j beta t) g is the demodulated input g_b, so each is
        exp(j beta t) g_b^(k), with the magnitude of g_b^(k).
        """
        beta = (self.xi_m - self.params.tau) / self.params.b
        n = self.f.grid.n
        return fourier_derivatives(self.spec, self.kept, self.signed,
                                   self.f.grid.dt, n, orders, beta, n // 2)

    def check_source(self, f: SampledSignal, params: OlctParams,
                     xi_m: float) -> None:
        """Raise ``ValueError`` unless these are the bins of f under params
        centred at xi_m."""
        if self.f is not f or self.params != params or self.xi_m != xi_m:
            raise ValueError("the bins belong to another input, parameter "
                             "set or moment centre")


def bin_spectrum(f: SampledSignal, params: OlctParams,
                 xi_m: float = 0.0) -> BinSpectrum:
    """The :class:`BinSpectrum` of f under params: one FFT of the
    chirp-multiplied input, and the default output grid read off its bins.

    The input must decay at the grid edges (:func:`check_decay`).  Only the
    bins that :func:`~olct.signals.kept_bins` keeps above the rounding-noise
    floor are read.  The grid spans the outermost bins where
    |G|^2 |u - u_m|^(2k), u_m = (xi_m - tau)/b, reaches ``SPAN_TOL`` of its
    own maximum for some k = 0..``MAX_HALF_ORDER``, so every moment
    integrand has decayed at its edges and the span stays inside the band
    |u| <= pi/dt; it is widened to an odd count of at least
    ``MIN_GRID_POINTS`` + 1 bins.  Its spacing is du = 2 pi/(M dt), less
    than 2 pi/L for L = (n - 1) dt the length of the input grid, since
    M >= n; :func:`default_xi_grid` gives the reason it suffices.
    """
    if params.is_degenerate:
        raise ValueError("default output grid is only defined for b != 0")
    check_decay(f.values, "the input of the chirp_fft path")
    n, dt = f.grid.n, f.grid.dt
    t = f.grid.points()
    g = f.values * cis(params.chirp_rate * t * t)
    size = next_fast_len(n)
    spec = np.zeros(size, dtype=np.complex128)
    spec[: n - n // 2] = g[n // 2 :]
    spec[size - n // 2 :] = g[: n // 2]
    np.fft.fft(spec, out=spec)
    du = 2.0 * np.pi / (size * dt)
    kept, bins = kept_bins(spec)
    power = np.abs(spec[kept]) ** 2
    dist2 = (bins * du - (xi_m - params.tau) / params.b) ** 2
    covered = np.zeros(bins.size, dtype=bool)
    for _ in range(MAX_HALF_ORDER + 1):
        covered |= power >= SPAN_TOL * np.max(power)
        power = power * dist2
    lo, hi = int(np.min(bins[covered])), int(np.max(bins[covered]))
    hi += (hi - lo) % 2
    pad = max(0, MIN_GRID_POINTS // 2 - (hi - lo) // 2)
    lo, hi = lo - pad, hi + pad
    grid = make_grid(*sorted((params.tau + params.b * (lo * du),
                              params.tau + params.b * (hi * du))),
                     hi - lo + 1)
    order = np.arange(lo, hi + 1) if params.b > 0 else np.arange(hi, lo - 1, -1)
    return BinSpectrum(f, params, xi_m, f.with_values(g), spec, kept, bins,
                       grid, order)


def _forward_on_bins(bins: BinSpectrum) -> SampledSignal:
    """The chirp_fft transform on the default output grid, read off the bins
    of the :class:`BinSpectrum`.

    The trapezoid weights are dt except at the two end samples, where they
    are dt/2, so the weighted sum at bin j is dt G_j less dt/2 times the
    terms of those two samples.  The centre phase exp(-j u t_c), t_c the
    middle sample, and the outer phase complete the kernel; both are taken
    at the grid points, which sit within a few ulp of tau + b u_j, as the
    other paths take them.
    """
    params, f, g, spec = bins.params, bins.f, bins.g.values, bins.spec
    n, dt = f.grid.n, f.grid.dt
    size = spec.size
    inner = dt * spec[bins.order % size]
    ends = np.array([0, n - 1])
    turns = np.outer(bins.order, ends - n // 2) % size
    inner += cis((-2.0 * np.pi / size) * turns) @ ((-dt / 2.0) * g[ends])
    xi = bins.grid.points()
    t_c = f.grid.t_min + (n // 2) * dt
    out = (_root_factor(params.b) * cis(_outer_phase(xi, params))
           * cis(-((xi - params.tau) / params.b) * t_c) * inner)
    return SampledSignal(bins.grid, out)


def default_xi_grid(f: SampledSignal, params: OlctParams, xi_m: float = 0.0,
                    n: int | None = None) -> Grid:
    """Output grid that covers the spectrum's moment integrands and samples
    them finely enough for the quadrature: the bins of one zero-padded FFT
    of the chirp-multiplied input, spaced du = 2 pi/(M dt) < 2 pi/L in
    u = (xi - tau)/b (d xi < 2 |b| pi/L), as :func:`bin_spectrum`
    describes.  It is the grid :func:`olct_forward` uses when given no grid.

    By Poisson summation, a trapezoid sum over such a grid of |G|^2 times a
    polynomial differs from the integral by aliases of the autocorrelation
    of g at lags that are multiples of 2 pi/du = M dt > L.  That
    autocorrelation vanishes beyond lags of L, so every alias vanishes,
    whatever the spectrum's shape.  For the same reason the images of the
    inverse transform, M dt apart, stay off the input grid.  ``n``
    overrides the count on the same span; a transform on that grid runs the
    Bluestein sum.
    """
    grid = bin_spectrum(f, params, xi_m).grid
    return grid if n is None else make_grid(grid.t_min, grid.t_max, n)


def olct_forward(f: SampledSignal, params: OlctParams,
                 xi_grid: Grid | None = None, path: str = "chirp_fft",
                 xi_m: float = 0.0,
                 bins: BinSpectrum | None = None) -> SampledSignal:
    """Forward transform of a sampled signal onto a uniform output grid.

    Parameters
    ----------
    f : SampledSignal
    params : OlctParams
        b = 0 parameter sets are routed to :func:`olct_forward_b0`, which
        maps the input grid and takes no ``xi_grid`` and no ``xi_m``.
    xi_grid : Grid, optional
        Output grid; defaults to :func:`default_xi_grid` centred at
        ``xi_m``, which spans the input's spectrum (not the input grid) with
        its own point count.  It must be omitted for b = 0.
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
        :func:`default_xi_grid`; only meaningful without ``xi_grid`` and
        with b != 0 (a nonzero value is an error otherwise).
    bins : BinSpectrum, optional
        ``bin_spectrum(f, params, xi_m)``, for a caller that reads more
        off the same FFT: the chirp_fft transform on the default grid is
        read off these bins instead of a new FFT, with the same values.

    Both paths apply the same trapezoid quadrature weights, so they agree
    to rounding error for decaying inputs.
    """
    if xi_grid is not None and xi_m != 0.0:
        raise ValueError("xi_m centres the default output grid; it cannot "
                         "be combined with an explicit xi_grid")
    if path not in ("chirp_fft", "direct"):
        raise ValueError(f"unknown forward path {path!r}")
    if bins is not None:
        if xi_grid is not None or path != "chirp_fft":
            raise ValueError("bins serve only the chirp_fft path on the "
                             "default output grid")
        bins.check_source(f, params, xi_m)
    if params.is_degenerate:
        if xi_grid is not None or xi_m != 0.0:
            raise ValueError("the b = 0 branch maps the input grid onto its "
                             "output grid and takes no explicit xi_grid "
                             "or xi_m")
        return olct_forward_b0(f, params)
    p = params
    t = f.grid.points()

    if path == "chirp_fft":
        if xi_grid is None:
            return _forward_on_bins(
                bin_spectrum(f, p, xi_m) if bins is None else bins)
        check_decay(f.values, "the input of the chirp_fft path")
        g = trapezoid_samples(f.grid, f.values) * cis(p.chirp_rate * t * t)
        u0 = (xi_grid.t_min - p.tau) / p.b
        du = xi_grid.dt / p.b
        inner = _fourier_sum(g, f.grid.t_min, f.grid.dt, u0, du, xi_grid.n)
        out = _root_factor(p.b) * cis(_outer_phase(xi_grid.points(), p)) * inner
        return SampledSignal(xi_grid, out)

    if xi_grid is None:
        xi_grid = default_xi_grid(f, p, xi_m)
    xi = xi_grid.points()
    out = np.empty(xi_grid.n, dtype=np.complex128)
    weighted = trapezoid_samples(f.grid, f.values)
    chunk = max(1, 2**22 // f.grid.n)
    for lo in range(0, xi_grid.n, chunk):
        block = xi[lo : lo + chunk, None]
        kern = olct_kernel(t[None, :], block, p)
        out[lo : lo + chunk] = kern @ weighted
    return SampledSignal(xi_grid, out)


def olct_forward_b0(f: SampledSignal, params: OlctParams) -> SampledSignal:
    """Degenerate branch (b = 0): scaled, chirped copy of the input.

    The output grid is the input grid mapped by xi = tau + t/d, which
    carries each input sample f(t_k) to its image, so the branch reads the
    samples and takes no output grid of its own.  Only d > 0 is supported
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
    xi_grid = make_grid(p.tau + f.grid.t_min / p.d,
                        p.tau + f.grid.t_max / p.d, f.grid.n)
    xi = xi_grid.points()
    phase = p.c * p.d * (xi - p.tau) ** 2 / 2.0 + xi * p.eta
    return SampledSignal(xi_grid, math.sqrt(p.d) * cis(phase) * f.values)


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
    h = (trapezoid_samples(spectrum.grid, spectrum.values)
         * cis(-_outer_phase(xi, p)))
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
