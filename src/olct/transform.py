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
    Grid,
    SampledSignal,
    check_decay,
    energy,
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
    "default_xi_grid",
]

DET_TOL = 1e-12

# Half-width of the default output grid in units of |b| times the RMS
# angular bandwidth of the chirp-multiplied signal.
XI_SPAN_FACTOR = 40.0


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
    phase = (p.a / (2.0 * p.b)) * t**2 - (1.0 / p.b) * t * (xi - p.tau)
    phase = phase + _outer_phase(xi, p)
    return _root_factor(p.b) * np.exp(1j * phase)


def _fourier_sum(x: np.ndarray, x0: float, dx: float,
                 u0: float, du: float, m: int) -> np.ndarray:
    """sum_k x[k] * exp(-j u_j x_k) for x_k = x0 + k*dx, u_j = u0 + j*du.

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
    jc = np.arange(m) - m // 2
    theta = du * dx
    squares = np.arange(max(n, m)) ** 2
    chirp = np.exp(-0.5j * theta * squares)  # indexed by |l|
    y = x * np.exp(-1j * ((u0 + (m // 2) * du) * dx) * kc) * chirp[np.abs(kc)]
    # conj chirp at j' - k' for j - k = -(n-1)..m-1; the linear convolution
    # y * h holds output j at index j + n - 1
    h = np.conj(chirp[np.abs(np.arange(-(n - 1), m) + (n // 2 - m // 2))])
    nfft = sfft.next_fast_len(n + m - 1)
    conv = sfft.ifft(sfft.fft(y, nfft) * sfft.fft(h, nfft))[n - 1 : n - 1 + m]
    u = u0 + du * np.arange(m)
    return np.exp(-1j * u * (x0 + (n // 2) * dx)) * chirp[np.abs(jc)] * conv


def default_xi_grid(f: SampledSignal, params: OlctParams, xi_m: float = 0.0,
                    n: int | None = None) -> Grid:
    """Output grid wide enough that moment integrands decay at its edges.

    The half-width is ``XI_SPAN_FACTOR * |b|`` times the root-mean-square
    angular bandwidth of the chirp-multiplied signal, centered on tau and
    stretched by 2 |xi_m - tau| to keep the moment center well inside.  The
    grid has ``n`` points, by default as many as the input grid.  The
    bandwidth FFT zero-pads the input to a fast length, which leaves the
    RMS width of a signal that has decayed at the grid ends as it is.
    """
    if params.is_degenerate:
        raise ValueError("default output grid is only defined for b != 0")
    t = f.grid.points()
    g = f.values * np.exp(1j * params.chirp_rate * t * t)
    nfft = sfft.next_fast_len(f.grid.n)
    spec = np.abs(sfft.fft(g, nfft)) ** 2
    omega = 2.0 * np.pi * sfft.fftfreq(nfft, d=f.grid.dt)
    total = float(np.sum(spec))
    if total == 0.0:
        sigma = 1.0
    else:
        sigma = math.sqrt(float(np.sum(spec * omega**2)) / total)
        sigma = max(sigma, 1.0 / f.grid.length)
    half = (XI_SPAN_FACTOR * abs(params.b) * sigma
            + 2.0 * abs(xi_m - params.tau))
    n_out = f.grid.n if n is None else int(n)
    return make_grid(params.tau - half, params.tau + half, n_out)


def olct_forward(f: SampledSignal, params: OlctParams,
                 xi_grid: Grid | None = None, path: str = "chirp_fft") -> SampledSignal:
    """Forward transform of a sampled signal onto a uniform output grid.

    Parameters
    ----------
    f : SampledSignal
    params : OlctParams
        Requires ``b != 0``; b = 0 parameter sets are routed to
        :func:`olct_forward_b0`.
    xi_grid : Grid, optional
        Output grid; defaults to :func:`default_xi_grid`.
    path : {"chirp_fft", "direct"}
        ``chirp_fft`` factorizes the kernel into chirp multiplication, a
        Fourier-type integral at frequencies (xi - tau)/b evaluated with a
        Bluestein chirp transform, and an output phase; it needs the signal
        to decay at the grid edges.  ``direct`` evaluates the kernel
        quadrature densely and serves as the correctness reference.

    Both paths apply the same composite-Simpson quadrature weights, so they
    agree to rounding error for decaying inputs.
    """
    if params.is_degenerate:
        return olct_forward_b0(f, params, xi_grid)
    if xi_grid is None:
        xi_grid = default_xi_grid(f, params)
    p = params
    t = f.grid.points()
    xi = xi_grid.points()
    w = quadrature_weights(f.grid.n, f.grid.dt)

    if path == "chirp_fft":
        check_decay(f.values, "the input of the chirp_fft path")
        g = w * f.values * np.exp(1j * p.chirp_rate * t * t)
        u0 = (xi_grid.t_min - p.tau) / p.b
        du = xi_grid.dt / p.b
        inner = _fourier_sum(g, f.grid.t_min, f.grid.dt, u0, du, xi_grid.n)
        out = _root_factor(p.b) * np.exp(1j * _outer_phase(xi, p)) * inner
        return SampledSignal(xi_grid, out)

    if path == "direct":
        out = np.empty(xi_grid.n, dtype=np.complex128)
        weighted = w * f.values
        chunk = max(1, 2**22 // f.grid.n)
        for lo in range(0, xi_grid.n, chunk):
            block = xi[lo : lo + chunk, None]
            kern = olct_kernel(t[None, :], block, p)
            out[lo : lo + chunk] = kern @ weighted
        return SampledSignal(xi_grid, out)

    raise ValueError(f"unknown forward path {path!r}")


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
    return SampledSignal(xi_grid, math.sqrt(p.d) * np.exp(1j * phase) * vals)


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
    h = w * spectrum.values * np.exp(-1j * _outer_phase(xi, p))
    # sum_m h_m exp(+j t (xi_m - tau)/b), evaluated as a conjugated Bluestein sum
    u0 = t_grid.t_min / p.b
    du = t_grid.dt / p.b
    inner = np.conj(_fourier_sum(np.conj(h), spectrum.grid.t_min,
                                 spectrum.grid.dt, u0, du, t_grid.n))
    inner = inner * np.exp(-1j * t * p.tau / p.b)
    out = np.conj(_root_factor(p.b)) * np.exp(-1j * p.chirp_rate * t * t) * inner
    return SampledSignal(t_grid, out)


def parseval_gap(f: SampledSignal, spectrum: SampledSignal) -> float:
    """Relative energy mismatch |E_f - E_O| / E_f between a signal and its
    transform; zero for an exactly unitary pair."""
    e_f = energy(f)
    e_o = energy(spectrum)
    if not (np.isfinite(e_f) and np.isfinite(e_o)):
        raise ValueError("energies must be finite")
    if e_f <= 0.0:
        raise NumericsError("zero-energy signal: relative energy gap undefined")
    return abs(e_f - e_o) / e_f
