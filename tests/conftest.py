"""Shared fixtures and independent reference implementations.

The reference code here deliberately avoids the library's quadrature,
differentiation and transform paths: expected values come from
``scipy.integrate.quad`` on closed-form integrands and from dense Fourier
sums, so the tests check the package against genuinely independent numerics.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import olct

DEFAULT_GRID = olct.make_grid(-8.0, 8.0, 4097)

# The message every truncation-guard failure carries.
DECAY_PHRASE = "does not decay at the grid edges"

# The published chirped-Gaussian scenario parameter set.  Its 2x2 block has
# determinant 0.215, not 1; for b != 0 nothing downstream depends on c or d,
# so it is accepted through the non-strict constructor.
EXAMPLE_PARAMS = olct.OlctParams(0.6, 0.05, 0.5, 0.4, 0.0, 1.0, strict=False)


def completed_params(a, b, tau=0.0, eta=0.0):
    """Parameter set with the (c, d) pair solved from a*d - b*c = 1."""
    if a != 0.0:
        c = 0.5
        d = (1.0 + b * c) / a
    else:
        c = -1.0 / b
        d = 0.4
    return olct.OlctParams(a, b, c, d, tau, eta)


def params_matrix(taus=(0.0, 1.0), etas=(0.0, 1.0)):
    """The (a, b, tau, eta) test matrix with completed (c, d)."""
    out = []
    for b in (0.05, 0.5, 1.0):
        for a in (0.0, 0.6, 6.0):
            for tau in taus:
                for eta in etas:
                    out.append(completed_params(a, b, tau, eta))
    return out


def cquad(fn, lo=-np.inf, hi=np.inf):
    """Brute-force complex quadrature oracle."""
    re = quad(lambda t: np.real(fn(t)), lo, hi, limit=400)[0]
    im = quad(lambda t: np.imag(fn(t)), lo, hi, limit=400)[0]
    return re + 1j * im


def rquad(fn, lo=-np.inf, hi=np.inf):
    """Brute-force real quadrature oracle."""
    return quad(fn, lo, hi, limit=400)[0]


def trapezoid_weights(n: int, dt: float) -> np.ndarray:
    """Trapezoid weights for n uniform samples, built here so that a test
    oracle does not run through the library's quadrature: dt at every
    sample and dt/2 at both ends."""
    w = np.full(n, float(dt))
    w[0] = w[-1] = dt / 2.0
    return w


def ft_eq3(f: olct.SampledSignal, sigma: np.ndarray) -> np.ndarray:
    """Reference Fourier transform in the cycles convention,
    fhat(sigma) = integral f(t) exp(-2j pi sigma t) dt, by dense quadrature."""
    t = f.grid.points()
    w = trapezoid_weights(f.grid.n, f.grid.dt)
    kernel = np.exp(-2j * np.pi * np.asarray(sigma)[:, None] * t[None, :])
    return kernel @ (w * f.values)


@pytest.fixture(scope="session")
def grid():
    return DEFAULT_GRID


@pytest.fixture(scope="session")
def example_params():
    return EXAMPLE_PARAMS


@pytest.fixture(scope="session")
def example_signal():
    """r = 2 chirped Gaussian matched to the example parameter set."""
    return olct.gaussian_chirp(2.0, EXAMPLE_PARAMS.chirp_rate).sample(DEFAULT_GRID)
