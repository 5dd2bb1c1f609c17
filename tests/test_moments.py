import math

import numpy as np
import pytest

import olct
from olct import moments, signals
from olct.errors import NumericsError

from conftest import (DECAY_PHRASE, DEFAULT_GRID, EXAMPLE_PARAMS,
                      chirp_demodulate, completed_params, ft_eq3, rquad,
                      trapezoid_weights)


@pytest.fixture(scope="module")
def gauss(grid):
    return olct.SampledSignal(grid, np.exp(-grid.points() ** 2))


def abs_moment(s, p, center):
    """:func:`moments.abs_moment_p` of the signal s about ``center``."""
    return moments.abs_moment_p(s.grid, np.abs(s.grid.points() - center),
                                np.abs(s.values) ** 2, p)


# ---------------------------------------------------------------------------
# time moments


def test_time_moment_order_zero_is_energy(gauss):
    unit = olct.unit_weight()
    abs_gauss = signals.abs_energy(gauss)
    assert moments.time_moment_2p(abs_gauss, 0, 0.0, unit) == pytest.approx(
        abs_gauss.energy, rel=1e-14)


def test_time_moment_gaussian(gauss):
    val = moments.time_moment_2p(signals.abs_energy(gauss), 1, 0.0,
                                 olct.unit_weight())
    assert val == pytest.approx(0.25 * math.sqrt(math.pi / 2.0), rel=1e-10)


def test_time_moment_weighted_chirp(example_signal):
    # oracle: brute-force quadrature of exp(-4t) t^2 exp(-2 t^2)
    val = moments.time_moment_2p(signals.abs_energy(example_signal), 1, 0.0,
                                 olct.exp_weight(2.0))
    oracle = rquad(lambda t: t * t * np.exp(-4 * t - 2 * t * t), -30, 30)
    assert val == pytest.approx(oracle, rel=1e-10)
    assert val == pytest.approx(11.57601058775888, rel=1e-12)


def test_time_moment_weight_overflowing_where_signal_vanishes():
    # exp(-20 t) overflows at t = -40 where |f|^2 = exp(-2 t^2) underflows;
    # the integrand e^50 t^2 exp(-2 (t + 5)^2) is finite throughout
    f = olct.gaussian_chirp(2.0, 0.0).sample(olct.make_grid(-40.0, 40.0, 16385))
    val = moments.time_moment_2p(signals.abs_energy(f), 1, 0.0,
                                 olct.exp_weight(10.0))
    exact = math.exp(50.0) * math.sqrt(math.pi / 2.0) * (25.0 + 0.25)
    assert exact == pytest.approx(1.6407613460409926e23, rel=1e-15)
    assert val == pytest.approx(exact, rel=1e-12)


def test_time_moment_nonnegative_and_zero_iff_zero(gauss, grid):
    unit = olct.unit_weight()
    assert moments.time_moment_2p(signals.abs_energy(gauss), 2, 0.3,
                                  unit) > 0.0
    zero = olct.SampledSignal(grid, np.zeros(grid.n))
    assert moments.time_moment_2p(signals.abs_energy(zero), 2, 0.3,
                                  unit) == 0.0


def test_time_moment_coverage_failure(grid):
    wide = olct.SampledSignal(grid, np.exp(-0.01 * grid.points() ** 2))
    with pytest.raises(NumericsError, match=DECAY_PHRASE):
        moments.time_moment_2p(signals.abs_energy(wide), 2, 0.0,
                               olct.unit_weight())


def test_time_moment_validation(gauss):
    unit = olct.unit_weight()
    abs_gauss = signals.abs_energy(gauss)
    with pytest.raises(ValueError):
        moments.time_moment_2p(abs_gauss, 5, 0.0, unit)
    with pytest.raises(ValueError):
        moments.time_moment_2p(abs_gauss, -1, 0.0, unit)
    with pytest.raises(ValueError):
        moments.time_moment_2p(abs_gauss, 1.5, 0.0, unit)
    with pytest.raises(ValueError):
        moments.time_moment_2p(abs_gauss, 1, np.inf, unit)


# ---------------------------------------------------------------------------
# spectral moments


def test_spectral_moment_order_zero_is_energy(example_signal, example_params):
    spec = olct.olct_forward(example_signal, example_params)
    assert moments.spectral_moment_2p(spec, 0, 0.0) == pytest.approx(
        signals.abs_energy(spec).energy, rel=1e-14)


def test_spectral_moment_example_value(example_signal, example_params):
    # demodulated signal is the pure Gaussian exp(-t^2); the identity gives
    # b^2 * ||g'||^2 = b^2 * sqrt(pi/2), cross-checked by direct quadrature
    spec = olct.olct_forward(example_signal, example_params)
    val = moments.spectral_moment_2p(spec, 1, 0.0)
    closed = 0.05**2 * math.sqrt(math.pi / 2.0)
    assert val == pytest.approx(closed, rel=1e-6)
    oracle = 0.05**2 * rquad(lambda t: 4 * t * t * np.exp(-2 * t * t))
    assert val == pytest.approx(oracle, rel=1e-6)


def test_spectral_moment_scaling(example_signal, example_params):
    spec = olct.olct_forward(example_signal, example_params)
    doubled = spec.with_values(2.0 * spec.values)
    assert moments.spectral_moment_2p(doubled, 1, 0.0) == pytest.approx(
        4.0 * moments.spectral_moment_2p(spec, 1, 0.0), rel=1e-12)


def test_spectral_moment_bridges_to_cycles_convention(grid):
    # with the Fourier parameter set, the 2p-th moment equals (2 pi)^(2p)
    # times the moment of the cycles-convention transform at sigma_m =
    # xi_m / (2 pi); the reference side is dense independent quadrature
    f = olct.gaussian_chirp(2.0, 0.0).sample(grid)
    ft = olct.ft_params()
    xi_m = 0.5
    spec = olct.olct_forward(f, ft, olct.default_xi_grid(f, ft, xi_m=xi_m))
    mu_olct = moments.spectral_moment_2p(spec, 2, xi_m)
    sigma_m = xi_m / (2.0 * math.pi)
    sigma = np.linspace(-3.0, 3.0, 2049)
    fhat = ft_eq3(f, sigma)
    w_s = trapezoid_weights(2049, sigma[1] - sigma[0])
    mu_ft = float(np.sum(w_s * (sigma - sigma_m) ** 4 * np.abs(fhat) ** 2))
    assert mu_olct == pytest.approx((2.0 * math.pi) ** 4 * mu_ft, rel=1e-6)


# ---------------------------------------------------------------------------
# absolute moments


def test_abs_moment_p2_equals_second_moment(gauss):
    assert abs_moment(gauss, 2, 0.0) == pytest.approx(
        moments.time_moment_2p(signals.abs_energy(gauss), 1, 0.0,
                               olct.unit_weight()), rel=1e-14)


def test_abs_moment_p3_gaussian(gauss):
    val = abs_moment(gauss, 3, 0.0)
    oracle = rquad(lambda t: abs(t) ** 3 * np.exp(-2 * t * t))
    assert val == pytest.approx(oracle, rel=1e-10)
    assert val == pytest.approx(0.25, rel=1e-10)


def test_abs_moment_zero_signal(grid):
    zero = olct.SampledSignal(grid, np.zeros(grid.n))
    assert abs_moment(zero, 3, 0.0) == 0.0


def test_abs_moment_rejects_low_order(gauss):
    with pytest.raises(ValueError, match="order 1 < 2"):
        abs_moment(gauss, 1, 0.0)


def test_abs_moment_minimized_near_centroid(grid):
    # shifted Gaussian: the center scan should bottom out by the centroid
    t = grid.points()
    f = olct.SampledSignal(grid, np.exp(-((t - 1.0) ** 2)))
    for p in (2, 3):
        centers = np.arange(0.0, 2.0, grid.dt)
        vals = [abs_moment(f, p, c) for c in centers]
        best = centers[int(np.argmin(vals))]
        assert abs(best - 1.0) <= 2.0 * grid.dt


# ---------------------------------------------------------------------------
# chirp demodulation


def test_demodulation_cancels_matched_chirp(example_signal, example_params):
    g_b = chirp_demodulate(example_signal, example_params, xi_m=0.0)
    assert np.max(np.abs(g_b.values.imag)) <= 1e-12
    expected = np.exp(-DEFAULT_GRID.points() ** 2)
    assert np.max(np.abs(g_b.values.real - expected)) <= 1e-12


def test_demodulation_preserves_magnitude(example_signal):
    rng = np.random.default_rng(5)
    for params in (EXAMPLE_PARAMS, completed_params(6.0, 0.5, tau=1.0),
                   olct.ft_params()):
        xi_m = float(rng.uniform(-2, 2))
        g_b = chirp_demodulate(example_signal, params, xi_m)
        assert np.max(np.abs(np.abs(g_b.values) - np.abs(example_signal.values))) <= 1e-12


def test_time_moment_chirp_invariance(example_signal, example_params):
    w = olct.exp_weight(2.0)
    g_b = chirp_demodulate(example_signal, example_params, xi_m=0.5)
    m_f = moments.time_moment_2p(signals.abs_energy(example_signal), 1, 0.0, w)
    m_g = moments.time_moment_2p(signals.abs_energy(g_b), 1, 0.0, w)
    assert abs(m_f - m_g) <= 1e-12 * m_f


# ---------------------------------------------------------------------------
# the spectral-moment identity


def test_ppr_order_zero_reduces_to_energy(example_signal, example_params):
    res = olct.ppr_check(example_signal, example_params, 0)
    assert res.rel_gap <= 1e-6
    assert res.lhs == pytest.approx(signals.abs_energy(example_signal).energy,
                                    rel=1e-6)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("r", [1.0, 2.0, 10.0])
def test_ppr_gaussian_family_example_params(p, r):
    f = olct.gaussian_chirp(r, EXAMPLE_PARAMS.chirp_rate).sample(DEFAULT_GRID)
    res = olct.ppr_check(f, EXAMPLE_PARAMS, p)
    assert res.rel_gap <= 1e-4


def test_ppr_minimizer_closed_form(example_params):
    # the minimizer demodulates to a centered Gaussian
    # c0 exp(-c_p t^2), whose derivative norm is known in closed form
    c_p = 1.0
    f = olct.minimizer_signal(1.0, c_p, 0.0, 0.0, example_params).sample(DEFAULT_GRID)
    res = olct.ppr_check(f, example_params, 1, xi_m=0.0)
    closed = example_params.b**2 * rquad(
        lambda t: (2 * c_p * t) ** 2 * np.exp(-2 * c_p * t * t))
    assert res.rhs == pytest.approx(closed, rel=1e-8)
    assert res.rel_gap <= 1e-4


def test_ppr_negative_b_observed():
    # even powers of b make the identity insensitive to its sign; record the
    # observed gap rather than assuming it
    params = olct.OlctParams(0.6, -0.05, 0.5, (1.0 - 0.05 * 0.5) / 0.6)
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(DEFAULT_GRID)
    gaps = [olct.ppr_check(f, params, p).rel_gap for p in (0, 1, 2)]
    print(f"negative-b identity gaps: {gaps}")
    assert all(np.isfinite(g) for g in gaps)
    assert max(gaps) < 0.5


def test_ppr_rejects_degenerate(example_signal):
    with pytest.raises(ValueError, match="b != 0"):
        olct.ppr_check(example_signal, olct.OlctParams(2.0, 0.0, 0.0, 0.5), 1)


def test_ppr_rejects_bad_order(example_signal, example_params):
    with pytest.raises(ValueError):
        olct.ppr_check(example_signal, example_params, 5)
