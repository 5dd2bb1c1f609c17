import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olct
from olct import moments, signals
from olct.errors import NumericsError

from conftest import DECAY_PHRASE


# ---------------------------------------------------------------------------
# grids


def test_make_grid_spacing():
    g = olct.make_grid(-8, 8, 4097)
    assert g.dt == 16.0 / 4096.0 == 0.00390625
    pts = g.points()
    assert pts[0] == -8.0 and pts[-1] == 8.0
    steps = np.diff(pts)
    assert np.max(np.abs(steps - g.dt)) <= 4 * np.finfo(float).eps * abs(g.dt)


def test_make_grid_rejects_small():
    with pytest.raises(ValueError, match="too small"):
        olct.make_grid(0, 1, 15)
    with pytest.raises(ValueError):
        olct.make_grid(-8, 8, 2)


def test_make_grid_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        olct.make_grid(np.nan, 1, 32)
    with pytest.raises(ValueError):
        olct.make_grid(1, 1, 32)


def test_sampled_signal_validation():
    g = olct.make_grid(0, 1, 16)
    with pytest.raises(ValueError, match="length"):
        olct.SampledSignal(g, np.zeros(17))
    with pytest.raises(ValueError, match="finite"):
        olct.SampledSignal(g, np.full(16, np.nan))


# ---------------------------------------------------------------------------
# signal families


def test_gaussian_chirp_values():
    f = olct.gaussian_chirp(2.0, 6.0)
    assert f(0.0) == pytest.approx(1.0 + 0.0j, abs=0)
    t = np.linspace(-3, 3, 41)
    expected = np.exp(-t**2) * np.exp(-6j * t**2)
    assert np.max(np.abs(f(t) - expected)) < 1e-15
    assert abs(f(1.0)) ** 2 == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_gaussian_chirp_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        olct.gaussian_chirp(0.0, 1.0)
    with pytest.raises(ValueError):
        olct.gaussian_chirp(-2.0, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_analytic_derivatives_match_finite_differences(k):
    # supplied derivatives must agree with numerical differentiation of eval
    f = olct.gaussian_chirp(2.0, 1.5)
    t = np.linspace(-2.0, 2.0, 9)
    h = 1e-3
    stencil = f(t[:, None] + h * np.arange(-4, 5)[None, :])
    # central difference of order k via iterated first differences
    vals = stencil
    for _ in range(k):
        vals = (vals[:, 2:] - vals[:, :-2]) / (2 * h)
    approx = vals[:, vals.shape[1] // 2]
    exact = f.deriv(k)(t)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(approx - exact)) < 1e-4 * scale


def test_exp_weight_values():
    w = olct.exp_weight(2.0)
    assert w(0.0) == pytest.approx(1.0)
    assert w.deriv(1)(0.0) == pytest.approx(-2.0)
    assert olct.exp_weight(10.0)(0.1) == pytest.approx(math.exp(-1.0), rel=1e-14)
    t = np.linspace(-1, 1, 7)
    for k in range(5):
        assert np.allclose(w.deriv(k)(t), (-2.0) ** k * np.exp(-2.0 * t), rtol=1e-14)


def test_exp_weight_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        olct.exp_weight(0.0)
    with pytest.raises(ValueError):
        olct.exp_weight(-1.0)


def test_unit_weight():
    w = olct.unit_weight()
    t = np.linspace(-4, 4, 11)
    assert np.all(w(t) == 1.0)
    assert np.all(w.deriv(3)(t) == 0.0)


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_gaussian(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    val = signals.integrate(s).real
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_integrate_zero(grid):
    s = olct.SampledSignal(grid, np.zeros(grid.n))
    assert signals.integrate(s) == 0.0


@pytest.mark.parametrize("n", [4097, 4098])
def test_quadrature_weights_cached_bit_identical(n):
    # one array per (n, dt), shared by every caller, equal to a fresh build
    dt = 16.0 / (n - 1)
    w = signals.quadrature_weights(n, dt)
    assert signals.quadrature_weights(n, dt) is w
    assert w.tobytes() == signals._simpson_weights(n, dt).tobytes()
    assert signals.quadrature_weights.cache_info().maxsize == 8


def test_quadrature_weights_reject_writes():
    w = signals.quadrature_weights(257, 0.0625)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    assert w[0] == 0.0625 / 3.0


def test_integrate_odd_integrand(grid):
    t = grid.points()
    s = olct.SampledSignal(grid, t * np.exp(-(t**2)))
    assert abs(signals.integrate(s)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
    n=st.integers(16, 200),
    t0=st.floats(-5, 2),
    width=st.floats(0.5, 8),
)
def test_integrate_exact_for_cubics(coeffs, n, t0, width):
    g = olct.make_grid(t0, t0 + width, n)
    t = g.points()
    c0, c1, c2, c3 = coeffs
    s = olct.SampledSignal(g, c0 + c1 * t + c2 * t**2 + c3 * t**3)
    lo, hi = g.t_min, g.t_max
    exact = sum(
        c / (k + 1) * (hi ** (k + 1) - lo ** (k + 1))
        for k, c in enumerate(coeffs)
    )
    scale = max(abs(exact), 1.0)
    assert abs(signals.integrate(s).real - exact) <= 1e-12 * scale


def test_integrate_conjugate_symmetry(grid):
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    s = olct.SampledSignal(grid, vals)
    conj = s.with_values(np.conj(vals))
    assert signals.integrate(conj) == np.conj(signals.integrate(s))


def test_integrate_linearity(grid):
    rng = np.random.default_rng(11)
    v1 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    v2 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    s = olct.SampledSignal(grid, a * v1 + b * v2)
    combined = (a * signals.integrate(olct.SampledSignal(grid, v1))
                + b * signals.integrate(olct.SampledSignal(grid, v2)))
    assert abs(signals.integrate(s) - combined) <= 1e-12 * max(abs(combined), 1.0)


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_gaussian_at_stationary_point(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    d = signals.derivative(s, [1])[1]
    i0 = np.argmin(np.abs(grid.points()))
    assert abs(d.values[i0]) < 1e-8


def test_derivative_gaussian_value(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    d = signals.derivative(s, [1])[1]
    i1 = np.argmin(np.abs(grid.points() - 1.0))
    assert d.values[i1].real == pytest.approx(-2.0 * math.exp(-1.0), abs=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("family", [(1.0, 0.0), (2.0, 6.0), (10.0, 0.3)])
def test_spectral_derivative_matches_analytic(k, family, grid):
    r, chirp = family
    f = olct.gaussian_chirp(r, chirp)
    sampled = f.sample(grid)
    numeric = signals.derivative(sampled, [k])[k].values
    exact = f.deriv(k)(grid.points())
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(numeric - exact)) <= 1e-6 * scale


@pytest.mark.parametrize("k, tol", [(1, 4e-12), (2, 3e-11), (4, 5e-10)])
def test_spectral_derivative_digits_at_fast_length(k, tol):
    # 65537 is prime; the derivative runs at next_fast_len(65537) = 65610
    grid = olct.make_grid(-8.0, 8.0, 65537)
    f = olct.gaussian_chirp(2.0, 3.0)
    numeric = signals.derivative(f.sample(grid), [k])[k].values
    exact = f.deriv(k)(grid.points())
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(numeric - exact)) <= tol * scale


def test_derivative_orders_share_one_spectrum(grid):
    # several orders from one call carry the same bits as one call per order
    s = olct.gaussian_chirp(2.0, 3.0).sample(grid)
    together = signals.derivative(s, [1, 2, 4])
    assert list(together) == [1, 2, 4]
    for k, d in together.items():
        assert np.array_equal(d.values, signals.derivative(s, [k])[k].values)


def test_spectral_derivative_rejects_nondecaying(grid):
    s = olct.SampledSignal(grid, np.ones(grid.n))
    with pytest.raises(NumericsError, match=DECAY_PHRASE):
        signals.derivative(s, [1])


# ---------------------------------------------------------------------------
# truncation guard


# the default tolerance (signals, bound integrands) and the one the moment
# functions pass
@pytest.mark.parametrize("tol, kwargs", [
    (1e-8, {}), (1e-10, {"tol": moments.COVERAGE_TOL})])
def test_check_decay_boundary(tol, kwargs):
    def ramp(edge_ratio):
        return np.array([edge_ratio, 0.5, 1.0, 0.5, -edge_ratio])

    signals.check_decay(ramp(tol / 2), "x", **kwargs)
    with pytest.raises(NumericsError, match=DECAY_PHRASE) as info:
        signals.check_decay(ramp(2 * tol), "x", **kwargs)
    assert f"need <= {tol:.0e}" in str(info.value)


def test_check_decay_rejects_non_finite():
    # nan compares False against the edge bound, so it must be caught first
    for bad in ([np.nan, 1.0, np.nan], [0.0, 1.0, np.nan], [0.0, np.inf, 0.0]):
        with pytest.raises(NumericsError, match="non-finite"):
            signals.check_decay(np.array(bad), "x")


def test_check_decay_all_zero_passes(grid):
    signals.check_decay(np.zeros(grid.n), "x")
    signals.check_decay(np.zeros(grid.n), "x", 1e-10)
    assert signals.guarded_integral(grid, np.zeros(grid.n), "x") == 0.0


@pytest.mark.parametrize("call", [
    lambda s: moments.spectral_moment_2p(s, 1, 0.0),
    lambda s: moments.abs_moment_p(s, 2, 0.0),
    lambda s: olct.hpw_core(s, olct.ft_params(), olct.HpwConfig(p=1)),
    lambda s: olct.second_order_core_closed_form(s, olct.unit_weight()),
], ids=["spectral_moment_2p", "abs_moment_p", "hpw_core",
        "second_order_core_closed_form"])
def test_guarded_entry_points_reject_nondecaying(grid, call):
    with pytest.raises(NumericsError, match=DECAY_PHRASE):
        call(olct.SampledSignal(grid, np.ones(grid.n)))


def test_derivative_rejects_bad_order(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    with pytest.raises(ValueError):
        signals.derivative(s, [0])


# ---------------------------------------------------------------------------
# unimodular factors and centered powers


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_cis_matches_complex_exp_bit_for_bit(scale):
    rng = np.random.default_rng(11)
    phase = np.concatenate([rng.uniform(-scale, scale, 100_000),
                            [scale, -scale, 0.0, -0.0]])
    got = signals.cis(phase)
    ref = np.exp(1j * phase)
    assert got.dtype == np.complex128 and got.shape == phase.shape
    # 1j * phase turns a phase of -0.0 into +0.0, so only there does the
    # sign of a zero imaginary part differ
    nonzero = phase != 0.0
    assert got[nonzero].tobytes() == ref[nonzero].tobytes()
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("e", range(9))
def test_centered_power_within_one_ulp(e):
    rng = np.random.default_rng(e)
    x = np.concatenate([rng.uniform(-10.0, 10.0, 20_000),
                        rng.standard_normal(2_000) * 1e-3,
                        [-0.0, 0.0, -1.0, 1.0, -2.5, 2.5]])
    for center in (0.0, 0.3):
        ref = (x - center) ** e
        got = signals.centered_power(x, center, e)
        assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))
        # the sign, also of a zero, is that of (x - center) for odd e
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.signbit(signals.centered_power(-0.0, 0.0, e)) == (e % 2 == 1)


# ---------------------------------------------------------------------------
# norms


def test_norm_phase_invariance(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    rotated = s.with_values(np.exp(1j * 0.83) * s.values)
    norm = signals.norm_l2(s)
    assert abs(signals.norm_l2(rotated) - norm) <= 1e-12 * norm
