import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olct
from olct import moments, signals
from olct.errors import NumericsError

from conftest import DECAY_PHRASE, trapezoid_weights


# ---------------------------------------------------------------------------
# grids


def test_make_grid_spacing():
    g = olct.make_grid(-8, 8, 4097)
    assert g.dt == 16.0 / 4096.0 == 0.00390625
    pts = g.points()
    assert pts[0] == -8.0 and pts[-1] == 8.0
    steps = np.diff(pts)
    assert np.max(np.abs(steps - g.dt)) <= 4 * np.finfo(float).eps * abs(g.dt)


def test_grid_points_are_computed_once_and_read_only():
    g = olct.make_grid(-8, 8, 4097)
    pts = g.points()
    assert g.points() is pts
    assert pts.tobytes() == np.linspace(-8.0, 8.0, 4097).tobytes()
    assert not pts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pts[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        pts += 1.0
    assert pts[0] == -8.0


def test_grid_value_semantics_ignore_the_cached_points():
    fresh = olct.make_grid(-8, 8, 4097)
    used = olct.make_grid(-8, 8, 4097)
    used.points()
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == "Grid(t_min=-8.0, t_max=8.0, n=4097)"
    assert used != olct.make_grid(-8, 8, 4098)
    wider = dataclasses.replace(used, n=17)
    assert wider == olct.make_grid(-8, 8, 17)
    assert wider.points().tobytes() == np.linspace(-8.0, 8.0, 17).tobytes()


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


def test_analytic_signal_is_a_value():
    # deriv(k) rebuilds P_k on every call, so a higher order asked for in
    # between changes nothing; equal parameters give equal signals
    f = olct.gaussian_chirp(2.0, 1.5)
    t = np.linspace(-2.0, 2.0, 9)
    before = f.deriv(2)(t)
    f.deriv(8)(t)
    assert np.array_equal(f.deriv(2)(t).view(np.uint64), before.view(np.uint64))
    assert f == olct.gaussian_chirp(2.0, 1.5)
    assert f != olct.gaussian_chirp(2.0, 1.0)


def test_exp_weight_values():
    w = olct.exp_weight(2.0)
    assert w == signals.WeightFunction(2.0)
    assert w(0.0) == pytest.approx(1.0)
    assert w.derivs(0.0, [1])[1] == pytest.approx(-2.0)
    assert olct.exp_weight(10.0)(0.1) == pytest.approx(math.exp(-1.0), rel=1e-14)
    t = np.linspace(-1, 1, 7)
    derivs = w.derivs(t, range(5))
    for k in range(5):
        assert np.allclose(derivs[k], (-2.0) ** k * np.exp(-2.0 * t), rtol=1e-14)


def test_exp_weight_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        olct.exp_weight(0.0)
    with pytest.raises(ValueError):
        olct.exp_weight(-1.0)


def test_unit_weight():
    w = olct.unit_weight()
    assert w == signals.WeightFunction()
    t = np.linspace(-4, 4, 11)
    assert np.all(w(t) == 1.0)
    derivs = w.derivs(t, [0, 1, 3])
    assert np.all(derivs[0] == 1.0)
    assert np.all(derivs[1] == 0.0) and np.all(derivs[3] == 0.0)


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_gaussian(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    val = signals.trapezoid(s.grid, s.values).real
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_integrate_zero(grid):
    s = olct.SampledSignal(grid, np.zeros(grid.n))
    assert signals.trapezoid(s.grid, s.values) == 0.0


def random_samples(n, dtype):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    return x if dtype is float else x + 1j * rng.normal(size=n)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [4097, 4098])
def test_trapezoid_samples_bit_identical_to_weighted_samples(n, dtype):
    # dt = 16/4097 is not a power of two at n = 4098, so the scaling rounds
    grid = olct.make_grid(-8.0, 8.0, n)
    x = random_samples(n, dtype)
    before = x.copy()
    got = signals.trapezoid_samples(grid, x)
    assert got.tobytes() == (x * trapezoid_weights(n, grid.dt)).tobytes()
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [4097, 4098])
def test_trapezoid_agrees_with_weighted_sum(n, dtype):
    grid = olct.make_grid(-8.0, 8.0, n)
    x = random_samples(n, dtype)
    weighted = x * trapezoid_weights(n, grid.dt)
    got = signals.trapezoid(grid, x)
    assert abs(got - np.sum(weighted)) <= 1e-14 * np.sum(np.abs(weighted))


def test_integrate_odd_integrand(grid):
    t = grid.points()
    s = olct.SampledSignal(grid, t * np.exp(-(t**2)))
    assert abs(signals.trapezoid(s.grid, s.values)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    n=st.integers(16, 200),
    t0=st.floats(-5, 2),
    width=st.floats(0.5, 8),
)
def test_integrate_exact_for_linear_functions(coeffs, n, t0, width):
    g = olct.make_grid(t0, t0 + width, n)
    t = g.points()
    c0, c1 = coeffs
    s = olct.SampledSignal(g, c0 + c1 * t)
    lo, hi = g.t_min, g.t_max
    exact = c0 * (hi - lo) + c1 / 2.0 * (hi**2 - lo**2)
    scale = max(abs(exact), 1.0)
    assert abs(signals.trapezoid(s.grid, s.values).real - exact) <= 1e-12 * scale


@pytest.mark.parametrize("n", [257, 1000, 4096, 4097, 65537])
def test_guarded_integral_matches_gaussian_moments(n):
    # int t^(2k) exp(-2 t^2) dt = Gamma(k + 1/2) / 2^(k + 1/2); the
    # integrands decay at both ends, where the trapezoid rule converges
    # exponentially
    g = olct.make_grid(-8.0, 8.0, n)
    t = g.points()
    gauss = np.exp(-2.0 * t * t)
    for k in range(9):
        got = signals.guarded_integral(g, t ** (2 * k) * gauss, "moment")
        exact = math.gamma(k + 0.5) / 2.0 ** (k + 0.5)
        assert got == pytest.approx(exact, rel=1e-15, abs=0.0), k


def test_integrate_conjugate_symmetry(grid):
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    s = olct.SampledSignal(grid, vals)
    conj = s.with_values(np.conj(vals))
    assert (signals.trapezoid(conj.grid, conj.values)
            == np.conj(signals.trapezoid(s.grid, s.values)))


def test_integrate_linearity(grid):
    rng = np.random.default_rng(11)
    v1 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    v2 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    s = olct.SampledSignal(grid, a * v1 + b * v2)
    combined = (a * signals.trapezoid(grid, v1)
                + b * signals.trapezoid(grid, v2))
    got = signals.trapezoid(s.grid, s.values)
    assert abs(got - combined) <= 1e-12 * max(abs(combined), 1.0)


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


def test_next_fast_len_matches_scipy():
    # the package's FFT lengths are scipy's for complex input, with scipy
    # imported only here
    from scipy import fft as sfft

    targets = [*range(1, 20001), 4097, 16385, 65537, 131073]
    assert ([signals.next_fast_len(t) for t in targets]
            == [sfft.next_fast_len(t) for t in targets])
    with pytest.raises(ValueError):
        signals.next_fast_len(0)


@pytest.mark.parametrize("k, tol", [(1, 4e-12), (2, 3e-11), (4, 5e-10)])
def test_spectral_derivative_digits_at_fast_length(k, tol):
    # 65537 is prime; the derivative runs at next_fast_len(65537) = 65610
    grid = olct.make_grid(-8.0, 8.0, 65537)
    f = olct.gaussian_chirp(2.0, 3.0)
    numeric = signals.derivative(f.sample(grid), [k])[k].values
    exact = f.deriv(k)(grid.points())
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(numeric - exact)) <= tol * scale


def _full_length_derivative(s, orders):
    """Spectral derivative with (j omega)^k formed on every bin of the padded
    FFT, the noise-floor bins zeroed in the spectrum first."""
    from scipy import fft as sfft

    n = s.grid.n
    nfft = sfft.next_fast_len(n)
    omega = 2.0j * np.pi * sfft.fftfreq(nfft, d=s.grid.dt)
    spec = sfft.fft(s.values, nfft)
    mag = np.abs(spec)
    spec[mag < signals.SPECTRAL_NOISE_FLOOR * np.max(mag)] = 0.0
    out = {}
    for k in orders:
        mult = omega**k
        if nfft % 2 == 0 and k % 2 == 1:
            mult[nfft // 2] = 0.0
        out[k] = sfft.ifft(spec * mult)[:n]
    return out


# next_fast_len: 16, 1000, 4096 -> themselves; 1025 -> 1029 (odd);
# 4097, 4098 -> 4116; 65537 -> 65610
@pytest.mark.parametrize("n", [16, 1000, 1025, 4096, 4097, 4098, 65537])
@pytest.mark.parametrize("shape", ["wide", "narrow", "pulse3", "alternating"])
def test_kept_bin_derivative_is_bit_identical_to_full_length(n, shape):
    # "wide" keeps few bins; the narrow pulse (sigma = dt) keeps bins up to
    # the Nyquist bin, so its odd orders cover the dropped Nyquist bin; a
    # sigma = 3 dt pulse keeps most bins but not all (sigma is at most 0.5
    # so that it decays on the 16-point grid), and the alternating
    # Gaussian keeps few bins around the Nyquist bin.  The comparison is of
    # the bits, so the signs of zeros count too
    grid = olct.make_grid(-8.0, 8.0, n)
    t = grid.points()
    if shape == "wide":
        values = np.exp(-0.7 * (t - 0.3) ** 2 + 1j * (1.5 * t + 0.4 * t * t))
    elif shape == "alternating":
        values = np.exp(-0.7 * (t - 0.3) ** 2) * (-1.0) ** np.arange(n) + 0j
    else:
        width = grid.dt if shape == "narrow" else min(3.0 * grid.dt, 0.5)
        values = np.exp(-0.5 * ((t - 0.3) / width) ** 2) + 0j
    s = olct.SampledSignal(grid, values)
    orders = range(1, 9)
    kept = signals.derivative(s, orders)
    full = _full_length_derivative(s, orders)
    for k in orders:
        assert np.array_equal(kept[k].values.view(np.uint64),
                              full[k].view(np.uint64)), k


@pytest.mark.parametrize("size", [16, 17])
def test_kept_bins_applies_the_floor_and_signs_the_indices(size):
    # bin size // 2 is +8 of 17 bins and -8 of 16
    spec = np.zeros(size, dtype=np.complex128)
    spec[[0, 1, 5, size // 2, size - 3]] = [1.0, -2.0, 0.5j, 0.25, 1.0 + 1.0j]
    spec[2] = 3.0  # the peak
    thr = signals.SPECTRAL_NOISE_FLOOR * 3.0
    spec[size - 1] = 1j * thr  # exactly at the floor: kept
    spec[3] = np.nextafter(thr, 0)  # one float below: dropped
    spec[7] = 1e-300
    kept, signed = signals.kept_bins(spec)
    assert kept.tolist() == [0, 1, 2, 5, size // 2, size - 3, size - 1]
    # fftfreq(size) * size, with d = 1/size so that the odd size gives
    # exact integers too
    assert np.array_equal(signed, np.fft.fftfreq(size, 1.0 / size)[kept])


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
    lambda s: moments.abs_moment_p(s.grid, np.abs(s.grid.points()),
                                   np.abs(s.values) ** 2, 2),
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
        d = x - center
        got = signals.centered_power(d, np.abs(d), e)
        assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))
        # the sign, also of a zero, is that of (x - center) for odd e
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    d = -0.0 - 0.0
    assert np.signbit(signals.centered_power(d, abs(d), e)) == (e % 2 == 1)


# ---------------------------------------------------------------------------
# norms


def test_norm_phase_invariance(grid):
    s = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    rotated = s.with_values(np.exp(1j * 0.83) * s.values)
    norm = math.sqrt(signals.abs_energy(s).energy)
    rotated_norm = math.sqrt(signals.abs_energy(rotated).energy)
    assert abs(rotated_norm - norm) <= 1e-12 * norm
