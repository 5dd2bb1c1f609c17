import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olct
from olct import moments, signals, transform
from olct.errors import NumericsError

from conftest import (DEFAULT_GRID, EXAMPLE_PARAMS, completed_params, cquad,
                      params_matrix, trapezoid_weights)


# ---------------------------------------------------------------------------
# parameter constructors


def test_ft_params_values():
    p = olct.ft_params()
    assert (p.a, p.b, p.c, p.d, p.tau, p.eta) == (0.0, 1.0, -1.0, 0.0, 0.0, 0.0)


def rotation_params(alpha):
    """Rotation parameters (cos a, sin a, -sin a, cos a | 0, 0)."""
    return olct.OlctParams(math.cos(alpha), math.sin(alpha),
                           -math.sin(alpha), math.cos(alpha))


def test_frft_quarter_turn_equals_ft():
    p = rotation_params(math.pi / 2.0)
    ft = olct.ft_params()
    assert p.a == pytest.approx(ft.a, abs=1e-15)
    assert p.b == pytest.approx(ft.b, abs=1e-15)
    assert p.c == pytest.approx(ft.c, abs=1e-15)
    assert p.d == pytest.approx(ft.d, abs=1e-15)


def test_lct_params_determinant_check():
    olct.OlctParams(1.0, 1.0, 0.0, 1.0)  # accepted
    with pytest.raises(ValueError, match="a\\*d - b\\*c"):
        olct.OlctParams(1.0, 1.0, 1.0, 1.0)


def test_nonstrict_construction_is_flagged():
    p = olct.OlctParams(0.6, 0.05, 0.5, 0.4, strict=False)
    assert p.determinant == pytest.approx(0.215)
    with pytest.raises(ValueError):
        olct.OlctParams(0.6, 0.05, 0.5, 0.4)


def test_degenerate_flag():
    p = olct.OlctParams(2.0, 0.0, 0.0, 0.5)
    assert p.is_degenerate
    assert not olct.ft_params().is_degenerate
    with pytest.raises(ValueError):
        p.chirp_rate


def test_frft_zero_angle_is_degenerate():
    p = rotation_params(0.0)
    assert p.is_degenerate
    assert (p.a, p.d) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# kernel


@pytest.mark.parametrize("params", params_matrix(taus=(0.0, 1.0), etas=(0.0, 1.0)))
def test_kernel_unimodular(params):
    rng = np.random.default_rng(3)
    t = rng.uniform(-5, 5, size=100)
    xi = rng.uniform(-5, 5, size=100)
    mag = np.abs(transform.olct_kernel(t, xi, params))
    expected = 1.0 / math.sqrt(2.0 * math.pi * abs(params.b))
    assert np.max(np.abs(mag - expected)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-50, 50), xi=st.floats(-50, 50),
       b=st.floats(0.01, 5).filter(lambda b: abs(b) > 0.01))
def test_kernel_modulus_independent_of_arguments(t, xi, b):
    a = 0.6
    params = olct.OlctParams(a, b, 0.5, (1.0 + 0.5 * b) / a, 0.3, -0.7)
    mag = abs(transform.olct_kernel(t, xi, params))
    assert mag == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * abs(b)), rel=1e-12)


def test_kernel_at_origin_ft():
    val = transform.olct_kernel(0.0, 0.0, olct.ft_params())
    expected = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-1j * math.pi / 4.0)
    assert val == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("b", [0.5, 1.0, -0.5])
def test_kernel_at_origin_generic(b):
    a = 0.6
    params = olct.OlctParams(a, b, 0.5, (1.0 + 0.5 * b) / a)
    val = transform.olct_kernel(0.0, 0.0, params)
    assert val == pytest.approx(1.0 / np.sqrt(1j * 2.0 * np.pi * b), rel=1e-14)


def test_kernel_rejects_degenerate():
    with pytest.raises(ValueError, match="b = 0"):
        transform.olct_kernel(0.0, 0.0, olct.OlctParams(2.0, 0.0, 0.0, 0.5))


# ---------------------------------------------------------------------------
# forward transform


def test_forward_ft_of_gaussian_magnitude(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2 / 2.0))
    spec = olct.olct_forward(f, olct.ft_params())
    xi = spec.grid.points()
    assert np.max(np.abs(np.abs(spec.values) - np.exp(-(xi**2) / 2.0))) <= 1e-6


def test_forward_zero_input(grid):
    f = olct.SampledSignal(grid, np.zeros(grid.n))
    xi = olct.make_grid(-4, 4, 257)
    spec = olct.olct_forward(f, olct.ft_params(), xi)
    assert np.all(spec.values == 0.0)


def test_forward_energy_example(example_signal, example_params):
    spec = olct.olct_forward(example_signal, example_params)
    assert olct.parseval_gap(example_signal, spec) <= 1e-6


def test_forward_matches_plain_fourier_quadrature(grid):
    # with the Fourier parameter set the transform is
    # (1/sqrt(j 2 pi)) * integral f(t) exp(-j t xi) dt
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    xi_grid = olct.make_grid(-6, 6, 129)
    spec = olct.olct_forward(f, olct.ft_params(), xi_grid)
    root = 1.0 / np.sqrt(1j * 2.0 * np.pi)
    for idx in (0, 31, 64, 100, 128):
        xi = xi_grid.points()[idx]
        ref = root * cquad(lambda t, xi=xi: np.exp(-t * t) * np.exp(-1j * t * xi))
        assert abs(spec.values[idx] - ref) <= 1e-8


@pytest.mark.parametrize("params", params_matrix())
def test_forward_path_equivalence(params):
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(DEFAULT_GRID)
    xi_grid = olct.default_xi_grid(f, params, n=513)
    fast = olct.olct_forward(f, params, xi_grid, path="chirp_fft")
    direct = olct.olct_forward(f, params, xi_grid, path="direct")
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-6 * scale


@pytest.mark.parametrize("grid, n_out", [(DEFAULT_GRID, 513),
                                         (olct.make_grid(-8.0, 8.0, 1000), 3001),
                                         (DEFAULT_GRID, 512),
                                         (olct.make_grid(-8.0, 8.0, 1000), 600)])
def test_forward_fast_path_matches_direct_to_rounding(grid, n_out):
    # chirp phases must not carry a rounding error scaled by k^2; the cases
    # cover every parity pair of n and m, which sets where the Bluestein
    # filter's reversed and forward chirp slices meet, and more output than
    # input points
    params = completed_params(0.6, 0.05)
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(grid)
    xi_grid = olct.default_xi_grid(f, params, xi_m=0.5, n=n_out)
    fast = olct.olct_forward(f, params, xi_grid, path="chirp_fft")
    direct = olct.olct_forward(f, params, xi_grid, path="direct")
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-13 * scale


def test_direct_path_keeps_large_kernel_phases_to_rounding():
    # at b = 1 the kernel phase reaches thousands of radians; the direct
    # reference must round each phase term on its own, not their sum
    params = completed_params(0.6, 1.0)
    f = olct.gaussian_chirp(10.0, params.chirp_rate).sample(DEFAULT_GRID)
    xi_grid = olct.default_xi_grid(f, params, xi_m=0.5, n=513)
    fast = olct.olct_forward(f, params, xi_grid, path="chirp_fft")
    direct = olct.olct_forward(f, params, xi_grid, path="direct")
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-14 * scale


# (params, signal, input grid, xi_m): b < 0 with tau, eta != 0 and an
# off-centre xi_m on odd and even n,
# an input grid not centred at 0, large kernel phases, and the smallest grid
_B_NEG = completed_params(0.6, -0.5, tau=1.0, eta=0.5)
_OFFSET = completed_params(0.0, 1.0, tau=1.0, eta=-0.3)
BIN_PATH_CASES = [
    (_B_NEG, olct.gaussian_chirp(1.5, _B_NEG.chirp_rate + 0.7),
     DEFAULT_GRID, 1.5),
    (_B_NEG, olct.gaussian_chirp(1.5, _B_NEG.chirp_rate + 0.7),
     olct.make_grid(-8.0, 8.0, 4096), 1.5),
    (_OFFSET, olct.gaussian_chirp(3.0, -1.2), olct.make_grid(-8.0, 8.0, 4098),
     0.4),
    (completed_params(0.6, 0.5, tau=1.0, eta=0.5),
     olct.gaussian_chirp(2.0, 1.0), olct.make_grid(-6.0, 10.0, 1001), -0.7),
    (completed_params(0.6, 1.0), olct.gaussian_chirp(10.0, 0.3), DEFAULT_GRID,
     0.5),
    (olct.ft_params(), olct.gaussian_chirp(2.0, 0.3), olct.make_grid(-6.0, 6.0, 16),
     0.0),
]


def assert_bins_match_bluestein_and_direct(f, params, xi_m):
    binned = olct.olct_forward(f, params, xi_m=xi_m)
    xi_grid = olct.default_xi_grid(f, params, xi_m=xi_m)
    assert binned.grid == xi_grid
    bluestein = olct.olct_forward(f, params, xi_grid)
    direct = olct.olct_forward(f, params, xi_grid, path="direct")
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(binned.values - bluestein.values)) <= 1e-14 * scale
    assert np.max(np.abs(binned.values - direct.values)) <= 1e-14 * scale
    return xi_grid


@pytest.mark.parametrize("params, signal, grid, xi_m", BIN_PATH_CASES)
def test_default_grid_transform_matches_bluestein_and_direct(params, signal,
                                                             grid, xi_m):
    assert_bins_match_bluestein_and_direct(signal.sample(grid), params, xi_m)


@pytest.mark.parametrize("n", [16, 4096])
def test_default_grid_pads_to_17_points(n, monkeypatch):
    # under the shipped span rule a Gaussian that passes the edge guard
    # spans at least 29 bins (r = 0.05..50, n = 16..4097), so a coarse rule
    # stands in for the span
    monkeypatch.setattr(transform, "SPAN_TOL", 0.5)
    monkeypatch.setattr(transform, "MAX_HALF_ORDER", 0)
    f = olct.gaussian_chirp(2.0, 0.3).sample(olct.make_grid(-6.0, 6.0, n))
    xi_grid = assert_bins_match_bluestein_and_direct(f, olct.ft_params(), 0.0)
    assert xi_grid.n == 17


def test_default_grid_transform_on_a_band_filling_spectrum():
    # the spectrum fills most of the band |xi| <= pi/dt = 3217, where
    # weights that alternate from sample to sample would add a replica of
    # it centred at pi/dt; the direct sum on 61 of its rows is the reference
    params = olct.ft_params()
    f = olct.gaussian_chirp(2.0, 300.0).sample(olct.make_grid(-8.0, 8.0, 16385))
    binned = olct.olct_forward(f, params)
    rows = np.linspace(0, binned.grid.n - 1, 61).astype(int)
    kernel = transform.olct_kernel(f.grid.points()[None, :],
                                   binned.grid.points()[rows, None], params)
    w = trapezoid_weights(f.grid.n, f.grid.dt)
    direct = kernel @ (w * f.values)
    scale = np.max(np.abs(direct))
    # the weights differ from dt only at the two end samples
    assert np.flatnonzero(w != f.grid.dt).tolist() == [0, f.grid.n - 1]
    # kernel phases u t reach 2e4 rad here and the float grid points sit up
    # to 12 ulp from the FFT bins: the bin path is 1.4e-13 of the peak off
    # the direct sum, the Bluestein sum on the same grid 5.4e-13
    assert np.max(np.abs(binned.values[rows] - direct)) <= 5e-13 * scale


def test_default_grid_and_centre_are_exclusive(example_signal, example_params):
    xi_grid = olct.default_xi_grid(example_signal, example_params, xi_m=0.3)
    with pytest.raises(ValueError, match="xi_m"):
        olct.olct_forward(example_signal, example_params, xi_grid, xi_m=0.3)
    # the default centre with an explicit grid is the plain explicit call
    olct.olct_forward(example_signal, example_params, xi_grid, xi_m=0.0)


def test_forward_energy_at_65537_points():
    # a rounding error scaled by k^2 in the chirp phases grows like n^2
    params = completed_params(0.6, 0.05, tau=1.0)
    f = olct.gaussian_chirp(10.0, params.chirp_rate + 1.3).sample(
        olct.make_grid(-8.0, 8.0, 65537))
    assert olct.parseval_gap(f, olct.olct_forward(f, params)) <= 1e-12


def loaded_after_import(module: str) -> bool:
    """Whether ``import olct, olct.cli`` in a fresh interpreter loads
    ``module``."""
    src = str(Path(olct.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import olct, olct.cli; "
            "print(sys.argv[2] in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src, module],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.strip()]


def test_import_leaves_scipy_signal_unloaded():
    # the package owns its chirp-z kernel; scipy.signal only adds import
    # time and memory
    assert not loaded_after_import("scipy.signal")


def test_import_leaves_scipy_interpolate_unloaded():
    # the b = 0 branch reads its samples; scipy.interpolate would add about
    # a quarter second to every import of the package
    assert not loaded_after_import("scipy.interpolate")


def test_import_leaves_scipy_unloaded():
    # every FFT of the package is numpy's; importing scipy.fft alone took
    # about 0.3 s, paid by every run of the command-line tool
    assert not loaded_after_import("scipy")


@pytest.mark.parametrize("params", params_matrix(taus=(0.0,), etas=(0.0, 1.0)))
def test_forward_unitarity_matrix(params):
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(DEFAULT_GRID)
    spec = olct.olct_forward(f, params)
    assert olct.parseval_gap(f, spec) <= 1e-6


def test_forward_linearity(grid):
    f1 = olct.gaussian_chirp(2.0, 6.0).sample(grid)
    f2 = olct.gaussian_chirp(1.0, -1.0).sample(grid)
    alpha, beta = 1.3 - 0.4j, -0.7 + 0.2j
    combo = f1.with_values(alpha * f1.values + beta * f2.values)
    xi_grid = olct.default_xi_grid(combo, EXAMPLE_PARAMS)
    s_combo = olct.olct_forward(combo, EXAMPLE_PARAMS, xi_grid)
    s1 = olct.olct_forward(f1, EXAMPLE_PARAMS, xi_grid)
    s2 = olct.olct_forward(f2, EXAMPLE_PARAMS, xi_grid)
    lin = alpha * s1.values + beta * s2.values
    assert np.max(np.abs(s_combo.values - lin)) <= 1e-10 * np.max(np.abs(lin))


def test_forward_fast_path_rejects_nondecaying(grid):
    f = olct.SampledSignal(grid, np.ones(grid.n))
    xi = olct.make_grid(-4, 4, 257)
    with pytest.raises(NumericsError, match="decay"):
        olct.olct_forward(f, olct.ft_params(), xi, path="chirp_fft")


def test_forward_routes_degenerate_params(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    params = olct.OlctParams(2.0, 0.0, 0.0, 0.5)
    spec = olct.olct_forward(f, params)
    assert isinstance(spec, olct.SampledSignal)


def test_forward_b0_rejects_a_bad_path_and_a_centre(grid):
    # the b = 0 branch takes no xi_m, and an unknown path is an error on
    # every branch
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    params = olct.OlctParams(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="unknown forward path"):
        olct.olct_forward(f, params, path="bogus")
    with pytest.raises(ValueError, match="xi_m"):
        olct.olct_forward(f, params, xi_m=3.0)
    assert isinstance(olct.olct_forward(f, params, path="direct"),
                      olct.SampledSignal)


# ---------------------------------------------------------------------------
# default output grid


def gaussian_chirp_moment(params, r, chirp, xi_m, p):
    """Closed-form integral of (xi - xi_m)^(2p) |O(xi)|^2 for the input
    exp(-(r/2) t^2 - j chirp t^2).

    With beta = r/2 + j (chirp - a/(2b)) the transform's magnitude is
    |O(xi)|^2 = exp(-kappa u^2) / (2 |beta|), u = (xi - tau)/b and
    kappa = Re(1/beta)/2, so the moment is b^(2p)/(2|beta|) times
    sum over even j of C(2p, j) u_m^(2p-j) Gamma((j+1)/2) / kappa^((j+1)/2).
    """
    beta = r / 2.0 + 1j * (chirp - params.chirp_rate)
    kappa = (1.0 / beta).real / 2.0
    u_m = (xi_m - params.tau) / params.b
    gauss = sum(math.comb(2 * p, j) * u_m ** (2 * p - j)
                * math.gamma((j + 1) / 2.0) / kappa ** ((j + 1) / 2.0)
                for j in range(0, 2 * p + 1, 2))
    return params.b ** (2 * p) * gauss / (2.0 * abs(beta))


GRID_ORACLE_CASES = [
    # (a, b, tau, r, chirp offset from a/(2b), xi_m)
    (0.6, 0.05, 0.0, 2.0, 0.0, 0.0),
    (0.6, 0.05, 1.0, 2.0, 0.7, 1.4),
    (0.0, 1.0, 0.0, 1.0, 2.5, -3.0),
    (6.0, 0.5, 1.0, 3.0, -1.2, 0.2),
    (0.6, -0.5, 1.0, 1.5, 0.7, 1.5),
    (0.0, -1.0, -0.5, 2.0, 1.0, 4.0),
]


@pytest.mark.parametrize("a, b, tau, r, offset, xi_m", GRID_ORACLE_CASES)
def test_default_grid_matches_gaussian_chirp_closed_forms(a, b, tau, r, offset,
                                                          xi_m):
    params = completed_params(a, b, tau=tau)
    chirp = params.chirp_rate + offset
    f = olct.gaussian_chirp(r, chirp).sample(DEFAULT_GRID)
    # the default grid and the transform read off its bins, as reports take them
    spec = olct.olct_forward(f, params, xi_m=xi_m)
    xi_grid = spec.grid
    assert xi_grid.n % 2 == 1 and xi_grid.n <= 2 * DEFAULT_GRID.n - 1
    # du < 2 pi/L keeps the Poisson aliases of the moment integrands and the
    # images of the inverse off the input's length L (default_xi_grid)
    assert xi_grid.dt < 2.0 * abs(b) * math.pi / DEFAULT_GRID.length
    for p in range(moments.MAX_HALF_ORDER + 1):
        exact = gaussian_chirp_moment(params, r, chirp, xi_m, p)
        got = moments.spectral_moment_2p(spec, p, xi_m)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0), p
    back = transform.olct_inverse(spec, params, DEFAULT_GRID)
    assert np.max(np.abs(back.values - f.values)) <= 1e-6


def test_span_tolerance_sits_below_the_moment_guard():
    assert 100.0 * transform.SPAN_TOL <= moments.COVERAGE_TOL


# ---------------------------------------------------------------------------
# degenerate branch


def test_b0_identity_parameters(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    params = olct.OlctParams(1.0, 0.0, 0.0, 1.0)
    spec = transform.olct_forward_b0(f, params)
    assert np.max(np.abs(spec.values - f.values)) < 1e-12
    assert spec.grid == grid


def test_b0_chirp_factor_preserves_magnitude(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    params = olct.OlctParams(1.0, 0.0, 0.7, 1.0)
    spec = transform.olct_forward_b0(f, params)
    assert np.max(np.abs(np.abs(spec.values) - np.abs(f.values))) < 1e-12


def test_b0_scaling_preserves_energy(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    params = olct.OlctParams(2.0, 0.0, 0.0, 0.5)
    spec = transform.olct_forward_b0(f, params)
    xi = spec.grid.points()
    expected = math.sqrt(0.5) * np.exp(-((0.5 * xi) ** 2))
    assert np.max(np.abs(spec.values - expected)) < 1e-4
    assert olct.parseval_gap(f, spec) <= 1e-4


@pytest.mark.parametrize("params", [
    olct.OlctParams(2.0, 0.0, 0.0, 0.5),  # transform_b0.cfg
    olct.OlctParams(0.8, 0.0, 0.3, 1.25, tau=0.7, eta=-1.1),
])
def test_b0_branch_is_the_chirped_input_on_the_mapped_grid(grid, params):
    # each input sample t_k lands at xi_k = tau + t_k/d, so the output is
    # sqrt(d) cis(c d (xi - tau)^2/2 + xi eta) f(t_k), bit for bit
    f = olct.gaussian_chirp(2.0, 0.0).sample(grid)
    spec = olct.olct_forward(f, params)
    p = params
    assert spec.grid == olct.make_grid(p.tau + grid.t_min / p.d,
                                       p.tau + grid.t_max / p.d, grid.n)
    xi = spec.grid.points()
    phase = p.c * p.d * (xi - p.tau) ** 2 / 2.0 + xi * p.eta
    expected = math.sqrt(p.d) * signals.cis(phase) * f.values
    assert spec.values.tobytes() == expected.tobytes()


def test_b0_rejects_an_explicit_output_grid(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    params = olct.OlctParams(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="no explicit xi_grid"):
        olct.olct_forward(f, params, olct.make_grid(-16.0, 16.0, 4097))


def test_b0_rejects_nonpositive_d(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    with pytest.raises(ValueError, match="d > 0"):
        transform.olct_forward_b0(
            f, olct.OlctParams(-1.0, 0.0, 0.0, -1.0, strict=False))


def test_b0_rejects_nondegenerate(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    with pytest.raises(ValueError, match="b = 0"):
        transform.olct_forward_b0(f, olct.ft_params())


# ---------------------------------------------------------------------------
# inverse


def test_round_trip_example_params(example_signal, example_params):
    spec = olct.olct_forward(example_signal, example_params)
    back = transform.olct_inverse(spec, example_params, example_signal.grid)
    err = np.max(np.abs(back.values - example_signal.values))
    assert err <= 1e-5


def test_round_trip_ft(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    spec = olct.olct_forward(f, olct.ft_params())
    back = transform.olct_inverse(spec, olct.ft_params(), grid)
    assert np.max(np.abs(back.values - f.values)) <= 1e-6


def test_inverse_zero_spectrum(grid):
    xi = olct.make_grid(-4, 4, 257)
    spec = olct.SampledSignal(xi, np.zeros(257))
    back = transform.olct_inverse(spec, olct.ft_params(), grid)
    assert np.all(back.values == 0.0)


def test_inverse_rejects_degenerate(grid):
    xi = olct.make_grid(-4, 4, 257)
    spec = olct.SampledSignal(xi, np.zeros(257))
    with pytest.raises(ValueError, match="b = 0"):
        transform.olct_inverse(spec, olct.OlctParams(2.0, 0.0, 0.0, 0.5), grid)


# ---------------------------------------------------------------------------
# energy gap


def test_parseval_gap_scaling(example_signal, example_params):
    spec = olct.olct_forward(example_signal, example_params)
    doubled = spec.with_values(2.0 * spec.values)
    assert olct.parseval_gap(example_signal, doubled) == pytest.approx(3.0, rel=1e-6)


def test_parseval_gap_rejects_zero_energy(grid):
    zero = olct.SampledSignal(grid, np.zeros(grid.n))
    spec = olct.SampledSignal(grid, np.zeros(grid.n))
    with pytest.raises(NumericsError, match="zero-energy"):
        olct.parseval_gap(zero, spec)


# ---------------------------------------------------------------------------
# the subgrid of the bins


def _step(f, params, xi_m=0.0):
    bins = transform.bin_spectrum(f, params, xi_m)
    step = bins.subgrid.step
    if step > 1:
        # an even divisor of M, and the band of |g|^2 fits a coset twice
        width = 2 * (int(np.max(bins.signed)) - int(np.min(bins.signed))) + 1
        assert step % 2 == 0 and bins.size % step == 0
        assert bins.size // step >= 2 * width
    return step


def test_band_filling_input_keeps_the_whole_grid():
    f = olct.gaussian_chirp(2.0, 300.0).sample(olct.make_grid(-8.0, 8.0, 16385))
    assert _step(f, olct.ft_params()) == 1
    # at step 1 the report's sums are the whole grid's trapezoid sums, bit
    # for bit
    cfg = olct.HpwConfig(p=1)
    report = olct.verify_shw(f, olct.ft_params(), cfg)
    abs_f = signals.abs_energy(f)
    assert report.energy == abs_f.energy
    assert report.mu_time == moments.time_moment_2p(abs_f, 1, 0.0, cfg.omega)


@pytest.mark.parametrize("n", [4096, 4097])
def test_narrow_band_on_4096_points_takes_a_subgrid(n):
    params = completed_params(0.6, -0.5, tau=1.0)
    f = olct.gaussian_chirp(1.5, params.chirp_rate + 0.7).sample(
        olct.make_grid(-8.0, 8.0, n))
    assert _step(f, params, 1.5) > 1


@pytest.mark.parametrize("r, offset", [(10.0, 2.0), (10.0, -2.0), (1.0, 0.0)])
def test_benchmark_like_draw_takes_a_step_of_at_least_90(r, offset):
    # the widest and the narrowest bands of the benchmark's 65537-point
    # draws: r in [1, 10], chirp within 2 of the parameter set's
    params = completed_params(6.0, 0.05, tau=1.0)
    f = olct.gaussian_chirp(r, params.chirp_rate + offset).sample(
        olct.make_grid(-8.0, 8.0, 65537))
    assert _step(f, params, params.tau + 0.5) >= 90
