import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olct
from olct import transform
from olct.errors import NumericsError

from conftest import (DEFAULT_GRID, EXAMPLE_PARAMS, completed_params, cquad,
                      params_matrix)


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
                                         (olct.make_grid(-8.0, 8.0, 1000), 3001)])
def test_forward_fast_path_matches_direct_to_rounding(grid, n_out):
    # chirp phases must not carry a rounding error scaled by k^2; the second
    # case has more output than input points and an even input length
    params = completed_params(0.6, 0.05)
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(grid)
    xi_grid = olct.default_xi_grid(f, params, xi_m=0.5, n=n_out)
    fast = olct.olct_forward(f, params, xi_grid, path="chirp_fft")
    direct = olct.olct_forward(f, params, xi_grid, path="direct")
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-13 * scale


def test_forward_energy_at_65537_points():
    # a rounding error scaled by k^2 in the chirp phases grows like n^2
    params = completed_params(0.6, 0.05, tau=1.0)
    f = olct.gaussian_chirp(10.0, params.chirp_rate + 1.3).sample(
        olct.make_grid(-8.0, 8.0, 65537))
    assert olct.parseval_gap(f, olct.olct_forward(f, params)) <= 1e-12


def test_import_leaves_scipy_signal_unloaded():
    # the package owns its chirp-z kernel; scipy.signal only adds import
    # time and memory
    src = str(Path(olct.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import olct, olct.cli; "
            "print('scipy.signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
