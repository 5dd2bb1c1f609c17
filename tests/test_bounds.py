import dataclasses
import math
import sys

import numpy as np
import pytest

import olct
from olct import bounds, moments, signals
from olct.errors import NumericsError

from conftest import (DEFAULT_GRID, EXAMPLE_PARAMS, chirp_demodulate,
                      completed_params, demodulation_freq, ft_eq3, rquad,
                      trapezoid_weights, weight_derivs)


# ---------------------------------------------------------------------------
# coefficients


def test_derivative_product_coeffs():
    assert bounds.derivative_product_coeff(1, 0) == 1.0
    assert bounds.derivative_product_coeff(2, 1) == -2.0
    assert bounds.derivative_product_coeff(4, 2) == 2.0
    with pytest.raises(ValueError):
        bounds.derivative_product_coeff(2, 2)
    with pytest.raises(ValueError):
        bounds.derivative_product_coeff(1, -1)


def test_modulation_square_coeffs():
    for q in range(5):
        assert bounds.modulation_square_coeff(q, q, 3.7) == 1.0
    assert bounds.modulation_square_coeff(1, 0, 2.0) == 4.0
    assert bounds.modulation_square_coeff(2, 2, 0.0) == 1.0  # alpha^0 at alpha=0
    with pytest.raises(ValueError):
        bounds.modulation_square_coeff(1, 2, 1.0)


def test_modulation_cross_coeffs():
    assert bounds.modulation_cross_coeff(1, 0, 1, 2.0) == 2.0
    with pytest.raises(ValueError):
        bounds.modulation_cross_coeff(1, 1, 1, 2.0)  # needs i < z


def test_derived_signs():
    assert bounds.derived_sign(1, 0) == -1
    assert bounds.derived_sign(2, 0) == 1
    assert bounds.derived_sign(2, 1) == -1


# ---------------------------------------------------------------------------
# weighted integrals


def test_weighted_square_integral_p1(grid):
    # p = 1, q = 0 with unit weight: the integrand is d/dt[t] |g_b|^2 and
    # the integrated-by-parts sign is (-1), so the value is minus the energy
    g = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    val = olct.hpw_core(g, olct.ft_params(), olct.HpwConfig(p=1)).core
    assert val == pytest.approx(-signals.abs_energy(g).energy, rel=1e-12)


def test_weighted_square_integral_p1_exp_weight_closed_form(grid):
    # p = 1, omega = exp(-r t), g = exp(-t^2): the core is minus the
    # integral of d/dt[t exp(-r t)] exp(-2 t^2), which is
    # -sqrt(pi/2) exp(r^2/8) (1 + r^2/4)
    g = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    for r in (0.5, 2.0, 5.0):
        cfg = olct.HpwConfig(p=1, omega=olct.exp_weight(r))
        expected = -math.sqrt(math.pi / 2) * math.exp(r * r / 8) * (1 + r * r / 4)
        assert olct.hpw_core(g, olct.ft_params(), cfg).core == pytest.approx(
            expected, rel=1e-12), r


def _spy(monkeypatch, fn, calls):
    """Record (args, result) of every call to ``fn`` through any name the
    ``olct`` package binds it to."""
    def spied(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    for name, module in list(sys.modules.items()):
        if name == "olct" or name.startswith("olct."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spied)


def test_report_derivatives_match_the_demodulated_route(grid):
    # the report reads every derivative off the bins of its one FFT and
    # sums each F_q and b^(2p) ||v||^2 on their subgrid; each, and |v| over
    # the whole grid, must match full-grid sums of the unshared route,
    # spectral differentiation of the demodulated signal on its own FFT,
    # with xi_m != tau so that the demodulation shift beta = 1 is not 0.  The
    # report makes no derivative call of its own, and evaluates the weight
    # over the whole grid only for the Gram terms' u
    params = completed_params(0.6, 0.5, tau=1.0)
    f = olct.gaussian_chirp(2.0, 1.5).sample(grid)
    omega = olct.exp_weight(1.0)
    t = grid.points()
    w = trapezoid_weights(grid.n, grid.dt)
    g_b = chirp_demodulate(f, params, 1.5)
    reference = signals.derivative(g_b, range(1, 5))
    mag = np.abs(g_b.values)
    underflow = mag < bounds.DERIV_UNDERFLOW_MASK * np.max(mag)
    evals = []
    weight_call = signals.WeightFunction.__call__

    def counted(self, t):
        evals.append(np.size(t))
        return weight_call(self, t)

    for bound in ("hpw", "shw-gram"):
        for p in (1, 2, 3, 4):
            cfg = olct.HpwConfig(p=p, xi_m=1.5, omega=omega)
            derivs, per_core = [], []

            def core(*args, **kwargs):
                out = bounds.hpw_core(*args, **kwargs)
                per_core.append(out)
                return out

            evals.clear()
            with pytest.MonkeyPatch.context() as monkeypatch:
                _spy(monkeypatch, signals.derivative, derivs)
                monkeypatch.setattr(olct.verify, "hpw_core", core)
                monkeypatch.setattr(signals.WeightFunction, "__call__",
                                    counted)
                if bound == "hpw":
                    olct.verify_hpw(f, params, cfg)
                else:
                    olct.verify_shw(f, params, cfg, a_mode="gram")
            assert derivs == [], (bound, p)
            [breakdown] = per_core
            # full-length evaluations: none for hpw, one for the gram u
            assert evals.count(grid.n) == (0 if bound == "hpw" else 1), (
                bound, p)
            for term in breakdown.terms:
                q = term.q
                sq = (np.where(underflow, 0.0, np.abs(reference[q].values))
                      if q else mag) ** 2
                wd = bounds.weight_deriv_centered(omega, p, cfg.t_m,
                                                  [p - 2 * q], t)[p - 2 * q]
                f_q = (-1) ** p * float(np.sum(w * wd * sq))
                assert term.value == pytest.approx(f_q, rel=1e-12), (bound, p, q)
            v, v_ref = np.abs(breakdown.v().values), np.abs(reference[p].values)
            b2p = params.b ** (2 * p)
            assert b2p * breakdown.v_energy == pytest.approx(
                b2p * float(np.sum(w * v_ref * v_ref)), rel=1e-12), (bound, p)
            assert np.max(np.abs(v - v_ref)) <= 1e-10 * np.max(v_ref), (bound, p)


def test_subgrid_report_matches_full_grid_sums_on_the_benchmark_grid():
    # an exp-weight p = 4 report on -8:8:65537 sums its smooth integrands
    # on a subgrid; every F_q, mu_t, e_f and b^(2p) ||v||^2 must match the
    # trapezoid sums over every sample of the demodulated route, with
    # xi_m != tau and the weight growing towards t = -8
    grid = olct.make_grid(-8.0, 8.0, 65537)
    params = completed_params(0.6, 0.5, tau=1.0)
    f = olct.gaussian_chirp(2.0, params.chirp_rate + 0.5).sample(grid)
    cfg = olct.HpwConfig(p=4, t_m=0.3, xi_m=params.tau + 0.5,
                         omega=olct.exp_weight(3.0))
    assert olct.transform.bin_spectrum(f, params, cfg.xi_m).subgrid.step > 1
    per_core = []

    def core(*args, **kwargs):
        per_core.append(bounds.hpw_core(*args, **kwargs))
        return per_core[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(olct.verify, "hpw_core", core)
        report = olct.verify_hpw(f, params, cfg)
    [breakdown] = per_core
    t = grid.points()
    w = trapezoid_weights(grid.n, grid.dt)
    g_b = chirp_demodulate(f, params, cfg.xi_m)
    reference = signals.derivative(g_b, [1, 2, 4])
    mag = np.abs(g_b.values)
    underflow = mag < bounds.DERIV_UNDERFLOW_MASK * np.max(mag)
    omega = cfg.omega(t)
    assert report.energy == pytest.approx(float(np.sum(w * mag ** 2)),
                                          rel=1e-12)
    assert report.mu_time == pytest.approx(
        float(np.sum(w * (omega * mag) ** 2 * (t - cfg.t_m) ** 8)), rel=1e-12)
    for term in breakdown.terms:
        q = term.q
        sq = (np.where(underflow, 0.0, np.abs(reference[q].values))
              if q else mag) ** 2
        wd = bounds.weight_deriv_centered(cfg.omega, 4, cfg.t_m, [4 - 2 * q],
                                          t)[4 - 2 * q]
        assert term.value == pytest.approx(float(np.sum(w * wd * sq)),
                                           rel=1e-12), q
    v_ref = np.abs(reference[4].values)
    assert params.b ** 8 * breakdown.v_energy == pytest.approx(
        params.b ** 8 * float(np.sum(w * v_ref ** 2)), rel=1e-12)


def test_weight_deriv_centered_leibniz():
    w = olct.exp_weight(2.0)
    t = np.linspace(-1.5, 1.5, 11)
    # [(t - 0.3)^2 e^{-2t}]'' by hand
    u = t - 0.3
    expected = np.exp(-2 * t) * (2.0 - 8.0 * u + 4.0 * u * u)
    got = bounds.weight_deriv_centered(w, 2, 0.3, [2], t)[2]
    assert np.max(np.abs(got - expected)) < 1e-12


def _term_sum_weight_deriv(omega, p, t_m, k, t):
    """The k-th derivative of (t - t_m)^p omega(t) as the term-by-term sum
    of the Leibniz terms, each power as |t - t_m|^e with the sign of
    t - t_m restored for odd e."""
    d = t - t_m

    def power(e):
        out = np.abs(d) ** e
        return np.copysign(out, d) if e % 2 else out

    return sum(math.comb(k, m) * math.perm(p, m) * power(p - m)
               * weight_derivs(omega, t, [k - m])[k - m]
               for m in range(min(k, p) + 1))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("omega", [olct.unit_weight(), olct.exp_weight(2.0)],
                         ids=["unit", "exp"])
def test_weight_deriv_centered_is_bit_identical_to_term_sum(p, omega):
    # t_m = 0 and t_m = -1.5 fall on grid points, so the signs of the zeros
    # of odd powers count too
    t = olct.make_grid(-8.0, 8.0, 4097).points()
    for t_m in (0.0, 0.3, -1.5):
        orders = range(p + 3)
        got = bounds.weight_deriv_centered(omega, p, t_m, orders, t)
        for k in orders:
            ref = _term_sum_weight_deriv(omega, p, t_m, k, t)
            assert np.array_equal(got[k].view(np.uint64),
                                  ref.view(np.uint64)), (t_m, k)


def test_default_unit_gaussian_is_bit_identical_to_complex_division():
    # h is formed on a real array and scaled by 1/||h||; dividing the
    # complex samples by ||h|| rounds the same way
    for n, t_m in [(151, 0.0), (4097, 0.3), (65537, -2.5)]:
        grid = olct.make_grid(-8.0, 8.0, n)
        t = grid.points()
        raw = olct.SampledSignal(
            grid, np.exp(-((t - t_m) ** 2) / 2.0) / np.pi**0.25)
        ref = raw.values / math.sqrt(signals.abs_energy(raw).energy)
        h = bounds.default_unit_gaussian(grid, t_m)
        assert np.array_equal(h.mag.astype(np.complex128).view(np.uint64),
                              ref.view(np.uint64))
        assert math.sqrt(h.energy) == pytest.approx(1.0, abs=1e-14)


def test_default_unit_gaussian_rejects_a_vanishing_gaussian():
    with pytest.raises(NumericsError, match="vanishes on the grid"):
        bounds.default_unit_gaussian(olct.make_grid(-1.0, 1.0, 151), 40.0)


# ---------------------------------------------------------------------------
# the bound functional


def test_core_p1_unit_weight_is_energy(grid, example_params):
    f = olct.gaussian_chirp(2.0, example_params.chirp_rate).sample(grid)
    breakdown = olct.hpw_core(f, example_params, olct.HpwConfig(p=1))
    e_f = signals.abs_energy(f).energy
    assert abs(breakdown.core) == pytest.approx(e_f, rel=1e-10)
    # integrated-by-parts sign makes the functional the negative closed form
    assert breakdown.core == pytest.approx(-e_f, rel=1e-10)


def test_core_p1_weighted_oracle(example_signal, example_params):
    cfg = olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))
    breakdown = olct.hpw_core(example_signal, example_params, cfg)
    oracle = rquad(lambda t: (1 - 2 * t) * np.exp(-2 * t - 2 * t * t), -30, 30)
    assert abs(breakdown.core) == pytest.approx(abs(oracle), rel=1e-8)
    assert breakdown.core == pytest.approx(-oracle, rel=1e-8)
    assert oracle == pytest.approx(2.0 * math.exp(0.5) * math.sqrt(math.pi / 2.0),
                                   rel=1e-10)


@pytest.mark.parametrize("t_m", [0.0, 0.4])
@pytest.mark.parametrize("weight_rate", [None, 1.0, 3.0])
@pytest.mark.parametrize("params", [EXAMPLE_PARAMS, completed_params(0.6, 0.5),
                                    completed_params(0.0, 1.0, tau=1.0)])
def test_core_matches_second_order_closed_form(t_m, weight_rate, params):
    w = olct.unit_weight() if weight_rate is None else olct.exp_weight(weight_rate)
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(DEFAULT_GRID)
    cfg = olct.HpwConfig(p=1, t_m=t_m, omega=w)
    breakdown = olct.hpw_core(f, params, cfg)
    closed = olct.second_order_core_closed_form(f, w, t_m)
    assert abs(breakdown.core) == pytest.approx(abs(closed), rel=1e-6)
    assert breakdown.core == pytest.approx(-closed, rel=1e-6)


def test_core_p2_unweighted_gaussian(grid):
    # q=0 term: integral (t^2)'' e^{-2t^2} = 2 sqrt(pi/2); q=1 term (alpha=0):
    # D_1 * integral t^2 |g'|^2 = -2 * (3/4) sqrt(pi/2); total (1/2) sqrt(pi/2)
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    breakdown = olct.hpw_core(f, olct.ft_params(), olct.HpwConfig(p=2))
    assert breakdown.core == pytest.approx(0.5 * math.sqrt(math.pi / 2.0), rel=1e-8)
    assert [term.q for term in breakdown.terms] == [0, 1]
    assert breakdown.terms[0].coeff == 1.0
    assert breakdown.terms[1].coeff == -2.0


@pytest.mark.parametrize("beta", [20.0, 60.0, 200.0])
def test_core_p2_modulated_gaussian_keeps_digits(grid, beta):
    # demodulating at xi_m = beta cancels the modulation exactly, so the
    # functional is the unmodulated (1/2) sqrt(pi/2) however large beta is
    t = grid.points()
    f = olct.SampledSignal(grid, np.exp(-t * t + 1j * beta * t))
    core = olct.hpw_core(f, olct.ft_params(), olct.HpwConfig(p=2, xi_m=beta)).core
    assert abs(core - 0.5 * math.sqrt(math.pi / 2.0)) <= 1e-13


def test_core_p2_weighted_modulated_oracle():
    """Full independent check of the p = 2 machinery with active cross terms.

    The oracle rebuilds E = sum_q D_q F_q from scratch: analytic derivatives
    of the chirp-multiplied signal, hand-expanded weight derivatives, and
    adaptive quadrature, sharing no code with the library path.
    """
    params = completed_params(0.6, 0.5, tau=1.0)   # chirp rate 0.6
    f = olct.gaussian_chirp(2.0, 1.5).sample(DEFAULT_GRID)
    t_m, xi_m = 0.2, 1.5
    cfg = olct.HpwConfig(p=2, t_m=t_m, xi_m=xi_m, omega=olct.exp_weight(1.0))
    breakdown = olct.hpw_core(f, params, cfg)

    alpha = (xi_m - params.tau) / params.b          # = 1.0
    gam = -1.0 + 1j * (params.chirp_rate - 1.5)     # g = exp(gam t^2)
    g0 = lambda t: np.exp(gam * t * t)
    g1 = lambda t: 2.0 * gam * t * np.exp(gam * t * t)

    def w2(t, order):
        # derivatives of (t - t_m)^2 e^{-t}
        u = t - t_m
        if order == 0:
            return u * u * np.exp(-t)
        if order == 2:
            return np.exp(-t) * (2.0 - 4.0 * u + u * u)
        raise AssertionError

    i_00 = rquad(lambda t: w2(t, 2) * abs(g0(t)) ** 2, -30, 30)
    i_10 = rquad(lambda t: w2(t, 0) * abs(g0(t)) ** 2, -30, 30)
    i_11 = rquad(lambda t: w2(t, 0) * abs(g1(t)) ** 2, -30, 30)
    i_101 = rquad(lambda t: w2(t, 0)
                  * np.real(1j * g0(t) * np.conj(g1(t))), -30, 30)
    f0 = i_00                                        # B_00 = 1, sign (+1)^2
    f1 = alpha**2 * i_10 + i_11 + 2.0 * (-alpha) * i_101
    oracle = 1.0 * f0 + (-2.0) * f1
    assert breakdown.core == pytest.approx(oracle, rel=1e-6)


def test_core_assembles_from_public_integrals(grid):
    # the functional on the demodulated signal must agree with the paper's
    # expansion of |g_b^(q)|^2 into square and cross terms of derivatives of
    # the chirp-multiplied signal g, assembled here from the coefficient
    # functions
    params = completed_params(0.6, 0.5, tau=1.0)
    f = olct.gaussian_chirp(2.0, 1.5).sample(grid)
    t = grid.points()
    g = f.with_values(f.values * np.exp(1j * params.chirp_rate * t * t))
    keep = np.abs(g.values) >= 1e-13 * np.max(np.abs(g.values))
    derivs = [g.values] + [np.where(keep, signals.derivative(g, [k])[k].values, 0.0)
                           for k in (1, 2)]
    w = trapezoid_weights(grid.n, grid.dt)
    for p in (2, 3, 4):
        cfg = olct.HpwConfig(p=p, t_m=0.2, xi_m=1.5, omega=olct.exp_weight(1.0))
        breakdown = olct.hpw_core(f, params, cfg)
        alpha = demodulation_freq(params, cfg.xi_m)
        total = 0.0
        for q in range(p // 2 + 1):
            sq = sum(bounds.modulation_square_coeff(q, n, alpha)
                     * np.abs(derivs[n]) ** 2 for n in range(q + 1))
            for i in range(q + 1):
                for z in range(i + 1, q + 1):
                    c = (bounds.derived_sign(q, i)
                         * bounds.modulation_cross_coeff(q, i, z, alpha))
                    sq = sq + 2.0 * c * np.real(
                        bounds.half_power(q - (i + z) / 2.0)
                        * derivs[i] * np.conj(derivs[z]))
            wd = bounds.weight_deriv_centered(cfg.omega, p, cfg.t_m,
                                              [p - 2 * q], t)[p - 2 * q]
            f_q = (-1) ** (p - 2 * q) * float(np.sum(w * wd * sq))
            total += bounds.derivative_product_coeff(p, q) * f_q
        assert breakdown.core == pytest.approx(total, rel=1e-12)


def test_core_rejects_degenerate(grid):
    f = olct.SampledSignal(grid, np.exp(-grid.points() ** 2))
    with pytest.raises(ValueError, match="b != 0"):
        olct.hpw_core(f, olct.OlctParams(2.0, 0.0, 0.0, 0.5), olct.HpwConfig(p=1))


def test_hpw_config_validation():
    with pytest.raises(ValueError):
        olct.HpwConfig(p=0)
    with pytest.raises(ValueError):
        olct.HpwConfig(p=5)


@pytest.mark.parametrize("p", [np.int64(2), np.int32(2), 2])
def test_hpw_config_takes_any_integer_order_as_int(p):
    # the order verify_hw and time_moment_2p accept, stored as a Python int
    cfg = olct.HpwConfig(p=p)
    assert cfg.p == 2 and type(cfg.p) is int
    assert cfg == olct.HpwConfig(p=2)


@pytest.mark.parametrize("p", [True, np.True_, 2.0, "2", None])
def test_hpw_config_refuses_a_non_integer_order(p):
    with pytest.raises(ValueError, match="half-order p must be an integer"):
        olct.HpwConfig(p=p)


# ---------------------------------------------------------------------------
# gram terms


def test_gram_offset_symmetric_cases(grid):
    h = bounds.default_unit_gaussian(grid)
    u = signals.abs_energy(olct.SampledSignal(grid, 1.7 * h.mag))
    assert abs(bounds.gram_offset(u, u, h)) <= 1e-12
    assert abs(bounds.gram_offset(h, h, h)) <= 1e-12


def test_gram_offset_rejects_unnormalized(grid):
    h = bounds.default_unit_gaussian(grid)
    bad = signals.abs_energy(olct.SampledSignal(grid, 2.0 * h.mag))
    with pytest.raises(NumericsError, match="unit norm"):
        bounds.gram_offset(h, h, bad)


def test_gram_offset_is_admissible(example_signal, example_params):
    cfg = olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))
    u, v = map(signals.abs_energy,
               bounds.moment_pair(example_signal, example_params, cfg))
    h = bounds.default_unit_gaussian(example_signal.grid)
    a = bounds.gram_offset(u, v, h)
    a_star = bounds.saturating_gram_term(u, v)
    assert abs(a) <= a_star * (1.0 + 1e-12)


def test_saturating_term_definition(example_signal, example_params):
    cfg = olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))
    u, v = bounds.moment_pair(example_signal, example_params, cfg)
    abs_u, abs_v = signals.abs_energy(u), signals.abs_energy(v)
    a_star = bounds.saturating_gram_term(abs_u, abs_v)
    w = trapezoid_weights(u.grid.n, u.grid.dt)
    uv = float(np.sum(w * np.abs(u.values) * np.abs(v.values)))
    assert a_star**2 + uv**2 == pytest.approx(
        abs_u.energy * abs_v.energy, rel=1e-12)


def test_saturating_term_zero_for_proportional_pair(grid, example_params):
    # with a unit weight the minimizer gives |u| proportional to |v|
    f = olct.minimizer_signal(1.0, 1.0, 0.0, 0.0, example_params).sample(grid)
    cfg = olct.HpwConfig(p=1)
    u, v = map(signals.abs_energy, bounds.moment_pair(f, example_params, cfg))
    a_star = bounds.saturating_gram_term(u, v)
    assert a_star**2 <= 1e-10 * u.energy * v.energy


# ---------------------------------------------------------------------------
# right-hand sides


def test_rhs_values_and_ordering():
    assert bounds.hpw_rhs(0.0, 0.5, 1) == 0.0
    assert bounds.shw_rhs(2.0, 0.05, 1) == pytest.approx(0.05)
    core, b, p = -1.3, 0.4, 2
    plain = bounds.hpw_rhs(core, b, p)
    for a in (0.0, 1e-3, 0.5, 10.0):
        sharp = bounds.shw_rhs(math.hypot(core, 2 * a), b, p)
        if a == 0.0:
            assert sharp == plain
        else:
            assert sharp > plain
    with pytest.raises(ValueError):
        bounds.hw_rhs(1.0, 0.5, 1)
    with pytest.raises(ValueError):
        bounds.hpw_rhs(1.0, 0.0, 1)


def test_breakdown_sharpening_invariants(example_signal, example_params):
    cfg = olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))
    for a in (0.0, 0.3, 2.0):
        report = olct.verify_shw(example_signal, example_params, cfg,
                                 a_mode="fixed", a_value=a)
        assert report.sharpened >= abs(report.core)
        assert report.shw_rhs >= report.hpw_rhs
        if a == 0.0:
            assert report.sharpened == abs(report.core)
            assert report.shw_rhs == report.hpw_rhs
        else:
            assert report.shw_rhs - report.hpw_rhs > 1e-12


def test_breakdown_carries_only_what_hpw_core_computes():
    assert [f.name for f in dataclasses.fields(bounds.BoundBreakdown)] == [
        "core", "terms", "v_energy", "bins", "cfg"]


# ---------------------------------------------------------------------------
# closed-form bound pair


def test_sharpened_bound_closed_form_value():
    val = olct.sharpened_bound_closed_form(2.0, 0.05)
    assert val == pytest.approx((0.0025 / 2.0) * math.pi * math.exp(2.0) * 1.25,
                                rel=1e-14)
    assert val == pytest.approx(0.036270944308380286, rel=1e-12)


def test_gap_factor_positive():
    for r in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert olct.bound_gap_factor(r) > 0.0


def test_bound_difference_identity():
    for r in (0.1, 0.37, 1.0, 2.0, 4.5, 9.95):
        for b in (0.05, 1.0):
            diff = (olct.sharpened_bound_closed_form(r, b)
                    - olct.reference_bound_closed_form(r, b))
            identity = (b * b / 2.0) * math.pi * math.exp(r / 2.0) \
                * olct.bound_gap_factor(r)
            assert diff == pytest.approx(identity, rel=1e-10)


def test_closed_forms_reject_nonpositive_r():
    for fn in (olct.sharpened_bound_closed_form, olct.reference_bound_closed_form):
        with pytest.raises(ValueError):
            fn(0.0, 1.0)
    with pytest.raises(ValueError):
        olct.bound_gap_factor(-1.0)


@pytest.mark.parametrize("fn, r_ok, r_over", [
    (lambda r: olct.sharpened_bound_closed_form(r, 1.0), 700.0, 709.5),
    (lambda r: olct.reference_bound_closed_form(r, 1.0), 1400.0, 1450.0),
    (olct.bound_gap_factor, 1400.0, 1450.0),
    (lambda r: olct.sharpened_bound_closed_form(r, 1e160), None, 2.0),
], ids=["sharpened", "reference", "gap", "sharpened-large-b"])
def test_closed_forms_raise_numerics_error_past_float64(fn, r_ok, r_over):
    # math.exp raises OverflowError past e^709.78; a finite exponential can
    # still overflow in the product, which would return inf
    if r_ok is not None:
        assert math.isfinite(fn(r_ok))
    with pytest.raises(NumericsError,
                       match=rf"at r={r_over!r} overflows float64"):
        fn(r_over)


# ---------------------------------------------------------------------------
# reduction to the plain Fourier convention


def test_ft_reduction_bridges_conventions(grid):
    """With the Fourier parameter set, the bound equals 2*pi times the bound
    of the cycles-convention pipeline evaluated at sigma_m = xi_m / (2*pi)."""
    f = olct.gaussian_chirp(2.0, 0.8).sample(grid)
    w = olct.exp_weight(1.0)
    t_m, xi_m = 0.1, 0.7
    cfg = olct.HpwConfig(p=1, t_m=t_m, xi_m=xi_m, omega=w)
    ft = olct.ft_params()

    spec = olct.olct_forward(f, ft, olct.default_xi_grid(f, ft, xi_m=xi_m))
    mu_t = moments.time_moment_2p(signals.abs_energy(f), 1, t_m, w)
    mu_s = moments.spectral_moment_2p(spec, 1, xi_m)
    lhs_olct = math.sqrt(mu_t) * math.sqrt(mu_s)
    rhs_olct = bounds.hpw_rhs(olct.hpw_core(f, ft, cfg).core, ft.b, 1)

    # cycles-convention side, fully independent quadrature
    sigma_m = xi_m / (2.0 * math.pi)
    sigma = np.linspace(-4.0, 4.0, 2049)
    fhat = ft_eq3(f, sigma)
    w_s = trapezoid_weights(2049, sigma[1] - sigma[0])
    mu_s_ft = float(np.sum(w_s * (sigma - sigma_m) ** 2 * np.abs(fhat) ** 2))
    lhs_ft = math.sqrt(mu_t) * math.sqrt(mu_s_ft)
    core_ft = rquad(lambda t: (np.exp(-t) - (t - t_m) * np.exp(-t))
                    * np.exp(-2 * t * t), -30, 30)
    rhs_ft = 1.0 / (2.0 * math.pi * 2.0) * abs(core_ft)

    assert lhs_olct == pytest.approx(2.0 * math.pi * lhs_ft, rel=1e-5)
    assert rhs_olct == pytest.approx(2.0 * math.pi * rhs_ft, rel=1e-5)


# ---------------------------------------------------------------------------
# identity validators


def test_identity1_product_rule(grid):
    f = olct.gaussian_chirp(2.0, 0.0)
    assert olct.check_identity1(f, 1, grid) <= 1e-8


def test_identity1_second_order_chirp(grid):
    f = olct.gaussian_chirp(2.0, 3.0)
    assert olct.check_identity1(f, 2, grid) <= 1e-6


def test_identity1_real_odd_order(grid):
    f = olct.gaussian_chirp(2.0, 0.0)
    assert olct.check_identity1(f, 3, grid) <= 1e-6


def test_identity2_order_zero(grid):
    f = olct.gaussian_chirp(2.0, 1.0)
    fit = olct.check_identity2(f, 2.0, 0, grid)
    assert fit.residual <= 1e-12


def test_identity2_first_order(grid):
    f = olct.gaussian_chirp(2.0, 0.0)
    fit = olct.check_identity2(f, 2.0, 1, grid)
    assert fit.best_residual <= 1e-6
    assert fit.residual <= 1e-6  # derived convention already satisfies it


def test_identity2_zero_modulation_kills_cross_terms(grid):
    f = olct.gaussian_chirp(2.0, 1.3)
    fit = olct.check_identity2(f, 0.0, 1, grid)
    assert fit.residual <= 1e-8


@pytest.mark.parametrize("q,expected", [
    (1, {(1, 0): -1}),
    (2, {(2, 0): 1, (2, 1): -1}),
])
def test_identity2_sign_search_finds_derived_assignment(grid, q, expected):
    # a complex chirp is needed: cross terms vanish identically on real signals
    f = olct.gaussian_chirp(2.0, 0.7)
    fit = olct.check_identity2(f, 2.0, q, grid)
    assert fit.best_signs == expected
    assert fit.best_residual <= 1e-6
    print(f"q={q}: identity-satisfying signs {fit.best_signs}")


def test_identity2_rejects_large_q(grid):
    f = olct.gaussian_chirp(2.0, 0.0)
    with pytest.raises(ValueError):
        olct.check_identity2(f, 1.0, 3, grid)
