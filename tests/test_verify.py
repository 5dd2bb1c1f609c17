import math

import numpy as np
import pytest

import olct

from conftest import DEFAULT_GRID, EXAMPLE_PARAMS, completed_params


@pytest.fixture(scope="module")
def example_cfg():
    return olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))


# ---------------------------------------------------------------------------
# 2p-order verification


def test_verify_hpw_example_scenario(example_signal, example_params, example_cfg):
    report = olct.verify_hpw(example_signal, example_params, example_cfg,
                             scenario="weighted-chirp")
    assert report.passed_hpw
    assert report.slack_hpw > 0.0
    assert report.ppr_gap <= 1e-6
    assert report.parseval_gap <= 1e-6
    assert report.scenario == "weighted-chirp"


@pytest.mark.parametrize("verify", [olct.verify_hpw, olct.verify_shw])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_one_transform_per_report(verify, p, example_signal, example_params,
                                  monkeypatch):
    calls = []
    forward = olct.olct_forward

    def counted(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    cfg = olct.HpwConfig(p=p, xi_m=0.3, omega=olct.exp_weight(2.0))
    with monkeypatch.context() as patch:
        patch.setattr(olct.verify, "olct_forward", counted)
        patch.setattr(olct.moments, "olct_forward", counted)
        report = verify(example_signal, example_params, cfg)
    assert len(calls) == 1
    # the report's identity gap is the one ppr_check computes on its own
    ppr = olct.ppr_check(example_signal, example_params, p, cfg.xi_m)
    assert report.ppr_gap == ppr.rel_gap
    assert report.mu_spec == ppr.lhs


def test_verify_hpw_minimizer_equality(example_params):
    f = olct.minimizer_signal(1.0, 1.0, 0.0, 0.0, example_params).sample(DEFAULT_GRID)
    report = olct.verify_hpw(f, example_params, olct.HpwConfig(p=1))
    assert report.passed_hpw
    assert abs(report.rel_slack_hpw) <= 1e-3


def test_verify_hpw_minimizer_equality_ft():
    f = olct.minimizer_signal(1.0, 2.0, 0.3, 0.4, olct.ft_params()).sample(DEFAULT_GRID)
    report = olct.verify_hpw(f, olct.ft_params(),
                             olct.HpwConfig(p=1, t_m=0.3, xi_m=0.4))
    assert report.passed_hpw
    assert abs(report.rel_slack_hpw) <= 1e-3


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("params", [EXAMPLE_PARAMS,
                                    completed_params(0.6, 0.5, tau=1.0, eta=1.0),
                                    completed_params(0.0, 1.0)])
def test_verify_hpw_matrix_sound(p, params):
    f = olct.gaussian_chirp(2.0, params.chirp_rate).sample(DEFAULT_GRID)
    cfg = olct.HpwConfig(p=p, omega=olct.exp_weight(2.0),
                         xi_m=params.tau + 0.5)
    report = olct.verify_hpw(f, params, cfg)
    assert report.slack_hpw >= -1e-6 * report.lhs


# ---------------------------------------------------------------------------
# sharpened verification


def test_verify_shw_zero_mode_reduces(example_signal, example_params, example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="zero")
    assert report.shw_rhs == report.hpw_rhs
    assert report.gram_term == 0.0
    assert report.passed


def test_verify_shw_saturating_equality(example_signal, example_params, example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="saturating")
    assert report.passed_shw
    assert abs(report.rel_slack_shw) <= 1e-6
    assert report.shw_rhs >= report.hpw_rhs
    assert report.slack_shw <= report.slack_hpw


def test_verify_shw_saturating_gram_identity(example_signal, example_params,
                                             example_cfg):
    # lhs^(2p) = b^(2p) ((|u|,|v|)^2 + A*^2) in saturating mode
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="saturating")
    u, v = olct.bounds.moment_pair(example_signal, example_params, example_cfg)
    w = olct.signals.quadrature_weights(u.grid.n, u.grid.dt)
    uv = float(np.sum(w * np.abs(u.values) * np.abs(v.values)))
    rhs = example_params.b ** 2 * (uv**2 + report.gram_term**2)
    assert report.lhs**2 == pytest.approx(rhs, rel=1e-6)


def test_verify_shw_gram_mode(example_signal, example_params, example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="gram")
    assert report.a_admissible
    assert report.passed_shw
    assert report.shw_rhs >= report.hpw_rhs


def test_verify_shw_fixed_mode(example_signal, example_params, example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="fixed", a_value=0.5)
    assert report.a_mode == "fixed"
    assert report.gram_term == 0.5
    assert report.sharpened == pytest.approx(
        math.hypot(report.core, 1.0), rel=1e-12)


def test_verify_shw_fixed_inadmissible_flagged(example_signal, example_params,
                                               example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="fixed", a_value=1e3)
    assert not report.a_admissible
    assert report.slack_shw < 0.0
    # out-of-range auxiliary term is flagged, not counted as a bound failure
    assert report.passed_shw


def test_verify_shw_requires_a_value(example_signal, example_params, example_cfg):
    with pytest.raises(ValueError, match="a_value"):
        olct.verify_shw(example_signal, example_params, example_cfg,
                        a_mode="fixed")
    with pytest.raises(ValueError, match="a_mode"):
        olct.verify_shw(example_signal, example_params, example_cfg,
                        a_mode="nope")


# ---------------------------------------------------------------------------
# absolute-moment verification


@pytest.mark.parametrize("p", [2, 3, 4])
def test_verify_hw_gaussian_family(p, example_signal, example_params):
    report = olct.verify_hw(example_signal, example_params, p)
    assert report.passed_hw
    assert report.slack_hw >= -1e-6 * report.lhs
    assert report.holder_time_slack >= -1e-8 * report.mu_time
    assert report.holder_spec_slack >= -1e-8 * report.mu_spec


def test_verify_hw_p2_matches_second_order_case(example_signal, example_params):
    hw = olct.verify_hw(example_signal, example_params, 2)
    hpw = olct.verify_hpw(example_signal, example_params, olct.HpwConfig(p=1))
    assert hw.lhs == pytest.approx(hpw.lhs, rel=1e-10)
    assert hw.hw_rhs == pytest.approx(hpw.hpw_rhs, rel=1e-8)


def test_verify_hw_rejects_low_order(example_signal, example_params):
    with pytest.raises(ValueError):
        olct.verify_hw(example_signal, example_params, 1)


# ---------------------------------------------------------------------------
# error propagation


def test_numerics_errors_carry_scenario_label(example_params):
    from olct.errors import NumericsError

    wide = olct.gaussian_chirp(0.05, 0.0).sample(DEFAULT_GRID)
    with pytest.raises(NumericsError, match=r"\[slow-decay\]"):
        olct.verify_hpw(wide, example_params, olct.HpwConfig(p=1),
                        scenario="slow-decay")


# ---------------------------------------------------------------------------
# scale covariance


def test_scale_covariance(example_signal, example_params, example_cfg):
    kappa = 2.5
    scaled = example_signal.with_values(kappa * example_signal.values)
    base = olct.verify_hpw(example_signal, example_params, example_cfg)
    big = olct.verify_hpw(scaled, example_params, example_cfg)
    factor = kappa**2
    assert big.lhs == pytest.approx(factor * base.lhs, rel=1e-10)
    assert big.hpw_rhs == pytest.approx(factor * base.hpw_rhs, rel=1e-10)
    assert big.rel_slack_hpw == pytest.approx(base.rel_slack_hpw, abs=1e-10)


# ---------------------------------------------------------------------------
# minimizer properties


def test_minimizer_magnitude_independent_of_params():
    t = np.linspace(-3, 3, 31)
    f1 = olct.minimizer_signal(1.0, 1.5, 0.2, 0.7, EXAMPLE_PARAMS)
    f2 = olct.minimizer_signal(1.0, 1.5, 0.2, 0.7, completed_params(6.0, 0.5))
    assert np.max(np.abs(np.abs(f1(t)) - np.abs(f2(t)))) <= 1e-14


def test_minimizer_demodulates_to_centered_gaussian(example_params):
    c0, c_p, t_m = 0.8, 1.3, 0.4
    f = olct.minimizer_signal(c0, c_p, t_m, 0.6, example_params).sample(DEFAULT_GRID)
    g_b = olct.moments.chirp_demodulate(f, example_params, xi_m=0.6)
    t = DEFAULT_GRID.points()
    expected = c0 * np.exp(-c_p * (t - t_m) ** 2)
    assert np.max(np.abs(np.abs(g_b.values) - expected)) <= 1e-12


def test_minimizer_rejects_bad_rate(example_params):
    with pytest.raises(ValueError):
        olct.minimizer_signal(1.0, 0.0, 0.0, 0.0, example_params)
    with pytest.raises(ValueError):
        olct.minimizer_signal(1.0, -1.0, 0.0, 0.0, example_params)


def test_minimizer_simple_substitution():
    params = completed_params(0.6, 0.05)
    f = olct.minimizer_signal(1.0, 1.0, 0.0, 0.0, params)
    t = np.linspace(-2, 2, 21)
    expected = np.exp(-t**2) * np.exp(-1j * params.chirp_rate * t**2)
    assert np.max(np.abs(f(t) - expected)) <= 1e-14


# ---------------------------------------------------------------------------
# sweeps


def test_family_grid_widens_for_slow_decay():
    g_wide = olct.verify.family_grid(0.5)
    g_base = olct.verify.family_grid(2.0)
    assert g_base.t_max == 8.0
    assert g_wide.t_max > 8.0
    # slow-decay family fits the widened grid
    f = olct.gaussian_chirp(0.5, 0.0).sample(g_wide)
    olct.signals.derivative(f, 1)  # must not raise


@pytest.mark.parametrize("scenario", ["a0", "a1"])
def test_sweep_strict_inequality(scenario):
    params = olct.ft_params()  # b = 1, tau = 0
    rows = olct.sweep_r(np.arange(0.5, 5.01, 0.5), scenario, params)
    assert len(rows) == 10
    assert [row.r for row in rows] == sorted(row.r for row in rows)
    for row in rows:
        assert row.lhs > row.rhs, f"r={row.r}: {row.lhs} <= {row.rhs}"


def test_sweep_gram_mode_recorded():
    rows = olct.sweep_r([0.5, 1.0, 2.0], "gram", olct.ft_params())
    for row in rows:
        # gram-offset term stays admissible: no bound violation
        assert row.lhs >= row.rhs - 1e-6 * row.lhs
    gaps = [(row.lhs - row.rhs) / row.lhs for row in rows]
    print(f"gram-mode relative gaps: {gaps}")


def test_sweep_saturating_near_equality():
    rows = olct.sweep_r([0.5, 2.0, 5.0], "saturating", olct.ft_params())
    for row in rows:
        assert row.lhs == pytest.approx(row.rhs, rel=1e-6)


def test_sweep_single_row_matches_pipeline(example_signal, example_params,
                                           example_cfg):
    rows = olct.sweep_r([2.0], "saturating", example_params)
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="saturating")
    assert rows[0].lhs == pytest.approx(report.lhs, rel=1e-12)
    assert rows[0].rhs == pytest.approx(report.shw_rhs, rel=1e-12)


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError, match="scenario"):
        olct.sweep_r([1.0], "nope", olct.ft_params())
    with pytest.raises(ValueError, match="positive"):
        olct.sweep_r([0.0], "a0", olct.ft_params())


# ---------------------------------------------------------------------------
# serialization


def test_report_csv_layout(example_signal, example_params, example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             scenario="csv-check")
    text = olct.reports_to_csv([report])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(olct.REPORT_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(olct.REPORT_COLUMNS, lines[1].split(",")))
    assert row["scenario"] == "csv-check"
    assert row["hw_rhs"] == ""            # not computed for this bound
    assert float(row["lhs"]) == report.lhs
    assert row["b"] == "0.050000000000000003"


def test_report_json_roundtrip(example_signal, example_params, example_cfg):
    import json

    report = olct.verify_hpw(example_signal, example_params, example_cfg)
    data = json.loads(olct.report_to_json(report))
    assert data["lhs"] == report.lhs
    assert data["p"] == 1
    assert data["tau"] == 0.0


def test_report_serialization_deterministic(example_signal, example_params,
                                            example_cfg):
    rep1 = olct.verify_shw(example_signal, example_params, example_cfg)
    rep2 = olct.verify_shw(example_signal, example_params, example_cfg)
    assert olct.reports_to_csv([rep1]) == olct.reports_to_csv([rep2])
    assert olct.report_to_json(rep1) == olct.report_to_json(rep2)
