import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olct

from olct.verify import csv_text, fmt

from conftest import (DEFAULT_GRID, EXAMPLE_PARAMS, chirp_demodulate,
                      completed_params, trapezoid_weights)


@pytest.fixture(scope="module")
def example_cfg():
    return olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))


# ---------------------------------------------------------------------------
# 2p-order verification


# The tracemalloc peaks of one report on the benchmark's grid -8:8:65537,
# above what was allocated before it, with numpy 2.4.6: 3.52 MiB for the
# gram verify_shw at p = 4, which forms the Gram terms' u and v over the
# whole grid, and 2.63 MiB for verify_hpw at p = 1, which forms neither.
# numpy reports its array buffers to tracemalloc, so for one numpy build
# the peak is the same on every run; each limit is that peak plus 1 MiB.
WORKING_SET_MIB = {(olct.verify_shw, 4): 3.52 + 1.0,
                   (olct.verify_hpw, 1): 2.63 + 1.0}


@pytest.mark.parametrize("verify, p", list(WORKING_SET_MIB),
                         ids=["shw-gram-p4", "hpw-p1"])
def test_report_working_set_on_the_benchmark_grid(verify, p):
    grid = olct.make_grid(-8.0, 8.0, 65537)
    params = completed_params(0.6, 0.5, tau=1.0)
    f = olct.gaussian_chirp(2.0, params.chirp_rate + 0.5).sample(grid)
    cfg = olct.HpwConfig(p=p, t_m=0.3, xi_m=params.tau + 0.5,
                         omega=olct.exp_weight(2.0))
    kwargs = {"a_mode": "gram"} if verify is olct.verify_shw else {}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verify(f, params, cfg, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= WORKING_SET_MIB[verify, p] * 2**20


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
    fft = np.fft.fft

    def counted(*args, **kwargs):
        calls.append(args)
        return fft(*args, **kwargs)

    cfg = olct.HpwConfig(p=p, xi_m=0.3, omega=olct.exp_weight(2.0))
    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "fft", counted)
        report = verify(example_signal, example_params, cfg)
    assert len(calls) == 1
    # the report's identity gap is the one ppr_check computes on its own,
    # and its output-domain moment is that of the public transform
    ppr = olct.ppr_check(example_signal, example_params, p, cfg.xi_m)
    assert report.ppr_gap == ppr.rel_gap
    assert report.mu_spec == ppr.lhs
    spectrum = olct.olct_forward(example_signal, example_params, xi_m=cfg.xi_m)
    assert report.mu_spec == olct.moments.spectral_moment_2p(spectrum, p,
                                                             cfg.xi_m)


def test_report_reads_its_spectrum_off_one_fft(example_params, monkeypatch):
    # a p = 4 sharpened report on -8:8:65537: one FFT of the chirp-multiplied
    # input at next_fast_len(65537) = 65610 points chooses the default grid
    # and gives the transform on it, then one L-point inverse FFT on the same
    # bins per derivative order {1, 2, 4} at the points of their subgrid, and
    # one full-length inverse FFT for the Gram terms' v; a 131072-point bin
    # FFT plus a separate 65610-point derivative FFT made 2 forward FFTs
    grid = olct.make_grid(-8.0, 8.0, 65537)
    f = olct.gaussian_chirp(2.0, example_params.chirp_rate).sample(grid)
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((_name, out.size))
            return out
        monkeypatch.setattr(np.fft, name, counted)
    cfg = olct.HpwConfig(p=4, xi_m=0.3, omega=olct.exp_weight(2.0))
    report = olct.verify_shw(f, example_params, cfg, a_mode="gram")
    assert report.passed
    length = calls[1][1]
    assert length < 65610 and 65610 % length == 0
    assert calls == ([("fft", 65610)] + [("ifft", length)] * 3
                     + [("ifft", 65610)])


def test_report_evaluates_each_grid_once(example_params, monkeypatch):
    # a p = 4 sharpened report reads the points of the input grid and of
    # the output grid; each grid evaluates them once, so np.linspace runs at
    # most twice however many stages read them
    grid = olct.make_grid(-8, 8, 4097)
    t = np.linspace(-8.0, 8.0, 4097)
    f = olct.SampledSignal(grid, np.exp(-(1.0 + 1j) * t * t))
    calls = []
    linspace = np.linspace

    def counted(*args, **kwargs):
        calls.append(args)
        return linspace(*args, **kwargs)

    monkeypatch.setattr(np, "linspace", counted)
    cfg = olct.HpwConfig(p=4, xi_m=0.3, omega=olct.exp_weight(2.0))
    report = olct.verify_shw(f, example_params, cfg, a_mode="gram")
    assert report.passed
    assert len(calls) <= 2


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
    w = trapezoid_weights(u.grid.n, u.grid.dt)
    uv = float(np.sum(w * np.abs(u.values) * np.abs(v.values)))
    rhs = example_params.b ** 2 * (uv**2 + report.gram_term**2)
    assert report.lhs**2 == pytest.approx(rhs, rel=1e-6)


def test_verify_shw_gram_mode(example_signal, example_params, example_cfg):
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="gram")
    assert report.a_admissible
    assert report.passed_shw
    assert report.shw_rhs >= report.hpw_rhs


# the stages a report calls by the names that ``olct.verify`` binds, which
# are the names the benchmark's tracer patches to time them
REPORT_STAGES = ("time_moment_2p", "abs_moment_p", "saturating_gram_term",
                 "gram_offset", "default_unit_gaussian")


def test_reports_call_their_stages_through_verify_bindings(
        monkeypatch, example_signal, example_params, example_cfg):
    calls = []

    def spy(name, fn):
        def spied(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, out))
            return out
        return spied

    for name in REPORT_STAGES:
        monkeypatch.setattr(olct.verify, name,
                            spy(name, getattr(olct.verify, name)))
    report = olct.verify_shw(example_signal, example_params, example_cfg,
                             a_mode="gram")
    assert [name for name, _ in calls] == [
        "time_moment_2p", "saturating_gram_term", "default_unit_gaussian",
        "gram_offset"]
    assert report.mu_time == calls[0][1]
    assert report.gram_term == calls[3][1]

    calls.clear()
    report = olct.verify_hw(example_signal, example_params, 3)
    assert [name for name, _ in calls] == ["abs_moment_p"] * 4
    assert (report.mu_time, report.mu_spec) == (calls[0][1], calls[1][1])


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



@pytest.mark.parametrize("a_value", [math.nan, math.inf, -math.inf])
def test_verify_shw_rejects_nonfinite_fixed_a(example_signal, example_params,
                                              example_cfg, a_value):
    with pytest.raises(ValueError, match="finite a_value"):
        olct.verify_shw(example_signal, example_params, example_cfg,
                        a_mode="fixed", a_value=a_value)


def test_verify_hpw_reports_no_sharpening(example_signal, example_params,
                                          example_cfg):
    report = olct.verify_hpw(example_signal, example_params, example_cfg)
    assert report.gram_term == 0.0
    assert report.sharpened == abs(report.core)
    assert report.shw_rhs is None

# ---------------------------------------------------------------------------
# absolute-moment verification


@pytest.mark.parametrize("p", [2, 3, 4])
def test_verify_hw_gaussian_family(p, example_signal, example_params):
    report = olct.verify_hw(example_signal, example_params, p)
    assert report.passed_hw
    assert report.slack_hw >= -1e-6 * report.lhs
    assert report.holder_time_slack >= -1e-8 * report.mu_time
    assert report.holder_spec_slack >= -1e-8 * report.mu_spec


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_verify_hw_spectral_moment_closed_form(p, example_signal, example_params):
    # |O(xi)|^2 = exp(-xi^2 / (2 b^2)) / (2 |b|) for the matched chirp, so
    # the moment is |b|^p 2^((p-1)/2) Gamma((p+1)/2); odd p puts a kink at
    # xi_m into the integrand
    b = abs(example_params.b)
    exact = b**p * 2.0 ** ((p - 1) / 2.0) * math.gamma((p + 1) / 2.0)
    report = olct.verify_hw(example_signal, example_params, p)
    assert report.mu_spec == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_verify_hw_odd_order_time_moment_closed_form(example_signal,
                                                     example_params):
    # |f|^2 = exp(-r (t - t_m)^2) gives mu_time = int |s|^3 exp(-r s^2) ds
    # = 1/r^2 at p = 3, whose integrand has a kink at t_m
    minimizer = olct.minimizer_signal(1.0, 2.0, 0.3, 0.6, example_params)
    cases = [(minimizer.sample(DEFAULT_GRID), 0.3, 0.6, 1.0 / 16.0),
             (example_signal, 0.0, 0.0, 1.0 / 4.0)]
    for f, t_m, xi_m, exact in cases:
        report = olct.verify_hw(f, example_params, 3, t_m=t_m, xi_m=xi_m)
        assert report.mu_time == pytest.approx(exact, rel=5e-11, abs=0.0)


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
# the default output grid


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_offset_minimizer_passes_every_order(p, example_params):
    # a narrow spectrum far from tau: a grid spanning many times its width
    # lifted the p = 4 integrand's edges past the moment guard
    f = olct.minimizer_signal(1.0, 1.0, 0.3, 0.6, example_params).sample(
        DEFAULT_GRID)
    cfg = olct.HpwConfig(p=p, t_m=0.3, xi_m=0.6, omega=olct.unit_weight())
    report = olct.verify_shw(f, example_params, cfg, a_mode="gram")
    assert report.passed
    assert report.ppr_gap <= 1e-13


def test_chirp_reproducer_matches_finer_grid():
    # a grid that reached past the discrete band gave lhs 1449.6, ppr_gap
    # 0.99 and parseval_gap 0.22 on 4097 points
    cfg = olct.HpwConfig(p=1, omega=olct.exp_weight(2.0))
    signal = olct.gaussian_chirp(2.0, 30.0)
    reports = [olct.verify_shw(signal.sample(olct.make_grid(-8.0, 8.0, n)),
                               olct.ft_params(), cfg)
               for n in (4097, 8193)]
    coarse, fine = reports
    assert coarse.lhs == pytest.approx(fine.lhs, rel=1e-12, abs=0.0)
    for report in reports:
        assert report.passed
        assert report.ppr_gap <= 1e-13 and report.parseval_gap <= 1e-13


def test_band_filling_chirp_matches_finer_grid():
    # on 16385 points the default grid spans +-3030 inside pi/dt = 3217 and
    # the derivative keeps 98 % of its FFT bins; weights that alternate from
    # sample to sample would add a replica of the spectrum at pi/dt and
    # trip the spectral-moment edge guard
    signal = olct.gaussian_chirp(2.0, 300.0)
    coarse, fine = [olct.verify_shw(signal.sample(olct.make_grid(-8.0, 8.0, n)),
                                    olct.ft_params(), olct.HpwConfig(p=1))
                    for n in (16385, 65537)]
    assert coarse.lhs == pytest.approx(fine.lhs, rel=1e-12, abs=0.0)
    assert coarse.passed
    assert coarse.ppr_gap <= 1e-14 and coarse.parseval_gap <= 1e-14


def test_undersampled_chirp_is_refused(tmp_path):
    # instantaneous frequency 600 t passes pi/dt = 804 at |t| = 1.34
    from olct import cli
    from olct.errors import NumericsError

    f = olct.gaussian_chirp(2.0, 300.0).sample(DEFAULT_GRID)
    xi_grid = olct.default_xi_grid(f, olct.ft_params())
    assert xi_grid.n <= 2 * DEFAULT_GRID.n - 1
    with pytest.raises(NumericsError):
        olct.verify_shw(f, olct.ft_params(), olct.HpwConfig(p=1))
    cfg = tmp_path / "undersampled.cfg"
    cfg.write_text("[undersampled]\nsignal_r = 2\nsignal_chirp = 300\n"
                   "grid = -8:8:4097\n")
    code = cli.main(["verify", "--bound", "shw", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 3


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
    g_b = chirp_demodulate(f, example_params, xi_m=0.6)
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
    olct.signals.derivative(f, [1])  # must not raise


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


def reference_csv(header, columns) -> str:
    """The CSV writer :func:`csv_text` must match byte for byte: one
    ``fmt`` call per value, one joined line per row."""
    lines = [",".join(header)]
    lines += [",".join(fmt(x) for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308 / 3, 1e300, 0.1, 3.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# text that holds format directives, so a value read as a template shows
TEXT = st.text(alphabet="%sdg.17,ab ", max_size=6)
MIXED = st.one_of(st.none(), st.booleans(), st.integers(), TEXT, FLOATS,
                  FLOATS.map(np.float64))


@st.composite
def csv_tables(draw):
    rows = draw(st.integers(0, 6))
    header, columns = [], []
    for _ in range(draw(st.integers(1, 4))):
        header.append(draw(TEXT))
        kind = draw(st.sampled_from(["floats", "array", "mixed"]))
        values = draw(st.lists(MIXED if kind == "mixed" else FLOATS,
                               min_size=rows, max_size=rows))
        columns.append(np.array(values) if kind == "array" else values)
    return header, columns


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_csv_text_matches_the_per_value_reference(table):
    header, columns = table
    assert csv_text(header, columns) == reference_csv(header, columns)


def test_csv_text_zero_rows_and_one_column():
    assert csv_text(["x", "y"], [np.empty(0), []]) == "x,y\n"
    assert csv_text(["x"], [[0.1, None, True, "a%s"]]) == (
        "x\n0.10000000000000001\n\ntrue\na%s\n")
    assert csv_text(["x"], [np.array([-0.0, math.nan])]) == "x\n-0\nnan\n"


@pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]], [[1.0]]],
                         ids=["ragged", "missing-column"])
def test_csv_text_rejects_columns_that_do_not_fit_the_header(columns):
    with pytest.raises(ValueError, match="one column per header field"):
        csv_text(["a", "b"], columns)


def test_reports_to_csv_without_reports_is_the_header_line():
    assert olct.reports_to_csv([]) == ",".join(olct.REPORT_COLUMNS) + "\n"
