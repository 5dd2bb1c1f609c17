import argparse
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import olct
from olct import cli

REPRO = files("olct").joinpath("repro")


def repro_path(name: str) -> str:
    return str(REPRO.joinpath(name))


def run_main(*args) -> int:
    return cli.main(list(args))


def write_cfg(tmp_path: Path, body: str, name: str = "scenario.cfg") -> str:
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# ---------------------------------------------------------------------------
# plumbing


def test_module_help_runs():
    # the subprocess finds the package through PYTHONPATH, not pytest's own
    # pythonpath setting
    src = str(Path(olct.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "olct", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "transform" in proc.stdout and "verify" in proc.stdout


def test_config_roundtrip():
    import configparser
    from dataclasses import fields

    # one codec entry per config field, in field order
    assert list(cli.CONFIG_CODEC) == [
        f.name for f in fields(cli.ScenarioConfig) if f.name != "name"]
    cfg = cli.ScenarioConfig(name="rt", signal_r=3.5, b=0.25, a=0.1, c=0.5,
                             d=(1 + 0.25 * 0.5) / 0.1, xi_m=0.4,
                             a_mode="gram", grid=(-10.0, 10.0, 2049),
                             r_values=(0.5, 1.5), weight_r=4.0)
    text = cfg.to_text()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    back = cli.ScenarioConfig.from_section(parser["rt"], "rt")
    assert back == cfg
    # defaults round-trip too
    default = cli.ScenarioConfig(name="d")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default.to_text())
    assert cli.ScenarioConfig.from_section(parser["d"], "d") == default


@pytest.mark.parametrize(
    "name", sorted(entry.name for entry in REPRO.iterdir()
                   if entry.name.endswith(".cfg")))
def test_repro_config_roundtrip(name):
    import configparser

    cfg = cli.load_config(repro_path(name), None, argparse.Namespace())
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(cfg.to_text())
    assert cli.ScenarioConfig.from_section(parser[cfg.name], cfg.name) == cfg


def test_json_float_formatting():
    text = cli.dumps({"x": 0.1, "flag": True, "none": None, "n": 3})
    assert '"x": 0.10000000000000001' in text
    assert '"flag": true' in text
    assert '"none": null' in text


# ---------------------------------------------------------------------------
# transform


def test_transform_example_config(tmp_path, capsys):
    code = run_main("transform", "--config", repro_path("verify_saturating.cfg"),
                    "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "xi,real,imag"
    # one row per point of the default output grid, which is sized to the
    # spectrum: an odd count, spacing under 2 |b| pi/L, decayed ends
    cfg = cli.load_config(repro_path("verify_saturating.cfg"), None, None)
    params = cfg.params_obj()
    f = cfg.sampled_signal(params)
    xi_grid = olct.default_xi_grid(f, params)
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert len(rows) == xi_grid.n and xi_grid.n % 2 == 1
    assert np.ptp(rows[:, 0]) / (len(rows) - 1) < 2.0 * abs(params.b) * np.pi / f.grid.length
    density = np.hypot(rows[:, 1], rows[:, 2]) ** 2
    assert max(density[0], density[-1]) <= 1e-10 * np.max(density)


def test_transform_ft_gaussian_magnitude(tmp_path):
    cfg = write_cfg(tmp_path, "[ft]\nsignal_chirp = 0\nsignal_r = 2\n")
    code = run_main("transform", "--config", cfg, "--out", str(tmp_path),
                    "--json")
    assert code == 0
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    xi, re, im = rows[:, 0], rows[:, 1], rows[:, 2]
    # Fourier-parameter transform of exp(-t^2): magnitude sqrt(pi/(2 pi)) e^{-xi^2/4}
    expected = np.sqrt(np.pi / (2 * np.pi)) * np.exp(-(xi**2) / 4.0)
    assert np.max(np.abs(np.hypot(re, im) - expected)) <= 1e-6


def test_transform_degenerate_branch(tmp_path, capsys):
    code = run_main("transform", "--config", repro_path("transform_b0.cfg"),
                    "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    # scaled copy: sqrt(0.5) * f(0.5 xi)
    xi = rows[:, 0]
    assert np.max(np.abs(rows[:, 1] - np.sqrt(0.5) * np.exp(-((0.5 * xi) ** 2)))) < 1e-6


# ---------------------------------------------------------------------------
# ppr / verify


def test_ppr_command(tmp_path, capsys):
    code = run_main("ppr", "--config", repro_path("ppr.cfg"), "--json",
                    "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["rel_gap"] <= 1e-4
    assert (tmp_path / "ppr.json").exists()


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_ppr_gates_on_config_tol(tmp_path, capsys, json_flag):
    # the shipped ppr scenario, centred off its spectrum's centre, with a
    # tolerance below its rounding error (8e-16); centred at 0 the identity
    # holds bit for bit, which no tolerance >= 0 fails
    body = REPRO.joinpath("ppr.cfg").read_text()
    cfg = write_cfg(tmp_path, body.replace("tol = 1e-4", "tol = 1e-20")
                    .replace("xi_m = 0\n", "xi_m = 0.3\n"))
    assert run_main("ppr", "--config", cfg, *json_flag) == 1
    out = capsys.readouterr().out
    if json_flag:
        payload = json.loads(out)
        assert (payload["tol"], payload["passed"]) == (1e-20, False)
    else:
        assert out.endswith(": FAIL\n")
    # --tol still overrides the config's value
    assert run_main("ppr", "--config", cfg, "--tol", "1e-4", *json_flag) == 0


def test_verify_shw_example(tmp_path, capsys):
    code = run_main("verify", "--bound", "shw", "--config",
                    repro_path("verify_saturating.cfg"), "--json",
                    "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "scenario", "p", "lhs", "rhs_hpw", "rhs_shw", "rhs_hw", "slack",
        "rel_slack", "passed", "ppr_gap", "parseval_gap", "grid", "params",
        "reference_value", "computed_over_reference"}
    assert payload["passed"] is True
    assert payload["lhs"] == pytest.approx(payload["rhs_shw"], rel=1e-6)
    assert payload["params"]["b"] == 0.05
    assert payload["grid"]["n"] == 4097
    # the published constant is recorded next to the computed value
    assert payload["reference_value"] == 1.904493221525881
    assert payload["computed_over_reference"] == pytest.approx(0.1, rel=1e-9)


@pytest.mark.parametrize("bound", ["hpw", "hw"])
def test_verify_other_bounds(bound, tmp_path):
    extra = "p = 2\n" if bound == "hw" else ""
    cfg = write_cfg(tmp_path, "[v]\nsignal_r = 2\nweight = exp\n" + extra)
    code = run_main("verify", "--bound", bound, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / f"verify_{bound}.json").exists()


def test_verify_human_output(capsys):
    code = run_main("verify", "--bound", "shw", "--config",
                    repro_path("verify_saturating.cfg"))
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "lhs=" in out
    assert "computed/reference" in out


def test_verify_inadmissible_fixed_term_flagged(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "[x]\nsignal_r = 2\na_mode = fixed\na_value = 1000\n"
                    "b = 0.05\na = 0.6\nc = 0.5\nd = 0.4\nstrict_params = false\n")
    code = run_main("verify", "--bound", "shw", "--config", cfg)
    out = capsys.readouterr().out
    assert code == 0
    assert "A exceeds admissible range" in out


# ---------------------------------------------------------------------------
# sweep / closed forms


def test_sweep_a0_command(tmp_path, capsys):
    code = run_main("sweep", "--config", repro_path("sweep_a0.cfg"),
                    "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep_a0.csv").read_text().splitlines()
    assert lines[0] == "r,lhs,rhs"
    assert len(lines) == 11
    for line in lines[1:]:
        r, lhs, rhs = map(float, line.split(","))
        assert lhs > rhs


def test_sweep_scenario_flag(tmp_path):
    code = run_main("sweep", "--config", repro_path("sweep_a0.cfg"),
                    "--scenario", "a1", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sweep_a1.csv").exists()


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_sweep_rejects_a_value_the_scenario_does_not_run(tmp_path, capsys,
                                                          json_flag):
    # the a1 sweep fixes A = 1, so a_value = 7 would be silently ignored
    cfg = write_cfg(tmp_path, "[x]\na_mode = fixed\na_value = 7\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run_main("sweep", "--config", cfg, "--out", str(out),
                    *json_flag) == 2
    captured = capsys.readouterr()
    if json_flag:
        error = json.loads(captured.out)["error"]
        assert error["type"] == "config"
        message = error["message"]
    else:
        assert captured.err.startswith("config error: ")
        message = captured.err
    assert "a_value" in message and "'a1'" in message
    assert list(out.iterdir()) == []


def test_bound_table_command(tmp_path, capsys):
    code = run_main("bound-table", "--config", repro_path("bound_table.cfg"),
                    "--out", str(tmp_path), "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    for row in payload["rows"]:
        assert row["sharpened"] > row["reference"]
    lines = (tmp_path / "bound_table.csv").read_text().splitlines()
    assert lines[0] == "r,sharpened,reference"
    assert len(lines) == 5


def test_gap_curve_command(tmp_path, capsys):
    code = run_main("gap-curve", "--config", repro_path("gap_curve.cfg"),
                    "--out", str(tmp_path), "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["rows"] == 200
    assert payload["min_gap"] > 0


def test_energy_command(tmp_path, capsys):
    code = run_main("energy", "--config", repro_path("energy.cfg"),
                    "--out", str(tmp_path), "--json")
    assert code == 0
    for name in ("energy_time.csv", "energy_weighted.csv", "energy_ft.csv",
                 "energy_olct.csv", "energy_summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads(capsys.readouterr().out)
    # the matched transform concentrates the energy far beyond the plain
    # Fourier picture for this parameter set
    assert (summary["olct"]["second_central_moment"]
            < summary["ft"]["second_central_moment"])
    assert summary["time"]["energy"] == pytest.approx(
        np.sqrt(np.pi / 2.0), rel=1e-6)


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_energy_non_finite_density_exits_3(tmp_path, capsys, json_flag):
    # exp(-100 t) overflows at the left grid edge, so the weighted density
    # is infinite there; no density file and no summary may be written
    cfg = write_cfg(tmp_path, "[x]\nsignal_r = 2\nweight_r = 100\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run_main("energy", "--config", cfg, "--out", str(out),
                    *json_flag) == 3
    captured = capsys.readouterr()
    if json_flag:
        error = json.loads(captured.out)["error"]
        assert error["type"] == "numerics"
        message = error["message"]
    else:
        assert captured.err.startswith("numerical precondition failed: ")
        message = captured.err
    assert "the weighted energy density has non-finite values" in message
    assert list(out.iterdir()) == []


def test_transform_non_finite_energy_exits_3(tmp_path, capsys):
    # |f|^2 of a 1e200-scaled signal overflows, so the energies of the
    # Parseval check are infinite: a numerical failure, not a config error
    cfg = write_cfg(tmp_path,
                    "[x]\nsignal = minimizer\nc0 = 1e200\ngrid = -8:8:4097\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run_main("transform", "--config", cfg, "--out", str(out),
                    "--json") == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "numerics", "message": "energies must be finite"}
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("cfg,command,outputs", [
    ("sweep_a1.cfg", "sweep", ["sweep_a1.csv"]),
    ("verify_saturating.cfg", "verify", ["verify_shw.json"]),
    ("energy.cfg", "energy", ["energy_olct.csv", "energy_summary.json"]),
])
def test_repeated_runs_byte_identical(tmp_path, cfg, command, outputs):
    dirs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        args = [command, "--config", repro_path(cfg), "--out", str(out)]
        if command == "verify":
            args += ["--bound", "shw"]
        assert run_main(*args) in (0,)
        dirs.append(out)
    for name in outputs:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[x]\nwhat = 1\n")
    assert run_main("verify", "--config", cfg) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert run_main("verify", "--config", str(tmp_path / "none.cfg")) == 2


def test_unknown_scenario_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "[only]\nsignal_r = 2\n")
    assert run_main("verify", "--config", cfg, "--scenario", "other") == 2


def test_bad_grid_override_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "[x]\nsignal_r = 2\n")
    assert run_main("verify", "--config", cfg, "--grid", "0:1") == 2


def test_bad_value_reports_field(tmp_path, capsys):
    # every float the codec parses is finite, including those inside grid,
    # r_values, r_range and the auto/none keys; tol and reference_value are
    # checked for the values that would break a verdict or the JSON
    bad = [("signal_r", "fast"), ("strict_params", "yes"),
           ("reference_value", "0"), ("reference_value", "nan"),
           ("tol", "nan"), ("tol", "-1"), ("signal_chirp", "inf"),
           ("r_values", "1,nan"), ("r_range", "0.05:inf:0.05")]
    for field, value in bad:
        cfg = write_cfg(tmp_path, f"[x]\n{field} = {value}\n")
        assert run_main("verify", "--config", cfg) == 2
        assert field in capsys.readouterr().err
        assert run_main("verify", "--config", cfg, "--json") == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "config" and field in error["message"]
    for value in ("nan", "-1"):
        assert run_main("verify", "--tol", value) == 2
        assert "tol" in capsys.readouterr().err


def test_numerics_failure_exits_3(tmp_path, capsys):
    # signal too wide for the default grid: the decay precondition fails
    cfg = write_cfg(tmp_path, "[x]\nsignal_r = 0.05\n")
    code = run_main("verify", "--config", cfg)
    assert code == 3
    assert "precondition" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_non_finite_integrand_exits_3(tmp_path, capsys, json_flag):
    # the weighted signal exp(-40 t - t^2) peaks at e^400 near t = -20, so
    # its square overflows even with the weight applied before squaring; the
    # guard must not let it through, and numpy's warnings must not reach stderr
    cfg = write_cfg(tmp_path,
                    "[x]\nsignal_r = 2\nweight_r = 40\ngrid = -40:40:16385\n")
    assert run_main("verify", "--config", cfg, *json_flag) == 3
    captured = capsys.readouterr()
    if json_flag:
        payload = json.loads(captured.out)
        assert payload["error"]["type"] == "numerics"
        assert "non-finite" in payload["error"]["message"]
    else:
        assert "non-finite" in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical precondition failed: ")


def test_weight_overflow_where_signal_vanishes_exits_0(tmp_path):
    # exp(-10 t) overflows in its square at t = -40, but the weighted signal
    # exp(-10 t - t^2) is finite everywhere, and so is every moment
    cfg = write_cfg(tmp_path,
                    "[x]\nsignal_r = 2\nweight_r = 10\ngrid = -40:40:16385\n")
    assert run_main("verify", "--config", cfg) == 0


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_bound_table_b0_exits_2(tmp_path, capsys, json_flag):
    code = run_main("bound-table", "--config", repro_path("transform_b0.cfg"),
                    "--out", str(tmp_path), *json_flag)
    assert code == 2
    captured = capsys.readouterr()
    if json_flag:
        payload = json.loads(captured.out)
        assert payload["error"] == {"type": "config",
                                    "message": "bound is undefined for b = 0"}
    else:
        assert captured.err == "config error: bound is undefined for b = 0\n"
    assert not (tmp_path / "bound_table.csv").exists()


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
@pytest.mark.parametrize("command, body, csv, r", [
    ("bound-table", "r_values = 0.5,800", "bound_table.csv", "800.0"),
    ("gap-curve", "r_range = 1400:1500:50", "gap_curve.csv", "1450.0"),
])
def test_closed_form_overflow_exits_3(tmp_path, capsys, json_flag, command,
                                      body, csv, r):
    cfg = write_cfg(tmp_path, f"[big-r]\n{body}\n")
    code = run_main(command, "--config", cfg, "--out", str(tmp_path),
                    *json_flag)
    assert code == 3
    captured = capsys.readouterr()
    message = (f"closed-form bound at r={r} overflows float64 (largest "
               f"finite value 1.7976931348623157e+308)")
    if json_flag:
        payload = json.loads(captured.out)
        assert payload["error"] == {"type": "numerics", "message": message}
    else:
        assert captured.err == f"numerical precondition failed: {message}\n"
    assert not (tmp_path / csv).exists()


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_unwritable_out_exits_2(tmp_path, capsys, json_flag):
    # --out names an existing file, so no directory can be made there
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert run_main("transform", "--out", str(blocker), *json_flag) == 2
    captured = capsys.readouterr()
    if json_flag:
        error = json.loads(captured.out)["error"]
        assert error["type"] == "config"
        assert error["message"].startswith("cannot write ")
    else:
        assert captured.err.startswith("config error: cannot write ")
    assert blocker.read_text() == ""


def test_json_error_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[x]\nsignal_r = 0.05\n")
    assert run_main("verify", "--config", cfg, "--json") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "numerics"


def test_grid_and_tol_overrides(tmp_path):
    # widening the grid through the override fixes the decay failure
    cfg = write_cfg(tmp_path, "[x]\nsignal_r = 0.05\nweight = unit\n")
    code = run_main("verify", "--config", cfg, "--grid=-32:32:8193",
                    "--tol", "1e-5", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "verify_shw.json").read_text())
    assert payload["grid"] == {"t_min": -32.0, "t_max": 32.0, "n": 8193}


def test_parser_is_built_once_and_keeps_no_state_between_calls(
        tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    cfg = write_cfg(tmp_path, "[first]\n\n[second]\nsignal_r = 3\n")
    seen = []
    load = cli.load_config

    def spy(path, scenario, overrides):
        seen.append((scenario, overrides.grid, overrides.tol, overrides.json))
        return load(path, scenario, overrides)

    monkeypatch.setattr(cli, "load_config", spy)
    assert run_main("ppr", "--config", cfg, "--scenario", "second",
                    "--grid=-10:10:2049", "--tol", "0.5", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["scenario"], payload["tol"]) == ("second", 0.5)
    assert run_main("ppr", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert out.startswith("moment identity p=1: lhs=")
    assert out.endswith(" (tol 9.9999999999999995e-07): PASS\n")
    assert seen == [("second", "-10:10:2049", 0.5, True),
                    (None, None, None, False)]
