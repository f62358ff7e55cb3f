import json

import numpy as np
import pytest
from click.testing import CliRunner

from specbisect.cli import main
from specbisect.mmio import write_matrix

GRID8 = ["--z0-re", "-4", "--z0-im", "-4", "--omega", "1",
         "--s1", "8", "--s2", "8"]


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, m):
    path = tmp_path / name
    write_matrix(str(path), np.asarray(m, dtype=complex))
    return str(path)


def test_eig_command(tmp_path, runner, rng):
    g = rng.standard_normal((2, 4, 4))
    m = g[0] + 1j * g[1]
    m /= np.linalg.norm(m, 2) * 1.01
    path = _write(tmp_path, "a.mtx", m)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["eig", "--input", path, "--delta", "0.1",
                               "--seed", "7", "--output", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert len(report["eigenvalues"]) == 4
    assert report["residual"] <= 0.1
    assert report["seed"] == 7
    # stdout mirrors the file
    assert json.loads(res.output) == report
    # same seed, same report
    res2 = runner.invoke(main, ["eig", "--input", path, "--delta", "0.1",
                                "--seed", "7"])
    assert json.loads(res2.output) == report


def test_eig_norm_violation_exit_1(tmp_path, runner):
    path = _write(tmp_path, "big.mtx", 3.0 * np.eye(2))
    res = runner.invoke(main, ["eig", "--input", path])
    assert res.exit_code == 1


@pytest.mark.parametrize("theta", ["0", "-1", "2"])
def test_eig_theta_out_of_range_exit_1(tmp_path, runner, theta):
    path = _write(tmp_path, "a.mtx", 0.5 * np.eye(2))
    res = runner.invoke(main, ["eig", "--input", path, "--theta", theta])
    assert res.exit_code == 1, res.output
    assert "theta must lie in (0, 1)" in res.output


def test_missing_input_exit_3(runner):
    res = runner.invoke(main, ["eig", "--input", "/nope/none.mtx"])
    assert res.exit_code == 3


def test_unknown_option_exit_3(runner):
    res = runner.invoke(main, ["eig", "--input", "a.mtx", "--bogus", "1"])
    assert res.exit_code == 3
    assert "No such option" in res.output


def test_removed_eig_mode_option_exit_3(runner):
    res = runner.invoke(main, ["eig", "--input", "a.mtx", "--mode",
                               "empirical"])
    assert res.exit_code == 3


def test_sgn_command(tmp_path, runner):
    path = _write(tmp_path, "s.mtx", np.diag([2.0, -3.0]))
    sout = tmp_path / "sign.mtx"
    res = runner.invoke(main, ["sgn", "--input", path, "--eps0", "0.1",
                               "--alpha0", "0.9", "--beta", "1e-8",
                               "--output-matrix", str(sout)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert 1 <= report["n_steps"] <= report["budget"]
    from specbisect.mmio import read_matrix
    s = read_matrix(str(sout))
    assert np.linalg.norm(s - np.diag([1.0, -1.0]), 2) <= 1e-8


def test_split_command(tmp_path, runner):
    path = _write(tmp_path, "sp.mtx", np.diag([-2.5 - 0.5j, 3.5 + 0.5j]))
    res = runner.invoke(main, ["split", "--input", path, "--eps", "0.4",
                               "--beta", "0.02"] + GRID8)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["n_plus"] == 1 and report["n_minus"] == 1
    assert (report["orientation"], report["shift_used"]) == ("vertical", 0.0)
    assert "census_predicted" not in report and "sgn_calls" not in report


def test_shatter_then_certify(tmp_path, runner):
    path = _write(tmp_path, "x.mtx", np.diag([0.5, -0.5, 0.5j, -0.5j]))
    xout = tmp_path / "xp.mtx"
    res = runner.invoke(main, ["shatter", "--input", path, "--gamma", "0.05",
                               "--seed", "3", "--output-matrix", str(xout)])
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["certified"] is True
    g = cert["grid"]
    res2 = runner.invoke(main, [
        "certify", "--input", str(xout), "--eps", str(cert["epsilon"]),
        "--z0-re", repr(g["re_z0"]), "--z0-im", repr(g["im_z0"]),
        "--omega", str(g["omega"]), "--s1", str(g["s1"]), "--s2", str(g["s2"]),
        "--mesh-per-segment", "8"])
    assert res2.exit_code == 0, res2.output


def test_certify_failure_exit_2(tmp_path, runner):
    path = _write(tmp_path, "bad.mtx", np.diag([0.2 + 0.2j, 0.3 + 0.3j]))
    res = runner.invoke(main, ["certify", "--input", path, "--eps", "0.4"]
                        + GRID8)
    assert res.exit_code == 2


def test_calc_n_formula(runner):
    res = runner.invoke(main, ["calc", "n-formula", "--alpha0", "0.9",
                               "--eps0", "0.01", "--beta", "1e-3"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["value"] == 21
    assert report["in_hardware_range"] is True


def test_calc_deflate_failure(runner):
    res = runner.invoke(main, ["calc", "deflate-failure", "--n", "4",
                               "--beta", "1e-20", "--eta", "1e-2"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["value"] == pytest.approx(80.0**3 * 1e-10 / 1e-4)
    assert "appendix_value" in report


def test_calc_smoothed_bounds(runner):
    res = runner.invoke(main, ["calc", "smoothed-bounds", "--n", "10",
                               "--gamma", "0.1"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["kappa_v_bound"] == pytest.approx(1000.0)
    assert report["gap_bound"] == pytest.approx(1e-9)
    assert report["value"] == pytest.approx(0.12)


def test_calc_invalid_inputs_exit_1(runner):
    res = runner.invoke(main, ["calc", "n-formula", "--alpha0", "1.5",
                               "--eps0", "0.01", "--beta", "1e-3"])
    assert res.exit_code == 1


@pytest.mark.parametrize("option", ["--gamma", "--r"])
def test_calc_gap_tail_nan_exit_1(runner, option):
    options = {"--n": "4", "--gamma": "0.1", "--r": "0.01", option: "nan"}
    res = runner.invoke(main, _calc_args("gap-tail", options))
    assert res.exit_code == 1, res.output


@pytest.mark.parametrize("formula,options", [
    ("deflate-failure", ["--beta", "0.01", "--eta", "0.5"]),
    ("gap-tail", ["--gamma", "0.1", "--r", "0.01"]),
])
def test_calc_n_below_1_exit_1(runner, formula, options):
    res = runner.invoke(main, ["calc", formula, "--n", "-3"] + options)
    assert res.exit_code == 1, res.output
    assert "n must be >= 1" in res.output


#: complete, valid options for every calc formula
CALC_OPTIONS = {
    "n-formula": {"--alpha0": "0.9", "--eps0": "0.01", "--beta": "1e-3"},
    "sgn-precision": {"--n": "16", "--alpha0": "0.99", "--eps0": "0.01",
                      "--beta": "1e-3"},
    "eig-precision": {"--n": "16", "--eps": "0.01", "--delta": "0.05",
                      "--theta": "0.1"},
    "eig-budget": {"--n": "16", "--eps": "0.01", "--delta": "0.05",
                   "--theta": "0.1"},
    "prelim-n": {"--t": "1e-3", "--c": "0.25"},
    "one-step-error": {"--norm-a": "1.5", "--norm-ainv": "3",
                       "--kappa": "10", "--n": "8"},
    "deflate-failure": {"--n": "4", "--beta": "1e-20", "--eta": "1e-2"},
    "smoothed-bounds": {"--n": "10", "--gamma": "0.1"},
    "gap-tail": {"--n": "12", "--gamma": "0.3", "--r": "0"},
}


def _calc_args(formula, options):
    return ["calc", formula] + [x for kv in options.items() for x in kv]


@pytest.mark.parametrize("formula", CALC_OPTIONS)
def test_calc_missing_options_exit_3(runner, formula):
    full = CALC_OPTIONS[formula]
    res = runner.invoke(main, _calc_args(formula, full))
    assert res.exit_code == 0, res.output
    for name in full:
        rest = {k: v for k, v in full.items() if k != name}
        res = runner.invoke(main, _calc_args(formula, rest))
        assert res.exit_code == 3, res.output
        assert name in res.output
    res = runner.invoke(main, ["calc", formula])
    assert res.exit_code == 3
    assert all(name in res.output for name in full)


def test_lab_zero_trials_exit_1(runner):
    res = runner.invoke(main, ["lab", "gap", "--n", "4", "--trials", "0"])
    assert res.exit_code == 1
    assert "trials must be >= 1" in res.output


@pytest.mark.parametrize("n", ["0", "1", "-3"])
def test_lab_e2e_rejects_n_below_two(runner, n):
    res = runner.invoke(main, ["lab", "e2e", "--n", n, "--trials", "1"])
    assert res.exit_code == 1, res.output
    assert "n must be >= 2" in res.output
    # the exit comes from the error mapping, not an uncaught exception
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("theta", ["0", "nan", "2"])
def test_lab_r22_rejects_theta_outside_unit_interval(runner, theta):
    res = runner.invoke(main, ["lab", "r22", "--n", "4", "--r", "2",
                               "--theta", theta, "--trials", "4"])
    assert res.exit_code == 1, res.output
    assert "theta must lie in (0, 1)" in res.output


def test_lab_command(tmp_path, runner):
    out = tmp_path / "lab.json"
    res = runner.invoke(main, ["lab", "haar-sigma", "--n", "4", "--r", "2",
                               "--trials", "400", "--seed", "11",
                               "--output", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["trials"] == 400


def test_json_reports_have_sorted_keys(tmp_path, runner):
    res = runner.invoke(main, ["calc", "gap-tail", "--n", "12",
                               "--gamma", "0.3", "--r", "0"])
    assert res.exit_code == 0
    keys = list(json.loads(res.output).keys())
    assert keys == sorted(keys)
