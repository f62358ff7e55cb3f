import importlib
import math

import numpy as np
import pytest
import scipy.stats

from specbisect.eig import RETRY_BUDGET
from specbisect.errors import EigFailureError
from specbisect.kernels import op_norm
from specbisect.lab import (binomial_sigma, ks_distance, run_e2e_experiment,
                            run_gap_experiment, run_haar_sigma_experiment,
                            run_r22_experiment, toeplitz_nilpotent)
from specbisect.randmat import Rng


def test_binomial_sigma():
    assert binomial_sigma(0.5, 100) == pytest.approx(0.05)
    assert binomial_sigma(0.0, 10) == 0.0
    assert binomial_sigma(1.2, 10) == 0.0  # clamped


def test_ks_distance_against_scipy(rng):
    x = rng.uniform(size=500)
    ours = ks_distance(x, lambda v: min(max(v, 0.0), 1.0))
    theirs = scipy.stats.kstest(x, "uniform").statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_ks_distance_detects_mismatch(rng):
    x = rng.uniform(size=500) ** 2  # not uniform
    assert ks_distance(x, lambda v: min(max(v, 0.0), 1.0)) > 1.63 / math.sqrt(500)


def test_toeplitz_nilpotent():
    a = toeplitz_nilpotent(5)
    assert op_norm(a) == pytest.approx(1.0)
    assert np.allclose(np.tril(a), 0.0)
    # nilpotent: all eigenvalues zero
    assert np.abs(np.linalg.eigvals(a)).max() <= 1e-8
    # Toeplitz band structure with halving decay
    assert a[0, 2] / a[0, 1] == pytest.approx(0.5)
    assert a[0, 1] == a[1, 2]


def test_gap_experiment_passes():
    rep = run_gap_experiment(8, 0.2, 200, Rng(21))
    assert rep.passed, rep.statistic
    assert rep.trials == 200
    assert rep.statistic["norm_g_le_4_frequency"] >= 0.99
    assert rep.statistic["min_gap_seen"] > 0
    assert rep.to_json()["name"] == "smoothed_gap_kappa"


def test_gap_experiment_deterministic():
    r1 = run_gap_experiment(6, 0.2, 50, Rng(22))
    r2 = run_gap_experiment(6, 0.2, 50, Rng(22))
    assert r1.statistic == r2.statistic


def test_haar_sigma_experiment_passes():
    rep = run_haar_sigma_experiment(4, 2, 2000, Rng(23))
    assert rep.passed, rep.statistic
    assert rep.statistic["ks_distance"] <= rep.bound
    assert rep.bound == pytest.approx(1.63 / math.sqrt(2000))


def test_r22_experiment_passes():
    rep = run_r22_experiment(8, 4, 0.5, 500, Rng(24))
    assert rep.passed, rep.statistic
    assert rep.statistic["violation_frequency"] <= \
        rep.bound + 3 * rep.statistic["slack_sigma"]


def test_e2e_experiment_passes():
    rep = run_e2e_experiment(8, 0.1, 30, Rng(25))
    assert rep.passed, rep.statistic
    assert rep.statistic["max_depth"] <= rep.statistic["depth_cap"]
    assert rep.statistic["exception_count"] == 0
    assert rep.statistic["median_residual"] <= 0.1
    assert rep.statistic["attempt_failure_frequency"] <= \
        rep.statistic["attempt_failure_bound"] == 1 / 8 + 12 / 64


def test_e2e_experiment_counts_attempts(monkeypatch):
    # trial 0 fails after every retry, trial 1 succeeds on its third
    # attempt and trials 2 and 3 on their first
    lab_mod = importlib.import_module("specbisect.lab")
    original, calls = lab_mod.eig_backward, []

    def solve(*args):
        calls.append(args)
        if len(calls) == 1:
            raise EigFailureError("planted failure")
        res = original(*args)
        res.attempts = 3 if len(calls) == 2 else 1
        return res

    monkeypatch.setattr(lab_mod, "eig_backward", solve)
    stat = run_e2e_experiment(4, 0.1, 4, Rng(27)).statistic
    total = (1 + RETRY_BUDGET) + 3 + 1 + 1
    assert stat["exception_count"] == 1
    assert stat["mean_attempts"] == total / 4
    # the failed solve's attempts and trial 1's first two all failed
    assert stat["attempt_failure_frequency"] == (total - 3) / total


@pytest.mark.parametrize("run", [
    lambda trials: run_gap_experiment(4, 0.1, trials, Rng(26)),
    lambda trials: run_haar_sigma_experiment(4, 2, trials, Rng(26)),
    lambda trials: run_r22_experiment(4, 2, 0.5, trials, Rng(26)),
    lambda trials: run_e2e_experiment(4, 0.1, trials, Rng(26)),
], ids=["gap", "haar-sigma", "r22", "e2e"])
@pytest.mark.parametrize("trials", [0, -1])
def test_experiments_reject_no_trials(run, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run(trials)
