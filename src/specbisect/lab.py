"""Monte-Carlo experiments validating the probabilistic guarantees.

Each experiment draws from a seeded stream, compares an empirical
statistic against the corresponding closed-form bound, and reports the
comparison with explicit slack (3-sigma binomial for frequencies, the 1%
critical value 1.63/sqrt(N) for Kolmogorov-Smirnov distances). Reports
are reproducible bit-for-bit from their seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .eig import EigParams, eig_backward
from .errors import SpecBisectError
from .grids import kappa_v_upper, min_gap
from .kernels import op_norm
from .randmat import (Rng, haar_corner_sigma_min_cdf, sample_ginibre,
                      sample_haar_unitary)
from .deflate import rurv
from .shatter import smoothed_bounds

#: sigma_{r+1} = ... = sigma_n of the fixed matrix run_r22_experiment tests
R22_TAIL = 0.1


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    trials: int
    statistic: dict
    bound: float
    passed: bool
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def binomial_sigma(p: float, trials: int) -> float:
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / trials)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.array([cdf(v) for v in x])
    upper = np.abs(np.arange(1, n + 1) / n - f)
    lower = np.abs(f - np.arange(0, n) / n)
    return float(max(upper.max(), lower.max()))


def toeplitz_nilpotent(n: int) -> np.ndarray:
    """Fixed nonnormal test matrix: strictly upper-triangular Toeplitz with
    geometrically decaying bands, scaled to unit operator norm.
    """
    a = np.zeros((n, n), dtype=np.complex128)
    for k in range(1, n):
        a += np.diag(np.full(n - k, 0.5**k), k)
    nrm = op_norm(a)
    return a / nrm if nrm > 0 else a


def run_gap_experiment(n: int, gamma: float, trials: int, rng: Rng
                       ) -> ExperimentReport:
    """Frequency of {gap >= gamma^4/n^5} & {kappa_V <= n^2/gamma} &
    {||G|| <= 4} for X = A + gamma*G, A = toeplitz_nilpotent(n), versus
    the 1 - 12/n^2 floor.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    _check_trials(trials)
    kv_bound, gap_bound, fail_prob = smoothed_bounds(n, gamma)
    a = toeplitz_nilpotent(n)
    hits = 0
    norm_g_ok = 0
    gaps = []
    for t in range(trials):
        g = sample_ginibre(n, rng.child(t))
        x = a + gamma * g
        gap = min_gap(x)
        kv = kappa_v_upper(x)
        g_ok = op_norm(g) <= 4.0
        norm_g_ok += g_ok
        gaps.append(gap)
        if gap >= gap_bound and kv <= kv_bound and g_ok:
            hits += 1
    floor = max(0.0, 1.0 - fail_prob)
    freq = hits / trials
    sigma = binomial_sigma(floor, trials)
    gaps = np.array(gaps)
    stat = {
        "joint_frequency": freq,
        "norm_g_le_4_frequency": norm_g_ok / trials,
        "median_gap": float(np.median(gaps)),
        "min_gap_seen": float(gaps.min()),
        "slack_sigma": sigma,
    }
    return ExperimentReport("smoothed_gap_kappa", dict(n=n, gamma=gamma),
                            trials, stat, floor,
                            freq >= floor - 3.0 * sigma, rng.seed)


def run_haar_sigma_experiment(n: int, r: int, trials: int, rng: Rng
                              ) -> ExperimentReport:
    """KS distance of sampled corner sigma_min values against the closed
    form 1 - (1-theta^2)^(r(n-r)), at the 1% critical value.
    """
    if not 0 < r < n:
        raise ValueError("require 0 < r < n")
    _check_trials(trials)
    samples = np.empty(trials)
    for t in range(trials):
        u = sample_haar_unitary(n, rng.child(t))
        corner = u[:r, :r]
        samples[t] = np.linalg.svd(corner, compute_uv=False)[-1]
    ks = ks_distance(samples, lambda v: haar_corner_sigma_min_cdf(n, r, min(v, 1.0)))
    crit = 1.63 / math.sqrt(trials)
    stat = {"ks_distance": ks, "critical_value": crit,
            "median_sigma_min": float(np.median(samples))}
    return ExperimentReport("haar_corner_sigma_min", dict(n=n, r=r),
                            trials, stat, crit, ks <= crit, rng.seed)


def _fixed_sigma_matrix(n: int, r: int, tail: float, rng: Rng) -> np.ndarray:
    """Test matrix with sigma_1..r = 1 and sigma_{r+1}.. = tail."""
    u = sample_haar_unitary(n, rng.child(0xA))
    v = sample_haar_unitary(n, rng.child(0xB))
    s = np.concatenate([np.ones(r), np.full(n - r, tail)])
    return (u * s[np.newaxis, :]) @ v.conj().T


def run_r22_experiment(n: int, r: int, theta: float, trials: int, rng: Rng
                       ) -> ExperimentReport:
    """Violation frequency of ||R22|| <= sqrt(r(n-r))/theta * sigma_{r+1}(A)
    versus the theta^2 ceiling, on a fixed matrix with known
    sigma_{r+1} = R22_TAIL.
    """
    if not 0 < r < n:
        raise ValueError("require 0 < r < n")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    _check_trials(trials)
    a = _fixed_sigma_matrix(n, r, R22_TAIL, rng.child(0))
    cutoff = math.sqrt(r * (n - r)) / theta * R22_TAIL
    violations = 0
    for t in range(trials):
        res = rurv(a, rng.child(t + 1))
        r22 = res.r[r:, r:]
        if op_norm(r22) > cutoff:
            violations += 1
    ceiling = theta * theta
    freq = violations / trials
    sigma = binomial_sigma(ceiling, trials)
    stat = {"violation_frequency": freq, "cutoff": cutoff,
            "slack_sigma": sigma}
    return ExperimentReport("rurv_r22_tail", dict(n=n, r=r, theta=theta),
                            trials, stat, ceiling,
                            freq <= ceiling + 3.0 * sigma, rng.seed)


def run_e2e_experiment(n: int, delta: float, trials: int, rng: Rng
                       ) -> ExperimentReport:
    """End-to-end backward-error success rate of the full pipeline on
    random unit-norm inputs, versus the 1 - 1/n - 12/n^2 floor.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_trials(trials)
    params = EigParams(delta=delta, theta=1.0 / n)
    depth_cap = math.log(n) / math.log(1.25)
    residuals = []
    max_depth = 0
    failures = 0
    for t in range(trials):
        r = rng.child(t)
        g = sample_ginibre(n, r.child(0xFF))
        a = g / op_norm(g)
        try:
            res = eig_backward(a, delta, params, r)
        except SpecBisectError:
            failures += 1
            continue
        residuals.append(res.residual)
        max_depth = max(max_depth, res.depth)
    floor = max(0.0, 1.0 - 1.0 / n - 12.0 / (n * n))
    # eig_backward returns only results that meet its contract
    freq = len(residuals) / trials
    sigma = binomial_sigma(floor if 0 < floor < 1 else 0.5, trials)
    residuals = np.array(residuals) if residuals else np.array([math.nan])
    stat = {
        "success_frequency": freq,
        "exception_count": failures,
        "median_residual": float(np.median(residuals)),
        "q90_residual": float(np.quantile(residuals, 0.9)),
        "max_depth": max_depth,
        "depth_cap": depth_cap,
        "slack_sigma": sigma,
    }
    return ExperimentReport("e2e_backward_error", dict(n=n, delta=delta),
                            trials, stat, floor,
                            freq >= floor - 3.0 * sigma, rng.seed)
