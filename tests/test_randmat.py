import math

import numpy as np
import pytest

from specbisect.randmat import (Rng, ginibre_sigma_tail,
                                haar_corner_sigma_min_cdf, sample_ginibre,
                                sample_haar_unitary)


def test_rng_determinism_and_children():
    a = Rng(42).standard_normal(5)
    b = Rng(42).standard_normal(5)
    assert np.array_equal(a, b)
    c1 = Rng(42).child(3).standard_normal(5)
    c2 = Rng(42, (3,)).standard_normal(5)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(a, c1)


def test_rng_child_drawn_late_matches_fresh_stream():
    # a stream depends only on (seed, path), not on when it first draws or
    # on what its parent and siblings drew before it
    parent = Rng(42, (1,))
    late, sibling = parent.child(5), parent.child(6)
    parent.standard_normal(7)
    sibling.uniform(size=3)
    parent.child(5).standard_normal(4)
    assert np.array_equal(late.standard_normal(5),
                          Rng(42, (1, 5)).standard_normal(5))


def test_ginibre_moments():
    rng = Rng(0)
    # n = 1: E|G|^2 = 1 over many draws
    vals = np.array([abs(sample_ginibre(1, rng.child(i))[0, 0]) ** 2
                     for i in range(100_000)])
    assert vals.mean() == pytest.approx(1.0, abs=0.02)


def test_ginibre_entry_mean_clt():
    rng = Rng(1)
    n = 16
    total = 0.0 + 0.0j
    draws = 10_000
    for i in range(draws):
        total += sample_ginibre(n, rng.child(i))[0, 0]
    mean = total / draws
    sigma = math.sqrt(1.0 / n / draws)  # per-entry variance 1/n
    assert abs(mean) <= 3 * sigma * 2


def test_ginibre_determinism():
    assert np.array_equal(sample_ginibre(4, Rng(9)), sample_ginibre(4, Rng(9)))


def test_haar_unitary_residual():
    u = sample_haar_unitary(8, Rng(2))
    resid = np.linalg.norm(u.conj().T @ u - np.eye(8), 2)
    assert resid <= 8 * 240 * 2.0**-53  # n * mu_qr(n) * u


def test_haar_scalar_case():
    u = sample_haar_unitary(1, Rng(3))
    assert abs(abs(u[0, 0]) - 1.0) <= 2 * 2.0**-53


def test_haar_first_entry_beta_marginal():
    # oracle first: |U_11|^2 ~ Beta(1, n-1) for Haar U, CDF 1-(1-x)^(n-1)
    n, draws = 4, 10_000
    rng = Rng(7)
    xs = np.sort([abs(sample_haar_unitary(n, rng.child(i))[0, 0]) ** 2
                  for i in range(draws)])
    cdf = 1.0 - (1.0 - xs) ** (n - 1)
    ecdf = np.arange(1, draws + 1) / draws
    assert np.abs(ecdf - cdf).max() <= 0.03


def test_corner_cdf_values():
    assert haar_corner_sigma_min_cdf(2, 1, 0.5) == pytest.approx(0.25)
    assert haar_corner_sigma_min_cdf(4, 2, 0.3) == pytest.approx(
        1.0 - 0.91**4)
    assert haar_corner_sigma_min_cdf(5, 2, 0.0) == 0.0
    assert haar_corner_sigma_min_cdf(5, 2, 1.0) == 1.0
    # r <-> n-r symmetry
    for theta in (0.1, 0.4, 0.9):
        assert haar_corner_sigma_min_cdf(8, 3, theta) == pytest.approx(
            haar_corner_sigma_min_cdf(8, 5, theta))
    with pytest.raises(ValueError):
        haar_corner_sigma_min_cdf(4, 4, 0.5)
    with pytest.raises(ValueError):
        haar_corner_sigma_min_cdf(4, 2, 1.5)


def test_corner_cdf_monotone():
    thetas = np.linspace(0, 1, 50)
    vals = [haar_corner_sigma_min_cdf(6, 2, t) for t in thetas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ginibre_tail_values():
    assert ginibre_sigma_tail(5, 3, 0.0) == 0.0
    # j = n: bound reduces to 2e * alpha^2
    alpha = 0.1
    assert ginibre_sigma_tail(6, 6, alpha) == pytest.approx(
        (math.sqrt(2 * math.e) * alpha) ** 2)
    val = ginibre_sigma_tail(8, 7, 0.1)
    assert val == pytest.approx((math.sqrt(2 * math.e) * 0.1) ** 8)
    with pytest.raises(ValueError):
        ginibre_sigma_tail(4, 0, 0.1)


def test_ginibre_tail_monte_carlo_dominance():
    # empirical frequency of sigma_j < alpha (n-j+1)/n stays below the bound
    n, j, alpha = 8, 7, 0.1
    bound = ginibre_sigma_tail(n, j, alpha)
    cutoff = alpha * (n - j + 1) / n
    rng = Rng(11)
    draws = 20_000
    hits = 0
    for i in range(draws):
        s = np.linalg.svd(sample_ginibre(n, rng.child(i)), compute_uv=False)
        if s[j - 1] < cutoff:
            hits += 1
    freq = hits / draws
    slack = 3 * math.sqrt(max(bound, 1e-6) / draws)
    assert freq <= bound + slack
