"""Acceptance gate: one test per headline guarantee of the package.

Each test states its tolerance inline and computes any reference value
from an independent oracle (dense eigendecompositions, hand arithmetic,
closed-form laws) before touching the implementation under test.
"""

import math

import numpy as np
import pytest

from conftest import (certified_apollonius_params, oracle_sign,
                      random_nonnormal_matrix, random_normal_matrix,
                      subspace_distance)
from specbisect.deflate import deflate
from specbisect.eig import EigParams, eig_backward, eig_precision_requirement
from specbisect.errors import EigFailureError, PreconditionError
from specbisect.grids import Grid, certify_shattered
from specbisect.kernels import UNIT_ROUNDOFF, op_norm
from specbisect.lab import run_r22_experiment
from specbisect.randmat import (Rng, haar_corner_sigma_min_cdf, sample_ginibre,
                                sample_haar_unitary)
from specbisect.sgn import (SgnParams, mobius, newton_map,
                            required_precision_sgn, sgn, sgn_iteration_count,
                            sgn_params_from_shattering)
from specbisect.shatter import ShatterParams, shatter, smoothed_bounds
from specbisect.split import eig_count_signed, split

UNIT8 = Grid(complex(-4, -4), 1.0, 8, 8)


# --- criterion 1: Apollonius identity ---------------------------------------

def test_apollonius_identity_bulk():
    r = Rng(2026).child(0)
    n = 10**4
    rad = 10.0 * np.sqrt(r.uniform(size=n))
    phi = r.uniform(0.0, 2.0 * math.pi, n)
    z = rad * np.exp(1j * phi)
    re = z.real
    re = np.where(np.abs(re) < 1e-3, np.sign(re + (re == 0)) * 1e-3, re)
    z = re + 1j * z.imag
    for zk in z:
        want = abs(mobius(zk)) ** 2
        got = abs(mobius(newton_map(zk)))
        assert abs(got - want) <= 1e-12


# --- criterion 2: sign-function convergence ---------------------------------

def test_sign_convergence_certified_params():
    beta = 1e-8
    sizes = [2, 3, 4, 6, 8, 12, 16]
    for i in range(20):
        a, _ = random_normal_matrix(sizes[i % 7], Rng(100 + i))
        want = oracle_sign(a)  # oracle first
        alpha0 = certified_apollonius_params(a, 1e-3)
        s, _ = sgn(a, SgnParams(1e-3, alpha0, beta))
        assert np.linalg.norm(s - want, 2) <= beta
    for i in range(20):
        a, _, v0 = random_nonnormal_matrix(sizes[i % 7], Rng(200 + i),
                                           kappa_cap=20.0)
        assert np.linalg.cond(v0, 2) <= 20.0
        want = oracle_sign(a)
        alpha0 = certified_apollonius_params(a, 1e-3)
        s, _ = sgn(a, SgnParams(1e-3, alpha0, beta))
        assert np.linalg.norm(s - want, 2) <= beta


# --- criterion 3: iteration-count formula -----------------------------------

def test_iteration_count_value_and_monotonicity():
    # hand derivation: lg(10) + 3 lg lg(10) + lg lg(10^5) + 7.59 = 20.162
    lg = math.log2
    raw = lg(10) + 3 * lg(lg(10)) + lg(lg(1e5)) + 7.59
    assert math.ceil(raw) == 21
    assert sgn_iteration_count(0.9, 0.01, 1e-3) == 21
    alphas = [0.8, 0.85, 0.9, 0.95, 0.99]
    betas = [1e-2, 1e-3, 1e-4, 1e-6, 1e-8]
    table = [[sgn_iteration_count(a, 0.01, b) for b in betas] for a in alphas]
    for row in table:  # more accuracy demanded -> no fewer steps
        assert row == sorted(row)
    for col in zip(*table):  # alpha closer to 1 -> no fewer steps
        assert list(col) == sorted(col)


# --- criterion 4: Haar-corner sigma_min law ---------------------------------

@pytest.mark.parametrize("n,r", [(2, 1), (4, 1), (4, 2), (8, 3)])
def test_haar_corner_sigma_min_law(n, r):
    trials = 10**4
    stream = Rng(400 + 10 * n + r)
    samples = np.empty(trials)
    for t in range(trials):
        u = sample_haar_unitary(n, stream.child(t))
        samples[t] = np.linalg.svd(u[:r, :r], compute_uv=False)[-1]
    x = np.sort(samples)
    f = np.array([haar_corner_sigma_min_cdf(n, r, min(v, 1.0)) for v in x])
    k = np.arange(trials)
    ks = max(np.abs((k + 1) / trials - f).max(), np.abs(f - k / trials).max())
    assert ks <= 1.63 / math.sqrt(trials)


# --- criterion 5: R22 tail --------------------------------------------------

def test_r22_tail_acceptance():
    rep = run_r22_experiment(8, 4, 0.5, 2000, Rng(55))
    freq = rep.statistic["violation_frequency"]
    sigma = math.sqrt(0.25 * 0.75 / 2000)
    assert freq <= 0.25 + 3 * sigma


# --- criterion 6: smoothed gap / kappa_V ------------------------------------

def test_smoothed_gap_kappa_joint_event():
    n, gamma, trials = 16, 0.1, 500
    kv_bound, gap_bound, fail = smoothed_bounds(n, gamma)
    assert (kv_bound, fail) == (n * n / gamma, 12.0 / n**2)
    stream = Rng(66)
    hits = 0
    from specbisect.grids import kappa_v_upper, min_gap
    for t in range(trials):
        g = sample_ginibre(n, stream.child(t))
        x = gamma * g  # smoothing of the zero matrix
        if min_gap(x) >= gap_bound and kappa_v_upper(x) <= kv_bound \
                and op_norm(g) <= 4.0:
            hits += 1
    floor = 1.0 - fail
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


# --- criterion 7: SPLIT counting --------------------------------------------

def _census_matrix(i):
    """Matrix with eigenvalues at known grid-square centers, plus census."""
    n = [6, 8, 10, 12, 7, 9][i % 6]
    r = Rng(700 + i)
    xs = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    all_centers = np.array([x + 1j * y for x in xs for y in xs
                            if x * x + y * y <= 7.3])
    idx = np.argsort(r.uniform(size=all_centers.size))[:n]
    w = all_centers[idx]
    if i % 2 == 0:
        u = sample_haar_unitary(n, r.child(1))
        a = u @ np.diag(w) @ u.conj().T
    else:
        e = r.child(2).standard_normal((2, n, n))
        v = np.eye(n) + 0.1 * (e[0] + 1j * e[1]) / math.sqrt(2 * n)
        a = v @ np.diag(w) @ np.linalg.inv(v)
    assert op_norm(a) <= 4.0
    return a, w


def test_split_counting_and_balance():
    for i in range(50):
        a, w = _census_matrix(i)
        n = len(w)
        beta = 0.04 / n
        for h in (-1.0, 0.0, 1.0):
            want = sum(1 for z in w if z.real > h) \
                - sum(1 for z in w if z.real < h)  # oracle census
            assert eig_count_signed(a, h, 0.1, UNIT8, beta) == want
        res = split(a, 0.1, UNIT8, beta)
        assert res.n_plus + res.n_minus == n
        assert min(res.n_plus, res.n_minus) >= n / 5.0


# --- criterion 8: DEFLATE subspace recovery ---------------------------------

def test_deflate_subspace_recovery():
    beta, eta = 1e-8, 1e-2
    bad = 0
    # orthogonal rank-3 projector in dimension 8
    r = Rng(88)
    u = sample_haar_unitary(8, r.child(0))
    p_orth = u[:, :3] @ u[:, :3].conj().T
    # oblique spectral projector in dimension 6
    e = r.child(1).standard_normal((2, 6, 6))
    v = np.eye(6) + 0.2 * (e[0] + 1j * e[1]) / math.sqrt(12)
    w = np.array([-2.0, -1.0 + 1j, -1.5 - 1j, 1.0, 2.0 + 1j, 1.5 - 1j])
    keep = np.array([z.real > 0 for z in w])
    vinv = np.linalg.inv(v)
    p_obl = v[:, keep] @ vinv[keep, :]
    q_obl_exact = np.linalg.qr(v[:, keep])[0]
    cases = [(p_orth, 3, u[:, :3]), (p_obl, 3, q_obl_exact)]
    for c, (p, k, q_exact) in enumerate(cases):
        n = p.shape[0]
        for t in range(100):
            noise = r.child(10 + c).child(t).standard_normal((2, n, n))
            err = noise[0] + 1j * noise[1]
            err *= beta / np.linalg.norm(err, 2)
            q = deflate(p + err, k, beta, r.child(20 + c).child(t))
            assert op_norm(q.conj().T @ q - np.eye(k)) <= 10 * n * UNIT_ROUNDOFF
            if subspace_distance(q_exact, q) > eta:
                bad += 1
    assert bad <= 2  # >= 99% of 200 trials


# --- criteria 9 and 11: end-to-end backward error and recursion depth -------

@pytest.fixture(scope="module")
def e2e_runs():
    out = {}
    for n, seed in ((4, 41), (8, 42), (16, 43)):
        params = EigParams(delta=0.05, theta=1.0 / n)
        kv_cap = 32.0 * n**2.5 / 0.05
        runs = []
        stream = Rng(seed)
        for t in range(100):
            r = stream.child(t)
            g = sample_ginibre(n, r.child(0xFF))
            a = g / op_norm(g)
            try:
                res = eig_backward(a, 0.05, params, r)
            except EigFailureError:
                # the solver's own contract check ran out of retries
                runs.append((False, None))
                continue
            ok = res.residual <= 0.05 and res.kappa_v <= kv_cap
            runs.append((ok, res.depth))
        out[n] = runs
    return out


def test_e2e_backward_error(e2e_runs):
    for n, runs in e2e_runs.items():
        successes = sum(ok for ok, _ in runs)
        assert successes >= 95, (n, successes)


def test_recursion_depth_bound(e2e_runs):
    for n, runs in e2e_runs.items():
        cap = math.log(n) / math.log(1.25)
        assert all(depth <= cap for _, depth in runs
                   if depth is not None), n


# --- criterion 10: shattering certificate soundness -------------------------

def test_certificate_stable_under_mesh_refinement():
    instances = []
    for i in range(10):
        r = Rng(300 + i)
        g = sample_ginibre(4, r.child(9))
        instances.append((g / op_norm(g), r))
    base = 0.6 * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2)
    for i in range(20):
        r = Rng(330 + i)
        w = base + 0.05 * (r.child(9).uniform(-1, 1, 4)
                           + 1j * r.child(10).uniform(-1, 1, 4))
        u = sample_haar_unitary(4, r.child(11))
        instances.append((u @ np.diag(w) @ u.conj().T, r))
    for a, r in instances:
        cert = shatter(a, ShatterParams(gamma=0.1), r)
        assert cert.certified
        res = certify_shattered(cert.matrix, cert.grid, cert.epsilon,
                                mesh_per_segment=8)
        fine = certify_shattered(cert.matrix, cert.grid, cert.epsilon,
                                 mesh_per_segment=32)
        assert res.ok
        assert fine.ok  # no pass-to-fail flip under 4x refinement
        assert fine.line_margin <= res.line_margin + 1e-12


# --- criterion 12: precision calculators ------------------------------------

def test_precision_calculator_scaling_and_flags():
    # two-point scaling of the sign-iteration precision in s = 1 - alpha0
    beta = 5e-3
    s1, s2 = 2.0**-8, 2.0**-9
    n1 = sgn_iteration_count(None, 0.01, beta, s=s1)
    n2 = sgn_iteration_count(None, 0.01, beta, s=s2)
    _, b1 = required_precision_sgn(16, None, 0.01, beta, s=s1)
    _, b2 = required_precision_sgn(16, None, 0.01, beta, s=s2)
    # bits ~ 2^(N+1) * lg(1/alpha0), lg(1/alpha0) ~ s/ln 2
    predicted = 2.0 ** (n2 - n1) * (math.log1p(-s2) / math.log1p(-s1))
    assert b2 / b1 == pytest.approx(predicted, rel=0.15)

    # theoretical-mode shattering at n = 10, gamma = 0.1 needs > 53 bits
    n, gamma = 10, 0.1
    eps_shatter = 0.5 * gamma**5 / (16.0 * n**9)
    cert = shatter(np.zeros((n, n), dtype=complex),
                   ShatterParams(gamma=gamma, mode="theoretical"), Rng(0))
    assert cert.epsilon == pytest.approx(eps_shatter)
    # alpha0 is closer to 1 than one ulp here, so the pair form is
    # unrepresentable and the calculators take s = eps/diag^2 directly
    with pytest.raises(PreconditionError):
        sgn_params_from_shattering(cert.epsilon, cert.grid.diag)
    eps0 = cert.epsilon / 2.0
    s = cert.epsilon / cert.grid.diag**2
    _, bits_sgn = required_precision_sgn(n, None, eps0, 0.05 / n, s=s)
    assert bits_sgn > 53
    assert cert.below_hardware_precision

    bits_eig = eig_precision_requirement(n, cert.epsilon, 0.8, 1.0 / n)
    assert bits_eig > 53
    # two-point scaling of the eig requirement in eps (dominant lg^3 term)
    b_half = eig_precision_requirement(n, cert.epsilon / 2.0, 0.8, 1.0 / n)
    k = math.log2(n / cert.epsilon)
    assert b_half / bits_eig == pytest.approx(((k + 1) / k) ** 3, rel=0.1)
