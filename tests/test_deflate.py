import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_projector, subspace_distance
from specbisect.deflate import deflate, rurv
from specbisect.errors import DeflationError, PreconditionError
from specbisect.kernels import UNIT_ROUNDOFF, fro_norm, op_norm, qr_q
from specbisect.randmat import Rng, sample_ginibre, sample_haar_unitary

# the package's `deflate` export is the function; the module is needed here
deflate_module = importlib.import_module("specbisect.deflate")


def test_rurv_zero_matrix():
    res = rurv(np.zeros((4, 4), dtype=complex), Rng(0))
    assert op_norm(res.r) <= 1e-14
    assert np.allclose(res.u.conj().T @ res.u, np.eye(4), atol=1e-13)


def test_rurv_reconstruction_unitary():
    n = 6
    a = sample_haar_unitary(n, Rng(1))
    res = rurv(a, Rng(2))
    assert op_norm(res.reconstruction() - a) <= 10 * n * UNIT_ROUNDOFF * 100


def test_rurv_exact_rank_two():
    # rank-2 5x5: the trailing 3x3 corner of R must vanish to roundoff
    rng = Rng(3)
    n, r = 5, 2
    x = sample_ginibre(n, rng.child(0))[:, :r]
    y = sample_ginibre(n, rng.child(1))[:, :r]
    a = x @ y.conj().T
    for t in range(20):
        res = rurv(a, rng.child(10 + t))
        r22 = res.r[r:, r:]
        assert op_norm(r22) <= 1e-10 * op_norm(a)


def test_rurv_r_triangular():
    res = rurv(sample_ginibre(5, Rng(4)), Rng(5))
    assert np.array_equal(res.r, np.triu(res.r))


def test_deflate_coordinate_projector():
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = 1.0
    q = deflate(p, 1, 1e-8, Rng(6))
    assert q.shape == (3, 1)
    assert abs(abs(q[0, 0]) - 1.0) <= 1e-12
    assert np.abs(q[1:, 0]).max() <= 1e-12


def test_deflate_exact_rank_two_projector():
    u = sample_haar_unitary(3, Rng(7))
    p = u[:, :2] @ u[:, :2].conj().T
    q = deflate(p, 2, 1e-8, Rng(8))
    assert op_norm(q @ q.conj().T - p) <= 10 * 3 * UNIT_ROUNDOFF * 1e3


def test_deflate_oblique_projector_subspace(rng):
    # oblique spectral projector of a mildly nonnormal 6x6, perturbed
    n, beta, eta = 6, 1e-8, 1e-2
    e = rng.standard_normal((2, n, n))
    v = np.eye(n) + 0.2 * (e[0] + 1j * e[1])
    w = np.array([-2.0, -1.0 + 1j, -1.5 - 1j, 1.0, 2.0 + 1j, 1.5 - 1j])
    a = v @ np.diag(w) @ np.linalg.inv(v)
    p = oracle_projector(a, lambda z: z.real > 0)  # oracle first
    q_exact = np.linalg.qr(v[:, np.array([zz.real > 0 for zz in w])])[0]
    fail = 0
    for t in range(200):
        noise = rng.child(t).standard_normal((2, n, n))
        err = noise[0] + 1j * noise[1]
        err *= beta / np.linalg.norm(err, 2)
        q = deflate(p + err, 3, beta, rng.child(1000 + t))
        assert op_norm(q.conj().T @ q - np.eye(3)) <= 10 * n * UNIT_ROUNDOFF
        if subspace_distance(q_exact, q) > eta:
            fail += 1
    assert fail <= 2  # >= 99% success


@pytest.mark.parametrize("n", [2, 3, 8, 24, 48])
def test_range_finder_matches_rurv_leading_columns(n):
    # deflate's range finder against the RURV it replaces: with the Haar V
    # that rurv draws, Q(P~ V*[:, :k]) is rurv(P~).u[:, :k] up to rounding,
    # within c n u in the 2-norm, c = 10 as in deflate's orthonormality
    # check, on exact and beta-perturbed oblique and orthogonal projectors
    tol = 10 * n * UNIT_ROUNDOFF
    for k in sorted({1, n // 2, n - 1}):
        for t in range(5):
            r = Rng(n, (k, t))
            g = r.child(0).standard_normal((2, n, n))
            v = g[0] + 1j * g[1]
            w = sample_haar_unitary(n, r.child(1))
            e = sample_ginibre(n, r.child(2))
            for p in (v[:, :k] @ np.linalg.inv(v)[:k, :],
                      w[:, :k] @ w[:, :k].conj().T):
                for beta in (0.0, 1e-3):
                    p_tilde = p + beta / op_norm(e) * e
                    slow = rurv(p_tilde, r.child(3)).u[:, :k]
                    vh = qr_q(sample_ginibre(n, r.child(3))).conj().T
                    fast = qr_q(p_tilde @ vh[:, :k])
                    assert op_norm(fast - slow) <= tol, (k, t, beta)


def test_deflate_draws_one_n_by_k_ginibre(monkeypatch):
    draws = []
    original = deflate_module.sample_ginibre

    def recorded(*args):
        draws.append(original(*args))
        return draws[-1]

    monkeypatch.setattr(deflate_module, "sample_ginibre", recorded)
    p = np.diag([1.0, 1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = deflate(p, 3, 1e-8, Rng(4))
    assert [d.shape for d in draws] == [(5, 3)]
    # the basis is Q(P Q(G)) for that draw, bit for bit
    assert np.array_equal(q, qr_q(p @ qr_q(draws[0])))


def test_deflate_validation():
    p = np.eye(3, dtype=complex)
    with pytest.raises(PreconditionError):
        deflate(p, 3, 1e-8, Rng(0))
    with pytest.raises(PreconditionError):
        deflate(p, 0, 1e-8, Rng(0))
    with pytest.raises(PreconditionError):
        deflate(p, 1, 0.5, Rng(0))


def _planted_basis(monkeypatch, n, k, ratio):
    """Make deflate's QRs return I[:, :cols] with two columns stretched, so
    that its basis has ||Q*Q - I||_2 = ratio 10 n u < ||Q*Q - I||_F;
    returns Q*Q - I."""
    u = np.eye(n, dtype=np.complex128)
    u[:, :2] *= math.sqrt(1.0 + ratio * 10 * n * UNIT_ROUNDOFF)
    monkeypatch.setattr(deflate_module, "qr_q", lambda a: u[:, :a.shape[1]])
    q = u[:, :k]
    return q.conj().T @ q - np.eye(k)


def _calls(monkeypatch, name) -> list:
    original, calls = getattr(deflate_module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(deflate_module, name, counted)
    return calls


def test_deflate_check_raises_on_two_norm_above_threshold(monkeypatch):
    n, k = 6, 3
    err = _planted_basis(monkeypatch, n, k, 1.2)
    tol = 10 * n * UNIT_ROUNDOFF
    two = op_norm(err)
    assert tol < two < fro_norm(err)
    with pytest.raises(DeflationError, match=f"residual {two:.3e}"):
        deflate(np.eye(n, dtype=complex), k, 1e-8, Rng(0))


def test_deflate_check_passes_two_norm_below_threshold(monkeypatch):
    n, k = 6, 3
    err = _planted_basis(monkeypatch, n, k, 0.8)
    # the Frobenius bound does not clear it, so the SVD decides
    assert op_norm(err) < 10 * n * UNIT_ROUNDOFF < fro_norm(err)
    svds = _calls(monkeypatch, "op_norm")
    q = deflate(np.eye(n, dtype=complex), k, 1e-8, Rng(0))
    assert q.shape == (n, k) and svds == ["op_norm"]


def test_deflate_check_skips_svd_when_frobenius_clears(monkeypatch):
    svds = _calls(monkeypatch, "op_norm")
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = deflate(p, 2, 1e-8, Rng(0))
    assert fro_norm(q.conj().T @ q - np.eye(2)) <= 10 * 4 * UNIT_ROUNDOFF
    assert svds == []


def test_deflate_runs_the_matrix_gate_once(monkeypatch):
    # deflate validates the projector itself, once per call
    gates = _calls(monkeypatch, "as_cmatrix")
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    for t in range(3):
        deflate(p, 2, 1e-8, Rng(t))
        assert len(gates) == t + 1


def test_deflate_unitary_equivariance_statistical(rng):
    # conjugating the projector by a unitary moves the recovered subspace
    # along, within 2*eta, trial by trial
    n, k, beta, eta = 4, 2, 1e-10, 1e-2
    u = sample_haar_unitary(n, rng.child(0))
    p = u[:, :k] @ u[:, :k].conj().T
    w = sample_haar_unitary(n, rng.child(1))
    pw = w @ p @ w.conj().T
    bad = 0
    for t in range(200):
        q1 = deflate(p, k, beta, rng.child(100 + t))
        q2 = deflate(pw, k, beta, rng.child(100 + t))
        if subspace_distance(w @ q1, q2) > 2 * eta:
            bad += 1
    assert bad == 0


def test_r22_tail_bound_monte_carlo():
    # violation frequency of the R22 bound stays under theta^2 + 3 sigma
    n, r, theta, trials = 8, 4, 0.5, 2000
    rng = Rng(9)
    u = sample_haar_unitary(n, rng.child(0))
    v = sample_haar_unitary(n, rng.child(1))
    sigmas = np.concatenate([np.ones(r), np.full(n - r, 0.1)])
    a = (u * sigmas[np.newaxis, :]) @ v.conj().T
    cutoff = math.sqrt(r * (n - r)) / theta * 0.1
    viol = 0
    for t in range(trials):
        res = rurv(a, rng.child(10 + t))
        if op_norm(res.r[r:, r:]) > cutoff:
            viol += 1
    sigma_slack = math.sqrt(theta**2 * (1 - theta**2) / trials)
    assert viol / trials <= theta**2 + 3 * sigma_slack


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), data=st.data(), real=st.booleans(),
       seed=st.integers(0, 2**16),
       beta=st.floats(1e-12, 0.25))
def test_deflate_exact_projector_orthonormal_or_typed_error(n, data, real,
                                                           seed, beta):
    """On an exact oblique rank-k projector, deflate returns an n x k basis
    orthonormal to 10 n u or raises DeflationError."""
    k = data.draw(st.integers(1, n - 1), label="k")
    g = Rng(seed).standard_normal((2, n, n))
    v = g[0] if real else g[0] + 1j * g[1]
    p = v[:, :k] @ np.linalg.inv(v)[:k, :]
    try:
        q = deflate(p, k, beta, Rng(seed, (1,)))
    except DeflationError:
        return
    assert q.shape == (n, k)
    assert (np.linalg.norm(q.conj().T @ q - np.eye(k), 2)
            <= 10 * n * UNIT_ROUNDOFF)
