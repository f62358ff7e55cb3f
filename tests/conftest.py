"""Shared oracles and constructors for the test suite.

Oracles are deliberately independent of the package internals: dense
eigendecompositions through numpy/scipy and closed-form constructions
with known answers.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from specbisect.randmat import Rng


def oracle_sign(a):
    """sgn(A) = V sign(Re Lambda) V^-1 from the dense eigendecomposition."""
    w, v = np.linalg.eig(np.asarray(a, dtype=np.complex128))
    s = np.sign(w.real)
    return v @ np.diag(s.astype(np.complex128)) @ np.linalg.inv(v)


def oracle_projector(a, select):
    """Spectral projector onto the eigenvalues where select(lambda) is True."""
    w, v = np.linalg.eig(np.asarray(a, dtype=np.complex128))
    vinv = np.linalg.inv(v)
    idx = np.array([bool(select(lam)) for lam in w])
    return v[:, idx] @ vinv[idx, :]


def subspace_distance(q_a, q_b):
    """sin of the largest principal angle between the column spans."""
    qa, _ = np.linalg.qr(q_a)
    qb, _ = np.linalg.qr(q_b)
    resid = qb - qa @ (qa.conj().T @ qb)
    return float(np.linalg.norm(resid, 2))


def phase_align(v_ref, v):
    """Multiply each column of v_ref by the unit phase maximizing
    Re<v_col, ref_col>, for eigenvector comparison up to phase."""
    out = v_ref.copy()
    for j in range(v.shape[1]):
        ip = np.vdot(v[:, j], v_ref[:, j])
        if abs(ip) > 0:
            out[:, j] = v_ref[:, j] * (np.conj(ip) / abs(ip))
    return out


def certified_apollonius_params(a, eps0, boundary_samples=720):
    """A valid alpha0 with Lambda_eps0(A) inside C_alpha0, from the oracle.

    Pseudospectra of diagonalizable A sit inside disks of radius
    kappa_V * eps0 around the eigenvalues; alpha0 is the maximum Apollonius
    modulus over sampled disk boundaries, padded slightly.
    """
    a = np.asarray(a, dtype=np.complex128)
    w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
    vr = vr / np.linalg.norm(vr, axis=0)
    wnorm = np.linalg.norm(vl / np.conj(np.sum(np.conj(vl) * vr, axis=0)), axis=0)
    kv = math.sqrt(a.shape[0] * float(np.sum(wnorm**2)))
    rad = kv * eps0
    phis = np.linspace(0.0, 2.0 * math.pi, boundary_samples, endpoint=False)
    ring = rad * np.exp(1j * phis)
    alpha = 0.0
    for lam in w:
        zs = lam + ring
        m = np.abs((1 - zs) / (1 + zs))
        m = np.where(m > 1.0, 1.0 / m, m)
        alpha = max(alpha, float(m.max()))
    alpha = min(alpha * 1.001 + 1e-12, 1.0 - 1e-12)
    if alpha >= 1.0:
        raise ValueError("pseudospectrum reaches the imaginary axis")
    return alpha


def random_normal_matrix(n, rng: Rng, re_min=0.3, radius=2.0):
    """Unitarily diagonalizable matrix with eigenvalues off the axis."""
    w = random_offaxis_eigs(n, rng, re_min, radius)
    from specbisect.randmat import sample_haar_unitary
    u = sample_haar_unitary(n, rng.child(1))
    return u @ np.diag(w) @ u.conj().T, w


def random_offaxis_eigs(n, rng: Rng, re_min=0.3, radius=2.0):
    g = rng.child(0)
    re = g.uniform(re_min, radius, n) * np.where(g.uniform(size=n) < 0.5, -1, 1)
    im = g.uniform(-radius, radius, n)
    return re + 1j * im


def random_nonnormal_matrix(n, rng: Rng, kappa_cap=20.0, re_min=0.3,
                            radius=2.0):
    """V D V^-1 with measured kappa(V) <= kappa_cap and off-axis spectrum."""
    w = random_offaxis_eigs(n, rng, re_min, radius)
    for t in range(50):
        e = (rng.child(10 + t).standard_normal((2, n, n)))
        pert = (e[0] + 1j * e[1]) / math.sqrt(2 * n)
        v = np.eye(n) + 0.5 * pert
        kv = np.linalg.cond(v, 2)
        if kv <= kappa_cap:
            return v @ np.diag(w) @ np.linalg.inv(v), w, v
    raise RuntimeError("could not sample a mildly nonnormal matrix")


@pytest.fixture
def rng():
    return Rng(12345)


#: Matrix Market files read_matrix rejects with ValueError: the valid
#: headers outside the accepted subset, then malformed files
BAD_MTX = {
    "symmetric": "%%MatrixMarket matrix coordinate real symmetric\n"
                 "2 2 2\n1 1 1.0\n2 1 3.0\n",
    "skew-symmetric": "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                      "2 2 1\n2 1 1.0\n",
    "hermitian": "%%MatrixMarket matrix array complex hermitian\n"
                 "2 2\n1 0\n2 1\n3 0\n",
    "pattern": "%%MatrixMarket matrix coordinate pattern general\n"
               "2 2 1\n1 1\n",
    "vector": "%%MatrixMarket vector array real general\n2\n1\n2\n",
    "no banner": "2 2\n1\n0\n0.5\n-2\n",
    "empty": "",
    "bad size line": "%%MatrixMarket matrix array real general\n2 x\n1\n2\n",
    "size line too long": "%%MatrixMarket matrix array real general\n"
                          "1 1 1\n1\n",
    "no size line": "%%MatrixMarket matrix array real general\n% only\n",
    "too few entries": "%%MatrixMarket matrix array real general\n"
                       "2 2\n1\n0\n0.5\n",
    "too many entries": "%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 1.0\n2 2 2.0\n",
    "two entries a line": "%%MatrixMarket matrix array real general\n"
                          "2 1\n1 2\n",
    "comment among entries": "%%MatrixMarket matrix array real general\n"
                             "2 1\n1\n% two\n2\n",
    "index out of range": "%%MatrixMarket matrix coordinate real general\n"
                          "2 2 1\n3 1 1.0\n",
    "index zero": "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 1\n1 0 1.0\n",
    "non-integer index": "%%MatrixMarket matrix coordinate real general\n"
                         "2 2 1\n1.0 1 1.0\n",
    "non-number": "%%MatrixMarket matrix array complex general\n"
                  "1 1\n1.0 abc\n",
    "integer too large": "%%MatrixMarket matrix array integer general\n"
                         "1 1\n99999999999999999999\n",
}
