import math

import numpy as np
import pytest
import scipy.linalg

from specbisect.errors import DimensionError, SingularMatrixError, ZeroColumnError
from specbisect.grids import Grid, min_line_sigma
from specbisect.kernels import (DEFAULT_PROFILE, SHIFT_CHUNK, UNIT_ROUNDOFF,
                                as_cmatrix, lu_pivot_extremes, mat_inv,
                                op_norm, normalize_columns, qr_factor,
                                sigma_min_shifted_batch, trace)
from specbisect.randmat import Rng, sample_ginibre


def test_profile_defaults():
    assert DEFAULT_PROFILE.mu_mm(8) == 8
    assert DEFAULT_PROFILE.mu_inv(8) == 80
    assert DEFAULT_PROFILE.mu_qr(8) == 240
    assert DEFAULT_PROFILE.u == 2.0**-53 == UNIT_ROUNDOFF


def test_as_cmatrix_rejects():
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros(3))
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[np.nan * 1j, 0], [0, 0]]))


def test_as_cmatrix_noncontiguous():
    a = np.asfortranarray(np.eye(3, dtype=np.complex128))
    assert np.array_equal(as_cmatrix(a), np.eye(3))


def test_mat_inv_and_pivots():
    a = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=np.complex128)
    inv = mat_inv(a)
    assert np.allclose(inv @ a, np.eye(2), atol=1e-14)
    lo, hi = lu_pivot_extremes(a)
    assert 0 < lo <= hi
    with pytest.raises(SingularMatrixError):
        mat_inv(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_qr_factor_convention():
    rng = Rng(4)
    a = sample_ginibre(7, rng)
    q, r = qr_factor(a)
    assert np.allclose(q @ r, a, atol=1e-13)
    assert np.allclose(q.conj().T @ q, np.eye(7), atol=1e-13)
    d = np.diag(r)
    assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)
    assert np.array_equal(r, np.triu(r))


def test_norms_and_sigma():
    a = np.diag([3.0, 1.0, 0.5]).astype(np.complex128)
    assert op_norm(a) == pytest.approx(3.0)
    assert op_norm(np.zeros((2, 2))) == 0.0
    assert op_norm(np.ones((2, 3))) == pytest.approx(math.sqrt(6.0))
    # shifted sigma at z: distance to spectrum for normal matrices
    assert sigma_min_shifted_batch([0.0, 4.0], a) == pytest.approx([0.5, 1.0])


def test_sigma_min_shifted_batch_matches_loop():
    rng = Rng(5)
    a = sample_ginibre(5, rng)
    zs = np.array([0.1 + 0.2j, -1.0, 2.0 - 1.0j])
    # oracle first: per-shift dense SVD
    want = np.array([scipy.linalg.svdvals(z * np.eye(5) - a)[-1] for z in zs])
    got = sigma_min_shifted_batch(zs, a)
    assert np.allclose(got, want, atol=1e-14)


def _chunked_sigma_min(zs, a):
    """Reference: one batched SVD per SHIFT_CHUNK shifts, concatenated."""
    n = a.shape[0]
    parts = []
    for lo in range(0, zs.size, SHIFT_CHUNK):
        chunk = zs[lo:lo + SHIFT_CHUNK]
        stack = chunk[:, None, None] * np.eye(n) - a
        parts.append(np.linalg.svd(stack, compute_uv=False)[:, -1])
    return np.concatenate(parts)


def test_sigma_min_batch_exact_across_chunk_boundary():
    rng = Rng(6)
    a = sample_ginibre(3, rng.child(0))
    g = rng.child(1).standard_normal((2, SHIFT_CHUNK + 37))
    zs = g[0] + 1j * g[1]
    assert np.array_equal(sigma_min_shifted_batch(zs, a),
                          _chunked_sigma_min(zs, a))


def test_min_line_sigma_first_minimum_across_chunks():
    a = sample_ginibre(3, Rng(7))
    grid = Grid(complex(-1.1, -0.9), 0.25, 8, 8)
    pts = grid.line_mesh(64)
    assert pts.size > SHIFT_CHUNK
    want = _chunked_sigma_min(pts, a)
    k = int(np.argmin(want))
    assert min_line_sigma(a, grid, 64) == (want[k], complex(pts[k]))


def test_trace_compensated():
    n = 64
    d = np.full(n, 0.1 + 0.1j)
    t = trace(np.diag(d))
    assert t.real == pytest.approx(math.fsum([0.1] * n), abs=0)
    assert t.imag == pytest.approx(math.fsum([0.1] * n), abs=0)


def test_normalize_columns():
    v = np.array([[3.0, 0.0], [4.0, 2.0]], dtype=np.complex128)
    out = normalize_columns(v)
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0)
    with pytest.raises(ZeroColumnError) as exc:
        normalize_columns(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert exc.value.column == 1
