import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from specbisect import calc, kernels
from specbisect.errors import DimensionError, SingularMatrixError, ZeroColumnError
from specbisect.grids import Grid, min_line_sigma
from specbisect.kernels import (C_INV, CANDIDATE_SLACK, MU_INV, MU_MM, MU_QR,
                                SHIFT_CHUNK, UNIT_ROUNDOFF,
                                _schur_lower_bound, as_cmatrix,
                                lu_pivot_extremes, mat_inv, op_norm,
                                normalize_columns, qr_factor,
                                sigma_min_candidates, sigma_min_shifted_batch,
                                trace)
from specbisect.randmat import Rng, sample_ginibre


def test_profile_defaults():
    assert MU_MM * 8 == 8
    assert MU_INV * 8 == 80
    assert MU_QR * 8 == 240
    assert C_INV == 1
    assert UNIT_ROUNDOFF == 2.0**-53


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
    # callers validate, but a NaN that reaches the pivots is not inverted
    with pytest.raises(ValueError):
        mat_inv(np.full((2, 2), np.nan, dtype=complex))


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


def test_op_norm_equals_svdvals_bit_for_bit():
    rng = np.random.default_rng(6)
    cases = [sample_ginibre(9, Rng(6)), rng.standard_normal((2, 3)),
             sample_ginibre(3, Rng(7))[:, :2], np.zeros((3, 3)),
             np.zeros((2, 3))]
    for a in cases:
        want = scipy.linalg.svdvals(np.asarray(a, dtype=np.complex128))[0]
        assert op_norm(a) == want


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


def _slack(zs, a):
    """tau of sigma_min_candidates at each shift."""
    n = a.shape[0]
    return (CANDIDATE_SLACK * n**1.5 * UNIT_ROUNDOFF
            * (np.abs(zs) + np.linalg.norm(a)))


def _shifts(rng, count, scale=1.5):
    g = rng.standard_normal((2, count))
    return scale * (g[0] + 1j * g[1])


def _lower_bound(zs, a):
    t = scipy.linalg.schur(a, output="complex")[0]
    return _schur_lower_bound(np.asarray(zs, dtype=complex), t)


def _near_jordan():
    g = sample_ginibre(2, Rng(21))
    return np.array([[0, 1], [0, 0]], dtype=complex) + 1e-12 * g


LOWER_BOUND_CASES = {
    **{f"ginibre-n{n}": (lambda n=n: sample_ginibre(n, Rng(20, (n,))))
       for n in (1, 2, 5, 24)},
    "normal": lambda: np.diag([0.5, -0.5j, 0.3 + 0.3j, -0.2]).astype(complex),
    "near-jordan": _near_jordan,
}


@pytest.mark.parametrize("case", LOWER_BOUND_CASES)
def test_schur_lower_bound_below_sigma_min(case):
    a = LOWER_BOUND_CASES[case]()
    rng = Rng(22)
    # shifts everywhere, plus some crowding the spectrum
    evals = np.linalg.eigvals(a)
    near = (evals[:, None] + 1e-3 * _shifts(rng.child(0), 8)[None, :]).ravel()
    zs = np.concatenate([_shifts(rng.child(1), 300), near])
    exact = sigma_min_shifted_batch(zs, a)  # oracle first
    lower = _lower_bound(zs, a)
    assert np.all(lower >= 0.0)
    assert np.all(lower <= exact + _slack(zs, a))
    # a bound that collapsed to 0 would prune nothing
    assert np.median(lower / exact) > 0.2


def test_candidates_at_exact_diagonal_entry():
    a = sample_ginibre(6, Rng(23))
    t = scipy.linalg.schur(a, output="complex")[0]
    zs = np.concatenate([np.diag(t)[2:4], _shifts(Rng(24), 50)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower = _schur_lower_bound(zs, t)
        mask = sigma_min_candidates(zs, a)
    assert np.all(lower[:2] == 0.0)
    assert mask[:2].all()
    assert np.all(np.isfinite(lower))


def _assert_mask_holds_every_minimizer(zs, a):
    exact = sigma_min_shifted_batch(zs, a)  # oracle first
    mask = sigma_min_candidates(zs, a)
    assert mask.shape == zs.shape and mask.dtype == bool
    assert mask[np.flatnonzero(exact == exact.min())].all()
    return mask


def test_candidates_hold_first_argmin_on_line_mesh():
    a = sample_ginibre(24, Rng(25)) / 5.0
    grid = Grid(complex(-1.13, -1.07), 0.19, 12, 12)
    pts = grid.line_mesh(16)
    mask = _assert_mask_holds_every_minimizer(pts, a)
    # the bound prunes: only a handful of exact SVDs remain
    assert mask.sum() <= 16


def test_candidates_hold_first_argmin_across_chunk_boundary(monkeypatch):
    a = sample_ginibre(5, Rng(26))
    lam = np.linalg.eigvals(a)[0]
    zs = _shifts(Rng(27), 40)
    zs[17] = lam + 1e-6  # the minimum sits past two chunk boundaries
    one_chunk = _lower_bound(zs, a)
    monkeypatch.setattr(kernels, "CANDIDATE_CHUNK_ELEMS", 5 * 7)
    # chunks of 7 shifts, the last one partial
    assert np.allclose(_lower_bound(zs, a), one_chunk, rtol=1e-13, atol=0)
    mask = _assert_mask_holds_every_minimizer(zs, a)
    assert mask[17]
    assert sigma_min_candidates(zs[:0], a).shape == (0,)


def _all_shifts(zs, a):
    """sigma_min_candidates that keeps every shift: the all-SVD path."""
    return np.ones(np.size(zs), dtype=bool)


def test_callers_equal_all_svd_path(monkeypatch):
    rng = Rng(28)
    x = sample_ginibre(12, rng.child(0)) / 4.0
    grid = Grid(complex(-1.21, -1.17), 0.2, 13, 13)
    sign_input = sample_ginibre(8, rng.child(1)) / 4.0 + 0.3 * np.eye(8)

    def run():
        return (min_line_sigma(x, grid, 8),
                calc.kappa_sign_estimate(sign_input))

    pts = grid.line_mesh(8)
    assert sigma_min_candidates(pts, x).sum() < pts.size // 100  # it prunes
    fast = run()
    monkeypatch.setattr(kernels, "sigma_min_candidates", _all_shifts)
    assert fast == run()


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
