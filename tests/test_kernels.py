import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specbisect import ShatterParams, calc, grids, kernels, shatter
from specbisect.errors import DimensionError, SingularMatrixError, ZeroColumnError
from specbisect.grids import Grid, min_line_sigma
from specbisect.kernels import (C_INV, MU_INV, MU_MM, MU_QR, PIVOT_FLOOR,
                                SHIFT_CHUNK, UNIT_ROUNDOFF, as_cmatrix,
                                fro_norm, lu_pivot_extremes, mat_inv, op_norm,
                                normalize_columns, qr_factor,
                                sigma_min_argmin, sigma_min_shifted_batch,
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
    inv, inv_fro = mat_inv(a)
    assert np.allclose(inv @ a, np.eye(2), atol=1e-14)
    assert inv_fro == fro_norm(inv)
    assert mat_inv(a, fro_norm(a))[0].tobytes() == inv.tobytes()
    lo, hi = lu_pivot_extremes(a)
    assert 0 < lo <= hi
    with pytest.raises(SingularMatrixError):
        mat_inv(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # an exactly zero pivot, where zgesv stops before the solve
    with pytest.raises(SingularMatrixError):
        mat_inv(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 6.0, 7.0]],
                         dtype=np.complex128))
    # callers validate, but a NaN that reaches the solve is not inverted
    with pytest.raises(ValueError):
        mat_inv(np.full((2, 2), np.nan, dtype=complex))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 24, 48])
def test_mat_inv_equals_lu_solve_bit_for_bit(n, order):
    a = np.asarray(sample_ginibre(n, Rng(n, (7,))), order=order)
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a),
                                 np.eye(n, dtype=np.complex128))
    got, _ = mat_inv(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_mat_inv_is_pure():
    a = sample_ginibre(5, Rng(5))
    before = a.tobytes()
    first, _ = mat_inv(a)
    second, _ = mat_inv(a)
    assert a.tobytes() == before and first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, a)


def _lu_pivot_test(a):
    """The pivot test mat_inv used to run on its LU: singular when
    min|U_ii| <= max(n, PIVOT_FLOOR) u max|U_ii|, with scipy's lu_factor."""
    with warnings.catch_warnings():
        # an exactly zero pivot is a verdict here, not a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    return bool(d.min() <= max(a.shape[0], PIVOT_FLOOR) * UNIT_ROUNDOFF
                * d.max())


def _singular(a):
    try:
        mat_inv(a)
    except SingularMatrixError:
        return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.integers(1, 6).flatmap(lambda n: arrays(
           np.complex128, (n, n), elements=st.complex_numbers(
               max_magnitude=4.0, allow_nan=False, allow_infinity=False))))
def test_mat_inv_singularity_against_lu_pivot_test(a):
    # the corpus of sgn's hypothesis test: every matrix the pivot test
    # calls singular is singular here too. The others are singular to
    # working precision by their SVD: ill-conditioned ones whose pivots all
    # look alike, such as [[t, 1], [0, t]] with t = 3e-21, and exactly
    # singular ones with subnormal entries, whose LU, rounding in the
    # subnormal range, shows no small pivot
    old, new = _lu_pivot_test(a), _singular(a)
    if old:
        assert new
    elif new:
        svals = np.linalg.svd(a, compute_uv=False)
        assert svals[-1] <= a.shape[0] * PIVOT_FLOOR * UNIT_ROUNDOFF * svals[0]


def test_mat_inv_singularity_on_small_relative_pivots():
    # diag(1, ..., 1, k u): the pivot test calls it singular for
    # k <= m = max(n, PIVOT_FLOOR), the norm test for k <= m sqrt(n - 1),
    # since ||A||_F ||A^-1||_F ~ sqrt(n - 1)/(k u); they agree at n = 2
    for n in range(2, 49):
        m = max(n, PIVOT_FLOOR)
        for k in range(1, 101):
            a = np.eye(n, dtype=np.complex128)
            a[-1, -1] = k * UNIT_ROUNDOFF
            assert _lu_pivot_test(a) == (k <= m), (n, k)
            assert _singular(a) == (k <= m * math.sqrt(n - 1)), (n, k)


def _exactly_singular():
    cases = {"zero-1x1": np.zeros((1, 1)), "zero-4x4": np.zeros((4, 4)),
             "ones-2x2": np.ones((2, 2)),
             "zero-pivot-3x3": np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0],
                                         [3.0, 6.0, 7.0]])}
    for n in (3, 5, 8, 24, 48):
        g = sample_ginibre(n, Rng(n, (3,)))
        zero_col, zero_row, repeated_row, combined_col = (
            g.copy() for _ in range(4))
        zero_col[:, 1] = 0.0
        zero_row[1] = 0.0
        repeated_row[-1] = g[0]
        combined_col[:, -1] = g[:, 0] + 2.0 * g[:, 1]
        cases.update({f"zero-column-{n}": zero_col,
                      f"zero-row-{n}": zero_row,
                      f"repeated-row-{n}": repeated_row,
                      f"combined-column-{n}": combined_col,
                      f"rank-one-{n}": np.outer(g[:, 0], g[0].conj())})
    return {k: np.asarray(v, dtype=np.complex128) for k, v in cases.items()}


EXACTLY_SINGULAR = _exactly_singular()


@pytest.mark.parametrize("name", EXACTLY_SINGULAR)
def test_mat_inv_exactly_singular_raises_without_warning(name):
    a = EXACTLY_SINGULAR[name]
    assert _lu_pivot_test(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            mat_inv(a)


def test_qr_factor_convention():
    rng = Rng(4)
    a = sample_ginibre(7, rng)
    q, r = qr_factor(a)
    assert np.allclose(q @ r, a, atol=1e-13)
    assert np.allclose(q.conj().T @ q, np.eye(7), atol=1e-13)
    d = np.diag(r)
    assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)
    assert np.array_equal(r, np.triu(r))


def _qr_oracle(a):
    """scipy's economic QR, then the phase fix into fresh arrays: Q's
    columns times the pivot phases, R's rows times their conjugates, R's
    lower triangle zeroed again and its diagonal set to |pivot|."""
    q, r = scipy.linalg.qr(a, mode="economic", check_finite=False)
    k = min(a.shape)
    d = np.diag(r)[:k].copy()
    absd = np.abs(d)
    ph = np.where(absd > 0.0, d / np.where(absd > 0.0, absd, 1.0), 1.0)
    q = q * ph[np.newaxis, :]
    r = np.triu(np.conj(ph)[:, np.newaxis] * r)
    r[np.arange(k), np.arange(k)] = absd
    return q, r


def _zero_column(m, n):
    a = sample_ginibre(max(m, n), Rng(11))[:m, :n].copy()
    a[:, 1] = 0.0  # R's second pivot is exactly 0, so its phase is 1
    return a


QR_INPUTS = {
    "1x1": lambda: sample_ginibre(1, Rng(1)),
    "2x2": lambda: sample_ginibre(2, Rng(2)),
    "7x7": lambda: sample_ginibre(7, Rng(7)),
    "48x48": lambda: sample_ginibre(48, Rng(48)),
    # past LAPACK's crossover of 128 geqrf runs blocked, and its bits then
    # follow the workspace size
    "blocked-160x160": lambda: sample_ginibre(160, Rng(160)),
    "tall-9x4": lambda: sample_ginibre(9, Rng(9))[:, :4],
    "wide-4x9": lambda: sample_ginibre(9, Rng(9))[:4, :],
    "real-fortran-6x6": lambda: np.asfortranarray(
        np.random.default_rng(6).standard_normal((6, 6))),
    "zero-column-5x5": lambda: _zero_column(5, 5),
    "zero-column-tall-7x3": lambda: _zero_column(7, 3),
}


@pytest.mark.parametrize("make", QR_INPUTS.values(), ids=QR_INPUTS.keys())
def test_qr_factor_equals_scipy_qr_bit_for_bit(make):
    # sample_haar_unitary, and through it the benchmark's clustered inputs,
    # and both QRs of every rurv are these bytes
    a = np.asarray(make(), dtype=np.complex128)
    q_want, r_want = _qr_oracle(a)
    q, r = qr_factor(a)
    for got, want in ((q, q_want), (r, r_want)):
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()  # -0.0 != +0.0 here
    below = r[np.tri(*r.shape, -1, dtype=bool)]
    assert not np.signbit(below.real).any()
    assert not np.signbit(below.imag).any()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_qr_factor_empty(shape):
    q, r = qr_factor(np.zeros(shape))
    q_want, r_want = scipy.linalg.qr(np.zeros(shape), mode="economic")
    assert q.shape == q_want.shape and r.shape == r_want.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(np.inf, np.nan)])
def test_fro_norm_propagates_non_finite(bad):
    # sgn reads an iterate's finiteness from its norm
    for n in (1, 2, 5, 16):
        for order in "CF":
            for pos in {(0, 0), (n - 1, n - 1), (n // 2, 0)}:
                for scale in (1e-300, 1.0, 1e300):
                    x = np.full((n, n), scale * (0.6 - 0.8j), order=order)
                    x[pos] = bad
                    assert not math.isfinite(fro_norm(x)), (n, order, pos)


@pytest.mark.parametrize("scale", [1e-310, 1e-170, 1.0, 1e160, 1e300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_fro_norm_scales_past_the_double_range(scale, order):
    # the plain sum of squares underflows or overflows at the ends; the
    # norm does not, and math.hypot over the parts is the oracle
    a = np.asarray(sample_ginibre(5, Rng(5)), order=order)
    a = np.asarray(scale * a, order=order)
    want = math.hypot(*np.concatenate([a.real.ravel(), a.imag.ravel()]))
    assert fro_norm(a) == pytest.approx(want, rel=1e-14)
    assert fro_norm(np.zeros((3, 3), complex)) == 0.0
    assert fro_norm(np.full((2, 2), 1e308 + 1e308j)) == math.inf


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


def _all_svd_argmin(zs, a):
    """Reference: (first index, value) of the minimum, one SVD per shift."""
    exact = sigma_min_shifted_batch(zs, a)
    k = int(np.argmin(exact))
    return k, float(exact[k])


def _record_candidates(monkeypatch):
    """Collect the shifts of every sigma_min_shifted_batch call that
    sigma_min_argmin makes: its candidates, the shifts it takes SVDs at."""
    taken = []

    def recording(zs, a):
        taken.append(np.asarray(zs))
        return sigma_min_shifted_batch(zs, a)

    monkeypatch.setattr(kernels, "sigma_min_shifted_batch", recording)
    return taken


def _assert_candidates_hold_every_minimizer(zs, a, monkeypatch):
    exact = sigma_min_shifted_batch(zs, a)  # oracle first
    k = int(np.argmin(exact))
    taken = _record_candidates(monkeypatch)
    assert sigma_min_argmin(zs, a) == (k, float(exact[k]))
    assert np.isin(zs[exact == exact.min()], np.concatenate(taken)).all()


def _shifts(rng, count, scale=1.5):
    g = rng.standard_normal((2, count))
    return scale * (g[0] + 1j * g[1])


def _near_jordan():
    g = sample_ginibre(2, Rng(21))
    return np.array([[0, 1], [0, 0]], dtype=complex) + 1e-12 * g


ARGMIN_CASES = {
    **{f"ginibre-n{n}": (lambda n=n: sample_ginibre(n, Rng(20, (n,))))
       for n in (1, 2, 5, 24)},
    "normal": lambda: np.diag([0.5, -0.5j, 0.3 + 0.3j, -0.2]).astype(complex),
    "near-jordan": _near_jordan,
}


@pytest.mark.parametrize("case", ARGMIN_CASES)
def test_argmin_equals_all_svd(case):
    a = ARGMIN_CASES[case]()
    rng = Rng(22)
    # shifts everywhere, plus some crowding the spectrum
    evals = np.linalg.eigvals(a)
    near = (evals[:, None] + 1e-3 * _shifts(rng.child(0), 8)[None, :]).ravel()
    zs = np.concatenate([_shifts(rng.child(1), 300), near])
    want = _all_svd_argmin(zs, a)  # oracle first
    assert sigma_min_argmin(zs, a) == want


def test_candidates_at_exact_diagonal_entry(monkeypatch):
    a = sample_ginibre(6, Rng(23))
    t = scipy.linalg.schur(a, output="complex")[0]
    zs = np.concatenate([np.diag(t)[2:4], _shifts(Rng(24), 50)])
    assert _all_svd_argmin(zs, a)[0] < 2  # oracle first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_candidates_hold_every_minimizer(zs, a, monkeypatch)


def test_candidates_hold_first_argmin_on_line_mesh(monkeypatch):
    a = sample_ginibre(24, Rng(25)) / 5.0
    grid = Grid(complex(-1.13, -1.07), 0.19, 12, 12)
    pts = grid.line_mesh(16)
    _assert_candidates_hold_every_minimizer(pts, a, monkeypatch)


def test_candidates_hold_first_argmin_across_chunk_boundary(monkeypatch):
    a = sample_ginibre(5, Rng(26))
    lam = np.linalg.eigvals(a)[0]
    zs = _shifts(Rng(27), 40)
    zs[17] = lam + 1e-6  # the minimum sits past two chunk boundaries
    assert _all_svd_argmin(zs, a)[0] == 17  # oracle first
    monkeypatch.setattr(kernels, "SHIFT_CHUNK", 7)
    _assert_candidates_hold_every_minimizer(zs, a, monkeypatch)
    with pytest.raises(ValueError):
        sigma_min_argmin(zs[:0], a)


def test_argmin_first_of_repeated_minimizers():
    a = sample_ginibre(5, Rng(29))
    zs = _shifts(Rng(30), 200)
    k, _ = _all_svd_argmin(zs, a)  # oracle first
    # the minimizing shift again, later and at the very end
    zs = np.concatenate([zs[:150], zs[k:k + 1], zs[150:], zs[k:k + 1]])
    want = _all_svd_argmin(zs, a)
    assert want[0] == k
    assert sigma_min_argmin(zs, a) == want


def test_argmin_at_last_index():
    a = sample_ginibre(5, Rng(31))
    zs = _shifts(Rng(32), 300)
    zs[-1] = np.linalg.eigvals(a)[2] + 1e-9
    want = _all_svd_argmin(zs, a)  # oracle first
    assert want[0] == zs.size - 1
    assert sigma_min_argmin(zs, a) == want


def test_argmin_radius_reaches_both_sides():
    # sigma_min(z*I - 0) = |z|. After the first round, the block [0, 3)
    # has its middle shift 1.001 one step of 0.001 from 1.0 and one of
    # 0.991 from the minimum 0.01; reversed, the long step is on the left
    zs = np.array([1.0, 1.001, 0.01, 0.5, 0.6, 0.3, 0.35])
    a = np.zeros((1, 1))
    for shifts, k in ((zs, 2), (zs[::-1], 4)):
        want = _all_svd_argmin(shifts, a)  # oracle first
        assert want == (k, 0.01)
        assert sigma_min_argmin(shifts, a) == want


def test_argmin_holds_minimizer_within_rounding():
    # shifts one ulp apart: the computed values differ by SVD rounding,
    # by more than the path is long, so only the slack tau keeps the
    # first minimizer from being pruned
    a = 1e3 * sample_ginibre(6, Rng(44))
    zs = 0.3 + 0.2j + np.spacing(0.3) * np.arange(400)
    exact = sigma_min_shifted_batch(zs, a)  # oracle first
    assert np.ptp(exact) > np.ptp(zs.real)  # more than 1-Lipschitz allows
    k = int(np.argmin(exact))
    assert sigma_min_argmin(zs, a) == (k, float(exact[k]))


def test_argmin_prunes_shatter_mesh(monkeypatch):
    r = Rng(300)
    g = sample_ginibre(4, r.child(9))
    cert = shatter(g / op_norm(g), ShatterParams(gamma=0.1), r)
    pts = cert.grid.line_mesh(32)
    assert pts.size > 400_000
    taken = _record_candidates(monkeypatch)
    _, smin = sigma_min_argmin(pts, cert.matrix)
    assert sum(map(np.size, taken)) < 0.02 * pts.size
    assert smin >= cert.epsilon  # the grid is certified


def test_callers_equal_all_svd_path(monkeypatch):
    rng = Rng(28)
    x = sample_ginibre(12, rng.child(0)) / 4.0
    grid = Grid(complex(-1.21, -1.17), 0.2, 13, 13)
    sign_input = sample_ginibre(8, rng.child(1)) / 4.0 + 0.3 * np.eye(8)

    def run():
        return (min_line_sigma(x, grid, 8),
                calc.kappa_sign_estimate(sign_input))

    fast = run()
    monkeypatch.setattr(grids, "sigma_min_argmin", _all_svd_argmin)
    monkeypatch.setattr(calc, "sigma_min_argmin", _all_svd_argmin)
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
