"""Dense complex-matrix kernels.

All operations work on complex128 ndarrays and are pure: inputs are never
mutated. Square-matrix kernels validate through as_cmatrix, except
mat_inv, the per-step kernel of the sign iteration, and trace: both take
arrays their caller validated or built. QR, norms and column scaling
accept any 2-d array. These are the concrete instantiations of the
black-box stable primitives (invert, QR, norms) that the higher-level
algorithms are built on; their stability constants MU_MM, MU_INV, MU_QR
and C_INV, with UNIT_ROUNDOFF, are what the precision calculators assume.

Inversion is one straight LAPACK call, zgesv (a partial-pivot LU, zgetrf,
then the triangular solves, zgetrs, against a cached identity): mat_inv
judges singularity by a single pivot test on the factors' diagonal that
zgesv returns, so a Newton sign step costs one factorization and one
wrapper call. QR is two straight LAPACK calls (zgeqrf, zungqr) with the
workspaces scipy.linalg.qr would query, cached per shape like op_norm's
zgesdd workspace: on the small blocks deep in the recursion the wrappers,
not LAPACK, would otherwise set the cost.

Shifted smallest singular values have one kernel,
sigma_min_shifted_batch: the exact value from one SVD per shift.
sigma_min_argmin finds the minimum over a shift set with that kernel
alone, taking SVDs only where the 1-Lipschitz bound of the values it has
cannot rule the minimum out. No solver path calls it: it serves the
brute-force certification oracle (grids.min_line_sigma, certify_shattered)
and the kappa_sign calculator (calc.kappa_sign_estimate), while the
solver's shattering certificate comes from the eigendecomposition
(shatter).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError, ZeroColumnError

#: unit roundoff of IEEE double arithmetic
UNIT_ROUNDOFF = 2.0**-53

#: stability constants of the kernels above, as the precision calculators
#: use them: multiplication, inversion and QR are backward stable with
#: factors mu_MM(n) = MU_MM n, mu_INV(n) = MU_INV n and mu_QR(n) = MU_QR n,
#: and inversion's error grows as kappa^(C_INV lg n); conventional-algorithm
#: values for O(n^3) kernels in double precision
MU_MM = 1.0
MU_INV = 10.0
MU_QR = 30.0
C_INV = 1.0

#: shifts per batched SVD stack in sigma_min_shifted_batch (memory cap:
#: the stack holds SHIFT_CHUNK shifted copies of the matrix at once)
SHIFT_CHUNK = 8192


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite square complex128 matrix.

    The single input gate of the package: DimensionError for any shape
    fault, ValueError for NaN/Inf entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # complex isfinite: both parts finite
        raise ValueError("matrix contains non-finite entries")
    return m


#: mat_inv calls a matrix singular when min|U_ii| <= max(n, PIVOT_FLOOR) u
#: max|U_ii|; the floor keeps a relative pivot of at least 10u at small n
PIVOT_FLOOR = 10


def lu_pivot_extremes(a) -> tuple[float, float]:
    """(smallest, largest) |U_ii| from a partial-pivot LU of a.

    The ratio largest/smallest is a cheap growth-based condition estimate.
    LAPACK's getrf is called directly: lu_factor would turn an exactly zero
    pivot into a LinAlgWarning, where the caller reads the pivots itself.
    """
    a = as_cmatrix(a)
    lu, _, _ = scipy.linalg.lapack.zgetrf(a)
    d = np.abs(np.diag(lu))
    return float(d.min()), float(d.max())


@functools.lru_cache(maxsize=128)
def _identity(n: int) -> np.ndarray:
    """Read-only Fortran-ordered n x n identity, the right-hand side of
    mat_inv's zgesv; zgesv gets a copy, never this array."""
    eye = np.eye(n, dtype=np.complex128, order="F")
    eye.setflags(write=False)
    return eye


def mat_inv(a) -> np.ndarray:
    """Invert via one zgesv call; raise if singular to working precision.

    The caller passes a finite square complex128 array: sgn validates its
    input once and checks every iterate for finiteness, and eig._measure
    inverts an eigenvector matrix it assembled, so mat_inv does not run
    as_cmatrix on every Newton step. A NaN that reaches the pivots still
    raises ValueError.

    LAPACK's gesv factors (getrf) and solves against a copy of the cached
    identity (getrs, the routine lu_solve wraps) in one call, so the
    inverse is what lu_solve(lu_factor(a), I) gives, bit for bit, without
    scipy's per-call wrappers. Before the inverse is returned, a single
    pivot test on the returned factors' diagonal raises SingularMatrixError
    when min|U_ii| <= max(n, PIVOT_FLOOR) u max|U_ii| (an exactly zero
    pivot, where gesv stops before the solve, included).
    """
    n = a.shape[0]
    lu, _, inv, _ = scipy.linalg.lapack.zgesv(a, _identity(n))
    d = np.abs(lu.diagonal())
    d.sort()  # both ends from one call; a NaN pivot sorts last
    pivot_min, pivot_max = float(d[0]), float(d[-1])
    if math.isnan(pivot_max):
        raise ValueError("matrix contains non-finite entries")
    if pivot_min <= max(n, PIVOT_FLOOR) * UNIT_ROUNDOFF * pivot_max:
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot {pivot_min:.3e})",
            pivot=pivot_min,
        )
    return inv


@functools.lru_cache(maxsize=128)
def _qr_plan(m: int, n: int) -> tuple[int, int, np.ndarray]:
    """(zgeqrf lwork, zungqr lwork, mask below R's diagonal) of an m x n QR.

    The two workspace sizes are what scipy.linalg.qr's queries return; they
    depend on the shape alone, and the blocking LAPACK picks follows them,
    so the factors come out as scipy's, bit for bit.
    """
    k = min(m, n)
    work = scipy.linalg.lapack.zgeqrf(
        np.zeros((m, n), np.complex128, order="F"), lwork=-1)[2]
    geqrf_lwork = int(work[0].real)
    work = scipy.linalg.lapack.zungqr(
        np.zeros((m, k), np.complex128, order="F"),
        np.zeros(k, np.complex128), lwork=-1)[1]
    below = np.tri(k, n, -1, dtype=bool)
    below.setflags(write=False)
    return geqrf_lwork, int(work[0].real), below


def qr_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with the nonnegative-real-diagonal sign convention.

    Returns the economic (Q, R) with R exactly upper triangular (+0.0 below
    the diagonal), diag(R) real and >= 0. The convention is enforced by a
    diagonal phase fix; it is what makes the Q of a Ginibre matrix exactly
    Haar distributed.

    LAPACK's geqrf and ungqr are called directly with the workspaces
    scipy.linalg.qr queries (cached per shape, _qr_plan), and the phase fix
    scales R's rows and Q's columns once each: (Q, R) are, bit for bit,
    those of scipy.linalg.qr(mode="economic") with the phase fix applied.
    """
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    k = min(m, n)
    if k == 0:  # LAPACK rejects an empty matrix's workspace queries
        return (np.empty((m, 0), np.complex128),
                np.empty((0, n), np.complex128))
    geqrf_lwork, ungqr_lwork, below = _qr_plan(m, n)
    qr, tau, _, info = scipy.linalg.lapack.zgeqrf(a, lwork=geqrf_lwork)
    _check_info("zgeqrf", info)
    d = qr.diagonal()
    absd = np.abs(d)
    ph = np.divide(d, absd, out=np.ones(k, np.complex128), where=absd > 0.0)
    r = np.empty((k, n), np.complex128)
    np.multiply(np.conj(ph)[:, np.newaxis], qr[:k], out=r)
    r[below] = 0.0  # the product holds scaled reflectors there
    r.flat[::n + 1] = absd
    # overwrites the reflectors in qr, which R no longer reads
    q, _, info = scipy.linalg.lapack.zungqr(qr[:, :k], tau, lwork=ungqr_lwork,
                                            overwrite_a=1)
    _check_info("zungqr", info)
    q *= ph
    return q, r


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


@functools.lru_cache(maxsize=128)
def _gesdd_lwork(m: int, n: int) -> int:
    """zgesdd's workspace for singular values alone, as svdvals queries it."""
    lwork, info = scipy.linalg.lapack.zgesdd_lwork(m, n, compute_uv=0)
    if info != 0:
        raise ValueError(f"zgesdd workspace query failed (info {info})")
    return int(lwork.real)


def op_norm(a) -> float:
    """Spectral norm (largest singular value).

    LAPACK's gesdd is called directly with the workspace its size query
    gives (cached per shape), as svdvals does, so the value is svdvals' bit
    for bit, without scipy's per-call batching wrapper.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():
        return 0.0
    _, svals, _, info = scipy.linalg.lapack.zgesdd(
        a, compute_uv=0, lwork=_gesdd_lwork(*a.shape))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    _check_info("zgesdd", info)
    return float(svals[0])


def fro_norm(a) -> float:
    """Frobenius norm by BLAS nrm2: O(n^2), and scaled, so it overflows
    only when the norm itself exceeds the double range."""
    return float(scipy.linalg.blas.dznrm2(a.ravel(order="K")))


def sigma_min_shifted_batch(zs, a) -> np.ndarray:
    """sigma_min(z*I - A) for an array of shifts, via batched SVDs.

    Shifts are processed SHIFT_CHUNK at a time, which caps the memory of
    the shifted stack; the result does not depend on the chunking.
    """
    a = as_cmatrix(a)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    n = a.shape[0]
    idx = np.arange(n)
    out = np.empty(zs.size)
    for lo in range(0, zs.size, SHIFT_CHUNK):
        chunk = zs[lo:lo + SHIFT_CHUNK]
        stack = np.broadcast_to(-a, (chunk.size, n, n)).copy()
        stack[:, idx, idx] += chunk[:, np.newaxis]
        out[lo:lo + chunk.size] = np.linalg.svd(stack, compute_uv=False)[:, -1]
        del stack  # free before the next chunk is allocated
    return out


def sigma_min_argmin(zs, a) -> tuple[int, float]:
    """(first index, value) of the minimum of sigma_min(z*I - A) over zs,
    both exactly what one SVD per shift would give, with SVDs at few of
    the shifts.

    sigma_min(zI - A) is 1-Lipschitz in z (Weyl), and |z_i - z_j| <=
    |P_i - P_j| for the length P_j of the polyline z_0 ... z_j, whatever
    the order of the shifts. A branch-and-bound search over blocks
    [lo, hi) of consecutive shifts takes, each round, one batched SVD at
    the middle shift of every block and lowers U, the least value found so
    far. It drops a block when value(mid) - r > U + 2 tau and splits every
    other block around its middle, where
      * r = max(P_mid - P_lo, P_{hi-1} - P_mid), padded by 2(N + 5) u P_{N-1}
        for the rounding of the cumulative sum over the N shifts, and
      * tau = mu_qr(n) u (max|z| + ||A||_F) bounds the error of each
        computed value (the SVD is backward stable with factor MU_QR n).
    A dropped shift z thus computes to at least value(mid) - r - 2 tau > U,
    strictly above a value already taken, so every shift that attains the
    minimum gets its SVD.
    """
    a = as_cmatrix(a)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    if zs.size == 0:
        raise ValueError("sigma_min_argmin needs at least one shift")
    path = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(zs)))))
    pad = 2 * (zs.size + 5) * UNIT_ROUNDOFF * path[-1]
    tau = (MU_QR * a.shape[0] * UNIT_ROUNDOFF
           * (np.abs(zs).max() + fro_norm(a)))
    vals = np.full(zs.size, np.inf)  # inf where no SVD was taken
    upper = np.inf  # U
    lo, hi = np.array([0]), np.array([zs.size])
    while lo.size:
        mid = (lo + hi) // 2
        vals[mid] = sigma_min_shifted_batch(zs[mid], a)
        upper = min(upper, vals[mid].min())
        radius = np.maximum(path[mid] - path[lo], path[hi - 1] - path[mid])
        keep = vals[mid] - (radius + pad) <= upper + 2 * tau
        lo, mid, hi = lo[keep], mid[keep], hi[keep]
        lo, hi = np.concatenate((lo, mid + 1)), np.concatenate((mid, hi))
        lo, hi = lo[lo < hi], hi[lo < hi]
    k = int(np.argmin(vals))
    return k, float(vals[k])


def trace(a) -> complex:
    """Exactly-rounded sum of the diagonal (compensated accumulation) of
    an array its caller built: like mat_inv, trace does not validate."""
    d = np.diag(a)
    return complex(math.fsum(d.real), math.fsum(d.imag))


def normalize_columns(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    norms = np.linalg.norm(v, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroColumnError(f"column {zero[0]} has zero norm",
                              column=int(zero[0]))
    return v / norms[np.newaxis, :]
