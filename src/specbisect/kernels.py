"""Dense complex-matrix kernels.

All operations work on complex128 ndarrays and are pure: inputs are never
mutated. Square-matrix kernels validate through as_cmatrix, except
mat_inv, the per-step kernel of the sign iteration, and trace: both take
arrays their caller validated or built. QR, norms and column scaling
accept any 2-d array. These are the concrete instantiations of the
black-box stable primitives (invert, QR, norms) that the higher-level
algorithms are built on; their stability constants MU_MM, MU_INV, MU_QR
and C_INV, with UNIT_ROUNDOFF, are what the precision calculators assume.

The LAPACK routines come through numpy's bundled OpenBLAS, so the solver
runs without scipy. Inversion is one call of numpy's inv gufunc, LAPACK's
zgesv (a partial-pivot LU, zgetrf, then the triangular solves, zgetrs,
against the identity); numpy exposes no LU factors, so mat_inv judges
singularity from the Frobenius norms of the matrix and its inverse, and a
Newton sign step costs one factorization and one gufunc call. QR is
numpy's two qr gufuncs (zgeqrf in place, then zungqr), with a Q-only
path (qr_q) for the callers that discard R, the operator norm
numpy's svd gufunc without vectors (zgesdd), and the Frobenius norm one BLAS
inner product: on the small blocks deep in the recursion the wrappers,
not LAPACK, would otherwise set the cost, so the hot kernels skip the
public np.linalg wrappers. Each returns, bit for bit, what the scipy.linalg
routine of the same LAPACK call does (the tests compare them).

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
from numpy.linalg import _umath_linalg

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


#: mat_inv calls a matrix singular to working precision when
#: ||A||_F ||A^-1||_F >= 1/(max(n, PIVOT_FLOOR) u); the floor keeps the
#: threshold at or below 1/(10u) at small n
PIVOT_FLOOR = 10


def lu_pivot_extremes(a) -> tuple[float, float]:
    """(smallest, largest) |U_ii| from a partial-pivot LU of a.

    The ratio largest/smallest is a cheap growth-based condition estimate.
    No solver path calls it. LAPACK's getrf is called directly: lu_factor
    would turn an exactly zero pivot into a LinAlgWarning, where the caller
    reads the pivots itself. It is the one function of the package that
    needs scipy, which is not a run-time dependency (it comes with the
    'test' extra): scipy.linalg is imported here, not with the module, so
    that the solver and the CLI run without it.
    """
    import scipy.linalg

    a = as_cmatrix(a)
    lu, _, _ = scipy.linalg.lapack.zgetrf(a)
    d = np.abs(np.diag(lu))
    return float(d.min()), float(d.max())


def mat_inv(a, a_fro: float | None = None) -> tuple[np.ndarray, float]:
    """(A^-1, ||A^-1||_F) via one zgesv call; raise if A is singular to
    working precision.

    The caller passes a finite square complex128 array: sgn validates its
    input once and checks every iterate for finiteness, and eig._measure
    and grids.eig_pairs invert eigenvector matrices they hold, so mat_inv
    does not run as_cmatrix on every Newton step. A NaN or Inf that
    reaches it still raises ValueError.

    numpy's inv gufunc solves against the identity with LAPACK's gesv (a
    partial-pivot LU, getrf, then getrs), so the inverse is what
    lu_solve(lu_factor(a), I) gives, bit for bit, without the public
    np.linalg.inv's per-call wrapper. numpy exposes no LU factors, so the
    singularity test reads the Frobenius norms: SingularMatrixError when
    ||A||_F ||A^-1||_F >= 1/(max(n, PIVOT_FLOOR) u), a scale-free upper
    bound on kappa_2(A). An exactly zero pivot, where gesv stops before
    the solve and numpy fills the inverse with NaN, raises it too. An
    inverse or a norm product that overflows while A is finite and, scaled
    by a power of two to entries below 1, passes the test, is returned as
    it is: sgn's finiteness check on the next iterate sees it.

    Compared with the LU pivot test min|U_ii| <= max(n, PIVOT_FLOOR) u
    max|U_ii|, every matrix that test calls singular is singular here too,
    and the decisions differ in two regions (tests/test_kernels.py pins
    both, with scipy's lu_factor as the oracle). Near the threshold: on
    diag(1, ..., 1, r) the product is sqrt(n - 1 + r^2) sqrt(n - 1 + 1/r^2)
    ~ sqrt(n - 1)/r, so relative pivots r from max(n, PIVOT_FLOOR) u up to
    about sqrt(n - 1) times that are singular here only. And on matrices
    singular to working precision whose pivots all look alike:
    ill-conditioned ones such as [[t, 1], [0, t]] with t = 3e-21, and
    exactly singular ones with subnormal entries, whose LU rounds in the
    subnormal range.

    sgn passes a_fro = ||A||_F, which it holds already, and holds an
    np.errstate of its own. Without a_fro, mat_inv takes the norm and
    holds one itself, so that an exactly zero pivot raises without
    numpy's invalid-value warning.
    """
    if a_fro is None:
        with np.errstate(invalid="ignore"):
            return mat_inv(a, fro_norm(a))
    inv = _umath_linalg.inv(a, signature="D->D")
    inv_fro = fro_norm(inv)
    cond = a_fro * inv_fro
    limit = 1.0 / (max(a.shape[0], PIVOT_FLOOR) * UNIT_ROUNDOFF)
    if not cond < limit:
        _singular_or_overflow(a, cond, limit)
    return inv, inv_fro


def _singular_or_overflow(a, cond: float, limit: float) -> None:
    """mat_inv's verdict once ||A||_F ||A^-1||_F = cond fails cond < limit:
    raise, unless A is finite and well conditioned and only its scale
    made the inverse or the product overflow."""
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if math.isnan(cond) or cond == math.inf:
        # an overflow, or an exactly zero pivot, where gesv stops and numpy
        # fills the inverse with NaN; a subnormal pivot can give that NaN
        # too. A scaled by a power of two to entries below 1, which leaves
        # the LU's pivoting unchanged, tells the two apart.
        b = np.array(a, dtype=np.complex128)
        parts = b.view(np.float64)
        peak = float(np.abs(parts).max())
        if peak > 0.0:
            np.ldexp(parts, -math.frexp(peak)[1], out=parts)
            b_inv = _umath_linalg.inv(b, signature="D->D")
            cond = fro_norm(b) * fro_norm(b_inv)
            if cond < limit:
                return
    raise SingularMatrixError(
        f"matrix is singular to working precision "
        f"(||A||_F ||A^-1||_F = {cond:.3e})", condition=cond)


@functools.lru_cache(maxsize=128)
def _below_diagonal(k: int, n: int) -> np.ndarray:
    """Read-only mask of the entries below the diagonal of a k x n array."""
    below = np.tri(k, n, -1, dtype=bool)
    below.setflags(write=False)
    return below


def _householder(a) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """(Q, geqrf's factored array, diagonal phases, |diag R|) of a, Q
    phase-fixed: the Q-only path of qr_factor, which builds R from the
    other three."""
    qr = np.array(a, dtype=np.complex128)  # geqrf overwrites it
    m, n = qr.shape
    k = min(m, n)
    if k == 0:  # LAPACK rejects an empty matrix
        empty = np.empty(0, np.complex128)
        return np.empty((m, 0), np.complex128), qr, empty, empty.real
    tau = _umath_linalg.qr_r_raw(qr, signature="D->D")
    d = qr.diagonal()
    absd = np.abs(d)
    ph = np.divide(d, absd, out=np.ones(k, np.complex128), where=absd > 0.0)
    q = np.empty((m, k), np.complex128, order="F")
    _umath_linalg.qr_reduced(qr, tau, signature="DD->D", out=q)
    q *= ph
    return q, qr, ph, absd


def qr_q(a) -> np.ndarray:
    """The Q factor of qr_factor(a), bit for bit and stride for stride,
    without building R: for callers that discard R."""
    return _householder(a)[0]


def qr_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with the nonnegative-real-diagonal sign convention.

    Returns the economic (Q, R) with R exactly upper triangular (+0.0 below
    the diagonal), diag(R) real and >= 0. The convention is enforced by a
    diagonal phase fix; it is what makes the Q of a Ginibre matrix exactly
    Haar distributed.

    numpy's qr gufuncs run LAPACK's geqrf (in place, on a copy) and ungqr
    with the workspaces their size queries give, as scipy.linalg.qr's do,
    and Q is written into a Fortran-ordered array, the layout scipy
    returns. The phase fix scales R's rows and Q's columns once each: (Q,
    R) are, bit for bit and stride for stride, those of
    scipy.linalg.qr(mode="economic") with the phase fix applied. Q comes
    from qr_q's path, and R is built on top of it.
    """
    q, qr, ph, absd = _householder(a)
    k, n = ph.size, qr.shape[1]
    r = np.empty((k, n), np.complex128)
    np.multiply(np.conj(ph)[:, np.newaxis], qr[:k], out=r)
    r[_below_diagonal(k, n)] = 0.0  # the product holds scaled reflectors
    r.flat[::n + 1] = absd
    return q, r


def op_norm(a) -> float:
    """Spectral norm (largest singular value).

    numpy's svd gufunc without vectors runs LAPACK's gesdd with the
    workspace its size query gives, as np.linalg.svd(a, compute_uv=False)
    and scipy.linalg.svdvals do, so the value is theirs bit for bit,
    without np.linalg.svd's per-call wrapper. A NaN value (a NaN or Inf
    entry, or gesdd failing to converge) goes to np.linalg.svd, which
    raises LinAlgError where it would have.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():
        return 0.0
    s = float(_umath_linalg.svd(a, signature="D->d")[0])
    if math.isnan(s):
        s = float(np.linalg.svd(a, compute_uv=False)[0])
    return s


#: sums of squares below this lose bits to subnormal squares (u times the
#: smallest normal double); fro_norm rescales them, and overflowing ones
_SUMSQ_MIN = 2.0**-969


def fro_norm(a) -> float:
    """Frobenius norm: O(n^2), and scaled when the plain sum of squares
    would overflow or underflow, so it overflows only when the norm itself
    exceeds the double range. NaN and Inf entries propagate. The sum runs
    in row-major order whatever the memory layout (np.vdot)."""
    sumsq = float(np.vdot(a, a).real)
    if _SUMSQ_MIN <= sumsq < math.inf:
        return math.sqrt(sumsq)
    return _fro_norm_scaled(a, sumsq)


def _fro_norm_scaled(a, sumsq: float) -> float:
    """fro_norm of the array a whose plain sum of squares is sumsq."""
    if sumsq == 0.0 and not a.any():
        return 0.0
    # the real and imaginary parts: the norm is their 2-norm, and dividing
    # them by a subnormal scale, unlike complex division, cannot overflow
    parts = np.abs(np.ascontiguousarray(a, np.complex128)
                   .view(np.float64)).ravel()
    if not np.isfinite(parts).all():
        return math.sqrt(sumsq)  # NaN or Inf entries: so is sumsq
    scale = float(parts.max())
    parts /= scale
    return scale * math.sqrt(float(parts @ parts))


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
