"""Dense complex-matrix kernels.

All operations work on complex128 ndarrays and are pure: inputs are never
mutated. Square-matrix kernels validate through as_cmatrix; QR, norms and
column scaling accept any 2-d array. These are the concrete instantiations
of the black-box stable primitives (invert, QR, norms) that the
higher-level algorithms are built on, together with a profile of their
stability constants used by the precision calculators.

Inversion is one partial-pivot LU and one triangular solve, both straight
LAPACK calls (zgetrf, zgetrs): mat_inv factors once, judges singularity by
a single pivot test on the same factors, and solves against the identity,
so a Newton sign step costs one factorization.

Shifted smallest singular values come in two strengths:
sigma_min_shifted_batch is the exact value from one SVD per shift, and
sigma_min_candidates prunes a shift set to the shifts that may attain its
minimum, from a rigorous lower bound on the complex Schur form, so that a
caller who needs only the minimum takes exact SVDs at a handful of shifts
(sigma_min_argmin does both and returns the minimum and where it is).
No solver path calls the pruned one: it serves the brute-force
certification oracle (grids.min_line_sigma, certify_shattered) and the
kappa_sign calculator (calc.kappa_sign_estimate), while the solver's
shattering certificate comes from the eigendecomposition (shatter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError, ZeroColumnError

#: unit roundoff of IEEE double arithmetic
UNIT_ROUNDOFF = 2.0**-53

#: shifts per batched SVD stack in sigma_min_shifted_batch (memory cap:
#: the stack holds SHIFT_CHUNK shifted copies of the matrix at once)
SHIFT_CHUNK = 8192

#: sigma_min_candidates takes CANDIDATE_CHUNK_ELEMS // n shifts at a time,
#: so each of its products of a row of T with a block of the inverse stack
#: touches fewer than this many entries. OpenBLAS runs such a gemv on one
#: thread; a threaded one leaves its worker threads spinning, which slowed
#: the small LU solves of the sign iteration that follow ~2x on 2 vCPUs.
CANDIDATE_CHUNK_ELEMS = 4096

#: C in the slack tau = C n^1.5 u (|z| + ||A||_F) of sigma_min_candidates
#: (derivation in its docstring)
CANDIDATE_SLACK = 66.0


@dataclass(frozen=True)
class BackendProfile:
    """Stability constants of the arithmetic backend.

    mu_mm(n), mu_inv(n), mu_qr(n) are the multiplication, inversion and QR
    stability factors; c_inv the inversion condition exponent; c_n the
    Gaussian sampler constant; u the unit roundoff. Defaults are
    conventional-algorithm values for O(n^3) kernels in double precision.
    """

    mm_coeff: float = 1.0
    inv_coeff: float = 10.0
    c_inv: float = 1.0
    qr_coeff: float = 30.0
    c_n: float = 1.0
    u: float = UNIT_ROUNDOFF

    def __post_init__(self):
        if not (0.0 < self.u < 1.0):
            raise ValueError("u must lie in (0, 1)")
        for name in ("mm_coeff", "inv_coeff", "c_inv", "qr_coeff", "c_n"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    def mu_mm(self, n: int) -> float:
        return self.mm_coeff * n

    def mu_inv(self, n: int) -> float:
        return self.inv_coeff * n

    def mu_qr(self, n: int) -> float:
        return self.qr_coeff * n


DEFAULT_PROFILE = BackendProfile()


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


def _lu(a):
    """Partial-pivot LU (lu, piv) of a validated matrix, as lu_factor gives.

    LAPACK's getrf is called directly: lu_factor turns an exactly zero
    pivot into a LinAlgWarning, but both callers judge singularity from
    the pivots themselves. (Silencing the warning per call instead cost
    ~10% of a 48x48 factorization.)
    """
    lu, piv, _ = scipy.linalg.lapack.zgetrf(a)
    return lu, piv


#: mat_inv calls a matrix singular when min|U_ii| <= max(n, PIVOT_FLOOR) u
#: max|U_ii|; the floor keeps a relative pivot of at least 10u at small n
PIVOT_FLOOR = 10


def lu_pivot_extremes(a) -> tuple[float, float]:
    """(smallest, largest) |U_ii| from a partial-pivot LU of a.

    The ratio largest/smallest is a cheap growth-based condition estimate.
    """
    a = as_cmatrix(a)
    lu, _ = _lu(a)
    d = np.abs(np.diag(lu))
    return float(d.min()), float(d.max())


def mat_inv(a) -> np.ndarray:
    """Invert via one partial-pivot LU; raise if singular to working precision.

    A single pivot test on the factors raises SingularMatrixError when
    min|U_ii| <= max(n, PIVOT_FLOOR) u max|U_ii| (an exactly zero pivot
    included). Otherwise LAPACK's getrs, the routine lu_solve wraps, solves
    against the identity, so the inverse is what lu_solve gives, bit for
    bit, without scipy's per-call batching wrapper.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    lu, piv = _lu(a)
    d = np.abs(np.diag(lu))
    pivot_min = float(d.min())
    if pivot_min <= max(n, PIVOT_FLOOR) * UNIT_ROUNDOFF * float(d.max()):
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot {pivot_min:.3e})",
            pivot=pivot_min,
        )
    inv, _ = scipy.linalg.lapack.zgetrs(
        lu, piv, np.eye(n, dtype=np.complex128, order="F"), overwrite_b=True)
    return inv


def qr_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with the nonnegative-real-diagonal sign convention.

    Returns (Q, R) with R exactly upper triangular, diag(R) real and >= 0.
    The convention is enforced by a diagonal phase fix; it is what makes
    the Q of a Ginibre matrix exactly Haar distributed.
    """
    a = np.asarray(a, dtype=np.complex128)
    q, r = scipy.linalg.qr(a, mode="economic", check_finite=False)
    k = min(a.shape)
    d = np.diag(r)[:k].copy()
    absd = np.abs(d)
    ph = np.where(absd > 0.0, d / np.where(absd > 0.0, absd, 1.0), 1.0)
    q = q * ph[np.newaxis, :]
    r = np.conj(ph)[:, np.newaxis] * r
    r = np.triu(r)
    idx = np.arange(k)
    r[idx, idx] = absd
    return q, r


def op_norm(a) -> float:
    """Spectral norm (largest singular value).

    LAPACK's gesdd is called directly with the workspace its size query
    gives, as svdvals does, so the value is svdvals' bit for bit, without
    scipy's per-call batching wrapper.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():
        return 0.0
    m, n = a.shape
    lwork, info = scipy.linalg.lapack.zgesdd_lwork(m, n, compute_uv=0)
    if info != 0:
        raise ValueError(f"zgesdd workspace query failed (info {info})")
    _, svals, _, info = scipy.linalg.lapack.zgesdd(
        a, compute_uv=0, lwork=int(lwork.real))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgesdd")
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


def sigma_min_candidates(zs, a) -> np.ndarray:
    """Mask of the shifts that may attain min_z sigma_min(z*I - A).

    A = Q T Q* is factored once into its complex Schur form. At every
    shift, L(z) = 1/||(zI - T)^-1||_F <= sigma_min(zI - T) = sigma_min(zI - A)
    is a rigorous lower bound. The inverse is formed by back substitution,
    row by row, batched across a chunk of shifts in the layout (row,
    column, shift); a shift on an eigenvalue of T reads as L = 0. One exact
    value U = sigma_min_shifted_batch at the shift with the smallest L
    bounds the minimum from above, and a shift stays a candidate iff
    L - tau <= U + tau, with the absolute slack
    tau = C n^1.5 u (|z| + ||A||_F), C = CANDIDATE_SLACK.

    Derivation of C, to first order in u, for the first argmin z* of the
    computed exact values (U is at least the value there):
      * Schur form: T is the exact Schur form of A + E with
        ||E||_2 <= mu_qr(n) u ||A||_F = 30 n u ||A||_F (QR algorithm).
      * Substitution: column j of the computed inverse R solves
        (M + dM_j) x = e_j with |dM_j| <= (n+1) u |M|, M = zI - T (Higham,
        Accuracy and Stability, Thm 8.5; +1 for rounding z - T_ii). So
        M R = I - F with ||F|| <= (n+1) u ||M||_F ||R||_F, hence
        1/||R||_F <= sigma_min(M) + (n+1) u ||M||_F. Summing the squares
        row by row, the square root and the division add (n+3) u
        relatively; in all L <= sigma_min(M) + 6 n u ||M||_F, and
        ||M||_F <= sqrt(n) (|z| + ||A||_F).
      * SVD: the exact-value path is within mu_qr(n) u ||zI - A||_2
        <= 30 n u (|z| + ||A||_F) of sigma_min(zI - A).
    Together L(z*) <= U + (30 + 6 + 30) n^1.5 u (|z*| + ||A||_F), so C = 66
    puts every minimizer in the mask with a factor 2 to spare.
    """
    a = as_cmatrix(a)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    if zs.size == 0:
        return np.zeros(0, dtype=bool)
    t = scipy.linalg.schur(a, output="complex", check_finite=False)[0]
    lower = _schur_lower_bound(zs, t)
    k = int(np.argmin(lower))
    upper = sigma_min_shifted_batch(zs[k:k + 1], a)[0]
    tau = (CANDIDATE_SLACK * a.shape[0]**1.5 * UNIT_ROUNDOFF
           * (np.abs(zs) + np.linalg.norm(a)))
    return lower - tau <= upper + tau


def sigma_min_argmin(zs, a) -> tuple[int, float]:
    """(first index, value) of the minimum of sigma_min(z*I - A) over zs,
    with exact SVDs only at the shifts sigma_min_candidates keeps; both are
    what one SVD per shift would give."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    cand = np.flatnonzero(sigma_min_candidates(zs, a))
    svals = sigma_min_shifted_batch(zs[cand], a)
    k = int(np.argmin(svals))
    return int(cand[k]), float(svals[k])


def _schur_lower_bound(zs, t) -> np.ndarray:
    """1/||(zI - T)^-1||_F for each shift z, T upper triangular; 0 where the
    norm is infinite or NaN (a shift on or next to a diagonal entry)."""
    n = t.shape[0]
    tdiag = np.diag(t)[:, np.newaxis]
    lower = np.empty(zs.size)
    chunk = max(1, CANDIDATE_CHUNK_ELEMS // n)
    # r[i, j, s] = ((z_s I - T)^-1)_ij, filled from the last row up; the
    # entries below the diagonal stay zero across chunks
    r = np.zeros((n, n, min(chunk, zs.size)), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for lo in range(0, zs.size, chunk):
            z = zs[lo:lo + chunk]
            rz = r[:, :, :z.size]
            d = z[np.newaxis, :] - tdiag
            fro2 = np.zeros(z.size)
            for i in range(n - 1, -1, -1):
                row = rz[i, i:]
                # one gemv per column j > i: T[i, i+1:] @ r[i+1:, j]
                np.matmul(t[i, i + 1:], rz[i + 1:, i + 1:].transpose(1, 0, 2),
                          out=row[1:])
                row[1:] /= d[i]
                row[0] = 1.0 / d[i]
                fro2 += (row.real**2 + row.imag**2).sum(axis=0)
            lower[lo:lo + z.size] = np.where(np.isfinite(fro2),
                                             1.0 / np.sqrt(fro2), 0.0)
    return lower


def trace(a) -> complex:
    """Exactly-rounded sum of the diagonal (compensated accumulation)."""
    a = as_cmatrix(a)
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
