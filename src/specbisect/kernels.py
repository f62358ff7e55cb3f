"""Dense complex-matrix kernels.

All operations work on complex128 ndarrays and are pure: inputs are never
mutated. Square-matrix kernels validate through as_cmatrix; QR, norms and
column scaling accept any 2-d array. These are the concrete instantiations
of the black-box stable primitives (invert, QR, norms) that the
higher-level algorithms are built on, together with a profile of their
stability constants used by the precision calculators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError, ZeroColumnError

#: unit roundoff of IEEE double arithmetic
UNIT_ROUNDOFF = 2.0**-53

#: shifts per batched SVD stack in sigma_min_shifted_batch (memory cap)
SHIFT_CHUNK = 8192


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
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")
    return m


def lu_pivot_extremes(a) -> tuple[float, float]:
    """(smallest, largest) |U_ii| from a partial-pivot LU of a.

    The ratio largest/smallest is a cheap growth-based condition estimate,
    used to detect singularity to working precision before inverting.
    """
    a = as_cmatrix(a)
    lu, _ = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    return float(d.min()), float(d.max())


def mat_inv(a) -> np.ndarray:
    """Invert via partial-pivot LU; error out on singular-to-precision input."""
    a = as_cmatrix(a)
    n = a.shape[0]
    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    pivot_min = float(d.min())
    if pivot_min <= n * UNIT_ROUNDOFF * float(d.max()):
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot {pivot_min:.3e})",
            pivot=pivot_min,
        )
    return scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=np.complex128),
                                 check_finite=False)


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
    """Spectral norm (largest singular value)."""
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():
        return 0.0
    return float(scipy.linalg.svdvals(a, check_finite=False)[0])


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
