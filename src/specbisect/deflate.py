"""Randomized rank-revealing factorization and projector deflation.

RURV factors A = U R V with V a Haar unitary, U near-unitary and R upper
triangular; a Haar rotation makes the trailing block of R reveal the
(r+1)-th singular value with high probability. DEFLATE extracts an
orthonormal basis for the range of a rank-k projector from the leading
columns of the U factor of its RURV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeflationError, PreconditionError
from .kernels import UNIT_ROUNDOFF, as_cmatrix, fro_norm, op_norm, qr_factor
from .randmat import Rng, sample_ginibre


@dataclass(frozen=True)
class RurvResult:
    u: np.ndarray
    r: np.ndarray
    v_used: np.ndarray

    def reconstruction(self) -> np.ndarray:
        return self.u @ self.r @ self.v_used


def rurv(a, rng: Rng) -> RurvResult:
    """A = U R V with V Haar unitary.

    For every 1 <= r <= n-1 and theta > 0, the trailing block R22 (rows
    and columns past r) satisfies
    ||R22|| <= sqrt(r(n-r))/theta * sigma_{r+1}(A)
    with probability at least 1 - theta^2.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    g = sample_ginibre(n, rng)
    v, _ = qr_factor(g)
    b = a @ v.conj().T
    u, r = qr_factor(b)
    return RurvResult(u, r, v)


def deflate(p_tilde, k: int, beta: float, rng: Rng) -> np.ndarray:
    """n x k orthonormal basis approximately spanning range(P).

    The caller guarantees ||p_tilde - P|| <= beta <= 1/4 for some rank-k
    spectral projector P; then for any eta in (0, 1) there is an exact
    orthonormal basis Q of range(P) with ||Q_tilde - Q|| <= eta, except
    with probability calc.deflate_failure_bound(n, beta, eta). This is
    not detectable here; only orthonormality of the output is checked:
    ||Q_tilde* Q_tilde - I||_2 <= 10 n u, by the Frobenius norm when that
    bound already clears it, else by the SVD. rurv validates p_tilde, and
    k is checked against its shape.
    """
    u = rurv(p_tilde, rng).u
    n = u.shape[0]
    if not 1 <= k < n:
        raise PreconditionError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 0.0 < beta <= 0.25:
        raise PreconditionError("beta must lie in (0, 1/4]")
    q = u[:, :k]
    gram_err = q.conj().T @ q - np.eye(k)
    tol = 10.0 * n * UNIT_ROUNDOFF
    # ||E||_2 <= ||E||_F: the SVD runs only when the cheap bound exceeds tol
    if fro_norm(gram_err) > tol:
        resid = op_norm(gram_err)
        if resid > tol:
            raise DeflationError(
                f"deflated basis not orthonormal (residual {resid:.3e})")
    return q
