"""Randomized rank-revealing factorization and projector deflation.

RURV factors A = U R V with V a Haar unitary, U near-unitary and R upper
triangular; a Haar rotation makes the trailing block of R reveal the
(r+1)-th singular value with high probability. DEFLATE extracts an
orthonormal basis for the range of a rank-k projector P: the paper takes
the leading k columns of the U factor of its RURV, and deflate computes
those columns alone, as a randomized range finder (Halko, Martinsson and
Tropp, SIAM Review 2011) with the paper's Haar test matrix.

With B = P V* = U R, the first k columns of U are the Q factor of the
first k columns of B, that is of P W with W = V*[:, :k]. V* is Haar, so
W is distributed as the Q factor of an n x k Ginibre matrix. deflate
therefore draws an n x k Ginibre G and returns Q(P Q(G)): in exact
arithmetic this has the law of RURV's U[:, :k], and the paper's failure
bound (calc.deflate_failure_bound) holds as it is. It costs two n x k
QRs and one n x n x k product, where RURV takes an n x n Ginibre, two
n x n QRs and an n x n x n product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeflationError, PreconditionError
from .kernels import (UNIT_ROUNDOFF, as_cmatrix, fro_norm, op_norm,
                      qr_factor, qr_q)
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
    v = qr_q(sample_ginibre(n, rng))
    b = a @ v.conj().T
    u, r = qr_factor(b)
    return RurvResult(u, r, v)


def deflate(p_tilde, k: int, beta: float, rng: Rng) -> np.ndarray:
    """n x k orthonormal basis approximately spanning range(P).

    The range finder of the module docstring: one n x k Ginibre draw from
    rng, W = Q(G), and the phase-fixed Q(p_tilde W). In exact arithmetic
    the result has the law of the first k columns of rurv(p_tilde)'s U,
    so the paper's guarantee carries over: the caller guarantees
    ||p_tilde - P|| <= beta <= 1/4 for some rank-k spectral projector P;
    then for any eta in (0, 1) there is an exact orthonormal basis Q of
    range(P) with ||Q_tilde - Q|| <= eta, except with probability
    calc.deflate_failure_bound(n, beta, eta). This is not detectable
    here; only orthonormality of the output is checked:
    ||Q_tilde* Q_tilde - I||_2 <= 10 n u, by the Frobenius norm when that
    bound already clears it, else by the SVD. deflate validates p_tilde
    through the matrix gate and checks k against its shape before it
    draws.
    """
    p = as_cmatrix(p_tilde)
    n = p.shape[0]
    if not 1 <= k < n:
        raise PreconditionError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 0.0 < beta <= 0.25:
        raise PreconditionError("beta must lie in (0, 1/4]")
    q = qr_q(p @ qr_q(sample_ginibre(n, rng, k)))
    gram_err = q.conj().T @ q
    gram_err.ravel()[::k + 1] -= 1.0  # Q* Q - I, in place: the same bits
    tol = 10.0 * n * UNIT_ROUNDOFF
    # ||E||_2 <= ||E||_F: the SVD runs only when the cheap bound exceeds tol
    if fro_norm(gram_err) > tol:
        resid = op_norm(gram_err)
        if resid > tol:
            raise DeflationError(
                f"deflated basis not orthonormal (residual {resid:.3e})")
    return q
