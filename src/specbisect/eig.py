"""Recursive spectral-bisection eigensolver.

Each level splits the spectrum along a balanced grid line, deflates the
two approximate spectral projectors to orthonormal bases, compresses the
matrix onto each basis and recurses with slightly relaxed accuracy and
shattering parameters. The top-level driver shatters the input first so
the recursion's preconditions hold with high probability.

lg denotes log base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deflate import deflate
from .errors import PROBABILISTIC, EigFailureError, PreconditionError
from .grids import Grid, kappa_v_upper, min_gap
from .kernels import (C_INV, MU_MM, MU_QR, as_cmatrix, fro_norm, mat_inv,
                      normalize_columns, op_norm)
from .randmat import Rng
from .shatter import ShatterParams, shatter
from .split import split

#: accuracy constant delta' = delta^3/(1536 n^2.5) of the backward driver
BACKWARD_ACCURACY_DENOM = 1536

#: floor keeping the per-call failure budget beta representable in doubles
_BETA_FLOOR = 1e-300

#: shatter-and-solve retries with fresh randomness before eig_backward
#: gives up: on a draw that fails to certify, a recursion that fails or a
#: result that misses the backward contract
RETRY_BUDGET = 11


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class EigParams:
    """Parameters of eig_backward and eig_forward. theta is the failure
    budget: the recursion sizes each split's accuracy so that a solve
    fails with probability at most theta, capped by eig_backward at 1/n.
    delta is validated but not read: the accuracy a solve uses is
    eig_backward's positional delta."""

    delta: float
    theta: float

    def __post_init__(self):
        _check_delta(self.delta)
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")


@dataclass(slots=True, eq=False)
class EigResult:
    """V and D of a solve, the residual ||A - V D V^-1|| and kappa(V)
    measured against A, the grid the recursion started from (the
    shattering grid of eig_backward, None where it solves n = 1 directly),
    the recursion depth, the attempts eig_backward used (1 + the retries)
    and the recursion's own backward error.

    inner_residual bounds ||X - V D V^-1||_2 for the matrix X the
    recursion diagonalized: eig_backward's shattered X, against which the
    recursion aims at delta' = delta^3/(1536 n^2.5), or eig_shattered's A,
    where it is the residual. It is the Frobenius norm, an upper bound,
    where that is at most delta', and the 2-norm where it is not; None on
    a result built by hand."""

    v: np.ndarray
    d: np.ndarray
    residual: float
    kappa_v: float
    grid: Grid | None
    depth: int
    attempts: int = 1
    inner_residual: float | None = None

    @property
    def square_assignment(self) -> list:
        """The square of grid holding each eigenvalue in d (None outside
        the grid), derived when read: a result holds no per-eigenvalue
        objects besides V and D."""
        if self.grid is None:
            return [None]
        return [self.grid.square_index(complex(lam)) for lam in self.d]

    def to_json(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.d],
            "residual": self.residual,
            "kappa_v": self.kappa_v,
            "depth": self.depth,
            "square_assignment": [list(s) if s is not None else None
                                  for s in self.square_assignment],
            "attempts": self.attempts,
            "inner_residual": self.inner_residual,
        }


def _measure(a, v, d) -> tuple[float, float, np.ndarray]:
    """(||A - V D V^-1||, kappa(V), V D V^-1)."""
    vinv, _ = mat_inv(v)
    vdv = v @ np.diag(d) @ vinv
    return op_norm(a - vdv), op_norm(v) * op_norm(vinv), vdv


def _inner_residual(x, vdv, delta_p: float) -> float:
    """||X - V D V^-1||_F where that is at most delta_p, else the 2-norm:
    an upper bound on the 2-norm that takes an SVD only above delta_p."""
    err = x - vdv
    bound = fro_norm(err)
    return op_norm(err) if bound > delta_p else bound


def _eig_node(a: np.ndarray, delta: float, g: Grid, eps: float,
              theta: float, rng: Rng,
              eigenvalues: np.ndarray | None) -> tuple[np.ndarray,
                                                       np.ndarray, int]:
    """(V, D, depth) of eig_shattered's recursion, neither measured nor
    assigned to squares: no caller reads an inner node's residual. a is
    validated by an entry point or built here as Q*AQ, so no node runs
    the matrix gate."""
    m = a.shape[0]
    if m == 1:
        return (np.eye(1, dtype=np.complex128),
                np.array([complex(a[0, 0])]), 0)

    eta = delta * eps * eps / 200.0
    beta = eta**4 / (20.0 * m) ** 6 * theta**2 / (4.0 * m**8)
    beta = min(max(beta, _BETA_FLOOR), 0.05 / m)

    sr = split(a, eps, g, beta, eigenvalues=eigenvalues)

    # one generator per node: both deflations draw from r's stream in turn
    r = rng.child(0)
    q_plus = deflate(sr.p_plus, sr.n_plus, beta, r)
    q_minus = deflate(sr.p_minus, sr.n_minus, beta, r)

    a_plus = q_plus.conj().T @ a @ q_plus
    a_minus = q_minus.conj().T @ a @ q_minus
    sub_delta = 4.0 * delta / 5.0
    sub_eps = 4.0 * eps / 5.0
    v_plus, d_plus, depth_plus = _eig_node(
        a_plus, sub_delta, sr.g_plus, sub_eps, theta, rng.child(0x51),
        sr.eigenvalues_plus)
    v_minus, d_minus, depth_minus = _eig_node(
        a_minus, sub_delta, sr.g_minus, sub_eps, theta, rng.child(0x52),
        sr.eigenvalues_minus)

    v = normalize_columns(np.hstack([q_plus @ v_plus, q_minus @ v_minus]))
    d = np.concatenate([d_plus, d_minus])
    return v, d, 1 + max(depth_plus, depth_minus)


def eig_shattered(a, delta: float, g: Grid, eps: float, theta: float,
                  rng: Rng,
                  eigenvalues: np.ndarray | None = None) -> EigResult:
    """Diagonalize a matrix whose eps-pseudospectrum is shattered w.r.t. g.

    With probability at least 1 - theta, each returned eigenvalue shares
    its grid square with exactly one true eigenvalue and each returned
    unit eigenvector is delta-close to an exact one. eigenvalues lie one
    per square of g in the squares of A's eigenvalues (the shattering
    eigensolve's; the root split computes them when None). Each split
    predicts its census from them and hands each block its side's share.
    A failed split or deflation raises; eig_backward is the caller that
    retries it.

    The residual and kappa_V are measured at the entry point only, once,
    against A; the recursion below it measures nothing. A is the matrix
    the recursion diagonalized, so the inner residual is the residual.
    """
    a = as_cmatrix(a)
    v, d, depth = _eig_node(a, delta, g, eps, theta, rng, eigenvalues)
    residual, kv, _ = _measure(a, v, d)
    return EigResult(v, d, residual, kv, g, depth,
                     inner_residual=residual)


def eig_backward(a, delta: float, params: EigParams, rng: Rng) -> EigResult:
    """Backward-approximate diagonalization of any ||A|| <= 1 matrix.

    Shatters A at gamma = delta/8 (one draw per attempt) and solves the
    perturbed problem to accuracy delta' = delta^3/(1536 n^2.5). Success
    contract (probability at least 1 - 1/n - 12/n^2 per attempt):
    ||A - V D V^-1|| <= delta and kappa(V) <= 32 n^2.5 / delta, both
    measured once per attempt against A. An attempt whose draw fails to
    certify, that raises another PROBABILISTIC error or whose result
    misses the contract runs again with fresh randomness (attempt k draws
    from rng's children 2k and 2k + 1), up to RETRY_BUDGET times; then
    EigFailureError, chained from the last attempt's failure. The result
    records the attempts used and the inner residual against the shattered
    X, which the recursion solved to delta'.

    Attempts draw independently, so under the paper's precision
    assumption a solve fails with probability at most
    (1/n + 12/n^2)^(1 + RETRY_BUDGET) = (1/n + 12/n^2)^12. Where delta is
    so small that no draw's shattering eps reaches the floor doubles
    resolve (shatter._eps_floor; A = I at n = 96 and delta = 1e-5, for
    one), every attempt fails for that reason, and the bound does not
    apply.
    """
    _check_delta(delta)
    a = as_cmatrix(a)
    n = a.shape[0]
    if op_norm(a) > 1.0 + 1e-12:
        raise PreconditionError("eig_backward requires ||A|| <= 1")
    if n == 1:
        return EigResult(np.eye(1, dtype=np.complex128),
                         np.array([complex(a[0, 0])]), 0.0, 1.0, None, 0,
                         inner_residual=0.0)

    delta_p = delta**3 / (BACKWARD_ACCURACY_DENOM * n**2.5)
    theta = min(params.theta, 1.0 / n)
    kv_cap = 32.0 * n**2.5 / delta
    for attempt in range(1 + RETRY_BUDGET):
        try:
            cert = shatter(a, ShatterParams(gamma=delta / 8.0),
                           rng.child(2 * attempt))
            v, d, depth = _eig_node(cert.matrix, delta_p, cert.grid,
                                    cert.epsilon, theta,
                                    rng.child(2 * attempt + 1),
                                    cert.eigenvalues)
        except PROBABILISTIC as err:
            failure = err
            continue
        residual, kv, vdv = _measure(a, v, d)
        if residual <= delta and kv <= kv_cap:  # False on NaN
            return EigResult(v, d, residual, kv, cert.grid, depth, attempt + 1,
                             _inner_residual(cert.matrix, vdv, delta_p))
        failure = EigFailureError(
            f"result missed the backward contract: residual {residual:.3e} "
            f"(delta {delta:g}), kappa_V {kv:.3e} (cap {kv_cap:.3e})")
    raise EigFailureError(
        f"no attempt succeeded after {RETRY_BUDGET} retries; "
        f"the last: {failure}") from failure


def eig_forward(a, delta: float, kappa_eig_bound: float, params: EigParams,
                rng: Rng) -> EigResult:
    """Forward-approximate eigenpairs given an a priori bound on kappa_eig.

    Runs the backward solver at accuracy delta/(6 n K); when K really
    bounds kappa_eig(A), eigenvalues and (phase-aligned) eigenvectors are
    within delta of the true ones. A K below the true kappa_eig voids the
    contract without raising.
    """
    _check_delta(delta)
    a = as_cmatrix(a)
    n = a.shape[0]
    if not kappa_eig_bound >= 1.0:
        raise PreconditionError("kappa_eig_bound must be >= 1")
    inner = delta / (6.0 * n * kappa_eig_bound)
    return eig_backward(a, inner, params, rng)


def kappa_eig_measure(a) -> float:
    """kappa_eig(A) = kappa_V(A)/gap(A) from the dense oracle."""
    a = as_cmatrix(a)
    gap = min_gap(a)
    scale = max(op_norm(a), 1.0)
    if gap < 1e3 * np.finfo(float).eps * scale:
        raise PreconditionError("eigenvalue gap below working precision; "
                                "kappa_eig is ill-posed")
    return kappa_v_upper(a) / gap


def eig_iteration_budget(n: int, eps: float, delta: float, theta: float) -> float:
    """N_EIG = lg(256n/eps) + 3 lg lg(256n/eps) + lg lg((5n)^26/(theta^2 delta^4 eps^9))."""
    if n < 1 or not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0 \
            or not 0.0 < theta < 1.0:
        raise ValueError("invalid parameter ranges")
    t1 = math.log2(256.0 * n / eps)
    # log of the big ratio computed additively to dodge overflow
    lg_ratio = (26.0 * math.log2(5.0 * n) - 2.0 * math.log2(theta)
                - 4.0 * math.log2(delta) - 9.0 * math.log2(eps))
    return t1 + 3.0 * math.log2(t1) + math.log2(lg_ratio)


def eig_precision_requirement(n: int, eps: float, delta: float, theta: float
                              ) -> float:
    """Sufficient bits lg(1/u) for the full recursion's guarantee.

    max of the iteration term
    lg^3(n/eps) * lg((5n)^26/(theta^2 delta^4 eps^8)) * 2^14.83 *
    (c_inv lg n + 3) + lg N_EIG
    and the bookkeeping term
    lg((5n)^30/(theta^2 delta^4 eps^8)) + lg max(mu_mm, mu_qr, n).
    Values far exceeding 53 flag that hardware doubles cannot honor the
    worst-case analysis (practice behaves far better).
    """
    n_eig = eig_iteration_budget(n, eps, delta, theta)
    lg_ratio8 = (26.0 * math.log2(5.0 * n) - 2.0 * math.log2(theta)
                 - 4.0 * math.log2(delta) - 8.0 * math.log2(eps))
    term1 = (math.log2(n / eps) ** 3 * lg_ratio8 * 2.0**14.83
             * (C_INV * math.log2(max(n, 2)) + 3.0)
             + math.log2(n_eig))
    lg_ratio30 = (30.0 * math.log2(5.0 * n) - 2.0 * math.log2(theta)
                  - 4.0 * math.log2(delta) - 8.0 * math.log2(eps))
    term2 = lg_ratio30 + math.log2(max(MU_MM * n, MU_QR * n, n))
    return max(term1, term2)
