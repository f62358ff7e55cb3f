"""Matrix sign function via Newton iteration, with explicit iteration counts.

The scalar Newton map g(z) = (z + 1/z)/2 squares the Apollonius modulus
|m(z)| with m(z) = (1-z)/(1+z), so pseudospectra trapped in the Apollonius
region C_alpha contract toward {-1, +1} at a doubly exponential rate. The
iteration count and precision formulas here are closed forms derived from
that geometry; sgn() returns what exactly that many steps of the matrix
iteration give, bit for bit, and stops early at a fixed point, an iterate
that equals the one before it bit for bit, since every later step would
return it again. A step costs one LAPACK zgesv call through numpy (one LU
and its solve against the identity, mat_inv) and two Frobenius norms, of
the inverse and of the new iterate, which serve the singularity test, the
trace, the finiteness check and the fixed-point test at once; bytes are
compared only when the new iterate's norm equals the last one's.

lg denotes log base 2 throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularMatrixError
from .kernels import (C_INV, MU_INV, UNIT_ROUNDOFF, as_cmatrix, fro_norm,
                      mat_inv)
# sgn calls neither; the benchmark's trace (bench/spans.py SITES) wraps both
from .kernels import lu_pivot_extremes, op_norm  # noqa: F401


def _lg(x: float) -> float:
    return math.log2(x)


@dataclass(frozen=True)
class SgnParams:
    """Inputs of the sign-function iteration.

    eps0 is the initial pseudospectral parameter, alpha0 the initial
    Apollonius parameter (Lambda_eps0(A) must lie in C_alpha0), beta the
    target accuracy of the returned sign.
    """

    eps0: float
    alpha0: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.eps0 < 1.0:
            raise ValueError("eps0 must lie in (0, 1)")
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError("alpha0 must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0 / 12.0:
            raise ValueError("beta must lie in (0, 1/12)")

    @property
    def s(self) -> float:
        return 1.0 - self.alpha0


@dataclass
class SgnTrace:
    """Per-step diagnostics of one sgn() run.

    budget is the paper's step count N; n_steps <= budget is the number of
    steps run, below budget when the run stopped at a fixed point.
    iterate_norms[k] = (||X_k||_F, ||X_k^-1||_F) for each inverted
    iterate, k = 0 ... n_steps-1 (X_0 = A). Frobenius norms are upper
    bounds on the 2-norms, taken in O(n^2) from the arrays the step
    already holds, so the trace runs no SVD. The predicted sequences and
    the required precision are derived from (alpha0, eps0, beta, n) when
    read, so a run whose trace is discarded does not pay for them.
    """

    iterate_norms: list[tuple[float, float]]
    n_steps: int
    budget: int
    alpha0: float
    eps0: float
    beta: float
    n: int

    @property
    def hardware_bits(self) -> float:
        """lg(1/u) of the double arithmetic every run uses."""
        return -_lg(UNIT_ROUNDOFF)

    @functools.cached_property
    def predicted_alpha(self) -> list[float]:
        return alpha_sequence(self.alpha0, self.budget)

    @property
    def predicted_eps_floor(self) -> list[float]:
        return _eps_floors(self.eps0, self.predicted_alpha)

    @property
    def required_bits(self) -> float:
        return required_precision_sgn(self.n, self.alpha0, self.eps0,
                                      self.beta)[1]

    def to_json(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "budget": self.budget,
            "iterate_norms": [list(t) for t in self.iterate_norms],
            "predicted_alpha": self.predicted_alpha,
            "predicted_eps_floor": self.predicted_eps_floor,
            "required_bits": self.required_bits,
            "hardware_bits": self.hardware_bits,
        }


def mobius(z: complex) -> complex:
    """m(z) = (1 - z)/(1 + z), mapping the right half-plane to the unit disk."""
    if z == -1:
        raise ZeroDivisionError("mobius has a pole at z = -1")
    return (1 - z) / (1 + z)


def newton_map(z: complex) -> complex:
    """g(z) = (z + 1/z)/2, one scalar Newton step toward sign(Re z)."""
    if z == 0:
        raise ZeroDivisionError("newton_map has a pole at z = 0")
    return (z + 1 / z) / 2


def apollonius_contains(alpha: float, z: complex) -> bool:
    """Membership in C_alpha, the union of the two Apollonius disks |m(z)|^{+-1} <= alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if z == -1 or z == 1:
        return True
    m = abs(mobius(z))
    return m <= alpha or 1.0 / m <= alpha


def sgn_iteration_count(alpha0: float, eps0: float, beta: float,
                        s: float | None = None) -> int:
    """Number of Newton steps guaranteeing ||A_N - sgn(A)|| <= beta.

    N = ceil(lg 1/(1-a0) + 3 lg lg 1/(1-a0) + lg lg 1/(beta*eps0) + 7.59).
    The formula's derivation assumes 1 - alpha0 < 1/100; outside that
    regime it still evaluates (and stays an upper bound in practice).
    Passing s = 1 - alpha0 directly (with alpha0 = None) sidesteps the
    roundoff of 1 - alpha0 when alpha0 is closer to 1 than one ulp. An
    alpha0 below u/2 gives s = 1.0, the formula's alpha0 -> 0 limit, and
    lg 1/(beta*eps0) is a sum of logs, finite where beta*eps0 underflows.
    """
    if s is None:
        if not 0.0 < alpha0 < 1.0:
            raise ValueError("alpha0 must lie in (0, 1)")
        s = 1.0 - alpha0
    elif not 0.0 < s < 1.0:
        raise ValueError("s = 1 - alpha0 must lie in (0, 1)")
    if not (eps0 > 0.0 and beta > 0.0 and beta * eps0 < 1.0):
        raise ValueError("need eps0, beta > 0 with beta*eps0 < 1")
    raw = (_lg(1.0 / s) + 3.0 * _lg(max(_lg(1.0 / s), 1.0 + 1e-12))
           + _lg(-_lg(beta) - _lg(eps0)) + 7.59)
    return max(1, math.ceil(raw))


def alpha_sequence(alpha0: float, n_steps: int) -> list[float]:
    """alpha_k with alpha_{k+1} = (1 + s/4) alpha_k^2, s = 1 - alpha0."""
    s = 1.0 - alpha0
    out = [alpha0]
    for _ in range(n_steps):
        out.append((1.0 + s / 4.0) * out[-1] ** 2)
    return out


def eps_floor_sequence(eps0: float, alpha0: float, n_steps: int) -> list[float]:
    """e_k = eps0 (s^2/50)^k alpha_k, the pseudospectral floor per step."""
    return _eps_floors(eps0, alpha_sequence(alpha0, n_steps))


def _eps_floors(eps0: float, alphas: list[float]) -> list[float]:
    """eps_floor_sequence from alphas = alpha_sequence(alpha0, n_steps)."""
    s = 1.0 - alphas[0]
    return [eps0 * (s * s / 50.0) ** k * alpha for k, alpha in enumerate(alphas)]


def sgn_params_from_shattering(eps: float, grid_diag) -> tuple[float, float]:
    """(eps0, alpha0) for a matrix shattered at level eps whose grid has a
    line on the imaginary axis (after shifting): eps0 = eps/2,
    alpha0 = 1 - eps/diag^2. Accepts a Grid or its diagonal length.
    """
    grid_diag = getattr(grid_diag, "diag", grid_diag)
    if not (eps > 0.0 and grid_diag > 0.0):
        raise ValueError("eps and grid_diag must be positive")
    s = eps / grid_diag**2
    if s >= 1.0:
        raise PreconditionError("eps too large for this grid diagonal")
    alpha0 = 1.0 - s
    if alpha0 == 1.0:
        raise PreconditionError(
            "alpha0 = 1 - eps/diag^2 rounds to 1 in doubles; pass "
            "s = eps/diag^2 to the s-keyword forms of the sgn calculators")
    return eps / 2.0, alpha0


def sgn_error_bound(alpha_n: float, eps_n: float) -> float:
    """||A_N - sgn(A)|| <= 8 alpha_N^2 / ((1-alpha_N)^2 (1+alpha_N) eps_N)."""
    if not 0.0 < alpha_n < 1.0:
        raise ValueError("alpha_n must lie in (0, 1)")
    if not eps_n > 0.0:
        raise ValueError("eps_n must be positive")
    return 8.0 * alpha_n**2 / ((1.0 - alpha_n) ** 2 * (1.0 + alpha_n) * eps_n)


def pseudospectral_step(alpha: float, alpha_next: float, eps: float) -> float:
    """eps' = eps (alpha' - alpha^2)(1 - alpha^2)/(8 alpha): one Newton step
    maps Lambda_eps(A) inside C_alpha into Lambda_eps'(g(A)) inside C_alpha'.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not alpha_next >= alpha * alpha:
        raise ValueError("alpha_next must be >= alpha^2")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return eps * (alpha_next - alpha * alpha) * (1.0 - alpha * alpha) / (8.0 * alpha)


def required_precision_sgn(n: int, alpha0: float, eps0: float, beta: float,
                           s: float | None = None) -> tuple[float, float]:
    """(u_max, bits) sufficient for the sgn guarantee.

    u <= alpha0^(2^(N+1) (c_inv lg n + 3)) / (2 mu_inv(n) sqrt(n) N),
    evaluated in log-space since the numerator underflows; bits = lg(1/u).
    u_max is returned as 0.0 when it underflows double precision.
    Passing s = 1 - alpha0 (with alpha0 = None) keeps the formula exact
    when alpha0 rounds to 1.0 in doubles.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_steps = sgn_iteration_count(alpha0, eps0, beta, s=s)
    if s is None:
        s = 1.0 - alpha0
    # lg(alpha0), exact for tiny s; s = 1.0 only when alpha0 < u/2
    lg_alpha0 = ((math.log1p(-s) if s < 1.0 else math.log(alpha0))
                 / math.log(2.0))
    expo = 2.0 ** (n_steps + 1) * (C_INV * _lg(max(n, 2)) + 3.0)
    log2_u = expo * lg_alpha0 - _lg(2.0 * MU_INV * n * math.sqrt(n) * n_steps)
    bits = -log2_u
    u_max = 2.0**log2_u if log2_u > -1074 else 0.0
    return u_max, bits


def condition_bounds_from_pseudospectrum(alpha: float, eps: float
                                         ) -> tuple[float, float]:
    """(||A^-1|| bound, ||A|| bound) for Lambda_eps(A) inside C_alpha:
    (1/eps, 4 alpha / ((1-alpha)^2 eps)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return 1.0 / eps, 4.0 * alpha / ((1.0 - alpha) ** 2 * eps)


def sgn(a, params: SgnParams) -> tuple[np.ndarray, SgnTrace]:
    """Newton iteration A <- (A + A^-1)/2, equivalent to exactly N steps.

    The caller guarantees Lambda_eps0(A) lies in C_alpha0; under that
    contract (and sufficient precision) the result is within beta of
    sgn(A). A numerically singular iterate signals that the contract was
    violated (the pseudospectrum touched the imaginary axis): mat_inv's
    test ||X_k||_F ||X_k^-1||_F >= 1/(max(n, PIVOT_FLOOR) u) raises, and sgn
    re-raises it as PreconditionError.

    Each step is one zgesv call (mat_inv: one LU and its solve), no SVD,
    and two Frobenius norms. mat_inv takes the inverse's, for its
    singularity test against the iterate's norm that sgn passes it, and
    the trace records both. The new iterate's norm is finite exactly when
    every entry is, short of the norm itself overflowing (then the entries
    are checked). A step is a deterministic function of the iterate's
    bits, so once X_{k+1} equals X_k bit for bit, every later iterate
    equals it too and X_N = X_{k+1}: sgn returns it without running the
    remaining steps, which would have inverted and checked only that
    iterate again. The bytes, which unlike == tell -0.0 from 0.0, are
    compared only when the two norms are equal. Each step writes X_{k+1}
    into the fresh inverse mat_inv returned, so sgn allocates no n x n
    array beyond that inverse and never writes into the caller's; the
    result is always a computed iterate, never the caller's array.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    n_steps = sgn_iteration_count(params.alpha0, params.eps0, params.beta)
    trace = SgnTrace(iterate_norms=[], n_steps=n_steps, budget=n_steps,
                     alpha0=params.alpha0, eps0=params.eps0,
                     beta=params.beta, n=n)

    x, x_norm = a, fro_norm(a)
    # an overflowing inverse is caught by the finiteness check below, so
    # numpy's overflow/invalid warnings on the way there are noise, and so
    # is the invalid flag of an exactly zero pivot, which mat_inv raises on
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            try:
                xinv, xinv_norm = mat_inv(x, x_norm)
            except SingularMatrixError as err:
                raise PreconditionError(
                    f"iterate {k} is singular to working precision; the "
                    f"pseudospectrum likely touches the imaginary axis"
                ) from err
            trace.iterate_norms.append((x_norm, xinv_norm))
            x_prev, prev_norm = x, x_norm
            # X_{k+1} = 0.5 (X_k + X_k^-1), bit for bit, written into the
            # fresh inverse: IEEE addition commutes
            xinv += x
            xinv *= 0.5
            x = xinv
            x_norm = fro_norm(x)
            # fro_norm propagates NaN and Inf, so a finite norm clears every
            # entry; an infinite one may still be an overflow of the norm
            if not math.isfinite(x_norm) and not np.isfinite(x).all():
                raise PreconditionError(
                    f"non-finite entries at iterate {k + 1}")
            if x_norm == prev_norm and x.tobytes() == x_prev.tobytes():
                break
    trace.n_steps = len(trace.iterate_norms)
    return x, trace


# sgn does not call it; the benchmark's trace (bench/spans.py SITES) wraps it
def op_norm_inv_safe(x) -> float:
    """||X^-1|| via singular values, inf when singular to precision."""
    svals = np.linalg.svd(np.asarray(x, dtype=np.complex128), compute_uv=False)
    smin = float(svals[-1])
    return math.inf if smin == 0.0 else 1.0 / smin
