"""Standalone calculators for the closed-form bounds of the analysis.

Each formula-only result gets a tested home here even when the solver
pipeline itself runs at hardware precision. Everything is pure and
deterministic; quantities that underflow doubles are handled in log-space.

lg denotes log base 2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PreconditionError
from .kernels import (C_INV, MU_INV, UNIT_ROUNDOFF, as_cmatrix, op_norm,
                      sigma_min_argmin)

#: points per mesh pass of kappa_sign_estimate
KAPPA_SIGN_MESH = 512


@dataclass(frozen=True)
class FormulaReport:
    name: str
    inputs: dict
    value: float
    in_hardware_range: bool

    def to_json(self) -> dict:
        return asdict(self)


def prelim_n_bound(t: float, c: float) -> int:
    """Minimal j with (1-t)^(2^j)/t^(2j) < c for 0 < t < 1/800, 0 < c < 1/2.

    j = ceil(lg 1/t + 2 lg lg 1/t + lg lg 1/c + 1.62). A self-check
    evaluates the target expression in log-space and asserts the bound.
    """
    if not 0.0 < t < 1.0 / 800.0:
        raise PreconditionError("t must lie in (0, 1/800)")
    if not 0.0 < c < 0.5:
        raise PreconditionError("c must lie in (0, 1/2)")
    j = math.ceil(math.log2(1.0 / t) + 2.0 * math.log2(math.log2(1.0 / t))
                  + math.log2(math.log2(1.0 / c)) + 1.62)
    lg_val = 2.0**j * math.log2(1.0 - t) - 2.0 * j * math.log2(t)
    if lg_val >= math.log2(c):
        raise PreconditionError(
            f"formula value j={j} fails its own inequality (internal)")
    return j


def one_step_error_bound(norm_a: float, norm_ainv: float, kappa: float,
                         n: int) -> float:
    """Additive error of one finite-precision Newton step:
    (||A|| + ||A^-1|| + mu_inv(n) kappa^(c_inv lg n) ||A^-1||) * 4 sqrt(n) u.
    The kappa power is evaluated in log-space.
    """
    if not (norm_a > 0.0 and norm_ainv > 0.0 and kappa > 0.0) or n < 1:
        raise PreconditionError("inputs must be positive")
    lg_pow = C_INV * math.log2(max(n, 2)) * math.log2(kappa)
    kpow = 2.0**lg_pow if lg_pow < 1023 else math.inf
    return ((norm_a + norm_ainv + MU_INV * n * kpow * norm_ainv)
            * 4.0 * math.sqrt(n) * UNIT_ROUNDOFF)


def deflate_failure_bound(n: int, beta: float, eta: float
                          ) -> tuple[float, float]:
    """Both published failure bounds for deflation, clamped to 1:
    ((20n)^3 sqrt(beta)/eta^2, 6000 n^3 sqrt(beta)/eta^2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= beta <= 0.25:
        raise PreconditionError("beta must lie in [0, 1/4]")
    if not 0.0 < eta < 1.0:
        raise PreconditionError("eta must lie in (0, 1)")
    box = min(1.0, (20.0 * n) ** 3 * math.sqrt(beta) / eta**2)
    appendix = min(1.0, 6000.0 * n**3 * math.sqrt(beta) / eta**2)
    return box, appendix


def kappa_sign_estimate(a) -> float:
    """Conditioning of the sign function: 1/eps^2 for the largest eps such
    that the eps-pseudospectrum avoids the imaginary axis.

    The axis distance eps equals the minimum of sigma_min(it*I - A) over
    real t, estimated on a mesh of t in [-||A||-1, ||A||+1] with one
    refinement pass around the coarse minimum. A mesh estimator, not a
    rigorous infimum.
    """
    a = as_cmatrix(a)
    norm_a = op_norm(a)
    evals = np.linalg.eigvals(a)
    if np.min(np.abs(evals.real)) < 1e3 * np.finfo(float).eps * max(norm_a, 1.0):
        raise PreconditionError("eigenvalue on the imaginary axis; "
                                "sign function undefined")
    reach = norm_a + 1.0
    ts = np.linspace(-reach, reach, KAPPA_SIGN_MESH)
    k, eps1 = sigma_min_argmin(1j * ts, a)
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, KAPPA_SIGN_MESH - 1)]
    _, eps2 = sigma_min_argmin(1j * np.linspace(lo, hi, KAPPA_SIGN_MESH), a)
    eps = min(eps1, eps2)
    return 1.0 / (eps * eps)


def report(name: str, inputs: dict, value: float) -> FormulaReport:
    """Wrap a calculator value with a hardware-representability flag."""
    finite = math.isfinite(value)
    tiny = float(np.finfo(float).tiny)
    in_range = finite and (value == 0.0
                           or tiny <= abs(value) <= float(np.finfo(float).max))
    return FormulaReport(name, inputs, value, bool(in_range))
