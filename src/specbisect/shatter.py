"""Pseudospectral shattering: Ginibre perturbation plus a randomized grid.

Theoretical mode transcribes the provable parameter choices (which drop
below hardware precision already for small n; the certificate is flagged
accordingly and not certified). Empirical mode chooses the square size
from the measured eigenvalue gap, randomizes the grid offset, and derives
the shattering parameter from measured resolvent margins along the lines,
so the certificate is honest at hardware precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, PreconditionError
from .grids import Grid, ShatterCert, eigenvalue_gap, kappa_v_upper
from .kernels import (UNIT_ROUNDOFF, as_cmatrix, op_norm,
                      sigma_min_candidates, sigma_min_shifted_batch)
from .randmat import Rng, sample_ginibre

#: retries with fresh randomness before empirical mode gives up
RETRY_BUDGET = 3

#: hard cap on squares per grid side (memory/time guard)
MAX_SQUARES_PER_SIDE = 1 << 22


@dataclass(frozen=True)
class ShatterParams:
    gamma: float
    mode: str = "empirical"
    mesh_per_segment: int = 8

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError("gamma must lie in (0, 1/2)")
        if self.mode not in ("theoretical", "empirical"):
            raise ValueError("mode must be 'theoretical' or 'empirical'")
        if self.mesh_per_segment < 1:
            raise ValueError("mesh_per_segment must be >= 1")


def smoothed_bounds(n: int, gamma: float) -> tuple[float, float, float]:
    """(kappa_V bound, gap bound, failure probability) for X = A + gamma*G:
    kappa_V(X) <= n^2/gamma and gap(X) >= gamma^4/n^5 except with
    probability 12/n^2 (reported as-is even when vacuous at tiny n).
    """
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * n / gamma, gamma**4 / n**5, 12.0 / (n * n)


def gap_tail_bound(n: int, gamma: float, r: float) -> float:
    """min(1, 42 (n/gamma)^3.2 r^1.2 + 2 e^{-2n}), a bound on P[gap(X) < r]."""
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return min(1.0, 42.0 * (n / gamma) ** 3.2 * r**1.2 + 2.0 * math.exp(-2.0 * n))


def windowed_line_margin(x, g: Grid, evals, kappa_v: float,
                         window_mult: float = 2.0,
                         mesh_per_segment: int = 8) -> tuple[float, float]:
    """(mesh margin, far-field margin): a lower-bound pair for
    min over grid lines of sigma_min(zI - X).

    Grid-line points within window = window_mult*omega of some eigenvalue
    are meshed; a Schur-form lower bound prunes the mesh to the points that
    may attain its minimum, and only those are evaluated by batched SVD, so
    the mesh margin equals the all-SVD minimum. Points farther away satisfy
    sigma_min(zI - X) >= dist(z, spectrum)/kappa_V(X) since the resolvent
    norm is at most kappa_V/dist for diagonalizable X, so the far field is
    covered by window/kappa_V without touching it. This keeps certification
    affordable on grids with millions of squares.
    """
    w = window_mult * g.omega
    step = g.omega / mesh_per_segment
    xs = g.vertical_line_xs()
    ys = g.horizontal_line_ys()
    pts = []
    for lam in np.asarray(evals):
        lr, li = lam.real, lam.imag
        t = np.arange(li - w, li + w + step, step)
        for xi in xs[(xs >= lr - w) & (xs <= lr + w)]:
            keep = (t >= ys[0]) & (t <= ys[-1])
            pts.append(xi + 1j * t[keep])
        s = np.arange(lr - w, lr + w + step, step)
        for yi in ys[(ys >= li - w) & (ys <= li + w)]:
            keep = (s >= xs[0]) & (s <= xs[-1])
            pts.append(s[keep] + 1j * yi)
    far = w / kappa_v
    if not pts:
        return math.inf, far
    zs = np.unique(np.concatenate(pts))
    zs = zs[sigma_min_candidates(zs, x)]
    return float(sigma_min_shifted_batch(zs, x).min(initial=math.inf)), far


def _theoretical_cert(x, n: int, gamma: float, rng: Rng) -> ShatterCert:
    omega = gamma**4 / (4.0 * n**5)
    side = math.ceil(8.0 / omega)
    u = rng.uniform(size=2)
    z0 = complex(-4.0 + u[0] * omega, -4.0 + u[1] * omega)
    g = Grid(z0, omega, side, side)
    eps = 0.5 * gamma**5 / (16.0 * n**9)
    # eps below the accuracy of a double-precision sigma_min evaluation
    # (~n*u on a unit-norm matrix) cannot be resolved by this arithmetic
    unresolvable = bool(eps < 10.0 * n * UNIT_ROUNDOFF)
    return ShatterCert(x, g, eps, gamma, certified=False,
                       below_hardware_precision=unresolvable)


def _empirical_cert(x, gamma: float, mesh: int, rng: Rng) -> ShatterCert | None:
    n = x.shape[0]
    evals = np.linalg.eigvals(x)
    gap = eigenvalue_gap(evals) if n >= 2 else 8.0
    if gap <= 0.0:
        return None
    omega = gap / 4.0
    if 8.0 / omega > MAX_SQUARES_PER_SIDE:
        return None
    side = math.ceil(8.0 / omega) + 1
    u = rng.uniform(size=2)
    z0 = complex(-4.0 - u[0] * omega, -4.0 - u[1] * omega)
    g = Grid(z0, omega, side, side)
    kv = kappa_v_upper(x)
    mesh_margin, far_margin = windowed_line_margin(x, g, evals, kv,
                                                   mesh_per_segment=mesh)
    margin = min(mesh_margin, far_margin)
    if margin <= 1e-8:
        return None
    eps = min(margin / 2.0, 0.999 * omega / 2.0)
    return ShatterCert(x, g, eps, gamma, certified=True)


def shatter(a, p: ShatterParams, rng: Rng) -> ShatterCert:
    """X = A + gamma*G for Ginibre G, plus a grid shattering its spectrum.

    Requires ||A|| <= 1. Empirical mode retries with fresh randomness up
    to RETRY_BUDGET times when the sampled grid fails to certify.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    if op_norm(a) > 1.0 + 1e-12:
        raise PreconditionError("shatter requires ||A|| <= 1")

    for attempt in range(1 + RETRY_BUDGET):
        r = rng.child(attempt)
        x = a + p.gamma * sample_ginibre(n, r.child(0))
        if p.mode == "theoretical":
            return _theoretical_cert(x, n, p.gamma, r.child(1))
        cert = _empirical_cert(x, p.gamma, p.mesh_per_segment, r.child(1))
        if cert is not None:
            return cert
    raise CertificationError(
        f"empirical shattering failed after {1 + RETRY_BUDGET} attempts")
