"""Pseudospectral shattering: Ginibre perturbation plus a randomized grid.

Theoretical mode transcribes the provable parameter choices (which drop
below the floor doubles can resolve already for small n; the certificate
is flagged accordingly and not certified). Empirical mode takes
eigenvalues and left and right eigenvectors from one eigensolve, chooses
the square size from their gap, randomizes the grid offset, and derives
the shattering parameter from an analytic lower bound on sigma_min(zI - X)
that holds at every point of every grid line: the eigenvector expansion of
the resolvent, corrected for the computed pairs' residual and rounding.
The bound is evaluated on the <= 4n lines next to the eigenvalues, O(n^3)
for two matrix products and O(n^2) after, so the certificate is rigorous
to first order in the unit roundoff and costs no SVD.

Both modes compare the shattering parameter with one floor,
_eps_floor(n, omega), derived from the limits of the arithmetic that uses
it: from the floor up, every node of the recursion runs its sign
iteration in doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, PreconditionError
from .grids import Grid, ShatterCert, eig_pairs, eigenvalue_gap
from .kernels import UNIT_ROUNDOFF, as_cmatrix, fro_norm, op_norm
# shatter calls neither; the benchmark's trace (bench/spans.py SITES) wraps both
from .grids import kappa_v_upper  # noqa: F401
from .kernels import sigma_min_shifted_batch  # noqa: F401
from .randmat import Rng, sample_ginibre


@dataclass(frozen=True)
class ShatterParams:
    gamma: float
    mode: str = "empirical"

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError("gamma must lie in (0, 1/2)")
        if self.mode not in ("theoretical", "empirical"):
            raise ValueError("mode must be 'theoretical' or 'empirical'")


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if not r >= 0.0:
        raise ValueError("r must be nonnegative")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    return min(1.0, 42.0 * (n / gamma) ** 3.2 * r**1.2 + 2.0 * math.exp(-2.0 * n))


def _eps_floor(n: int, omega: float) -> float:
    """Floor n u (8 + 2 omega) max(16 + 4 omega, n + 1) on the shattering
    parameter eps: from it up, every node of the recursion on an n x n
    matrix, with grid squares of side omega, can run its sign iteration in
    doubles.

    A node at depth L holds m_L <= n (4/5)^L rows, as split keeps each
    side at most 4m/5, and eig uses eps_L = eps (4/5)^L there. Its grid
    lies inside the root grid, whose side is at most 8 + 2 omega and
    whose diagonal is at most sqrt(2) (8 + 2 omega); its lines lie within
    4 + 2 omega of 0. Two limits bind:
      * alpha0 = 1 - eps_L/diag_L^2 must not round to 1, or
        sgn_params_from_shattering raises PreconditionError, which
        eig_backward does not retry. A node that splits has m_L >= 2, so
        (4/5)^L >= 1/n, and eps >= 2 n u (8 + 2 omega)^2 keeps
        eps_L/diag_L^2 >= u at every depth.
      * The first sign step inverts X0 = A_L - hI, which must pass
        mat_inv's test ||X0||_F ||X0^-1||_F < 1/(max(m, 10) u). split
        enforces ||A_L|| <= 4 and |h| <= 4 + 2 omega, so
        ||X0|| <= 8 + 2 omega; ||X0^-1|| <= 1/eps_L, as the
        eps_L-pseudospectrum avoids the line; so the product is at most
        m (8 + 2 omega)/eps_L. The test passes when
        eps_L > m max(m, 10) u (8 + 2 omega), which holds at every node
        once eps >= n (n + 1) u (8 + 2 omega): n + 1, not n, keeps the
        inequality strict at the root, where m = n.
    The larger of the two is the floor: about 5e-13 at n = 24, 2e-12 at
    n = 48 and 6e-11 at n = 256 for small omega.
    """
    width = 8.0 + 2.0 * omega
    return n * UNIT_ROUNDOFF * width * max(2.0 * width, n + 1.0)


def _bracketing_lines(centres, origin: float, omega: float,
                      count: int) -> np.ndarray:
    """Positions origin + omega*k, 0 <= k <= count, of the grid lines next
    to each centre: the last line at or below it and the first above it.
    Repeats are kept, since only the largest line sum is read."""
    # a quotient rounded across an integer shifts the pair by one line only
    # for a centre within ulps of a line, and that line, where the sum is
    # largest, stays in the pair
    k = np.floor((centres - origin) / omega)
    k = np.clip(np.concatenate([k, k + 1.0]), 0.0, count)
    return origin + omega * k


def _line_sums(lines, centres, kappa) -> np.ndarray:
    """sum_j kappa_j/|l - c_j| for each line position l; inf on a centre."""
    with np.errstate(divide="ignore"):
        return (kappa / np.abs(lines[:, np.newaxis] - centres)).sum(axis=1)


def windowed_line_margin(x, g: Grid, lam, v, w) -> float:
    """Lower bound on sigma_min(zI - X) at every point of every grid line,
    from eigenpairs with unit right vectors v_j and w_j* v_j = 1 (as
    grids.eig_pairs gives them); -inf when the pairs certify nothing. (It
    keeps the name under which the benchmark's trace, bench/spans.py
    SITES, times certification.)

    With F = I - W*V and D = diag(lam), ||F||_F < 1 makes V invertible,
    V^-1 = (I - F)^-1 W*, so ||V^-1|| <= ||W||_F/(1 - ||F||_F), and
    X = V D V^-1 + E with E = (XV - VD) V^-1, ||E|| <= r =
    ||XV - VD||_F ||W||_F/(1 - ||F||_F). Row j of V^-1 is
    w_j* + e_j* F (I - F)^-1 W*, of norm at most kappa_j = ||w_j|| +
    ||F||_F ||W||_F/(1 - ||F||_F). Expanding the resolvent,
    (zI - V D V^-1)^-1 = sum_j v_j (row j of V^-1)/(z - lam_j) (Bauer and
    Fike 1960; Trefethen and Embree, Spectra and Pseudospectra, 2005), and
    Weyl's inequality give, for every z on a line L (the whole line, so
    its grid segment too),
        sigma_min(zI - X) >= 1/S(L) - r,  S(L) = sum_j kappa_j/dist(lam_j, L).
    The bound is 1/max_L S(L) - r. On the vertical lines Re z = c,
    S = sum_j kappa_j/|c - Re lam_j| is convex between consecutive Re lam_j
    and monotone outside them, so its largest value on grid lines is on a
    line next to some Re lam_j: only those <= 2n lines, and the <= 2n
    horizontal lines next to some Im lam_j, are evaluated. The cost is the
    two n x n products and O(n^2) for the sums, with no array of grid size.

    Rounding, to first order in u, with ||V||_F = sqrt(n):
      * Products: a complex inner product of length n is accurate to
        (n+2) u |x|^T |y| (Higham, Accuracy and Stability, Sec. 3.6), and
        the scaling VD to 2 sqrt(2) u |V||D|; the subtractions round values
        that are themselves O(u). So the computed residual is within
        tau_R = (n+2) sqrt(n) u (||X||_F + max|lam_j|) of XV - VD in
        Frobenius norm, and the computed F within
        tau_F = (n+2) sqrt(n) u ||W||_F of I - W*V; both are added to the
        computed norms before use.
      * Scalars: the norms ||w_j|| (n+1), the unit norm of the computed
        v_j (n+2), the distances, quotients and n-term line sums (n+1) and
        the reciprocal (1) are relatively accurate to 3(n+2) u in all, so
        max S is enlarged by the factor 1 + 3(n+2) u. The rounding of r
        itself is O(u) relative to a value that is O(u).
    """
    n = x.shape[0]
    w_norm = fro_norm(w)
    f = (fro_norm(np.eye(n) - w.conj().T @ v)
         + (n + 2) * math.sqrt(n) * UNIT_ROUNDOFF * w_norm)
    if not f < 1.0:
        return -math.inf
    resid = (fro_norm(x @ v - v * lam)
             + (n + 2) * math.sqrt(n) * UNIT_ROUNDOFF
             * (fro_norm(x) + float(np.abs(lam).max())))
    inv_bound = w_norm / (1.0 - f)
    kappa = np.linalg.norm(w, axis=0) + f * inv_bound
    s_max = max(
        _line_sums(_bracketing_lines(lam.real, g.x0, g.omega, g.s1),
                   lam.real, kappa).max(),
        _line_sums(_bracketing_lines(lam.imag, g.y0, g.omega, g.s2),
                   lam.imag, kappa).max())
    return float(1.0 / (s_max * (1.0 + 3.0 * (n + 2) * UNIT_ROUNDOFF))
                 - resid * inv_bound)


def _theoretical_cert(x, n: int, gamma: float, rng: Rng) -> ShatterCert:
    omega = gamma**4 / (4.0 * n**5)
    side = math.ceil(8.0 / omega)
    u = rng.uniform(size=2)
    z0 = complex(-4.0 + u[0] * omega, -4.0 + u[1] * omega)
    g = Grid(z0, omega, side, side)
    eps = 0.5 * gamma**5 / (16.0 * n**9)
    return ShatterCert(x, g, eps, gamma, certified=False,
                       below_hardware_precision=eps < _eps_floor(n, omega))


def _empirical_cert(x, gamma: float, rng: Rng) -> ShatterCert:
    """Certificate for X from one eigensolve, squares of a quarter of the
    eigenvalue gap and a random grid offset drawn from rng, with
    eps = min(margin/2, 0.999 omega/2). Raises CertificationError, naming
    the check, when the eigensolve fails or eps falls below _eps_floor,
    checked first for the largest eps the gap allows (so a zero or tiny
    gap builds no grid) and then for the margin's."""
    n = x.shape[0]
    try:
        lam, v, w = eig_pairs(x)
    except (PreconditionError, np.linalg.LinAlgError) as err:
        raise CertificationError(f"eigensolve failed: {err}") from err
    omega = (eigenvalue_gap(lam) if n >= 2 else 8.0) / 4.0
    eps_max, floor = 0.999 * omega / 2.0, _eps_floor(n, omega)
    # a zero or subnormal gap stops here, before 8/omega overflows
    if not eps_max >= floor:
        raise CertificationError(f"gap eps {eps_max:.2e} < floor {floor:.2e}")
    side = math.ceil(8.0 / omega) + 1
    u = rng.uniform(size=2)
    z0 = complex(-4.0 - u[0] * omega, -4.0 - u[1] * omega)
    g = Grid(z0, omega, side, side)
    margin = windowed_line_margin(x, g, lam, v, w)
    eps = min(margin / 2.0, eps_max)
    if not eps >= floor:  # also on a NaN margin
        raise CertificationError(f"margin eps {eps:.2e} < floor {floor:.2e}")
    return ShatterCert(x, g, eps, gamma, certified=True, eigenvalues=lam)


def shatter(a, p: ShatterParams, rng: Rng) -> ShatterCert:
    """X = A + gamma*G for Ginibre G, plus a grid shattering its spectrum.

    Requires ||A|| <= 1. Makes one draw: G from rng.child(0).child(0) and
    the grid offset from rng.child(0).child(1). Empirical mode raises
    CertificationError when that draw fails to certify (the eigensolve
    fails, or eps falls below _eps_floor(n, omega), the floor from which
    the recursion's sign iterations run in doubles); eig_backward is the
    caller that redraws. Theoretical mode sets below_hardware_precision
    when its eps lies below the same floor.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    if op_norm(a) > 1.0 + 1e-12:
        raise PreconditionError("shatter requires ||A|| <= 1")
    r = rng.child(0)
    x = a + p.gamma * sample_ginibre(n, r.child(0))
    if p.mode == "theoretical":
        return _theoretical_cert(x, n, p.gamma, r.child(1))
    return _empirical_cert(x, p.gamma, r.child(1))
