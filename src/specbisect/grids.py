"""Complex-plane grids, the shattering predicate, and spectral conditioning.

A grid is an s1 x s2 lattice of omega-sized squares with lower-left corner
z0. A matrix is shattered with respect to a grid (at level eps) when every
square holds at most one eigenvalue and the eps-pseudospectrum avoids all
grid lines. Certification here is brute force: a dense eigensolve plus a
mesh of smallest-singular-value evaluations along the grid lines (exact
SVDs wherever the values already taken, being 1-Lipschitz in the shift,
cannot rule out the minimum), which gives ground truth independent of the
solver pipeline. The solver itself certifies from eig_pairs
(shatter.windowed_line_margin); the mesh, min_line_sigma and
certify_shattered are the oracle that cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SingularMatrixError
from .kernels import (as_cmatrix, mat_inv, sigma_min_argmin,
                      sigma_min_shifted_batch)


@dataclass(frozen=True)
class Grid:
    """Rectangular lattice of omega x omega squares cornered at z0."""

    z0: complex
    omega: float
    s1: int
    s2: int

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("s1 and s2 must be >= 1")

    @property
    def diag(self) -> float:
        return self.omega * math.hypot(self.s1, self.s2)

    @property
    def x0(self) -> float:
        return self.z0.real

    @property
    def y0(self) -> float:
        return self.z0.imag

    def vertical_line_xs(self) -> np.ndarray:
        return self.x0 + self.omega * np.arange(self.s1 + 1)

    def horizontal_line_ys(self) -> np.ndarray:
        return self.y0 + self.omega * np.arange(self.s2 + 1)

    def square_index(self, z: complex):
        """Square containing z under the half-open convention, or None."""
        i = math.floor((z.real - self.x0) / self.omega)
        j = math.floor((z.imag - self.y0) / self.omega)
        if 0 <= i < self.s1 and 0 <= j < self.s2:
            return (i, j)
        return None

    def split_vertical(self, k: int) -> tuple["Grid", "Grid"]:
        """Subgrids left/right of the k-th vertical line (0 < k < s1)."""
        if not 0 < k < self.s1:
            raise ValueError("interior line index required")
        left = Grid(self.z0, self.omega, k, self.s2)
        right = Grid(self.z0 + k * self.omega, self.omega, self.s1 - k, self.s2)
        return left, right

    def rotated(self) -> "Grid":
        """Image of this grid under multiplication by i.

        Horizontal lines become vertical lines of the rotated grid, which
        is how horizontal bisections are reduced to vertical ones.
        """
        z0p = complex(-(self.y0 + self.s2 * self.omega), self.x0)
        return Grid(z0p, self.omega, self.s2, self.s1)

    def rotated_back(self) -> "Grid":
        """Image of this grid under multiplication by -i (inverse of rotated)."""
        z0p = complex(self.y0, -(self.x0 + self.s1 * self.omega))
        return Grid(z0p, self.omega, self.s2, self.s1)

    def line_mesh(self, mesh_per_segment: int = 64) -> np.ndarray:
        """Mesh points covering every grid line, endpoints included."""
        m = int(mesh_per_segment)
        if m < 1:
            raise ValueError("mesh_per_segment must be >= 1")
        ys = self.y0 + self.omega * np.linspace(0.0, self.s2, self.s2 * m + 1)
        xs = self.x0 + self.omega * np.linspace(0.0, self.s1, self.s1 * m + 1)
        vert = (self.vertical_line_xs()[:, None] + 1j * ys[None, :]).ravel()
        horiz = (xs[None, :] + 1j * self.horizontal_line_ys()[:, None]).ravel()
        return np.concatenate([vert, horiz])

    def to_json(self) -> dict:
        return {
            "re_z0": self.z0.real,
            "im_z0": self.z0.imag,
            "omega": self.omega,
            "s1": self.s1,
            "s2": self.s2,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Grid":
        return cls(complex(d["re_z0"], d["im_z0"]), d["omega"], d["s1"], d["s2"])


@dataclass(frozen=True)
class ShatterCert:
    """Perturbed matrix, grid and shattering parameter produced by shatter()."""

    matrix: np.ndarray
    grid: Grid
    epsilon: float
    gamma: float
    certified: bool = True
    below_hardware_precision: bool = False
    #: eigenvalues of matrix from the eigensolve that certified the grid,
    #: one per square (None in theoretical mode); eig_shattered predicts
    #: each split's census from them
    eigenvalues: np.ndarray | None = field(default=None, repr=False,
                                           compare=False)

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.epsilon > self.grid.omega / 2 + 1e-15 * self.grid.omega:
            raise ValueError("shattering requires epsilon <= omega/2")

    def to_json(self) -> dict:
        return {
            "grid": self.grid.to_json(),
            "epsilon": self.epsilon,
            "gamma": self.gamma,
            "certified": self.certified,
            "below_hardware_precision": self.below_hardware_precision,
        }


@dataclass(frozen=True)
class CertResult:
    """Outcome of brute-force shattering certification."""

    ok: bool
    line_margin: float
    eigenvalues: np.ndarray = field(repr=False)
    violation: str | None = None
    violating_point: complex | None = None
    violating_square: tuple[int, int] | None = None


def pseudospectrum_member(a, eps: float, z: complex) -> bool:
    """True iff z lies in the eps-pseudospectrum of a."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return bool(sigma_min_shifted_batch([z], a)[0] < eps)


def min_line_sigma(a, g: Grid, mesh_per_segment: int = 64):
    """(min, first argmin point) of sigma_min(z*I - A) over the meshed grid
    lines, as one SVD per mesh point gives them (kernels.sigma_min_argmin
    takes SVDs at few of the points)."""
    pts = g.line_mesh(mesh_per_segment)
    k, smin = sigma_min_argmin(pts, a)
    return smin, complex(pts[k])


def certify_shattered(a, g: Grid, eps: float,
                      mesh_per_segment: int = 64) -> CertResult:
    """Check shattering by dense eigensolve plus a grid-line sigma_min mesh.

    The line check is a sampled lower bound: the reported margin makes
    under-resolution visible (re-run with a denser mesh to tighten it).
    """
    a = as_cmatrix(a)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    evals = np.linalg.eigvals(a)

    seen: dict[tuple[int, int], complex] = {}
    for lam in evals:
        sq = g.square_index(complex(lam))
        if sq is None:
            return CertResult(False, math.nan, evals,
                              violation=f"eigenvalue {lam:.6g} outside grid region")
        if sq in seen:
            return CertResult(False, math.nan, evals,
                              violation=f"two eigenvalues share square {sq}",
                              violating_square=sq)
        seen[sq] = complex(lam)

    margin, zmin = min_line_sigma(a, g, mesh_per_segment)
    if margin < eps:
        return CertResult(False, margin, evals,
                          violation=f"pseudospectrum touches grid line near {zmin:.6g}"
                                    f" (sigma_min {margin:.3e} < eps {eps:.3e})",
                          violating_point=zmin)
    return CertResult(True, margin, evals)


def eig_pairs(a):
    """Right/left eigenvector pairs with w_i* v_i = 1 and unit right vectors.

    Returns (eigenvalues, V, W) with columns paired; raises
    PreconditionError if V is singular to working precision, as it is for
    a matrix defective to working precision.

    np.linalg.eig runs LAPACK's geev for the eigenvalues and right vectors,
    whose values equal scipy.linalg.eig's bit for bit. The rows of V^-1 are the
    left vectors normalized to w_j* v_j = 1, so W = (V^-1)*, one mat_inv
    call. shatter.windowed_line_margin measures F = I - W*V for whatever W
    it is given, so its bound holds for this one.
    """
    a = as_cmatrix(a)
    evals, vr = np.linalg.eig(a)
    vr = vr / np.linalg.norm(vr, axis=0)[np.newaxis, :]
    try:
        vinv, _ = mat_inv(vr)
    except SingularMatrixError as err:
        raise PreconditionError(
            "matrix is defective to working precision") from err
    return evals, vr, vinv.conj().T


def kappa_v_upper(a) -> float:
    """Upper bound sqrt(n * sum kappa(lambda_i)^2) on the eigenvector condition number."""
    a = as_cmatrix(a)
    n = a.shape[0]
    _, vr, w = eig_pairs(a)
    kappas = np.linalg.norm(w, axis=0)  # right vectors are unit
    return float(math.sqrt(n * float(np.sum(kappas**2))))


def eigenvalue_gap(evals) -> float:
    """Minimum pairwise distance between the given eigenvalues (n >= 2)."""
    diffs = np.abs(evals[:, None] - evals[None, :])
    np.fill_diagonal(diffs, np.inf)
    return float(diffs.min())


def min_gap(a) -> float:
    """Minimum pairwise distance between eigenvalues."""
    a = as_cmatrix(a)
    if a.shape[0] < 2:
        raise PreconditionError("min_gap needs n >= 2")
    return eigenvalue_gap(np.linalg.eigvals(a))
