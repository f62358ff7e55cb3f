"""Spectrum bisection via the trace of the approximate sign function.

The signed eigenvalue count across a vertical line Re z = h is
Tr sgn(A - hI) = n_plus - n_minus, an integer recovered by rounding the
computed trace. The count is nonincreasing in h; when no vertical line
balances, the matrix is rotated by i and the horizontal lines are tried as
vertical ones.

Shattering puts one eigenvalue in each grid square, so the node's
eigenvalues (the shattering eigensolve's, carried down the recursion by
side, or one np.linalg.eigvals when none are given) predict the census at
every grid line before any sign iteration runs. The most balanced line is
read off the two median eigenvalues, and the sign function is computed
once, at that line. The rounded Tr sgn there must equal the prediction, so
the kept line's census is always a measured one; a mismatch raises
SplitFailureError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousCountError, PreconditionError, SplitFailureError
from .grids import Grid
from .kernels import as_cmatrix, fro_norm, op_norm, trace
from .sgn import SgnParams, sgn, sgn_params_from_shattering


@dataclass(frozen=True, eq=False)
class SplitResult:
    p_plus: np.ndarray
    p_minus: np.ndarray
    g_plus: Grid
    g_minus: Grid
    n_plus: int
    n_minus: int
    shift_used: float
    orientation: str
    #: the node's eigenvalues on each side of the line, n_plus (n_minus)
    #: of them
    eigenvalues_plus: np.ndarray = field(repr=False)
    eigenvalues_minus: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "shift_used": self.shift_used,
            "orientation": self.orientation,
            "g_plus": self.g_plus.to_json(),
            "g_minus": self.g_minus.to_json(),
            "p_plus_norm": op_norm(self.p_plus),
            "p_minus_norm": op_norm(self.p_minus),
        }


def _signed_sign_trace(a, h: float, eps: float, g: Grid, beta: float):
    """(S, Re Tr S) for S = approximate sgn(A - hI)."""
    shifted = a.copy()
    idx = np.arange(a.shape[0])
    shifted[idx, idx] -= h
    eps0, alpha0 = sgn_params_from_shattering(eps, g)
    s, _ = sgn(shifted, SgnParams(eps0, alpha0, beta))
    return s, trace(s).real


def _census(t: float) -> int:
    """Round a sign trace to the signed count; AmbiguousCountError when it
    is further than 0.3 from an integer."""
    r = round(t)
    if abs(t - r) > 0.3:
        raise AmbiguousCountError(
            f"sign trace {t:.4f} is not close to an integer", trace_value=t)
    return int(r)


def eig_count_signed(a, h: float, eps: float, g: Grid, beta: float) -> int:
    """Signed census n_plus - n_minus across the grid line Re z = h.

    The line must be a grid line of g (so the shattering certificate keeps
    the pseudospectrum away from it). A trace further than 0.3 from an
    integer means the sign iteration did not resolve the census, which
    signals a violated precondition.
    """
    _, t = _signed_sign_trace(as_cmatrix(a), h, eps, g, beta)
    return _census(t)


def _median_line(side: np.ndarray, grid: Grid):
    """(k, census) of the most balanced interior vertical line k of grid,
    side holding the eigenvalues' real parts; None when grid has none.

    The census is nonincreasing in k and changes only across columns that
    hold eigenvalues, so its smallest magnitude lies between the columns of
    the lower and upper medians lo <= hi: at every line from the first one
    right of lo to the last one at or left of hi (the middle one is kept),
    or, when they share a column, at one of its two edge lines.
    """
    if grid.s1 < 2:
        return None
    n = len(side)
    lo, hi = np.sort(side)[[(n - 1) // 2, n // 2]]

    def clip(k: int) -> int:
        return min(max(k, 1), grid.s1 - 1)

    def census(k: int) -> int:
        line = grid.x0 + k * grid.omega
        return 2 * int(np.count_nonzero(side > line)) - n

    # the first line right of lo and the last line at or left of hi
    first = clip(math.floor((lo - grid.x0) / grid.omega) + 1)
    last = clip(math.floor((hi - grid.x0) / grid.omega))
    if first <= last:
        k = (first + last) // 2
    else:  # one column: its left edge is last, its right edge first
        k = min(last, first, key=lambda j: abs(census(j)))
    return k, census(k)


def split(a, eps: float, g: Grid, beta: float,
          eigenvalues: np.ndarray | None = None) -> SplitResult:
    """Bisect the spectrum along the most balanced grid line.

    Requires the eps-pseudospectrum of A shattered with respect to g,
    ||A|| <= 4 and beta <= 0.05/n. Returns approximate spectral projectors
    P_plus/P_minus = (S +- I)/2, the subgrids on each side of the kept
    line, the eigenvalue counts and the eigenvalues on each side. Balance:
    |n_plus - n_minus| <= 3n/5 for n > 5; for n <= 5 any line with both
    sides nonempty is accepted.

    eigenvalues (n of them, one per square of g, as shattering puts them;
    np.linalg.eigvals(a) when None) predict the census at every line. The
    vertical line of smallest predicted |census| is kept if it balances,
    else the horizontal one; SplitFailureError when neither does. Tr sgn is
    computed only at the kept line, and SplitFailureError is raised when
    its rounded value differs from the prediction, so the kept line's
    census is always the measured one.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    if n < 2:
        raise PreconditionError("split needs n >= 2")
    # ||A||_2 <= ||A||_F: the SVD runs only when the cheap bound exceeds 4
    if fro_norm(a) > 4.0 + 1e-9 and op_norm(a) > 4.0 + 1e-9:
        raise PreconditionError("split requires ||A|| <= 4")
    if not beta <= 0.05 / n:
        raise PreconditionError("split requires beta <= 0.05/n")
    side_slack = 2.0 * g.omega
    if g.s1 * g.omega > 8.0 + side_slack or g.s2 * g.omega > 8.0 + side_slack:
        raise PreconditionError("grid side lengths must be at most 8")
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(a)
    elif len(eigenvalues) != n:
        raise PreconditionError(
            f"split needs {n} eigenvalues, got {len(eigenvalues)}")

    threshold = math.floor(3 * n / 5) if n > 5 else n - 2
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    # horizontal lines of g are the vertical lines of g rotated by i
    for orientation, grid, side in (("vertical", g, lam.real),
                                    ("horizontal", g.rotated(),
                                     (1j * lam).real)):
        found = _median_line(side, grid)
        if found is not None and abs(found[1]) <= threshold:
            break
    else:
        raise SplitFailureError(
            "no balanced grid line in either orientation; the "
            "shattering precondition is likely violated")

    k, c = found
    shift = grid.x0 + k * grid.omega
    s, t = _signed_sign_trace(a if orientation == "vertical" else 1j * a,
                              shift, eps, grid, beta)
    if _census(t) != c:
        raise SplitFailureError(
            f"sign trace {t:.4f} at the {orientation} line {shift:g} "
            f"differs from the census {c} the eigenvalues predict")

    g_minus, g_plus = grid.split_vertical(k)
    if orientation == "horizontal":
        g_minus, g_plus = g_minus.rotated_back(), g_plus.rotated_back()
    n_plus = (n + c) // 2
    eye = np.eye(n, dtype=np.complex128)
    plus = side > shift
    return SplitResult(0.5 * (s + eye), 0.5 * (eye - s), g_plus, g_minus,
                       n_plus, n - n_plus, float(shift), orientation,
                       lam[plus], lam[~plus])
