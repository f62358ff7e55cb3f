"""Spectrum bisection via the trace of the approximate sign function.

The signed eigenvalue count across a vertical line Re z = h is
Tr sgn(A - hI) = n_plus - n_minus, an integer recovered by rounding the
computed trace. The count is nonincreasing in h, so a balanced grid line
is found by binary search; when no vertical line balances, the matrix is
rotated by i and the horizontal lines are searched as vertical ones.

Shattering puts one eigenvalue in each grid square, so the node's
eigenvalues (the shattering eigensolve's, carried down the recursion by
side, or one np.linalg.eigvals when none are given) predict the census at
every grid line before any sign iteration runs. The search runs on the
predicted counts and the sign function is computed once, at the line it
lands on. The rounded Tr sgn there must equal the prediction, so the
kept line's census is always a measured one; a mismatch raises
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


@dataclass(frozen=True)
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
    eigenvalues_plus: np.ndarray = field(repr=False, compare=False)
    eigenvalues_minus: np.ndarray = field(repr=False, compare=False)

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


def _search_vertical(n_lines: int, threshold: int, census):
    """Binary search over the interior vertical lines 1 .. n_lines for a
    balanced census.

    census(k) is the signed count at line k, nonincreasing in k. Returns
    (k, census(k)) or None.
    """
    if n_lines < 1:
        return None
    lo, hi = 1, n_lines
    c_lo = census(lo)
    if abs(c_lo) <= threshold:
        return lo, c_lo
    if c_lo < -threshold:
        return None
    c_hi = census(hi)
    if abs(c_hi) <= threshold:
        return hi, c_hi
    if c_hi > threshold:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        c_m = census(mid)
        if abs(c_m) <= threshold:
            return mid, c_m
        if c_m > threshold:
            lo = mid
        else:
            hi = mid
    return None


def _search(grids: dict, threshold: int, census):
    """(orientation, k, count) of the balanced line the binary search finds
    among the vertical lines, else among the horizontal ones (searched as
    vertical lines of the rotated grid); None when neither balances.
    census(orientation, k) is the signed count at line k of grids[orientation].
    """
    for orientation, grid in grids.items():
        found = _search_vertical(grid.s1 - 1, threshold,
                                 lambda k: census(orientation, k))
        if found is not None:
            return orientation, *found
    return None


def split(a, eps: float, g: Grid, beta: float,
          eigenvalues: np.ndarray | None = None) -> SplitResult:
    """Bisect the spectrum along a balanced grid line.

    Requires the eps-pseudospectrum of A shattered with respect to g,
    ||A|| <= 4 and beta <= 0.05/n. Returns approximate spectral projectors
    P_plus/P_minus = (S +- I)/2, the subgrids on each side of the winning
    line, the eigenvalue counts and the eigenvalues on each side. Balance:
    |n_plus - n_minus| <= 3n/5 for n > 5; for n <= 5 any line with both
    sides nonempty is accepted.

    eigenvalues (n of them, one per square of g, as shattering puts them;
    np.linalg.eigvals(a) when None) predict the census at every line. The
    search runs on the predictions and Tr sgn is computed only at the line
    it lands on; SplitFailureError when its rounded value differs from the
    prediction, so the kept line's census is always the measured one.
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
    grids = {"vertical": g, "horizontal": g.rotated()}
    sides = {"vertical": lam.real, "horizontal": (1j * lam).real}

    def line(orientation: str, k: int) -> float:
        grid = grids[orientation]
        return grid.x0 + k * grid.omega

    def predict(orientation: str, k: int) -> int:
        right = np.count_nonzero(sides[orientation] > line(orientation, k))
        return 2 * int(right) - n

    found = _search(grids, threshold, predict)
    if found is None:
        raise SplitFailureError(
            "no balanced grid line in either orientation; the "
            "shattering precondition is likely violated")

    orientation, k, c = found
    shift = line(orientation, k)
    s, t = _signed_sign_trace(a if orientation == "vertical" else 1j * a,
                              shift, eps, grids[orientation], beta)
    if _census(t) != c:
        raise SplitFailureError(
            f"sign trace {t:.4f} at the {orientation} line {shift:g} "
            f"differs from the census {c} the eigenvalues predict")

    g_minus, g_plus = grids[orientation].split_vertical(k)
    if orientation == "horizontal":
        g_minus, g_plus = g_minus.rotated_back(), g_plus.rotated_back()
    n_plus = (n + c) // 2
    eye = np.eye(n, dtype=np.complex128)
    plus = sides[orientation] > shift
    return SplitResult(0.5 * (s + eye), 0.5 * (eye - s), g_plus, g_minus,
                       n_plus, n - n_plus, float(shift), orientation,
                       lam[plus], lam[~plus])
