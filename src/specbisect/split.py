"""Spectrum bisection via the trace of the approximate sign function.

The signed eigenvalue count across a vertical line Re z = h is
Tr sgn(A - hI) = n_plus - n_minus, an integer recovered by rounding the
computed trace. The count is nonincreasing in h, so a balanced grid line
is found by binary search; when no vertical line balances, the matrix is
rotated by i and the horizontal lines are searched as vertical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousCountError, PreconditionError, SplitFailureError
from .grids import Grid
from .kernels import as_cmatrix, op_norm, trace
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


def _search_vertical(a, eps: float, g: Grid, beta: float, threshold: int):
    """Binary search over interior vertical lines for a balanced census.

    Returns (k, S, count) or None. Uses monotonicity of the signed count
    in the line abscissa.
    """
    n_lines = g.s1 - 1
    if n_lines < 1:
        return None
    cache: dict[int, tuple[np.ndarray, int]] = {}

    def probe(k: int):
        if k not in cache:
            h = g.x0 + k * g.omega
            s, t = _signed_sign_trace(a, h, eps, g, beta)
            cache[k] = (s, _census(t))
        return cache[k]

    lo, hi = 1, n_lines
    s_lo, c_lo = probe(lo)
    if abs(c_lo) <= threshold:
        return lo, s_lo, c_lo
    if c_lo < -threshold:
        return None
    s_hi, c_hi = probe(hi)
    if abs(c_hi) <= threshold:
        return hi, s_hi, c_hi
    if c_hi > threshold:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s_m, c_m = probe(mid)
        if abs(c_m) <= threshold:
            return mid, s_m, c_m
        if c_m > threshold:
            lo = mid
        else:
            hi = mid
    return None


def split(a, eps: float, g: Grid, beta: float) -> SplitResult:
    """Bisect the spectrum along a balanced grid line.

    Requires the eps-pseudospectrum of A shattered with respect to g,
    ||A|| <= 4 and beta <= 0.05/n. Returns approximate spectral projectors
    P_plus/P_minus = (S +- I)/2, the subgrids on each side of the winning
    line and the eigenvalue counts. Balance: |n_plus - n_minus| <= 3n/5
    for n > 5; for n <= 5 any line with both sides nonempty is accepted.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    if n < 2:
        raise PreconditionError("split needs n >= 2")
    if op_norm(a) > 4.0 + 1e-9:
        raise PreconditionError("split requires ||A|| <= 4")
    if beta > 0.05 / n:
        raise PreconditionError("split requires beta <= 0.05/n")
    side_slack = 2.0 * g.omega
    if g.s1 * g.omega > 8.0 + side_slack or g.s2 * g.omega > 8.0 + side_slack:
        raise PreconditionError("grid side lengths must be at most 8")

    threshold = math.floor(3 * n / 5) if n > 5 else n - 2

    found = _search_vertical(a, eps, g, beta, threshold)
    if found is not None:
        k, s, c = found
        g_minus, g_plus = g.split_vertical(k)
        shift = g.x0 + k * g.omega
        orientation = "vertical"
    else:
        b = 1j * a
        gr = g.rotated()
        found = _search_vertical(b, eps, gr, beta, threshold)
        if found is None:
            raise SplitFailureError(
                "no balanced grid line in either orientation; the "
                "shattering precondition is likely violated")
        k, s, c = found
        gm_r, gp_r = gr.split_vertical(k)
        g_minus, g_plus = gm_r.rotated_back(), gp_r.rotated_back()
        shift = gr.x0 + k * gr.omega
        orientation = "horizontal"

    n_plus = (n + c) // 2
    n_minus = n - n_plus
    eye = np.eye(n, dtype=np.complex128)
    p_plus = 0.5 * (s + eye)
    p_minus = 0.5 * (eye - s)
    return SplitResult(p_plus, p_minus, g_plus, g_minus, n_plus, n_minus,
                       float(shift), orientation)
