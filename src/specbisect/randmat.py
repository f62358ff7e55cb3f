"""Random matrix sampling and closed-form distributional oracles.

Ginibre matrices are normalized so E|G_ij|^2 = 1/n. Haar unitaries come
from QR of a Ginibre with the nonnegative-diagonal sign convention. The
closed forms (corner smallest-singular-value CDF, Ginibre lower tail) are
the oracles the statistical lab validates against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .kernels import qr_q


class Rng:
    """Counter-based seeded RNG with derivable child streams.

    The stream is a pure function of (seed, path): the same seed always
    reproduces the same samples, and ``child(i)`` yields an independent
    stream so parallel branches stay deterministic. The generator is built
    on the first draw, so a handle used only to derive children costs no
    Philox setup.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "Rng":
        return Rng(self.seed, self.path + (int(index),))

    def standard_normal(self, shape):
        return self._gen.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path})"


def sample_ginibre(n: int, rng: Rng, cols: int | None = None) -> np.ndarray:
    """n x cols complex Ginibre matrix with E|G_ij|^2 = 1/n (cols
    defaults to n)."""
    cols = n if cols is None else cols
    if n < 1 or cols < 1:
        raise ValueError("n and cols must be >= 1")
    parts = rng.standard_normal((2, n, cols))
    return (parts[0] + 1j * parts[1]) / math.sqrt(2.0 * n)


def sample_haar_unitary(n: int, rng: Rng) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a Ginibre matrix."""
    return qr_q(sample_ginibre(n, rng))


def haar_corner_sigma_min_cdf(n: int, r: int, theta: float) -> float:
    """P[sigma_min(X) <= theta] for X the r x r corner of an n x n Haar unitary.

    Equals 1 - (1 - theta^2)^(r(n-r)); symmetric under r <-> n-r.
    """
    if not 0 < r < n:
        raise ValueError("require 0 < r < n")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if theta == 1.0:
        return 1.0
    return -math.expm1(r * (n - r) * math.log1p(-theta * theta))


def ginibre_sigma_tail(n: int, j: int, alpha: float) -> float:
    """Upper bound on P[sigma_j(G_n) < alpha*(n-j+1)/n]: (sqrt(2e)*alpha)^(2(n-j+1)^2)."""
    if not 1 <= j <= n:
        raise ValueError("require 1 <= j <= n")
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0.0:
        return 0.0
    k = n - j + 1
    return (math.sqrt(2.0 * math.e) * alpha) ** (2 * k * k)
