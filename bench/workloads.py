"""Inputs of the benchmark workloads, as a pure function of the seed.

The solver receives only the generated matrices and an ``Rng`` derived from
the same seed; it is never told which workload it is running. Every input is
scaled to unit spectral norm, as ``eig_backward`` requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specbisect import Rng, sample_ginibre, sample_haar_unitary

#: accuracy every solve asks for; theta is 1/n
DELTA = 0.05

#: size of the matrix the untimed warm-up solve diagonalizes
WARMUP_N = 8

#: Rng path roots, so input, solver and warm-up streams never overlap
_INPUT, _SOLVER, _WARMUP = 0, 1, 2


def _unit_norm(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, 2)


def ginibre_matrix(n: int, rng: Rng) -> np.ndarray:
    return _unit_norm(sample_ginibre(n, rng))


def clustered_matrix(n: int, rng: Rng) -> np.ndarray:
    """Q diag(d) Q* with Q Haar and d cycling through {1, -1, i, -i}."""
    q = sample_haar_unitary(n, rng)
    d = np.array([1, -1, 1j, -1j])[np.arange(n) % 4]
    return _unit_norm((q * d) @ q.conj().T)


@dataclass(frozen=True)
class Workload:
    n: int
    make: object  # (n, Rng) -> matrix
    inputs: int   # distinct matrices in one run's fixed input set

    def matrices(self, seed: int) -> list[np.ndarray]:
        return [self.make(self.n, Rng(seed, (_INPUT, i)))
                for i in range(self.inputs)]

    def warmup_input(self, seed: int) -> tuple[np.ndarray, Rng]:
        """A small matrix of the family and the Rng to solve it with."""
        return (self.make(WARMUP_N, Rng(seed, (_WARMUP, 0))),
                Rng(seed, (_WARMUP, 1)))


def solver_rng(seed: int, index: int) -> Rng:
    """Randomness the solver uses on input ``index`` of the run's set."""
    return Rng(seed, (_SOLVER, index))


WORKLOADS = {
    # Certification dominates (~2/3 of a solve): the grid-line sigma_min
    # check in shatter runs its shifts in 8192-shift batched SVD stacks.
    # Schur-form certification must show its gain here. n=48 rather than 64
    # so that a run holds enough solves for a steady median.
    "ginibre-n48": Workload(48, ginibre_matrix, inputs=32),
    # Four tight clusters of multiplicity n/4: split -> sgn dominates (~3/4
    # of a solve), with tiny grid squares, more census probes per split and
    # Newton steps per sgn call, and shatter retries possible. A Newton or
    # validation change shows here; so does a gain on separated spectra that
    # costs clustered ones, because cheap certification bounds and early
    # stopping are at their weakest.
    "clustered-n24": Workload(24, clustered_matrix, inputs=128),
}
