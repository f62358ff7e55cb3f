"""Micro-timings of the kernels under each solver phase.

Each kernel runs through the package's own functions on a fixed input and
reports the median wall time of a few repetitions, a model operation count
(real floating-point operations of the LAPACK work involved, one complex
operation counted as 4 real ones) and the bytes of the n x n
complex arrays it reads or writes, computed from their sizes (cache misses
are not counted). Counts are labelled computed because nothing measures them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from specbisect import Rng, SgnParams, rurv, sample_ginibre, sgn
from specbisect.kernels import sigma_min_shifted_batch

SIZES = (16, 32, 64)

#: shifts per timed batched sigma_min call
SHIFTS = 512

_C = 16  # bytes per complex128 entry


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sigma_min(n: int, reps: int) -> dict:
    x = sample_ginibre(n, Rng(n, (0,)))
    zs = np.exp(2j * np.pi * np.arange(SHIFTS) / SHIFTS)
    return {
        "s": _median_time(lambda: sigma_min_shifted_batch(zs, x), reps),
        # values-only SVD of each shifted matrix: 4 * (8/3) n^3
        "flops": SHIFTS * (32 / 3) * n**3,
        # the stack of shifted copies
        "bytes": SHIFTS * n * n * _C,
    }


def _newton_step(n: int, reps: int) -> dict:
    # spectrum inside Re z > 0.5, so every step is well conditioned
    x = sample_ginibre(n, Rng(n, (1,))) * 0.4 + 1.5 * np.eye(n)
    params = SgnParams(eps0=0.05, alpha0=0.9, beta=1e-3)
    steps = sgn(x, params)[1].n_steps
    return {
        # one sgn call divided by the steps it ran, so per-call set-up is
        # spread over the steps the way a solve sees it
        "s": _median_time(lambda: sgn(x, params), reps) / steps,
        # per step today: 2 LU (2 * 4 * 2/3 n^3), n-RHS solve (4 * 2 n^3),
        # 2 values-only SVDs for the diagnostics (2 * 4 * 8/3 n^3)
        "flops": (16 / 3 + 8 + 64 / 3) * n**3,
        # iterate, 2 LU copies, identity, inverse, next iterate, 2 SVD copies
        "bytes": 8 * n * n * _C,
    }


def _rurv(n: int, reps: int) -> dict:
    a = sample_ginibre(n, Rng(n, (2,)))
    rng = Rng(n, (3,))
    return {
        "s": _median_time(lambda: rurv(a, rng), reps),
        # 2 Householder QRs with Q formed (2 * 4 * 8/3 n^3), one product
        # (4 * 2 n^3)
        "flops": (64 / 3 + 8) * n**3,
        # input, Ginibre draw, V, A V*, U, R
        "bytes": 6 * n * n * _C,
    }


#: kernel, its timer, and the workload whose solves it dominates
KERNELS = (("sigma_min_512", _sigma_min, "ginibre-n48"),
           ("newton_step", _newton_step, "clustered-n24"),
           ("rurv", _rurv, "all workloads"))

#: field of a kernel's measurement -> unit
_UNITS = {"s": "s", "flops": "flop-computed", "bytes": "B-computed"}


def micro_metrics(reps: int = 5) -> dict[str, float]:
    """name -> value for every kernel at every size."""
    return {f"kernels.micro.{kernel}_n{n}_{field}": value
            for n in SIZES for kernel, measure, _ in KERNELS
            for field, value in measure(n, reps).items()}


def micro_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, workload it matters on) of every micro metric."""
    return [(f"kernels.micro.{kernel}_n{n}_{field}", unit, workload)
            for n in SIZES for kernel, _, workload in KERNELS
            for field, unit in _UNITS.items()]
