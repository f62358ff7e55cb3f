"""Closed-loop driver of ``eig_backward``: one client, one process.

Solves run back to back over a fixed input set made from the seed, for a
fixed number of seconds; the next solve starts only when the previous one
has returned. Every returned result is checked against the paper's backward
contract by this file's own arithmetic, not by the solver's report.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from specbisect import EigParams, eig_backward
from specbisect.errors import SpecBisectError

import layers
import micro
from spans import Tracer
from workloads import DELTA, WORKLOADS, Workload, solver_rng

#: end-to-end metrics of an untraced run: name -> unit
END_TO_END = {
    "solve_s_p50": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "contract_ok_rate": "ratio",
}

#: printed with the end-to-end metrics but kept out of the result object:
#: it reads 0 whenever nothing fails, and a bound relative to 0 is void; the
#: result's "failed" count carries the same failures
PRINTED_ONLY = {"error_rate": "ratio"}

#: setups per run, the run's own and fresh processes; setup_s is their median
SETUP_SAMPLES = 5

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    seconds: float       # wall time of the solve
    result: object       # EigResult, or None when the solve raised
    error: str | None    # name of the SpecBisectError raised, if any
    ok: bool = False     # result present and meeting the contract


def contract_holds(a: np.ndarray, res, delta: float) -> bool:
    """n finite eigenvalues, ||A - V D V^-1|| <= delta, kappa(V) <= 32 n^2.5/delta."""
    n = a.shape[0]
    v, d = np.asarray(res.v), np.asarray(res.d)
    if v.shape != (n, n) or d.shape != (n,):
        return False
    if not (np.isfinite(v).all() and np.isfinite(d).all()):
        return False
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return False
    residual = np.linalg.norm(a - (v * d) @ vinv, 2)
    kappa = np.linalg.norm(v, 2) * np.linalg.norm(vinv, 2)
    return bool(residual <= delta and kappa <= 32.0 * n**2.5 / delta)


def solve_one(a: np.ndarray, rng, solve=eig_backward):
    n = a.shape[0]
    return solve(a, DELTA, EigParams(delta=DELTA, theta=1.0 / n), rng)


def closed_loop(matrices, seed: int, seconds: float, solve=eig_backward,
                tracer: Tracer | None = None
                ) -> tuple[list[Outcome], float]:
    """Solve the inputs in order, cycling, until ``seconds`` have passed.

    At least one solve runs. Returns the outcomes, checked, and the wall
    seconds the loop took. With a tracer, solve i records its spans under
    id i.
    """
    outcomes = []
    t0 = time.perf_counter()
    while True:
        i = len(outcomes)
        index = i % len(matrices)
        if tracer is not None:
            tracer.solve = i
        start = time.perf_counter()
        try:
            res = solve_one(matrices[index], solver_rng(seed, index), solve)
            err = None
        except SpecBisectError as e:
            res, err = None, type(e).__name__
        outcomes.append(Outcome(time.perf_counter() - start, res, err))
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.solve = None
    for i, o in enumerate(outcomes):
        if o.result is not None:
            o.ok = contract_holds(matrices[i % len(matrices)], o.result, DELTA)
            o.result = None
    return outcomes, wall


def loop_metrics(outcomes: list[Outcome], wall: float) -> dict[str, float]:
    attempted = len(outcomes)
    completed = sum(o.error is None for o in outcomes)
    return {
        "solve_s_p50": statistics.median(o.seconds for o in outcomes),
        "solves_per_s": completed / wall,
        "contract_ok_rate": sum(o.ok for o in outcomes) / attempted,
        "error_rate": (attempted - completed) / attempted,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(t0: float, workload: Workload, seed: int) -> float:
    """Seconds from t0 through the untimed first solve, which runs on a
    small input of the workload's family."""
    solve_one(*workload.warmup_input(seed))
    return time.perf_counter() - t0


def _blas() -> dict:
    """OpenBLAS builds numpy and scipy load, with their live thread counts."""
    out = {"numpy_build": np.show_config(mode="dicts")
           ["Build Dependencies"]["blas"].get("version")}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / (
            pkg.__name__ + ".libs")
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = {"threads": fn()}
                    break
    return out


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _child_setup(run_py: str, workload: str, seed: int) -> float:
    """measure_setup in a fresh process (it inherits the BLAS settings)."""
    done = subprocess.run(
        [sys.executable, run_py, "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _tail_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return f"no tail percentile below 20 solves (max {max(times):.4f} s)"
    q = int(100 * (1 - 10 / n))
    return f"p{q} {statistics.quantiles(times, n=100)[q - 1]:.4f} s"


def _write_spans(tracer: Tracer, workload: str, seed: int, env: dict,
                 metrics: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.json.gz"
    doc = {"workload": workload, "seed": seed, "environment": env,
           "metrics": metrics,
           "columns": ["name", "start", "end", "parent", "solve", "error",
                       "info"],
           "spans": [s.to_row() for s in tracer.spans],
           "counts": [[name, solve, v]
                      for (name, solve), v in tracer.counts.items()]}
    with gzip.open(path, "wt") as f:
        json.dump(doc, f)
    return path


def traced_run(workload: Workload, seed: int, seconds: float
               ) -> tuple[dict, list[Outcome], Tracer]:
    """Half the time untraced, half traced on the same inputs, then kernels.

    Returns the per-layer metrics, every outcome and the tracer.
    """
    matrices = workload.matrices(seed)
    plain, plain_wall = closed_loop(matrices, seed, seconds / 2)
    tracer = Tracer()
    with tracer:
        solve = tracer.wrap("solve", eig_backward)
        traced, traced_wall = closed_loop(matrices, seed, seconds / 2,
                                          solve, tracer)
    metrics = layers.layer_metrics(tracer, list(range(len(traced))))
    metrics["trace.overhead_solves_per_s"] = (
        loop_metrics(traced, traced_wall)["solves_per_s"]
        - loop_metrics(plain, plain_wall)["solves_per_s"])
    metrics.update(micro.micro_metrics())
    return metrics, plain + traced, tracer


def _result(outcomes: list[Outcome], metrics: dict, units: dict) -> dict:
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    return {"correct": attempted >= 1 and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv: list[str], t0: float, run_py: str) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's setup seconds and exit")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    own_setup = measure_setup(t0, workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0

    env = environment()
    print("environment", json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}"
          f" trace {args.trace}")
    if args.trace:
        metrics, outcomes, tracer = traced_run(workload, args.seed,
                                               args.seconds)
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
        path = _write_spans(tracer, args.workload, args.seed, env, metrics)
        print(f"{len(tracer.spans)} spans written to {path}")
    else:
        outcomes, wall = closed_loop(workload.matrices(args.seed), args.seed,
                                     args.seconds)
        metrics = loop_metrics(outcomes, wall)
        setups = [own_setup] + [
            _child_setup(run_py, args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
        times = [o.seconds for o in outcomes]
        print(f"solves {len(times)}, {_tail_percentile(times)}, setups "
              + " ".join(f"{s:.4f}" for s in setups))
        for name, unit in PRINTED_ONLY.items():
            print(f"{name:<34} {metrics[name]:>14.6g} {unit}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps(_result(outcomes, metrics, units)))
    return 0
