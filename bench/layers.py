"""Per-layer metrics of a traced run, and what each one should move.

Every value is a mean per traced solve unless its unit says otherwise.
``LAYER_METRICS`` is the record later performance changes cite: for each
metric, the end-to-end metric and the workload a change to that layer
should move.
"""

from __future__ import annotations

import statistics

from specbisect import sgn_iteration_count

from micro import micro_metric_names
from spans import Span, Tracer, self_times

_CERT = ("solve_s_p50 and solves_per_s",
         "ginibre-n48; little on clustered-n24")
_SIGN = ("solve_s_p50", "clustered-n24")
_DEFL = ("contract_ok_rate and error_rate", "all workloads")

#: name -> (unit, better, end-to-end metric it should move, workload)
LAYER_METRICS = {
    # certification: shatter, kernels, grids
    "shatter.s": ("s/solve", "lower", *_CERT),
    "shatter.margin_s": ("s/solve", "lower", *_CERT),
    "shatter.shifts": ("count/solve", "lower", *_CERT),
    "kernels.sigma_min_batch.calls": ("count/solve", "lower", *_CERT),
    "kernels.sigma_min_batch.s": ("s/solve", "lower", *_CERT),
    "kernels.sigma_min_batch.bytes": ("B/solve-computed", "lower",
                                      "peak_rss_mb", "ginibre-n48"),
    "shatter.attempts": ("count/solve", "lower", "solves_per_s",
                         "clustered-n24"),
    "grids.kappa_v_upper.s": ("s/solve", "lower", "solve_s_p50",
                              "ginibre-n48"),
    # sign iteration and census: sgn, split, kernels
    "sgn.calls": ("count/solve", "lower", *_SIGN),
    "sgn.s": ("s/solve", "lower", *_SIGN),
    "sgn.self_s": ("s/solve", "lower", *_SIGN),
    "sgn.steps": ("count/solve", "lower", *_SIGN),
    "sgn.steps_per_call": ("steps/call", "lower", *_SIGN),
    "sgn.budget_per_call": ("steps/call", "lower", *_SIGN),
    "sgn.diag_s": ("s/solve", "lower", *_SIGN),
    "kernels.mat_inv.calls": ("count/solve", "lower", *_SIGN),
    "kernels.mat_inv.s": ("s/solve", "lower", *_SIGN),
    "kernels.lu_pivot_extremes.calls": ("count/solve", "lower", *_SIGN),
    "kernels.lu_pivot_extremes.s": ("s/solve", "lower", *_SIGN),
    "kernels.op_norm.calls": ("count/solve", "lower", *_SIGN),
    "kernels.op_norm.s": ("s/solve", "lower", *_SIGN),
    "split.calls": ("count/solve", "lower", "solve_s_p50", "clustered-n24"),
    "split.s": ("s/solve", "lower", "solve_s_p50", "clustered-n24"),
    "split.probes_per_split": ("probes/split", "lower", "solve_s_p50",
                               "clustered-n24"),
    "split.horizontal": ("count/solve", "lower", "solve_s_p50",
                         "clustered-n24"),
    "kernels.as_cmatrix.calls": ("count/solve", "lower", "solve_s_p50",
                                 "clustered-n24"),
    # deflation and recursion: deflate, eig, randmat
    "deflate.calls": ("count/solve", "lower", *_DEFL),
    "deflate.s": ("s/solve", "lower", *_DEFL),
    "deflate.retries": ("count/solve", "lower", *_DEFL),
    "deflate.rurv.s": ("s/solve", "lower", *_DEFL),
    "eig.nodes": ("count/solve", "lower", "solve_s_p50", "ginibre-n48"),
    "eig.self_s": ("s/solve", "lower", "solve_s_p50", "ginibre-n48"),
    "eig.depth_max": ("levels", "lower", "solve_s_p50", "ginibre-n48"),
    "randmat.s": ("s/solve", "lower", "setup_s and solve_s_p50",
                  "clustered-n24"),
    # the base of every per-solve mean, and what tracing costs
    "trace.solves": ("count", "higher", "-", "all workloads"),
    "trace.solve_s": ("s/solve", "lower", "solve_s_p50", "all workloads"),
    "trace.overhead_solves_per_s": ("1/s", "higher", "-", "all workloads"),
}
for _name, _unit, _workload in micro_metric_names():
    LAYER_METRICS[_name] = (_unit, "lower",
                            "solve_s_p50" if _unit == "s" else "-", _workload)


def _depth(spans: list[Span], i: int) -> int:
    """eig_shattered ancestors of span i, itself included."""
    levels = 0
    while i is not None:
        if spans[i].name == "eig_shattered":
            levels += 1
        i = spans[i].parent
    return levels


def layer_metrics(tracer: Tracer, solves: list[int]) -> dict[str, float]:
    """Per-layer values over the traced solves with the given ids."""
    ids = set(solves)
    spans = tracer.spans
    selves = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_secs: dict[str, float] = {}
    shifts = bytes_ = steps = horizontal = retries = diag = probes = 0.0
    budgets = []
    depth_per_solve: dict[int, int] = {}
    for i, span in enumerate(spans):
        if span.solve not in ids:
            continue
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + span.duration
        self_secs[name] = self_secs.get(name, 0.0) + selves[i]
        parent = spans[span.parent].name if span.parent is not None else None
        if name == "kernels.sigma_min_batch" and span.info:
            shifts += span.info["shifts"]
            bytes_ += span.info["shifts"] * span.info["n"] ** 2 * 16
        elif name == "sgn" and span.info:
            steps += span.info["steps"]
            alpha0, eps0, beta = span.info["params"]
            budgets.append(sgn_iteration_count(alpha0, eps0, beta))
            if parent == "split":
                probes += 1
        elif name == "split" and span.info:
            horizontal += span.info["orientation"] == "horizontal"
        elif name == "deflate" and span.error == "DeflationError":
            retries += 1
        elif name == "eig_shattered":
            depth = _depth(spans, i) - 1
            depth_per_solve[span.solve] = max(
                depth_per_solve.get(span.solve, 0), depth)
        if parent == "sgn" and name in ("kernels.op_norm",
                                        "sgn.op_norm_inv_safe"):
            diag += span.duration

    k = len(ids)
    c = lambda name: calls.get(name, 0) / k  # noqa: E731
    s = lambda name: secs.get(name, 0.0) / k  # noqa: E731
    as_cmatrix = sum(v for (name, solve), v in tracer.counts.items()
                     if solve in ids and name == "kernels.as_cmatrix")
    sgn_calls = calls.get("sgn", 0)
    split_calls = calls.get("split", 0)
    return {
        "shatter.s": s("shatter"),
        "shatter.margin_s": s("shatter.margin"),
        "shatter.shifts": shifts / k,
        "kernels.sigma_min_batch.calls": c("kernels.sigma_min_batch"),
        "kernels.sigma_min_batch.s": s("kernels.sigma_min_batch"),
        "kernels.sigma_min_batch.bytes": bytes_ / k,
        "shatter.attempts": c("shatter.attempt"),
        "grids.kappa_v_upper.s": s("grids.kappa_v_upper"),
        "sgn.calls": c("sgn"),
        "sgn.s": s("sgn"),
        "sgn.self_s": self_secs.get("sgn", 0.0) / k,
        "sgn.steps": steps / k,
        "sgn.steps_per_call": steps / sgn_calls if sgn_calls else 0.0,
        "sgn.budget_per_call": statistics.fmean(budgets) if budgets else 0.0,
        "sgn.diag_s": diag / k,
        "kernels.mat_inv.calls": c("kernels.mat_inv"),
        "kernels.mat_inv.s": s("kernels.mat_inv"),
        "kernels.lu_pivot_extremes.calls": c("kernels.lu_pivot_extremes"),
        "kernels.lu_pivot_extremes.s": s("kernels.lu_pivot_extremes"),
        "kernels.op_norm.calls": c("kernels.op_norm"),
        "kernels.op_norm.s": s("kernels.op_norm"),
        "split.calls": c("split"),
        "split.s": s("split"),
        "split.probes_per_split": probes / split_calls if split_calls else 0.0,
        "split.horizontal": horizontal / k,
        "kernels.as_cmatrix.calls": as_cmatrix / k,
        "deflate.calls": c("deflate"),
        "deflate.s": s("deflate"),
        "deflate.retries": retries / k,
        "deflate.rurv.s": s("deflate.rurv"),
        "eig.nodes": c("eig_shattered"),
        "eig.self_s": self_secs.get("eig_shattered", 0.0) / k,
        "eig.depth_max": statistics.fmean(
            depth_per_solve.get(i, 0) for i in ids),
        "randmat.s": s("randmat.sample_ginibre"),
        "trace.solves": float(k),
        "trace.solve_s": s("solve"),
    }
