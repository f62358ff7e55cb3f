"""Command-line interface.

Every command writes a JSON report (stable key order) and mirrors it to
stdout. Exit codes: 0 success, 1 contract violation, 2 probabilistic
failure after retries, 3 I/O or parse error (a command-line usage error
included).
"""

from __future__ import annotations

import contextlib
import json
import sys

import click
import numpy as np

from . import calc as calcmod
from . import lab as labmod
from .eig import (EigParams, eig_backward, eig_precision_requirement,
                  eig_iteration_budget)
from .errors import (AmbiguousCountError, CertificationError, DeflationError,
                     EigFailureError, PreconditionError, SpecBisectError,
                     SplitFailureError)
from .grids import Grid, certify_shattered
from .mmio import read_matrix, write_matrix
from .randmat import Rng
from .sgn import (SgnParams, required_precision_sgn, sgn,
                  sgn_iteration_count)
from .shatter import ShatterParams, gap_tail_bound, shatter, smoothed_bounds
from .split import split as split_op

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_PROBABILISTIC = 2
EXIT_IO = 3

_PROBABILISTIC = (EigFailureError, SplitFailureError, CertificationError,
                  AmbiguousCountError, DeflationError)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _load(path: str) -> np.ndarray:
    try:
        return read_matrix(path)
    except (OSError, ValueError) as err:
        click.echo(f"error reading {path}: {err}", err=True)
        sys.exit(EXIT_IO)


def _run(body) -> None:
    try:
        body()
    except _PROBABILISTIC as err:
        click.echo(f"probabilistic failure: {err}", err=True)
        sys.exit(EXIT_PROBABILISTIC)
    except (PreconditionError, SpecBisectError, ValueError) as err:
        click.echo(f"contract violation: {err}", err=True)
        sys.exit(EXIT_CONTRACT)
    sys.exit(EXIT_OK)


def _grid_options(fn):
    for dec in (
        click.option("--z0-re", type=float, required=True),
        click.option("--z0-im", type=float, required=True),
        click.option("--omega", type=float, required=True),
        click.option("--s1", type=int, required=True),
        click.option("--s2", type=int, required=True),
    ):
        fn = dec(fn)
    return fn


@contextlib.contextmanager
def _usage_exit():
    try:
        yield
    except click.UsageError as err:
        err.exit_code = EXIT_IO
        raise


class _Cli(click.Group):
    """Group whose usage errors exit EXIT_IO instead of click's 2, which
    here means a probabilistic failure."""

    def make_context(self, *args, **kwargs):
        with _usage_exit():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_exit():
            return super().invoke(ctx)


@click.group(cls=_Cli)
def main():
    """Randomized spectral-bisection eigensolver and statistics lab."""


@main.command()
@click.option("--input", "input_path", required=True, type=str)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--theta", type=float, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=str, default=None)
def eig(input_path, delta, theta, seed, output):
    """Backward-approximate diagonalization of a matrix with norm <= 1."""
    a = _load(input_path)

    def body():
        n = a.shape[0]
        params = EigParams(delta=delta, theta=theta or 1.0 / max(n, 2))
        res = eig_backward(a, delta, params, Rng(seed))
        report = res.to_json()
        report.update({"seed": seed, "delta": delta})
        _emit(report, output)

    _run(body)


@main.command("sgn")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--eps0", type=float, required=True)
@click.option("--alpha0", type=float, required=True)
@click.option("--beta", type=float, default=1e-8, show_default=True)
@click.option("--output", type=str, default=None)
@click.option("--output-matrix", type=str, default=None,
              help="optional path for the computed sign matrix (.mtx)")
def sgn_cmd(input_path, eps0, alpha0, beta, output, output_matrix):
    """Approximate matrix sign function via Newton iteration."""
    a = _load(input_path)

    def body():
        s, trace = sgn(a, SgnParams(eps0, alpha0, beta))
        if output_matrix:
            write_matrix(output_matrix, s)
        report = trace.to_json()
        report.update({"eps0": eps0, "alpha0": alpha0, "beta": beta})
        _emit(report, output)

    _run(body)


@main.command("split")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--eps", type=float, required=True)
@click.option("--beta", type=float, required=True)
@_grid_options
@click.option("--output", type=str, default=None)
def split_cmd(input_path, eps, beta, z0_re, z0_im, omega, s1, s2, output):
    """Bisect a shattered spectrum along a balanced grid line."""
    a = _load(input_path)

    def body():
        g = Grid(complex(z0_re, z0_im), omega, s1, s2)
        res = split_op(a, eps, g, beta)
        _emit(res.to_json(), output)

    _run(body)


@main.command("shatter")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--gamma", type=float, required=True)
@click.option("--mode", type=click.Choice(["empirical", "theoretical"]),
              default="empirical", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=str, default=None)
@click.option("--output-matrix", type=str, default=None,
              help="optional path for the perturbed matrix (.mtx)")
def shatter_cmd(input_path, gamma, mode, seed, output, output_matrix):
    """Perturb and certify a shattering grid for a matrix with norm <= 1."""
    a = _load(input_path)

    def body():
        cert = shatter(a, ShatterParams(gamma=gamma, mode=mode), Rng(seed))
        if output_matrix:
            write_matrix(output_matrix, cert.matrix)
        report = cert.to_json()
        report["seed"] = seed
        _emit(report, output)

    _run(body)


@main.command("certify")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--eps", type=float, required=True)
@_grid_options
@click.option("--mesh-per-segment", type=int, default=64, show_default=True)
@click.option("--output", type=str, default=None)
def certify_cmd(input_path, eps, z0_re, z0_im, omega, s1, s2,
                mesh_per_segment, output):
    """Brute-force shattering check of a matrix against a grid."""
    a = _load(input_path)

    def body():
        g = Grid(complex(z0_re, z0_im), omega, s1, s2)
        res = certify_shattered(a, g, eps, mesh_per_segment)
        report = {
            "ok": res.ok,
            "line_margin": res.line_margin,
            "violation": res.violation,
            "eps": eps,
            "grid": g.to_json(),
        }
        _emit(report, output)
        if not res.ok:
            raise CertificationError(res.violation or "not shattered")

    _run(body)


#: the options each calc formula reads, in its report's inputs
_CALC_INPUTS = {
    "n-formula": ("alpha0", "eps0", "beta"),
    "sgn-precision": ("n", "alpha0", "eps0", "beta"),
    "eig-precision": ("n", "eps", "delta", "theta"),
    "eig-budget": ("n", "eps", "delta", "theta"),
    "prelim-n": ("t", "c"),
    "one-step-error": ("norm_a", "norm_ainv", "kappa", "n"),
    "deflate-failure": ("n", "beta", "eta"),
    "smoothed-bounds": ("n", "gamma"),
    "gap-tail": ("n", "gamma", "r"),
}


@main.command("calc")
@click.argument("formula", type=click.Choice(list(_CALC_INPUTS)))
@click.option("--alpha0", type=float)
@click.option("--eps0", type=float)
@click.option("--beta", type=float)
@click.option("--n", type=int)
@click.option("--eps", type=float)
@click.option("--delta", type=float)
@click.option("--theta", type=float)
@click.option("--t", type=float)
@click.option("--c", type=float)
@click.option("--gamma", type=float)
@click.option("--r", type=float)
@click.option("--eta", type=float)
@click.option("--kappa", type=float)
@click.option("--norm-a", type=float)
@click.option("--norm-ainv", type=float)
@click.option("--output", type=str, default=None)
def calc_cmd(formula, alpha0, eps0, beta, n, eps, delta, theta, t, c, gamma,
             r, eta, kappa, norm_a, norm_ainv, output):
    """Evaluate one closed-form bound and emit a formula report."""
    given = locals()
    missing = [name for name in _CALC_INPUTS[formula] if given[name] is None]
    if missing:
        raise click.UsageError(
            f"{formula} needs "
            + ", ".join("--" + name.replace("_", "-") for name in missing),
            ctx=click.get_current_context())
    inputs = {name: given[name] for name in _CALC_INPUTS[formula]}

    def body():
        extra = {}
        if formula == "n-formula":
            value = sgn_iteration_count(alpha0, eps0, beta)
        elif formula == "sgn-precision":
            _, value = required_precision_sgn(n, alpha0, eps0, beta)
        elif formula == "eig-precision":
            value = eig_precision_requirement(n, eps, delta, theta)
        elif formula == "eig-budget":
            value = eig_iteration_budget(n, eps, delta, theta)
        elif formula == "prelim-n":
            value = calcmod.prelim_n_bound(t, c)
        elif formula == "one-step-error":
            value = calcmod.one_step_error_bound(norm_a, norm_ainv, kappa, n)
        elif formula == "deflate-failure":
            value, extra["appendix_value"] = calcmod.deflate_failure_bound(
                n, beta, eta)
        elif formula == "smoothed-bounds":
            kv, gap, value = smoothed_bounds(n, gamma)
            extra = {"kappa_v_bound": kv, "gap_bound": gap}
        else:
            value = gap_tail_bound(n, gamma, r)
        out = calcmod.report(formula, inputs, float(value)).to_json()
        out.update(extra)
        _emit(out, output)

    _run(body)


@main.command("lab")
@click.argument("experiment", type=click.Choice(
    ["gap", "haar-sigma", "r22", "e2e"]))
@click.option("--n", type=int, required=True)
@click.option("--gamma", type=float, default=0.1, show_default=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=str, default=None)
def lab_cmd(experiment, n, gamma, r, theta, delta, trials, seed, output):
    """Run one Monte-Carlo experiment and emit its report."""

    def body():
        rng = Rng(seed)
        if experiment == "gap":
            rep = labmod.run_gap_experiment(n, gamma, trials, rng)
        elif experiment == "haar-sigma":
            rep = labmod.run_haar_sigma_experiment(n, r, trials, rng)
        elif experiment == "r22":
            rep = labmod.run_r22_experiment(n, r, theta, trials, rng)
        else:
            rep = labmod.run_e2e_experiment(n, delta, trials, rng)
        _emit(rep.to_json(), output)

    _run(body)


if __name__ == "__main__":
    main()
