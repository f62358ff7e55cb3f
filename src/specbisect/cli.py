"""Command-line interface.

Every command writes a JSON report (stable key order) and mirrors it to
stdout. Exit codes: 0 success, 1 contract violation (certify's failed
check included: it is deterministic), 2 probabilistic failure (eig's
after its retries, shatter's on its one draw), 3 I/O or parse error (a
failed write of a report or matrix and a command-line usage error
included).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys

import click
import numpy as np

from . import calc as calcmod
from . import lab as labmod
from .eig import (EigParams, eig_backward, eig_precision_requirement,
                  eig_iteration_budget)
from .errors import PROBABILISTIC, PreconditionError, SpecBisectError
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


@contextlib.contextmanager
def _io_exit(action: str, path: str, errors=(OSError,)):
    """Exit EXIT_IO with one line naming path when the body raises one of
    errors."""
    try:
        yield
    except errors as err:
        click.echo(f"error {action} {path}: {err}", err=True)
        sys.exit(EXIT_IO)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if output:
        with _io_exit("writing", output), open(output, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _load(path: str) -> np.ndarray:
    with _io_exit("reading", path, (OSError, ValueError)):
        return read_matrix(path)


def _save(path: str, a: np.ndarray) -> None:
    with _io_exit("writing", path):
        write_matrix(path, a)


def _run(body) -> None:
    try:
        body()
    except PROBABILISTIC as err:
        click.echo(f"probabilistic failure: {err}", err=True)
        sys.exit(EXIT_PROBABILISTIC)
    except (PreconditionError, SpecBisectError, ValueError) as err:
        click.echo(f"contract violation: {err}", err=True)
        sys.exit(EXIT_CONTRACT)
    sys.exit(EXIT_OK)


def _reports(command):
    """Make command, a function from a command's options to its report,
    the command's body: the report goes to stdout and --output, and an
    error raised on the way maps to its exit code as in _run."""
    @functools.wraps(command)
    def body(output, **options):
        _run(lambda: _emit(command(**options), output))
    return body


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
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--output", type=str, default=None)
@_reports
def eig(input_path, delta, theta, seed):
    """Backward-approximate diagonalization of a matrix with norm <= 1."""
    a = _load(input_path)
    if theta is None:
        theta = 1.0 / max(a.shape[0], 2)
    res = eig_backward(a, delta, EigParams(delta=delta, theta=theta),
                       Rng(seed))
    return {**res.to_json(), "seed": seed, "delta": delta}


@main.command("sgn")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--eps0", type=float, required=True)
@click.option("--alpha0", type=float, required=True)
@click.option("--beta", type=float, default=1e-8, show_default=True)
@click.option("--output", type=str, default=None)
@click.option("--output-matrix", type=str, default=None,
              help="optional path for the computed sign matrix (.mtx)")
@_reports
def sgn_cmd(input_path, eps0, alpha0, beta, output_matrix):
    """Approximate matrix sign function via Newton iteration."""
    s, trace = sgn(_load(input_path), SgnParams(eps0, alpha0, beta))
    if output_matrix:
        _save(output_matrix, s)
    return {**trace.to_json(), "eps0": eps0, "alpha0": alpha0, "beta": beta}


@main.command("split")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--eps", type=float, required=True)
@click.option("--beta", type=float, required=True)
@_grid_options
@click.option("--output", type=str, default=None)
@_reports
def split_cmd(input_path, eps, beta, z0_re, z0_im, omega, s1, s2):
    """Bisect a shattered spectrum along a balanced grid line."""
    a = _load(input_path)
    g = Grid(complex(z0_re, z0_im), omega, s1, s2)
    return split_op(a, eps, g, beta).to_json()


@main.command("shatter")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--gamma", type=float, required=True)
@click.option("--mode", type=click.Choice(["empirical", "theoretical"]),
              default="empirical", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--output", type=str, default=None)
@click.option("--output-matrix", type=str, default=None,
              help="optional path for the perturbed matrix (.mtx)")
@_reports
def shatter_cmd(input_path, gamma, mode, seed, output_matrix):
    """Perturb and certify a shattering grid for a matrix with norm <= 1.

    Makes one draw. Exit 2 means that draw failed to certify: rerun with
    another --seed."""
    a = _load(input_path)
    cert = shatter(a, ShatterParams(gamma=gamma, mode=mode), Rng(seed))
    if output_matrix:
        _save(output_matrix, cert.matrix)
    return {**cert.to_json(), "seed": seed}


@main.command("certify")
@click.option("--input", "input_path", required=True, type=str)
@click.option("--eps", type=float, required=True)
@_grid_options
@click.option("--mesh-per-segment", type=int, default=64, show_default=True)
@click.option("--output", type=str, default=None)
def certify_cmd(input_path, eps, z0_re, z0_im, omega, s1, s2,
                mesh_per_segment, output):
    """Brute-force shattering check of a matrix against a grid.

    Prints the report, then exits 1 when the check fails: it draws no
    randomness, so a rerun fails the same way."""
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
            raise PreconditionError(f"not shattered: {res.violation}")

    _run(body)


def _value(calculator):
    """A calc formula whose report adds nothing to the calculator's value."""
    return lambda **inputs: (calculator(**inputs), {})


def _deflate_failure(n, beta, eta):
    box, appendix = calcmod.deflate_failure_bound(n, beta, eta)
    return box, {"appendix_value": appendix}


def _smoothed_bounds(n, gamma):
    kv, gap, fail = smoothed_bounds(n, gamma)
    return fail, {"kappa_v_bound": kv, "gap_bound": gap}


#: each calc formula: the options it reads, in its report's inputs, and a
#: function of them returning (value, extra report fields)
_CALC = {
    "n-formula": (("alpha0", "eps0", "beta"), _value(sgn_iteration_count)),
    "sgn-precision": (("n", "alpha0", "eps0", "beta"),
                      lambda **kw: (required_precision_sgn(**kw)[1], {})),
    "eig-precision": (("n", "eps", "delta", "theta"),
                      _value(eig_precision_requirement)),
    "eig-budget": (("n", "eps", "delta", "theta"),
                   _value(eig_iteration_budget)),
    "prelim-n": (("t", "c"), _value(calcmod.prelim_n_bound)),
    "one-step-error": (("norm_a", "norm_ainv", "kappa", "n"),
                       _value(calcmod.one_step_error_bound)),
    "deflate-failure": (("n", "beta", "eta"), _deflate_failure),
    "smoothed-bounds": (("n", "gamma"), _smoothed_bounds),
    "gap-tail": (("n", "gamma", "r"), _value(gap_tail_bound)),
}


@main.command("calc")
@click.argument("formula", type=click.Choice(list(_CALC)))
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
@_reports
def calc_cmd(formula, **options):
    """Evaluate one closed-form bound and emit a formula report."""
    names, evaluate = _CALC[formula]
    missing = [name for name in names if options[name] is None]
    if missing:
        raise click.UsageError(
            f"{formula} needs "
            + ", ".join("--" + name.replace("_", "-") for name in missing),
            ctx=click.get_current_context())
    inputs = {name: options[name] for name in names}
    value, extra = evaluate(**inputs)
    return {**calcmod.report(formula, inputs, float(value)).to_json(), **extra}


#: each lab experiment: the options it passes, before trials and the
#: seeded stream, and its runner
_LAB = {
    "gap": (("n", "gamma"), labmod.run_gap_experiment),
    "haar-sigma": (("n", "r"), labmod.run_haar_sigma_experiment),
    "r22": (("n", "r", "theta"), labmod.run_r22_experiment),
    "e2e": (("n", "delta"), labmod.run_e2e_experiment),
}


@main.command("lab")
@click.argument("experiment", type=click.Choice(list(_LAB)))
@click.option("--n", type=int, required=True)
@click.option("--gamma", type=float, default=0.1, show_default=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--output", type=str, default=None)
@_reports
def lab_cmd(experiment, trials, seed, **options):
    """Run one Monte-Carlo experiment and emit its report."""
    names, run = _LAB[experiment]
    return run(*(options[name] for name in names), trials, Rng(seed)).to_json()


if __name__ == "__main__":
    main()
