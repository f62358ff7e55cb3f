"""The public surface: the exports and configuration fields are exactly the
pinned ones, every export resolves, every name the benchmark's traced run
looks up is bound, and every matrix entry point rejects bad input with the
same two exception types."""

import dataclasses
import importlib
import math
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specbisect
from specbisect import (EigParams, Grid, Rng, SgnParams, ShatterCert,
                        ShatterParams, certify_shattered, deflate,
                        eig_backward, eig_count_signed, eig_forward,
                        eig_shattered, gap_tail_bound, ginibre_sigma_tail,
                        kappa_eig_measure, kappa_v_upper, min_gap,
                        pseudospectrum_member, rurv, sgn, sgn_error_bound,
                        sgn_params_from_shattering, shatter, split)
from specbisect.calc import kappa_sign_estimate, one_step_error_bound
from specbisect.errors import DimensionError
from specbisect.kernels import sigma_min_argmin
from specbisect.lab import run_r22_experiment
from specbisect.sgn import (condition_bounds_from_pseudospectrum,
                            pseudospectral_step)

UNIT8 = Grid(complex(-4, -4), 1.0, 8, 8)

#: every public function taking a matrix, with valid values for the rest
ENTRY_POINTS = {
    "certify_shattered": lambda a: certify_shattered(a, UNIT8, 0.1),
    "deflate": lambda a: deflate(a, 1, 0.01, Rng(0)),
    "eig_backward": lambda a: eig_backward(
        a, 0.1, EigParams(delta=0.1, theta=0.5), Rng(0)),
    "eig_count_signed": lambda a: eig_count_signed(a, 0.0, 0.4, UNIT8, 0.02),
    "eig_forward": lambda a: eig_forward(
        a, 0.1, 2.0, EigParams(delta=0.1, theta=0.5), Rng(0)),
    "eig_shattered": lambda a: eig_shattered(
        a, 0.1, UNIT8, 0.1, 0.5, Rng(0)),
    "kappa_eig_measure": kappa_eig_measure,
    "kappa_v_upper": kappa_v_upper,
    "min_gap": min_gap,
    "pseudospectrum_member": lambda a: pseudospectrum_member(a, 0.1, 0j),
    "rurv": lambda a: rurv(a, Rng(0)),
    "sgn": lambda a: sgn(a, SgnParams(0.1, 0.9, 1e-3)),
    "shatter": lambda a: shatter(a, ShatterParams(gamma=0.1), Rng(0)),
    "split": lambda a: split(a, 0.4, UNIT8, 0.02),
    "calc.kappa_sign_estimate": kappa_sign_estimate,
    "kernels.sigma_min_argmin": lambda a: sigma_min_argmin([0j], a),
}

BAD_INPUTS = {
    "nan": (np.array([[np.nan, 0.0], [0.0, 0.5]]), ValueError),
    "inf": (np.array([[0.5, 0.0], [0.0, complex(0.0, np.inf)]]), ValueError),
    "1-d": (np.full(3, 0.1), DimensionError),
    "2x3": (np.full((2, 3), 0.1), DimensionError),
}


def _bench_sites():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return ([(m, a) for m, a, *_ in spans.SITES]
            + [(m, a) for m, a, _ in spans.COUNT_SITES])


#: the public names of the package
EXPORTS = {
    "CertResult", "EigParams", "EigResult", "Grid", "Rng", "RurvResult",
    "SgnParams", "SgnTrace", "ShatterCert", "ShatterParams", "SplitResult",
    "UNIT_ROUNDOFF", "certify_shattered", "deflate", "eig_backward",
    "eig_count_signed", "eig_forward", "eig_precision_requirement",
    "eig_shattered", "gap_tail_bound", "ginibre_sigma_tail",
    "haar_corner_sigma_min_cdf", "kappa_eig_measure", "kappa_v_upper",
    "min_gap", "pseudospectrum_member", "required_precision_sgn", "rurv",
    "sample_ginibre", "sample_haar_unitary", "sgn", "sgn_error_bound",
    "sgn_iteration_count", "sgn_params_from_shattering", "shatter",
    "smoothed_bounds", "split",
}

#: the fields of each configuration object, in order
CONFIG_FIELDS = {
    EigParams: ("delta", "theta"),
    SgnParams: ("eps0", "alpha0", "beta"),
    ShatterParams: ("gamma", "mode"),
}


def test_exports_are_pinned():
    assert sorted(specbisect.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("cls", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_are_pinned(cls):
    assert (tuple(f.name for f in dataclasses.fields(cls))
            == CONFIG_FIELDS[cls])


def test_every_export_resolves():
    for name in specbisect.__all__:
        assert getattr(specbisect, name) is not None, name


@pytest.mark.parametrize("site", _bench_sites(), ids="{0[0]}.{0[1]}".format)
def test_benchmark_trace_sites_resolve(site):
    module, name = site
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("kind", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_bad_matrix(entry, kind):
    a, error = BAD_INPUTS[kind]
    with pytest.raises(error) as exc:
        ENTRY_POINTS[entry](a)
    if error is ValueError:
        assert not isinstance(exc.value, DimensionError)


_GRID4 = Grid(complex(-1, -1), 0.5, 4, 4)

#: every public scalar range check, as (function of the checked value, a
#: finite value outside its range)
RANGE_CHECKS = {
    "certify_shattered.eps": (lambda x: certify_shattered(
        np.diag([0.5, -0.5]), _GRID4, x), -1.0),
    "ShatterCert.epsilon": (lambda x: ShatterCert(
        np.eye(2), _GRID4, x, 0.1), -1.0),
    "Grid.omega": (lambda x: Grid(0j, x, 4, 4), -1.0),
    "pseudospectrum_member.eps": (lambda x: pseudospectrum_member(
        np.eye(2), x, 0j), -1.0),
    "gap_tail_bound.gamma": (lambda x: gap_tail_bound(4, x, 0.01), -1.0),
    "gap_tail_bound.r": (lambda x: gap_tail_bound(4, 0.1, x), -1.0),
    "sgn_error_bound.eps_n": (lambda x: sgn_error_bound(0.5, x), -1.0),
    "pseudospectral_step.alpha_next": (
        lambda x: pseudospectral_step(0.5, x, 0.1), 0.0),
    "pseudospectral_step.eps": (
        lambda x: pseudospectral_step(0.5, 0.5, x), -1.0),
    "condition_bounds_from_pseudospectrum.eps": (
        lambda x: condition_bounds_from_pseudospectrum(0.5, x), -1.0),
    "ginibre_sigma_tail.alpha": (lambda x: ginibre_sigma_tail(4, 2, x), -1.0),
    "sgn_params_from_shattering.eps": (
        lambda x: sgn_params_from_shattering(x, 2.0), -1.0),
    "sgn_params_from_shattering.grid_diag": (
        lambda x: sgn_params_from_shattering(0.1, x), -1.0),
    "one_step_error_bound.norm_a": (
        lambda x: one_step_error_bound(x, 1.0, 1.0, 4), -1.0),
    "one_step_error_bound.norm_ainv": (
        lambda x: one_step_error_bound(1.0, x, 1.0, 4), -1.0),
    "one_step_error_bound.kappa": (
        lambda x: one_step_error_bound(1.0, 1.0, x, 4), -1.0),
    "run_r22_experiment.theta": (
        lambda x: run_r22_experiment(4, 2, x, 1, Rng(0)), 2.0),
    "split.beta": (lambda x: split(
        np.diag([-0.5 - 0.5j, 0.5 + 0.5j]), 0.4, UNIT8, x), 1.0),
    "eig_forward.kappa_eig_bound": (lambda x: eig_forward(
        0.5 * np.eye(2), 0.1, x, EigParams(delta=0.1, theta=0.5), Rng(0)),
        0.5),
}


@pytest.mark.parametrize("check", RANGE_CHECKS)
def test_range_checks_reject_nan(check):
    """NaN fails every range check the way an out-of-range value does:
    same exception type, same message."""
    call, bad = RANGE_CHECKS[check]
    with pytest.raises(Exception) as expected:
        call(bad)
    with pytest.raises(Exception) as got:
        call(math.nan)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_grid_rejects_infinite_omega():
    with pytest.raises(ValueError, match="positive and finite"):
        Grid(0j, math.inf, 4, 4)


def test_solver_runs_without_scipy_linalg():
    # a fresh process: pytest's filterwarnings setting imports scipy.linalg
    # into this one
    code = (
        "import sys\n"
        "import specbisect as sb\n"
        "a = sb.sample_ginibre(16, sb.Rng(1))\n"
        "a = a / sb.kernels.op_norm(a)\n"
        "p = sb.EigParams(0.05, 1 / 16)\n"
        "assert sb.eig_backward(a, 0.05, p, sb.Rng(2)).residual <= 0.05\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('scipy.linalg')))\n")
    src = str(Path(specbisect.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
