"""The public surface: the exports and configuration fields are exactly the
pinned ones, every export resolves, every name the benchmark's traced run
looks up is bound, and every matrix entry point rejects bad input with the
same two exception types."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import specbisect
from specbisect import (EigParams, Grid, Rng, SgnParams, ShatterParams,
                        certify_shattered, deflate, eig_backward,
                        eig_count_signed, eig_forward, eig_shattered,
                        kappa_eig_measure, kappa_v_upper, min_gap,
                        pseudospectrum_member, rurv, sgn, shatter, split)
from specbisect.calc import kappa_sign_estimate
from specbisect.errors import DimensionError
from specbisect.kernels import sigma_min_argmin

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
