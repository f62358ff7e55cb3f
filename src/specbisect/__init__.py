"""Randomized spectral-bisection eigensolver for dense non-Hermitian
complex matrices, with pseudospectral shattering, an explicit-constant
matrix sign iteration, randomized rank-revealing deflation and a
Monte-Carlo lab validating the underlying random-matrix bounds."""

from .eig import (EigParams, EigResult, eig_backward, eig_forward,
                  eig_precision_requirement, eig_shattered,
                  kappa_eig_measure)
from .grids import (CertResult, Grid, ShatterCert, certify_shattered,
                    kappa_v_upper, min_gap, pseudospectrum_member)
from .kernels import UNIT_ROUNDOFF
from .randmat import (Rng, ginibre_sigma_tail, haar_corner_sigma_min_cdf,
                      sample_ginibre, sample_haar_unitary)
from .sgn import (SgnParams, SgnTrace, required_precision_sgn, sgn,
                  sgn_error_bound, sgn_iteration_count,
                  sgn_params_from_shattering)
from .shatter import (ShatterParams, gap_tail_bound, shatter,
                      smoothed_bounds)
from .split import SplitResult, eig_count_signed, split
from .deflate import RurvResult, deflate, rurv

__version__ = "0.1.0"

__all__ = [
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
]
