import math

import numpy as np
import pytest

from conftest import random_nonnormal_matrix
from specbisect.errors import PreconditionError
from specbisect.grids import (CertResult, Grid, ShatterCert,
                              certify_shattered, kappa_v_upper, min_gap,
                              pseudospectrum_member)
from specbisect.randmat import Rng, sample_haar_unitary


UNIT8 = Grid(complex(-4, -4), 1.0, 8, 8)


def test_grid_invariants():
    assert UNIT8.diag == pytest.approx(8 * math.sqrt(2))
    with pytest.raises(ValueError):
        Grid(0, -1.0, 2, 2)
    with pytest.raises(ValueError):
        Grid(0, 1.0, 0, 2)


def test_square_index():
    assert UNIT8.square_index(complex(-3.5, -3.5)) == (0, 0)
    assert UNIT8.square_index(complex(-4, -4)) == (0, 0)  # half-open corner
    assert UNIT8.square_index(5.0) is None
    assert UNIT8.square_index(complex(-3.0, -4.0)) == (1, 0)  # boundary right/up


def test_grid_json_roundtrip():
    g2 = Grid.from_json(UNIT8.to_json())
    assert g2 == UNIT8


def test_grid_rotation_roundtrip():
    g = Grid(complex(0.5, -1.5), 0.25, 6, 3)
    assert g.rotated().rotated_back() == g
    # rotation by i, applied four times, is the identity
    assert g.rotated().rotated().rotated().rotated() == g


def test_grid_rotation_maps_region():
    g = Grid(complex(1.0, 2.0), 0.5, 4, 2)
    gr = g.rotated()
    z = complex(1.3, 2.7)  # inside g
    assert g.square_index(z) is not None
    assert gr.square_index(1j * z) is not None


def test_splits():
    g = Grid(0, 1.0, 4, 3)
    left, right = g.split_vertical(1)
    assert left == Grid(0, 1.0, 1, 3)
    assert right == Grid(1.0 + 0j, 1.0, 3, 3)
    with pytest.raises(ValueError):
        g.split_vertical(0)


def test_shatter_cert_invariant():
    with pytest.raises(ValueError):
        ShatterCert(np.eye(2, dtype=complex), UNIT8, 0.7, 0.1)
    c = ShatterCert(np.eye(2, dtype=complex), UNIT8, 0.4, 0.1)
    assert c.epsilon == 0.4


def test_pseudospectrum_member():
    a = np.zeros((1, 1), dtype=complex)
    assert pseudospectrum_member(a, 0.5, 0.0)
    assert not pseudospectrum_member(a, 0.5, 1.0)
    # nonnormality inflates the pseudospectrum
    j = np.array([[0.0, 100.0], [0.0, 0.0]], dtype=complex)
    # oracle first: sigma_min of the shifted 2x2
    s = np.linalg.svd(np.eye(2) - j, compute_uv=False)[-1]
    assert s < 0.02
    assert pseudospectrum_member(j, 0.02, 1.0)


def test_certify_normal_pass_and_fail():
    a = np.diag([0.5 + 0.5j, 1.5 + 0.5j])
    g = Grid(0, 1.0, 2, 1)
    res = certify_shattered(a, g, 0.1)
    assert res.ok and res.line_margin >= 0.1
    # eps larger than the distance to the nearest line: violation
    res2 = certify_shattered(a, g, 0.6)
    assert not res2.ok and res2.violating_point is not None
    # two eigenvalues in one square
    res3 = certify_shattered(np.diag([0.2 + 0.5j, 0.3 + 0.5j]),
                             Grid(0, 1.0, 2, 1), 0.1)
    assert not res3.ok and res3.violating_square == (0, 0)


def test_certify_monotone_in_eps():
    a = np.diag([0.5 + 0.5j, 1.5 + 0.5j])
    g = Grid(0, 1.0, 2, 1)
    assert certify_shattered(a, g, 0.4).ok
    assert certify_shattered(a, g, 0.2).ok


def test_certify_perturbation_stability():
    # certified at eps and ||E|| <= eta < eps implies certified at eps - eta
    rng = Rng(21)
    a = np.diag([0.5 + 0.5j, 1.5 + 0.5j, 0.5 + 1.5j]).astype(complex)
    g = Grid(0, 1.0, 2, 2)
    eps = 0.3
    assert certify_shattered(a, g, eps).ok
    e = rng.standard_normal((2, 3, 3))
    pert = e[0] + 1j * e[1]
    pert *= 0.1 / np.linalg.norm(pert, 2)
    assert certify_shattered(a + pert, g, eps - 0.1 - 1e-9).ok


def test_kappa_v_upper_normal():
    u = sample_haar_unitary(5, Rng(3))
    a = u @ np.diag([1, 2, 3, 4, 5]).astype(complex) @ u.conj().T
    assert kappa_v_upper(a) == pytest.approx(5.0, rel=1e-6)


def test_kappa_v_upper_triangular_closed_form():
    # A = S diag(1,2) S^-1 with S = [[1,10],[0,1]]
    s = np.array([[1.0, 10.0], [0.0, 1.0]], dtype=complex)
    a = s @ np.diag([1.0, 2.0]).astype(complex) @ np.linalg.inv(s)
    # oracle first: kappa(lambda_i) = ||v_i|| ||w_i|| = sqrt(101) for both
    kappa_each = math.sqrt(101.0)
    want = math.sqrt(2 * 2 * kappa_each**2)
    assert kappa_v_upper(a) == pytest.approx(want, rel=1e-9)
    # upper bound property vs the oracle diagonalizer
    w, v = np.linalg.eig(a)
    assert kappa_v_upper(a) >= np.linalg.cond(v, 2) * (1 - 1e-9)


def test_kappa_v_upper_bounds_any_diagonalizer(rng):
    a, _, v0 = random_nonnormal_matrix(6, rng)
    assert kappa_v_upper(a) >= np.linalg.cond(np.linalg.eig(a)[1], 2) * (1 - 1e-9)


def test_min_gap():
    assert min_gap(np.diag([0.0, 1.0, 5.0]).astype(complex)) == pytest.approx(1.0)
    assert min_gap(np.diag([2.0, 2.0]).astype(complex)) <= 1e-12
    with pytest.raises(PreconditionError):
        min_gap(np.ones((1, 1), dtype=complex))


def test_min_gap_matches_brute_force(rng):
    from specbisect.randmat import sample_ginibre
    a = sample_ginibre(8, rng)
    w = np.linalg.eigvals(a)
    want = min(abs(w[i] - w[j]) for i in range(8) for j in range(8) if i != j)
    assert min_gap(a) == pytest.approx(want)


def test_sigma2_inequality_sample(rng):
    # two eigenvalues inside D(z0, r) force sigma_{n-1}(z0 - M) <= r * kappa_V
    z0, r = 0.5 + 0.5j, 0.05
    w = np.array([z0 + 0.03, z0 - 0.02j, 2.0, -1.0 + 1j, 1.5 - 0.5j])
    e = rng.standard_normal((2, 5, 5))
    v = np.eye(5) + 0.2 * (e[0] + 1j * e[1])
    m = v @ np.diag(w) @ np.linalg.inv(v)
    svals = np.linalg.svd(z0 * np.eye(5) - m, compute_uv=False)
    assert svals[-2] <= r * kappa_v_upper(m) * (1 + 1e-9)
