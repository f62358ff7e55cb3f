import math

import numpy as np
import pytest

from conftest import oracle_projector
from specbisect.errors import PreconditionError, SplitFailureError
from specbisect.grids import Grid
from specbisect.kernels import op_norm
from specbisect.randmat import Rng, sample_haar_unitary
from specbisect.split import eig_count_signed, split

UNIT8 = Grid(complex(-4, -4), 1.0, 8, 8)


def census(evals, h):
    right = sum(1 for z in evals if z.real > h)
    return right - (len(evals) - right)


def test_count_trivial_cases():
    g = UNIT8
    a = np.diag([-2.5 + 0.5j, 3.5 + 0.5j]).astype(complex)
    assert eig_count_signed(a, 0.0, 0.4, g, 0.02) == 0
    b = np.diag([1.5, 2.5, 3.5]).astype(complex) + 0.5j * np.eye(3)
    assert eig_count_signed(b, 0.0, 0.4, g, 0.015) == 3
    assert eig_count_signed(b, 2.0, 0.4, g, 0.015) == 1
    assert eig_count_signed(b, 3.0, 0.4, g, 0.015) == -1


def test_count_matches_oracle_census(rng):
    # random shattered-by-construction matrix: eigenvalues at square centers
    n = 8
    centers = np.array([-3.5 + 0.5j, -1.5 - 0.5j, -0.5 + 1.5j, 0.5 - 2.5j,
                        1.5 + 0.5j, 2.5 - 1.5j, 3.5 + 2.5j, -2.5 + 3.5j])
    u = sample_haar_unitary(n, rng)
    a = u @ np.diag(centers) @ u.conj().T
    for h in (-2.0, 0.0, 1.0, 3.0):
        want = census(centers, h)  # oracle first
        assert eig_count_signed(a, h, 0.4, UNIT8, 0.05 / n) == want


def test_split_two_by_two():
    a = np.diag([-2.5 - 0.5j, 3.5 + 0.5j]).astype(complex)
    res = split(a, 0.4, UNIT8, 0.02)
    assert (res.n_plus, res.n_minus) == (1, 1)
    assert res.orientation == "vertical"
    assert np.linalg.norm(res.p_plus - np.diag([0.0, 1.0]), 2) <= 0.02
    assert np.linalg.norm(res.p_minus - np.diag([1.0, 0.0]), 2) <= 0.02
    # complementarity
    assert np.linalg.norm(res.p_plus + res.p_minus - np.eye(2), 2) <= 0.05
    # subgrids partition the region around the shift line
    assert res.g_minus.x0 == UNIT8.x0
    assert res.g_plus.x0 == pytest.approx(res.shift_used)


def test_split_three_diag():
    a = np.diag([1.5, 2.5, 3.5]).astype(complex) + 0.5j * np.eye(3)
    res = split(a, 0.4, UNIT8, 0.015)
    assert res.n_plus + res.n_minus == 3
    assert min(res.n_plus, res.n_minus) >= 1
    assert res.shift_used in (2.0, 3.0)


def test_split_horizontal_fallback():
    # all eigenvalues share one column of squares: only horizontal works
    a = np.diag([0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 1.5j, 0.5 - 1.5j]).astype(complex)
    res = split(a, 0.4, UNIT8, 0.0125)
    assert res.orientation == "horizontal"
    assert res.n_plus + res.n_minus == 4
    assert min(res.n_plus, res.n_minus) >= 1
    evals = np.linalg.eigvals(a)
    # subgrids capture the two half-spectra
    in_plus = [z for z in evals if res.g_plus.square_index(complex(z)) is not None]
    in_minus = [z for z in evals if res.g_minus.square_index(complex(z)) is not None]
    assert len(in_plus) == res.n_plus
    assert len(in_minus) == res.n_minus


def test_split_nonnormal_projector_oracle(rng):
    n = 10
    centers = np.array([-2.5 + 0.5j, -2.5 - 1.5j, -1.5 + 2.5j, -0.5 - 0.5j,
                        0.5 + 1.5j, 1.5 - 2.5j, 2.5 + 0.5j, 2.5 - 0.5j,
                        -0.5 - 2.5j, 0.5 + 2.5j])
    e = rng.standard_normal((2, n, n))
    v = np.eye(n) + 0.15 * (e[0] + 1j * e[1]) / math.sqrt(2 * n)
    a = v @ np.diag(centers) @ np.linalg.inv(v)
    beta = 1e-3
    res = split(a, 0.2, UNIT8, beta)
    assert res.n_plus + res.n_minus == n
    assert min(res.n_plus, res.n_minus) >= n / 5
    h, orient = res.shift_used, res.orientation
    if orient == "vertical":
        want = oracle_projector(a, lambda z: z.real > h)  # oracle projector
    else:
        want = oracle_projector(a, lambda z: (1j * z).real > h)
    assert np.linalg.norm(res.p_plus - want, 2) <= beta
    # approximate idempotence
    assert np.linalg.norm(res.p_plus @ res.p_plus - res.p_plus, 2) <= \
        3 * beta * op_norm(res.p_plus)


def test_split_preconditions():
    a = np.diag([-2.5, 3.5]).astype(complex)
    with pytest.raises(PreconditionError):
        split(2.5 * a, 0.4, UNIT8, 0.02)  # norm > 4
    with pytest.raises(PreconditionError):
        split(a, 0.4, UNIT8, 0.5)  # beta too big


def test_split_failure_without_balanced_line():
    # both eigenvalues inside one square: shattering violated, no line works
    a = np.diag([0.2 + 0.2j, 0.3 + 0.3j]).astype(complex)
    with pytest.raises(SplitFailureError):
        split(a, 0.05, UNIT8, 0.02)
