import copy
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_projector
from specbisect.errors import PreconditionError, SplitFailureError
from specbisect.grids import Grid
from specbisect.kernels import fro_norm, op_norm
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
    # the medians share the column 2 < Re z < 3: its edges tie at census +1
    # and -1, and the left one is kept
    assert res.shift_used == 2.0


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


def test_rotated_matrix_only_for_horizontal_lines(monkeypatch):
    # the matrices split hands to _signed_sign_trace, in call order
    split_module = importlib.import_module("specbisect.split")
    original, mats = split_module._signed_sign_trace, []
    monkeypatch.setattr(split_module, "_signed_sign_trace",
                        lambda m, *args: mats.append(m) or original(m, *args))
    a = np.diag([1.5 + 0.5j, 2.5 - 0.5j, -1.5 + 0.5j]).astype(complex)
    # the horizontal fallback's input: every vertical line fails
    b = np.diag([0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 1.5j, 0.5 - 1.5j]).astype(complex)
    for evals in (None, np.diag(a)):
        mats.clear()
        assert split(a, 0.4, UNIT8, 0.015,
                     eigenvalues=evals).orientation == "vertical"
        assert len(mats) == 1 and mats[0] is a
    for evals in (None, np.diag(b)):
        mats.clear()
        assert split(b, 0.4, UNIT8, 0.0125,
                     eigenvalues=evals).orientation == "horizontal"
        # one sign iteration, on the rotated matrix built for it
        assert len(mats) == 1 and mats[0] is not b
        assert np.array_equal(mats[0], 1j * b)


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


def test_split_norm_check_falls_through_to_svd(monkeypatch):
    # ||A||_2 = 4 < ||A||_F: the Frobenius bound cannot clear the check
    split_module = importlib.import_module("specbisect.split")
    original, svds = split_module.op_norm, []
    monkeypatch.setattr(split_module, "op_norm",
                        lambda x: svds.append(x) or original(x))
    g = Grid(complex(-3.75, -3.75), 1.0, 8, 8)
    a = np.diag([4.0, 3.0, 0.5]).astype(complex)
    assert fro_norm(a) > 4.0
    res = split(a, 0.2, g, 0.015)
    assert res.n_plus + res.n_minus == 3 and len(svds) == 1
    with pytest.raises(PreconditionError, match=r"\|\|A\|\| <= 4"):
        split(np.diag([4.01, 3.0, 0.5]).astype(complex), 0.2, g, 0.015)
    svds.clear()
    # ||B||_F <= 4 settles it without an SVD
    split(np.diag([2.5, 1.5, 0.5]).astype(complex), 0.2, g, 0.015)
    assert svds == []


def test_split_failure_without_balanced_line():
    # both eigenvalues inside one square: shattering violated, no line works
    a = np.diag([0.2 + 0.2j, 0.3 + 0.3j]).astype(complex)
    with pytest.raises(SplitFailureError):
        split(a, 0.05, UNIT8, 0.02)


def _nonnormal_ten():
    centers = np.array([-2.5 + 0.5j, -2.5 - 1.5j, -1.5 + 2.5j, -0.5 - 0.5j,
                        0.5 + 1.5j, 1.5 - 2.5j, 2.5 + 0.5j, 2.5 - 0.5j,
                        -0.5 - 2.5j, 0.5 + 2.5j])
    e = Rng(12345).standard_normal((2, 10, 10))
    v = np.eye(10) + 0.15 * (e[0] + 1j * e[1]) / math.sqrt(20)
    return v @ np.diag(centers) @ np.linalg.inv(v), centers, 0.2, 1e-3


def _haar_eight():
    # the centres of test_count_matches_oracle_census, with the two outside
    # the disc |z| <= 4 that split requires moved in by one square
    centers = np.array([-3.5 + 0.5j, -1.5 - 0.5j, -0.5 + 1.5j, 0.5 - 2.5j,
                        1.5 + 0.5j, 2.5 - 1.5j, 2.5 + 2.5j, -2.5 + 2.5j])
    u = sample_haar_unitary(8, Rng(12345))
    return u @ np.diag(centers) @ u.conj().T, centers, 0.4, 0.05 / 8


def _diag(evals, eps, beta):
    evals = np.array(evals, dtype=complex)
    return lambda: (np.diag(evals), evals, eps, beta)


#: the matrices of the tests above with their eigenvalues, eps and beta
GUIDED_CASES = {
    "two-by-two": _diag([-2.5 - 0.5j, 3.5 + 0.5j], 0.4, 0.02),
    "three-diag": _diag([1.5 + 0.5j, 2.5 + 0.5j, 3.5 + 0.5j], 0.4, 0.015),
    "horizontal": _diag([0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 1.5j, 0.5 - 1.5j],
                        0.4, 0.0125),
    "haar-eight": _haar_eight,
    "nonnormal-ten": _nonnormal_ten,
}


def _assert_same_split(got, want):
    assert np.array_equal(got.p_plus, want.p_plus)
    assert np.array_equal(got.p_minus, want.p_minus)
    assert (got.shift_used, got.orientation, got.n_plus, got.n_minus,
            got.g_plus, got.g_minus) == \
        (want.shift_used, want.orientation, want.n_plus, want.n_minus,
         want.g_plus, want.g_minus)


def _oracle_lines(evals):
    """(orientation, {shift: census}) of the lines split may keep for the
    predicted eigenvalues evals, or None when no line of UNIT8 balances.

    Brute force: the census is predicted at every interior line of both
    orientations, and the first orientation whose smallest |census| meets
    split's threshold is kept. Its lines of smallest |census| qualify; when
    the lower and upper medians lie in different columns, only the middle
    line of that run of equal lines does.
    """
    m = len(evals)
    threshold = math.floor(3 * m / 5) if m > 5 else m - 2
    for orientation, grid, side in (("vertical", UNIT8, evals.real),
                                    ("horizontal", UNIT8.rotated(),
                                     -evals.imag)):
        shifts = [grid.x0 + k * grid.omega for k in range(1, grid.s1)]
        counts = [census(side, h) for h in shifts]
        best = min(abs(c) for c in counts)
        if best > threshold:
            continue
        run = [k for k, c in enumerate(counts) if abs(c) == best]
        lo, hi = np.sort(side)[[(m - 1) // 2, m // 2]]
        if math.floor((lo - grid.x0) / grid.omega) != \
                math.floor((hi - grid.x0) / grid.omega):
            run = [run[(len(run) - 1) // 2]]
        return orientation, {shifts[k]: counts[k] for k in run}
    return None


def _measured(a, orientation, h, beta, eps=0.4):
    if orientation == "vertical":
        return eig_count_signed(a, h, eps, UNIT8, beta)
    return eig_count_signed(1j * a, h, eps, UNIT8.rotated(), beta)


@pytest.mark.parametrize("make", GUIDED_CASES.values(), ids=GUIDED_CASES)
def test_guided_split_equals_probing_split(make):
    a, evals, eps, beta = make()
    guided = split(a, eps, UNIT8, beta, eigenvalues=evals)
    # no eigenvalues given: split predicts from np.linalg.eigvals(a)
    _assert_same_split(split(a, eps, UNIT8, beta), guided)
    orientation, lines = _oracle_lines(evals)
    h, c = guided.shift_used, guided.n_plus - guided.n_minus
    assert guided.orientation == orientation and lines.get(h) == c
    assert _measured(a, orientation, h, beta, eps) == c
    # each child gets its own side's eigenvalues
    side = evals.real if guided.orientation == "vertical" else -evals.imag
    assert set(guided.eigenvalues_plus) == set(evals[side > guided.shift_used])
    assert set(guided.eigenvalues_minus) == set(evals[side < guided.shift_used])
    for lam in guided.eigenvalues_plus:
        assert guided.g_plus.square_index(complex(lam)) is not None
    for lam in guided.eigenvalues_minus:
        assert guided.g_minus.square_index(complex(lam)) is not None


def test_wrong_prediction_raises_split_failure():
    a, evals, eps, beta = GUIDED_CASES["horizontal"]()
    right = split(a, eps, UNIT8, beta, eigenvalues=evals)
    assert (right.orientation, right.shift_used) == ("horizontal", 0.0)
    # 0.5 - 1.5j moved to 0.5 + 2.5j: the medians now put the line at
    # Im z = 1, where the prediction reads 0 and the measured census 2
    wrong = np.where(evals == 0.5 - 1.5j, 0.5 + 2.5j, evals)
    with pytest.raises(SplitFailureError, match="predict"):
        split(a, eps, UNIT8, beta, eigenvalues=wrong)


def test_result_compares_by_identity():
    a, evals, eps, beta = GUIDED_CASES["haar-eight"]()
    res = split(a, eps, UNIT8, beta, eigenvalues=evals)
    back = copy.deepcopy(res)
    # an element-wise comparison of the projectors would raise here
    assert res == res and not res == back and res != back


def test_eigenvalue_count_mismatch_raises():
    a, evals, eps, beta = GUIDED_CASES["haar-eight"]()
    for guess in (evals[:-1], np.append(evals, 0.5 + 0.5j)):
        with pytest.raises(PreconditionError, match="8 eigenvalues"):
            split(a, eps, UNIT8, beta, eigenvalues=guess)


def test_split_json_keys():
    a, evals, eps, beta = GUIDED_CASES["two-by-two"]()
    report = split(a, eps, UNIT8, beta, eigenvalues=evals).to_json()
    assert sorted(report) == ["g_minus", "g_plus", "n_minus", "n_plus",
                              "orientation", "p_minus_norm", "p_plus_norm",
                              "shift_used"]
    assert split(a, eps, UNIT8, beta).to_json() == report


#: square centres of UNIT8 inside the disc |z| <= 4 that split requires
CENTRES = [complex(x, y) for x in np.arange(-3.5, 4.0) for y in
           np.arange(-3.5, 4.0) if abs(complex(x, y)) <= 4.0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(evals=st.lists(st.sampled_from(CENTRES), min_size=2, max_size=8,
                      unique=True),
       moves=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(CENTRES)),
                      min_size=1, max_size=3),
       drop=st.booleans())
def test_corrupted_prediction_property(evals, moves, drop):
    """Whatever the eigenvalues predict, split keeps a line only if its
    measured census equals the prediction, and raises SplitFailureError
    only when no predicted line balances or the measurement disagrees."""
    m = len(evals)
    evals = np.array(evals)
    u = sample_haar_unitary(m, Rng(m))
    a = u @ np.diag(evals) @ u.conj().T
    beta = 0.05 / 8
    wrong = evals.copy()
    for j, z in moves:
        wrong[j % m] = z
    if drop:
        with pytest.raises(PreconditionError):
            split(a, 0.4, UNIT8, beta, eigenvalues=wrong[:-1])
    oracle = _oracle_lines(wrong)
    try:
        got = split(a, 0.4, UNIT8, beta, eigenvalues=wrong)
    except SplitFailureError:
        assert oracle is None or any(_measured(a, oracle[0], h, beta) != c
                                     for h, c in oracle[1].items())
        return
    h, orientation = got.shift_used, got.orientation
    measured = got.n_plus - got.n_minus
    assert orientation == oracle[0] and oracle[1].get(h) == measured
    assert measured == _measured(a, orientation, h, beta)
    assert abs(measured) <= (math.floor(3 * m / 5) if m > 5 else m - 2)
    assert (len(got.eigenvalues_plus), len(got.eigenvalues_minus)) == \
        (got.n_plus, got.n_minus)
    want = oracle_projector(a, lambda z: (z if orientation == "vertical"
                                          else 1j * z).real > h)
    assert np.linalg.norm(got.p_plus - want, 2) <= beta


@pytest.mark.parametrize("n", range(2, 13))
def test_split_keeps_each_side_at_most_four_fifths(n):
    # eig's eps floor (shatter._eps_floor) and the depth bound
    # log_{5/4} n both rest on max(n_plus, n_minus) <= 4n/5 at every n
    draws = [np.array(CENTRES)[np.argsort(
        Rng(n, (t,)).uniform(size=len(CENTRES)))[:n]] for t in range(6)]
    if n <= 8:  # one column, so only a horizontal line can balance
        draws.append(0.5 + 1j * np.arange(-3.5, 4.0)[:n])
    for evals in draws:
        res = split(np.diag(evals), 0.4, UNIT8, 0.05 / n)
        assert res.n_plus + res.n_minus == n
        assert 1 <= min(res.n_plus, res.n_minus)
        assert 5 * max(res.n_plus, res.n_minus) <= 4 * n
