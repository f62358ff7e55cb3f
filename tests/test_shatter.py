import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbisect.errors import CertificationError, PreconditionError
from specbisect.grids import (Grid, certify_shattered, eig_pairs,
                              kappa_v_upper, min_gap, min_line_sigma)
from specbisect.kernels import UNIT_ROUNDOFF, op_norm
from specbisect.randmat import Rng, sample_ginibre, sample_haar_unitary
from specbisect.sgn import sgn_params_from_shattering
from specbisect.shatter import (ShatterParams, gap_tail_bound, shatter,
                                smoothed_bounds)

# the package's `shatter` export is the function; the module is needed here
shatter_mod = importlib.import_module("specbisect.shatter")


def test_params_validation():
    with pytest.raises(ValueError):
        ShatterParams(gamma=0.6)
    with pytest.raises(ValueError):
        ShatterParams(gamma=0.1, mode="exact")


def test_theoretical_parameters():
    # oracle first: hand-evaluated omega and eps at n = 10, gamma = 0.1
    n, gamma = 10, 0.1
    omega_want = gamma**4 / (4 * n**5)
    eps_want = 0.5 * gamma**5 / (16 * n**9)
    assert omega_want == pytest.approx(2.5e-10)
    assert eps_want == pytest.approx(3.125e-16)
    a = np.zeros((n, n), dtype=complex)
    cert = shatter(a, ShatterParams(gamma=gamma, mode="theoretical"), Rng(5))
    assert cert.grid.omega == pytest.approx(omega_want)
    assert cert.epsilon == pytest.approx(eps_want)
    assert cert.grid.s1 == math.ceil(8 / omega_want)
    assert not cert.certified
    assert cert.below_hardware_precision
    # corner randomized within the omega square at -4-4i
    assert -4 - omega_want <= cert.grid.x0 <= -4 + omega_want
    assert cert.epsilon <= cert.grid.omega / 2
    # at n = 2, gamma = 0.4, eps = 0.5 * 0.4^5/(16 * 2^9) lies above the floor
    cert = shatter(np.zeros((2, 2), dtype=complex),
                   ShatterParams(gamma=0.4, mode="theoretical"), Rng(5))
    assert cert.epsilon == pytest.approx(6.25e-7)
    assert not cert.below_hardware_precision


def test_perturbation_size_monte_carlo():
    n, gamma = 16, 0.05
    rng = Rng(6)
    a = np.zeros((n, n), dtype=complex)
    hits = 0
    trials = 1000
    for i in range(trials):
        g = sample_ginibre(n, rng.child(i))
        if op_norm(gamma * g) <= 4 * gamma:
            hits += 1
    assert hits / trials >= 0.99


def test_empirical_certified(rng):
    a = np.zeros((8, 8), dtype=complex)
    cert = shatter(a, ShatterParams(gamma=0.1), rng)
    assert cert.certified
    assert cert.epsilon > 0
    assert cert.epsilon <= cert.grid.omega / 2
    # distinct squares
    evals = np.linalg.eigvals(cert.matrix)
    squares = [cert.grid.square_index(complex(z)) for z in evals]
    assert None not in squares
    assert len(set(squares)) == len(squares)


def test_empirical_cert_carries_its_eigenvalues(rng):
    a = np.zeros((8, 8), dtype=complex)
    cert = shatter(a, ShatterParams(gamma=0.1), rng)
    # one per square, in the squares of the dense oracle's eigenvalues
    squares = sorted(cert.grid.square_index(complex(z))
                     for z in cert.eigenvalues)
    assert squares == sorted(cert.grid.square_index(complex(z))
                             for z in np.linalg.eigvals(cert.matrix))
    assert len(set(squares)) == 8
    assert "eigenvalues" not in repr(cert)
    assert "eigenvalues" not in cert.to_json()
    theory = shatter(a, ShatterParams(gamma=0.1, mode="theoretical"), rng)
    assert theory.eigenvalues is None


def test_empirical_recertifies_full_mesh():
    # well-separated spectrum keeps the grid small enough for a full
    # brute-force recheck of the windowed certificate
    a = np.diag([0.5, -0.5, 0.5j, -0.5j]).astype(complex)
    cert = shatter(a, ShatterParams(gamma=0.05), Rng(17))
    assert cert.certified
    res = certify_shattered(cert.matrix, cert.grid, cert.epsilon,
                            mesh_per_segment=8)
    assert res.ok, res.violation


def _assert_below_mesh(x, g, pairs=None, mesh_per_segment=32):
    """The line bound against the meshed minimum: the mesh samples the
    lines, so it can only sit above the true minimum, and the exact SVD
    is within 30 n u (|z| + ||X||_F) of it."""
    bound = shatter_mod.windowed_line_margin(x, g, *(pairs or eig_pairs(x)))
    smin, z = min_line_sigma(x, g, mesh_per_segment)
    tol = 30 * x.shape[0] * UNIT_ROUNDOFF * (abs(z) + np.linalg.norm(x))
    assert bound <= smin + tol
    return bound, smin


def test_line_bound_below_fine_mesh_on_shatter_inputs():
    inputs = [(np.diag([0.5, -0.5, 0.5j, -0.5j]).astype(complex), 0.05,
               Rng(17))]
    for i in range(3):
        r = Rng(300 + i)
        g = sample_ginibre(4, r.child(9))
        inputs.append((g / op_norm(g), 0.1, r))
    base = 0.6 * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2)
    for i in range(3):
        r = Rng(330 + i)
        u = sample_haar_unitary(4, r.child(11))
        inputs.append((u @ np.diag(base) @ u.conj().T, 0.1, r))
    for a, gamma, r in inputs:
        cert = shatter(a, ShatterParams(gamma=gamma), r)
        bound, smin = _assert_below_mesh(cert.matrix, cert.grid)
        assert cert.epsilon <= bound / 2
        assert bound >= 0.25 * smin  # 0.50-0.83 of it on these inputs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**16),
       scale=st.floats(0.05, 1.0), corner=st.tuples(
           st.floats(-1.5, -0.5), st.floats(-1.5, -0.5)),
       omega=st.floats(0.05, 0.5), sides=st.tuples(
           st.integers(1, 8), st.integers(1, 8)),
       noise=st.sampled_from([0.0, 1e-6, 1e-4, 1e-3]))
def test_line_bound_below_mesh_property(n, seed, scale, corner, omega, sides,
                                        noise):
    x = scale * sample_ginibre(n, Rng(seed))
    lam, v, w = eig_pairs(x)
    # inexact pairs make the residual and W*V terms of the bound carry it
    v = v + noise * sample_ginibre(n, Rng(seed).child(1))
    v /= np.linalg.norm(v, axis=0)
    w = w + noise * sample_ginibre(n, Rng(seed).child(2))
    lam = lam + noise * sample_ginibre(n, Rng(seed).child(3))[0]
    _assert_below_mesh(x, Grid(complex(*corner), omega, *sides), (lam, v, w))


def test_line_bound_hand_value_for_inexact_scalar_pair():
    # X = [0.375 + 0.125i] is 0.125 from its nearest lines Re z = 0.5 and
    # Im z = 0. The pair moves lam away from both by d and shrinks w to
    # 1 - h, so F = h, ||V^-1|| = 1 <= (1 - h)/(1 - h), kappa = (1 - h) + h
    # = 1 and r = sqrt(2) d: the bound is (0.125 + d) - sqrt(2) d, below
    # the true 0.125, which the mesh hits.
    d, h = 0.01, 0.5
    x = np.array([[0.375 + 0.125j]])
    lam = x[0] + d * (-1 + 1j)
    pair = (lam, np.ones((1, 1), dtype=complex),
            np.full((1, 1), 1.0 - h, dtype=complex))
    g = Grid(complex(-1.0, -1.0), 0.5, 4, 4)
    bound = shatter_mod.windowed_line_margin(x, g, *pair)
    assert bound == pytest.approx(0.125 + d - math.sqrt(2) * d, rel=1e-12)
    assert min_line_sigma(x, g, 32)[0] == pytest.approx(0.125, rel=1e-12)
    # ||F|| >= 1 leaves V^-1 unbounded: no certificate, whatever the sums say
    far = (x[0] + 0.5, pair[1], np.full((1, 1), -0.5, dtype=complex))
    assert shatter_mod.windowed_line_margin(x, g, *far) == -math.inf


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(centres=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8),
       origin=st.floats(-3.0, -1.0), omega=st.floats(0.01, 1.0),
       count=st.integers(1, 60), data=st.data())
def test_bracketing_lines_attain_max_over_all_lines(centres, origin, omega,
                                                    count, data):
    c = np.array(centres)
    kappa = np.array(data.draw(st.lists(st.floats(1.0, 100.0),
                                        min_size=c.size, max_size=c.size)))
    every = Grid(complex(origin, 0.0), omega, count, 1).vertical_line_xs()
    some = shatter_mod._bracketing_lines(c, origin, omega, count)
    assert np.isin(some, every).all() and some.size <= 2 * c.size
    assert (shatter_mod._line_sums(some, c, kappa).max()
            == shatter_mod._line_sums(every, c, kappa).max())


class _CornerRng:
    """Stands in for an Rng whose grid offsets are both 0."""

    def uniform(self, size):
        return np.zeros(size)


def test_eigenvalue_on_grid_line_gets_no_certificate():
    # gap 0.5, so omega = 1/8 and the corner -4-4i put lines on 0 and 0.5
    x = np.diag([0.0, 0.5]).astype(complex)
    g = Grid(complex(-4.0, -4.0), 0.125, 65, 65)
    assert 0.0 in g.vertical_line_xs()
    assert shatter_mod.windowed_line_margin(x, g, *eig_pairs(x)) <= 0.0
    with pytest.raises(CertificationError, match="margin eps .* < floor"):
        shatter_mod._empirical_cert(x, 0.1, _CornerRng())


def test_tiny_and_zero_gaps_build_no_grid():
    # a subnormal gap would overflow the grid's side count, 8/omega
    tiny = np.diag([1e-310, 2e-310]).astype(complex)
    with pytest.raises(CertificationError):
        shatter(tiny, ShatterParams(gamma=1e-320), Rng(0))
    for x in (tiny, np.diag([0.5, 0.5, -0.5]).astype(complex)):
        with pytest.raises(CertificationError, match="gap eps .* < floor"):
            shatter_mod._empirical_cert(x, 0.1, Rng(0))


def _counted(monkeypatch, name) -> list:
    """A list that grows by one on each call of shatter's name."""
    original, calls = getattr(shatter_mod, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(shatter_mod, name, counted)
    return calls


def test_shatter_makes_one_draw(monkeypatch):
    # a subnormal gap fails every draw; eig_backward, not shatter, redraws
    draws = _counted(monkeypatch, "sample_ginibre")
    certs = _counted(monkeypatch, "_empirical_cert")
    tiny = np.diag([1e-310, 2e-310]).astype(complex)
    with pytest.raises(CertificationError, match="floor"):
        shatter(tiny, ShatterParams(gamma=1e-320), Rng(0))
    assert len(draws) == len(certs) == 1


def test_shatter_keeps_the_first_draws_paths():
    # the draw that was attempt 0 of the retry loop once shatter had one
    a = np.diag([0.5, -0.5, 0.5j, -0.5j]).astype(complex)
    rng = Rng(4)
    cert = shatter(a, ShatterParams(gamma=0.05), rng)
    r = rng.child(0)
    x = a + 0.05 * sample_ginibre(4, r.child(0))
    assert np.array_equal(cert.matrix, x)
    assert cert.grid == shatter_mod._empirical_cert(x, 0.05, r.child(1)).grid


@pytest.mark.parametrize("n", [2, 5, 10, 48, 256])
@pytest.mark.parametrize("omega", [1e-6, 0.5])
def test_eps_floor_resolves_every_node(n, omega):
    # a node at depth L has at most n (4/5)^L rows, uses eps (4/5)^L and a
    # grid of diagonal at most sqrt(2) (8 + 2 omega); its first sign step
    # inverts a matrix of norm at most 8 + 2 omega
    eps = shatter_mod._eps_floor(n, omega)
    width = 8.0 + 2.0 * omega
    for level in range(math.ceil(math.log(n) / math.log(1.25)) + 1):
        eps_level = eps * 0.8**level
        _, alpha0 = sgn_params_from_shattering(eps_level,
                                               math.sqrt(2.0) * width)
        assert alpha0 < 1.0
        m = math.floor(n * 0.8**level)
        if m >= 2:  # mat_inv's singularity test passes
            assert m * max(m, 10) * UNIT_ROUNDOFF * width < eps_level


def test_empirical_cert_below_the_old_margin_floor():
    # X = I + gamma G, the first draw of eig_backward(I, 0.05, ...,
    # Rng(1, (256,))): its margin lies below the 1e-8 floor once used and
    # far above the derived one
    n, gamma = 256, 0.05 / 8
    r = Rng(1, (256,)).child(0).child(0)
    x = np.eye(n, dtype=complex) + gamma * sample_ginibre(n, r.child(0))
    cert = shatter_mod._empirical_cert(x, gamma, r.child(1))
    assert cert.certified
    margin = shatter_mod.windowed_line_margin(x, cert.grid, *eig_pairs(x))
    assert cert.epsilon == margin / 2.0 < 5e-9


def test_empirical_cert_runs_one_eigensolve(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return eig_pairs(x)

    def forbidden(*args, **kwargs):
        raise AssertionError("shatter must not call this")

    monkeypatch.setattr(shatter_mod, "eig_pairs", counted)
    for name in ("kappa_v_upper", "sigma_min_shifted_batch"):
        monkeypatch.setattr(shatter_mod, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    cert = shatter(np.zeros((6, 6), dtype=complex), ShatterParams(gamma=0.1),
                   Rng(5))
    assert cert.certified and len(calls) == 1


def test_shatter_determinism():
    a = np.zeros((4, 4), dtype=complex)
    c1 = shatter(a, ShatterParams(gamma=0.1), Rng(3))
    c2 = shatter(a, ShatterParams(gamma=0.1), Rng(3))
    assert np.array_equal(c1.matrix, c2.matrix)
    assert c1.grid == c2.grid and c1.epsilon == c2.epsilon


def test_shatter_norm_check():
    with pytest.raises(PreconditionError):
        shatter(2.0 * np.eye(3, dtype=complex), ShatterParams(gamma=0.1), Rng(0))


def test_smoothed_bounds_values():
    assert smoothed_bounds(10, 0.1) == pytest.approx((1000.0, 1e-9, 0.12))
    kv, gap, fail = smoothed_bounds(2, 0.49)
    assert fail == pytest.approx(3.0)  # vacuous, reported as-is
    # monotonicity of the gap bound
    assert smoothed_bounds(10, 0.2)[1] > smoothed_bounds(10, 0.1)[1]
    assert smoothed_bounds(20, 0.1)[1] < smoothed_bounds(10, 0.1)[1]


def test_gap_tail_bound():
    n = 12
    assert gap_tail_bound(n, 0.3, 0.0) == pytest.approx(2 * math.exp(-2 * n))
    assert gap_tail_bound(4, 0.1, 1e9) == 1.0
    # oracle first: direct arithmetic at (16, 0.2, 1e-8), below the clamp
    want = 42 * (16 / 0.2) ** 3.2 * (1e-8) ** 1.2 + 2 * math.exp(-32)
    assert want < 1
    assert gap_tail_bound(16, 0.2, 1e-8) == pytest.approx(want)
    # clamped to 1 when the raw expression exceeds it
    raw = 42 * (16 / 0.2) ** 3.2 * (1e-6) ** 1.2 + 2 * math.exp(-32)
    assert raw > 1
    assert gap_tail_bound(16, 0.2, 1e-6) == 1.0


@pytest.mark.parametrize("n", [0, -3])
def test_gap_tail_bound_rejects_n_below_1(n):
    # (n/gamma)**3.2 of a negative n is complex; the check comes first
    with pytest.raises(ValueError, match="n must be >= 1"):
        gap_tail_bound(n, 0.1, 0.01)


def test_gap_tail_monte_carlo_dominance():
    n, gamma, r = 16, 0.2, 1e-6
    bound = gap_tail_bound(n, gamma, r)
    rng = Rng(8)
    a = np.zeros((n, n), dtype=complex)
    hits = 0
    for i in range(1000):
        x = a + gamma * sample_ginibre(n, rng.child(i))
        if min_gap(x) < r:
            hits += 1
    assert hits == 0  # bound ~4e-14; any hit would be a regression
    assert hits / 1000 <= bound + 1e-3


def test_smoothed_joint_event_500_trials():
    n, gamma = 16, 0.1
    kv_bound, gap_bound, fail = smoothed_bounds(n, gamma)
    rng = Rng(9)
    a = np.zeros((n, n), dtype=complex)
    good = 0
    trials = 500
    for i in range(trials):
        x = a + gamma * sample_ginibre(n, rng.child(i))
        if min_gap(x) >= gap_bound and kappa_v_upper(x) <= kv_bound:
            good += 1
    assert good / trials >= 1 - fail
