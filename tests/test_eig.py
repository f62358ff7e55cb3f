import gc
import importlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import phase_align
from specbisect.eig import (RETRY_BUDGET, EigParams, EigResult,
                            eig_backward, eig_forward, eig_iteration_budget,
                            eig_precision_requirement, eig_shattered,
                            kappa_eig_measure)
from specbisect.errors import (CertificationError, DeflationError,
                               EigFailureError, PreconditionError,
                               SpecBisectError, SplitFailureError)
from specbisect.grids import Grid, eig_pairs
from specbisect.kernels import UNIT_ROUNDOFF, op_norm
from specbisect.randmat import Rng, sample_ginibre, sample_haar_unitary
from specbisect.shatter import ShatterParams, shatter

UNIT8 = Grid(complex(-4, -4), 1.0, 8, 8)


def test_base_case_1x1():
    a = np.array([[0.3 + 0.1j]])
    res = eig_shattered(a, 1e-3, UNIT8, 0.4, 0.1, Rng(0))
    assert res.d[0] == 0.3 + 0.1j
    assert res.v[0, 0] == 1.0
    assert res.depth == 0


def test_normal_diag_recovery():
    w = np.array([0.5 + 0.5j, -0.5 - 0.5j, 1.5 + 0.5j, -1.5 + 0.5j])
    a = np.diag(w)
    res = eig_shattered(a, 1e-3, UNIT8, 0.4, 0.25, Rng(1))
    assert res.residual <= 1e-6
    # eigenvalues land in the right squares
    got_squares = sorted(res.square_assignment)
    want_squares = sorted(UNIT8.square_index(complex(z)) for z in w)
    assert got_squares == want_squares
    # eigenvectors are coordinate vectors up to phase
    order = [int(np.argmin(np.abs(w - z))) for z in res.d]
    assert sorted(order) == [0, 1, 2, 3]
    for j, idx in enumerate(order):
        e = np.zeros((4, 1), dtype=complex)
        e[idx, 0] = 1.0
        aligned = phase_align(e, res.v[:, j:j + 1])
        assert np.linalg.norm(res.v[:, j:j + 1] - aligned) <= 1e-3


def test_nonnormal_recovery(rng):
    n = 8
    centers = np.array([-2.5 + 0.5j, -1.5 - 0.5j, -0.5 + 1.5j, 0.5 - 2.5j,
                        1.5 + 0.5j, 2.5 - 1.5j, 0.5 + 2.5j, -1.5 + 2.5j])
    e = rng.standard_normal((2, n, n))
    v0 = np.eye(n) + 0.15 * (e[0] + 1j * e[1]) / math.sqrt(2 * n)
    a = v0 @ np.diag(centers) @ np.linalg.inv(v0)
    assert op_norm(a) <= 4.0  # stays inside the grid's norm precondition
    res = eig_shattered(a, 1e-3, UNIT8, 0.1, 0.25, rng.child(1))
    # square assignment matches the oracle census
    got = sorted(res.square_assignment)
    want = sorted(UNIT8.square_index(complex(z)) for z in centers)
    assert got == want
    # eigenvectors delta-close to oracle after phase alignment
    wv, vv = np.linalg.eig(a)
    vv = vv / np.linalg.norm(vv, axis=0)
    for j, lam in enumerate(res.d):
        idx = int(np.argmin(np.abs(wv - lam)))
        ref = vv[:, idx:idx + 1]
        aligned = phase_align(ref, res.v[:, j:j + 1])
        assert np.linalg.norm(res.v[:, j:j + 1] - aligned) <= 1e-3


def test_unit_columns_and_residual_consistency(rng):
    g = sample_ginibre(8, rng)
    a = g / op_norm(g)
    res = eig_backward(a, 0.1, EigParams(delta=0.1, theta=0.125), rng.child(1))
    norms = np.linalg.norm(res.v, axis=0)
    assert np.all(np.abs(norms - 1.0) <= 8 * 2.0**-53 * 100)
    # residual field equals an independent recomputation
    want = op_norm(a - res.v @ np.diag(res.d) @ np.linalg.inv(res.v))
    assert res.residual == pytest.approx(want, rel=1e-6, abs=1e-12)
    assert len(res.d) == 8


def test_backward_diag_and_zero():
    a = np.diag([0.5, -0.5]).astype(complex)
    res = eig_backward(a, 0.1, EigParams(delta=0.1, theta=0.5), Rng(2))
    assert res.residual <= 0.1
    assert res.kappa_v <= 32 * 2**2.5 / 0.1
    z = np.zeros((4, 4), dtype=complex)
    res0 = eig_backward(z, 0.1, EigParams(delta=0.1, theta=0.25), Rng(3))
    assert res0.residual <= 0.1
    assert np.abs(res0.d).max() <= 4 * (0.1 / 8) + 0.05


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.5])
def test_entry_points_reject_delta_outside_unit_interval(delta):
    a = np.diag([0.5, -0.5, 0.5j, -0.5j])
    params = EigParams(delta=0.1, theta=0.5)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        eig_backward(a, delta, params, Rng(0))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        eig_forward(a, delta, 2.0, params, Rng(0))


def test_backward_norm_check():
    with pytest.raises(PreconditionError):
        eig_backward(3 * np.eye(2, dtype=complex), 0.1,
                     EigParams(delta=0.1, theta=0.5), Rng(0))


def test_depth_bound(rng):
    n = 16
    g = sample_ginibre(n, rng)
    a = g / op_norm(g)
    res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n), rng.child(5))
    assert res.depth <= math.log(n) / math.log(1.25)


def _bench_input(kind, n, i):
    """Input i of the benchmark's seed-1 set of that family and size, built
    as bench/workloads.py builds it, and the Rng its solve gets."""
    rng = Rng(1, (0, i))
    if kind == "ginibre":
        a = sample_ginibre(n, rng)
    else:  # Q diag(d) Q* with Q Haar and d cycling through {1, -1, i, -i}
        q = sample_haar_unitary(n, rng)
        a = (q * np.array([1, -1, 1j, -1j])[np.arange(n) % 4]) @ q.conj().T
    return a / np.linalg.norm(a, 2), Rng(1, (1, i))


@pytest.mark.parametrize("kind,n,inputs", [
    ("ginibre", 24, (22, 25)), ("ginibre", 48, (6, 10)),
    ("clustered", 24, (1, 3)), ("clustered", 48, (1, 5))],
    ids=["ginibre-24", "ginibre-48", "clustered-24", "clustered-48"])
def test_median_split_depth_is_logarithmic(kind, n, inputs):
    # a split that keeps the first balanced line a binary search finds,
    # not the most balanced one, recurses 8 or 9 levels deep on these
    for i in inputs:
        a, rng = _bench_input(kind, n, i)
        res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n), rng)
        assert res.depth <= math.ceil(math.log2(n)) + 2


def _sep(x, lam, v):
    """sep_j = sigma_min(T22 - lam I), T22 = Q* X Q for Q an orthonormal
    basis of the complement of the unit eigenvector v of X."""
    q = scipy.linalg.null_space(v.conj()[np.newaxis, :])
    t22 = q.conj().T @ x @ q
    return np.linalg.svd(t22 - lam * np.eye(len(t22)), compute_uv=False)[-1]


@pytest.mark.parametrize("kind,n", [("clustered", 24), ("ginibre", 48)])
@pytest.mark.parametrize("i", range(6))
def test_backward_recursion_meets_its_inner_guarantee(monkeypatch, kind, n, i):
    # the outer contract measures the Ginibre perturbation; the recursion's
    # own guarantee is on the shattered X: each eigenvalue in its true
    # eigenvalue's square, each unit eigenvector within
    # delta' = delta^3/(1536 n^2.5) of X's after phase alignment
    eig_module = importlib.import_module("specbisect.eig")
    original, certs = eig_module.shatter, []

    def captured(*args, **kwargs):
        certs.append(original(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(eig_module, "shatter", captured)
    a, rng = _bench_input(kind, n, i)
    res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n), rng)
    x, grid = certs[-1].matrix, certs[-1].grid
    assert res.grid is grid
    lam, vr, _ = eig_pairs(x)
    squares = [grid.square_index(complex(z)) for z in lam]
    assert None not in squares and len(set(squares)) == n
    assert sorted(res.square_assignment) == sorted(squares)
    match = [squares.index(sq) for sq in res.square_assignment]
    aligned = phase_align(vr[:, match], res.v)
    delta_p = 0.05**3 / (1536 * n**2.5)
    assert np.linalg.norm(aligned - res.v, axis=0).max() <= delta_p
    # LAPACK's vectors are accurate to about u ||X|| / sep_j; that floor
    # sits well below delta', so the check measures the solver
    floor = max(UNIT_ROUNDOFF * op_norm(x) / _sep(x, lam[j], vr[:, j])
                for j in range(n))
    assert floor <= delta_p / 10


def test_one_generator_per_node_serves_both_deflations(monkeypatch):
    # each node hands one Rng to its two deflations: q_plus draws first and
    # q_minus continues the same stream, so the two samples differ
    deflate_module = importlib.import_module("specbisect.deflate")
    original, draws = deflate_module.sample_ginibre, []

    def recorded(n, rng, cols):
        draws.append((rng, original(n, rng, cols)))
        return draws[-1][1]

    monkeypatch.setattr(deflate_module, "sample_ginibre", recorded)
    a, rng = _bench_input("ginibre", 8, 0)
    res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / 8), rng)
    assert res.attempts == 1 and len(draws) == 2 * (8 - 1)
    paths = set()
    for (r_plus, g_plus), (r_minus, g_minus) in zip(draws[::2], draws[1::2]):
        assert r_plus is r_minus and r_plus.path[-1] == 0
        paths.add(r_plus.path)
        # the first draw is the head of the node's stream, the second is not
        n, cols = g_plus.shape
        fresh = original(n, Rng(r_plus.seed, r_plus.path), cols)
        assert np.array_equal(g_plus, fresh)
        assert not np.isin(g_minus, g_plus).any()
    assert len(paths) == 8 - 1


def test_determinism(rng):
    g = sample_ginibre(6, rng)
    a = g / op_norm(g)
    r1 = eig_backward(a, 0.1, EigParams(delta=0.1, theta=0.2), Rng(77))
    r2 = eig_backward(a, 0.1, EigParams(delta=0.1, theta=0.2), Rng(77))
    assert np.array_equal(r1.v, r2.v)
    assert np.array_equal(r1.d, r2.d)


def test_forward_normal_gap_one(rng):
    w = np.array([0.9, -0.1 + 0.9j, -0.9 - 0.3j])
    u = sample_haar_unitary(3, rng)
    a = u @ np.diag(w) @ u.conj().T
    k = kappa_eig_measure(a)
    res = eig_forward(a, 1e-2, max(k, 1.0) * 1.2, EigParams(delta=1e-2, theta=0.3),
                      rng.child(1))
    for lam in res.d:
        assert np.min(np.abs(w - lam)) <= 1e-2


def test_kappa_eig_measure():
    a = np.diag([0.0, 1.0]).astype(complex)
    assert kappa_eig_measure(a) == pytest.approx(2.0)  # sqrt(2*2)/1
    b = np.diag([0.0, 0.5]).astype(complex)
    assert kappa_eig_measure(b) == pytest.approx(4.0)
    with pytest.raises(PreconditionError):
        kappa_eig_measure(np.eye(2, dtype=complex))


def test_eig_budget_and_precision():
    n1 = eig_iteration_budget(16, 0.1, 0.1, 1 / 16)
    assert n1 > math.log2(16 * 256 / 0.1)
    bits = eig_precision_requirement(16, 0.1, 0.1, 1 / 16)
    assert bits > 53  # worst-case constant is astronomically pessimistic
    # doubling 1/eps grows the dominant lg^3 term
    b2 = eig_precision_requirement(16, 0.05, 0.1, 1 / 16)
    assert b2 > bits
    ratio = b2 / bits
    k = math.log2(16 / 0.1)
    expect = ((k + 1) / k) ** 3
    assert ratio == pytest.approx(expect, rel=0.25)


def test_precision_flags_theoretical_regime():
    # theoretical shattering eps at n = 10, gamma = 0.1
    eps = 0.5 * 0.1**5 / (16 * 10**9)
    bits = eig_precision_requirement(10, eps, 0.1, 0.1)
    assert bits > 53


def _count_calls(monkeypatch, module, name) -> list:
    """A list that grows by one on each call of module.name."""
    mod = importlib.import_module(module)
    original, calls = getattr(mod, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(mod, name, counted)
    return calls


def test_backward_runs_one_sgn_per_split(monkeypatch, rng):
    # the input of test_depth_bound
    n = 16
    g = sample_ginibre(n, rng)
    a = g / op_norm(g)
    splits = _count_calls(monkeypatch, "specbisect.eig", "split")
    sgns = _count_calls(monkeypatch, "specbisect.split", "sgn")
    res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n),
                       rng.child(5))
    assert res.residual <= 0.05
    assert len(splits) == len(sgns) == n - 1  # a binary tree with n leaves


@pytest.mark.parametrize("n", [8, 16])
def test_measured_once_at_the_entry_point(monkeypatch, rng, n):
    g = sample_ginibre(n, rng)
    a = g / op_norm(g)
    measures = _count_calls(monkeypatch, "specbisect.eig", "_measure")
    res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n),
                       rng.child(5))
    assert res.depth >= 2  # inner nodes that measure nothing
    assert len(measures) == 1
    cert = shatter(a, ShatterParams(gamma=0.05 / 8), rng.child(0))
    measures.clear()
    res = eig_shattered(cert.matrix, 1e-6, cert.grid, cert.epsilon, 1 / n,
                        Rng(9), eigenvalues=cert.eigenvalues)
    assert len(measures) == 1
    # the entry point measures its own argument
    want = op_norm(cert.matrix
                   - res.v @ np.diag(res.d) @ np.linalg.inv(res.v))
    assert res.residual == pytest.approx(want, rel=1e-6, abs=1e-12)
    assert res.square_assignment == [cert.grid.square_index(complex(z))
                                     for z in res.d]


def test_eig_shattered_runs_the_matrix_gate_once(monkeypatch):
    # one square of UNIT8 per eigenvalue; inner nodes build Q*AQ and
    # validate nothing again
    centers = np.array([-2.5 + 0.5j, -1.5 - 0.5j, -0.5 + 1.5j, 0.5 - 2.5j,
                        1.5 + 0.5j, 2.5 - 1.5j, 0.5 + 2.5j, -1.5 + 2.5j])
    gates = _count_calls(monkeypatch, "specbisect.eig", "as_cmatrix")
    res = eig_shattered(np.diag(centers), 1e-3, UNIT8, 0.4, 0.25, Rng(3))
    assert res.depth >= 3  # a binary tree with 8 leaves
    assert sorted(res.square_assignment) == sorted(
        UNIT8.square_index(complex(z)) for z in centers)
    assert len(gates) == 1


def test_recursion_without_eigenvalues_equals_guided_recursion(monkeypatch,
                                                             rng):
    n = 16
    g = sample_ginibre(n, rng)
    cert = shatter(g / op_norm(g), ShatterParams(gamma=0.05 / 8), rng.child(0))
    assert len(cert.eigenvalues) == n
    sgns = _count_calls(monkeypatch, "specbisect.split", "sgn")
    args = (cert.matrix, 1e-6, cert.grid, cert.epsilon, 1 / n, Rng(9))
    guided = eig_shattered(*args, eigenvalues=cert.eigenvalues)
    assert len(sgns) == n - 1
    # the root split computes the eigenvalues with np.linalg.eigvals
    computed = eig_shattered(*args)
    assert len(sgns) == 2 * (n - 1)
    for field in ("v", "d"):
        assert np.array_equal(getattr(computed, field), getattr(guided, field))
    assert (computed.residual, computed.kappa_v, computed.depth,
            computed.square_assignment) == \
        (guided.residual, guided.kappa_v, guided.depth,
         guided.square_assignment)


def test_theoretical_certificate_solves_with_one_sgn_per_split(monkeypatch):
    n = 4
    a = sample_ginibre(n, Rng(n))
    cert = shatter(a / op_norm(a), ShatterParams(gamma=0.2, mode="theoretical"),
                   Rng(1))
    assert cert.eigenvalues is None
    sgns = _count_calls(monkeypatch, "specbisect.split", "sgn")
    res = eig_shattered(cert.matrix, 1e-3, cert.grid, cert.epsilon, 1 / n,
                        Rng(2), eigenvalues=cert.eigenvalues)
    assert res.residual <= 1e-10
    assert len(sgns) == n - 1


def _property_input(kind, n, rng):
    """An n x n input of the given kind, before scaling."""
    g = rng.standard_normal((2, n, n))
    if kind == "real":
        return g[0]
    if kind == "jordan":
        lam = complex(*rng.uniform(-1.0, 1.0, 2))
        return lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
    if kind == "repeated":
        # n // 2 distinct values, each at least twice
        w = rng.uniform(-1.0, 1.0, (2, 3))
        values = (w[0] + 1j * w[1])[np.arange(n) % (n // 2)]
        v = g[0] + 1j * g[1]
        return v @ np.diag(values) @ np.linalg.inv(v)
    return g[0] + 1j * g[1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["complex", "real", "jordan", "repeated"]),
       n=st.integers(2, 6), seed=st.integers(0, 2**16),
       delta=st.floats(0.01, 0.5))
def test_eig_backward_finite_or_typed_error(kind, n, seed, delta):
    """At ||A|| = 1, eig_backward returns finite V and D (and a finite
    residual and kappa_V) or raises a SpecBisectError, nothing else."""
    a = _property_input(kind, n, Rng(seed))
    a = a / np.linalg.norm(a, 2)
    try:
        res = eig_backward(a, delta, EigParams(delta=delta, theta=0.5),
                           Rng(seed, (1,)))
    except SpecBisectError:
        return
    assert np.isfinite(res.v).all() and np.isfinite(res.d).all()
    assert math.isfinite(res.residual) and math.isfinite(res.kappa_v)


def _jordan(n, lam=0.0):
    return lam * np.eye(n) + np.eye(n, k=1)


def _companion(n, c):
    """Companion matrix of z^n - c."""
    a = np.eye(n, k=-1).astype(complex)
    a[0, -1] = c
    return a


#: non-normal, defective and degenerate inputs, (n, Rng) -> matrix
CONTRACT_FAMILIES = {
    "jordan": lambda n, r: _jordan(n),
    "shifted-jordan": lambda n, r: _jordan(n, 0.5),
    "grcar": lambda n, r: -np.eye(n, k=-1) + sum(np.eye(n, k=j)
                                                  for j in range(4)),
    "upper-triangular": lambda n, r: np.triu(sample_ginibre(n, r)),
    "two-jordan-blocks": lambda n, r: scipy.linalg.block_diag(
        _jordan(n // 2, 0.5), _jordan(n - n // 2, -0.5)),
    "companion": lambda n, r: _companion(n, 1e-3),
    "identity": lambda n, r: np.eye(n),
    "rank-one": lambda n, r: np.outer(*sample_ginibre(n, r)[:2]),
}


def _assert_backward_contract(a, delta, rng):
    """eig_backward's contract, checked with this test's own arithmetic,
    as the benchmark harness checks it, not with the solver's
    measurement."""
    n = a.shape[0]
    res = eig_backward(a, delta, EigParams(delta=delta, theta=1 / n), rng)
    vinv = np.linalg.inv(res.v)
    assert np.linalg.norm(a - (res.v * res.d) @ vinv, 2) <= delta
    kappa = np.linalg.norm(res.v, 2) * np.linalg.norm(vinv, 2)
    assert kappa <= 32.0 * n**2.5 / delta


@pytest.mark.parametrize("n", [16, 32, 48])
@pytest.mark.parametrize("family", CONTRACT_FAMILIES)
def test_eig_backward_contract_on_nonnormal_families(family, n):
    a = np.asarray(CONTRACT_FAMILIES[family](n, Rng(n, (0,))), complex)
    _assert_backward_contract(a / np.linalg.norm(a, 2), 0.05, Rng(n, (1,)))


def test_eig_backward_contract_on_identity_at_256():
    # a tight spectrum: X = I + gamma G fills a disc of radius ~gamma, and
    # its first shattering margin (3.5e-9) lies below the 1e-8 floor once
    # used, which failed every draw of this solve
    _assert_backward_contract(np.eye(256, dtype=complex), 0.05,
                              Rng(1, (256,)))


# --- the contract check of eig_backward -------------------------------------

def _misses(monkeypatch, count):
    """Make eig._measure report a contract miss on its first count calls;
    returns the V of every call."""
    eig_module = importlib.import_module("specbisect.eig")
    original, vs = eig_module._measure, []

    def measure(a, v, d):
        vs.append(v)
        residual, kv = original(a, v, d)
        return (math.inf if len(vs) <= count else residual), kv

    monkeypatch.setattr(eig_module, "_measure", measure)
    return vs


def test_contract_miss_retries_with_fresh_randomness(monkeypatch, rng):
    n = 8
    g = sample_ginibre(n, rng)
    a = g / op_norm(g)
    params = EigParams(delta=0.05, theta=1 / n)
    first = eig_backward(a, 0.05, params, rng.child(5))
    vs = _misses(monkeypatch, 1)
    res = eig_backward(a, 0.05, params, rng.child(5))
    assert len(vs) == 2 and (first.attempts, res.attempts) == (1, 2)
    assert np.array_equal(vs[0], first.v)  # attempt 0 keeps its paths
    assert res.v is vs[1] and not np.array_equal(res.v, first.v)
    assert res.residual <= 0.05 and res.kappa_v <= 32 * n**2.5 / 0.05


def test_contract_miss_after_the_budget_raises(monkeypatch, rng):
    n = 6
    g = sample_ginibre(n, rng)
    vs = _misses(monkeypatch, math.inf)
    with pytest.raises(EigFailureError, match="backward contract"):
        eig_backward(g / op_norm(g), 0.05, EigParams(delta=0.05, theta=0.2),
                     rng.child(5))
    assert len(vs) == 1 + RETRY_BUDGET


def _raise_on(monkeypatch, name, error, hit, times):
    """Make eig.name raise error on its calls whose arguments satisfy hit,
    the first `times` of them; returns the errors raised."""
    eig_module = importlib.import_module("specbisect.eig")
    original, raised = getattr(eig_module, name), []

    def failing(*args, **kwargs):
        if hit(*args) and len(raised) < times:
            raised.append(error(f"planted failure in {name}"))
            raise raised[-1]
        return original(*args, **kwargs)

    monkeypatch.setattr(eig_module, name, failing)
    return raised


#: (eig's name to fail, the error, which calls fail): the shattering
#: draw, the root split, and a deflation at a 2 x 2 node, the deepest
#: level every recursion reaches
PLANTED = {
    "shatter": ("shatter", CertificationError, lambda *args: True),
    "split": ("split", SplitFailureError, lambda *args: True),
    "deflate": ("deflate", DeflationError,
                lambda p, *args: p.shape[0] == 2),
}


@pytest.mark.parametrize("name, error, hit", PLANTED.values(), ids=PLANTED)
def test_probabilistic_failure_retries_with_fresh_randomness(
        monkeypatch, rng, name, error, hit):
    n = 8
    g = sample_ginibre(n, rng)
    a = g / op_norm(g)
    params = EigParams(delta=0.05, theta=1 / n)
    raised = _raise_on(monkeypatch, name, error, hit, times=1)
    shatters = _count_calls(monkeypatch, "specbisect.eig", "shatter")
    res = eig_backward(a, 0.05, params, rng.child(5))
    assert len(raised) == 1 and len(shatters) == 2 and res.attempts == 2
    assert res.residual <= 0.05 and res.kappa_v <= 32 * n**2.5 / 0.05


@pytest.mark.parametrize("name, error, hit", PLANTED.values(), ids=PLANTED)
def test_probabilistic_failure_after_the_budget_raises(
        monkeypatch, rng, name, error, hit):
    n = 8
    g = sample_ginibre(n, rng)
    raised = _raise_on(monkeypatch, name, error, hit, times=math.inf)
    shatters = _count_calls(monkeypatch, "specbisect.eig", "shatter")
    with pytest.raises(EigFailureError) as info:
        eig_backward(g / op_norm(g), 0.05, EigParams(delta=0.05, theta=0.2),
                     rng.child(5))
    assert len(raised) == len(shatters) == 1 + RETRY_BUDGET
    assert info.value.__cause__ is raised[-1]


def test_precision_frontier_fails_after_every_draw(monkeypatch):
    # delta = 1e-5 puts A = I at n = 96 below the doubles frontier: no
    # draw's shattering eps reaches the floor, so every attempt fails to
    # certify and eig_backward alone redraws
    n = 96
    certs = _count_calls(monkeypatch, "specbisect.shatter", "_empirical_cert")
    with pytest.raises(EigFailureError) as info:
        eig_backward(np.eye(n, dtype=complex), 1e-5,
                     EigParams(delta=1e-5, theta=1 / n), Rng(0, (1, n)))
    assert len(certs) == 1 + RETRY_BUDGET
    cause = info.value.__cause__
    assert isinstance(cause, CertificationError) and "floor" in str(cause)


# --- EigResult: what a result holds and what it derives ---------------------

@pytest.mark.parametrize("n", [24, 48])
def test_retained_result_weighs_v_and_d_plus_1kib(n):
    g = sample_ginibre(n, Rng(n))
    a = g / op_norm(g)
    args = (a, 0.05, EigParams(delta=0.05, theta=1 / n), Rng(n, (1,)))
    eig_backward(*args)  # warms every cache the solve fills
    tracemalloc.start()
    try:
        # a full collection also empties the interpreter's free lists,
        # which tracemalloc counts as allocated
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        kept = [eig_backward(*args) for _ in range(8)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    res = kept[0]
    assert held / len(kept) <= res.v.nbytes + res.d.nbytes + 1024


def _eager_squares(res, grid):
    return [grid.square_index(complex(z)) for z in res.d]


def test_square_assignment_derived_from_the_grid(rng):
    n = 8
    g = sample_ginibre(n, rng)
    a = g / op_norm(g)
    res = eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n),
                       rng.child(5))
    cert = shatter(a, ShatterParams(gamma=0.05 / 8), rng.child(5).child(0))
    assert res.grid == cert.grid
    assert res.square_assignment == _eager_squares(res, cert.grid)
    assert None not in res.square_assignment
    shattered = eig_shattered(cert.matrix, 1e-6, cert.grid, cert.epsilon,
                              1 / n, Rng(9), eigenvalues=cert.eigenvalues)
    assert shattered.square_assignment == _eager_squares(shattered,
                                                         cert.grid)
    # n = 1: eig_backward holds no grid, eig_shattered its argument's
    one = eig_backward(np.array([[0.5j]]), 0.05,
                       EigParams(delta=0.05, theta=0.5), Rng(0))
    assert one.grid is None and one.square_assignment == [None]
    outside = eig_shattered(np.array([[9.0 + 0j]]), 1e-3, UNIT8, 0.4, 0.1,
                            Rng(0))
    assert outside.square_assignment == [None]
    inside = eig_shattered(np.array([[0.5 - 0.5j]]), 1e-3, UNIT8, 0.4, 0.1,
                           Rng(0))
    assert inside.square_assignment == [(4, 3)]


def test_result_json_construction_and_pickle():
    v = np.eye(3, dtype=np.complex128)
    d = np.array([0.5 + 0.5j, -1.5 - 2.5j, 9.0 + 0j])
    res = EigResult(v, d, 1e-9, 1.5, UNIT8, 2)  # six positional values
    assert (res.v is v, res.d is d, res.residual, res.kappa_v, res.grid,
            res.depth, res.attempts) == (True, True, 1e-9, 1.5, UNIT8, 2, 1)
    assert res.square_assignment == [(4, 4), (2, 1), None]
    assert json.dumps(res.to_json()) == json.dumps({
        "eigenvalues": [[0.5, 0.5], [-1.5, -2.5], [9.0, 0.0]],
        "residual": 1e-9,
        "kappa_v": 1.5,
        "depth": 2,
        "square_assignment": [[4, 4], [2, 1], None],
        "attempts": 1,
    })
    assert not hasattr(res, "__dict__")
    back = pickle.loads(pickle.dumps(res))
    assert np.array_equal(back.v, v) and np.array_equal(back.d, d)
    assert (back.residual, back.kappa_v, back.grid, back.depth,
            back.attempts) == (1e-9, 1.5, UNIT8, 2, 1)
    assert back.to_json() == res.to_json()


def test_result_compares_by_identity():
    n = 4
    g = sample_ginibre(n, Rng(n))
    res = eig_backward(g / op_norm(g), 0.05, EigParams(delta=0.05, theta=0.25),
                       Rng(n, (1,)))
    back = pickle.loads(pickle.dumps(res))
    # an element-wise comparison of V and D would raise here
    assert res == res and not res == back and res != back
