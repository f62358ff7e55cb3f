import cmath
import importlib
import math
import types

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import _umath_linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (bench_input, certified_apollonius_params,
                      oracle_sign, random_nonnormal_matrix,
                      random_normal_matrix)
from specbisect import kernels
from specbisect.eig import EigParams, eig_backward
from specbisect.errors import PreconditionError, SingularMatrixError
from specbisect.kernels import UNIT_ROUNDOFF, fro_norm, singular_limit
from specbisect.randmat import Rng, sample_ginibre, sample_haar_unitary
from specbisect.sgn import (SgnParams, alpha_sequence, apollonius_contains,
                            condition_bounds_from_pseudospectrum,
                            eps_floor_sequence, mobius, newton_map,
                            pseudospectral_step, required_precision_sgn,
                            sgn, sgn_error_bound, sgn_iteration_count,
                            sgn_params_from_shattering)

# the package's `sgn` export is the function; the module is needed here
sgn_module = importlib.import_module("specbisect.sgn")


def test_mobius_values():
    assert mobius(1) == 0
    assert mobius(0) == 1
    assert mobius(1j) == pytest.approx(-1j)
    assert abs(mobius(1j)) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        mobius(-1)


def test_newton_map_values():
    assert newton_map(1) == 1
    assert newton_map(-1) == -1
    assert newton_map(2) == pytest.approx(1.25)
    with pytest.raises(ZeroDivisionError):
        newton_map(0)


def test_newton_squares_apollonius_modulus():
    assert abs(mobius(2)) == pytest.approx(1 / 3)
    assert abs(mobius(newton_map(2))) == pytest.approx(1 / 9)
    rng = np.random.default_rng(0)
    z = rng.uniform(-10, 10, 10_000) + 1j * rng.uniform(-10, 10, 10_000)
    z = z[np.abs(z.real) >= 1e-3]
    for zz in z[:2000]:
        want = abs(mobius(zz)) ** 2
        got = abs(mobius(newton_map(zz)))
        # absolute near the unit circle, relative where |m| blows up near -1
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_newton_fixes_halfplanes():
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z.real) < 1e-6 or z == 0:
            continue
        assert math.copysign(1, newton_map(z).real) == math.copysign(1, z.real)


def test_apollonius_contains():
    assert apollonius_contains(0.5, 1.0)
    assert apollonius_contains(0.5, -1.0)
    assert not apollonius_contains(0.99, 1j)
    alpha = 0.8
    center = (1 + alpha**2) / (1 - alpha**2)
    radius = 2 * alpha / (1 - alpha**2)
    assert apollonius_contains(alpha, center)
    assert apollonius_contains(alpha, center + radius * 0.999)
    assert not apollonius_contains(alpha, center + radius + 0.01)
    assert apollonius_contains(alpha, -center)  # mirrored disk


def test_iteration_count_example():
    # oracle first: hand evaluation of the closed form with lg = log2
    lg = math.log2
    raw = lg(10) + 3 * lg(lg(10)) + lg(lg(1e5)) + 7.59
    assert raw == pytest.approx(20.162, abs=5e-3)
    assert sgn_iteration_count(0.9, 0.01, 1e-3) == 21 == math.ceil(raw)


def test_iteration_count_monotone_in_beta():
    counts = [sgn_iteration_count(0.9, 0.01, b)
              for b in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_iteration_count_doubling():
    n1 = sgn_iteration_count(1 - 1e-3, 1e-6, 1e-6)
    n2 = sgn_iteration_count(1 - 5e-4, 1e-6, 1e-6)
    assert 0 <= n2 - n1 <= 2  # ~ +1 when 1/(1-alpha0) doubles


def test_alpha_sequence_closed_form():
    alpha0 = 0.9
    s = 1 - alpha0
    seq = alpha_sequence(alpha0, 20)
    for k, val in enumerate(seq):
        # closed form in log-space: (1+s/4)^(2^k - 1) * alpha0^(2^k)
        lg_closed = (2**k - 1) * math.log2(1 + s / 4) + 2**k * math.log2(alpha0)
        if lg_closed > -996:
            assert val == pytest.approx(2.0**lg_closed, rel=1e-9)
        else:
            assert val <= 2.0**-996


def test_eps_floor_sequence():
    seq = eps_floor_sequence(0.01, 0.9, 8)
    assert all(v > 0 for v in seq)
    assert all(b <= a for a, b in zip(seq, seq[1:]))
    # deep floors underflow doubles; they must never go negative
    deep = eps_floor_sequence(0.01, 0.9, 20)
    assert all(v >= 0 for v in deep)


def test_params_from_shattering():
    eps0, alpha0 = sgn_params_from_shattering(0.5, math.sqrt(128.0))
    assert eps0 == 0.25
    assert alpha0 == pytest.approx(1 - 1 / 256)
    eps0b, alpha0b = sgn_params_from_shattering(0.5, 4 * math.sqrt(2))
    assert alpha0b == pytest.approx(0.984375)
    # harder problem as eps -> 0
    assert sgn_params_from_shattering(1e-6, math.sqrt(128.0))[1] > alpha0


def test_error_bound_and_monotonicity():
    assert sgn_error_bound(0.5, 0.1) == pytest.approx(8 * 0.25 / (0.25 * 1.5 * 0.1))
    assert sgn_error_bound(1e-6, 0.1) < 1e-9
    assert sgn_error_bound(0.6, 0.1) > sgn_error_bound(0.5, 0.1)
    assert sgn_error_bound(0.5, 0.2) < sgn_error_bound(0.5, 0.1)


def test_pseudospectral_step():
    assert pseudospectral_step(0.5, 0.3, 1.0) == pytest.approx(0.009375)
    assert pseudospectral_step(0.5, 0.25, 1.0) == 0.0
    # with alpha' = (1+s/4) alpha^2 the step equals eps*s*alpha*(1-alpha^2)/32
    alpha, s = 0.9, 0.1
    alpha_next = (1 + s / 4) * alpha**2
    got = pseudospectral_step(alpha, alpha_next, 1.0)
    assert got == pytest.approx(s * alpha * (1 - alpha**2) / 32, rel=1e-12)
    with pytest.raises(ValueError):
        pseudospectral_step(0.5, 0.1, 1.0)


def test_required_precision_prefactor_floor():
    u_max, bits = required_precision_sgn(8, 1 - 1 / 256, 0.25, 0.05 / 8)
    n_steps = sgn_iteration_count(1 - 1 / 256, 0.25, 0.05 / 8)
    prefactor_bits = math.log2(2 * 80 * math.sqrt(8) * n_steps)
    assert bits >= prefactor_bits
    assert bits > 53  # worst-case analysis exceeds hardware doubles
    assert u_max == 0.0 or u_max == pytest.approx(2.0**-bits, rel=1e-9)


def test_required_precision_scaling():
    # bits ~ 2^(N+1) * lg(1/alpha0): halving s roughly halves lg(1/alpha0)
    # while N grows by ~1, so the ratio tracks 2^(N2-N1) * (s2/s1)
    s1, s2 = 2.0**-8, 2.0**-9
    n1 = sgn_iteration_count(None, 0.25, 1e-3, s=s1)
    n2 = sgn_iteration_count(None, 0.25, 1e-3, s=s2)
    _, bits1 = required_precision_sgn(8, s=s1, alpha0=None,
                                      eps0=0.25, beta=1e-3)
    _, bits2 = required_precision_sgn(8, s=s2, alpha0=None,
                                      eps0=0.25, beta=1e-3)
    predicted = 2.0 ** (n2 - n1) * (math.log1p(-s2) / math.log1p(-s1))
    assert bits2 / bits1 == pytest.approx(predicted, rel=0.01)
    assert bits2 != bits1 or n2 != n1


def test_condition_bounds():
    inv_b, norm_b = condition_bounds_from_pseudospectrum(0.5, 0.1)
    assert inv_b == pytest.approx(10.0)
    assert norm_b == pytest.approx(80.0)
    # sample check on diag(2, -3) with a certified pair
    a = np.diag([2.0, -3.0]).astype(complex)
    eps0 = 0.1
    alpha0 = certified_apollonius_params(a, eps0)
    inv_b, norm_b = condition_bounds_from_pseudospectrum(alpha0, eps0)
    assert np.linalg.norm(np.linalg.inv(a), 2) <= inv_b
    assert np.linalg.norm(a, 2) <= norm_b


def test_sgn_diagonal():
    a = np.diag([2.0, -3.0]).astype(complex)
    alpha0 = certified_apollonius_params(a, 0.01)
    s, trace = sgn(a, SgnParams(0.01, alpha0, 1e-10))
    assert np.abs(s - np.diag([1.0, -1.0])).max() <= 1e-10
    assert trace.n_steps >= 1


def test_sgn_involution_input():
    a = np.array([[1.0, 10.0], [0.0, -1.0]], dtype=complex)
    assert np.allclose(a @ a, np.eye(2))  # A^2 = I, so sgn(A) = A
    alpha0 = certified_apollonius_params(a, 1e-3)
    s, _ = sgn(a, SgnParams(1e-3, alpha0, 1e-8))
    assert np.abs(s - a).max() <= 1e-8


def test_sgn_against_oracle_nonnormal(rng):
    a, _, _ = random_nonnormal_matrix(8, rng, kappa_cap=20)
    want = oracle_sign(a)  # oracle first
    eps0 = 1e-3
    alpha0 = certified_apollonius_params(a, eps0)
    s, _ = sgn(a, SgnParams(eps0, alpha0, 1e-8))
    assert np.linalg.norm(s - want, 2) <= 1e-8


def test_sgn_involution_property(rng):
    a, _ = random_normal_matrix(6, rng)
    beta = 1e-9
    alpha0 = certified_apollonius_params(a, 1e-3)
    s, _ = sgn(a, SgnParams(1e-3, alpha0, beta))
    assert np.linalg.norm(s @ s - np.eye(6), 2) <= \
        10 * beta * (1 + np.linalg.norm(s, 2))


def test_sgn_spectrum_containment_normal(rng):
    # exact-arithmetic containment: Lambda(A_k) inside C_(alpha^(2^k))
    a, _ = random_normal_matrix(5, rng, re_min=0.5, radius=1.5)
    alpha0 = certified_apollonius_params(a, 1e-6)
    x = a.copy()
    alpha = alpha0
    for k in range(6):
        for lam in np.linalg.eigvals(x):
            assert apollonius_contains(min(alpha * 1.0001, 1 - 1e-12),
                                       complex(lam))
        x = 0.5 * (x + np.linalg.inv(x))
        alpha = alpha * alpha


def test_sgn_rejects_axis_spectrum():
    a = np.diag([1j, -1j]).astype(complex)  # purely imaginary spectrum
    with pytest.raises(PreconditionError):
        sgn(a, SgnParams(0.01, 0.9, 1e-6))


def test_sgn_pivot_between_caps_raises_precondition():
    # relative pivot 15u at n = 20, between the 10u and n*u bounds of an
    # LU pivot test: ||A||_F ||A^-1||_F ~ sqrt(19)/(15u) >= 1/(20u)
    a = np.eye(20, dtype=complex)
    a[-1, -1] = 15 * UNIT_ROUNDOFF
    with pytest.raises(PreconditionError) as exc:
        sgn(a, SgnParams(0.1, 0.9, 1e-3))
    assert isinstance(exc.value.__cause__, SingularMatrixError)


def test_sgn_stops_at_fixed_point():
    a = np.diag([2.0, -3.0]).astype(complex)
    s, trace = sgn(a, SgnParams(0.01, 0.99, 1e-10))
    assert np.array_equal(s, np.diag([1.0, -1.0]))
    assert trace.n_steps < trace.budget
    xs, _ = _reference_sgn(a, trace.budget)
    assert _same_bits(s, xs[-1])


def test_sgn_pivot_floor_small_n():
    # relative pivot 7u at n = 5, above n*u, so that of an LU pivot test
    # only its 10u floor catches it: ||A||_F ||A^-1||_F ~ 2/(7u) >= 1/(10u)
    a = np.eye(5, dtype=complex)
    a[-1, -1] = 7 * UNIT_ROUNDOFF
    with pytest.raises(PreconditionError) as exc:
        sgn(a, SgnParams(0.1, 0.9, 1e-3))
    assert isinstance(exc.value.__cause__, SingularMatrixError)


#: Newton budget of the fast-path comparisons: 28 steps
FAST_PATH_PARAMS = SgnParams(0.01, 0.99, 1e-6)


def _shifted_ginibre(n, seed=None):
    return sample_ginibre(n, Rng(n if seed is None else seed)) - 0.1 * np.eye(n)


def _clustered(n):
    """Q diag(d) Q* - 0.3 I, d cycling through {1, -1, i, -i}: four
    clusters of n/4 eigenvalues each, none on the imaginary axis."""
    q = sample_haar_unitary(n, Rng(n))
    d = np.array([1, -1, 1j, -1j])[np.arange(n) % 4]
    return (q * d) @ q.conj().T - 0.3 * np.eye(n)


FAST_PATH_INPUTS = {
    "ginibre-n2": lambda: _shifted_ginibre(2),
    "ginibre-n7": lambda: _shifted_ginibre(7),
    "ginibre-n24": lambda: _shifted_ginibre(24),
    "clustered-n12": lambda: _clustered(12),
}


def _reference_sgn(a, n_steps):
    """The two-factorization Newton loop: (iterates X_0..X_N, inverses of
    X_0..X_{N-1}) with a pivot check on one LU and lu_solve on another."""
    x = np.asarray(a, dtype=np.complex128)
    n = x.shape[0]
    xs, invs = [x], []
    for _ in range(n_steps):
        d = np.abs(np.diag(scipy.linalg.lu_factor(x, check_finite=False)[0]))
        assert d.max() / d.min() <= 1.0 / (10.0 * UNIT_ROUNDOFF)
        lu_piv = scipy.linalg.lu_factor(x, check_finite=False)
        xinv = scipy.linalg.lu_solve(lu_piv, np.eye(n, dtype=np.complex128),
                                     check_finite=False)
        x = 0.5 * (x + xinv)
        xs.append(x)
        invs.append(xinv)
    return xs, invs


def _same_bits(x, y):
    """Equal shapes and bits; unlike np.array_equal, -0.0 != 0.0."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("make", FAST_PATH_INPUTS.values(),
                         ids=FAST_PATH_INPUTS.keys())
def test_sgn_equals_two_factorization_loop(make):
    a = make()
    s, trace = sgn(a, FAST_PATH_PARAMS)
    n_budget = sgn_iteration_count(0.99, 0.01, 1e-6)
    xs, _ = _reference_sgn(a, n_budget)
    assert trace.budget == n_budget
    assert _same_bits(s, xs[n_budget])


#: shifted Ginibre inputs whose N-step runs under FAST_PATH_PARAMS end at
#: a fixed point, on a cycle of period 4 and without a repeat, pinned by a
#: seeded search over n = 3, 4
REPEAT_INPUTS = {
    "fixed-point": lambda: _shifted_ginibre(4, seed=30),
    "cycle": lambda: _shifted_ginibre(3, seed=23),
    "no-repeat": lambda: _shifted_ginibre(3, seed=0),
}


@pytest.mark.parametrize("kind", REPEAT_INPUTS)
def test_sgn_repeat_shortcut_equals_full_loop(kind):
    a = REPEAT_INPUTS[kind]()
    s, trace = sgn(a, FAST_PATH_PARAMS)
    xs, _ = _reference_sgn(a, trace.budget)
    assert _same_bits(s, xs[-1])
    if kind == "fixed-point":
        assert trace.n_steps < trace.budget
        assert _same_bits(xs[trace.n_steps], xs[trace.n_steps - 1])
    else:
        # only a fixed point stops the run: the cycle input's run ends with
        # X_N = X_{N-4} and still runs all N steps
        assert trace.n_steps == trace.budget
        assert _same_bits(xs[-1], xs[-5]) == (kind == "cycle")


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("kind", ["shifted-ginibre", "fixed-point-step-1"])
def test_sgn_never_writes_into_its_input(n, kind):
    # each step writes the next iterate into the inverse mat_inv returned;
    # the caller's complex128 array, which the gate passes through as it
    # is, stays X_0 and is never the result
    if kind == "shifted-ginibre":
        a = _shifted_ginibre(n)
    else:  # X_1 = (X_0 + X_0^-1)/2 = X_0: the run stops after one step
        a = np.diag([1.0, -1.0] * (n // 2) + [1.0] * (n % 2)).astype(complex)
    before = a.tobytes()
    s, trace = sgn(a, FAST_PATH_PARAMS)
    assert a.tobytes() == before
    assert not np.shares_memory(s, a)
    if kind == "fixed-point-step-1":
        assert trace.n_steps == 1 and _same_bits(s, a)


def test_sgn_repeat_needs_equal_bits(monkeypatch):
    # with every norm equal, only the bitwise check keeps sgn from stopping
    # at an iterate that is not a fixed point
    monkeypatch.setattr(sgn_module, "fro_norm", lambda x: 1.0)
    for make in REPEAT_INPUTS.values():
        a = make()
        s, trace = sgn(a, FAST_PATH_PARAMS)
        xs, _ = _reference_sgn(a, trace.budget)
        assert _same_bits(s, xs[-1])


@pytest.mark.parametrize("make", FAST_PATH_INPUTS.values(),
                         ids=FAST_PATH_INPUTS.keys())
def test_sgn_iterate_norms_bound_two_norms(make):
    a = make()
    _, trace = sgn(a, FAST_PATH_PARAMS)
    xs, invs = _reference_sgn(a, trace.n_steps)
    assert len(trace.iterate_norms) == trace.n_steps
    for (x_fro, inv_fro), x, xinv in zip(trace.iterate_norms, xs, invs):
        assert x_fro >= np.linalg.norm(x, 2)
        assert inv_fro >= np.linalg.norm(xinv, 2)


def test_sgn_overflowing_iterate_raises_precondition():
    # entries ~1e-310 leave A well conditioned, but the inverse overflows,
    # so X_1 = (X_0 + X_0^-1)/2 has non-finite entries
    a = 1e-310 * np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)
    with pytest.raises(PreconditionError, match="non-finite entries at "
                       "iterate 1"):
        sgn(a, FAST_PATH_PARAMS)


def test_sgn_overflowing_norm_is_not_a_non_finite_iterate():
    # X_1 = 0.75e308 I: ||X_1||_F = 4 * 0.75e308 overflows while every
    # entry is finite, and the run goes on, as an entrywise check lets it
    a = 1.5e308 * np.eye(16, dtype=complex)
    s, trace = sgn(a, FAST_PATH_PARAMS)
    assert trace.iterate_norms[1][0] == math.inf
    xs, _ = _reference_sgn(a, trace.budget)
    assert _same_bits(s, xs[-1])


def test_sgn_hot_path_one_lu_no_svd(monkeypatch):
    # one call of numpy's inv gufunc (zgesv: LU and solve in one LAPACK
    # call) per step, made in sgn's own loop, and no SVD; a step that
    # passes the singularity test never reaches mat_inv's verdict
    inputs = [make() for make in FAST_PATH_INPUTS.values()]
    calls = []

    def inv(*args, **kwargs):
        calls.append(kwargs["signature"])
        return _umath_linalg.inv(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the sgn hot path")

    # every other gufunc, the SVDs included, is missing from the namespace
    only_inv = types.SimpleNamespace(inv=inv)
    monkeypatch.setattr(sgn_module, "_umath_linalg", only_inv)
    monkeypatch.setattr(kernels, "_umath_linalg", only_inv)
    for name in ("inv", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("mat_inv", "op_norm", "op_norm_inv_safe",
                 "lu_pivot_extremes"):
        monkeypatch.setattr(sgn_module, name, forbidden)
    for a in inputs:
        calls.clear()
        _, trace = sgn(a, FAST_PATH_PARAMS)
        assert calls == ["D->D"] * trace.n_steps


def _record_verdicts(monkeypatch):
    """The iterate norms sgn passes to mat_inv, call by call."""
    verdicts = []

    def recorded(x, x_fro):
        verdicts.append(x_fro)
        return kernels.mat_inv(x, x_fro)

    monkeypatch.setattr(sgn_module, "mat_inv", recorded)
    return verdicts


@pytest.mark.parametrize("kind,n,i", [("clustered", 24, 0),
                                      ("clustered", 24, 1),
                                      ("ginibre", 48, 0)])
def test_sgn_calls_of_whole_solves_equal_the_reference_loop(monkeypatch,
                                                            kind, n, i):
    # every sgn call of a seed-1 benchmark solve: S and each recorded norm
    # are the two-factorization loop's, bit for bit, and no step reaches
    # mat_inv's verdict
    split_module = importlib.import_module("specbisect.split")
    original, calls = split_module.sgn, []

    def captured(a, params):
        s, trace = original(a, params)
        calls.append((a.copy(), params, s.copy(), trace))
        return s, trace

    monkeypatch.setattr(split_module, "sgn", captured)
    verdicts = _record_verdicts(monkeypatch)
    a, rng = bench_input(kind, n, i)
    eig_backward(a, 0.05, EigParams(delta=0.05, theta=1 / n), rng)
    assert len(calls) >= n - 1 and verdicts == []
    for x0, params, s, trace in calls:
        xs, invs = _reference_sgn(x0, trace.budget)
        assert _same_bits(s, xs[-1])
        assert trace.iterate_norms == [
            (fro_norm(x), fro_norm(xinv))
            for x, xinv in zip(xs[:trace.n_steps], invs)]


def _pivot_15u(n=20):
    a = np.eye(n, dtype=complex)
    a[-1, -1] = 15 * UNIT_ROUNDOFF
    return a


#: one input per branch of mat_inv's verdict: it raises, or it lets an
#: overflow through and sgn's finiteness check stops the run at the next
#: iterate, or the run goes on
VERDICT_INPUTS = {
    "singular": _pivot_15u,
    "overflowing-inverse": lambda: 1e-310 * np.array(
        [[1.0, 0.5], [0.25, 1.0]], dtype=complex),
    "overflowing-norm": lambda: 1.5e308 * np.eye(16, dtype=complex),
}


@pytest.mark.parametrize("kind", VERDICT_INPUTS)
def test_sgn_verdicts_go_through_mat_inv(monkeypatch, kind):
    verdicts = _record_verdicts(monkeypatch)
    a = VERDICT_INPUTS[kind]()
    if kind == "singular":
        with pytest.raises(PreconditionError, match="iterate 0 is "
                           "singular") as exc:
            sgn(a, FAST_PATH_PARAMS)
        assert isinstance(exc.value.__cause__, SingularMatrixError)
        assert verdicts == [fro_norm(a)]
    elif kind == "overflowing-inverse":
        with pytest.raises(PreconditionError, match="non-finite entries at "
                           "iterate 1"):
            sgn(a, FAST_PATH_PARAMS)
        assert verdicts == [fro_norm(a)]
    else:  # ||X_0||_F and ||X_1||_F overflow; the entries stay finite
        s, trace = sgn(a, FAST_PATH_PARAMS)
        limit = singular_limit(16)
        assert [k for k, (x_fro, inv_fro) in enumerate(trace.iterate_norms)
                if not x_fro * inv_fro < limit] == [0, 1]
        assert verdicts == [math.inf, math.inf]
        xs, _ = _reference_sgn(a, trace.budget)
        assert _same_bits(s, xs[-1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.integers(1, 6).flatmap(lambda n: arrays(
           np.complex128, (n, n), elements=st.complex_numbers(
               max_magnitude=4.0, allow_nan=False, allow_infinity=False))),
       eps0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       alpha0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       beta=st.floats(0.0, 1.0 / 12.0, exclude_min=True, exclude_max=True))
def test_sgn_finite_or_precondition_error(a, eps0, alpha0, beta):
    try:
        s, trace = sgn(a, SgnParams(eps0, alpha0, beta))
    except PreconditionError:
        return
    assert np.isfinite(s).all()
    assert 1 <= trace.n_steps == len(trace.iterate_norms) <= trace.budget


# diag(+-2) plus entries of modulus <= 1, and alpha0 >= 0.99 (N >= 25):
# most calls reach a fixed point within the budget and stop there, and
# about one in twenty ends on a cycle of period >= 2 and runs all N steps
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.integers(1, 6).flatmap(lambda n: st.tuples(
           arrays(np.complex128, (n, n), elements=st.complex_numbers(
               max_magnitude=1.0, allow_nan=False, allow_infinity=False)),
           arrays(np.bool_, n))).map(
               lambda t: t[0] + np.diag(np.where(t[1], 2.0, -2.0))),
       eps0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       alpha0=st.floats(0.99, 1.0, exclude_max=True),
       beta=st.floats(0.0, 1.0 / 12.0, exclude_min=True, exclude_max=True))
def test_sgn_equals_full_loop_property(a, eps0, alpha0, beta):
    try:
        s, trace = sgn(a, SgnParams(eps0, alpha0, beta))
    except PreconditionError:
        return
    xs, _ = _reference_sgn(a, trace.budget)
    assert _same_bits(s, xs[-1])
