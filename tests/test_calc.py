import math

import numpy as np
import pytest

from specbisect.calc import (deflate_failure_bound, kappa_sign_estimate,
                             one_step_error_bound, prelim_n_bound, report)
from specbisect.errors import PreconditionError


def test_prelim_n_bound_example():
    # oracle first: hand evaluation at t = 1/1000, c = 1/4
    t, c = 1e-3, 0.25
    lg = math.log2
    raw = lg(1 / t) + 2 * lg(lg(1 / t)) + lg(lg(1 / c)) + 1.62
    assert math.ceil(raw) == 20
    assert prelim_n_bound(t, c) == 20


def test_prelim_n_bound_self_verification():
    # the returned j satisfies (1-t)^(2^j) / t^(2j) < c in log-space
    for t, c in ((1e-3, 0.25), (1e-4, 0.1), (1e-5, 0.01), (1 / 801, 0.49)):
        j = prelim_n_bound(t, c)
        lg_val = 2.0**j * math.log2(1 - t) - 2 * j * math.log2(t)
        assert lg_val < math.log2(c)


def test_prelim_n_bound_monotone():
    js = [prelim_n_bound(t, 0.25) for t in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert js == sorted(js)
    assert prelim_n_bound(1e-4, 0.01) >= prelim_n_bound(1e-4, 0.25)


def test_prelim_n_bound_ranges():
    with pytest.raises(PreconditionError):
        prelim_n_bound(0.01, 0.25)  # t too large
    with pytest.raises(PreconditionError):
        prelim_n_bound(1e-3, 0.6)


def test_one_step_error_bound_value():
    # oracle first: direct arithmetic at n = 4, kappa = 10 with c_INV = 1,
    # mu_INV(4) = 40 and u = 2^-53
    n, kappa = 4, 10.0
    na, ninv = 2.0, 5.0
    kpow = kappa ** (1 * math.log2(n))
    want = (na + ninv + 40 * kpow * ninv) * 4 * math.sqrt(n) * 2.0**-53
    got = one_step_error_bound(na, ninv, kappa, n)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0


def test_one_step_error_bound_overflow_guard():
    v = one_step_error_bound(1.0, 1e15, 1e300, 64)
    assert v == math.inf
    with pytest.raises(PreconditionError):
        one_step_error_bound(0.0, 1.0, 1.0, 2)


def test_deflate_failure_bound_values():
    # oracle first: (20n)^3 sqrt(b)/eta^2 and 6000 n^3 sqrt(b)/eta^2
    n, b, eta = 4, 1e-8, 1e-2
    box_want = 80.0**3 * 1e-4 / 1e-4
    app_want = 6000.0 * 64 * 1e-4 / 1e-4
    box, appendix = deflate_failure_bound(n, b, eta)
    assert box == pytest.approx(min(1.0, box_want))
    assert appendix == pytest.approx(min(1.0, app_want))
    # a genuinely sub-1 case
    box2, app2 = deflate_failure_bound(4, 1e-20, 1e-2)
    assert box2 == pytest.approx(80.0**3 * 1e-10 / 1e-4)
    assert app2 == pytest.approx(6000.0 * 64 * 1e-10 / 1e-4)
    with pytest.raises(PreconditionError):
        deflate_failure_bound(4, 0.5, 1e-2)


@pytest.mark.parametrize("n", [0, -3])
def test_deflate_failure_bound_rejects_n_below_1(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        deflate_failure_bound(n, 0.01, 0.5)


def test_deflate_failure_bound_ordering():
    # (20n)^3 = 8000 n^3 >= 6000 n^3, so box >= appendix before clamping
    box, appendix = deflate_failure_bound(8, 1e-18, 0.5)
    assert box >= appendix


def test_kappa_sign_diagonal():
    # oracle: axis distance of diag(2, -3) is exactly 2
    a = np.diag([2.0, -3.0]).astype(complex)
    k = kappa_sign_estimate(a)
    assert k == pytest.approx(1.0 / 4.0, rel=1e-3)


def test_kappa_sign_jordan_inflation():
    # a large off-diagonal entry shrinks the axis distance well below
    # the eigenvalue distance min|Re lambda| = 1
    a = np.array([[1.0, 100.0], [0.0, -1.0]], dtype=complex)
    k = kappa_sign_estimate(a)
    assert k > 100.0  # axis distance < 0.1
    b = np.diag([1.0, -1.0]).astype(complex)
    assert kappa_sign_estimate(b) == pytest.approx(1.0, rel=1e-3)
    assert k > kappa_sign_estimate(b)


def test_kappa_sign_rejects_axis_spectrum():
    with pytest.raises(PreconditionError):
        kappa_sign_estimate(np.diag([1j, -1j]).astype(complex))


def test_report_flags():
    r = report("x", {"n": 2}, 1.5)
    assert r.in_hardware_range
    assert report("x", {}, 1e-310).in_hardware_range is False  # subnormal
    assert report("x", {}, math.inf).in_hardware_range is False
    assert report("x", {}, 0.0).in_hardware_range
    d = r.to_json()
    assert d["name"] == "x" and d["value"] == 1.5
