import os

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_MTX
from specbisect.mmio import read_matrix, write_matrix


def test_roundtrip_exact(tmp_path, rng):
    a = rng.standard_normal((2, 5, 5))
    m = a[0] + 1j * a[1]
    path = tmp_path / "m.mtx"
    write_matrix(str(path), m)
    back = read_matrix(str(path))
    assert back.dtype == np.complex128
    assert np.array_equal(back, m)


def test_real_promoted_to_complex(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0.5\n-2\n")
    m = read_matrix(str(path))
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.array([[1.0, 0.5], [0.0, -2.0]]))


def test_coordinate_densified(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
        "1 1 4.0\n3 2 -1.0\n")
    m = read_matrix(str(path))
    assert m.shape == (3, 3)
    assert m[0, 0] == 4.0 and m[2, 1] == -1.0
    assert np.count_nonzero(m) == 2


def test_rejects_symmetric_and_pattern(tmp_path):
    sym = tmp_path / "s.mtx"
    sym.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n"
        "1 1 1.0\n2 1 3.0\n")
    with pytest.raises(ValueError, match="symmetry"):
        read_matrix(str(sym))
    pat = tmp_path / "p.mtx"
    pat.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
    with pytest.raises(ValueError, match="pattern"):
        read_matrix(str(pat))


def test_missing_file():
    with pytest.raises((OSError, ValueError)):
        read_matrix("/nonexistent/nowhere.mtx")


def test_missing_directory_raises_and_writes_nothing(tmp_path):
    with pytest.raises(OSError):
        write_matrix(str(tmp_path / "missing" / "m.mtx"), np.eye(2))
    assert list(tmp_path.iterdir()) == []


def test_writes_exactly_the_given_path(tmp_path):
    path = tmp_path / "sign"
    write_matrix(str(path), np.eye(2))
    assert os.listdir(tmp_path) == ["sign"]
    assert np.array_equal(read_matrix(str(path)), np.eye(2))


@pytest.mark.parametrize("name", BAD_MTX)
def test_rejects_with_value_error(tmp_path, name):
    path = tmp_path / "bad.mtx"
    path.write_text(BAD_MTX[name])
    with pytest.raises(ValueError):
        read_matrix(str(path))


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n% a comment\n"
                    "\n%\n2 1\n\n  1.5\n-2\n\n")
    assert np.array_equal(read_matrix(str(path)), np.array([[1.5], [-2.0]]))


def test_keeps_the_sign_of_zero(tmp_path):
    # scipy's reader (1.17) drops it; a written matrix reads back bit for bit
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
    path = tmp_path / "z.mtx"
    write_matrix(str(path), m)
    assert read_matrix(str(path)).tobytes() == m.tobytes()


def _same_bits(x, y):
    return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _scipy_read(path):
    """What read_matrix returned when it called scipy: mmread, densified,
    as complex128."""
    m = scipy.io.mmread(path)
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return np.asarray(m, dtype=np.complex128)


def _wide(g, shape):
    """Doubles with random signs and magnitudes from 1e-300 to 1e300."""
    return g.standard_normal(shape) * 10.0 ** g.integers(-300, 301, shape)


def _coo(g, shape, data):
    """A sparse matrix holding data at random positions, with at least one
    index pair repeated."""
    i = g.integers(0, shape[0], data.size)
    j = g.integers(0, shape[1], data.size)
    i[-1], j[-1] = i[0], j[0]
    return scipy.sparse.coo_matrix((data, (i, j)), shape=shape)


#: each kind of file scipy writes: a function of a generator and a shape
#: returning what to pass to scipy.io.mmwrite
SCIPY_WRITES = {
    "array real": _wide,
    "array complex": lambda g, shape: _wide(g, shape) + 1j * _wide(g, shape),
    "array integer": lambda g, shape: g.integers(-2**62, 2**62, shape),
    "coordinate real": lambda g, shape: _coo(g, shape, _wide(g, 9)),
    "coordinate complex": lambda g, shape: _coo(
        g, shape, _wide(g, 9) + 1j * _wide(g, 9)),
    "coordinate integer": lambda g, shape: _coo(
        g, shape, g.integers(-2**62, 2**62, 9)),
}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", SCIPY_WRITES)
def test_reads_scipy_files_as_scipy_did(tmp_path, kind, seed):
    g = np.random.default_rng(seed)
    shape = tuple(int(k) for k in g.integers(1, 8, 2))
    path = str(tmp_path / "s.mtx")
    scipy.io.mmwrite(path, SCIPY_WRITES[kind](g, shape), symmetry="general")
    with open(path) as fh:
        assert fh.readline().split()[2:4] == kind.split()
    assert _same_bits(read_matrix(path), _scipy_read(path))


@pytest.mark.parametrize("seed", range(8))
def test_scipy_reads_what_it_writes(tmp_path, seed):
    g = np.random.default_rng(seed)
    m = _wide(g, (5, 3)) + 1j * _wide(g, (5, 3))
    m[0, :] = [np.inf, complex(0.0, -np.inf),
               complex(5e-324, 1.7976931348623157e308)]
    path = str(tmp_path / "w.mtx")
    write_matrix(path, m)
    assert _same_bits(np.asarray(scipy.io.mmread(path)), m)


_VALID_MTX = [
    "%%MatrixMarket matrix array complex general\n2 2\n"
    "1.0e+00 -2.5e-01\n0.0e+00 3.0e+00\n4.0e+00 0.0e+00\n-1.0e+00 1.0e+00\n",
    "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 3\n"
    "1 1 4.0\n3 2 -1.5\n1 1 2.0\n",
    "%%MatrixMarket matrix array integer general\n2 1\n7\n-3\n",
]

_GARBLE = st.lists(
    st.tuples(st.sampled_from(["cut", "drop", "put", "swap"]),
              st.floats(0.0, 1.0), st.sampled_from(" \n%x-.9e+")),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.sampled_from(_VALID_MTX), edits=_GARBLE)
def test_garbled_files_raise_only_value_error(tmp_path_factory, text, edits):
    for op, where, char in edits:
        k = int(where * len(text))
        text = {"cut": text[:k], "drop": text[:k] + text[k + 1:],
                "put": text[:k] + char + text[k:],
                "swap": text[:k] + char + text[k + 1:]}[op]
    path = tmp_path_factory.getbasetemp() / "garbled.mtx"
    path.write_text(text)
    try:
        m = read_matrix(str(path))
    except ValueError:
        return
    assert m.dtype == np.complex128 and m.ndim == 2
