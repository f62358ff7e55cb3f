"""Matrix Market reading and writing (dense complex matrices).

scipy.io and scipy.sparse are imported by the two functions, not with the
module: they load well over a hundred scipy modules, which the CLI
commands that read no matrix should not pay for.
"""

from __future__ import annotations

import numpy as np


def read_matrix(path: str) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file.

    Real input is promoted to complex; coordinate files are densified with
    zeros for missing entries. Only 'general' symmetry is accepted, so a
    file never means more than what it literally stores.
    """
    import scipy.io
    import scipy.sparse

    _, _, _, _, field, symmetry = scipy.io.mminfo(path)
    if symmetry != "general":
        raise ValueError(
            f"unsupported Matrix Market symmetry '{symmetry}' in {path}; "
            f"only 'general' is accepted")
    if field == "pattern":
        raise ValueError(f"pattern-only Matrix Market file {path} has no values")
    m = scipy.io.mmread(path)
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return np.asarray(m, dtype=np.complex128)


def write_matrix(path: str, a) -> None:
    """Write a dense complex matrix in Matrix Market array format with
    enough digits (17 significant) to round-trip doubles exactly."""
    import scipy.io

    a = np.asarray(a, dtype=np.complex128)
    scipy.io.mmwrite(path, a, precision=17, symmetry="general")
