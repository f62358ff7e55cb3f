"""Matrix Market reading and writing (dense complex matrices), on numpy alone.

The format is that of Boisvert, Pozo & Remington, "The Matrix Market
Exchange Formats: Initial Design" (NIST, 1996). The reader takes the
'array' and 'coordinate' formats with 'real', 'integer' or 'complex'
values and 'general' symmetry; it rejects every other file, and every
malformed one, with ValueError (OSError when the file cannot be read).
The writer writes the 'array complex general' format.
"""

from __future__ import annotations

import numpy as np

#: numbers per entry, before a coordinate entry's two indices
_WIDTH = {"real": 1, "integer": 1, "complex": 2}


def read_matrix(path: str) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file.

    Real and integer input is promoted to complex. Coordinate files are
    densified with zeros for missing entries, and duplicate entries are
    summed in file order. Only 'general' symmetry is accepted, so a file
    never means more than what it literally stores. Comment lines may
    follow the banner; blank lines are skipped anywhere.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    banner = lines[0].split() if lines else []
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ValueError(f"{path} does not begin with a Matrix Market "
                         f"banner '%%MatrixMarket matrix <format> <field> "
                         f"<symmetry>'")
    obj, fmt, field, symmetry = (word.lower() for word in banner[1:])
    if obj != "matrix" or fmt not in ("array", "coordinate"):
        raise ValueError(
            f"unsupported Matrix Market object '{obj} {fmt}' in {path}; "
            f"only 'matrix array' and 'matrix coordinate' are accepted")
    if symmetry != "general":
        raise ValueError(
            f"unsupported Matrix Market symmetry '{symmetry}' in {path}; "
            f"only 'general' is accepted")
    if field == "pattern":
        raise ValueError(f"pattern-only Matrix Market file {path} has no values")
    if field not in _WIDTH:
        raise ValueError(f"unsupported Matrix Market field '{field}' in "
                         f"{path}; only 'real', 'integer' and 'complex' "
                         f"are accepted")

    rows = [line.split() for line in lines[1:] if line.strip()]
    start = 0
    while start < len(rows) and rows[start][0].startswith("%"):
        start += 1
    coordinate = fmt == "coordinate"
    size = _parse(rows[start:start + 1], np.int64, path).ravel()
    if size.size != 2 + coordinate or (size < 0).any():
        raise ValueError(f"{path} needs a size line of {2 + coordinate} "
                         f"non-negative integers, not {size.tolist()}")
    m, n = (int(k) for k in size[:2])
    count = int(size[2]) if coordinate else m * n
    entries = rows[start + 1:]
    width = 2 * coordinate + _WIDTH[field]
    if len(entries) != count or any(len(e) != width for e in entries):
        raise ValueError(f"{path} must hold {count} entries of {width} "
                         f"numbers, one a line")

    table = np.array(entries, dtype=str).reshape(count, width)
    x = _parse(table[:, 2 * coordinate:],
               np.int64 if field == "integer" else np.float64, path)
    values = (x.view(np.complex128) if field == "complex" else x)[:, 0]
    if coordinate:
        ij = _parse(table[:, :2], np.int64, path) - 1
        if ((ij < 0) | (ij >= (m, n))).any():
            raise ValueError(f"{path} has an entry outside its {m}x{n} shape")
        a = np.zeros((m, n), dtype=values.dtype)
        np.add.at(a, (ij[:, 0], ij[:, 1]), values)
    else:
        a = values.reshape(n, m).T
    # duplicates add in the field's own type (integers exactly), as scipy's
    # coo_matrix.toarray() did, and only the sums are promoted
    return np.ascontiguousarray(a, dtype=np.complex128)


def _parse(words, dtype, path: str) -> np.ndarray:
    """words, an array or nested list of number strings, as dtype."""
    try:
        return np.array(words, dtype=str).astype(dtype)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from None


def write_matrix(path: str, a) -> None:
    """Write a matrix to exactly path in Matrix Market 'array complex
    general' format, column by column, with 17 significant digits, which
    round-trip doubles exactly. A missing directory raises OSError."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array complex general\n{m} {n}\n")
        fh.writelines(f"{z.real:.16e} {z.imag:.16e}\n" for z in a.T.flat)
