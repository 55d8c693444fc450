"""Numbers as CSV bytes, for the trace CSV and the beam-pattern CSVs.

A cell matrix holds each cell's text as a row of uint8 bytes, padded
with NULs; its leading axes are the cells' shape.
"""

import numpy as np


def digit_cells(counts, places: int = 0) -> np.ndarray:
    """The text of ``counts / 10**places`` for non-negative integers
    ``counts``: ``places`` digits after the point (no point for 0) and at
    least one before it, NUL-padded on the left to one width."""
    counts = np.asarray(counts)
    top = int(counts.max()) if counts.size else 0
    n_int = max(1, len(str(top)) - places)
    point = n_int if places else -1
    cells = np.empty((*counts.shape, n_int + places + (places > 0)), np.uint8)
    # Narrow unsigned integers divide fastest, and // with - beats np.divmod.
    rest = counts.astype(np.min_scalar_type(top))
    for j in reversed(range(cells.shape[-1])):
        if j != point:
            quotient = rest // 10
            cells[..., j] = rest - quotient * 10
            rest = quotient
    cells += ord("0")
    if places:
        cells[..., point] = ord(".")
    for j in range(n_int - 1):
        cells[counts < 10 ** (n_int + places - 1 - j), j] = 0
    return cells


def fixed4_cells(values) -> np.ndarray:
    """``f"{v:.4f}"`` of each value as a NUL-padded row of bytes.

    ``rint(v * 1e4)`` is the correctly rounded count of ten-thousandths
    wherever it is taken: for ``|v| < 1e5`` the float product is within
    6e-8 of the exact one (3e-10 for the gain cells, ``|v| < 302``), so it
    rounds the same way unless the exact product is that close to a
    half-integer.  A product within 1e-6 of one, or a value not below 1e5
    in magnitude (NaN included), is formatted by Python instead.  The sign
    is the sign bit, so ``-0.0`` and ``-1e-9`` give ``-0.0000``.
    """
    values = np.asarray(values, dtype=float)
    scaled = values * 1e4
    with np.errstate(invalid="ignore"):  # inf - inf: such a value is not exact anyway
        exact = (np.abs(values) < 1e5) & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
    digits = digit_cells(np.abs(np.rint(np.where(exact, scaled, 0.0))).astype(np.int64), 4)
    inexact = np.flatnonzero(~exact).tolist()
    texts = [format(values.flat[k], ".4f").encode() for k in inexact]
    width = digits.shape[-1]
    cells = np.zeros((*values.shape, max([width + 1, *map(len, texts)])), np.uint8)
    cells[..., 0] = np.where(np.signbit(values), ord("-"), 0)
    cells[..., 1 : width + 1] = digits
    rows = cells.reshape(-1, cells.shape[-1])
    for k, text in zip(inexact, texts):
        rows[k] = 0
        rows[k, : len(text)] = np.frombuffer(text, np.uint8)
    return cells


def text_lines(*parts) -> np.ndarray:
    """One line per row of the first part, a cell matrix: the rows of each
    cell matrix in ``parts`` side by side, each ``bytes`` part as it is
    between them, and no NULs.  The result is a flat uint8 array, which a
    binary file writes as it is; each part is copied once into one
    preallocated matrix."""
    parts = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p for p in parts]
    lines = np.empty((len(parts[0]), sum(part.shape[-1] for part in parts)), np.uint8)
    end = 0
    for part in parts:
        lines[:, end : end + part.shape[-1]] = part
        end += part.shape[-1]
    return lines[lines != 0]
