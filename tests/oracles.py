"""Oracles that only the tests use, kept out of the package: the
reduced form of an elimination, the A rows of a split at full width,
and the exact kernel directions of the curvature form."""

import numpy as np

from chowcert.geometry import DEGREE
from chowcert.matrix import FfMatrix, _rref_naive


def reduced_form(res) -> FfMatrix:
    """The reduced row echelon form of the matrix `res` eliminated,
    padded with zero rows to `res.rows`: the naive reduction of all its
    echelon rows, U and, after a split, the A rows (`shifted_dense`).
    They have the matrix's row space and pivots, so this is its
    canonical reduced form, whichever path produced them."""
    rows = res.upper
    if res.shifted is not None:
        schur = np.zeros((len(rows), res.cols), dtype=np.int64)
        schur[:, res.shifted.rest] = rows
        rows = np.vstack([shifted_dense(res.shifted), schur])
    reduced, _ = _rref_naive(rows, res.modulus.value)
    full = np.zeros((res.rows, res.cols), dtype=np.int64)
    full[: res.rank] = reduced[: res.rank]
    return FfMatrix(full, res.modulus)


def shifted_dense(shifted) -> np.ndarray:
    """Every row of a `ShiftedRows` at full width, as int64."""
    out = np.zeros((shifted.lead.size, shifted.cols), dtype=np.int64)
    np.put_along_axis(
        out, shifted.shifts[shifted.var], shifted.basis[shifted.row], axis=1
    )
    return out


def scaling_fiber_directions(point) -> list[np.ndarray]:
    """Exact kernel vectors of the contracted curvature form.

    Rescaling (L_0, L_1) to (t L_0, L_1 / t) fixes the product, so the
    parameter directions (L_0, -L_1, 0) and (L_0, 0, -L_2) must be
    annihilated by the form for any normal vector.
    """
    n = point.n
    m = point.modulus.value
    out = []
    for other in (1, 2):
        vec = np.zeros(DEGREE * (n + 1), dtype=np.int64)
        vec[0 : n + 1] = point.forms[0].coords
        vec[other * (n + 1) : (other + 1) * (n + 1)] = (
            -point.forms[other].coords
        ) % m
        out.append(vec)
    return out
