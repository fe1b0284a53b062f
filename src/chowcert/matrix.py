"""Dense exact linear algebra over Z_m.

Rank, row echelon data with pivot bookkeeping, kernel vectors, products,
and Kronecker products.  Two interchangeable elimination/multiplication
paths exist: a plain one (`naive=True`), kept as the testing oracle, and
a panel-blocked one whose bulk updates are exact dgemm calls.

The blocked elimination stops at row echelon form: rank, pivots and the
unit-upper rows U, which is all that rank tests and kernel vectors need.
It takes the rows in the order given: the matrices it eliminates (the
quadrics, the Schur complement of a split, the Hessian) are dense, with
nearly every row nonzero from the first columns on.  There is no
Gauss-Jordan back pass: kernel vectors come from back-substitution
over U.  Pivots and the kernel vector with given free coordinates are
canonical, so both paths return bit-identical results.

Entries live in int64 arrays; moduli below 2^31 are supported.  Every
product is a float64 dgemm kept exact, below 2^53: one plain dgemm when
the inner dimension and the modulus allow it, otherwise the operand with
fewer entries is split into 16-bit limbs, one dgemm per limb
(`_mod_matmul`).  The modulus and the most products a value collects
before it is read pick the kernels, once per elimination (`_regime`).
Where the modulus's budget covers those products, the elimination runs
in float64 with deferred reduction to balanced residues, |r| < m,
which are made canonical once, when U is converted to int64: a value
is reduced only when it is read.  Otherwise ("eager"), it reduces
every operand in int64 and forms every product with `_mod_matmul`.
In float64 the update right of each outer panel of
`_OUTER` columns is delayed into one dgemm of inner dimension up to
`_OUTER`, which runs much nearer the host's dgemm peak than the
updates of inner dimension `DEFAULT_BLOCK` of the int64 outer panels.
The matrix is eliminated transposed, one row per column, so a column
is contiguous, and each outer panel is a view of it with everything
right of it (`_factor_panel`): its columns are halved, the left half
is factored, its pivots reach the right half, and the right half is
factored.  The leaves are sub-panels of `_SUB` columns, factored column
by column with as few numpy calls per pivot as the loop allows: the
candidate pivot is tested as a scalar and the column searched only when
it is zero, a row swap is one column swap of the transposed matrix, the
pivot row is scaled in Python integers, and the rank-1 update stays
within the sub-panel.  No pivot row is solved on its own: each outer
panel keeps one solve matrix, the inverse of its pivots' lower factor,
which the recursion builds as it goes: a leaf writes its diagonal
block, and a node whose halves are factored the block that joins them,
by two products.  The pivots of a left half reach its right half, and
those of a whole outer panel the columns right of it, by one routine
(`_carry`): their rows are solved by one product with their diagonal
block, and their multiples subtracted by another.  The block sizes and
the number format are the elimination's own.

A matrix may eliminate itself by its structure (the `FfMatrix._echelon`
hook).  A Macaulay matrix, one row x_i w per variable x_i and row w of a
basis, is eliminated by its A|B / C|D split, as in Groebner-basis
linear algebra (`_split_echelon`): with the basis in reduced echelon
form W', which two passes of the blocked elimination produce, the
second over the first's rows reversed (`_reduced_echelon`), the rows
x_i w'_j that start a new column (A, `ShiftedRows`)
are already in echelon form with pivot 1 and are never written out; the
others (C) are reduced to zero on A's leading columns, left-looking,
one product per variable, and only their Schur complement D' is
eliminated, by the same blocked kernel.  No C row's multipliers or row
of D' depend on another C row, so C is never held whole: it is written
and reduced one tile of rows at a time (`_C_TILE`), transposed, its
entries on A's leading columns into one tile of X's columns and the
others straight into D', which is allocated once, transposed as the
blocked kernel takes it.  Only D', one tile of X and the operands every
tile reuses are held, each operand once however many products share
it.  The pivots are A's leading columns and D''s pivots, the kernel
vector comes from back-substitution over D' and then over A, and both
stay canonical.
A's unit triangle is nearly flat: few of its rows depend on others,
and chains of dependent rows are short (at most 3 levels above the
first at seed 77, n = 6 to 40).  So both solves with it, for C's
multipliers and for the kernel vector, walk one schedule of A's rows by
dependency level, which the shifts alone decide (`ShiftedRows.levels`;
Anderson and Saad, 1989): the multipliers by one product per variable
and level above the first, the kernel vector's coordinates by the rows'
dots, level by level in reverse.  Neither inverts the triangle or
solves within a level.  The Schur product is the last stage of the
multipliers' schedule, above every level: one product per variable, of
all its A rows, into the tile's rows of D' (`_stages`, `_run_stages`).
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .field import PrimeModulus, _check_kernel_modulus, _check_same_modulus

# Columns per outer panel of the eager elimination (`_regime`), and rows
# per block of the back-substitutions of kernel vectors.
DEFAULT_BLOCK = 64

_F64_EXACT = 2**53 - 1
# Limb base of the split products in `_mod_matmul`.
_LIMB = 1 << 16
# Entries per row tile of a carry (`_carry`) and of U's conversion to
# int64 (2 MB of float64): each tile's product is subtracted while it is
# still in cache.
_TILE = 1 << 18
# Entries per chunk (256 KB of float64): a split writes a tile of C rows
# and reduces its Schur complement in row chunks, so their temporaries
# stay small beside the arrays they change.
_CHUNK = 1 << 15
# Columns per sub-panel, the leaves of `_factor_panel`: rank-1 updates
# stay within one.
_SUB = 8
# Columns per outer panel in float64 (`DEFAULT_BLOCK` in int64): the
# update right of an outer panel is one dgemm of inner dimension up to
# `_OUTER`.
_OUTER = 256
# Bytes per tile of C rows in a split (`_split_echelon`): C is written
# and reduced one tile of its rows at a time, never whole.  A tile holds
# at least `_C_TILE_ROWS` rows, the width of its products: at n=50 (C
# rows of 23426 columns), tiles of 44 rows made the split 20% slower
# than holding C whole, and tiles of 250 rows 4% faster.
_C_TILE = 1 << 23
_C_TILE_ROWS = 256
# glibc raises its mmap threshold to the largest block freed so far (up
# to 32 MB), so after the first elimination the Terracini-sized arrays
# come from the heap; how much of the heap stays resident then depends on
# the order of earlier frees and on whether huge pages back it, and peak
# memory varies from run to run.  Fixed thresholds keep every block of
# 4 MB or more (from which numpy asks for huge pages) in a mapping of its
# own, returned when freed.
_MMAP_THRESHOLD = 1 << 22
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _fix_malloc_thresholds() -> None:
    """Set glibc's mmap and trim thresholds; a no-op on other C libraries."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()


def _mod_matmul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact (a @ b) % m for int64 operands with entries in [0, m).

    Every product is a float64 dgemm whose sums stay below 2^53, so they
    are exact.  Direct: one dgemm when inner (m-1)^2 < 2^53.  Split,
    whenever the direct path would have to chunk the inner dimension:
    the operand with fewer entries is cut into 16-bit limbs,
    x = x1 2^16 + x0, and each limb has one dgemm against the other
    operand, `chunk` inner indices at a time with
    chunk (2^16-1)(m-1) < 2^53.  The high limb's product is reduced
    mod m, and the two combine as hi (2^16 mod m) + lo in int64.  The
    path depends on (m, inner) alone.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    if inner == 0 or rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    if inner * (m - 1) ** 2 <= _F64_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % m
    chunk = _F64_EXACT // ((_LIMB - 1) * (m - 1))
    split_a = a.size <= b.size
    acc = None
    for s in range(0, inner, chunk):
        x, y = a[:, s : s + chunk], b[s : s + chunk]
        whole = (y if split_a else x).astype(np.float64)
        cut = x if split_a else y
        # one dgemm per limb, accumulated in place, keeps the live
        # temporaries to three result-sized arrays
        part = _limb_product(cut >> 16, whole, split_a)
        part %= m
        part *= _LIMB % m
        part += _limb_product(cut & (_LIMB - 1), whole, split_a)
        if acc is not None:
            part += acc
        part %= m
        acc = part
    return acc


def _limb_product(limb: np.ndarray, whole: np.ndarray, left: bool) -> np.ndarray:
    """limb @ whole (or whole @ limb) as int64; exact, see `_mod_matmul`."""
    f = limb.astype(np.float64)
    return (f @ whole if left else whole @ f).astype(np.int64)


def _matmul_naive(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Reference product: rank-1 accumulation, reduced after every step."""
    rows, inner = a.shape
    cols = b.shape[1]
    acc = np.zeros((rows, cols), dtype=np.int64)
    for k in range(inner):
        acc = (acc + np.outer(a[:, k], b[k])) % m
    return acc


def _rref_naive(data: np.ndarray, m: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination, one pivot at a time over the full width."""
    a = data.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, m) % m
        factors = a[:, c].copy()
        factors[r] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            a[hit] = (a[hit] - np.outer(factors[hit], a[r])) % m
        pivots.append(c)
        r += 1
    return a, pivots


def _reduce_i64(x: np.ndarray, m: int) -> None:
    x %= m


class _ReduceF64:
    """Exact in-place balanced reduction for integer-valued float64 arrays.

    x - rint(x / m) m, with a multiply by the precomputed reciprocal:
    four ufunc calls, one temporary.  The rounded quotient q is within
    1/2 + |x / m| 2^-52 of x / m, so for |x| <= 2^53 - m, q m and
    x - q m are exact integers and the result r is congruent to x with
    |r| <= m/2 + |x| 2^-52 < m/2 + 2, so |r| <= m // 2 + 2.  So r is
    zero exactly when x is 0 mod m.  The float64 budget keeps every
    value within |x| <= 2^53 - m (`_regime`).  Residues are balanced, not
    canonical: `_echelon_blocked` adds m to the negative entries of U
    when it converts them to int64.
    """

    def __init__(self, m: int):
        self.m = float(m)
        self.inv = 1.0 / m

    def __call__(self, x: np.ndarray, m: int) -> None:
        q = x * self.inv
        np.rint(q, out=q)
        q *= self.m
        x -= q


def _regime(m: int, terms: int):
    """The kernels of an elimination at modulus m whose values collect
    at most `terms` products before they are read: the working dtype,
    `reduce_(x, m)` and `matmul(a, b)`.  This is the one place that
    picks them: float64 exactly when the modulus's budget covers
    `terms`, int64 ("eager") otherwise.

    In float64, reductions leave balanced residues of at most
    b = m // 2 + 2 (`_ReduceF64`), so a product of two of them is at most
    b^2; one with a canonical operand (an entry of a leaf's diagonal
    block of a solve matrix, `_factor_panel`) is at most
    (m - 1) b < 2 b^2, so it counts as two.
    A pivot row scaled by its pivot's inverse in Python integers
    (`_factor_panel`) is stored balanced, not canonical, so each term of
    a rank-1 update, that row times a reduced column, counts as one
    product.  A value starts at most m + 1 (canonical, or balanced), so
    after p products it is at most p b^2 + m + 1, which must stay within
    the reduction's range, 2^53 - m: hence the budget,
    (2^53 - 1 - 2m) // b^2, 88262259 at 20201, 4003 at 3000017 and 264
    at 11682149.  The callers count `terms`:

    - in `_echelon_blocked` a value collects one product per pivot
      applied to it, by the rank-1 updates of its sub-panel and the
      carries of each left half and outer panel it lies right of, and is
      reduced when it is read (the pivot-search column, the pivot rows,
      matmul operands): at most min(rows, cols) products.  A product
      that solves pivot rows with a solve matrix X (`_carry`) replaces a
      value, and so do the two by which `_factor_panel` joins two
      halves' blocks of X: M[R, L] X_L, reduced, and then X_R times
      that.  Each has at most `_OUTER` terms, and at most `_SUB` of
      those have a canonical operand, since a row or column of X meets
      one leaf's diagonal block.  So terms = min(rows, cols) + `_OUTER`
      + `_SUB`;
    - in a split (`_split_echelon`), a value of D' collects one term per
      A row in the Schur product, and a value of X one per A row of a
      lower level than its own in the X update, each of two reduced
      operands; each is reduced once, after all of them, at the end of
      its stage (`_stages`, `_run_stages`).  D' is then eliminated in
      the same array, so the split counts the larger of its A rows and
      the count of D''s elimination.

    In int64 every product is formed by `_mod_matmul`, which returns it
    reduced to [0, m), and each value is reduced to [0, m) when it is
    read, so a value below m with p such products subtracted stays below
    m + p m, and one rank-1 product, below (m - 1)^2 < 2^62, more keeps
    it inside int64 for p up to (2^62 - m) // m, about 2^31: no
    elimination here comes near it.
    """
    b = m // 2 + 2
    if (_F64_EXACT - 2 * m) // (b * b) >= terms:
        return np.float64, _ReduceF64(m), np.matmul
    return np.int64, _reduce_i64, partial(_mod_matmul, m=m)


def _carry(right, k0, k, mult, solve, reduce_, m, matmul):
    """Carry an outer panel's pivots k0..k into the columns `right`.

    `_factor_panel` calls it for a left half's pivots and its right
    half, and `_echelon_blocked` for a whole outer panel's pivots and
    every column right of it.  `right` is a view of the transposed
    matrix: one row per column, one column per active row of the outer
    panel, as in `mult` and `solve` (`_factor_panel`).  In row tiles of
    about `_TILE` entries, so each tile's products are consumed while
    cached, the pivot rows' entries, columns k0..k of the tile, are
    solved by one product with the transposed diagonal block of
    `solve`, then times their multipliers subtracted from the rows after
    them, columns k on, unreduced; those are left alone when no
    multiplier is nonzero.
    """
    inv = solve[k0:k, k0:k].T
    lower = mult[k0:k, k:]
    subtract = lower.any()
    step = _row_step(right.shape[1])
    for s in range(0, len(right), step):
        tile = right[s : s + step]
        part = tile[:, k0:k]
        reduce_(part, m)
        part[...] = matmul(part, inv)
        if part.dtype != np.int64:
            # `_mod_matmul` already returns canonical residues
            reduce_(part, m)
        if subtract:
            below = tile[:, k:]
            below -= matmul(part, lower)


def _add_m_if_negative(x: np.ndarray, m: int) -> None:
    """Map int64 values in (-m, m) to [0, m), in place.

    Adds (x >> 63) & m, which is m exactly where x < 0: no mask and no
    branch, several times faster than a masked add on mixed signs.
    """
    x += (x >> 63) & m


def _row_step(cols: int, tile: int = _TILE) -> int:
    """Rows per tile of about `tile` entries."""
    return max(1, tile // max(cols, 1))


def _echelon_blocked(
    at: np.ndarray, m: int, terms: int = 0
) -> tuple[np.ndarray, list[int]]:
    """Panel-blocked row echelon form with deferred reduction.

    `at` is the matrix transposed, shape (cols, rows): row c holds
    column c.  Eliminates the matrix's rows, entries reduced (canonical,
    or balanced residues), in the order given.  The working dtype,
    float64 or, when eager, int64, is the one `_regime` picks for the
    larger of `terms` and the elimination's own count,
    min(rows, cols) + `_OUTER` + `_SUB`: a split passes its A rows, the
    count it wrote D' under, so D' is eliminated in that dtype.  The
    working array is `at` itself when it is writeable, C-contiguous and
    already of the working dtype; otherwise one copy of it in that
    dtype.  Returns the rank nonzero
    rows U of a row echelon form, reduced to [0, m), as a view of the
    working array, and the pivot columns: row k of U is zero left of
    pivot k and 1 at it.  Pivots do not depend on the row order; U,
    which is not canonical, does.  Rank-1 updates accumulate unreduced;
    a value is reduced mod m only when it is about to be read (the
    pivot-search column, the pivot row, matmul operands), within the
    bounds that `_regime` checks.  In float64 the reductions leave
    balanced residues; U is made canonical when it is converted to
    int64, in place.

    The columns are cut into outer panels of `_OUTER` columns in
    float64, `DEFAULT_BLOCK` in int64.  Each outer panel is factored
    whole (`_factor_panel`) on a view of the working array from its
    first column to the last and from its first active row on, so a row
    swap reaches the columns right of it as it is made.  Its pivots
    reach those columns in one delayed carry (`_carry`), a dgemm whose
    inner dimension is their count.  The elimination ends once every row
    holds a pivot.
    """
    cols, rows = at.shape
    dtype, reduce_, matmul = _regime(m, max(terms, min(cols, rows) + _OUTER + _SUB))
    eager = dtype == np.int64
    width = DEFAULT_BLOCK if eager else _OUTER
    if at.dtype != dtype or not at.flags.writeable or not at.flags.c_contiguous:
        at = at.astype(dtype, order="C")
    pivots: list[int] = []
    r = 0
    for outer0 in range(0, cols, width):
        if r == rows:
            break
        pan = at[outer0:, r:]
        w = min(width, len(pan))
        # mult[i, j]: the multiple of the outer panel's pivot row i
        # subtracted from active row j
        mult = np.zeros((w, rows - r), dtype=dtype)
        # the outer panel's solve matrix (`_factor_panel`)
        solve = np.zeros((w, w), dtype=dtype)
        found: list[int] = []
        k = _factor_panel(pan, 0, w, 0, mult, solve, found, reduce_, m, matmul, eager)
        pivots += [outer0 + j for j in found]
        if k and w < len(pan):
            _carry(pan[w:], 0, k, mult, solve, reduce_, m, matmul)
        r += k
        # freed before the next outer panel allocates its own
        del mult, solve
    rank = len(pivots)
    upper = at[:, :rank]
    if not eager:
        # converted in place, one row tile at a time, so no second
        # full-size array is ever allocated; balanced residues become
        # canonical here
        out = at.view(np.int64)[:, :rank]
        step = _row_step(rank)
        for s in range(0, cols, step):
            tile = out[s : s + step]
            tile[...] = upper[s : s + step]
            _add_m_if_negative(tile, m)
        upper = out
    return upper.T, pivots


def _factor_panel(pan, j0, j1, k, mult, solve, pivots, reduce_, m, matmul, eager):
    """Factor columns [j0, j1) of `pan`, an outer panel and the columns
    right of it, transposed, from active row k on; return the active row
    after their pivots.

    Row j of `pan` is the matrix's column j from the outer panel's first
    on, and column i its active row i, so the column reduce, the pivot
    search and the rank-1 updates stream contiguous memory, and a row
    swap is one column swap.  The columns left of j0 hold the outer
    panel's earlier pivots, which must already have reached columns
    [j0, j1).  Recursive (Toledo, 1997): the columns are split in
    halves, the left half rounded up to a multiple of `_SUB` columns;
    the left half is factored, its pivots reach the right half
    (`_carry`), and the right half is factored.  So the leaves are
    sub-panels of at most `_SUB` columns, aligned on multiples of
    `_SUB`.

    `solve` is X, the inverse of M, where the outer panel's pivot rows
    are M times its solved rows: M[i, i] is pivot i and M[i, l] =
    mult[l, i] (l < i) the multiple of solved row l subtracted from row
    i.  X is lower triangular and each of its diagonal blocks is the
    inverse of M's block, so any run of pivots is solved by one product
    with its block of X.  The recursion writes X as it goes: a leaf its
    diagonal block, by forward substitution in Python integers, row i
    being X[i, i] (e_i - sum over l < i of M[i, l] X[l]), canonical; and
    a node, once both halves are factored, the block below-left of the
    diagonal that joins them, X[R, L] = -X_R (M[R, L] X_L), with L the
    left half's pivots and R the right half's, by two products, reduced.
    The multipliers M[R, L] = mult[L, R].T are final by then: a row swap
    only moves rows that are not yet pivots.

    A leaf is factored column by column.  The pivot is the first nonzero
    of its column on the active rows.  After the column reduce, the
    candidate, the entry of the next active row, is tested as a scalar;
    only when it is zero is the column searched, and the rows swapped,
    and a column that is zero on every active row is skipped.  The pivot
    row's entries in the leaf, at most `_SUB`, are scaled by the pivot's
    inverse in Python integers and written back once, balanced in
    float64 and canonical in int64 (`_regime`); the rank-1 update,
    within the leaf, is one product of that row and the column below
    the pivot, which becomes the pivot's row of `mult`, the outer
    panel's multipliers, one column per active row.  A row swap moves
    the two rows in `pan`, from the outer panel's first column to the
    last, and their multipliers from the outer panel's earlier pivots.
    Each pivot's column j goes to `pivots`.
    """
    k0 = k
    if j1 - j0 > _SUB:
        mid = j0 + _SUB * -(-(j1 - j0) // (2 * _SUB))
        args = (mult, solve, pivots, reduce_, m, matmul, eager)
        k = _factor_panel(pan, j0, mid, k, *args)
        if k > k0:
            _carry(pan[mid:j1], k0, k, mult, solve, reduce_, m, matmul)
        k1 = _factor_panel(pan, mid, j1, k, *args)
        if k0 < k < k1:
            # the block of X that joins the halves: X[R, L]
            x = matmul(mult[k0:k, k:k1].T, solve[k0:k, k0:k])
            if not eager:
                # `_mod_matmul` already returns canonical residues
                reduce_(x, m)
            x = matmul(solve[k:k1, k:k1], x)
            np.negative(x, out=x)
            reduce_(x, m)
            solve[k:k1, k0:k] = x
        return k1
    nact = pan.shape[1]
    # scaled pivot rows are stored balanced in float64, canonical in int64
    half = 0 if eager else m // 2
    invs = []
    for j in range(j0, j1):
        if k == nact:
            break
        col = pan[j, k:]
        reduce_(col, m)
        prow = pan[j:j1, k]
        vals = prow.tolist()
        if not vals[0]:
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            p = k + int(nz[0])
            _swap_columns(pan, k, p)
            _swap_columns(mult[:k], k, p)
            vals = prow.tolist()
        inv = pow(int(vals[0]), -1, m)
        invs.append(inv)
        # the scaled pivot is exactly 1, so the update below zeroes the
        # pivot column under it
        prow[:] = [(int(x) * inv + half) % m - half for x in vals]
        below = mult[k, k + 1 :]
        below[:] = col[1:]
        upd = pan[j:j1, k + 1 :]
        upd -= prow[:, None] * below
        if eager:
            reduce_(upd, m)
        pivots.append(j)
        k += 1
    if invs:
        # the leaf's diagonal block of X; low[i][l] = M[k0 + i, k0 + l]
        low = mult[k0:k, k0:k].T.astype(np.int64).tolist()
        block = []
        for i, inv in enumerate(invs):
            row = [0] * len(invs)
            row[i] = inv
            for j in range(i):
                t = sum(low[i][l] * block[l][j] for l in range(j, i))
                row[j] = -t * inv % m
            block.append(row)
        solve[k0:k, k0:k] = block
    return k


def _swap_columns(x: np.ndarray, k: int, p: int) -> None:
    """Swap columns k and p of x in place, by slice copies."""
    t = x[:, k].copy()
    x[:, k] = x[:, p]
    x[:, p] = t


def _reduced_echelon(data: np.ndarray, m: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows W' of the reduced row echelon form, and the pivots.

    Two passes of the blocked elimination.  The first gives U = T W' and
    the pivots, T being U on its pivot columns, unit upper triangular.
    With J the reversal of k = rank rows, J T J is unit lower
    triangular, so the second pass, over [J T J | J U], finds each pivot
    on the diagonal, as the candidate of its column, and swaps no row;
    its row operations E are unit lower triangular, and E J T J, upper
    and lower triangular with unit diagonal, is I.  So it leaves
    [I | J T^-1 U] = [I | J W'], whose rows reversed are W', the
    canonical reduced form, whatever U the first pass left.  `data.T` is
    the first pass's working array when it can be (`_echelon_blocked`).
    """
    upper, pivots = _echelon_blocked(data.T, m)
    k = len(pivots)
    at = np.vstack([upper[:, pivots].T[::-1, ::-1], upper.T[:, ::-1]])
    again, _ = _echelon_blocked(at, m)
    return again[::-1, k:], pivots


def _dot_rows(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact sum over each row of a * b mod m, for canonical int64 rows.

    Each product is below 2^62 and reduced before the sum, so a row of
    k entries sums to less than k m < 2^63 for any k < 2^32; a plain
    int64 dot would overflow at 2^31 - 1 from three terms on.
    """
    prod = a * b
    prod %= m
    return prod.sum(axis=1) % m


@dataclass(frozen=True, eq=False)
class ShiftedRows:
    """The rows x_i w_j of a Macaulay matrix that start a new column.

    `basis` holds the rows w_j, canonical and in reduced row echelon
    form; `shifts[i]` maps the column of each monomial t to that of
    x_i t, increasingly.  Row k is x_{var[k]} w_{row[k]}: it is zero left
    of `lead[k]`, the image of w_j's leading column, and 1 there.  `lead`
    is strictly increasing, so the rows are in echelon form with unit
    pivots, and their leading columns are pivots of any matrix whose
    row space holds them.
    """

    basis: np.ndarray
    shifts: np.ndarray
    var: np.ndarray
    row: np.ndarray
    lead: np.ndarray
    cols: int

    @cached_property
    def rest(self) -> np.ndarray:
        """The columns that lead no row, in order."""
        keep = np.ones(self.cols, dtype=bool)
        keep[self.lead] = False
        return np.flatnonzero(keep)

    @cached_property
    def reach(self) -> np.ndarray:
        """reach[i, c]: the column t with shifts[i, t] = c, or -1 where
        there is none or t leads a row w_j of the basis.

        The basis is reduced, so its column t is then zero but in w_j,
        and of the rows x_i w, only x_i w_j, which leads c, is nonzero at
        c.  No product needs those entries: a row never reduces its own
        leading column.  The values are basis columns, so int32 holds
        them.
        """
        nv, nb = self.shifts.shape
        t = np.arange(nb, dtype=np.int32)
        t[(self.basis != 0).argmax(axis=1)] = -1
        out = np.full((nv, self.cols), -1, dtype=np.int32)
        out[np.arange(nv)[:, None], self.shifts] = t
        return out

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """The rows by dependency level, each level in lead order.

        Row k depends on row l when l can be nonzero at k's lead, which
        the shifts alone decide: x_i w_j reaches lead[k] only through
        column t = reach[i, lead[k]] of w_j, which is zero unless t lies
        right of w_j's leading column, that is, unless x_i w_j leads left
        of lead[k].  So where reach[i, lead[k]] >= 0, row k depends on
        every row of variable i that leads left of it, and on no other.
        A row's level is 0 if it depends on none, and otherwise one more
        than the highest level among the rows it depends on, so no row
        depends on one of its own level or a higher one.  Level 0 is
        always there, empty when there are no rows.
        """
        reaches = self.reach[:, self.lead] >= 0
        todo = np.ones(self.lead.size, dtype=bool)
        out = []
        while not out or todo.any():
            left = np.flatnonzero(todo)
            lead = self.lead[left]
            # the lead of each variable's first row not yet placed
            first = np.full(len(self.shifts), self.cols)
            np.minimum.at(first, self.var[left], lead)
            blocked = reaches[:, left] & (first[:, None] < lead)
            out.append(left[~blocked.any(axis=0)])
            todo[out[-1]] = False
        return tuple(out)

    def back_substitute(self, x: np.ndarray, m: int) -> None:
        """Solve the rows for x at their leading columns, in place.

        Every other coordinate of x must be set, and these still 0.  A
        row is nonzero at another row's lead only if that row depends on
        it (`levels`), so the levels go from the highest down, each in
        chunks of `DEFAULT_BLOCK` rows: a row's lead is minus its dot
        with the coordinates known so far, its own lead still 0.
        """
        for rows in reversed(self.levels):
            for s in range(0, rows.size, DEFAULT_BLOCK):
                k = rows[s : s + DEFAULT_BLOCK]
                known = x[self.shifts[self.var[k]]]
                acc = _dot_rows(self.basis[self.row[k]], known, m)
                x[self.lead[k]] = -acc % m


def _pooled(wv, ops):
    """The left operands of the products `ops` (`_stages`), a list, as
    gather(some of `ops`), which returns each product as (hit, left, g):
    left holds the entries of `wv`, the basis in the working format, in
    its `rows` and `used`, transposed.  Each distinct pair of rows and
    columns is gathered once, so products of the same rows and columns
    share one array (the Schur stage's, at generic points), and every
    array is a view of one block of memory.  The operands are freed
    together once the tiles are done.  Gathered as many arrays
    below the mmap threshold (`_MMAP_THRESHOLD`), they left holes among
    the arrays that outlive them, too small for the multipliers of D''s
    elimination, so the heap grew past them and kept them resident for
    the next call: 21 MB of heap, 16 MB of it free, after certify(30).
    One block leaves one free region, at the top of the heap, which D''s
    elimination reuses and which is then returned to the system.
    """
    lefts = {}
    for _, rows, used, _ in ops:
        lefts.setdefault((rows.tobytes(), used.tobytes()), (rows, used))
    pool = np.empty(sum(r.size * u.size for r, u in lefts.values()), dtype=wv.dtype)
    o = 0
    for key, (rows, used) in lefts.items():
        left = pool[o : o + rows.size * used.size].reshape(used.size, rows.size)
        left[...] = wv[np.ix_(rows, used)].T
        lefts[key] = left
        o += left.size
    return lambda some: [(h, lefts[r.tobytes(), u.tobytes()], g) for h, r, u, g in some]


def _stages(shifted, starts, sources, pos):
    """The products of a tile of C rows (`_run_stages`), one stage at a
    time: (schur, update, spans).  First the X update, one stage per
    level of A rows above 0 (`ShiftedRows.levels`), whose targets are
    rows of X, which A row k fills at pos[k]; then the Schur product,
    whose target is D' and whose columns are `rest`.  `update` holds
    one product per variable i whose A rows of lower levels (all of
    them in the Schur stage) reach the stage's columns: (hit, rows,
    used, g), `hit` the target's rows they reach, and the left operand
    the entries of the basis rows `rows` that they shift in the columns
    `used` that reach `hit`, transposed (`_pooled`).  Row x_i w reaches
    column c only through the column of w that x_i maps to c
    (`ShiftedRows.reach`).  `spans` are the runs of target rows the
    stage fills, one per variable, and all of D' in the Schur stage.
    A rows are numbered in the order of X's rows (`_split_echelon`):
    those of variable i hold the positions starts[i]..starts[i+1], by
    level and then lead, so its A rows of lower levels are one slice of
    them, and the one at position p shifts basis row sources[p].
    """
    nv = starts.size - 1
    levels, rest = shifted.levels, shifted.rest
    done = starts[:-1] + np.bincount(shifted.var[levels[0]], minlength=nv)
    for rows in [*levels[1:], None]:
        if rows is None:
            # the Schur stage: every A row is done, done == starts[1:]
            targets, cols, ends = np.arange(rest.size), rest, done
            spans = [(0, rest.size)]
        else:
            targets, cols = pos[rows], shifted.lead[rows]
            ends = done + np.bincount(shifted.var[rows], minlength=nv)
            spans = [(s, e) for s, e in zip(done.tolist(), ends.tolist()) if s < e]
        update = []
        for i, (s, e) in enumerate(zip(starts.tolist(), done.tolist())):
            t = shifted.reach[i, cols]
            hit = np.flatnonzero(t >= 0)
            if s < e and hit.size:
                update.append((targets[hit], sources[s:e], t[hit], slice(s, e)))
        yield rows is None, update, spans
        done = ends


def _run_stages(xt, dt, stages, reduce_, m, matmul):
    """Run a tile's stages (`_stages`) in order: first X, solved from
    C_A = X A_A in `xt`, which holds the tile's C rows on A's leading
    columns, transposed; then D' = C_rest - X A_rest in `dt`, the
    tile's view of D'.  The row of `xt` at A row k holds C's column at
    k's lead and becomes X's column k, which is C's less X's columns of
    the A rows nonzero at that lead, each times its entry there.  Those
    are of lower levels (`ShiftedRows.levels`), so the levels go in
    order, each by one product per variable, since the A rows of
    variable i are basis rows shifted by x_i, with no solve within a
    level; level 0's columns are C's.  The Schur stage comes last, once
    X is whole.  A stage's target rows are reduced once, after its
    products, in row chunks of about `_CHUNK` entries.
    """
    for schur, update, spans in stages:
        out = dt if schur else xt
        for hit, left, g in update:
            out[hit] -= matmul(left, xt[g])
        step = _row_step(out.shape[1], _CHUNK)
        for s, e in spans:
            for r in range(s, e, step):
                reduce_(out[r : min(r + step, e)], m)


def _shifted_rows(basis, shifts, cols, m):
    """The rows of a split (`_split_echelon`): A, as `ShiftedRows`, and
    the numbers of the C rows.  Row x_i w'_j of the shifted W' is number
    i * rank + j, rank being W''s; A takes the first row, the one of
    least i, at each leading column."""
    wp, lm = _reduced_echelon(basis, m)
    rank = len(lm)
    lead = shifts[:, lm].ravel()
    order = np.argsort(lead, kind="stable")
    new = np.ones(order.size, dtype=bool)
    new[1:] = lead[order[1:]] != lead[order[:-1]]
    a, c = order[new], order[~new]
    return ShiftedRows(wp, shifts, a // rank, a % rank, lead[a], cols), c


def _split_echelon(basis, shifts, cols, m):
    """Row echelon data of a Macaulay matrix, by its A|B / C|D split.

    The matrix has one row x_i w per shift map i and row w of `basis`,
    w's entries moved to the columns `shifts[i]`; each shift map must be
    increasing, so x_i w starts at the image of w's first nonzero column.
    Its row space is that of the rows x_i w'_j, where W' is the reduced
    row echelon form of `basis`.  Among those, the rows A, one for each
    distinct leading column, are in echelon form with unit pivots
    (`ShiftedRows`); the others are C.  The pivots are A's leading
    columns together with those of the Schur complement D' = C_rest -
    X A_rest, with X solved from C_A = X A_A (`_run_stages`); D' is
    eliminated by `_echelon_blocked`.  Returns D''s U over the columns
    `rest` of the `ShiftedRows`, the pivots of the whole matrix, and the
    `ShiftedRows`; `null_vector` solves for a kernel vector from them.

    A C row's multipliers and its row of D' depend on no other C row, so
    C is never held whole.  D' is allocated once, transposed, the layout
    that `_echelon_blocked` eliminates in place, and C is written one
    tile of C rows at a time (`_C_TILE`, `_C_TILE_ROWS`, counted on C's
    full width): each row's entries on A's leading columns go into one
    buffer of X's columns, transposed, where X overwrites them, and its
    entries on `rest` straight into the tile's columns of D', where the
    Schur product turns them into D'.  X's columns are grouped by
    variable, and each group by A's levels (`ShiftedRows.levels`) and
    then lead, so X is solved one level at a time with one product per
    variable, and the Schur product is one more stage after the last
    level (`_stages`).  Tiles are equal in size, give or take a row.
    The stages are built once and every tile runs them
    (`_run_stages`), their left operands in one block of memory, one
    for all the products of the same rows and columns (`_pooled`).  The
    tile buffer and the operands are freed before D''s elimination.

    A value of D' collects at most one product term per A row, and one
    of X one per A row of a lower level, and each is reduced once, after
    all of them, at the end of its stage.  So the kernels are picked once
    (`_regime`), for the larger of the A rows and the count of D''s
    elimination, which gets the A rows too and so eliminates D' in the
    array written here.
    """
    nv = shifts.shape[0]
    shifted, c = _shifted_rows(basis, shifts, cols, m)
    rank, na, rest = len(shifted.basis), shifted.lead.size, shifted.rest
    terms = max(na, min(rest.size, c.size) + _OUTER + _SUB)
    dtype, reduce_, matmul = _regime(m, terms)
    wv = shifted.basis.astype(dtype)
    if dtype == np.float64:
        wv[wv > m // 2] -= m
    # C's columns: X's, in the order a tile holds them, grouped by
    # variable and each group by level and then lead, then the columns
    # that lead no A row, in the order of D''s rows
    group = np.concatenate(shifted.levels)
    group = group[np.argsort(shifted.var[group], kind="stable")]
    pos = np.empty(na, dtype=np.int64)
    pos[group] = np.arange(na)
    starts = np.searchsorted(shifted.var[group], np.arange(nv + 1))
    where = np.empty(cols, dtype=np.int64)
    where[shifted.lead] = pos
    where[rest] = na + np.arange(rest.size)
    # per variable i, the basis columns that x_i moves to X's columns
    # and to D''s, and the rows they land in
    fill = []
    for i in range(nv):
        w = where[shifts[i]]
        x = w < na
        fill.append((np.flatnonzero(x), w[x], np.flatnonzero(~x), w[~x] - na))
    stages = list(_stages(shifted, starts, shifted.row[group], pos))
    gather = _pooled(wv, [op for _, update, _ in stages for op in update])
    stages = [(schur, gather(update), spans) for schur, update, spans in stages]
    # the fewest tiles, equal in size, of at most `_C_TILE` bytes or
    # `_C_TILE_ROWS` rows, whichever is more
    tiles = max(1, -(-c.size // max(_C_TILE_ROWS, _C_TILE // (8 * cols))))
    size = max(1, -(-c.size // tiles))
    dt = np.zeros((rest.size, c.size), dtype=dtype)
    buf = np.zeros((na, size), dtype=dtype)
    step = _row_step(shifts.shape[1], _CHUNK)
    for s0 in range(0, c.size, size):
        # C row s of those numbered `tile` is column s of `xt` and
        # column s0 + s of `dt`
        tile = c[s0 : s0 + size]
        xt = buf[:, : tile.size]
        if s0:
            xt[...] = 0
        var = tile // rank
        for i in np.flatnonzero(np.bincount(var)).tolist():
            xsrc, xdst, dsrc, ddst = fill[i]
            mine = np.flatnonzero(var == i)
            for s in range(0, mine.size, step):
                k = mine[s : s + step]
                w = wv[tile[k] % rank]
                xt[xdst[:, None], k] = w[:, xsrc].T
                dt[ddst[:, None], s0 + k] = w[:, dsrc].T
        _run_stages(xt, dt[:, s0 : s0 + tile.size], stages, reduce_, m, matmul)
        del xt
    del buf, stages, gather
    upper, pivots = _echelon_blocked(dt, m, na)
    pivots = np.sort(np.concatenate([shifted.lead, rest[pivots]]))
    return upper, pivots.tolist(), shifted


class FfMatrix:
    """Immutable dense matrix over Z_m, entries canonical in [0, m)."""

    __slots__ = ("data", "modulus")

    def __init__(self, data, modulus: PrimeModulus):
        _check_kernel_modulus(modulus)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        arr = arr % modulus.value
        arr.setflags(write=False)
        self.data = arr
        self.modulus = modulus

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: PrimeModulus) -> "FfMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), modulus)

    @classmethod
    def identity(cls, order: int, modulus: PrimeModulus) -> "FfMatrix":
        return cls(np.eye(order, dtype=np.int64), modulus)

    @classmethod
    def ones(cls, rows: int, cols: int, modulus: PrimeModulus) -> "FfMatrix":
        return cls(np.ones((rows, cols), dtype=np.int64), modulus)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __getitem__(self, key) -> int:
        i, j = key
        return int(self.data[i, j])

    def __eq__(self, other):
        return (
            isinstance(other, FfMatrix)
            and self.modulus == other.modulus
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"FfMatrix({self.rows}x{self.cols} mod {self.modulus.value})"

    def is_zero(self) -> bool:
        return not self.data.any()

    def __add__(self, other: "FfMatrix") -> "FfMatrix":
        self._check_compatible(other)
        return FfMatrix(self.data + other.data, self.modulus)

    def __sub__(self, other: "FfMatrix") -> "FfMatrix":
        self._check_compatible(other)
        return FfMatrix(self.data - other.data, self.modulus)

    def scale(self, c: int) -> "FfMatrix":
        return FfMatrix(self.data * (c % self.modulus.value), self.modulus)

    def _check_compatible(self, other: "FfMatrix") -> None:
        _check_same_modulus(self.modulus, other.modulus)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def matmul(self, other: "FfMatrix", naive: bool = False) -> "FfMatrix":
        _check_same_modulus(self.modulus, other.modulus)
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions disagree: {self.shape} @ {other.shape}"
            )
        kernel = _matmul_naive if naive else _mod_matmul
        return FfMatrix(kernel(self.data, other.data, self.modulus.value), self.modulus)

    def __matmul__(self, other: "FfMatrix") -> "FfMatrix":
        return self.matmul(other)

    def kron(self, other: "FfMatrix") -> "FfMatrix":
        """Standard Kronecker product: block (i, j) equals self[i, j] * other."""
        _check_same_modulus(self.modulus, other.modulus)
        return FfMatrix(np.kron(self.data, other.data), self.modulus)

    def rref(self, naive: bool = False) -> "RrefResult":
        m = self.modulus.value
        shifted = None
        if naive:
            echelon, pivots = _rref_naive(self.data, m)
            upper = echelon[: len(pivots)]
        else:
            upper, pivots, shifted = self._echelon(m)
        upper.setflags(write=False)
        return RrefResult(
            upper=upper,
            pivot_cols=tuple(pivots),
            modulus=self.modulus,
            rows=self.rows,
            cols=self.cols,
            shifted=shifted,
        )

    def rank(self, naive: bool = False) -> int:
        return self.rref(naive=naive).rank

    def _echelon(self, m: int):
        """The blocked elimination: U, the pivots, and the rows it left
        out of U as already in echelon form (`ShiftedRows`, or None).  A
        matrix with more structure than `data` overrides this."""
        upper, pivots = _echelon_blocked(self.data.T, m)
        return upper, pivots, None


@dataclass(frozen=True, eq=False)
class RrefResult:
    """Row echelon data of one elimination: rank, pivots and the rows U.

    `upper` holds nonzero rows of a row echelon form, entries in [0, m):
    row k is zero left of its pivot and 1 there, so U restricted to its
    pivot columns is unit upper triangular.  Without `shifted`, U has
    all `rank` rows over all `cols` columns, its pivots `pivot_cols`.
    With it, the matrix's other echelon rows are the `ShiftedRows`, and
    U is the echelon form of the Schur complement over the columns that
    lead none of them (`shifted.rest`, `_split_echelon`).  Rank tests
    and kernel vectors need nothing more, and the elimination stops
    there.
    """

    upper: np.ndarray
    pivot_cols: tuple[int, ...]
    modulus: PrimeModulus
    rows: int
    cols: int
    shifted: ShiftedRows | None = None

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def free_cols(self) -> tuple[int, ...]:
        pivots = set(self.pivot_cols)
        return tuple(c for c in range(self.cols) if c not in pivots)


def null_vector(res: RrefResult, f0) -> np.ndarray:
    """Kernel vector with f0 in the free slots and -X f0 in the pivot slots.

    Solves U x = 0 for the pivot coordinates by blocked back-substitution
    over the echelon rows, from the last pivot block up; U is unit upper
    triangular on the pivot columns, so the solution is unique and equals
    -X f0 from the reduced form.  After a split elimination, U covers
    only the columns `res.shifted.rest`; the shifted rows then give the
    coordinates at their leading columns (`ShiftedRows.back_substitute`).
    The result is annihilated exactly by any matrix whose row space the
    echelon rows came from.
    """
    m = res.modulus.value
    c = res.cols - res.rank
    if c == 0:
        raise ValueError("full column rank, no normal directions")
    f0 = np.asarray([int(v) for v in f0], dtype=np.int64) % m
    if f0.shape != (c,):
        raise ValueError(f"free vector must have length {c}, got {f0.shape}")
    normal = np.zeros(res.cols, dtype=np.int64)
    normal[list(res.free_cols)] = f0
    shifted = res.shifted
    if shifted is None:
        _back_substitute(res.upper, list(res.pivot_cols), normal, m)
        return normal
    rest = shifted.rest
    pivots = np.setdiff1d(res.pivot_cols, shifted.lead, assume_unique=True)
    part = normal[rest]
    _back_substitute(res.upper, np.searchsorted(rest, pivots).tolist(), part, m)
    normal[rest] = part
    shifted.back_substitute(normal, m)
    return normal


def _back_substitute(upper, pivots, x, m) -> None:
    """Solve U x = 0 for x at the pivot columns, in place, the other
    coordinates given; U is unit upper triangular on `pivots`."""
    for i0 in reversed(range(0, len(pivots), DEFAULT_BLOCK)):
        i1 = min(i0 + DEFAULT_BLOCK, len(pivots))
        pcols = pivots[i0:i1]
        first = pcols[0]
        # rows i0..i1 against every coordinate known so far: the free
        # ones and the pivots of later blocks (this block's are still 0)
        acc = _mod_matmul(upper[i0:i1, first:], x[first:, None], m)[:, 0]
        tri = upper[i0:i1, pcols]
        for t in range(i1 - i0 - 1, -1, -1):
            v = -acc[t] % m
            x[pcols[t]] = v
            acc[:t] = (acc[:t] + tri[:t, t] * v) % m
