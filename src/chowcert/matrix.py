"""Dense exact linear algebra over Z_m.

Rank, row echelon data with pivot bookkeeping, kernel vectors, products,
and Kronecker products.  Two interchangeable elimination/multiplication
paths exist: a plain one (`naive=True`), kept as the testing oracle, and
a panel-blocked one whose bulk updates are exact dgemm calls.

The blocked elimination stops at row echelon form: rank, pivots and the
unit-upper rows U, which is all that rank tests and kernel vectors need.
The reduced form is built from U by one Gauss-Jordan back pass on first
access to `RrefResult.echelon`, and kernel vectors come from
back-substitution over U.  Reduced echelon form and the kernel vector
with given free coordinates are canonical, so both paths return
bit-identical results.

Entries live in int64 arrays; moduli below 2^31 are supported.  Every
product is a float64 dgemm kept exact, below 2^53: one plain dgemm when
the inner dimension and the modulus allow it, otherwise the operand with
fewer entries is split into 16-bit limbs, one dgemm per limb
(`_mod_matmul`).  The elimination runs in float64 with deferred
reduction, or, for moduli too large for that, reduces every step in
int64 and forms every product with `_mod_matmul` (`_regime`).
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .field import PrimeModulus, _check_same_modulus

DEFAULT_BLOCK = 64

_F64_EXACT = 2**53 - 1
MAX_MATRIX_MODULUS = 2**31
# Limb base of the split products in `_mod_matmul`.
_LIMB = 1 << 16
# Entries per row tile of a trailing update (2 MB of float64): each
# tile's product is subtracted while it is still in cache.
_TILE = 1 << 18
# Columns per sub-panel: rank-1 updates stay within one.
_SUB = 8
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
    """Exact in-place reduction for integer-valued float64 arrays.

    x % m computed as x - floor(x / m) * m with a multiply by the
    precomputed reciprocal; the rounding of the reciprocal can put the
    quotient off by at most one (the inputs are bounded well below
    2^53), which the two clamp passes repair.  Much faster than fmod.
    """

    def __init__(self, m: int):
        self.m = float(m)
        self.inv = 1.0 / m

    def __call__(self, x: np.ndarray, m: int) -> None:
        q = np.floor(x * self.inv)
        q *= self.m
        x -= q
        np.add(x, self.m, out=x, where=x < 0.0)
        np.subtract(x, self.m, out=x, where=x >= self.m)


def _regime(shape: tuple[int, int], m: int, block: int) -> str:
    """The elimination regime: "deep", "per-panel" or "eager".

    Deep and per-panel work in float64 and reduce lazily.  Deep:
    trailing values stay unreduced across panels.  Every entry collects
    at most one product below m^2 per pivot, plus at most `block` more
    within a panel, so magnitudes stay below the checked bound
    (2 min(rows, cols) + block + 4) m^2.  Per panel: trailing values are
    reduced after each panel's update, which bounds them by
    (block + 2) m^2.  The first bound below 2^53 picks the regime; when
    neither fits, the eager regime works in int64, reduces every step
    at once and forms every product with `_mod_matmul`.
    """
    short = min(shape)
    if (short * 2 + block + 4) * m * m < _F64_EXACT:
        return "deep"
    if (block + 2) * m * m < _F64_EXACT:
        return "per-panel"
    return "eager"


def _apply_pivots(trail, below, lfac, ninv, reduce_, m, reduce_after, matmul):
    """Carry a block of pivots into the columns right of it.

    `trail` holds the k pivot rows' entries in those columns and `below`
    the rows under them, both as views (one row per matrix row);
    `lfac[i, j]` (j > i) is the multiple of pivot row i subtracted from
    row j, and `ninv` the inverses of the k pivots.  The pivot rows are
    solved against each other and scaled, then `below` gets one matmul,
    in row tiles so each tile's product is consumed while cached.
    """
    k = len(ninv)
    for i in range(k):
        if i:
            trail[i] -= matmul(lfac[None, :i, i], trail[:i])[0]
        reduce_(trail[i], m)
        trail[i] *= ninv[i]
        reduce_(trail[i], m)
    l21 = lfac[:k, k:].T
    if l21.any():
        step = max(1, _TILE // trail.shape[1])
        for s in range(0, below.shape[0], step):
            tile = below[s : s + step]
            tile -= matmul(l21[s : s + step], trail)
            if reduce_after:
                reduce_(tile, m)


def _echelon_blocked(
    data: np.ndarray, m: int, block: int
) -> tuple[np.ndarray, list[int]]:
    """Panel-blocked row echelon form with deferred reduction.

    Returns the rank nonzero rows U of a row echelon form, reduced to
    [0, m), and the pivot columns: row k of U is zero left of pivot k
    and 1 at it.  Rank-1 updates accumulate unreduced; a value is
    reduced mod m only when it is about to be read (the pivot-search
    column, the pivot row, matmul operands), within the bounds that
    `_regime` checks.

    Each panel of `block` columns is factored on a transposed copy, so
    the column reduce, the pivot search and the rank-1 updates stream
    contiguous memory.  Rank-1 updates stay within sub-panels of `_SUB`
    columns; a sub-panel's pivots reach the panel's later columns, and
    a panel's pivots the trailing columns, in one matmul each.
    """
    regime = _regime(data.shape, m, block)
    eager = regime == "eager"
    if eager:
        dtype, reduce_, matmul = np.int64, _reduce_i64, partial(_mod_matmul, m=m)
    else:
        dtype, reduce_, matmul = np.float64, _ReduceF64(m), np.matmul
    a = data.astype(dtype)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    c0 = 0
    while r < rows and c0 < cols:
        c1 = min(c0 + block, cols)
        w = c1 - c0
        nact = rows - r
        pan = a[r:, c0:c1].T.copy()
        lfac = np.zeros((w, nact), dtype=dtype)
        # order[i]: the active row that the panel's swaps moved to position i
        order = np.arange(nact)
        ninv: list[int] = []
        k = 0
        for j0 in range(0, w, _SUB):
            j1 = min(j0 + _SUB, w)
            k0 = k
            for j in range(j0, j1):
                if k == nact:
                    break
                reduce_(pan[j, k:], m)
                nz = np.flatnonzero(pan[j, k:])
                if nz.size == 0:
                    continue
                p = k + int(nz[0])
                if p != k:
                    pan[:, [k, p]] = pan[:, [p, k]]
                    lfac[:k, [k, p]] = lfac[:k, [p, k]]
                    order[[k, p]] = order[[p, k]]
                inv = pow(int(pan[j, k]), -1, m)
                ninv.append(inv)
                prow = pan[j:j1, k]
                reduce_(prow, m)
                prow *= inv
                reduce_(prow, m)
                below = pan[j, k + 1 :].copy()
                hit = np.flatnonzero(below)
                if 2 * hit.size > below.size:
                    # dense column: a contiguous rank-1 update beats
                    # gather/scatter on the hit rows
                    upd = pan[j:j1, k + 1 :]
                    upd -= np.multiply(prow[:, None], below[None, :])
                    if eager:
                        reduce_(upd, m)
                elif hit.size:
                    sel = k + 1 + hit
                    upd = pan[j:j1, sel] - np.multiply(
                        prow[:, None], below[None, hit]
                    )
                    if eager:
                        reduce_(upd, m)
                    pan[j:j1, sel] = upd
                lfac[k, k + 1 :] = below
                pivots.append(c0 + j)
                k += 1
            if k > k0 and j1 < w:
                _apply_pivots(
                    pan[j1:, k0:k].T,
                    pan[j1:, k:].T,
                    lfac[k0:k, k0:],
                    ninv[k0:],
                    reduce_,
                    m,
                    eager,
                    matmul,
                )
        a[r:, c0:c1] = pan.T
        moved = np.flatnonzero(order != np.arange(nact))
        if moved.size:
            a[r + moved, c1:] = a[r + order[moved], c1:]
        if k and c1 < cols:
            _apply_pivots(
                a[r : r + k, c1:],
                a[r + k :, c1:],
                lfac,
                ninv,
                reduce_,
                m,
                regime != "deep",
                matmul,
            )
        r += k
        c0 = c1
    rank = len(pivots)
    if dtype is np.float64:
        # converted in place, one row tile at a time, so no second
        # full-size array is ever allocated
        out = a.view(np.int64)
        step = max(1, _TILE // max(cols, 1))
        for s in range(0, rank, step):
            out[s : s + step] = a[s : s + step]
        a = out
    return a[:rank], pivots


def _reduce_upper(upper: np.ndarray, pivots, m: int, block: int) -> np.ndarray:
    """Gauss-Jordan back pass: clear the entries above every pivot of U.

    One pivot block at a time from the bottom.  Rows of a block have no
    support left of its first pivot column, so every update is
    restricted to the columns from there on.
    """
    a = upper.copy()
    nr = len(pivots)
    for i0 in reversed(range(0, nr, block)):
        i1 = min(i0 + block, nr)
        pcols = list(pivots[i0:i1])
        first = pcols[0]
        for t in range(i1 - i0 - 2, -1, -1):
            row = i0 + t
            facs = a[row, pcols[t + 1 :]]
            hit = np.flatnonzero(facs)
            if hit.size:
                sel = row + 1 + hit
                left = pcols[t + 1]
                a[row, left:] = (
                    a[row, left:] - _mod_matmul(facs[None, hit], a[sel, left:], m)[0]
                ) % m
        if i0:
            above = a[:i0, pcols]
            if above.any():
                a[:i0, first:] = (
                    a[:i0, first:] - _mod_matmul(above, a[i0:i1, first:], m)
                ) % m
    return a


class FfMatrix:
    """Immutable dense matrix over Z_m, entries canonical in [0, m)."""

    __slots__ = ("data", "modulus")

    def __init__(self, data, modulus: PrimeModulus):
        if modulus.value >= MAX_MATRIX_MODULUS:
            raise ValueError(
                f"matrix kernels support moduli below 2^31, got {modulus.value}"
            )
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
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

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
        _check_same_modulus(self.modulus, other.modulus)
        return FfMatrix(np.kron(self.data, other.data), self.modulus)

    def rref(self, block: int = DEFAULT_BLOCK, naive: bool = False) -> "RrefResult":
        m = self.modulus.value
        if naive:
            echelon, pivots = _rref_naive(self.data, m)
            upper = echelon[: len(pivots)]
        else:
            upper, pivots = _echelon_blocked(self.data, m, block)
        upper.setflags(write=False)
        return RrefResult(
            upper=upper,
            pivot_cols=tuple(pivots),
            modulus=self.modulus,
            rows=self.rows,
            block=block,
            reduced=naive,
        )

    def rank(self, naive: bool = False) -> int:
        return self.rref(naive=naive).rank

    def dumps(self) -> str:
        """Debug dump: header `rows cols modulus`, then one row per line."""
        lines = [f"{self.rows} {self.cols} {self.modulus.value}"]
        for row in self.data:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FfMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix dump")
        rows, cols, m = (int(tok) for tok in lines[0].split())
        if len(lines) != rows + 1:
            raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
        data = np.zeros((rows, cols), dtype=np.int64)
        for i, line in enumerate(lines[1:]):
            entries = [int(tok) for tok in line.split()]
            if len(entries) != cols:
                raise ValueError(f"row {i} has {len(entries)} entries, expected {cols}")
            data[i] = entries
        return cls(data, PrimeModulus(m))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "FfMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


def kronecker(a: FfMatrix, b: FfMatrix) -> FfMatrix:
    """Standard Kronecker product: block (i, j) equals a[i, j] * b."""
    return a.kron(b)


def mul_mat(a: FfMatrix, b: FfMatrix, naive: bool = False) -> FfMatrix:
    return a.matmul(b, naive=naive)


@dataclass(frozen=True, eq=False)
class RrefResult:
    """Row echelon data of one elimination: rank, pivots and the rows U.

    `upper` holds the `rank` nonzero rows of a row echelon form, entries
    in [0, m): row k is zero left of `pivot_cols[k]` and 1 there, so U
    restricted to the pivot columns is unit upper triangular.  The
    blocked elimination stops there.  `echelon`, the reduced row echelon
    form, is built from U by a Gauss-Jordan back pass on first access;
    reordering its columns as pivots-then-free turns the nonzero rows
    into [I_rank | X], and `permutation` records that column order.
    `reduced` marks a U that is already reduced (the naive path).
    """

    upper: np.ndarray
    pivot_cols: tuple[int, ...]
    modulus: PrimeModulus
    rows: int
    block: int = DEFAULT_BLOCK
    reduced: bool = False

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def cols(self) -> int:
        return self.upper.shape[1]

    @cached_property
    def echelon(self) -> FfMatrix:
        m = self.modulus.value
        full = np.zeros((self.rows, self.cols), dtype=np.int64)
        full[: self.rank] = (
            self.upper
            if self.reduced
            else _reduce_upper(self.upper, self.pivot_cols, m, self.block)
        )
        return FfMatrix(full, self.modulus)

    @property
    def free_cols(self) -> tuple[int, ...]:
        pivots = set(self.pivot_cols)
        return tuple(c for c in range(self.cols) if c not in pivots)

    @property
    def permutation(self) -> tuple[int, ...]:
        return self.pivot_cols + self.free_cols

    def x_block(self) -> np.ndarray:
        """The X in [I | X]: pivot rows restricted to free columns."""
        free = list(self.free_cols)
        return self.echelon.data[: self.rank][:, free]


def rref(a: FfMatrix, block: int = DEFAULT_BLOCK, naive: bool = False) -> RrefResult:
    return a.rref(block=block, naive=naive)


def rank(a: FfMatrix, naive: bool = False) -> int:
    return a.rank(naive=naive)


def null_vector(res: RrefResult, f0) -> np.ndarray:
    """Kernel vector with f0 in the free slots and -X f0 in the pivot slots.

    Solves U x = 0 for the pivot coordinates by blocked back-substitution
    over the echelon rows, from the last pivot block up; U is unit upper
    triangular on the pivot columns, so the solution is unique and equals
    -X f0 from the reduced form.  The result is annihilated exactly by
    any matrix whose row space the echelon rows came from.
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
    upper = res.upper
    for i0 in reversed(range(0, res.rank, res.block)):
        i1 = min(i0 + res.block, res.rank)
        pcols = list(res.pivot_cols[i0:i1])
        first = pcols[0]
        # rows i0..i1 against every coordinate known so far: the free
        # ones and the pivots of later blocks (this block's are still 0)
        acc = _mod_matmul(upper[i0:i1, first:], normal[first:, None], m)[:, 0]
        tri = upper[i0:i1, pcols]
        for t in range(i1 - i0 - 1, -1, -1):
            x = -acc[t] % m
            normal[pcols[t]] = x
            acc[:t] = (acc[:t] + tri[:t, t] * x) % m
    return normal
