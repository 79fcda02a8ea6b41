"""Exact linear algebra over the rationals and prime fields.

Everything downstream that needs a rank, a kernel, or a lifting problem
solved goes through ``FinMatrix``.  Matrices are stored sparsely; the
characteristic is carried on the matrix (``p == 0`` means exact
rationals via ``fractions.Fraction``, ``p`` prime means ``F_p`` with
entries normalized to ``0..p-1``).

Three rank backends are kept side by side on purpose:

* ``gauss``: plain Gauss-Jordan over the field, works for any ``p``;
* ``bareiss``: fraction-free integer elimination (``p == 0`` only),
  immune to any bug in ``Fraction`` pivoting since it never divides
  except exactly;
* ``dense``: numpy int64 elimination mod ``p`` (``p > 0`` only), the
  fast path for the larger mod-p matrices.

The slow backends are not dead code: tests run them against each other
on seeded random inputs, and they stay available for spot checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

Entry = tuple[int, int]

# past this edge size, mod-p rank/rref work switches to the numpy path;
# the modulus must stay small enough that p*p fits an int64 comfortably
_DENSE_CUTOFF = 48
_DENSE_MAX_P = 1 << 20
# dense elimination allocates nrows*ncols int64 cells; past this we fall
# back to sparse elimination even mod p
_DENSE_MAX_CELLS = 8_000_000


def _dense_ok(p: int, nrows: int, ncols: int) -> bool:
    return (
        0 < p < _DENSE_MAX_P
        and max(nrows, ncols) >= _DENSE_CUTOFF
        and nrows * ncols <= _DENSE_MAX_CELLS
    )


def _normalize(value, p: int):
    if p:
        return int(value) % p
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class FinMatrix:
    """Sparse exact matrix; shape is fixed, entries immutable by convention."""

    __slots__ = ("nrows", "ncols", "p", "entries", "_rank_cache")

    def __init__(self, nrows: int, ncols: int, entries: dict[Entry, object], p: int = 0):
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            v = _normalize(v, p)
            if v != 0:
                clean[(i, j)] = v
        self.entries = clean
        self._rank_cache: dict[str, int] = {}

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: list[list], p: int = 0) -> "FinMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {
            (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v
        }
        return FinMatrix(nrows, ncols, entries, p)

    @staticmethod
    def zeros(nrows: int, ncols: int, p: int = 0) -> "FinMatrix":
        return FinMatrix(nrows, ncols, {}, p)

    @staticmethod
    def identity(n: int, p: int = 0) -> "FinMatrix":
        return FinMatrix(n, n, {(i, i): 1 for i in range(n)}, p)

    @staticmethod
    def from_columns(cols: list[list], nrows: int, p: int = 0) -> "FinMatrix":
        entries = {
            (i, j): v for j, col in enumerate(cols) for i, v in enumerate(col) if v
        }
        return FinMatrix(nrows, len(cols), entries, p)

    # -- basics -------------------------------------------------------

    def __getitem__(self, ij: Entry):
        v = self.entries.get(ij)
        if v is not None:
            return v
        return 0 if self.p else Fraction(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinMatrix)
            and (self.nrows, self.ncols, self.p) == (other.nrows, other.ncols, other.p)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.p, frozenset(self.entries.items())))

    def __repr__(self):
        return f"FinMatrix({self.nrows}x{self.ncols}, p={self.p}, nnz={len(self.entries)})"

    def is_zero(self) -> bool:
        return not self.entries

    def to_rows(self) -> list[list]:
        zero = 0 if self.p else Fraction(0)
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def column(self, j: int) -> list:
        zero = 0 if self.p else Fraction(0)
        col = [zero] * self.nrows
        for (i, jj), v in self.entries.items():
            if jj == j:
                col[i] = v
        return col

    def to_numpy(self) -> np.ndarray:
        if not self.p:
            raise ValueError("dense numpy form is only kept for mod-p matrices")
        a = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        for (i, j), v in self.entries.items():
            a[i, j] = v
        return a

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "FinMatrix") -> "FinMatrix":
        self._check_same_shape(other)
        entries = dict(self.entries)
        for ij, v in other.entries.items():
            entries[ij] = entries.get(ij, 0) + v
        return FinMatrix(self.nrows, self.ncols, entries, self.p)

    def __sub__(self, other: "FinMatrix") -> "FinMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "FinMatrix":
        c = _normalize(c, self.p)
        return FinMatrix(
            self.nrows, self.ncols, {ij: c * v for ij, v in self.entries.items()}, self.p
        )

    def __matmul__(self, other: "FinMatrix") -> "FinMatrix":
        if self.ncols != other.nrows or self.p != other.p:
            raise ValueError("shapes or fields do not match")
        by_row: dict[int, list[tuple[int, object]]] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc: dict[Entry, object] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                acc[(i, j)] = acc.get((i, j), 0) + a * b
        return FinMatrix(self.nrows, other.ncols, acc, self.p)

    def transpose(self) -> "FinMatrix":
        return FinMatrix(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()}, self.p
        )

    def hstack(self, other: "FinMatrix") -> "FinMatrix":
        if self.nrows != other.nrows or self.p != other.p:
            raise ValueError("row counts or fields differ")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.ncols)] = v
        return FinMatrix(self.nrows, self.ncols + other.ncols, entries, self.p)

    def vstack(self, other: "FinMatrix") -> "FinMatrix":
        if self.ncols != other.ncols or self.p != other.p:
            raise ValueError("column counts or fields differ")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + self.nrows, j)] = v
        return FinMatrix(self.nrows + other.nrows, self.ncols, entries, self.p)

    def _check_same_shape(self, other: "FinMatrix"):
        if (self.nrows, self.ncols, self.p) != (other.nrows, other.ncols, other.p):
            raise ValueError("shapes or fields do not match")

    # -- elimination --------------------------------------------------

    def rank(self, backend: str | None = None) -> int:
        if backend is None:
            if _dense_ok(self.p, self.nrows, self.ncols):
                backend = "dense"
            elif self.p and self.nrows * self.ncols > _DENSE_MAX_CELLS:
                backend = "sparse"
            else:
                backend = "gauss"
        cached = self._rank_cache.get(backend)
        if cached is not None:
            return cached
        if backend == "gauss":
            _, pivots = _rref(self.to_rows(), self.p)
            r = len(pivots)
        elif backend == "bareiss":
            if self.p:
                raise ValueError("bareiss backend is for characteristic zero")
            r = _rank_bareiss(self.to_rows())
        elif backend == "dense":
            if not self.p:
                raise ValueError("dense backend is for mod-p matrices")
            r = _rank_dense_modp(self.to_numpy(), self.p)
        elif backend == "sparse":
            if not self.p:
                raise ValueError("sparse backend is for mod-p matrices")
            r = _rank_sparse_modp(self.entries, self.nrows, self.ncols, self.p)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._rank_cache[backend] = r
        return r

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def rref(self) -> tuple[list[list], list[int]]:
        """Reduced row echelon form (rows, pivot column indices)."""
        if _dense_ok(self.p, self.nrows, self.ncols):
            arr, pivots = _rref_dense_modp(self.to_numpy(), self.p)
            return [list(map(int, row)) for row in arr], pivots
        return _rref(self.to_rows(), self.p)

    def kernel_basis(self) -> "FinMatrix":
        """Matrix whose columns form a basis of the null space."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        cols = []
        for f in free:
            vec = [0] * self.ncols
            vec[f] = 1
            for r, c in enumerate(pivots):
                v = rows[r][f]
                vec[c] = -v if not self.p else (-v) % self.p
            cols.append(vec)
        return FinMatrix.from_columns(cols, self.ncols, self.p)

    def solve_matrix(self, rhs: "FinMatrix") -> "FinMatrix | None":
        """Some X with self @ X = rhs, or None when inconsistent."""
        if rhs.nrows != self.nrows or rhs.p != self.p:
            raise ValueError("shapes or fields do not match")
        aug = self.hstack(rhs)
        if _dense_ok(self.p, aug.nrows, aug.ncols):
            arr, pivots = _rref_dense_modp(aug.to_numpy(), self.p, pivot_limit=self.ncols)
            rows = [list(map(int, row)) for row in arr]
        else:
            rows, pivots = _rref(aug.to_rows(), self.p, pivot_limit=self.ncols)
        r = len(pivots)
        for i in range(r, self.nrows):
            if any(rows[i][self.ncols + j] != 0 for j in range(rhs.ncols)):
                return None
        entries: dict[Entry, object] = {}
        for k, c in enumerate(pivots):
            for j in range(rhs.ncols):
                v = rows[k][self.ncols + j]
                if v:
                    entries[(c, j)] = v
        return FinMatrix(self.ncols, rhs.ncols, entries, self.p)

    def solve(self, b: list) -> list | None:
        x = self.solve_matrix(FinMatrix.from_columns([list(b)], self.nrows, self.p))
        return None if x is None else x.column(0)


def _rref(rows: list[list], p: int, pivot_limit: int | None = None):
    """In-place reduced row echelon form over F_p or Q.

    Pivots are only sought in columns < pivot_limit, which turns the
    same routine into an augmented-system solver.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    limit = ncols if pivot_limit is None else pivot_limit
    if p:
        inv = lambda x: pow(x, p - 2, p)
    else:
        inv = lambda x: Fraction(1) / x
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        iv = inv(rows[r][c])
        if p:
            rows[r] = [(x * iv) % p for x in rows[r]]
            for i in range(nrows):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        else:
            # rational rows are mostly zeros: scale and subtract only
            # along the pivot row's nonzero columns
            prow = rows[r]
            support = [(j, x * iv) for j, x in enumerate(prow) if x]
            for j, x in support:
                prow[j] = x
            for i in range(nrows):
                row = rows[i]
                f = row[c]
                if i != r and f != 0:
                    for j, b in support:
                        row[j] -= f * b
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rank_bareiss(rows: list[list]) -> int:
    """Fraction-free rank over Q: clear denominators, then Bareiss.

    Division by the previous pivot is exact by the Sylvester identity,
    so the whole computation stays in Z.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    int_rows: list[list[int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        int_rows.append([int(v * mult) for v in row])
    rows_i = int_rows
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows_i[i][c] != 0), None)
        if piv is None:
            continue
        rows_i[r], rows_i[piv] = rows_i[piv], rows_i[r]
        pv = rows_i[r][c]
        for i in range(r + 1, nrows):
            fi = rows_i[i][c]
            # rows with a zero in the pivot column still get rescaled:
            # the Sylvester identity needs every remaining entry to be
            # the bordered minor, and that division is exact
            rows_i[i] = [
                (pv * rows_i[i][j] - fi * rows_i[r][j]) // prev for j in range(ncols)
            ]
        prev = pv
        r += 1
        if r == nrows:
            break
    return r


def _rank_dense_modp(a: np.ndarray, p: int) -> int:
    a = np.mod(a, p)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        iv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * iv) % p
        rest = a[r + 1 :, c:]
        factors = a[r + 1 :, c]
        if factors.any():
            rest -= np.outer(factors, a[r, c:])
            np.mod(rest, p, out=rest)
        r += 1
    return r


def _rank_sparse_modp(entries: dict, nrows: int, ncols: int, p: int) -> int:
    """Sparse mod-p elimination keeping rows as dicts and a live column
    index.  Pivots prefer the sparsest row (row id breaks ties) to slow
    fill-in; exact arithmetic makes the rank order-independent."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
    cols: dict[int, set] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    rank = 0
    for c in range(ncols):
        live = cols.get(c)
        if not live:
            continue
        piv = min(live, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(piv)
        for j in prow:
            cols[j].discard(piv)
        rank += 1
        inv = pow(prow[c], p - 2, p)
        prow = {j: (v * inv) % p for j, v in prow.items()}
        for i in list(cols.get(c, ())):
            row = rows[i]
            factor = row[c]
            for j, v in prow.items():
                nv = (row.get(j, 0) - factor * v) % p
                if nv:
                    if j not in row:
                        cols.setdefault(j, set()).add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
    return rank


def _rref_dense_modp(a: np.ndarray, p: int, pivot_limit: int | None = None):
    a = np.mod(a, p)
    nrows, ncols = a.shape
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        iv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * iv) % p
        others = np.nonzero(a[:, c])[0]
        for i in others:
            if i != r:
                a[i, c:] = (a[i, c:] - a[i, c] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def random_sparse(
    nrows: int, ncols: int, density: float, seed: int, p: int = 0
) -> FinMatrix:
    """Seeded sparse matrix; deterministic for a given argument tuple."""
    rng = random.Random(f"{seed}:{nrows}:{ncols}:{p}")
    entries: dict[Entry, object] = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                if p:
                    entries[(i, j)] = rng.randrange(1, p)
                else:
                    entries[(i, j)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return FinMatrix(nrows, ncols, entries, p)


@dataclass
class CochainComplex:
    """Finite complex 0 -> C^0 -> C^1 -> ... with d composing to zero.

    ``diffs[k]`` is the matrix of ``d: C^k -> C^{k+1}``; the square-zero
    condition is checked on construction, not trusted.
    """

    dims: list[int]
    diffs: list[FinMatrix]
    p: int = 0

    def __post_init__(self):
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair")
        for k, d in enumerate(self.diffs):
            if (d.ncols, d.nrows) != (self.dims[k], self.dims[k + 1]):
                raise ValueError(f"differential {k} has shape {d.nrows}x{d.ncols}")
            if d.p != self.p:
                raise ValueError("field mismatch")
        for k in range(len(self.diffs) - 1):
            if not (self.diffs[k + 1] @ self.diffs[k]).is_zero():
                raise ValueError(f"d^2 != 0 at position {k}")

    def cohomology_dims(self) -> list[int]:
        ranks = [d.rank() for d in self.diffs]
        out = []
        for k, dim in enumerate(self.dims):
            rk_out = ranks[k] if k < len(ranks) else 0
            rk_in = ranks[k - 1] if k >= 1 else 0
            out.append(dim - rk_out - rk_in)
        return out
