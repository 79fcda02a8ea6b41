"""Exact linear algebra over the rationals and prime fields.

Everything downstream that needs a rank, a kernel, or a lifting problem
solved goes through ``FinMatrix``.  Matrices are stored sparsely; the
characteristic is carried on the matrix (``p == 0`` means exact
rationals via ``fractions.Fraction``, ``p`` prime means ``F_p`` with
entries normalized to ``0..p-1``).

Every elimination takes one of four routes:

* ``gauss``: Gauss-Jordan on lists of rows (``_rref``), over Q or F_p;
* ``bareiss``: fraction-free integer elimination (``p == 0`` only),
  immune to any bug in ``Fraction`` pivoting since it never divides
  except exactly;
* ``dense``: Gauss-Jordan on an int64 numpy array mod ``p``
  (``_eliminate_modp``), the fast path for the larger mod-p matrices;
* ``sparse``: mod-p elimination on dict rows (rank only), which keeps
  memory in check where a dense array would not fit.

``rank()`` takes ``dense`` when ``_dense_ok`` holds (``0 < p <
MAX_PRIME``, an edge of at least ``_DENSE_CUTOFF`` and at most
``_DENSE_MAX_CELLS`` cells), ``sparse`` for a mod-p matrix past
``_DENSE_MAX_CELLS``, and ``gauss`` otherwise; ``rank(backend=...)``
picks any of the four.  ``rref``, ``kernel_basis`` and ``solve_matrix``
take ``dense`` under the same test and ``gauss`` otherwise.

``Echelon`` is the incremental route: it grows a span one vector at a
time and answers membership with an exact residue, for the spans that
functor closures and resolution covers build.  It stores each row as
its nonzero (column, value) pairs, over Q and F_p alike; on the small
vectors it sees, that beats a numpy row, whose cost is call overhead.
It and ``gauss`` subtract a multiple of a pivot row through one row
update, ``_row_update``, which reduces mod p over F_p.

``MAX_PRIME = 2^31`` is the one bound on the characteristic: the dense
route multiplies two residues before reducing, and for ``p < 2^31``
that product stays below ``2^62``, inside int64.

The slow backends are not dead code: tests run them against each other
on seeded random inputs, and they stay available for spot checks.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

Entry = tuple[int, int]

# a product of two residues mod p < 2^31 is below 2^62, so it fits int64
MAX_PRIME = 1 << 31
# past this edge size, mod-p rank/rref work switches to the numpy path
_DENSE_CUTOFF = 48
# dense elimination allocates nrows*ncols int64 cells; past this we fall
# back to sparse elimination even mod p
_DENSE_MAX_CELLS = 8_000_000


def _dense_ok(p: int, nrows: int, ncols: int) -> bool:
    return (
        0 < p < MAX_PRIME
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
            if not 0 < self.p < MAX_PRIME:
                raise ValueError("dense backend is for mod-p matrices, p < 2^31")
            r = len(_eliminate_modp(self.to_numpy(), self.p, reduced=False)[1])
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
        return _reduce(self)

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
        rows, pivots = _reduce(self.hstack(rhs), pivot_limit=self.ncols)
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


def _reduce(m: FinMatrix, pivot_limit: int | None = None):
    """Reduced row echelon form of ``m`` as (rows of ints or Fractions,
    pivots), by the dense route when ``_dense_ok`` and by ``_rref``
    otherwise."""
    if _dense_ok(m.p, m.nrows, m.ncols):
        arr, pivots = _eliminate_modp(m.to_numpy(), m.p, pivot_limit)
        return arr.tolist(), pivots
    return _rref(m.to_rows(), m.p, pivot_limit)


def _rref(rows: list[list], p: int, pivot_limit: int | None = None):
    """In-place reduced row echelon form over F_p or Q.

    Pivots are only sought in columns < pivot_limit, which turns the
    same routine into an augmented-system solver.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        # rows are mostly zeros: scale and subtract only along the
        # pivot row's nonzero columns
        support = _unit_support(prow, c, p)
        for j, x in support:
            prow[j] = x
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != 0:
                _row_update(rows[i], f, support, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _unit_support(row: list, c: int, p: int) -> list:
    """The nonzero (column, value) pairs of row, scaled so that column c
    reads 1."""
    iv = pow(row[c], p - 2, p) if p else Fraction(1) / row[c]
    return [(j, x * iv % p if p else x * iv) for j, x in enumerate(row) if x]


def _row_update(row: list, f, support: list, p: int) -> None:
    """row -= f * r in place, r the row whose nonzero (column, value)
    pairs are ``support``; reduced mod p over F_p.  Only the columns of
    the support are touched."""
    if p:
        for j, b in support:
            row[j] = (row[j] - f * b) % p
    else:
        for j, b in support:
            row[j] -= f * b


class Echelon:
    """Incremental row-echelon span tracker with exact membership residues.

    Rows are stored normalized with strictly increasing pivot columns
    and zeros left of each pivot, so reducing a vector against the rows
    in pivot order is a valid membership test without back-reduction.
    A row is kept as its nonzero (column, value) pairs over Q and F_p
    alike, so a reduction step (``_row_update``) touches only the
    columns where the row is nonzero.
    """

    __slots__ = ("dim", "p", "rows")

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.rows: list = []  # (pivot column, support), sorted by pivot

    def residue(self, vec) -> list:
        """vec reduced by the rows in pivot order: zero on every pivot
        column, and zero exactly when vec lies in the span.  Over F_p
        the coordinates come back in 0..p-1; over Q an int coordinate
        stays an int until a row touches it, since an int minus a
        Fraction is the exact Fraction."""
        p = self.p
        arr = [v % p for v in vec] if p else list(vec)
        for c, support in self.rows:
            f = arr[c]
            if f:
                _row_update(arr, f, support, p)
        return arr

    def contains(self, vec) -> bool:
        return not any(self.residue(vec))

    def insert(self, vec) -> bool:
        """Add vec to the span; True when it was a new direction."""
        red = self.residue(vec)
        c = next((j for j, v in enumerate(red) if v), None)
        if c is None:
            return False
        insort(self.rows, (c, _unit_support(red, c, self.p)), key=lambda t: t[0])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def matrix(self) -> FinMatrix:
        """The stored rows as a rank x dim matrix, in pivot order."""
        entries = {(r, j): v for r, (_, support) in enumerate(self.rows)
                   for j, v in support}
        return FinMatrix(len(self.rows), self.dim, entries, self.p)


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


def _eliminate_modp(a: np.ndarray, p: int, pivot_limit: int | None = None,
                    reduced: bool = True):
    """Gauss-Jordan mod p on an int64 array (p < MAX_PRIME), as (array,
    pivots).  Pivots are only sought in columns < pivot_limit.  With
    ``reduced=False`` only the rows below each pivot are cleared, which
    leaves an echelon form with the same pivots: enough for a rank."""
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
        top = 0 if reduced else r + 1
        rest = a[top:, c:]
        factors = rest[:, 0].copy()
        if reduced:
            factors[r] = 0
        if factors.any():
            rest -= np.outer(factors, a[r, c:])
            np.mod(rest, p, out=rest)
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
