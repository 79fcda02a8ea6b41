import random
from fractions import Fraction

import pytest

from optwist.linalg import (
    _DENSE_CUTOFF,
    CochainComplex,
    Echelon,
    FinMatrix,
    _dense_ok,
    _eliminate_modp,
    _rref,
    random_sparse,
)


def test_entry_normalization():
    m = FinMatrix(2, 2, {(0, 0): 5, (0, 1): 0, (1, 1): -1}, p=3)
    assert m.entries == {(0, 0): 2, (1, 1): 2}
    q = FinMatrix(1, 1, {(0, 0): 2})
    assert q[(0, 0)] == Fraction(2)


def test_matmul_identity_and_assoc():
    a = random_sparse(4, 5, 0.5, seed=1)
    assert FinMatrix.identity(4) @ a == a
    assert a @ FinMatrix.identity(5) == a
    b = random_sparse(5, 3, 0.5, seed=2)
    c = random_sparse(3, 6, 0.5, seed=3)
    assert (a @ b) @ c == a @ (b @ c)


def test_stacks():
    a = random_sparse(3, 2, 0.7, seed=4)
    b = random_sparse(3, 4, 0.7, seed=5)
    h = a.hstack(b)
    assert (h.nrows, h.ncols) == (3, 6)
    assert h[(1, 3)] == b[(1, 1)]
    v = a.vstack(random_sparse(2, 2, 0.7, seed=6))
    assert (v.nrows, v.ncols) == (5, 2)


@pytest.mark.parametrize("seed", range(20))
def test_rank_backends_agree_rational(seed):
    m = random_sparse(6 + seed % 4, 7 - seed % 3, 0.35, seed=seed)
    assert m.rank(backend="gauss") == m.rank(backend="bareiss")


@pytest.mark.parametrize("seed", range(20))
def test_rank_backends_agree_modp(seed):
    m = random_sparse(6 + seed % 5, 6 + (seed * 3) % 5, 0.4, seed=seed, p=101)
    assert m.rank(backend="gauss") == m.rank(backend="dense")
    assert m.rank(backend="sparse") == m.rank(backend="gauss")


def test_sparse_rank_on_wide_matrix():
    m = random_sparse(90, 300, 0.03, seed=40, p=101)
    assert m.rank(backend="sparse") == m.rank(backend="dense")


def test_sparse_rank_duplicate_structure():
    # repeated rows and empty columns exercise the pivot bookkeeping
    rows = [[1, 0, 2, 0], [1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 6, 0], [0, 0, 1, 0]]
    m = FinMatrix.from_rows(rows, p=101)
    assert m.rank(backend="sparse") == 2


def test_rank_backend_field_guards():
    with pytest.raises(ValueError):
        random_sparse(3, 3, 0.5, seed=0, p=7).rank(backend="bareiss")
    with pytest.raises(ValueError):
        random_sparse(3, 3, 0.5, seed=0).rank(backend="dense")
    with pytest.raises(ValueError):
        random_sparse(3, 3, 0.5, seed=0).rank(backend="sparse")
    # residue products past 2^62 would overflow the int64 arrays
    with pytest.raises(ValueError):
        random_sparse(3, 3, 0.5, seed=0, p=2**31 + 11).rank(backend="dense")


def test_rank_small_knowns():
    assert FinMatrix.identity(5).rank() == 5
    assert FinMatrix.zeros(4, 7).rank() == 0
    # rank 1: all rows proportional
    m = FinMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert m.rank(backend="gauss") == 1
    assert m.rank(backend="bareiss") == 1
    # 2 mod 2 is zero
    assert FinMatrix.from_rows([[2]], p=2).rank() == 0


@pytest.mark.parametrize("p", [0, 101])
@pytest.mark.parametrize("seed", range(8))
def test_kernel_is_kernel(p, seed):
    m = random_sparse(5, 8, 0.4, seed=seed, p=p)
    k = m.kernel_basis()
    assert (m @ k).is_zero()
    assert k.ncols == m.ncols - m.rank()
    assert k.rank() == k.ncols


@pytest.mark.parametrize("p", [0, 101])
def test_solve_consistent_and_not(p):
    a = random_sparse(6, 4, 0.6, seed=11, p=p)
    x0 = random_sparse(4, 3, 0.8, seed=12, p=p)
    b = a @ x0
    x = a.solve_matrix(b)
    assert x is not None and a @ x == b
    # a zero map cannot hit a nonzero target
    z = FinMatrix.zeros(3, 2, p=p)
    bad = FinMatrix(3, 1, {(0, 0): 1}, p=p)
    assert z.solve_matrix(bad) is None
    assert z.solve([0, 0, 0]) is not None


def test_dense_path_on_large_modp():
    # straddle the cutoff so the numpy route actually runs
    m = random_sparse(60, 55, 0.15, seed=21, p=101)
    assert m.rank(backend="dense") == m.rank(backend="gauss")
    k = m.kernel_basis()
    assert (m @ k).is_zero()
    assert k.ncols == 55 - m.rank()
    x0 = random_sparse(55, 2, 0.5, seed=22, p=101)
    b = m @ x0
    x = m.solve_matrix(b)
    assert x is not None and m @ x == b


def test_cochain_complex_exact_example():
    d0 = FinMatrix.from_rows([[1], [1]])
    d1 = FinMatrix.from_rows([[1, -1]])
    cx = CochainComplex([1, 2, 1], [d0, d1])
    assert cx.cohomology_dims() == [0, 0, 0]


def test_cochain_complex_with_homology():
    # 0 -> k^2 -0-> k -> 0 : cohomology is everything
    cx = CochainComplex([2, 1], [FinMatrix.zeros(1, 2)])
    assert cx.cohomology_dims() == [2, 1]


def test_cochain_complex_rejects_nonzero_square():
    d0 = FinMatrix.from_rows([[1], [0]])
    d1 = FinMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        CochainComplex([1, 2, 1], [d0, d1])


@pytest.mark.parametrize("p", [101, 2**31 - 1])
@pytest.mark.parametrize("shape", [(47, 40), (48, 30), (60, 55), (30, 80)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_dense_rref_matches_list_rref(p, shape):
    # a product through a narrow middle is rank-deficient, so pivots
    # skip columns and rows above a pivot carry entries to clear
    nrows, ncols = shape
    mid = min(shape) // 2
    m = random_sparse(nrows, mid, 0.3, seed=nrows, p=p) @ \
        random_sparse(mid, ncols, 0.3, seed=ncols, p=p)
    assert _dense_ok(p, nrows, ncols) == (max(shape) >= _DENSE_CUTOFF)
    rows, pivots = m.rref()
    assert (rows, pivots) == _rref(m.to_rows(), p)
    assert 0 < len(pivots) <= mid
    limit = ncols // 2
    arr, lim_pivots = _eliminate_modp(m.to_numpy(), p, pivot_limit=limit)
    assert (arr.tolist(), lim_pivots) == _rref(m.to_rows(), p, pivot_limit=limit)
    assert m.rank(backend="dense") == m.rank(backend="gauss") == len(pivots)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_echelon_matches_gauss_rank_modp(p):
    # seeded vectors with coordinates outside 0..p-1, some of them sums
    # of earlier ones so that the span stalls; each step is checked
    # against a Gauss rank of everything inserted so far
    rng = random.Random(p)

    def rank(rows):
        return FinMatrix.from_rows(rows, p).rank(backend="gauss") if rows else 0

    for _ in range(40):
        dim = rng.randrange(1, 9)
        ech, inserted = Echelon(dim, p), []
        for _ in range(rng.randrange(1, 2 * dim + 2)):
            if len(inserted) >= 2 and rng.random() < 0.4:
                a, b = rng.sample(inserted, 2)
                vec = [x + y for x, y in zip(a, b)]
            else:
                vec = [rng.choice((0, 0, rng.randrange(-p, 2 * p))) for _ in range(dim)]
            before = rank(inserted)
            raises = rank(inserted + [vec]) > before
            assert ech.contains(vec) == (not raises)
            red = ech.residue(vec)
            assert all(0 <= v < p for v in red)
            assert all(red[c] == 0 for c, _ in ech.rows)
            in_span = [(x - y) % p for x, y in zip(vec, red)]
            assert rank(inserted + [in_span]) == before
            assert ech.insert(vec) == raises
            inserted.append(vec)
            assert ech.rank == rank(inserted)
