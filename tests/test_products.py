import itertools
from math import comb

import pytest

from optwist.operads import (
    AssOperad,
    ComOperad,
    FreeReducedOperad,
    UnitOperad,
    ass,
    com,
    compose_values,
    identity_values,
    perms,
)
from optwist.products import (
    InfinitesimalCollection,
    ProductCollection,
    SymmetrizedCollection,
    _compose_blocks,
    compose_blocks,
    free_infinitesimal_bimodule,
    is_node,
    tower_degeneracy,
    tower_face,
    tower_height,
    tower_levels,
)


def set_partitions(labels):
    """All partitions of a list into unordered nonempty blocks."""
    labels = list(labels)
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_compose_blocks_interleaves_labels():
    P = ass()
    theta = (1, 2)
    out = compose_blocks(P, theta, [((2, 4), (1, 2)), ((1, 3), (1, 2))])
    # slot one multiplies labels 2 then 4, slot two labels 1 then 3
    assert out == (3, 1, 4, 2)


def test_compose_blocks_on_contiguous_labels_is_plain_composition():
    P = ass()
    theta = (2, 1)
    psis = [(1, 2), (2, 1)]
    labeled = [((1, 2), psis[0]), ((3, 4), psis[1])]
    assert compose_blocks(P, theta, labeled) == P.compose(theta, psis)


def _labeled_sweep(P, max_total):
    """(theta, labeled fillers) over every theta of arity <= 2, fillers
    of total arity <= max_total, and every way of dealing the labels
    1..n into the filler blocks."""
    lo = 0 if P.level(0) else 1
    for k in range(3):
        for ns in itertools.product(range(lo, 3), repeat=k):
            n = sum(ns)
            if n > max_total:
                continue
            for theta in P.level(k):
                for psis in itertools.product(*[P.level(a) for a in ns]):
                    for order in itertools.permutations(range(1, n + 1)):
                        labeled, pos = [], 0
                        for a, psi in zip(ns, psis):
                            labeled.append((tuple(sorted(order[pos:pos + a])), psi))
                            pos += a
                        yield theta, labeled


@pytest.mark.parametrize("make", [AssOperad, ComOperad,
                                  lambda: FreeReducedOperad((("m", 2),), truncation=4)],
                         ids=["ass", "com", "free:m:2"])
def test_compose_blocks_memo_matches_uncached(make):
    P = make()
    seen = 0
    for theta, labeled in _labeled_sweep(P, 4):
        expected = _compose_blocks(P, theta, labeled)
        assert compose_blocks(P, theta, labeled) == expected
        # the second call is answered from the memo
        assert compose_blocks(P, theta, list(labeled)) == expected
        seen += 1
    assert seen > 0
    assert 0 < len(P.blocks_memo) <= seen


def test_compose_blocks_memo_never_stores_an_error():
    P = FreeReducedOperad((("m", 2),), truncation=3)
    m2 = P.level(2)[0]
    labeled = [((1, 2), m2), ((3, 4), m2)]
    for _ in range(2):
        with pytest.raises(ValueError):
            compose_blocks(P, m2, labeled)
    assert P.blocks_memo == {}


class TestProductCollection:
    def test_com_com_needs_bound(self):
        with pytest.raises(ValueError):
            ProductCollection(com(), com())

    def test_com_com_counts(self):
        MN = ProductCollection(com(), com(), k_bound=3)
        # classes are multisets of blocks, empties allowed up to the cap
        assert len(MN.level(2)) == 5
        MN2 = ProductCollection(com(), com(), k_bound=2)
        assert len(MN2.level(2)) == 3

    def test_reduced_inner_counts_match_partition_formula(self):
        N = FreeReducedOperad((("m", 2),), truncation=3)
        MN = ProductCollection(com(), N)
        for n in range(1, 4):
            expected = 0
            for part in set_partitions(range(n)):
                prod = 1
                for block in part:
                    prod *= len(N.level(len(block)))
                expected += prod  # outer level always a singleton
            assert len(MN.level(n)) == expected

    def test_unit_collection_is_neutral(self):
        M = ass()
        I = UnitOperad()
        left = ProductCollection(I, M, k_bound=1)
        right = ProductCollection(M, I)
        for n in range(5):
            assert len(left.level(n)) == len(M.level(n))
            assert len(right.level(n)) == len(M.level(n))

    def test_action_laws(self):
        N = FreeReducedOperad((("m", 2),), truncation=3)
        MN = ProductCollection(com(), N)
        lvl = MN.level(3)
        e = identity_values(3)
        for elem in lvl:
            assert MN.act(elem, e) == elem
            for tau in perms(3):
                moved = MN.act(elem, tau)
                assert moved in lvl
                for sigma in perms(3):
                    assert MN.act(moved, sigma) == MN.act(
                        elem, compose_values(tau, sigma)
                    )

    def test_canonical_reps_are_stable(self):
        N = FreeReducedOperad((("m", 2),), truncation=3)
        MN = ProductCollection(ass(), N, k_bound=3)
        assert MN.level(2) == MN.level(2)
        assert len(set(MN.level(2))) == len(MN.level(2))


class TestInfinitesimal:
    @pytest.mark.parametrize("n", range(4))
    def test_count_formula_ass(self, n):
        P = ass()
        MN = InfinitesimalCollection(P, P)
        expected = sum(
            comb(n, j) * len(P.level(j)) * len(P.level(n - j + 1))
            for j in range(n + 1)
        )
        assert len(MN.level(n)) == expected

    @pytest.mark.parametrize("n", range(1, 4))
    def test_count_formula_free(self, n):
        P = FreeReducedOperad((("m", 2),), truncation=4)
        MN = InfinitesimalCollection(P, P)
        expected = sum(
            comb(n, j) * len(P.level(j)) * len(P.level(n - j + 1))
            for j in range(n + 1)
        )
        assert len(MN.level(n)) == expected

    def test_action_laws(self):
        P = FreeReducedOperad((("m", 2),), truncation=4)
        MN = InfinitesimalCollection(P, P)
        lvl = MN.level(3)
        for elem in lvl:
            for tau in perms(3):
                moved = MN.act(elem, tau)
                assert moved in lvl
                for sigma in perms(3):
                    assert MN.act(moved, sigma) == MN.act(
                        elem, compose_values(tau, sigma)
                    )

    def test_free_bimodule_small_levels(self):
        M = FreeReducedOperad((("m", 2),), truncation=2)
        B = free_infinitesimal_bimodule(com(), M)
        # arity 0 of the middle layer: one or two empty strands feeding
        # the unary or binary generator, two classes total
        assert len(B.N.level(0)) == 2
        assert len(B.level(0)) == len(B.N.level(0))
        for n in range(3):
            expected = sum(
                comb(n, j) * len(B.N.level(j)) for j in range(n + 1)
            )
            assert len(B.level(n)) == expected


class TestSymmetrized:
    def test_levels_and_action(self):
        planar = lambda n: tuple(f"g{i}" for i in range(max(0, 3 - n)))
        S = SymmetrizedCollection(planar)
        assert len(S.level(2)) == 2 * 1
        elem = S.level(2)[0]
        assert S.act(elem, (2, 1))[1] == elem[1]


class TestTowers:
    def oracle_count(self, P, height, n, cache=None):
        if cache is None:
            cache = {}
        key = (height, n)
        if key in cache:
            return cache[key]
        if height == 1:
            out = len(P.level(n))
        else:
            out = 0
            for part in set_partitions(range(n)):
                prod = len(P.level(len(part)))
                for block in part:
                    prod *= self.oracle_count(P, height - 1, len(block), cache)
                out += prod
        cache[key] = out
        return out

    def test_counts_against_partition_oracle(self):
        P = FreeReducedOperad((("m", 2),), truncation=3)
        for h in (2, 3, 4):
            for n in (1, 2, 3):
                assert len(tower_levels(P, h, n)) == self.oracle_count(P, h, n)

    def test_rejects_nonreduced(self):
        with pytest.raises(ValueError):
            tower_levels(ass(), 2, 2)

    def test_face_lands_one_level_down(self):
        P = FreeReducedOperad((("m", 2),), truncation=3)
        for h in (2, 3):
            for n in (1, 2, 3):
                target = set(tower_levels(P, h, n))
                for t in tower_levels(P, h + 1, n):
                    for i in range(h):
                        ft = tower_face(P, t, i)
                        assert tower_height(ft) == h
                        assert ft in target

    def test_degeneracy_lands_one_level_up(self):
        P = FreeReducedOperad((("m", 2),), truncation=3)
        for h in (2, 3):
            for n in (1, 2, 3):
                target = set(tower_levels(P, h + 1, n))
                for t in tower_levels(P, h, n):
                    for i in range(h - 1):
                        st = tower_degeneracy(P, t, i)
                        assert st in target

    def test_simplicial_identities(self):
        P = FreeReducedOperad((("m", 2),), truncation=3)
        for h in (2, 3, 4):
            for n in (1, 2, 3):
                for t in tower_levels(P, h, n):
                    faces = range(h - 1)
                    degs = range(h - 1)
                    for j in faces:
                        for i in range(j):
                            assert tower_face(P, tower_face(P, t, j), i) == tower_face(
                                P, tower_face(P, t, i), j - 1
                            )
                    for j in degs:
                        sj = tower_degeneracy(P, t, j)
                        assert tower_face(P, sj, j) == t
                        assert tower_face(P, sj, j + 1) == t
                        for i in degs:
                            if i <= j:
                                assert tower_degeneracy(
                                    P, tower_degeneracy(P, t, j), i
                                ) == tower_degeneracy(
                                    P, tower_degeneracy(P, t, i), j + 1
                                )
                        for i in range(h):
                            if i < j:
                                assert tower_face(P, sj, i) == tower_degeneracy(
                                    P, tower_face(P, t, i), j - 1
                                )
                            elif i > j + 1:
                                assert tower_face(P, sj, i) == tower_degeneracy(
                                    P, tower_face(P, t, i - 1), j
                                )

    def test_is_node_shape(self):
        P = FreeReducedOperad((("m", 2),), truncation=3)
        for t in tower_levels(P, 2, 2):
            assert is_node(t)
            assert tower_height(t) == 2
        for t in tower_levels(P, 1, 2):
            assert not is_node(t)
