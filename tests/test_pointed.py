import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from optwist.pointed import (
    MonotoneMap,
    Permutation,
    PointedMap,
    enumerate_monotone,
    enumerate_permutations,
    enumerate_pointed_maps,
    fiber_sequence,
    in_iota_image,
    iota,
    sigma_f,
    sigma_inv_values,
)


@st.composite
def pointed_maps(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    m = draw(st.integers(0, max_size))
    values = tuple(draw(st.integers(0, m)) for _ in range(n))
    return PointedMap(n, m, values)


@st.composite
def composable_pointed_triples(draw, max_size=5):
    sizes = [draw(st.integers(0, max_size)) for _ in range(4)]
    maps = []
    for src, tgt in zip(sizes, sizes[1:]):
        maps.append(PointedMap(src, tgt, tuple(draw(st.integers(0, tgt)) for _ in range(src))))
    return tuple(maps)


@st.composite
def permutations(draw, max_size=7):
    n = draw(st.integers(0, max_size))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


class TestPointedMap:
    def test_call_and_basepoint(self):
        f = PointedMap(3, 2, (2, 0, 1))
        assert f(0) == 0
        assert [f(i) for i in (1, 2, 3)] == [2, 0, 1]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PointedMap(2, 1, (0, 2))
        with pytest.raises(ValueError):
            PointedMap(2, 1, (0,))

    @given(composable_pointed_triples())
    def test_composition_associative(self, maps):
        f, g, h = maps[2], maps[1], maps[0]
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    @given(pointed_maps())
    def test_identity_laws(self, f):
        assert f.compose(PointedMap.identity(f.n)) == f
        assert PointedMap.identity(f.m).compose(f) == f

    def test_enumeration_count(self):
        for n in range(4):
            for m in range(4):
                maps = enumerate_pointed_maps(n, m)
                assert len(maps) == (m + 1) ** n
                assert len(set(maps)) == len(maps)

    def test_fibers_partition(self):
        f = PointedMap(4, 2, (2, 0, 2, 1))
        assert f.fiber(0) == (2,)
        assert f.fiber(1) == (4,)
        assert f.fiber(2) == (1, 3)

    def test_fiber_lookup_matches_scan(self):
        for n in range(4):
            for m in range(4):
                for f in enumerate_pointed_maps(n, m):
                    for i in range(m + 1):
                        scan = tuple(j for j in range(1, n + 1) if f(j) == i)
                        assert f.fiber(i) == scan
                    assert sigma_inv_values(f) == sigma_f(f).inverse().values


class TestTrustedComposites:
    """``compose`` skips ``__post_init__``; these plant errors to show the
    checks still run where they must, and compare every small composite
    with the validated construction."""

    def test_bad_direct_construction_still_raises(self):
        for bad in [(2, 1, (0, 2)), (2, 1, (0,)), (2, 1, (-1, 0))]:
            with pytest.raises(ValueError):
                PointedMap(*bad)
        for bad in [(1, 2, (2, 0)), (1, 2, (0,)), (1, 2, (0, 3)), (1, 2, (-1, 0))]:
            with pytest.raises(ValueError):
                MonotoneMap(*bad)

    def test_non_composable_compose_still_raises(self):
        with pytest.raises(ValueError):
            PointedMap.identity(2).compose(PointedMap.identity(3))
        with pytest.raises(ValueError):
            MonotoneMap.identity(2).compose(MonotoneMap.identity(3))

    def test_pointed_composites_match_validated(self):
        for k, n, m in itertools.product(range(4), repeat=3):
            for g in enumerate_pointed_maps(k, n):
                for f in enumerate_pointed_maps(n, m):
                    got = f.compose(g)
                    want = PointedMap(k, m, tuple(f(v) for v in g.values))
                    assert type(got) is PointedMap
                    assert got == want and hash(got) == hash(want)
                    assert got.fibers == want.fibers

    def test_monotone_composites_match_validated(self):
        for l, m, n in itertools.product(range(4), repeat=3):
            for g in enumerate_monotone(l, m):
                for f in enumerate_monotone(m, n):
                    got = f.compose(g)
                    want = MonotoneMap(l, n, tuple(f(v) for v in g.values))
                    assert type(got) is MonotoneMap
                    assert got == want and hash(got) == hash(want)


class TestPermutation:
    @given(permutations())
    def test_inverse(self, s):
        e = Permutation.identity(s.n)
        assert s.compose(s.inverse()) == e
        assert s.inverse().compose(s) == e

    @given(permutations(max_size=5), st.data())
    def test_composition_matches_pointwise(self, s, data):
        t = Permutation(tuple(data.draw(st.permutations(range(1, s.n + 1)))))
        st_ = s.compose(t)
        for i in range(1, s.n + 1):
            assert st_(i) == s(t(i))

    def test_pointed_embedding(self):
        s = Permutation((3, 1, 2))
        assert s.to_pointed().is_bijective()
        assert not PointedMap(2, 2, (1, 1)).is_bijective()


class TestSigma:
    def test_fiber_sequence_layout(self):
        # nonzero fibers in target order, then the punctured zero fiber
        f = PointedMap(5, 2, (2, 0, 1, 2, 0))
        assert fiber_sequence(f) == ((3,), (1, 4), (2, 5))
        assert sigma_f(f) == Permutation((3, 1, 4, 2, 5))

    def test_constant_zero_gives_identity(self):
        for n in range(5):
            assert sigma_f(PointedMap.const_zero(n, 3)) == Permutation.identity(n)

    def test_identity_gives_identity(self):
        assert sigma_f(PointedMap.identity(4)) == Permutation.identity(4)

    def test_two_point_example(self):
        f = PointedMap(2, 1, (0, 1))
        assert sigma_f(f) == Permutation((2, 1))

    @given(pointed_maps())
    def test_sigma_is_permutation(self, f):
        assert sigma_f(f).n == f.n


class TestMonotone:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            MonotoneMap(1, 2, (2, 0))

    def test_enumeration_count(self):
        for m in range(4):
            for n in range(4):
                maps = enumerate_monotone(m, n)
                assert len(maps) == comb(m + n + 1, m + 1)

    @given(st.data())
    def test_composition(self, data):
        l = data.draw(st.integers(0, 4))
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 4))
        g1 = data.draw(st.sampled_from(enumerate_monotone(l, m)))
        g2 = data.draw(st.sampled_from(enumerate_monotone(m, n)))
        comp = g2.compose(g1)
        assert comp.values == tuple(g2(g1(i)) for i in range(l + 1))


class TestIota:
    def test_identity(self):
        for n in range(5):
            assert iota(MonotoneMap.identity(n)) == PointedMap.identity(n)

    def test_constant_maps_collapse(self):
        for v in range(3):
            g = MonotoneMap(1, 2, (v, v))
            assert iota(g) == PointedMap.const_zero(2, 1)

    def test_coface(self):
        # [1] -> [2] skipping 1: both nonbase points of <2> land on 1
        assert iota(MonotoneMap(1, 2, (0, 2))) == PointedMap(2, 1, (1, 1))

    def test_functoriality_exhaustive(self):
        for l, m, n in itertools.product(range(4), repeat=3):
            for g1 in enumerate_monotone(l, m):
                for g2 in enumerate_monotone(m, n):
                    lhs = iota(g2.compose(g1))
                    rhs = iota(g1).compose(iota(g2))
                    assert lhs == rhs

    @given(st.data())
    def test_functoriality_sampled(self, data):
        l = data.draw(st.integers(0, 6))
        m = data.draw(st.integers(0, 6))
        n = data.draw(st.integers(0, 6))
        g1 = data.draw(st.sampled_from(enumerate_monotone(l, m)))
        g2 = data.draw(st.sampled_from(enumerate_monotone(m, n)))
        assert iota(g2.compose(g1)) == iota(g1).compose(iota(g2))

    def test_image_membership_matches_enumeration(self):
        for n in range(5):
            for m in range(4):
                image = {iota(g) for g in enumerate_monotone(m, n)}
                for f in enumerate_pointed_maps(n, m):
                    ok, pre = in_iota_image(f)
                    assert ok == (f in image)
                    if ok and not f.is_constant_zero():
                        assert pre is not None and iota(pre) == f
                    if ok and f.is_constant_zero():
                        assert pre is None

    def test_preimage_unique_when_nonconstant(self):
        for n in range(5):
            for m in range(4):
                seen: dict = {}
                for g in enumerate_monotone(m, n):
                    f = iota(g)
                    if f.is_constant_zero():
                        continue
                    assert seen.setdefault(f, g) == g

    def test_permutation_fibers_are_singletons(self):
        for s in enumerate_permutations(3):
            f = s.to_pointed()
            ok, pre = in_iota_image(f)
            # only the identity groups its fibers into a consecutive run
            assert ok == (s == Permutation.identity(3))
