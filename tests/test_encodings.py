import itertools
import random

import pytest

from optwist.encodings import (
    IbMorphism,
    act,
    enumerate_b,
    enumerate_b_under,
    enumerate_ib,
    enumerate_l,
    enumerate_r,
    ib_compose,
    ib_identity,
    mono_seq,
    multi_to_ib,
)
from optwist.operads import ass, com
from optwist.pointed import PointedMap, sigma_inv_values


def all_ib(P, n, m):
    return enumerate_ib(P, mono_seq(P, n), mono_seq(P, m))


class TestCounts:
    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), range(4))))
    def test_com_full_encoding(self, n, m):
        assert len(all_ib(com(), n, m)) == (n + 1) ** m

    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), range(4))))
    def test_com_function_shapes(self, n, m):
        P = com()
        got = enumerate_r(P, mono_seq(P, n), mono_seq(P, m))
        assert len(got) == n**m

    def test_com_multi_source(self):
        P = com()
        srcs = (mono_seq(P, 2), mono_seq(P, 1))
        tgt = mono_seq(P, 2)
        assert len(enumerate_b_under(P, srcs, tgt)) == 4**2
        assert len(enumerate_b(P, srcs, tgt)) == 3**2
        assert len(enumerate_l(P, srcs, tgt)) == 0
        tgt3 = mono_seq(P, 3)
        assert len(enumerate_l(P, srcs, tgt3)) == 6

    def test_ass_loop_count(self):
        # one shape keeps the slot, two absorb it into the head
        assert len(all_ib(ass(), 1, 1)) == 3


class TestIdentityAndAssociativity:
    @pytest.mark.parametrize("P", [ass(), com()])
    def test_act_of_identity(self, P):
        for n in range(4):
            e = ib_identity(P, mono_seq(P, n))
            for theta in P.level(n):
                assert act(P, e, theta) == theta

    @pytest.mark.parametrize("P", [ass(), com()])
    def test_compose_with_identity(self, P):
        for n, m in itertools.product(range(3), range(3)):
            src, tgt = mono_seq(P, n), mono_seq(P, m)
            for a in enumerate_ib(P, src, tgt):
                assert ib_compose(P, a, ib_identity(P, src)) == a
                assert ib_compose(P, ib_identity(P, tgt), a) == a

    @pytest.mark.parametrize("P", [ass(), com()])
    def test_compose_associative(self, P):
        sizes = range(3)
        for n, m, l, k in itertools.product(sizes, sizes, sizes, sizes):
            if (n, m, l, k) > (2, 2, 2, 2):
                continue
            homs1 = all_ib(P, n, m)
            homs2 = all_ib(P, m, l)
            homs3 = all_ib(P, l, k)
            for a in homs1[:6]:
                for b in homs2[:6]:
                    ba = ib_compose(P, b, a)
                    for c in homs3[:6]:
                        assert ib_compose(P, c, ba) == ib_compose(
                            P, ib_compose(P, c, b), a
                        )


class TestActFunctoriality:
    """act(compose) == act after act, the binding check of the module."""

    @pytest.mark.parametrize("P,top", [(ass(), 2), (com(), 3)])
    def test_exhaustive_small(self, P, top):
        sizes = range(top + 1)
        for n in sizes:
            thetas = P.level(n)
            for m in sizes:
                homs_nm = all_ib(P, n, m)
                acted = {
                    (ai, theta): act(P, a, theta)
                    for ai, a in enumerate(homs_nm)
                    for theta in thetas
                }
                for l in sizes:
                    homs_ml = all_ib(P, m, l)
                    for b in homs_ml:
                        for ai, a in enumerate(homs_nm):
                            ba = ib_compose(P, b, a)
                            for theta in thetas:
                                assert act(P, ba, theta) == act(
                                    P, b, acted[(ai, theta)]
                                )


class TestTrustedComposite:
    """``ib_compose`` skips ``IbMorphism``'s checks; its result must be
    the arrow the validating constructor builds from the same data."""

    @staticmethod
    def _assert_valid(P, b, a):
        r = ib_compose(P, b, a)
        assert r._sigma_inv == sigma_inv_values(r.f)
        f = PointedMap(r.f.n, r.f.m, r.f.values)
        rebuilt = IbMorphism(r.source, r.target, f, r.alpha0, r.alphas)
        assert r == rebuilt and hash(r) == hash(rebuilt)

    @pytest.mark.parametrize("P", [ass(), com()])
    def test_every_pair_up_to_arity_2(self, P):
        for n, m, l in itertools.product(range(3), repeat=3):
            for a in all_ib(P, n, m):
                for b in all_ib(P, m, l):
                    self._assert_valid(P, b, a)

    @pytest.mark.parametrize("P", [ass(), com()])
    def test_seeded_sample_at_arity_3(self, P):
        rng = random.Random(3)
        for n, m, l in itertools.product(range(4), repeat=3):
            if max(n, m, l) < 3:
                continue
            homs_nm, homs_ml = all_ib(P, n, m), all_ib(P, m, l)
            for _ in range(4):
                self._assert_valid(P, rng.choice(homs_ml), rng.choice(homs_nm))

    def test_constructor_still_validates(self):
        P = com()
        seq1, seq2 = mono_seq(P, 1), mono_seq(P, 2)
        with pytest.raises(ValueError):
            IbMorphism(seq1, seq2, PointedMap(1, 2, (1,)), P.unit(), (P.unit(),))
        with pytest.raises(ValueError):
            IbMorphism(seq1, seq1, PointedMap.identity(1), P.unit(), ())


class TestSigmaShapes:
    def test_permutation_shape_acts_by_twist(self):
        P = ass()
        for n in range(1, 4):
            seq = mono_seq(P, n)
            for sigma in itertools.permutations(range(1, n + 1)):
                f = PointedMap(n, n, tuple(sigma))
                m = IbMorphism(
                    seq, seq, f, P.unit(), tuple(P.unit() for _ in range(n))
                )
                for theta in P.level(n):
                    assert act(P, m, theta) == P.act(theta, sigma)


class TestRestrictedEncodings:
    @pytest.mark.parametrize("P", [ass(), com()])
    def test_function_shapes_closed_under_composition(self, P):
        for n, m, l in itertools.product(range(3), repeat=3):
            rs1 = enumerate_r(P, mono_seq(P, n), mono_seq(P, m))
            rs2 = enumerate_r(P, mono_seq(P, m), mono_seq(P, l))
            target = set(enumerate_r(P, mono_seq(P, n), mono_seq(P, l)))
            for a in rs1:
                for b in rs2:
                    assert ib_compose(P, b, a) in target

    @pytest.mark.parametrize("P", [ass(), com()])
    def test_unary_multi_closed_under_composition(self, P):
        for n, m, l in itertools.product(range(3), repeat=3):
            bs1 = [
                multi_to_ib(x)
                for x in enumerate_b(P, (mono_seq(P, n),), mono_seq(P, m))
            ]
            bs2 = [
                multi_to_ib(x)
                for x in enumerate_b(P, (mono_seq(P, m),), mono_seq(P, l))
            ]
            target = {
                multi_to_ib(x)
                for x in enumerate_b(P, (mono_seq(P, n),), mono_seq(P, l))
            }
            for a in bs1:
                for b in bs2:
                    assert ib_compose(P, b, a) in target

    def test_unary_permutation_shapes_closed(self):
        P = ass()
        n = 3
        ls = [
            multi_to_ib(x)
            for x in enumerate_l(P, (mono_seq(P, n),), mono_seq(P, n))
        ]
        assert len(ls) == 6
        target = set(ls)
        for a in ls:
            for b in ls:
                assert ib_compose(P, b, a) in target

    @pytest.mark.parametrize("P", [ass(), com()])
    def test_inclusions_injective(self, P):
        for n, m in itertools.product(range(3), range(3)):
            raw = enumerate_b_under(P, (mono_seq(P, n),), mono_seq(P, m))
            included = [multi_to_ib(x) for x in raw]
            assert len(set(included)) == len(raw)
            full = set(all_ib(P, n, m))
            assert set(included) <= full

    def test_subset_chain(self):
        P = com()
        srcs = (mono_seq(P, 1), mono_seq(P, 2))
        tgt = mono_seq(P, 3)
        b_under = set(enumerate_b_under(P, srcs, tgt))
        b = set(enumerate_b(P, srcs, tgt))
        l = set(enumerate_l(P, srcs, tgt))
        assert l <= b <= b_under
