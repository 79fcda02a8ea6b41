import itertools

import pytest
from hypothesis import given, strategies as st

from optwist.operads import (
    LEAF,
    AssOperad,
    ComOperad,
    FreeReducedOperad,
    UnitOperad,
    ass,
    ass_compose,
    block_permutation,
    check_operad_axioms,
    com,
    compose_values,
    direct_sum_permutation,
    identity_values,
    invert_values,
    perms,
)


def word_of(sigma):
    # multiplication order encoded by a permutation: position r of the
    # word is the input slot that multiplies r'th
    return invert_values(sigma)


def oracle_ass_compose(theta, psis):
    """Word-substitution reference implementation, no offset tricks."""
    offs = [0]
    for p in psis:
        offs.append(offs[-1] + len(p))
    word = []
    for slot in word_of(theta):
        word.extend(offs[slot - 1] + w for w in word_of(psis[slot - 1]))
    return invert_values(tuple(word))


class TestRawHelpers:
    def test_compose_and_invert(self):
        s, t = (3, 1, 2), (2, 3, 1)
        assert compose_values(s, t) == (1, 2, 3)
        assert invert_values(s) == (2, 3, 1)

    def test_block_permutation(self):
        assert block_permutation((2, 1), (2, 3)) == (3, 4, 5, 1, 2)
        assert block_permutation((1, 2), (2, 0)) == (1, 2)
        assert block_permutation((), ()) == ()

    def test_direct_sum(self):
        assert direct_sum_permutation([(2, 1), (1,)]) == (2, 1, 3)

    @given(st.integers(0, 5).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_invert_involutive(self, values):
        v = tuple(values)
        assert invert_values(invert_values(v)) == v


class TestAssClosedForm:
    def test_matches_word_substitution_exhaustively(self):
        for k in range(4):
            for arities in itertools.product(range(4), repeat=k):
                if sum(arities) > 4:
                    continue
                for theta in perms(k):
                    for psis in itertools.product(*[perms(a) for a in arities]):
                        assert ass_compose(theta, psis) == oracle_ass_compose(
                            theta, psis
                        )

    def test_multiplications_stack(self):
        mu2 = (1, 2)
        assert ass_compose(mu2, [mu2, (1,)]) == (1, 2, 3)
        assert ass_compose(mu2, [(1,), mu2]) == (1, 2, 3)
        assert ass_compose(mu2, [mu2, mu2]) == (1, 2, 3, 4)

    def test_zero_ary_collapse_solutions(self):
        # filling the first input of an (n+1)-ary operation with the
        # 0-ary one recovers the identity iff the operation is obtained
        # from the standard order by moving in one extra first factor
        P = ass()
        for n in range(1, 5):
            found = {
                alpha
                for alpha in P.level(n + 1)
                if P.partial_compose(alpha, 1, (), n + 1) == identity_values(n)
            }
            expected = {
                (i,) + tuple(v if v < i else v + 1 for v in range(1, n + 1))
                for i in range(1, n + 2)
            }
            assert found == expected
            assert len(found) == n + 1

    def test_unique_solution_of_mixed_shape(self):
        # two-slot target where slot 1 dies and slot 2 survives: among
        # binary operations only (2,1) restricts to the identity on the
        # surviving slot after inserting the 0-ary op in slot 1... the
        # surviving-slot condition picks out exactly the reversed pair
        P = ass()
        sols = [
            a
            for a in P.level(2)
            if P.partial_compose(a, 1, (), 2) == (1,) and a[0] > a[1]
        ]
        assert sols == [(2, 1)]


class TestActLaws:
    @given(st.data())
    def test_right_action(self, data):
        n = data.draw(st.integers(0, 5))
        P = ass()
        x = tuple(data.draw(st.permutations(range(1, n + 1))))
        tau = tuple(data.draw(st.permutations(range(1, n + 1))))
        sigma = tuple(data.draw(st.permutations(range(1, n + 1))))
        once = P.act(P.act(x, tau), sigma)
        assert once == P.act(x, compose_values(tau, sigma))

    def test_act_identity(self):
        P = ass()
        for x in P.level(3):
            assert P.act(x, identity_values(3)) == x


class TestAxiomSuites:
    def test_ass(self):
        assert check_operad_axioms(AssOperad(), 3) == []

    def test_com(self):
        assert check_operad_axioms(ComOperad(), 3) == []

    def test_unit_operad(self):
        assert check_operad_axioms(UnitOperad(), 3) == []

    def test_free_reduced(self):
        assert check_operad_axioms(FreeReducedOperad((("m", 2),), truncation=3), 3) == []

    def test_free_reduced_with_ternary_generator(self):
        P = FreeReducedOperad((("m", 2), ("w", 3)), truncation=3)
        assert check_operad_axioms(P, 3) == []

    def test_checker_notices_breakage(self):
        class Broken(AssOperad):
            def compose(self, theta, fillers):
                out = ass_compose(theta, fillers)
                if len(out) == 3:
                    return out[::-1]
                return out

        assert check_operad_axioms(Broken(), 3) != []

    def test_checker_notices_one_wrong_composite(self):
        # wrong only at (1,2) o ((1,2), (1,)), whose right answer is (1,2,3);
        # the checker's memo returns the wrong value every time it is
        # asked, so the laws that cross it still fail
        class Planted(AssOperad):
            def compose(self, theta, fillers):
                out = ass_compose(theta, fillers)
                if (theta, tuple(fillers)) == ((1, 2), ((1, 2), (1,))):
                    return (2, 1, 3)
                return out

        assert Planted().compose((1, 2), [(1, 2), (1,)]) == (2, 1, 3)
        assert check_operad_axioms(Planted(), 3) != []
        assert check_operad_axioms(Planted(), 4) != []


class TestFreeReduced:
    def test_level_sizes(self):
        P = FreeReducedOperad((("m", 2),), truncation=4)
        assert [len(P.level(n)) for n in range(5)] == [0, 1, 2, 12, 120]

    def test_truncation_guard(self):
        P = FreeReducedOperad((("m", 2),), truncation=3)
        with pytest.raises(ValueError):
            P.level(4)
        x = ((1, 2), ("m", LEAF, LEAF))
        with pytest.raises(ValueError):
            P.compose(x, [x, x])

    def test_planar_inclusion_composes_planarly(self):
        P = FreeReducedOperad((("m", 2),), truncation=4)
        m = ((1, 2), ("m", LEAF, LEAF))
        u = P.unit()
        assert P.compose(m, [u, m]) == ((1, 2, 3), ("m", LEAF, ("m", LEAF, LEAF)))
        assert P.compose(m, [m, u]) == ((1, 2, 3), ("m", ("m", LEAF, LEAF), LEAF))

    def test_rejects_small_generators(self):
        with pytest.raises(ValueError):
            FreeReducedOperad((("e", 1),), truncation=3)


class TestUnitOperad:
    def test_levels(self):
        I = UnitOperad(("a", "b"))
        assert I.level(("a",), "a") == ("1",)
        assert I.level(("a",), "b") == ()
        assert I.level(("a", "a"), "a") == ()

    def test_color_guard(self):
        I = UnitOperad(("a",))
        with pytest.raises(ValueError):
            I.level(("z",), "a")


def test_com_is_terminal_shape():
    P = com()
    assert P.level(0) == ("*",)
    assert P.compose("*", ["*", "*", "*"]) == "*"
    assert P.act("*", (2, 1)) == "*"
