import itertools
import random

import pytest

from optwist.encodings import act, enumerate_ib, ib_compose, ib_identity, mono_seq
from optwist.operads import FreeReducedOperad, ass, com, identity_values, perms
from optwist.pointed import PointedMap, enumerate_pointed_maps
from optwist.qcohom import gamma_category, op_category
from optwist.serialize import build_base
from optwist.twisted import (
    CertificationError,
    FinCategory,
    SetFunctor,
    _check_composite_shapes,
    act_functor,
    _has_inverse_in,
    certify_tw_ass,
    certify_tw_com,
    grothendieck,
    ib_category,
    is_equivalence,
    sigma_equivalence,
    terminal_objects,
    tw_category,
    tw_hom,
)


def test_tw_hom_counts_ass():
    P = ass()
    mu = lambda n: (n, identity_values(n))
    assert len(tw_hom(P, mu(1), mu(1))) == 3
    assert len(tw_hom(P, mu(2), mu(1))) == 4
    assert len(tw_hom(P, mu(1), mu(2))) == 6
    assert len(tw_hom(P, mu(0), mu(2))) == 3


def test_tw_category_com_is_a_category():
    C = tw_category(com(), 2)
    stats = C.check(associativity=True)
    assert stats["objects"] == 3
    assert stats["morphisms"] == sum(
        (n + 1) ** m for n in range(3) for m in range(3)
    )
    assert stats["triples"] > 0


def test_tw_category_ass_is_a_category():
    C = tw_category(ass(), 2)
    stats = C.check(associativity=True)
    assert stats["objects"] == 4
    # morphisms out of arity n land anywhere; totals counted by hand
    assert stats["morphisms"] == 75


def test_identity_morphism_is_ib_identity():
    P = ass()
    C = tw_category(P, 2)
    for obj in C.objects:
        tr = C.identity(obj)
        assert tr[2] == ib_identity(P, mono_seq(P, obj[0]))
        assert act(P, tr[2], obj[1]) == obj[1]


@pytest.mark.parametrize("P_factory,N", [(com, 3), (ass, 2)])
def test_grothendieck_matches_tw_category(P_factory, N):
    P = P_factory()
    base = ib_category(P, N)
    F = SetFunctor(base, lambda n: P.level(n), lambda tr: (lambda mu: act(P, tr[2], mu)))
    G = grothendieck(base, F)
    T = tw_category(P, N)
    assert sorted(G.objects) == sorted(T.objects)
    g_homs = {k: {tr[2][2] for tr in v} for k, v in G.homs.items() if v}
    t_homs = {k: {tr[2] for tr in v} for k, v in T.homs.items() if v}
    assert g_homs == t_homs
    # composition in the category of elements is composition downstairs
    for f in itertools.islice(G.all_morphisms(), 0, None, 7):
        for g in G.hom(f[1], f[1])[:2] + G.homs.get((f[1], f[0]), ())[:2]:
            assert G.compose(g, f)[2][2] == ib_compose(P, g[2][2], f[2][2])


def test_sigma_equivalence_composes_like_the_group():
    P = ass()
    for n in range(4):
        obj = (n, identity_values(n))
        for s in perms(n):
            e_s = sigma_equivalence(P, obj, s)
            assert e_s[1] == (n, P.act(obj[1], s))
            for t in perms(n):
                e_t = sigma_equivalence(P, e_s[1], t)
                both = ib_compose(P, e_t[2], e_s[2])
                direct = sigma_equivalence(P, obj, tuple(s[t[i] - 1] for i in range(n)))
                assert both == direct[2]


def test_sigma_equivalence_is_invertible():
    P = ass()
    tr = sigma_equivalence(P, (2, identity_values(2)), (2, 1))
    assert is_equivalence(P, tr)
    tr3 = sigma_equivalence(P, (3, (2, 1, 3)), (3, 1, 2))
    assert is_equivalence(P, tr3)


def test_non_bijective_shape_is_not_an_equivalence():
    P = ass()
    drops = tw_hom(P, (1, (1,)), (0, ()))
    assert len(drops) == 1
    assert not is_equivalence(P, drops[0])


def _has_inverse_by_scan(P, triple) -> bool:
    """Unfiltered scan of every arrow back for a two-sided inverse."""
    src, tgt, alpha = triple
    e_src = ib_identity(P, mono_seq(P, src[0]))
    e_tgt = ib_identity(P, mono_seq(P, tgt[0]))
    back = enumerate_ib(P, mono_seq(P, tgt[0]), mono_seq(P, src[0]))
    return any(
        act(P, beta, tgt[1]) == src[1]
        and ib_compose(P, beta, alpha) == e_src
        and ib_compose(P, alpha, beta) == e_tgt
        for beta in back
    )


@pytest.mark.parametrize("P_factory,N", [(ass, 2), (com, 3)])
def test_inverse_search_matches_unfiltered_scan(P_factory, N):
    P = P_factory()
    found = 0
    for tr in tw_category(P, N).all_morphisms():
        got = is_equivalence(P, tr)
        assert got == _has_inverse_by_scan(P, tr)
        found += got
    assert found > 0


def test_inverse_search_misses_a_removed_inverse():
    P = ass()
    tr = sigma_equivalence(P, (3, identity_values(3)), (2, 3, 1))
    endos = enumerate_ib(P, mono_seq(P, 3), mono_seq(P, 3))
    e = ib_identity(P, mono_seq(P, 3))
    inverses = [
        beta
        for beta in endos
        if act(P, beta, tr[1][1]) == tr[0][1]
        and ib_compose(P, beta, tr[2]) == e
        and ib_compose(P, tr[2], beta) == e
    ]
    assert len(inverses) == 1
    assert _has_inverse_in(P, tr, endos)
    assert not _has_inverse_in(P, tr, [b for b in endos if b != inverses[0]])


def _maps(n: int, m: int) -> list:
    """Value tuples of all pointed maps <n> -> <m>."""
    return [f.values for f in enumerate_pointed_maps(n, m)]


def _composite(fa: tuple, fb: tuple) -> tuple:
    """Value tuple of fa . fb, one pair at a time."""
    return tuple(((0,) + fa)[v] for v in fb)


def _escapes_by_pairs(fas, fbs, keys) -> bool:
    """Per-pair oracle: some composite shape fa . fb is not a key."""
    keys = set(keys)
    return any(_composite(fa, fb) not in keys for fa in fas for fb in fbs)


def test_row_shape_check_matches_pair_oracle():
    rng = random.Random(5)
    for n, m, l in itertools.product(range(4), repeat=3):
        all_a, all_b, all_k = _maps(m, n), _maps(l, m), _maps(l, n)
        for trial in range(4):
            fas = rng.sample(all_a, rng.randint(1, len(all_a)))
            fbs = rng.sample(all_b, rng.randint(1, len(all_b)))
            reached = {_composite(fa, fb) for fa in fas for fb in fbs}
            keys = [k for k in all_k if k in reached or rng.random() < 0.5]
            if trial % 2:
                keys.remove(rng.choice(keys))
            if _escapes_by_pairs(fas, fbs, keys):
                with pytest.raises(CertificationError):
                    _check_composite_shapes(fas, fbs, keys, n, l)
            else:
                _check_composite_shapes(fas, fbs, keys, n, l)


def test_row_shape_check_empty_keys():
    _check_composite_shapes([], [()], [], 2, 0)
    with pytest.raises(CertificationError):
        _check_composite_shapes([(1, 0)], [()], [], 2, 0)
    with pytest.raises(CertificationError):
        _check_composite_shapes([()], [(0, 0)], [], 0, 2)


def test_row_shape_check_catches_a_missing_hom_shape():
    P = com()
    n, m, l = 4, 1, 4
    fas = [tr[2].f.values for tr in tw_hom(P, (n, "*"), (m, "*"))]
    fbs = [tr[2].f.values for tr in tw_hom(P, (m, "*"), (l, "*"))]
    keys = [tr[2].f.values for tr in tw_hom(P, (n, "*"), (l, "*"))]
    _check_composite_shapes(fas, fbs, keys, n, l)
    missing = _composite(fas[-1], fbs[-1])
    with pytest.raises(CertificationError):
        _check_composite_shapes(fas, fbs, [k for k in keys if k != missing], n, l)


def test_terminal_objects_are_nullary_operations():
    assert terminal_objects(tw_category(com(), 2)) == [(0, "*")]
    assert terminal_objects(tw_category(ass(), 2)) == [(0, ())]


def test_no_terminal_objects_without_nullary_operations():
    # heads of arrows into arity-2 objects live in arity <= 3
    P = FreeReducedOperad((("m", 2),), truncation=3)
    assert terminal_objects(tw_category(P, 2)) == []


def test_permutation_shape_morphisms_are_the_only_equivalences_at_fixed_arity():
    # between arity-2 objects over Ass every equivalence has bijective shape
    P = ass()
    for mu in P.level(2):
        for nu in P.level(2):
            for tr in tw_hom(P, (2, mu), (2, nu)):
                if is_equivalence(P, tr):
                    assert tr[2].f.is_bijective()


def test_certify_tw_com_small():
    stats = certify_tw_com(3)
    assert stats["morphisms"] == 144
    assert stats["pairs"] == stats["generic_pairs"] == 9866


def test_certify_tw_ass_small():
    stats = certify_tw_ass(2)
    assert stats["sigma_links"] == 4
    assert stats["functorial_pairs"] == 393
    assert stats["witnesses"] == sum(
        len(tw_hom(ass(), (m, identity_values(m)), (n, identity_values(n))))
        for m in range(3)
        for n in range(3)
    )


_TW_COM_CERTIFICATES = [
    {"objects": 1, "morphisms": 1, "pairs": 1, "generic_pairs": 1},
    {"objects": 2, "morphisms": 5, "pairs": 13, "generic_pairs": 13},
    {"objects": 3, "morphisms": 23, "pairs": 233, "generic_pairs": 233},
    {"objects": 4, "morphisms": 144, "pairs": 9866, "generic_pairs": 9866},
]

_TW_ASS_CERTIFICATES = [
    {"objects": 1, "hom_pairs": 1, "witnesses": 1, "functorial_pairs": 1,
     "sigma_links": 1},
    {"objects": 2, "hom_pairs": 4, "witnesses": 7, "functorial_pairs": 26,
     "sigma_links": 2},
    {"objects": 4, "hom_pairs": 9, "witnesses": 31, "functorial_pairs": 393,
     "sigma_links": 4},
    {"objects": 10, "hom_pairs": 16, "witnesses": 121,
     "functorial_pairs": 5374, "sigma_links": 10},
]


@pytest.mark.parametrize("N", range(4))
def test_certificates_below_arity_4(N):
    assert certify_tw_com(N) == _TW_COM_CERTIFICATES[N]
    assert certify_tw_ass(N) == _TW_ASS_CERTIFICATES[N]


def test_certify_tw_com_4_certificate():
    assert certify_tw_com(4) == {
        "objects": 5, "morphisms": 1279, "pairs": 848469,
        "generic_pairs": 29903,
    }


def test_certify_tw_ass_4_certificate():
    assert certify_tw_ass(4) == {
        "objects": 34, "hom_pairs": 25, "witnesses": 456,
        "functorial_pairs": 73085, "sigma_links": 34,
    }


def test_fincategory_check_catches_broken_identity():
    objs = ("x",)
    bad_id = ("x", "x", "not-id")
    good = ("x", "x", "f")
    homs = {("x", "x"): (bad_id, good)}

    def compose_fn(g, f):
        return good

    C = FinCategory(objs, homs, compose_fn, lambda x: bad_id)
    with pytest.raises(CertificationError):
        C.check()


def test_ib_category_hom_sizes_com():
    C = ib_category(com(), 3)
    for n in range(4):
        for m in range(4):
            assert len(C.hom(n, m)) == (n + 1) ** m


# -- arrow numbering and the composition table ----------------------------


def _numbered_base(name):
    if name == "op:gamma:2":
        return op_category(gamma_category(2))
    if name == "groth:com:2":
        C = ib_category(com(), 2)
        return grothendieck(C, act_functor(com(), C))
    return build_base(name)


@pytest.mark.parametrize("name", [
    "gamma:2", "gamma:3", "delta:2", "delta:3", "tw:com:2", "tw:com:3",
    "tw:ass:2", "op:gamma:2", "groth:com:2",
])
def test_compose_id_matches_compose_fn(name):
    C = _numbered_base(name)
    arrows = C.arrows()
    assert arrows == tuple(C.all_morphisms())
    for (x, y), ms in C.homs.items():
        start = C.hom_start(x, y)
        assert arrows[start:start + len(ms)] == ms
        assert [C.arrow_id(m) for m in ms] == list(range(start, start + len(ms)))
    into = {}
    for f, m in enumerate(arrows):
        into.setdefault(m[1], []).append(f)
    for g, gm in enumerate(arrows):
        for f in into.get(gm[0], ()):
            assert arrows[C.compose_id(g, f)] == C.compose_fn(gm, arrows[f])
    g, f = next((g, f) for g in range(len(arrows)) for f in range(len(arrows))
                if arrows[f][1] != arrows[g][0])
    with pytest.raises(ValueError, match="not composable"):
        C.compose_id(g, f)
