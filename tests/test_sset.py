import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optwist.operads import com
from optwist.pointed import MonotoneMap, enumerate_monotone
from optwist.sset import (
    FinSimplicialSet,
    Simp,
    _cube_chains,
    _p_left_chains,
    _p_right_chains,
    _subset_leq,
    boundary_simplex,
    check_functoriality,
    cube_elements,
    cube_structure_map,
    discrete_sset,
    enumerate_cube_maps,
    enumerate_nerve_maps,
    enumerate_nerve_maps_split,
    grid_nerve,
    groth_nerve,
    hom_r,
    hom_r_model,
    nerve_chains,
    normalize_weak,
    p_left,
    p_right,
    poset_nerve,
    quasi_bucket,
    quasi_simplices,
    rigid_hom,
    standard_simplex,
    strict_chains,
    un_over_nerve,
    un_point,
    un_to_quasi,
    unit_map,
)
from optwist.twisted import FinCategory, SetFunctor, act_functor, grothendieck, ib_category, tw_category

CORPUS = [
    standard_simplex(0),
    standard_simplex(1),
    standard_simplex(2),
    boundary_simplex(2),
    grid_nerve(),
]


def poset_category(elements, leq) -> FinCategory:
    objects = tuple(elements)
    homs = {
        (x, y): ((x, y, "le"),)
        for x in objects
        for y in objects
        if leq(x, y)
    }
    return FinCategory(
        objects,
        homs,
        compose_fn=lambda g, f: (f[0], g[1], "le"),
        identity_fn=lambda x: (x, x, "le"),
    )


@pytest.mark.parametrize("X", CORPUS, ids=lambda X: X.name)
def test_simplicial_functoriality(X):
    check_functoriality(X, max_dim=3)


@pytest.mark.parametrize("X", CORPUS, ids=lambda X: X.name)
def test_normal_forms_distinct(X):
    for n in range(4):
        sims = X.simplices(n)
        assert len(set(sims)) == len(sims) == X.count(n)


def test_face_of_degenerate():
    # d_1 (s_0 e) = e for the edge of delta1
    X = standard_simplex(1)
    e = Simp(1, (0, 1), MonotoneMap.identity(1))
    s0e = X.apply(e, MonotoneMap(2, 1, (0, 0, 1)))
    assert not s0e.is_nondegenerate()
    back = X.apply(s0e, MonotoneMap(1, 2, (0, 2)))
    assert back == e


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_associates_on_grid(data):
    X = grid_nerve()
    n = data.draw(st.integers(0, 3))
    s = data.draw(st.sampled_from(X.simplices(n)))
    m = data.draw(st.integers(0, 3))
    g = data.draw(st.sampled_from(enumerate_monotone(m, n)))
    l = data.draw(st.integers(0, 3))
    h = data.draw(st.sampled_from(enumerate_monotone(l, m)))
    assert X.apply(X.apply(s, g), h) == X.apply(s, g.compose(h))


@pytest.mark.parametrize("X", CORPUS, ids=lambda X: X.name)
def test_apply_memo_matches_uncached(X):
    fresh = FinSimplicialSet(X.cells, X.faces, X.name)
    for k in range(4):
        for s in X.simplices(k):
            for m in range(4):
                for g in enumerate_monotone(m, k):
                    assert X.apply(s, g) == fresh._apply(s, g)
    assert fresh._apply_memo == {}


def test_apply_memo_never_stores_an_error():
    X = standard_simplex(2)
    X.apply(X.simplices(1)[0], MonotoneMap.identity(1))
    size = len(X._apply_memo)
    s = X.simplices(2)[0]
    for _ in range(2):
        with pytest.raises(ValueError):
            X.apply(s, MonotoneMap.identity(1))
    assert len(X._apply_memo) == size


def test_simplices_cached_as_tuple():
    X = grid_nerve()
    assert isinstance(X.simplices(2), tuple)
    assert X.simplices(2) is X.simplices(2)


def test_chain_tables_match_strict_chains():
    for n in range(5):
        assert isinstance(_cube_chains(n), tuple)
        assert list(_cube_chains(n)) == strict_chains(cube_elements(n), _subset_leq)
        for i in range(n + 1):
            assert isinstance(_p_right_chains(n, i), tuple)
            assert list(_p_right_chains(n, i)) == strict_chains(
                p_right(n, i), _subset_leq
            )
        assert isinstance(_p_left_chains(n), tuple)
        assert list(_p_left_chains(n)) == strict_chains(p_left(n), _subset_leq)


# simplex counts per dimension 0..3; each enumeration must reach them
CLOSED_FORM_COUNTS = {
    "delta0": [1, 1, 1, 1],
    "delta1": [2, 3, 4, 5],
    "delta2": [3, 6, 10, 15],
    "boundary2": [3, 6, 9, 12],
    "grid2x2": [4, 9, 16, 25],
}


@pytest.mark.parametrize("X", CORPUS, ids=lambda X: X.name)
def test_quasi_and_un_counts_match_simplex_counts(X):
    want = CLOSED_FORM_COUNTS[X.name]
    assert [X.count(n) for n in range(4)] == want
    for n in range(4):
        assert len(quasi_simplices(X, n)) == want[n]
        for variance in ("left", "right"):
            assert len(un_point(X, variance, n)) == want[n]


def test_normalize_weak():
    core, eps = normalize_weak(((0,), (0,), (0, 1), (0, 1), (0, 1)))
    assert core == ((0,), (0, 1))
    assert eps.values == (0, 0, 1, 1, 1)


def test_rigid_hom_points():
    for n in range(1, 4):
        for i in range(n + 1):
            pt = rigid_hom(n, i, i)
            assert pt.count(0) == 1 and pt.D == 0
        for i in range(n):
            pt = rigid_hom(n, i, i + 1)
            assert pt.count(0) == 1 and pt.D == 0


def test_rigid_hom_square():
    sq = rigid_hom(3, 0, 3)
    assert sq.count(0) == 4
    # matches the nerve of the 2-cube boolean lattice
    cube2 = poset_nerve(cube_elements(2), lambda a, b: set(a) <= set(b))
    assert [sq.count(n) for n in range(4)] == [cube2.count(n) for n in range(4)]


def test_rigid_hom_empty_above_diagonal():
    e = rigid_hom(2, 2, 0)
    assert e.cells == {} and e.D == -1


def test_quasi_point_and_vertices():
    d0 = standard_simplex(0)
    for n in range(4):
        assert len(quasi_simplices(d0, n)) == 1
    for X in CORPUS:
        assert len(quasi_simplices(X, 0)) == X.count(0)


def test_quasi_delta1_degree1():
    X = standard_simplex(1)
    # the lone end-face condition is vacuous, so every 1-cube counts
    assert len(quasi_simplices(X, 1)) == X.count(1) == 3


@pytest.mark.parametrize("X", CORPUS, ids=lambda X: X.name)
@pytest.mark.parametrize("n", range(3))
def test_un_bijections(X, n):
    quasi = {q.cube for q in quasi_simplices(X, n)}
    right = {un_to_quasi(u) for u in un_point(X, "right", n)}
    left = {un_to_quasi(u) for u in un_point(X, "left", n)}
    assert quasi == right == left


def test_un_bijection_degree3_delta1():
    X = standard_simplex(1)
    quasi = {q.cube for q in quasi_simplices(X, 3)}
    right = {un_to_quasi(u) for u in un_point(X, "right", 3)}
    assert quasi == right and len(quasi) == 5


def test_split_enumeration_matches():
    X = grid_nerve()
    els = cube_elements(2)
    leq = lambda a, b: set(a) <= set(b)
    flat = enumerate_nerve_maps(X, els, leq)
    buckets = enumerate_nerve_maps_split(X, els, leq)
    merged = [m for b in buckets for m in b]
    assert merged == flat
    qs = [q for b in buckets for q in quasi_bucket(X, 2, b)]
    assert qs == quasi_simplices(X, 2)


def test_unit_map_is_quasi_and_injective():
    X = standard_simplex(2)
    for n in range(3):
        images = {unit_map(X, s).cube for s in X.simplices(n)}
        assert len(images) == X.count(n)


def test_unit_map_point_bijective():
    d0 = standard_simplex(0)
    for n in range(4):
        assert len({unit_map(d0, s).cube for s in d0.simplices(n)}) == 1 == len(
            quasi_simplices(d0, n)
        )


def test_unit_map_naturality_exhaustive():
    X = standard_simplex(2)
    for n in range(3):
        for s in X.simplices(n):
            u = unit_map(X, s)
            for m in range(3):
                for g in enumerate_monotone(m, n):
                    lhs = cube_structure_map(X, u.cube, n, g)
                    rhs = unit_map(X, X.apply(s, g)).cube
                    assert lhs == rhs


def test_unit_map_degenerate_to_degenerate():
    X = standard_simplex(1)
    for s in X.simplices(2):
        if s.is_nondegenerate():
            continue
        u = unit_map(X, s)
        vertices = {u.cube.value((a,)) for a in cube_elements(2)}
        assert len(vertices) <= s.core_dim + 1


def test_structure_map_functorial_on_quasi():
    X = grid_nerve()
    for q in quasi_simplices(X, 2):
        for g in enumerate_monotone(1, 2):
            qg = cube_structure_map(X, q.cube, 2, g)
            for h in enumerate_monotone(1, 1) + enumerate_monotone(0, 1):
                lhs = cube_structure_map(X, qg, 1, h)
                rhs = cube_structure_map(X, q.cube, 2, g.compose(h))
                assert lhs == rhs


def test_structure_map_preserves_quasi():
    from optwist.sset import _quasi_witnesses

    X = boundary_simplex(2)
    for q in quasi_simplices(X, 2):
        for g in enumerate_monotone(1, 2) + enumerate_monotone(2, 2):
            img = cube_structure_map(X, q.cube, 2, g)
            assert _quasi_witnesses(img, g.m) is not None


def test_un_over_nerve_singleton_fiber():
    C = poset_category([0, 1, 2], lambda a, b: a <= b)
    F = SetFunctor(C, obj=lambda x: ("*",), map=lambda m: (lambda a: "*"))
    for n in range(4):
        assert len(un_over_nerve(C, F, n)) == len(nerve_chains(C, n))


def test_un_over_nerve_vertices():
    C = poset_category(["u", "v"], lambda a, b: a <= b)
    F = SetFunctor(
        C,
        obj=lambda x: (0, 1, 2) if x == "u" else (0, 1),
        map=lambda m: (lambda a: a if m[0] == m[1] else min(a, 1)),
    )
    got = set(un_over_nerve(C, F, 0))
    assert got == {(("u",), (0,)), (("u",), (1,)), (("u",), (2,)),
                   (("v",), (0,)), (("v",), (1,))}


@pytest.mark.parametrize("n", range(3))
def test_un_over_nerve_matches_twisted_nerve(n):
    P = com()
    C = ib_category(P, 2)
    F = act_functor(P, C)
    un = un_over_nerve(C, F, n)
    assert len(un) == len(groth_nerve(C, F, n)) == len(
        nerve_chains(tw_category(P, 2), n)
    )


def test_un_over_nerve_bijection_to_elements():
    P = com()
    C = ib_category(P, 2)
    F = act_functor(P, C)
    G = grothendieck(C, F)
    # the simplex data maps injectively onto nerve chains of the
    # category of elements
    fwd = set()
    for chain, elems in un_over_nerve(C, F, 1):
        m = chain[0]
        fwd.add((((m[0], elems[0]), (m[1], elems[1]), m),))
    assert fwd == set(nerve_chains(G, 1))


def test_hom_r_shape():
    C = poset_category([0, 1], lambda a, b: a <= b)
    for n in range(3):
        sims = hom_r(C, 0, 1, n)
        assert len(sims) == 1
        assert all(len(s) == n + 1 for s in sims)
    assert hom_r(C, 1, 0, 2) == []


def test_hom_r_model_two_object_poset():
    C = poset_category(["u", "v"], lambda a, b: a <= b)
    F = SetFunctor(
        C,
        obj=lambda x: (0, 1, 2) if x == "u" else (0, 1),
        map=lambda m: (lambda a: a if m[0] == m[1] else min(a, 1)),
    )
    assert len(hom_r_model(C, F, "u", "v", 2, 1, 0)) == 1
    assert len(hom_r_model(C, F, "u", "v", 2, 0, 0)) == 0
    assert len(hom_r_model(C, F, "u", "u", 2, 2, 0)) == 1
    # degrees track the right-morphism simplices of the elements category
    G = grothendieck(C, F)
    for n in range(3):
        assert len(hom_r_model(C, F, "u", "v", 2, 1, n)) == len(
            hom_r(G, ("u", 2), ("v", 1), n)
        )


def test_hom_r_model_singleton_fiber():
    C = poset_category([0, 1, 2], lambda a, b: a <= b)
    F = SetFunctor(C, obj=lambda x: ("*",), map=lambda m: (lambda a: "*"))
    for n in range(3):
        assert len(hom_r_model(C, F, 0, 2, "*", "*", n)) == len(hom_r(C, 0, 2, n))


@pytest.mark.parametrize("n", range(2))
def test_hom_r_model_encoding_category(n):
    P = com()
    C = ib_category(P, 2)
    F = act_functor(P, C)
    G = grothendieck(C, F)
    for x in (1, 2):
        for y in (1, 2):
            got = len(hom_r_model(C, F, x, y, "*", "*", n))
            want = len(hom_r(G, (x, "*"), (y, "*"), n))
            assert got == want == len(C.hom(x, y))


def test_json_dumps():
    for X in CORPUS:
        json.dumps(X.to_json())
    q = quasi_simplices(standard_simplex(1), 2)[0]
    json.dumps(q.to_json())
    u = un_point(standard_simplex(1), "left", 1)[0]
    json.dumps(u.to_json())


def test_discrete_quasi_are_constants():
    Y = discrete_sset(("a", "b", "c"))
    for n in range(3):
        qs = quasi_simplices(Y, n)
        assert {q.initial_vertex().core for q in qs} == {"a", "b", "c"}
        assert len(qs) == 3
