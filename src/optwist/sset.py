"""Finite simplicial sets and simplex-level unstraightening models.

A ``FinSimplicialSet`` stores only nondegenerate simplices together with
their faces; every simplex is handled in Eilenberg-Zilber normal form
(nondegenerate core plus a surjective monotone collapse), which makes
equality of simplices decidable by tuple comparison.

Cubes are modeled as nerves of subset posets: the n-cube is the nerve
of {A : {0} <= A <= [0,n]} ordered by inclusion, so end faces and
subcubes are literally subposets and the degeneracy conditions of a
quasi simplex become equations between chain evaluations.  Simplicial
maps out of a poset nerve are stored as assignments of a simplex of X
to every strict chain.

``un_point`` enumerates unstraightening simplices over a point from the
diagram definition (families over the per-vertex posets with naturality
against the rigidification mapping posets) so that the bijection with
``quasi_simplices`` is a theorem checked on both sides, not an
implementation identity.

Each pure combinatorial fact is computed once.  A ``FinSimplicialSet``
is immutable after construction, so its simplicial action is memoized
on the instance.  The chains of the cube posets, the pushes along the
retractions and the naturality pairs depend only on the dimension, the
vertex and the variance, and are cached per module in ``lru_cache``
tables of tuples.  No cache is keyed on a caller's order
relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .pointed import MonotoneMap, enumerate_monotone
from .twisted import FinCategory, SetFunctor, grothendieck


# -- simplices in normal form -------------------------------------------


@dataclass(frozen=True)
class Simp:
    """A simplex of dimension ``epi.m``: a nondegenerate core of
    dimension ``core_dim`` pulled back along a surjective monotone map."""

    core_dim: int
    core: object
    epi: MonotoneMap

    def __post_init__(self):
        if self.epi.n != self.core_dim:
            raise ValueError("collapse must land in the core dimension")
        if len(set(self.epi.values)) != self.core_dim + 1:
            raise ValueError("collapse must be surjective")

    @property
    def dim(self) -> int:
        return self.epi.m

    def is_nondegenerate(self) -> bool:
        return self.epi.m == self.core_dim

    def to_json(self) -> dict:
        return {
            "core_dim": self.core_dim,
            "core": _jsonable(self.core),
            "epi": self.epi.to_json(),
        }


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def nondeg_simp(k: int, cid) -> Simp:
    return Simp(k, cid, MonotoneMap.identity(k))


@lru_cache(maxsize=None)
def epis(m: int, e: int) -> tuple:
    """Surjective monotone maps [m] ->> [e]."""
    return tuple(
        g for g in enumerate_monotone(m, e) if len(set(g.values)) == e + 1
    )


class FinSimplicialSet:
    """Nondegenerate simplices per dimension plus their faces.

    ``cells[k]`` lists cell ids; ``faces[(k, cid, i)]`` is the i'th face
    of a nondegenerate k-cell as a Simp (possibly degenerate).

    The instance is immutable after construction: ``__init__`` copies
    its inputs and nothing writes ``cells`` or ``faces`` later.  So
    ``apply`` and ``simplices`` are pure functions of their arguments
    and are memoized on the instance.
    """

    def __init__(self, cells: dict, faces: dict, name: str = ""):
        self.cells = {k: tuple(v) for k, v in cells.items() if v}
        self.faces = dict(faces)
        self.name = name
        self.D = max(self.cells, default=-1)
        self._apply_memo: dict = {}
        self._simplices_memo: dict = {}

    def face(self, k: int, cid, i: int) -> Simp:
        return self.faces[(k, cid, i)]

    def simplices(self, n: int) -> tuple:
        """All n-simplices, degenerate ones included, computed once per
        n."""
        out = self._simplices_memo.get(n)
        if out is None:
            out = self._simplices_memo[n] = tuple(
                Simp(e, cid, g)
                for e in sorted(self.cells)
                if e <= n
                for cid in self.cells[e]
                for g in epis(n, e)
            )
        return out

    def apply(self, s: Simp, g: MonotoneMap) -> Simp:
        """The simplicial action s . g for any monotone g into s's
        dimension, memoized under ``(s, g)``.  Errors are raised, never
        stored."""
        memo = self._apply_memo
        key = (s, g)
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._apply(s, g)
        return out

    def _apply(self, s: Simp, g: MonotoneMap) -> Simp:
        """Uncached ``apply``: peel off missing vertices as faces."""
        if g.n != s.dim:
            raise ValueError("operator does not match the simplex dimension")
        h = s.epi.compose(g)
        core, core_dim = s.core, s.core_dim
        while True:
            present = set(h.values)
            missing = [v for v in range(core_dim + 1) if v not in present]
            if not missing:
                return Simp(core_dim, core, h)
            v = max(missing)
            fs = self.face(core_dim, core, v)
            vals = tuple(w - 1 if w > v else w for w in h.values)
            h = fs.epi.compose(MonotoneMap(h.m, core_dim - 1, vals))
            core, core_dim = fs.core, fs.core_dim

    def count(self, n: int) -> int:
        return sum(
            len(self.cells[e]) * comb(n, e)
            for e in self.cells
            if e <= n
        )

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "name": self.name,
            "nondegenerate": {
                str(k): [
                    {
                        "id": _jsonable(cid),
                        "faces": [
                            self.face(k, cid, i).to_json() for i in range(k + 1)
                        ]
                        if k > 0
                        else [],
                    }
                    for cid in self.cells[k]
                ]
                for k in sorted(self.cells)
            },
        }


def check_functoriality(X: FinSimplicialSet, max_dim: int = 3) -> None:
    """(s.g).h == s.(g.h) for all small monotone operators; this single
    statement packages every simplicial identity."""
    for k in range(max_dim + 1):
        for s in X.simplices(k):
            for m in range(max_dim + 1):
                for g in enumerate_monotone(m, k):
                    sg = X.apply(s, g)
                    for l in range(max_dim + 1):
                        for h in enumerate_monotone(l, m):
                            if X.apply(sg, h) != X.apply(s, g.compose(h)):
                                raise AssertionError(
                                    f"functoriality fails at {s}, {g}, {h}"
                                )


# -- builders ------------------------------------------------------------


def standard_simplex(n: int) -> FinSimplicialSet:
    cells = {
        k: tuple(itertools.combinations(range(n + 1), k + 1))
        for k in range(n + 1)
    }
    faces = {}
    for k in range(1, n + 1):
        for cid in cells[k]:
            for i in range(k + 1):
                faces[(k, cid, i)] = nondeg_simp(k - 1, cid[:i] + cid[i + 1 :])
    return FinSimplicialSet(cells, faces, name=f"delta{n}")


def boundary_simplex(n: int) -> FinSimplicialSet:
    full = standard_simplex(n)
    cells = {k: v for k, v in full.cells.items() if k < n}
    faces = {key: s for key, s in full.faces.items() if key[0] < n}
    return FinSimplicialSet(cells, faces, name=f"boundary{n}")


def poset_nerve(elements, leq, name: str = "nerve") -> FinSimplicialSet:
    """Nerve of a finite poset; nondegenerate simplices are the strict
    chains, and faces stay strict so no normalization is needed."""
    elements = tuple(elements)
    cells: dict = {}
    faces: dict = {}
    for c in strict_chains(elements, leq):
        cells.setdefault(len(c) - 1, []).append(c)
    for k, chains in cells.items():
        if k == 0:
            continue
        for c in chains:
            for i in range(k + 1):
                faces[(k, c, i)] = nondeg_simp(k - 1, c[:i] + c[i + 1 :])
    return FinSimplicialSet(cells, faces, name=name)


def discrete_sset(points, name: str = "discrete") -> FinSimplicialSet:
    return FinSimplicialSet({0: tuple(points)}, {}, name=name)


def grid_nerve() -> FinSimplicialSet:
    """Nerve of the 2x2 grid poset (the product order on {0,1}^2)."""
    els = [(a, b) for a in range(2) for b in range(2)]
    return poset_nerve(
        els, lambda x, y: x[0] <= y[0] and x[1] <= y[1], name="grid2x2"
    )


# -- posets and chains ----------------------------------------------------


def _subset_leq(a: tuple, b: tuple) -> bool:
    return set(a) <= set(b)


def strict_chains(elements, leq) -> list:
    """All strict chains (length >= 1) as tuples, in a deterministic
    order."""
    elements = sorted(elements)
    out = []

    def extend(chain):
        out.append(tuple(chain))
        last = chain[-1]
        for e in elements:
            if e != last and leq(last, e) and not leq(e, last):
                chain.append(e)
                extend(chain)
                chain.pop()

    for e in elements:
        extend([e])
    return out


def maximal_chains(elements, leq) -> list:
    """Strict chains into which no further element can be inserted."""
    elements = sorted(elements)
    maximal = []
    for c in strict_chains(elements, leq):
        cs = set(c)
        extendable = False
        for e in elements:
            if e in cs:
                continue
            positions = [leq(e, c[0])] + [
                leq(c[i], e) and leq(e, c[i + 1]) for i in range(len(c) - 1)
            ] + [leq(c[-1], e)]
            if any(positions):
                extendable = True
                break
        if not extendable:
            maximal.append(c)
    return maximal


def subsets_between(lower: tuple, upper: tuple) -> list:
    """All A with lower <= A <= upper, as sorted tuples."""
    lower, upper = set(lower), set(upper)
    extra = sorted(upper - lower)
    out = []
    for r in range(len(extra) + 1):
        for pick in itertools.combinations(extra, r):
            out.append(tuple(sorted(lower | set(pick))))
    return out


def cube_elements(n: int) -> list:
    """Vertices of the n-cube: subsets A with {0} <= A <= [0, n]."""
    return subsets_between((0,), tuple(range(n + 1)))


def p_right(n: int, i: int) -> list:
    return subsets_between((i,), tuple(range(i, n + 1)))


def p_left(i: int) -> list:
    return subsets_between((i,), tuple(range(i + 1)))


@lru_cache(maxsize=None)
def _cube_chains(n: int) -> tuple:
    return tuple(strict_chains(cube_elements(n), _subset_leq))


@lru_cache(maxsize=None)
def _p_right_chains(n: int, i: int) -> tuple:
    return tuple(strict_chains(p_right(n, i), _subset_leq))


@lru_cache(maxsize=None)
def _p_left_chains(i: int) -> tuple:
    return tuple(strict_chains(p_left(i), _subset_leq))


def rigid_elements(i: int, j: int) -> list:
    if i > j:
        return []
    return subsets_between((i, j) if i != j else (i,), tuple(range(i, j + 1)))


def rigid_hom(n: int, i: int, j: int) -> FinSimplicialSet:
    """Mapping space of the rigidified n-simplex from i to j: the nerve
    of the subsets {i,j} <= A <= [i,j]; empty when i > j."""
    if not 0 <= i <= n or not 0 <= j <= n:
        raise ValueError("vertices out of range")
    els = rigid_elements(i, j)
    if not els:
        return FinSimplicialSet({}, {}, name=f"rigid({i},{j})")
    return poset_nerve(els, _subset_leq, name=f"rigid({i},{j})")


@lru_cache(maxsize=None)
def normalize_weak(chain: tuple) -> tuple[tuple, MonotoneMap]:
    """Strictify a weakly increasing chain: returns (core chain, the
    collapse of positions onto distinct values).  Cached per chain; in
    this module the chains come from the cube-poset tables, which are
    finite per dimension."""
    core = []
    positions = []
    for x in chain:
        if not core or core[-1] != x:
            core.append(x)
        positions.append(len(core) - 1)
    return tuple(core), MonotoneMap(len(chain) - 1, len(core) - 1, tuple(positions))


# -- simplicial maps out of poset nerves ---------------------------------


@dataclass(frozen=True)
class NerveMap:
    """Simplicial map N(poset) -> X as chain-indexed values in normal
    form; values is canonically sorted, so equality is structural."""

    values: tuple  # of (chain, Simp), sorted by chain
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.values))

    def value(self, chain: tuple) -> Simp:
        """Evaluate on a weakly increasing chain."""
        core, collapse = normalize_weak(chain)
        s = self._lookup[core]
        if collapse.m == collapse.n:
            return s
        return Simp(s.core_dim, s.core, s.epi.compose(collapse))

    def vertex(self, e) -> Simp:
        return self._lookup[(e,)]

    def to_json(self) -> list:
        return [
            {"chain": [_jsonable(a) for a in c], "value": s.to_json()}
            for c, s in self.values
        ]


@lru_cache(maxsize=None)
def _face_operators(k: int) -> tuple:
    """``(positions, face operator)`` for every nonempty subset of
    ``[k]``, by size and then lexicographically."""
    return tuple(
        (pos, MonotoneMap(r - 1, k, pos))
        for r in range(1, k + 2)
        for pos in itertools.combinations(range(k + 1), r)
    )


def _try_assign(X, flag: tuple, s: Simp, assigned: dict):
    """Values forced on all subchains of a maximal flag by sending it
    to s; None on conflict with what is already assigned."""
    fresh: dict = {}
    for pos, op in _face_operators(len(flag) - 1):
        sub = tuple(flag[p] for p in pos)
        val = X.apply(s, op)
        known = assigned.get(sub, fresh.get(sub))
        if known is None:
            fresh[sub] = val
        elif known != val:
            return None
    return fresh


def _nerve_map_dfs(X, flags, fi: int, assigned: dict, out: list):
    if fi == len(flags):
        out.append(NerveMap(tuple(sorted(assigned.items()))))
        return
    for s in X.simplices(len(flags[fi]) - 1):
        fresh = _try_assign(X, flags[fi], s, assigned)
        if fresh is None:
            continue
        assigned.update(fresh)
        _nerve_map_dfs(X, flags, fi + 1, assigned, out)
        for sub in fresh:
            del assigned[sub]


def enumerate_nerve_maps(X: FinSimplicialSet, elements, leq) -> list:
    """All simplicial maps N(poset) -> X, by depth-first assignment of
    maximal chains with agreement pruning on shared subchains."""
    flags = maximal_chains(elements, leq)
    if not flags:
        return [NerveMap(())]
    out: list = []
    _nerve_map_dfs(X, flags, 0, {}, out)
    return out


def enumerate_nerve_maps_split(X: FinSimplicialSet, elements, leq) -> list:
    """The same enumeration as a list of buckets, one per value of the
    first maximal flag in simplex order.  Concatenating the buckets
    reproduces enumerate_nerve_maps exactly.  This is the enumeration
    route of the ``sset quasi`` command, which filters each bucket with
    quasi_bucket."""
    flags = maximal_chains(elements, leq)
    if not flags:
        return [[NerveMap(())]]
    buckets = []
    for s in X.simplices(len(flags[0]) - 1):
        out: list = []
        fresh = _try_assign(X, flags[0], s, {})
        if fresh is not None:
            _nerve_map_dfs(X, flags, 1, fresh, out)
        buckets.append(out)
    return buckets


def enumerate_cube_maps(X: FinSimplicialSet, n: int) -> list:
    return enumerate_nerve_maps(X, cube_elements(n), _subset_leq)


# -- quasi simplices ------------------------------------------------------


@dataclass(frozen=True)
class QuasiSimplex:
    """An n-cube whose end faces degenerate onto the back subcubes;
    witnesses[i-1] records the factored restriction for coordinate i."""

    n: int
    cube: NerveMap
    witnesses: tuple

    def initial_vertex(self) -> Simp:
        return self.cube.vertex((0,))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cube": self.cube.to_json(),
            "witnesses": [
                [
                    {"chain": [_jsonable(a) for a in c], "value": s.to_json()}
                    for c, s in w
                ]
                for w in self.witnesses
            ],
        }


@lru_cache(maxsize=None)
def _quasi_tables(n: int) -> tuple:
    """Per coordinate i = 1..n: the chains of the back subcube (every
    element contains [0,i]) and the pairs (c, c pushed along the
    retraction A -> A + [0,i]) for the chains c whose elements all
    contain i."""
    tables = []
    for i in range(1, n + 1):
        prefix = set(range(i + 1))
        back = tuple(
            c for c in _cube_chains(n) if all(prefix <= set(a) for a in c)
        )
        pushes = tuple(
            (c, tuple(tuple(sorted(set(a) | prefix)) for a in c))
            for c in strict_chains(
                [a for a in cube_elements(n) if i in a], _subset_leq
            )
        )
        tables.append((back, pushes))
    return tuple(tables)


def _quasi_witnesses(cube: NerveMap, n: int):
    """Per coordinate i, check that the chains containing i evaluate
    through the retraction A -> A + [0,i]; returns the restrictions to
    the back subcubes or None on failure."""
    witnesses = []
    for back, pushes in _quasi_tables(n):
        for c, pushed in pushes:
            if cube.value(c) != cube.value(pushed):
                return None
        witnesses.append(tuple((c, cube.value(c)) for c in back))
    return tuple(witnesses)


def quasi_simplices(X: FinSimplicialSet, n: int) -> list:
    return quasi_bucket(X, n, enumerate_cube_maps(X, n))


def quasi_bucket(X: FinSimplicialSet, n: int, bucket: list) -> list:
    """Filter one enumeration bucket down to quasi simplices.  The
    ``sset quasi`` command maps this over enumerate_nerve_maps_split;
    concatenating the results reproduces quasi_simplices."""
    out = []
    for cube in bucket:
        w = _quasi_witnesses(cube, n)
        if w is not None:
            out.append(QuasiSimplex(n, cube, w))
    return out


def cube_structure_map(
    X: FinSimplicialSet, cube: NerveMap, n: int, delta: MonotoneMap
) -> NerveMap:
    """The action of delta: [m] -> [n] on an n-cube, through the poset
    map A -> delta(A) + [0, delta(0)].

    On cubes that are not quasi this formula need not compose
    functorially (the normalizing prefix can differ between a composite
    and its factors), so callers should feed it quasi cubes only.
    """
    if delta.n != n:
        raise ValueError("operator target must be the cube dimension")
    lo = tuple(range(delta(0) + 1))
    items = []
    for c in _cube_chains(delta.m):
        pushed = tuple(
            tuple(sorted({delta(a) for a in A} | set(lo))) for A in c
        )
        items.append((c, cube.value(pushed)))
    return NerveMap(tuple(sorted(items)))


def unit_map(X: FinSimplicialSet, s: Simp) -> QuasiSimplex:
    """Collapse an n-simplex onto the n-cube through A -> max(A)."""
    n = s.dim
    items = []
    for c in _cube_chains(n):
        g = MonotoneMap(len(c) - 1, n, tuple(max(a) for a in c))
        items.append((c, X.apply(s, g)))
    cube = NerveMap(tuple(sorted(items)))
    w = _quasi_witnesses(cube, n)
    if w is None:
        raise AssertionError("collapsed simplex is not quasi")
    return QuasiSimplex(n, cube, w)


# -- unstraightening over a point ----------------------------------------


@dataclass(frozen=True)
class UnSimplex:
    """n-simplex of the unstraightening of X over a point: one map per
    vertex poset, subject to naturality against the rigidification
    mapping posets."""

    variance: str
    n: int
    family: tuple  # per i: sorted tuple of (chain, Simp)

    def to_json(self) -> dict:
        return {
            "variance": self.variance,
            "n": self.n,
            "family": [
                [
                    {"chain": [_jsonable(a) for a in c], "value": s.to_json()}
                    for c, s in part
                ]
                for part in self.family
            ],
        }


def _product_chains(els1, els2):
    pairs = [(b, a) for b in els1 for a in els2]
    return strict_chains(
        pairs,
        lambda x, y: _subset_leq(x[0], y[0]) and _subset_leq(x[1], y[1]),
    )


@lru_cache(maxsize=None)
def _family_pushes(variance: str, n: int) -> tuple:
    """Per vertex i, the chains c of its poset, sorted, each paired with
    the chain of the base poset it restricts from: A -> A + [0,i] for
    the right variance, A -> A + [i,n] for the left."""
    if variance not in ("left", "right"):
        raise ValueError("variance must be 'left' or 'right'")
    tables = []
    for i in range(n + 1):
        if variance == "right":
            chains, fixed = _p_right_chains(n, i), set(range(i + 1))
        else:
            chains, fixed = _p_left_chains(i), set(range(i, n + 1))
        tables.append(tuple(sorted(
            (c, tuple(tuple(sorted(set(a) | fixed)) for a in c))
            for c in chains
        )))
    return tuple(tables)


@lru_cache(maxsize=None)
def _naturality_pairs(variance: str, n: int) -> tuple:
    """``(j, i, union, proj)`` for every vertex pair and every chain of
    the product of the mapping poset with the vertex poset of i; member
    j evaluated on the union chain must equal member i on the
    projection.  Right variance: j < i and P_i = p_right(n, i).  Left
    variance: i < j and P_i = p_left(i)."""
    out = []
    if variance == "right":
        pairs = [(j, i) for j in range(n + 1) for i in range(j + 1, n + 1)]
    else:
        pairs = [(j, i) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for j, i in pairs:
        vertex_poset = p_right(n, i) if variance == "right" else p_left(i)
        mapping_poset = rigid_elements(min(i, j), max(i, j))
        for chain in _product_chains(mapping_poset, vertex_poset):
            union = tuple(tuple(sorted(set(b) | set(a))) for b, a in chain)
            proj = tuple(a for _, a in chain)
            out.append((j, i, union, proj))
    return tuple(out)


def un_point(X: FinSimplicialSet, variance: str, n: int) -> list:
    """Enumerate unstraightening simplices from the family definition.

    The base map (at vertex 0 for the right variance, at vertex n for
    the left) ranges over all cube maps; the other members are its
    restrictions, and the mapping-poset naturality is then verified for
    every pair of vertices, which is where the quasi conditions
    reappear.
    """
    pushes = _family_pushes(variance, n)
    base_els = p_right(n, 0) if variance == "right" else p_left(n)
    out = []
    for base in enumerate_nerve_maps(X, base_els, _subset_leq):
        family = tuple(
            tuple((c, base.value(pushed)) for c, pushed in table)
            for table in pushes
        )
        if _natural(family, variance, n):
            out.append(UnSimplex(variance, n, family))
    return out


def _natural(family, variance: str, n: int) -> bool:
    maps = [NerveMap(f) for f in family]
    return all(
        maps[j].value(union) == maps[i].value(proj)
        for j, i, union, proj in _naturality_pairs(variance, n)
    )


def un_to_quasi(u: UnSimplex) -> NerveMap:
    """The determining cube of an unstraightening simplex; for the left
    variance the vertices are relabeled through A -> n - A, which is an
    isomorphism of subset posets (it renames elements, so inclusions
    are untouched) carrying the left naturality constraints onto the
    right ones."""
    if u.variance == "right":
        return NerveMap(u.family[0])
    n = u.n
    flipped = [
        (tuple(tuple(sorted(n - a for a in A)) for A in c), s)
        for c, s in u.family[n]
    ]
    return NerveMap(tuple(sorted(flipped)))


# -- unstraightening over a nerve (set-valued) ----------------------------


def nerve_chains(C: FinCategory, n: int) -> list:
    """n-simplices of the nerve: composable chains, identities allowed."""
    if n == 0:
        return [(x,) for x in C.objects]
    out = []

    def rec(chain):
        if len(chain) == n:
            out.append(tuple(chain))
            return
        tail = chain[-1][1]
        for y in C.objects:
            for m in C.hom(tail, y):
                chain.append(m)
                rec(chain)
                chain.pop()

    for x in C.objects:
        for y in C.objects:
            for m in C.hom(x, y):
                rec([m])
    return out


def un_over_nerve(C: FinCategory, F: SetFunctor, n: int) -> list:
    """n-simplices of the unstraightening of a set-valued functor over
    the nerve of a discrete category: a nerve chain plus one element per
    vertex, matched along every arrow of the chain (not only adjacent
    ones, so functoriality of F is genuinely exercised)."""
    out = []
    if n == 0:
        for x in C.objects:
            for a in F.obj(x):
                out.append(((x,), (a,)))
        return out
    for chain in nerve_chains(C, n):
        for a0 in F.obj(chain[0][0]):
            elems = [a0]
            for m in chain:
                elems.append(F.map(m)(elems[-1]))
            ok = True
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    g = _chain_composite(C, chain, i, j)
                    if F.map(g)(elems[i]) != elems[j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((chain, tuple(elems)))
    return out


def _chain_composite(C: FinCategory, chain, i: int, j: int):
    """Composite of the arrows i..j-1 of a nerve chain."""
    cur = C.identity(chain[i][0])
    for k in range(i, j):
        cur = C.compose(chain[k], cur)
    return cur


def groth_nerve(C: FinCategory, F: SetFunctor, n: int) -> list:
    return nerve_chains(grothendieck(C, F), n)


# -- right-morphism spaces -------------------------------------------------


def hom_r(C: FinCategory, x, y, n: int) -> list:
    """n-simplices of the right-morphism space of the nerve: chains of
    n identities at x followed by one arrow to y."""
    return [
        (tuple(C.identity(x) for _ in range(n)) + (m,))
        for m in C.hom(x, y)
    ]


def hom_r_model(C: FinCategory, F: SetFunctor, x, y, mu, nu, n: int) -> list:
    """Degree-n part of the pullback model for right morphisms from mu
    to nu in the unstraightening: pairs of a right-morphism simplex H
    and a quasi (n+1)-simplex of F(y) whose initial vertex is nu and
    whose first end face is the constant cube at the H-image of mu.

    F here is set-valued, so F(y) is handled as a discrete simplicial
    set and the quasi enumeration collapses to constants; the pairing
    condition becomes F(f)(mu) = nu, which the tests compare against
    right morphisms computed inside the category of elements.
    """
    points = F.obj(y)
    Y = discrete_sset(points)
    quasis = quasi_simplices(Y, n + 1)
    out = []
    for H in hom_r(C, x, y, n):
        f = H[-1]
        target = F.map(f)(mu)
        for q in quasis:
            if q.initial_vertex().core != nu:
                continue
            if _end_face_constant(q) != target:
                continue
            out.append((H, q))
    return out


def _end_face_constant(q: QuasiSimplex):
    """The constant value of the first end face of a cube into a
    discrete simplicial set; (0, 1) is that face's initial vertex."""
    return q.cube.vertex((0, 1)).core
