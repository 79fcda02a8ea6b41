"""Functor homology over finite categories.

Linear functors on a FinCategory are modules over its category algebra;
representables k[Hom(x, -)] are the canonical projectives, and Ext is
computed from projective resolutions built two independent ways: a
greedy representable-cover resolution (the workhorse) and the
normalized bar resolution (the classical construction, feasible on
small bases).  An unnormalized bar is kept behind a flag as a third
oracle.  Hom of functors is also solved directly as a naturality
linear system, which gives an Ext^0 oracle that shares no code with
either resolution.

Inside the engine an arrow is named by its id in the base's numbering
(``FinCategory.arrows``): a functor keeps one matrix per arrow id, the
Yoneda basis of a sum of representables is pairs (generator, arrow
id), and bar chains are tuples of ids composed through the base's
composition table.  Morphism triples enter only at the boundary:
serialized dumps, ``transport_to_tw``, the coface and codegeneracy
lookups of ``conormalized_cohomology``, and callers outside the engine,
which look an arrow up by ``base.arrow_id``.

By the Yoneda lemma a map out of k[Hom(x_1, -)] + ... is fixed by
where its generators go, and every such map goes through one route:
``Resolution.push`` moves a vector along an arrow, ``Resolution.realize``
evaluates a differential at an object (d_0 being the augmentation onto
the resolved functor), and ``_hom_block`` turns generator images into
the matrix of precomposition on Hom(-, F).

On top of the engine sit the functors of interest: the arity functor
on a twisted arrow category, the module t on the opposite pointed-set
category, the vertex functor on the simplex category with its short
exact sequence, and the derived invariants built from them (operadic
Quillen cohomology, stable cohomotopy tables, the long exact sequence
check over the simplex category).

All dimensions are exact (Fraction arithmetic for p = 0, otherwise
F_p), and every table is stamped with the truncation it was computed
at; nothing here claims convergence in the truncation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain

from .linalg import CochainComplex, Echelon, FinMatrix
from .operads import DiscreteOperad
from .pointed import (
    MonotoneMap,
    PointedMap,
    enumerate_monotone,
    enumerate_pointed_maps,
)
from .twisted import FinCategory, tw_category


def _apply(mat: FinMatrix, vec, p):
    """mat @ vec for a plain list vector, reduced mod p once at the end."""
    out = [0] * mat.nrows
    for (i, j), v in mat.entries.items():
        if vec[j]:
            out[i] += v * vec[j]
    return [v % p for v in out] if p else out


# -- base categories -------------------------------------------------------


def delta_category(N: int) -> FinCategory:
    """Ordinals [0]..[N] with monotone maps, composed covariantly."""
    objects = tuple(range(N + 1))
    homs = {
        (m, n): tuple((m, n, g) for g in enumerate_monotone(m, n))
        for m in objects
        for n in objects
    }

    def compose_fn(g, f):
        return (f[0], g[1], g[2].compose(f[2]))

    def identity_fn(n):
        return (n, n, MonotoneMap.identity(n))

    return FinCategory(objects, homs, compose_fn, identity_fn)


def gamma_category(N: int) -> FinCategory:
    """Opposite finite pointed sets: an arrow n -> m carries a pointed
    map <m> -> <n>, so composition is pointed composition turned
    around."""
    objects = tuple(range(N + 1))
    homs = {
        (n, m): tuple((n, m, phi) for phi in enumerate_pointed_maps(m, n))
        for n in objects
        for m in objects
    }

    def compose_fn(g, f):
        # f: n -> m carries <m> -> <n>, g: m -> l carries <l> -> <m>,
        # so the composite carries f[2] o g[2]: <l> -> <n>
        return (f[0], g[1], f[2].compose(g[2]))

    def identity_fn(n):
        return (n, n, PointedMap.identity(n))

    return FinCategory(objects, homs, compose_fn, identity_fn)


def coface(n: int, i: int):
    """The injection [n] -> [n+1] missing i, as a morphism triple."""
    vals = tuple(v for v in range(n + 2) if v != i)
    return (n, n + 1, MonotoneMap(n, n + 1, vals))


def codegeneracy(n: int, j: int):
    """The surjection [n] -> [n-1] hitting j twice."""
    vals = tuple(v if v <= j else v - 1 for v in range(n + 1))
    return (n, n - 1, MonotoneMap(n, n - 1, vals))


# -- linear functors -------------------------------------------------------


class LinearFunctor:
    """Functor base -> Vect_k: a dimension per object, and ``mats[i]``
    the matrix of arrow id i, one per arrow in ``base.arrows()`` order.

    Functoriality is validated at construction; a violation is a hard
    error, not a warning.  The check covers identities and
    F(g o f) = F(g) F(f) for every g in ``generating_morphisms(base)``
    and every f into g's source, which is full functoriality: every
    non-identity h is a composite g_k o h' of a generator after a
    shorter word, so on an associative base
    F(h o f) = F(g_k) F(h' o f) = F(g_k) F(h') F(f) = F(h) F(f) by
    induction on word length (see ``generating_morphisms`` for where
    each base's associativity is established).  The composites g o f
    are read from the base's composition table
    (``FinCategory.post_ids``), whose entries come from the base's own
    composition.  Every functor goes through this check except the sums
    of representables built by ``_representables``, whose docstring
    carries the proof that stands in for it.

    Two attributes feed ``cover_resolution`` and never change an answer.
    ``generators`` lists (object, vector) pairs known to generate the
    functor; ``_representables`` sets them and stage 0 offers them
    first, but the cover never relies on them (see ``_greedy_cover``).
    ``kept`` is the cover resolution a functor shared per base keeps
    (see ``_shared``), else None.  A sum of representables also keeps
    the index table its matrices were made from, as ``index`` (see
    ``_yoneda_sum``).  A functor is never changed after construction;
    only its kept resolution grows, by whole stages.
    """

    generators: tuple = ()
    kept: Resolution | None = None
    index: list | None = None

    def __init__(self, base, p, dims, mats, name=""):
        self.base = base
        self.p = p
        self.dims = dict(dims)
        self.mats = tuple(mats)
        self.name = name
        self._validate()

    def _validate(self):
        """Identities, shapes, and F(g o f) = F(g) F(f) for every
        generator g and every f into its source, in that order.  The
        product is ``FinMatrix.__matmul__``'s, written out: each entry
        (k, j) of F(f) meets column k of F(g), read once per g, and the
        sums are reduced mod p and stripped of zeros, so the comparison
        with F(g o f) is the one ``FinMatrix.__eq__`` makes, without
        building a matrix per pair."""
        base, dims, p, mats = self.base, self.dims, self.p, self.mats
        arrows = base.arrows()
        if len(mats) != len(arrows):
            raise ValueError(f"{len(mats)} matrices for {len(arrows)} arrows")
        for x in base.objects:
            if mats[base.arrow_id(base.identity(x))] != FinMatrix.identity(dims[x], p):
                raise ValueError(f"identity at {x!r} is not an identity matrix")
        for m, mat in zip(arrows, mats):
            if (mat.nrows, mat.ncols) != (dims[m[1]], dims[m[0]]):
                raise ValueError(f"matrix shape mismatch at {m!r}")
        for g in generating_ids(base):
            src = arrows[g][0]
            gcols = [[] for _ in range(dims[src])]
            for (i, k), v in mats[g].entries.items():
                gcols[k].append((i, v))
            for x in base.objects:
                start = base.hom_start(x, src)
                for f, gf in enumerate(base.post_ids(g, x), start):
                    acc = {}
                    for (k, j), v in mats[f].entries.items():
                        for i, w in gcols[k]:
                            acc[(i, j)] = acc.get((i, j), 0) + w * v
                    if p:
                        acc = {ij: v % p for ij, v in acc.items() if v % p}
                    else:
                        acc = {ij: v for ij, v in acc.items() if v}
                    if mats[gf].entries != acc:
                        raise ValueError(
                            f"functoriality fails at {arrows[g]!r} o {arrows[f]!r}")

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __repr__(self):
        return f"LinearFunctor({self.name or '?'}, p={self.p})"


def _pointed_pullback(phi: PointedMap, p: int) -> FinMatrix:
    """Pullback of coordinates along a pointed map phi: <a> -> <b>:
    the matrix k^b -> k^a with (phi^* x)_j = x_{phi(j)}, reading the
    basepoint fiber as zero."""
    entries = {(j, v - 1): 1 for j, v in enumerate(phi.values) if v}
    return FinMatrix(phi.n, phi.m, entries, p)


def _shared(base: FinCategory, key: tuple, build) -> LinearFunctor:
    """The functor ``build()`` returns, built and checked once per key
    on this base and kept in ``base.memo`` with an empty cover
    resolution, which ``cover_resolution`` extends on demand.

    Sharing is safe for the reason sharing the base is: the functor is
    fixed by the base, the key and the field, and nothing changes it
    after construction.  Its kept resolution only ever gains whole,
    certified stages, each a function of the stages before it, so its
    first K+2 terms are those a fresh build of that length would have,
    whatever earlier requests asked for."""
    F = base.memo.get(key)
    if F is None:
        F = build()
        F.kept = Resolution(base, F.p, F, [], [], [], backend="cover")
        base.memo[key] = F
    return F


def gamma_t(N: int, p: int = 0, base=None) -> LinearFunctor:
    """<m> |-> k^m with coordinates pulled back along pointed maps;
    one shared functor per (base, p) (see ``_shared``)."""
    if base is None:
        base = gamma_category(N)

    def build():
        dims = {n: n for n in base.objects}
        mats = [_pointed_pullback(m[2], p) for m in base.arrows()]
        return LinearFunctor(base, p, dims, mats, name=f"t(N={N})")

    return _shared(base, ("gamma_t", N, p), build)


def f_operad(P: DiscreteOperad, N: int, p: int = 0, base=None) -> LinearFunctor:
    """Arity functor on the twisted arrow category: an operation of
    arity m goes to k^m and an arrow acts through its underlying
    shape.  Arity-0 operations carry the zero space.  One shared
    functor per (base, operad, p) (see ``_shared``)."""
    if base is None:
        base = tw_category(P, N)
    name = f"f_{type(P).__name__}(N={N})"

    def build():
        dims = {obj: obj[0] for obj in base.objects}
        mats = [_pointed_pullback(m[2].f, p) for m in base.arrows()]
        return LinearFunctor(base, p, dims, mats, name=name)

    return _shared(base, ("f_operad", name, p), build)


def eta_shriek(N: int, p: int = 0, base=None) -> LinearFunctor:
    """[n] |-> k^{n+1}, basis vertex i pushed to vertex g(i): the
    representable k[Hom([0], -)], hence projective, and built as one.

    It is trusted the way every representable is (see
    ``_representables``): Hom([0], [n]) lists the maps 0 |-> i in the
    order i = 0..n, and g o (0 |-> i) = (0 |-> g(i)), so the matrix of
    g is the closed form {(g(i), i): 1}; a test checks that closed form
    and runs the constructor's check on the result.  One shared functor
    per (base, p) (see ``_shared``)."""
    if base is None:
        base = delta_category(N)
    return _shared(base, ("eta_shriek", N, p),
                   lambda: _representables(base, (0,), p, f"eta!k(N={N})"))


def f_ass_delta(N: int, p: int = 0, base=None) -> LinearFunctor:
    """[n] |-> k^n as the kernel of the vertex-sum map off eta_shriek,
    written in the difference basis e_{i-1} - e_i: basis element i
    spreads over the gap (g(i-1), g(i)].  One shared functor per
    (base, p) (see ``_shared``)."""
    if base is None:
        base = delta_category(N)

    def build():
        dims = {n: n for n in base.objects}
        mats = []
        for m in base.arrows():
            g = m[2]
            entries = {}
            for i in range(1, m[0] + 1):
                for j in range(g(i - 1) + 1, g(i) + 1):
                    entries[(j - 1, i - 1)] = 1
            mats.append(FinMatrix(m[1], m[0], entries, p))
        return LinearFunctor(base, p, dims, mats, name=f"f_ass(N={N})")

    return _shared(base, ("f_ass_delta", N, p), build)


def constant_functor(base: FinCategory, p: int = 0, dim: int = 1) -> LinearFunctor:
    """k^dim everywhere, every arrow the identity; one shared functor
    per (base, p, dim) (see ``_shared``)."""

    def build():
        mats = (FinMatrix.identity(dim, p),) * len(base.arrows())
        return LinearFunctor(base, p, {x: dim for x in base.objects}, mats, name="const")

    return _shared(base, ("const", dim, p), build)


def op_category(base: FinCategory) -> FinCategory:
    """The opposite category; an arrow x -> y here carries the original
    arrow y -> x as payload.  Its hom sets are the base's, in the base's
    order, so op arrow id i carries base arrow id i.  It is built once
    per base and kept in the base's memo, so every request that
    dualizes over a base shares the opposite's numbering and
    composition table as well."""
    op = base.memo.get("op")
    if op is not None:
        return op
    homs = {}
    for (x, y), ms in base.homs.items():
        homs[(y, x)] = tuple((y, x, m) for m in ms)

    def compose_fn(g, f):
        return (f[0], g[1], base.compose(f[2], g[2]))

    def identity_fn(x):
        return (x, x, base.identity(x))

    op = base.memo["op"] = FinCategory(base.objects, homs, compose_fn, identity_fn)
    return op


def dual_functor(F: LinearFunctor, opbase: FinCategory) -> LinearFunctor:
    """Objectwise linear dual, a functor on the opposite category, whose
    arrow id i is F's arrow id i (see ``op_category``).  Transposition
    reverses composition, which is exactly what the opposite needs; the
    result is still checked like any other functor, on the generators of
    the opposite base.  The dual of a functor shared per base is itself
    shared on the opposite, with its own kept resolution (see
    ``_shared``); any other functor gets a fresh dual."""

    def build():
        mats = [m.transpose() for m in F.mats]
        return LinearFunctor(opbase, F.p, F.dims, mats, name=F.name + "^")

    return build() if F.kept is None else _shared(opbase, ("dual", F), build)


def representable(base: FinCategory, x, p: int = 0) -> LinearFunctor:
    """k[Hom(x, -)] with the postcomposition action; trusted, not
    checked (see ``_representables``)."""
    return _representables(base, (x,), p, f"yon({x!r})")


def _yoneda_index(base: FinCategory, xs: tuple, g: int) -> list:
    """The index map of arrow id g on k[Hom(x_1, -)] + ... +
    k[Hom(x_r, -)]: g sends basis position j at its source to position
    idx[j] at its target.

    The basis of block x at y is hom(x, y) in hom order, blocks in xs
    order, so the basis arrow h of block x sits at its block's offset
    plus h - ``hom_start(x, y)``.  The matrix of g sends h to g o h in
    the same block, a basis arrow again, and ``post_ids(g, x)`` lists
    those composites in hom order: one table row per (g, x)."""
    y = base.arrows()[g][1]
    idx, off = [], 0
    for x in xs:
        shift = off - base.hom_start(x, y)
        idx.extend(shift + gh for gh in base.post_ids(g, x))
        off += len(base.hom(x, y))
    return idx


@dataclass(frozen=True)
class _YonedaSum:
    """A sum of representables as its dimensions and its index table,
    ``index[g]`` the ``_yoneda_index`` of arrow id g: one description
    that ``_representables`` turns into matrices and ``random_functor``
    reads as it is."""

    base: FinCategory
    p: int
    dims: dict
    index: list


def _yoneda_sum(base: FinCategory, xs: tuple, p: int) -> _YonedaSum:
    dims = {y: sum(len(base.hom(x, y)) for x in xs) for y in base.objects}
    index = [_yoneda_index(base, xs, g) for g in range(len(base.arrows()))]
    return _YonedaSum(base, p, dims, index)


def _representables(base: FinCategory, xs: tuple, p: int, name: str) -> LinearFunctor:
    """k[Hom(x_1, -)] + ... + k[Hom(x_r, -)], one block per entry of
    xs, with the matrix of arrow id g the 0/1 matrix of its index map
    (``_yoneda_index``): a 1 in row idx[j] of column j.  The functor
    keeps that table as ``index``.

    These are the only functors built without the check in
    ``LinearFunctor.__init__``, the way ``MonotoneMap.compose`` builds
    its trusted composites; ``representable`` and ``eta_shriek`` are
    built here.  The proof that stands in for the check:
    the matrix of an arrow g sends the basis arrow h of a block to the
    basis arrow g o h of the same block, so F(g) F(f) sends h to
    g o (f o h) and F(g o f) sends it to (g o f) o h.  The two agree
    exactly when the base is associative, which every generator check
    assumes already (see ``generating_morphisms``); identities send h
    to id o h = h, and the shapes hold by construction.  Checking them
    anyway, mostly rational matrix products, added about 2 s to a 3 s
    stream of rational Ext requests on a 2-core machine.

    Block i is generated by its identity coordinate: by Yoneda every
    basis arrow h: x_i -> y is F(h)(id_{x_i}), since h o id = h.  Those
    r coordinates are recorded as ``generators``, so ``cover_resolution``
    resolves the sum by R_0 = the r blocks with zero kernels, its
    minimal projective resolution.
    """
    S = _yoneda_sum(base, xs, p)
    dims = S.dims
    mats = [FinMatrix(dims[m[1]], dims[m[0]], {(i, j): 1 for j, i in enumerate(idx)}, p)
            for m, idx in zip(base.arrows(), S.index)]
    gens = []
    for i, x in enumerate(xs):
        vec = [0] * dims[x]
        vec[sum(len(base.hom(w, x)) for w in xs[:i])
            + base.arrow_id(base.identity(x)) - base.hom_start(x, x)] = 1
        gens.append((x, vec))
    F = object.__new__(LinearFunctor)
    F.base, F.p, F.dims, F.mats, F.name = base, p, dims, tuple(mats), name
    F.generators, F.index = tuple(gens), S.index
    return F


def transport_to_tw(T: LinearFunctor, twbase: FinCategory) -> LinearFunctor:
    """Move a functor on the opposite pointed-set base onto the
    commutative twisted arrow category along the shape relabeling.
    The relabeling is bijective on objects and homs exactly when the
    Tw certificate holds; the result is checked like any other functor,
    on the generators of the twisted base."""
    dims = {obj: T.dims[obj[0]] for obj in twbase.objects}
    mats = [T.mats[T.base.arrow_id((m[0][0], m[1][0], m[2].f))]
            for m in twbase.arrows()]
    return LinearFunctor(twbase, T.p, dims, mats, name=T.name + "~tw")


def random_functor(base: FinCategory, p: int, seed) -> LinearFunctor:
    """Seeded random functor: the quotient of a sum of two representables
    by the subfunctor generated by two random vectors.  Every finitely
    generated functor has this shape, so nothing structural is baked in
    beyond the seed.  A cut that happens to generate everything would
    leave the zero functor, which checks nothing, so the seed is
    re-derived a few times until something survives.

    The sum of representables is read off its index table
    (``_yoneda_sum``), and no matrix of it is built.  Since
    dim Q(y) = dim P(y) - rank of the span at y, an attempt whose spans
    are all full would give the zero quotient; it is passed over before
    any quotient is built, which picks the attempt that building and
    measuring every quotient would, and the last attempt is built
    whatever it gives.  The subfunctor is closed under the generators
    only (see ``_action_closure``); the quotient goes through the
    constructor, so the returned functor is checked in full like any
    other."""
    objs = list(base.objects)
    attempts = 8
    for attempt in range(attempts):
        # the "2:2" (generators, cuts) is part of every seeded stream
        rng = random.Random(f"functor:{seed}:{attempt}:2:2:{p}")
        xs = tuple(sorted(rng.choice(objs) for _ in range(2)))
        P = _yoneda_sum(base, xs, p)
        raw = []
        for _ in range(2):
            y = rng.choice(objs)
            dim = P.dims[y]
            if dim == 0:
                continue
            if p:
                vec = [rng.randrange(p) for _ in range(dim)]
            else:
                vec = [Fraction(rng.randrange(-3, 4)) for _ in range(dim)]
            raw.append((y, vec))
        sub = _action_closure(P, raw)
        if attempt == attempts - 1 or any(sub[y].rank < P.dims[y] for y in objs):
            return _quotient_functor(P, sub, name=f"rand({seed})")


def _action_closure(P, raw: list) -> dict:
    """Smallest subfunctor of a sum of representables P containing the
    given vectors, as an echelon span per object.  P is anything with
    the ``base``, ``p``, ``dims`` and ``index`` of a ``_YonedaSum``, a
    functor built by ``_representables`` included.

    Each new direction is pushed along the generators out of its object
    (``generating_morphisms``), not along every arrow, and that closes
    the spans under every arrow.  Identities fix every span.  A
    non-identity arrow h is a word g_k o ... o g_1 in the generators,
    and P is a functor, so P(h) v = P(g_k) ... P(g_1) v; by induction
    on k each partial product of a vector of the span at h's source
    lies in the span at its target, since every span is closed under
    every generator leaving its object.  The spans are then a
    subfunctor, and the smallest one, since any subfunctor containing
    the vectors contains everything pushed here.  This rests on P being
    a functor on an associative base, as every generator check does
    (see ``generating_morphisms``).

    P(g) moves a vector by its index map, coordinate j to idx_g[j] with
    coinciding targets summed; ``Echelon.insert`` reduces mod p.  Once
    every span has full rank the closure is all of P, and the walk
    stops."""
    p, dims, index = P.p, P.dims, P.index
    spans = {y: Echelon(dims[y], p) for y in P.base.objects}
    arrows, gens_from = P.base.arrows(), {}
    for g in generating_ids(P.base):
        gens_from.setdefault(arrows[g][0], []).append(g)
    missing = sum(dims.values())
    frontier = list(raw)
    while frontier and missing:
        y, vec = frontier.pop()
        if not spans[y].insert(vec):
            continue
        missing -= 1
        for g in gens_from.get(y, ()):
            z = arrows[g][1]
            out = [0] * dims[z]
            for i, c in zip(index[g], vec):
                if c:
                    out[i] += c
            frontier.append((z, out))
    return spans


def _quotient_functor(P, sub: dict, name="") -> LinearFunctor:
    """P / S for a subfunctor of a sum of representables given by
    echelon spans (P as in ``_action_closure``), in the basis of
    coordinates complementary to the span's pivot columns.

    At each object y, with (R_y, piv_y) the reduced row echelon form of
    the span and free_y the other columns, the residue of v modulo the
    span is v - sum_r v[piv_r] R_y[r], which is zero on the pivot
    columns; on free_y it reads v[free] - R_y[:, free]^T v[piv].  That
    is Proj_y v, with Proj_y the identity on the free coordinates and
    -R_y[:, free]^T on the pivot columns, and
    Q(m) = Proj_y P(m) Incl_x for m: x -> y, Incl_x the inclusion of
    the free columns.  P(m) sends basis position j to idx_m(j), since
    m o h is again a basis arrow, so column a of Q(m) is column
    idx_m(free_x[a]) of Proj_y: e_b when that position is free column
    b, and -R_y[r, free] when it is pivot column r.  Q(m) is gathered
    so, entry for entry the product, and no product is taken.  The
    result cannot depend on how the span was found: a vector of the
    span that is zero on all its pivot columns is zero, so the residue
    zero there is unique, and the pivot set of an echelon basis is
    fixed by the span itself.  So neither the order in which
    ``_action_closure`` inserted its vectors nor reducing by whole
    matrices instead of column by column changes a single entry.  The
    constructor checks the quotient in full."""
    p, base = P.p, P.base
    free, proj = {}, {}
    for y in base.objects:
        R, piv = sub[y].matrix().rref()
        leads = set(piv)
        free[y] = [j for j in range(P.dims[y]) if j not in leads]
        # column j of Proj_y as its (row, value) pairs
        cols = [None] * P.dims[y]
        for b, j in enumerate(free[y]):
            cols[j] = ((b, 1),)
        for row, c in zip(R, piv):
            cols[c] = [(b, -row[j]) for b, j in enumerate(free[y]) if row[j]]
        proj[y] = cols
    mats = []
    for m, idx in zip(base.arrows(), P.index):
        cols = proj[m[1]]
        entries = {(b, a): v for a, j in enumerate(free[m[0]]) for b, v in cols[idx[j]]}
        mats.append(FinMatrix(len(free[m[1]]), len(free[m[0]]), entries, p))
    dims = {y: len(free[y]) for y in base.objects}
    return LinearFunctor(base, p, dims, mats, name=name)


# -- projective resolutions ------------------------------------------------


class ResolutionError(Exception):
    pass


@dataclass
class Resolution:
    """Chain of sums of representables resolving M.

    terms[k] lists one base object per generator of R_k; diffs[k][j]
    (k >= 1) expands the image of generator j of R_k over the Yoneda
    basis (i, f) of R_{k-1} at the generator's object, f the id of an
    arrow x_i -> x_j; aug[i] is the image in M of generator i of R_0.
    The cover backend verifies exactness object by object while
    building; bar exactness is classical and spot-checked by evaluation
    in the tests, with d^2 = 0 caught either way when the Hom complex is
    assembled.

    By Yoneda a map out of a sum of representables is fixed by where
    its generators go, and every such map here goes through one pair
    of methods: ``push(k, f, vec)`` moves a vector of T_k along an
    arrow f, where T_k = R_k for k >= 0 and T_{-1} = M, and
    ``realize(k, y)`` is the matrix of d_k at y, with d_0 the
    augmentation R_0 -> M.
    """

    base: FinCategory
    p: int
    M: LinearFunctor
    terms: list
    diffs: list
    aug: list
    backend: str
    _tb: dict = field(default_factory=dict, repr=False)
    _rd: dict = field(default_factory=dict, repr=False)
    _push_idx: dict = field(default_factory=dict, repr=False)

    def term_basis(self, k: int, y) -> tuple:
        """(basis, shifts) of R_k(y).  Block i is hom(x_i, y) in hom
        order, so basis lists the pairs (i, h), h an arrow id, in
        position order, and (i, h) sits at position shifts[i] + h."""
        key = (k, y)
        if key not in self._tb:
            basis, shifts = [], []
            for i, x in enumerate(self.terms[k]):
                shifts.append(len(basis) - self.base.hom_start(x, y))
                basis.extend((i, h) for h in self.base.hom_ids(x, y))
            self._tb[key] = (basis, shifts)
        return self._tb[key]

    def term_dim(self, k: int, y) -> int:
        """dim T_k(y), with T_{-1} = M."""
        return self.M.dims[y] if k == -1 else len(self.term_basis(k, y)[0])

    def push(self, k: int, f: int, vec):
        """T_k(f) vec for the arrow id f.  On R_k this is the index
        scatter (i, h) |-> (i, f o h) of ``_yoneda_index``, cached per
        (k, f);
        on T_{-1} = M it is the matrix M(f).  On R_k a vector may also
        be given sparsely, as {position: c}, and comes back the same way
        with its coefficients summed but not reduced."""
        if k == -1:
            return _apply(self.M.mats[f], vec, self.p)
        y = self.base.arrows()[f][1]
        idx = self._push_idx.get((k, f))
        if idx is None:
            idx = self._push_idx[(k, f)] = _yoneda_index(self.base, self.terms[k], f)
        if isinstance(vec, dict):
            out = {}
            for pos, c in vec.items():
                r = idx[pos]
                out[r] = out.get(r, 0) + c
            return out
        out = [0] * self.term_dim(k, y)
        for pos, c in enumerate(vec):
            if c:
                out[idx[pos]] += c
        return [v % self.p for v in out] if self.p else out

    def realize(self, k: int, y) -> FinMatrix:
        """Matrix of d_k at y: T_k(y) -> T_{k-1}(y), d_0 being the
        augmentation.  Column (j, f) is push(k - 1, f, image of
        generator j), which is naturality read off the generators.  For
        k >= 1 the images are the stored expansions, pushed sparsely, so
        the cost follows the nonzeros and no dense column is built."""
        key = (k, y)
        mat = self._rd.get(key)
        if mat is None:
            basis, _ = self.term_basis(k, y)
            if k == 0:
                cols = [self.push(-1, f, self.aug[j]) for j, f in basis]
                mat = FinMatrix.from_columns(cols, self.M.dims[y], self.p)
            else:
                images, entries = {}, {}
                for c, (j, f) in enumerate(basis):
                    if j not in images:
                        _, shifts = self.term_basis(k - 1, self.terms[k][j])
                        images[j] = {shifts[i] + h: v
                                     for (i, h), v in self.diffs[k][j].items()}
                    for r, v in self.push(k - 1, f, images[j]).items():
                        entries[(r, c)] = v
                mat = FinMatrix(self.term_dim(k - 1, y), len(basis), entries, self.p)
            self._rd[key] = mat
        return mat

    def verify_exact(self, upto: int) -> dict:
        """Rank bookkeeping per (slot, object): at slot k the incoming
        rank must equal the outgoing nullity.  Slot -1 checks the
        augmentation is onto."""
        report = {}
        for y in self.base.objects:
            report[(-1, y)] = self.realize(0, y).rank() == self.M.dims[y]
            for k in range(min(upto + 1, len(self.terms) - 1)):
                out_mat, inc = self.realize(k, y), self.realize(k + 1, y)
                report[(k, y)] = (
                    (out_mat @ inc).is_zero()
                    and inc.rank() == out_mat.nullity()
                )
        return report

    def hom_cochain(self, F: LinearFunctor, length: int | None = None) -> CochainComplex:
        """Hom(R_0..R_length, F) in Yoneda coordinates (see
        ``_hom_block``), every term when length is None.  Reading only
        the terms asked for keeps an answer independent of how far a
        kept resolution has grown."""
        terms = self.terms if length is None else self.terms[: length + 1]
        dims = [sum(F.dims[x] for x in term) for term in terms]
        mats = [_hom_block(F, terms[k], terms[k - 1], self.diffs[k])
                for k in range(1, len(terms))]
        return CochainComplex(dims, mats, self.p)


def _expansion(basis: list, vec) -> dict:
    """The nonzero coordinates of vec keyed by basis element."""
    return {basis[pos]: c for pos, c in enumerate(vec) if c}


def _hom_block(F: LinearFunctor, rows: tuple, cols: tuple, images: list) -> FinMatrix:
    """Precomposition Hom(R', F) -> Hom(R, F) with the map R -> R'
    sending generator j of R (at rows[j]) to images[j] = {(i, h): c},
    i a generator of R' (at cols[i]) and h an arrow id.  By Yoneda
    Hom(R, F) is one F(x_j)-block per generator, and block (j, i) is the
    sum of c F(h)."""
    roff = list(accumulate((F.dims[x] for x in rows), initial=0))
    coff = list(accumulate((F.dims[x] for x in cols), initial=0))
    entries = {}
    for j, image in enumerate(images):
        for (i, h), c in image.items():
            for (r, s), v in F.mats[h].entries.items():
                key = (roff[j] + r, coff[i] + s)
                entries[key] = entries.get(key, 0) + c * v
    return FinMatrix(roff[-1], coff[-1], entries, F.p)


def cover_resolution(M: LinearFunctor, length: int) -> Resolution:
    """Greedy representable-cover resolution with terms R_0..R_length.

    Stage 0 covers M, offering M's ``generators`` before the unit
    vectors (see ``_greedy_cover``); stage k+1 covers the kernel of the
    realized d_k.  Generators are chosen per object in canonical order
    and only when the pushforwards of earlier generators miss a
    direction, and then those that the pushforwards of later ones reach
    are dropped, so the terms stay small, and a sum of representables
    resolves as itself.  Exactness at every interior slot is verified
    by rank bookkeeping as part of the build, not trusted.

    A functor shared per base (``_shared``) keeps its resolution: the
    call extends ``M.kept`` to at least ``length`` and returns it, so
    it may be longer than asked; readers take the terms they need (see
    ``Resolution.hom_cochain``).  A stage joins the kept resolution
    only once certified, and the caches that only a build reads are
    dropped below the last stage.  Any other functor gets a fresh
    resolution of exactly ``length``.
    """
    res = M.kept
    if res is None:
        res = Resolution(M.base, M.p, M, [], [], [], backend="cover")
    if not res.terms:
        gens0 = _greedy_cover(res, -1, lambda y: _unit_vectors(M.dims[y]),
                              M.generators)
        res.terms.append(tuple(x for x, _ in gens0))
        res.diffs.append(None)
        res.aug = [list(v) for _, v in gens0]
    for k in range(len(res.terms), length + 1):
        try:
            _cover_stage(res, k)
        except BaseException:
            del res.terms[k:], res.diffs[k:]
            res._rd, res._tb, res._push_idx = {}, {}, {}
            raise
    if res is M.kept:
        last = len(res.terms) - 1
        res._rd = {key: m for key, m in res._rd.items() if key[0] == last}
        res._tb = {key: b for key, b in res._tb.items() if key[0] == last}
        res._push_idx = {}
    return res


def _cover_stage(res: Resolution, k: int) -> None:
    """Append R_k, covering the kernel of d_{k-1}, and certify it."""
    base = res.base
    kernels = {y: res.realize(k - 1, y).kernel_basis() for y in base.objects}
    gens = _greedy_cover(
        res, k - 1,
        lambda y: [kernels[y].column(j) for j in range(kernels[y].ncols)],
    )
    res.terms.append(tuple(x for x, _ in gens))
    res.diffs.append([_expansion(res.term_basis(k - 1, x)[0], vec) for x, vec in gens])

    # certify the greedy step: d^2 = 0 and the image really is the
    # kernel, object by object
    for y in base.objects:
        dk = res.realize(k, y)
        if not (res.realize(k - 1, y) @ dk).is_zero():
            raise ResolutionError(f"d^2 != 0 at stage {k}, object {y!r}")
        if dk.rank() != kernels[y].ncols:
            raise ResolutionError(f"cover misses the kernel at stage {k}, object {y!r}")


def _unit_vectors(dim: int) -> list:
    out = []
    for j in range(dim):
        v = [0] * dim
        v[j] = 1
        out.append(v)
    return out


def _greedy_cover(res: Resolution, k: int, targets_fn, seeds=()) -> list:
    """Choose generators (x, vec) in T_k(x) so that the pushforwards
    (``res.push``) of all chosen generators span, at every object, the
    span of that object's target vectors.

    The walk offers the seeds first, then every target in canonical
    object order (``_cover_walk``).  So every target ends inside the
    span at its object whatever the seeds are, since spans only grow:
    coverage never rests on the seeds.  A wrong seed only leaves the
    walk more to add, and the build certifies every stage by ranks
    regardless.  Seeds that do generate (the identity coordinates of a
    sum of representables) leave the walk nothing to add.

    A generator taken early is often reached later by the pushforwards
    of one taken at another object, and every surplus generator adds
    relations that the next stage must cover.  So one more walk offers
    the chosen generators in reverse, into fresh spans, and keeps a
    generator only if the kept ones after it miss it; the kept ones are
    returned in walk order.  This is exact: a span of pushforwards is a
    subfunctor, so a dropped generator lies in the subfunctor the kept
    generators after it produce, and the kept generators produce
    everything the walk's did.  One pass does not make the kept set
    irredundant in general: a kept generator may still lie in the span
    of the others.
    """
    offers = chain(seeds, ((x, t) for x in res.base.objects for t in targets_fn(x)))
    walk = _cover_walk(res, k, offers)
    return _cover_walk(res, k, reversed(walk))[::-1]


def _cover_walk(res: Resolution, k: int, offers) -> list:
    """The offered (x, vec) in T_k(x) that the spans so far miss, in
    offer order; each joins the generators and its pushforwards along
    every arrow out of x, the identity included, join the spans."""
    base = res.base
    spans = {y: Echelon(res.term_dim(k, y), res.p) for y in base.objects}
    gens = []
    for x, t in offers:
        if not spans[x].contains(t):
            gens.append((x, list(t)))
            for y in base.objects:
                for f in base.hom_ids(x, y):
                    spans[y].insert(res.push(k, f, t))
    return gens


def bar_resolution(M: LinearFunctor, length: int, normalized: bool = True,
                   max_generators: int = 2_000_000) -> Resolution:
    """Bar resolution: B_k has one generator per (composable k-chain,
    basis vector of M at the chain's start), placed at the chain's end.
    Normalized means chains of non-identities with composite-identity
    face terms dropped; the unnormalized variant keeps everything and
    serves as an extra oracle on small inputs.

    A chain is a tuple of arrow ids, first arrow first; composites come
    from the base's composition table and identities are recognized by
    id.  Faces: face 0 applies M along the first arrow, middle faces
    compose adjacent arrows, the last face peels the final arrow into
    the Yoneda direction, with alternating signs.
    """
    base, p = M.base, M.p
    arrows = base.arrows()
    identity = {x: base.arrow_id(base.identity(x)) for x in base.objects}
    identities = set(identity.values())
    links = [m for m in range(len(arrows)) if not (normalized and m in identities)]
    extend = {}
    for m in links:
        extend.setdefault(arrows[m][1], []).append(m)

    chains: list = [[()]]
    gen_count = sum(M.dims.values())
    for k in range(1, length + 1):
        nxt = []
        for ch in chains[-1]:
            if ch:
                nxt.extend((m,) + ch for m in extend.get(arrows[ch[0]][0], ()))
            else:
                nxt.extend((m,) for m in links)
        chains.append(nxt)
        gen_count += sum(M.dims[arrows[ch[0]][0]] for ch in nxt)
        if gen_count > max_generators:
            raise ResolutionError(
                f"bar resolution too large: {gen_count} generators by stage {k}"
            )

    res = Resolution(base, p, M, [], [], [], backend="bar" if normalized else "bar-raw")

    gens0 = [(x, b) for x in base.objects for b in range(M.dims[x])]
    res.terms.append(tuple(x for x, _ in gens0))
    res.diffs.append(None)
    res.aug = []
    for x, b in gens0:
        v = [0] * M.dims[x]
        v[b] = 1
        res.aug.append(v)
    prev_lookup = {((), x, b): i for i, (x, b) in enumerate(gens0)}

    for k in range(1, length + 1):
        gens = [(ch, arrows[ch[0]][0], b) for ch in chains[k]
                for b in range(M.dims[arrows[ch[0]][0]])]
        res.terms.append(tuple(arrows[ch[-1]][1] for ch, _, _ in gens))
        expansions = []
        for ch, x, b in gens:
            exp: dict = {}
            tgt_id = identity[arrows[ch[-1]][1]]

            def add_term(key, f, coef):
                bk = (prev_lookup[key], f)
                exp[bk] = exp.get(bk, 0) + coef

            # face 0: apply M along the first arrow
            first = ch[0]
            for (r, c), v in M.mats[first].entries.items():
                if c == b:
                    add_term((ch[1:], arrows[first][1], r), tgt_id, v)
            # middle faces: compose adjacent arrows
            for i in range(1, k):
                comp = base.compose_id(ch[i], ch[i - 1])
                if normalized and comp in identities:
                    continue
                new_ch = ch[: i - 1] + (comp,) + ch[i + 1:]
                add_term((new_ch, x, b), tgt_id, -1 if i % 2 else 1)
            # last face: peel the final arrow into the Yoneda slot
            add_term((ch[:-1], x, b), ch[-1], -1 if k % 2 else 1)
            reduced = ((bk, c % p if p else c) for bk, c in exp.items())
            expansions.append({bk: c for bk, c in reduced if c})
        res.diffs.append(expansions)
        prev_lookup = {g: i for i, g in enumerate(gens)}
    return res


def build_resolution(M: LinearFunctor, length: int, backend: str = "cover") -> Resolution:
    if backend == "cover":
        return cover_resolution(M, length)
    if backend == "bar":
        return bar_resolution(M, length, normalized=True)
    if backend == "bar-raw":
        return bar_resolution(M, length, normalized=False)
    raise ValueError(f"unknown backend {backend!r}")


# -- ext and hom ------------------------------------------------------------


def ext(M: LinearFunctor, F: LinearFunctor, K: int, backend: str = "cover",
        resolution: Resolution | None = None) -> list:
    """[dim Ext^k(M, F) for k = 0..K].  Pass a prebuilt resolution of M
    (length at least K+1) to amortize it across coefficient functors.

    The "co-cover" backend resolves the dual of F over the opposite
    category instead, using Ext(M, F) = Ext_op(F^, M^); over a field
    this is an exact relabeling, and it is the cheap direction when F
    has small injective data (the constant functor on a category with a
    terminal-like object being the typical case).
    """
    _check_same_base(M, F)
    if backend == "co-cover":
        if resolution is not None:
            raise ValueError("co-cover builds its own resolution of the dual")
        op = op_category(M.base)
        return ext(dual_functor(F, op), dual_functor(M, op), K, backend="cover")
    res = resolution if resolution is not None else build_resolution(M, K + 1, backend)
    if len(res.terms) < K + 2:
        raise ValueError("resolution too short for the requested degree")
    return res.hom_cochain(F, K + 1).cohomology_dims()[: K + 1]


def _check_same_base(M: LinearFunctor, F: LinearFunctor) -> None:
    """ValueError unless M and F live on the same base: the same object,
    or the same arrows in the same order.  Arrow ids mean something only
    under one numbering, and equal hom sets listed in another order
    number their arrows otherwise, so this runs before any id is read."""
    a, b = M.base, F.base
    if a is not b and a.arrows() != b.arrows():
        raise ValueError("functors live on different bases")


def ext_both(M: LinearFunctor, F: LinearFunctor, K: int) -> list:
    """Ext from the cover and bar backends; a mismatch is an error, not
    a warning, because backend independence is the point."""
    a = ext(M, F, K, backend="cover")
    b = ext(M, F, K, backend="bar")
    if a != b:
        raise ResolutionError(f"backend disagreement: cover {a} vs bar {b}")
    return a


def generating_morphisms(base: FinCategory) -> list:
    """A certified generating set of non-identity arrows: walking the
    non-identity arrows in canonical order, each arrow that composites
    of the generators so far do not reach becomes a generator.  The set
    is not minimal and its members need not be indecomposable: an
    arrow can be taken before the arrows it factors through.

    Every non-identity arrow h is then the composite g_k o ... o g_1 of
    a word in the generators.  That is what makes checks on generators
    enough: for a functor F, identities plus F(g o f) = F(g) F(f) for
    every generator g and every f into g's source give full
    functoriality, by induction on the word length of h.  With
    h = g_k o h', associativity of the base gives
    F(h o f) = F(g_k o (h' o f)) = F(g_k) F(h' o f) = F(g_k) F(h') F(f)
    = F(h) F(f).  The same word-length reading is what ``hom_solver``
    relies on for naturality squares and what ``_action_closure``
    relies on to close a subfunctor under generators only.  The
    argument needs the base to be associative.  Where each base gets
    that from:

    * ``gamma_category``, ``delta_category``: composition of pointed
      and of monotone maps, which is composition of functions;
    * ``op_category``: from its base;
    * ``tw_com_fast``: composition is shape composition, that is
      composition of pointed maps, and ``certify_tw_com`` establishes
      that in each hom set the shape determines the arrow;
    * ``tw_category``: only from the tests, which run
      ``FinCategory.check(associativity=True)`` on ``com`` and ``ass``
      at arity <= 2; above that it is assumed, not proved here.

    The engine reads the set by id (``generating_ids``); this list of
    triples is the same arrows in the same order.
    """
    return [base.arrows()[g] for g in generating_ids(base)]


def generating_ids(base: FinCategory) -> list:
    """The ids of ``generating_morphisms(base)``, computed once per base
    and cached in ``base.memo`` next to the arrow numbering and the
    composition table (see ``FinCategory``).  Treat it as read-only."""
    ids = base.memo.get("generating_ids")
    if ids is None:
        ids = base.memo["generating_ids"] = _generating_morphisms(base)
    return ids


def _generating_morphisms(base: FinCategory) -> list:
    """Uncached search behind ``generating_ids``, on arrow ids.

    The closure of a set of generators (the non-identity composites of
    its words) only ever grows by composing a generator on the left,
    since every word is a generator after a shorter word.  Appending a
    generator m extends the closure in place: m, m after every closed
    arrow into its source, then left composites as before.
    """
    arrows = base.arrows()
    identities = {base.arrow_id(base.identity(x)) for x in base.objects}
    gens = []
    gens_from = {}  # source object -> generators leaving it
    closed_into = {}  # target object -> closed arrows ending there
    closed = set()

    def add(h, frontier):
        if h not in closed and h not in identities:
            closed.add(h)
            closed_into.setdefault(arrows[h][1], []).append(h)
            frontier.append(h)

    for m in range(len(arrows)):
        if m in closed or m in identities:
            continue
        gens.append(m)
        gens_from.setdefault(arrows[m][0], []).append(m)
        frontier = []
        for h in list(closed_into.get(arrows[m][0], ())):
            add(base.compose_id(m, h), frontier)
        add(m, frontier)
        while frontier:
            h = frontier.pop()
            for g in gens_from.get(arrows[h][1], ()):
                add(base.compose_id(g, h), frontier)
    return gens


def hom_solver(M: LinearFunctor, F: LinearFunctor) -> int:
    """dim Hom(M, F) as the nullity of the naturality system: unknowns
    are the entries of all components Phi_y, one constraint block per
    generating arrow g: y -> z reading Phi_z M(g) - F(g) Phi_y = 0.
    Constraints on a generating set suffice since naturality squares
    compose.  Shares no code with the resolution backends."""
    _check_same_base(M, F)
    p = M.p
    offsets = {}
    nvars = 0
    for y in M.base.objects:
        offsets[y] = nvars
        nvars += F.dims[y] * M.dims[y]

    def var(y, r, c):
        return offsets[y] + r * M.dims[y] + c

    entries = {}
    nrows = 0
    for g in generating_ids(M.base):
        y, z, _ = M.base.arrows()[g]
        mg, fg = M.mats[g], F.mats[g]
        for r in range(F.dims[z]):
            for c in range(M.dims[y]):
                for (kk, cc), v in mg.entries.items():
                    if cc == c:
                        key = (nrows, var(z, r, kk))
                        entries[key] = entries.get(key, 0) + v
                for (rr, ll), v in fg.entries.items():
                    if rr == r:
                        key = (nrows, var(y, ll, c))
                        entries[key] = entries.get(key, 0) - v
                nrows += 1
    mat = FinMatrix(max(nrows, 1), nvars, entries, p)
    return mat.nullity()


# -- derived invariants ------------------------------------------------------


def quillen_cohomology(P: DiscreteOperad, F: LinearFunctor, N: int, K: int,
                       backend: str = "cover") -> dict:
    """Operadic Quillen cohomology table: H^n(P; F) is read off as
    dim Ext^{n+1}(arity functor, F) for n = -1..K-1, zero below -1 by
    convention, stamped with the truncation it was computed at.  The
    arity functor lives on F's base, the twisted arrow category of P
    truncated at N."""
    M = f_operad(P, N, p=F.p, base=F.base)
    dims = ext(M, F, K, backend=backend)
    return {
        "operad": type(P).__name__,
        "truncation": N,
        "field": F.p,
        "backend": backend,
        "table": {n - 1: dims[n] for n in range(len(dims))},
        "note": "degrees below -1 vanish by convention",
    }


def stable_cohomotopy(T_builder, K: int, truncations=(2, 3, 4), p: int = 0,
                      backend: str = "cover") -> dict:
    """Ext^k(t, T) over the opposite pointed-set base, tabulated side
    by side across truncations.  The per-degree flag marks agreement at
    the two largest truncations; it is a stabilization observation, not
    a convergence claim."""
    columns = {}
    for N in truncations:
        t = gamma_t(N, p)
        T = T_builder(N, p)
        columns[N] = ext(t, T, K, backend=backend)
    top2 = sorted(truncations)[-2:]
    stable = [columns[top2[0]][k] == columns[top2[1]][k] for k in range(K + 1)]
    return {
        "truncations": list(truncations),
        "field": p,
        "backend": backend,
        "columns": columns,
        "stable_flag": stable,
        "note": "flag marks agreement at the two largest truncations only",
    }


# -- the simplex-category short exact sequence -------------------------------


def ses_maps_ass(N: int, p: int = 0, base=None):
    """Degreewise maps of 0 -> F -> eta_!k -> k -> 0 over the truncated
    simplex category: rho embeds the difference basis, pi sums the
    vertex coordinates.  Naturality of both is verified on every
    arrow before anything downstream uses them."""
    if base is None:
        base = delta_category(N)
    A = f_ass_delta(N, p, base)
    B = eta_shriek(N, p, base)
    C = constant_functor(base, p, 1)
    rho = {}
    pi = {}
    for n in base.objects:
        entries = {}
        for i in range(1, n + 1):
            entries[(i - 1, i - 1)] = 1
            entries[(i, i - 1)] = -1
        rho[n] = FinMatrix(n + 1, n, entries, p)
        pi[n] = FinMatrix(1, n + 1, {(0, j): 1 for j in range(n + 1)}, p)
    for m, a, b, c in zip(base.arrows(), A.mats, B.mats, C.mats):
        if rho[m[1]] @ a != b @ rho[m[0]]:
            raise ValueError(f"rho is not natural at {m!r}")
        if pi[m[1]] @ b != c @ pi[m[0]]:
            raise ValueError(f"pi is not natural at {m!r}")
    return A, B, C, rho, pi


def _horseshoe(resA: Resolution, resC: Resolution, rho, pi, B: LinearFunctor,
               top: int) -> list:
    """Correction maps lam[k]: R^C_k -> T_{k-1} (T_0 = B, T_k = R^A_{k-1}
    above), k = 0..top, making R^A (+) R^C a resolution of the middle
    term through stage top: lam[0] lifts the C-augmentation through pi,
    and d^A lam[k] = -lam[k-1] d^C is solved generator by generator,
    with d^A into B read as rho after the A-augmentation.  Solvability
    is exactness of the A side, so a failed solve is an error.  Both
    resolutions may be kept ones longer than top (see
    ``cover_resolution``); nothing past stage top is read."""
    p = resA.p
    lam0 = []
    for i, x in enumerate(resC.terms[0]):
        rhs = FinMatrix.from_columns([resC.aug[i]], 1, p)
        sol = pi[x].solve_matrix(rhs)
        if sol is None:
            raise ResolutionError("pi has no section where one must exist")
        lam0.append(sol.column(0))
    lam = [lam0]

    for k in range(1, top + 1):
        cur = []
        for j, x in enumerate(resC.terms[k]):
            target = rho[x] @ resA.realize(0, x) if k == 1 else resA.realize(k - 1, x)
            rhs = [0] * target.nrows
            for (i, h), c in resC.diffs[k][j].items():
                vec = lam[k - 1][i]
                moved = _apply(B.mats[h], vec, p) if k == 1 else resA.push(k - 2, h, vec)
                for t, v in enumerate(moved):
                    rhs[t] -= c * v
            sol = target.solve_matrix(FinMatrix.from_columns([rhs], target.nrows, p))
            if sol is None:
                raise ResolutionError(f"horseshoe lift failed at stage {k}")
            cur.append(sol.column(0))
        lam.append(cur)
    return lam


def _cocycles(X: CochainComplex, k: int) -> FinMatrix:
    if k + 1 < len(X.dims):
        return X.diffs[k].kernel_basis()
    return FinMatrix.identity(X.dims[k], X.p)


def _coboundaries(X: CochainComplex, k: int) -> FinMatrix:
    if k == 0:
        return FinMatrix.zeros(X.dims[0], 0, X.p)
    return X.diffs[k - 1]


def _induced_rank(Xsrc: CochainComplex, Xdst: CochainComplex, U: FinMatrix,
                  k: int, shift: int = 0) -> int:
    """Rank of the map H^k(Xsrc) -> H^{k+shift}(Xdst) induced by a
    cochain map U that sends cocycles to cocycles."""
    Z = _cocycles(Xsrc, k)
    Bd = _coboundaries(Xdst, k + shift)
    return (U @ Z).hstack(Bd).rank() - Bd.rank()


def _composite_vanishes(Z: FinMatrix, U1: FinMatrix, U2: FinMatrix,
                        Xout: CochainComplex, k_out: int) -> bool:
    """U2 U1 lands in coboundaries when applied to the cocycles Z."""
    comp = U2 @ (U1 @ Z)
    Bd = _coboundaries(Xout, k_out)
    return comp.hstack(Bd).rank() == Bd.rank()


def _les_infrastructure(N: int, p: int, L: int, base):
    """Everything in the long-exact-sequence check that does not depend
    on the coefficient functor, cached in ``base.memo`` so a batch of
    coefficients on one base pays for the resolutions once.  The
    correction maps are kept as Yoneda expansions, ready for
    ``_hom_block``."""
    key = ("les", N, p, L)
    if key not in base.memo:
        A, B, C, rho, pi = ses_maps_ass(N, p, base)
        resA = cover_resolution(A, L)
        resC = cover_resolution(C, L)
        resB = cover_resolution(B, L)
        lam = _horseshoe(resA, resC, rho, pi, B, L)
        lam_exp = [None] + [
            [_expansion(resA.term_basis(k - 1, x)[0], lam[k][j])
             for j, x in enumerate(resC.terms[k])]
            for k in range(1, L + 1)
        ]
        base.memo[key] = (A, B, C, rho, pi, resA, resC, resB, lam_exp)
    return base.memo[key]


def les_check_ass(N: int, F: LinearFunctor, K: int) -> dict:
    """Long-exact-sequence verification for the vertex-functor short
    exact sequence over the simplex category truncated at N, against a
    coefficient functor F, through cohomological degree K.  F must live
    on the simplex category truncated at N, with the arrows of
    ``delta_category(N)`` in their order; any other base is a ValueError
    raised before anything is cached.

    The report carries (a) pointwise short exactness with ranks, (b)
    the projectivity facts for the middle term (higher Ext vanishes,
    Hom is F at [0]), and (c) slot-by-slot exactness of the induced
    long sequence from a horseshoe-glued resolution, every slot
    witnessed by induced ranks on cohomology.
    """
    base = F.base
    if base.arrows() != delta_category(N).arrows():
        raise ValueError(f"coefficient functor's base is not the simplex category "
                         f"truncated at {N}")
    p = F.p
    L = K + 2
    A, B, C, rho, pi, resA, resC, resB, lam = _les_infrastructure(N, p, L, base)

    report = {"truncation": N, "field": p, "degree": K}

    pointwise = {}
    for n in base.objects:
        r, q = rho[n], pi[n]
        pointwise[n] = (
            r.rank() == A.dims[n]
            and q.rank() == C.dims[n]
            and (q @ r).is_zero()
            and r.rank() + q.rank() == B.dims[n]
        )
    report["pointwise_exact"] = pointwise

    extB = ext(B, F, K, resolution=resB)
    report["ext_middle"] = extB
    report["middle_vanishes"] = all(d == 0 for d in extB[1:])
    report["hom_middle_is_F0"] = extB[0] == F.dims[0]

    XA = resA.hom_cochain(F, L)
    XC = resC.hom_cochain(F, L)
    lam_mats = [None] + [_hom_block(F, resC.terms[k], resA.terms[k - 1], lam[k])
                         for k in range(1, L + 1)]

    dimsB = [XA.dims[k] + XC.dims[k] for k in range(L + 1)]
    diffsB = []
    for k in range(L):
        entries = {}
        for (i, j), v in XA.diffs[k].entries.items():
            entries[(i, j)] = v
        for (i, j), v in XC.diffs[k].entries.items():
            entries[(XA.dims[k + 1] + i, XA.dims[k] + j)] = v
        for (i, j), v in lam_mats[k + 1].entries.items():
            entries[(XA.dims[k + 1] + i, j)] = v
        diffsB.append(FinMatrix(dimsB[k + 1], dimsB[k], entries, p))
    XB = CochainComplex(dimsB, diffsB, p)

    hA = XA.cohomology_dims()
    hB = XB.cohomology_dims()
    hC = XC.cohomology_dims()
    report["cohomology_middle_consistent"] = hB[: K + 1] == extB

    def inc_mat(k):
        return FinMatrix(
            dimsB[k], XC.dims[k],
            {(XA.dims[k] + i, i): 1 for i in range(XC.dims[k])}, p,
        )

    def proj_mat(k):
        return FinMatrix(
            XA.dims[k], dimsB[k],
            {(i, i): 1 for i in range(XA.dims[k])}, p,
        )

    slots = []
    all_slots = True
    for k in range(K + 1):
        inc = inc_mat(k)
        proj = proj_mat(k)
        inc_next = inc_mat(k + 1)
        delta = lam_mats[k + 1]

        rk_inc = _induced_rank(XC, XB, inc, k)
        rk_proj = _induced_rank(XB, XA, proj, k)
        rk_delta = _induced_rank(XA, XC, delta, k, shift=1)
        rk_inc_next = _induced_rank(XC, XB, inc_next, k + 1)

        ok_B = (
            rk_inc + rk_proj == hB[k]
            and _composite_vanishes(_cocycles(XC, k), inc, proj, XA, k)
        )
        ok_A = (
            rk_proj + rk_delta == hA[k]
            and _composite_vanishes(_cocycles(XB, k), proj, delta, XC, k + 1)
        )
        ok_C = (
            rk_delta + rk_inc_next == hC[k + 1]
            and _composite_vanishes(_cocycles(XA, k), delta, inc_next, XB, k + 1)
        )
        slots.append({
            "degree": k,
            "h_C": hC[k], "h_B": hB[k], "h_A": hA[k], "h_C_next": hC[k + 1],
            "rank_inc": rk_inc, "rank_proj": rk_proj,
            "rank_delta": rk_delta, "rank_inc_next": rk_inc_next,
            "exact_at_B": ok_B, "exact_at_A": ok_A, "exact_at_nextC": ok_C,
        })
        all_slots = all_slots and ok_B and ok_A and ok_C

    report["start_injective"] = _induced_rank(XC, XB, inc_mat(0), 0) == hC[0]
    report["slots"] = slots
    report["all_exact"] = (
        all_slots
        and report["start_injective"]
        and report["middle_vanishes"]
        and report["hom_middle_is_F0"]
        and report["cohomology_middle_consistent"]
        and all(pointwise.values())
    )
    return report


# -- conormalized cochains over the simplex category -------------------------


def conormalized_cohomology(F: LinearFunctor, K: int) -> list:
    """Cohomology of the conormalized cochain complex of a functor on
    the truncated simplex category: degree n is the joint kernel of the
    codegeneracies inside F([n]), the differential the alternating
    coface sum.  Truncation clips the top, so the answer is only
    meaningful in degrees <= N-1 and the returned list stops there.
    """
    base = F.base
    p = F.p
    N = max(base.objects)
    top = min(K + 1, N)
    kers = []
    for n in range(top + 1):
        if n == 0:
            kers.append(FinMatrix.identity(F.dims[0], p))
            continue
        stacked = F.mats[base.arrow_id(codegeneracy(n, 0))]
        for j in range(1, n):
            stacked = stacked.vstack(F.mats[base.arrow_id(codegeneracy(n, j))])
        kers.append(stacked.kernel_basis())
    dims = [kers[n].ncols for n in range(top + 1)]
    diffs = []
    for n in range(top):
        total = FinMatrix.zeros(F.dims[n + 1], F.dims[n], p)
        for i in range(n + 2):
            mat = F.mats[base.arrow_id(coface(n, i))]
            total = total + (mat.scale(-1) if i % 2 else mat)
        rhs = total @ kers[n]
        sol = kers[n + 1].solve_matrix(rhs)
        if sol is None:
            raise ValueError("differential leaves the conormalized part")
        diffs.append(sol)
    X = CochainComplex(dims, diffs, p)
    return X.cohomology_dims()[: min(K, N - 1) + 1]
