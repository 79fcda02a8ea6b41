"""Twisted arrow categories of discrete operads, truncated by arity.

Objects are operations, morphisms are encoded arrows acting correctly:
Hom(mu, nu) is the set of full-encoding morphisms alpha between the
underlying sequences with act(alpha, mu) = nu.  Everything is finite
once an arity cap is fixed, so categories are materialized as plain
dictionaries and certified by brute force.

``certify_tw_com`` checks that over the commutative operad this
category is the opposite of finite pointed sets: one object per arity,
hom sets in bijection with pointed maps, composition matching shape
composition.  ``certify_tw_ass`` checks the equivalence with the
simplex category over the associative operad: hom cardinalities are
binomial, every simplex-category arrow gets an explicit morphism, the
assignment is functorial, and each certified morphism satisfies the
witness equation pinning its head factor.

Morphisms of a ``FinCategory`` are uniformly triples
``(source, target, payload)``, and each one also has an integer id (see
``FinCategory``), which the hot loops of ``qcohom`` work in.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from typing import Callable

import numpy as np

from .encodings import (
    IbMorphism,
    act,
    enumerate_ib,
    ib_compose,
    ib_identity,
    mono_seq,
)
from .operads import DiscreteOperad, ass, com, identity_values
from .pointed import (
    Permutation,
    PointedMap,
    enumerate_monotone,
    iota,
    sigma_f,
)


class CertificationError(Exception):
    pass


@dataclass
class FinCategory:
    """A finite category: objects, hom sets of triples, and a
    composition law.

    Arrows are numbered one hom set at a time, in ``homs`` order, so
    arrow id i is ``arrows()[i]`` and hom(x, y) is the contiguous id
    range ``hom_start(x, y) .. hom_start(x, y) + len(hom(x, y)) - 1``;
    an arrow's position in its hom set is its id minus that start.

    The composition table is filled lazily, one post-compose row at a
    time: ``post_ids(g, x)`` lists the ids of g o f for f in
    hom(x, source of g), each composite computed once through
    ``compose`` and stored as its id, and ``compose_id`` reads one
    entry.  The table holds ints only, never payloads.  The numbering,
    the table (``memo["compose_table"]``) and the generating set (see
    ``qcohom.generating_ids``) live in ``memo``.  They are derived
    from the category, which is never changed after construction, so
    every functor, resolution and request on the same base object shares
    them; ``serialize.build_base`` keeps one base per hint per process
    for that reason.
    """

    objects: tuple
    homs: dict  # (x, y) -> tuple of triples (x, y, payload)
    compose_fn: Callable = field(repr=False)
    identity_fn: Callable = field(repr=False)
    # data derived from the (immutable) category, filled on first use
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def hom(self, x, y) -> tuple:
        return self.homs.get((x, y), ())

    def identity(self, x):
        return self.identity_fn(x)

    def compose(self, g, f):
        if f[1] != g[0]:
            raise ValueError("morphisms are not composable")
        return self.compose_fn(g, f)

    def _numbering(self) -> tuple:
        num = self.memo.get("numbering")
        if num is None:
            arrows = tuple(self.all_morphisms())
            ids = {m: i for i, m in enumerate(arrows)}
            start = dict(zip(self.homs, accumulate(
                (len(ms) for ms in self.homs.values()), initial=0)))
            num = self.memo["numbering"] = (arrows, ids, start)
            self.memo["compose_table"] = {}  # (g, x) -> post_ids(g, x)
        return num

    def arrows(self) -> tuple:
        """Every arrow, indexed by its id."""
        return self._numbering()[0]

    def arrow_id(self, m) -> int:
        return self._numbering()[1][m]

    def hom_start(self, x, y) -> int:
        """Id of the first arrow of hom(x, y)."""
        return self._numbering()[2].get((x, y), 0)

    def hom_ids(self, x, y) -> range:
        """The ids of hom(x, y), in hom order."""
        start = self.hom_start(x, y)
        return range(start, start + len(self.hom(x, y)))

    def post_ids(self, g: int, x) -> tuple:
        """Ids of g o f for f in hom(x, source of g), in hom order: the
        row of the composition table for arrow id g at source x."""
        arrows, ids, _ = self._numbering()
        table = self.memo["compose_table"]
        row = table.get((g, x))
        if row is None:
            gm = arrows[g]
            row = table[(g, x)] = tuple(
                ids[self.compose(gm, f)] for f in self.hom(x, gm[0]))
        return row

    def compose_id(self, g: int, f: int) -> int:
        """Id of g o f, for arrow ids g and f."""
        arrows, _, start = self._numbering()
        x, y = arrows[f][0], arrows[f][1]
        if y != arrows[g][0]:
            raise ValueError("morphisms are not composable")
        return self.post_ids(g, x)[f - start[(x, y)]]

    def all_morphisms(self):
        for ms in self.homs.values():
            yield from ms

    def morphism_count(self) -> int:
        return sum(len(ms) for ms in self.homs.values())

    def check(self, associativity: bool = False) -> dict:
        """Identity laws and closure of composition; associativity on
        demand (cubic in morphism count, keep the category small)."""
        pairs = 0
        for f in self.all_morphisms():
            if self.compose(f, self.identity(f[0])) != f:
                raise CertificationError(f"right identity fails at {f!r}")
            if self.compose(self.identity(f[1]), f) != f:
                raise CertificationError(f"left identity fails at {f!r}")
        by_source = defaultdict(list)
        for f in self.all_morphisms():
            by_source[f[0]].append(f)
        for f in self.all_morphisms():
            for g in by_source.get(f[1], ()):
                gf = self.compose(g, f)
                pairs += 1
                if gf not in self.homs.get((gf[0], gf[1]), ()):
                    raise CertificationError(f"composition escapes homs: {gf!r}")
        triples = 0
        if associativity:
            for f in self.all_morphisms():
                for g in by_source.get(f[1], ()):
                    gf = self.compose(g, f)
                    for h in by_source.get(g[1], ()):
                        triples += 1
                        if self.compose(h, gf) != self.compose(
                            self.compose(h, g), f
                        ):
                            raise CertificationError(
                                f"associativity fails at {h!r}, {g!r}, {f!r}"
                            )
        return {
            "objects": len(self.objects),
            "morphisms": self.morphism_count(),
            "pairs": pairs,
            "triples": triples,
        }


@dataclass
class SetFunctor:
    base: FinCategory
    obj: Callable  # object -> tuple of elements
    map: Callable  # morphism triple -> callable on elements


def act_functor(P: DiscreteOperad, C: FinCategory) -> SetFunctor:
    """Levels of P as a set-valued functor on an encoding category whose
    objects are arities and whose arrows carry encoding payloads; its
    category of elements recovers tw_category(P, N)."""
    return SetFunctor(
        C,
        obj=lambda n: tuple(P.level(n)),
        map=lambda m: (lambda mu: act(P, m[2], mu)),
    )


def grothendieck(C: FinCategory, F: SetFunctor) -> FinCategory:
    """Category of elements of a set-valued functor."""
    objects = tuple((x, a) for x in C.objects for a in F.obj(x))
    homs: dict = defaultdict(list)
    for (x, y), ms in C.homs.items():
        for m in ms:
            fm = F.map(m)
            for a in F.obj(x):
                b = fm(a)
                homs[((x, a), (y, b))].append(((x, a), (y, b), m))
    homs = {k: tuple(v) for k, v in homs.items()}

    def compose_fn(g, f):
        base = C.compose(g[2], f[2])
        return (f[0], g[1], base)

    def identity_fn(xa):
        return (xa, xa, C.identity(xa[0]))

    return FinCategory(objects, homs, compose_fn, identity_fn)


def ib_category(P: DiscreteOperad, N: int) -> FinCategory:
    """Arities 0..N with all full-encoding morphisms between them."""
    if not P.single_colored:
        raise ValueError("only single-colored operads are materialized here")
    objects = tuple(range(N + 1))
    homs = {}
    for n in objects:
        for m in objects:
            ms = enumerate_ib(P, mono_seq(P, n), mono_seq(P, m))
            homs[(n, m)] = tuple((n, m, a) for a in ms)

    def compose_fn(g, f):
        return (f[0], g[1], ib_compose(P, g[2], f[2]))

    def identity_fn(n):
        return (n, n, ib_identity(P, mono_seq(P, n)))

    return FinCategory(objects, homs, compose_fn, identity_fn)


def tw_category(P: DiscreteOperad, N: int) -> FinCategory:
    """Operations of arity <= N with action-compatible arrows."""
    if not P.single_colored:
        raise ValueError("only single-colored operads are materialized here")
    objects = tuple((n, mu) for n in range(N + 1) for mu in P.level(n))
    homs: dict = defaultdict(list)
    for n in range(N + 1):
        level_n = P.level(n)
        for m in range(N + 1):
            for alpha in enumerate_ib(P, mono_seq(P, n), mono_seq(P, m)):
                for mu in level_n:
                    nu = act(P, alpha, mu)
                    homs[((n, mu), (m, nu))].append(((n, mu), (m, nu), alpha))
    homs = {k: tuple(v) for k, v in homs.items()}

    def compose_fn(g, f):
        return (f[0], g[1], ib_compose(P, g[2], f[2]))

    def identity_fn(obj):
        return (obj, obj, ib_identity(P, mono_seq(P, obj[0])))

    return FinCategory(objects, homs, compose_fn, identity_fn)


def tw_com_fast(N: int) -> FinCategory:
    """The commutative twisted arrow category with table composition.

    Objects and morphisms are exactly those of tw_category(com(), N);
    only composition is different: the composite is looked up by its
    shape instead of being recomputed at the encoding level.  That the
    two compositions agree is precisely the functoriality statement
    certify_tw_com establishes, so this model is safe wherever the
    certificate holds, and it makes composition O(arity)."""
    base = tw_category(com(), N)
    index = {}
    for (x, y), ms in base.homs.items():
        for m in ms:
            index[(x, y, m[2].f.values)] = m

    def compose_fn(g, f):
        vals = _compose_shape(f[2].f.values, g[2].f.values)
        return index[(f[0], g[1], vals)]

    return FinCategory(base.objects, base.homs, compose_fn, base.identity_fn)


def tw_hom(P: DiscreteOperad, src_obj, tgt_obj) -> list:
    """Triples mu -> nu, enumerated directly."""
    n, mu = src_obj
    m, nu = tgt_obj
    out = []
    for alpha in enumerate_ib(P, mono_seq(P, n), mono_seq(P, m)):
        if act(P, alpha, mu) == nu:
            out.append((src_obj, tgt_obj, alpha))
    return out


def sigma_equivalence(P: DiscreteOperad, src_obj, sigma: tuple):
    """The arrow mu -> mu^sigma with permutation shape and unit parts."""
    n, mu = src_obj
    seq = mono_seq(P, n)
    alpha = IbMorphism(
        seq,
        seq,
        PointedMap(n, n, tuple(sigma)),
        P.unit(),
        tuple(P.unit() for _ in range(n)),
    )
    return (src_obj, (n, P.act(mu, sigma)), alpha)


def is_equivalence(P: DiscreteOperad, triple) -> bool:
    src, tgt, _ = triple
    back = enumerate_ib(P, mono_seq(P, tgt[0]), mono_seq(P, src[0]))
    return _has_inverse_in(P, triple, back)


def _has_inverse_in(P: DiscreteOperad, triple, back: list) -> bool:
    """Search ``back`` = Ib(target arity, source arity), in order, for a
    two-sided inverse of the triple's arrow; the arrows acting tgt to
    src are exactly ``tw_hom(P, tgt, src)``.

    The search looks at shapes first.  ``ib_compose(P, beta, alpha).f``
    is ``alpha.f . beta.f`` and an identity arrow has the identity
    shape, so a two-sided inverse beta has ``alpha.f . beta.f`` and
    ``beta.f . alpha.f`` both the identity: alpha's shape is a
    bijection and beta's shape is its inverse.  A non-bijective shape
    therefore has no inverse, and only the betas of shape ``alpha.f``
    inverse are acted on and composed; the answer is the one the full
    scan gives.
    """
    src, tgt, alpha = triple
    fa = alpha.f
    if not fa.is_bijective():
        return False
    inv = Permutation(fa.values).inverse().values
    e_src = ib_identity(P, mono_seq(P, src[0]))
    e_tgt = ib_identity(P, mono_seq(P, tgt[0]))
    for beta in back:
        if (
            beta.f.values == inv
            and act(P, beta, tgt[1]) == src[1]
            and ib_compose(P, beta, alpha) == e_src
            and ib_compose(P, alpha, beta) == e_tgt
        ):
            return True
    return False


def terminal_objects(C: FinCategory) -> list:
    return [t for t in C.objects if all(len(C.hom(x, t)) == 1 for x in C.objects)]


# -- certifications -----------------------------------------------------


def _compose_shape(fa_vals: tuple, fb_vals: tuple) -> tuple:
    """Value tuple of fa . fb for pointed maps, zero absorbing."""
    table = (0,) + fa_vals
    return tuple(table[v] for v in fb_vals)


def _check_composite_shapes(fas, fbs, keys, n: int, l: int) -> None:
    """Raise CertificationError unless ``fa . fb`` is in ``keys`` for
    every fa in ``fas`` and fb in ``fbs``.

    ``fas`` are value tuples of pointed maps ``<m> -> <n>``, ``fbs`` of
    maps ``<l> -> <m>`` and ``keys`` of maps ``<l> -> <n>``.  A value
    tuple of a map into ``<n>`` is read as an l-digit number in base
    n+1; its digits lie in ``0..n``, so distinct tuples get distinct
    codes below ``(n+1)^l``.  The keys are marked in a boolean table
    over those codes, and each fa is checked as one row: its value
    table gathered at every fb at once (the composites, one per row of
    ``fbs``), encoded, and looked up.  Nothing larger than one such row
    or the table is allocated.
    """
    weights = (n + 1) ** np.arange(l - 1, -1, -1, dtype=np.int64)
    member = np.zeros((n + 1) ** l, dtype=bool)
    key_rows = np.array(keys, dtype=np.int64).reshape(len(keys), l)
    member[key_rows @ weights] = True
    fb_rows = np.array(fbs, dtype=np.int64).reshape(len(fbs), l)
    for fa in fas:
        table = np.array((0,) + fa, dtype=np.int64)
        escaped = np.flatnonzero(~member[table[fb_rows] @ weights])
        if escaped.size:
            raise CertificationError(
                f"shape composition escapes homs at {fa},{fbs[escaped[0]]}"
            )


# certify_tw_com composes generically wherever every arity is at most
# this, and samples about _SAMPLE pairs above it with a fixed seed
_FULL_COMPOSE_UPTO = 3
_SAMPLE = 20000
_SAMPLE_SEED = 0


def certify_tw_com(N: int) -> dict:
    """Certify the arity-capped twisted arrow category over the
    commutative operad against pointed-sets-opposite.

    Hom sets are checked to be singletons per shape and exhaustively in
    bijection with pointed maps.  Composition agreement runs the full
    generic composition wherever every arity is <= _FULL_COMPOSE_UPTO,
    plus a seeded sample above that; the remaining pairs are covered by
    shape composition, which determines the morphism because the hom
    bijection has already been established.

    Above the cap, every pair's composite shape is still checked to be
    a shape of the target hom set, one fa row at a time
    (``_check_composite_shapes``).  The sample makes exactly one
    ``random()`` draw per pair above the cap, fa-major in hom order,
    whatever the shape check found, and pairs at or below the cap make
    none; so the sampled pairs, and ``generic_pairs``, depend on N and
    the seed only.
    """
    P = com()
    by_pair: dict = {}
    morphisms = 0
    for n in range(N + 1):
        mu_n = (n, "*")
        for m in range(N + 1):
            hom = tw_hom(P, mu_n, (m, "*"))
            shapes = {tr[2].f.values for tr in hom}
            if len(hom) != (n + 1) ** m or len(shapes) != len(hom):
                raise CertificationError(
                    f"hom({n},{m}) is not in bijection with pointed maps"
                )
            by_pair[(n, m)] = {tr[2].f.values: tr[2] for tr in hom}
            morphisms += len(hom)

    big_total = sum(
        (n + 1) ** m * (m + 1) ** l
        for n in range(N + 1)
        for m in range(N + 1)
        for l in range(N + 1)
        if max(n, m, l) > _FULL_COMPOSE_UPTO
    )
    p_generic = min(1.0, _SAMPLE / big_total) if big_total else 0.0
    draw = random.Random(_SAMPLE_SEED).random
    pairs = 0
    generic = 0
    for n in range(N + 1):
        for m in range(N + 1):
            for l in range(N + 1):
                homs_nm = by_pair[(n, m)]
                homs_ml = by_pair[(m, l)]
                homs_nl = by_pair[(n, l)]
                small = max(n, m, l) <= _FULL_COMPOSE_UPTO
                pairs += len(homs_nm) * len(homs_ml)
                if not small:
                    _check_composite_shapes(
                        list(homs_nm), list(homs_ml), list(homs_nl), n, l
                    )
                for fa, alpha in homs_nm.items():
                    for fb, beta in homs_ml.items():
                        if small or draw() < p_generic:
                            gf = ib_compose(P, beta, alpha)
                            generic += 1
                            if gf != homs_nl.get(_compose_shape(fa, fb)):
                                raise CertificationError(
                                    f"generic composition disagrees at {fa},{fb}"
                                )
    return {
        "objects": N + 1,
        "morphisms": morphisms,
        "pairs": pairs,
        "generic_pairs": generic,
    }


def _alpha0_slot_solutions(n: int) -> set:
    """The n+1 head factors turning the 0-ary collapse into identity."""
    return {
        (i,) + tuple(v if v < i else v + 1 for v in range(1, n + 1))
        for i in range(1, n + 2)
    }


def certify_tw_ass(N: int) -> dict:
    """Certify the equivalence of the arity-capped twisted arrow
    category over the associative operad with the simplex category.

    Checks, exhaustively up to the cap: hom cardinalities are the
    binomials counting monotone maps; non-constant monotone maps
    correspond to the unique morphism with the run-grouping shape and
    constant ones to the head factors absorbing the source; the
    correspondence is functorial; every certified morphism satisfies
    the witness equation; and every object is linked to the standard
    multiplication of its arity by an invertible permutation arrow.
    """
    P = ass()
    mu = {n: (n, identity_values(n)) for n in range(N + 1)}

    phi: dict = {}
    hom_tables: dict = {}
    witness_checked = 0
    for m in range(N + 1):
        for n in range(N + 1):
            hom = tw_hom(P, mu[m], mu[n])
            if len(hom) != comb(m + n + 1, m + 1):
                raise CertificationError(
                    f"hom({m},{n}) has size {len(hom)}, expected binomial"
                )
            hom_tables[(m, n)] = hom
            by_shape = defaultdict(list)
            for tr in hom:
                by_shape[tr[2].f].append(tr)
            # witness equation: the untwisted composite must spell out
            # the fiber permutation of the shape
            for tr in hom:
                a = tr[2]
                filled = P.compose(mu[m][1], list(a.alphas))
                X = P.compose(
                    a.alpha0, [filled] + [P.unit() for _ in a.f.fiber(0)]
                )
                if X != sigma_f(a.f).values:
                    raise CertificationError(f"witness equation fails for {a!r}")
                witness_checked += 1
            for g in enumerate_monotone(m, n):
                f = iota(g)
                if g.is_constant():
                    v = g.values[0]
                    cands = [
                        tr
                        for tr in by_shape[f]
                        if tr[2].alpha0
                        == (v + 1,)
                        + tuple(w if w < v + 1 else w + 1 for w in range(1, n + 1))
                    ]
                    if len(cands) != 1:
                        raise CertificationError(
                            f"constant map {g!r} has no unique morphism"
                        )
                    phi[(m, n, g.values)] = cands[0]
                else:
                    if len(by_shape[f]) != 1:
                        raise CertificationError(
                            f"shape of {g!r} does not pin a unique morphism"
                        )
                    phi[(m, n, g.values)] = by_shape[f][0]
            # sanity: constant-shaped homs are exactly the head solutions
            zero_shape = PointedMap.const_zero(n, m)
            heads = {tr[2].alpha0 for tr in by_shape.get(zero_shape, ())}
            if heads != _alpha0_slot_solutions(n):
                raise CertificationError(
                    f"constant-shape heads wrong at ({m},{n})"
                )

    # every morphism is hit: phi is a bijection per (m, n)
    for (m, n), hom in hom_tables.items():
        imgs = {phi[(m, n, g.values)] for g in enumerate_monotone(m, n)}
        if len(imgs) != len(hom):
            raise CertificationError(f"correspondence not bijective at ({m},{n})")

    pairs = 0
    for l in range(N + 1):
        for m in range(N + 1):
            gs1 = enumerate_monotone(l, m)
            for n in range(N + 1):
                gs2 = enumerate_monotone(m, n)
                for g1 in gs1:
                    t1 = phi[(l, m, g1.values)]
                    for g2 in gs2:
                        t2 = phi[(m, n, g2.values)]
                        comp = g2.compose(g1)
                        expected = phi[(l, n, comp.values)]
                        got = ib_compose(P, t2[2], t1[2])
                        pairs += 1
                        if got != expected[2]:
                            raise CertificationError(
                                f"functoriality fails at {g1!r}, {g2!r}"
                            )

    links = 0
    for n in range(N + 1):
        seq = mono_seq(P, n)
        endos = enumerate_ib(P, seq, seq)
        for nu in P.level(n):
            tr = sigma_equivalence(P, mu[n], nu)
            if tr[1] != (n, nu):
                raise CertificationError(f"permutation arrow misses {nu!r}")
            if not _has_inverse_in(P, tr, endos):
                raise CertificationError(f"permutation arrow not invertible: {nu!r}")
            links += 1

    return {
        "objects": links,
        "hom_pairs": len(hom_tables),
        "witnesses": witness_checked,
        "functorial_pairs": pairs,
        "sigma_links": links,
    }
