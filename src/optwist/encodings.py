"""Arrow encodings over a discrete operad.

A morphism between colored sequences is a shape together with operadic
witnesses.  The full (unary) encoding ``Ib``: a pointed map f from the
target positions to the source positions, one component over each
nonempty source slot, and a head element absorbing the source output
and the positions f kills.  Acting on an operation theta of the source
sequence:

    act(alpha, theta) = (alpha_0 o_1 gamma(theta; alpha_1..alpha_n))
                        twisted back to target input order,

where the twist is the inverse of the permutation reading off the
fibers of f in target order (nonzero fibers first, killed positions
last).  Composition is associative and act is functorial; the tests
check the latter exhaustively on small arities, which is the strongest
correctness oracle this module has.

Restricted encodings are provided as enumerations plus inclusions into
the full one: shapes ranging over plain functions (no killed
positions and a trivial head), multi-source shapes (a head with one
input per source), and the permutation-shaped sub-encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .operads import DiscreteOperad
from .pointed import (
    PointedMap,
    _set_field,
    enumerate_pointed_maps,
    sigma_inv_values,
)
from .products import compose_blocks

Seq = tuple[tuple, object]  # (input colors, output color)


def mono_seq(P: DiscreteOperad, n: int) -> Seq:
    c = P.colors[0]
    return ((c,) * n, c)


@dataclass(frozen=True)
class IbMorphism:
    """source -> target arrow: shape f plus operadic witnesses.

    ``f`` maps target positions <m> to source positions <n> (pointed);
    ``alphas[i-1]`` lives over the i-th source slot with inputs the
    fiber of i in increasing order; ``alpha0`` has the source output as
    first input, then the killed target positions in increasing order.

    Calling ``IbMorphism(...)`` validates that the shape matches the
    sequences and that there is one component per source input; every
    arrow built from outside data or from enumeration goes through it
    (``enumerate_ib``, ``sigma_equivalence``, a serialized load,
    ``multi_to_ib``).  ``ib_compose`` alone builds its result trusted,
    because composition preserves both conditions (see its docstring).
    """

    source: Seq
    target: Seq
    f: PointedMap
    alpha0: object
    alphas: tuple

    def __post_init__(self):
        n, m = len(self.source[0]), len(self.target[0])
        if (self.f.n, self.f.m) != (m, n):
            raise ValueError("shape does not match the sequences")
        if len(self.alphas) != n:
            raise ValueError("need one component per source input")

    @cached_property
    def _sigma_inv(self) -> tuple:
        """Twist used by ``act``; computed on first use and kept on the
        instance, outside the fields, so equality and hashing ignore it."""
        return sigma_inv_values(self.f)


def _zero_fiber_colors(alpha_target: Seq, f: PointedMap) -> tuple:
    d = alpha_target[0]
    return tuple(d[j - 1] for j in f.fiber(0))


def ib_identity(P: DiscreteOperad, seq: Seq) -> IbMorphism:
    inputs, out = seq
    n = len(inputs)
    return IbMorphism(
        seq,
        seq,
        PointedMap.identity(n),
        P.unit(out),
        tuple(P.unit(c) for c in inputs),
    )


def act(P: DiscreteOperad, alpha: IbMorphism, theta):
    """Transport an operation of the source sequence along alpha."""
    filled = P.compose(theta, list(alpha.alphas))
    tail = [P.unit(c) for c in _zero_fiber_colors(alpha.target, alpha.f)]
    X = P.compose(alpha.alpha0, [filled] + tail)
    return P.act(X, alpha._sigma_inv)


def ib_compose(P: DiscreteOperad, beta: IbMorphism, alpha: IbMorphism) -> IbMorphism:
    """beta after alpha; shapes compose the other way around.

    The result is built without re-running ``IbMorphism``'s checks; it
    satisfies them by construction.  Say alpha is ``S -> T`` and beta is
    ``T -> U`` (``alpha.target == beta.source`` is checked here).  Then
    ``alpha.f`` is ``<|T|> -> <|S|>`` and ``beta.f`` is ``<|U|> ->
    <|T|>``, so ``f = alpha.f . beta.f`` is ``<|U|> -> <|S|>``: the
    shape of an arrow ``S -> U``.  ``gammas`` has one entry per
    component of alpha, and alpha has one per input of S.
    """
    if alpha.target != beta.source:
        raise ValueError("morphisms are not composable")
    fa, fb = alpha.f, beta.f
    fib_a, fib_b = fa.fibers, fb.fibers
    b_alphas = beta.alphas
    gammas = tuple(
        compose_blocks(
            P, a_i, [(fib_b[j], b_alphas[j - 1]) for j in fib_a[i]]
        )
        for i, a_i in enumerate(alpha.alphas, start=1)
    )
    # head: expand alpha's killed slots through beta, then absorb the
    # slots beta kills outright; synthetic labels keep the head input
    # first and the killed target positions sorted
    c_src = alpha.source[1]
    inner_labeled = [(((-1, 0),), P.unit(c_src))]
    for j in fib_a[0]:
        inner_labeled.append(
            (tuple((0, s) for s in fib_b[j]), b_alphas[j - 1])
        )
    inner = compose_blocks(P, alpha.alpha0, inner_labeled)
    inner_labels = tuple(
        sorted(lab for labs, _ in inner_labeled for lab in labs)
    )
    d_tgt = beta.target[0]
    head_labeled = [(inner_labels, inner)] + [
        (((0, t),), P.unit(d_tgt[t - 1])) for t in fib_b[0]
    ]
    out = object.__new__(IbMorphism)
    _set_field(out, "source", alpha.source)
    _set_field(out, "target", beta.target)
    _set_field(out, "f", fa.compose(fb))
    _set_field(out, "alpha0", compose_blocks(P, beta.alpha0, head_labeled))
    _set_field(out, "alphas", gammas)
    return out


def enumerate_ib(P: DiscreteOperad, src: Seq, tgt: Seq) -> list[IbMorphism]:
    """Every morphism src -> tgt, ordered by shape then witnesses."""
    (c_in, c_out), (d_in, d_out) = src, tgt
    n, m = len(c_in), len(d_in)
    out = []
    for f in enumerate_pointed_maps(m, n):
        comp_levels = []
        for i in range(1, n + 1):
            fib_colors = tuple(d_in[j - 1] for j in f.fiber(i))
            comp_levels.append(P.level(fib_colors, c_in[i - 1]))
        if any(not lv for lv in comp_levels):
            continue
        head_level = P.level((c_out,) + _zero_fiber_colors(tgt, f), d_out)
        for alpha0 in head_level:
            for alphas in itertools.product(*comp_levels):
                out.append(IbMorphism(src, tgt, f, alpha0, alphas))
    return out


# -- restricted encodings ----------------------------------------------


def enumerate_r(P: DiscreteOperad, src: Seq, tgt: Seq) -> list[IbMorphism]:
    """Shapes that are plain functions on positions, trivial head.

    Only defined between sequences with the same output color; the
    inclusion into the full encoding fills the head with a unit.
    """
    if src[1] != tgt[1]:
        return []
    base = enumerate_ib(P, src, tgt)
    unit = P.unit(src[1])
    return [
        a
        for a in base
        if not a.f.fiber(0) and a.alpha0 == unit
    ]


@dataclass(frozen=True)
class MultiMorphism:
    """Arrow with several source sequences feeding one head factor.

    ``f`` maps target positions to the concatenated source positions;
    the head has one input per source output, then the killed
    positions.  The unary case embeds into the full encoding as is.
    """

    sources: tuple[Seq, ...]
    target: Seq
    f: PointedMap
    alpha0: object
    alphas: tuple

    def __post_init__(self):
        total = sum(len(s[0]) for s in self.sources)
        if (self.f.n, self.f.m) != (len(self.target[0]), total):
            raise ValueError("shape does not match the sequences")


def enumerate_b_under(
    P: DiscreteOperad, sources: tuple[Seq, ...], tgt: Seq
) -> list[MultiMorphism]:
    flat_in = tuple(c for s in sources for c in s[0])
    heads = tuple(s[1] for s in sources)
    d_in, d_out = tgt
    n, m = len(flat_in), len(d_in)
    out = []
    for f in enumerate_pointed_maps(m, n):
        comp_levels = []
        for i in range(1, n + 1):
            fib_colors = tuple(d_in[j - 1] for j in f.fiber(i))
            comp_levels.append(P.level(fib_colors, flat_in[i - 1]))
        if any(not lv for lv in comp_levels):
            continue
        head_level = P.level(heads + _zero_fiber_colors(tgt, f), d_out)
        for alpha0 in head_level:
            for alphas in itertools.product(*comp_levels):
                out.append(MultiMorphism(sources, tgt, f, alpha0, alphas))
    return out


def enumerate_b(
    P: DiscreteOperad, sources: tuple[Seq, ...], tgt: Seq
) -> list[MultiMorphism]:
    """Multi-source arrows whose shape kills nothing."""
    return [a for a in enumerate_b_under(P, sources, tgt) if not a.f.fiber(0)]


def enumerate_l(
    P: DiscreteOperad, sources: tuple[Seq, ...], tgt: Seq
) -> list[MultiMorphism]:
    """Permutation-shaped arrows: bijective shape, unit components."""
    out = []
    for a in enumerate_b(P, sources, tgt):
        if not a.f.is_bijective():
            continue
        flat_in = tuple(c for s in sources for c in s[0])
        if all(
            comp == P.unit(flat_in[i]) for i, comp in enumerate(a.alphas)
        ):
            out.append(a)
    return out


def multi_to_ib(m: MultiMorphism) -> IbMorphism:
    if len(m.sources) != 1:
        raise ValueError("only unary multi-arrows embed into the full encoding")
    return IbMorphism(m.sources[0], m.target, m.f, m.alpha0, m.alphas)
