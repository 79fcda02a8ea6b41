"""Discrete colored operads with finite levels.

An operad here is given by its sets of operations: for every tuple of
input colors and output color a finite, deterministically ordered level.
Elements are plain hashable values (tuples, strings) so that hot loops
stay cheap; permutations enter the API as raw value tuples
``(s(1), ..., s(n))`` rather than wrapper objects.

Conventions, fixed once and used by every module downstream:

* composition of value tuples is ``compose_values(s, t)(i) = s(t(i))``;
* the symmetric group acts on the right, ``(x^t)^s = x^(ts)``;
* for the associative operad a level-n element is a permutation ``s``
  read as the multiplication order ``s^{-1}(1), ..., s^{-1}(n)``; its
  composition then lands in closed form (see ``ass_compose``).

Operads provided: associative, commutative (both unital, one 0-ary
operation each), the unit operad on a color set, and the free reduced
symmetric operad on planar generators of arity >= 2.

Every operad carries ``blocks_memo``, the memo of
``products.compose_blocks``, the composition step under every encoded
arrow composite.  Keeping it is safe because:

* the memoized function is pure: its inputs are immutable hashable
  values (elements, label tuples) and nothing else enters the result;
* an error is never stored: a composite above a truncation raises
  ``ValueError`` on every call;
* it is finite: at a fixed arity cap only finitely many inputs exist
  (about 1,400 entries for ``ass()`` and 1,000 for ``com()`` after the
  certificates at arity 4);
* it lives exactly as long as the operad.  ``ass()`` and ``com()`` are
  process singletons, so their memos serve every request in a process.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

MONO_COLOR = "x"
LEAF = "L"
UNIT_ELEM = "1"


# -- raw permutation helpers ------------------------------------------


def compose_values(s: tuple, t: tuple) -> tuple:
    """(s . t)(i) = s(t(i)); both are value tuples on 1..n."""
    return tuple(s[v - 1] for v in t)


def invert_values(s: tuple) -> tuple:
    inv = [0] * len(s)
    for i, v in enumerate(s, start=1):
        inv[v - 1] = i
    return tuple(inv)


def perms(n: int):
    return itertools.permutations(range(1, n + 1))


def identity_values(n: int) -> tuple:
    return tuple(range(1, n + 1))


def block_permutation(sigma: tuple, arities: list | tuple) -> tuple:
    """The permutation moving blocks of the given sizes the way sigma
    moves their indices.

    Block j (1-based) occupies positions ``off_j+1 .. off_j+arities[j-1]``
    of the target; the i-th block slot of the source maps onto block
    ``sigma(i)`` preserving the inner order.
    """
    k = len(sigma)
    if len(arities) != k:
        raise ValueError("need one block size per index")
    off = [0]
    for a in arities:
        off.append(off[-1] + a)
    out: list[int] = []
    for i in range(1, k + 1):
        j = sigma[i - 1]
        out.extend(range(off[j - 1] + 1, off[j] + 1))
    return tuple(out)


def direct_sum_permutation(taus: list | tuple) -> tuple:
    out: list[int] = []
    shift = 0
    for t in taus:
        out.extend(shift + v for v in t)
        shift += len(t)
    return tuple(out)


# -- collections and operads ------------------------------------------


class SymCollection:
    """Finite levels indexed by colored sequences, with a right action.

    ``level`` accepts either ``(inputs, output)`` with color tuples or,
    for single-colored collections, a bare arity.
    """

    colors: tuple = (MONO_COLOR,)

    @property
    def single_colored(self) -> bool:
        return len(self.colors) == 1

    def resolve_seq(self, inputs, output=None) -> tuple[tuple, object]:
        if isinstance(inputs, int):
            if not self.single_colored:
                raise ValueError("bare arity only works for one color")
            c = self.colors[0]
            return (c,) * inputs, c
        if output is None:
            raise ValueError("output color required")
        known = set(self.colors)
        if output not in known or any(c not in known for c in inputs):
            raise ValueError("sequence uses colors this collection lacks")
        return tuple(inputs), output

    def level(self, inputs, output=None) -> tuple:
        raise NotImplementedError

    def act(self, elem, sigma: tuple):
        """Right action: act(act(e, t), s) == act(e, compose_values(t, s))."""
        raise NotImplementedError


class DiscreteOperad(SymCollection):
    # truncation None means every arity is available
    truncation: int | None = None

    @cached_property
    def blocks_memo(self) -> dict:
        """``products.compose_blocks`` results, kept for the operad's
        lifetime; see the module docstring for why this is safe."""
        return {}

    def unit(self, color=MONO_COLOR):
        raise NotImplementedError

    def compose(self, theta, fillers: list | tuple):
        """Full composition; fillers are listed in input-slot order."""
        raise NotImplementedError

    def partial_compose(self, theta, i: int, psi, k: int, input_colors=None):
        """Fill slot i (1-based) of a k-ary element, units elsewhere."""
        fillers = [
            self.unit(input_colors[j] if input_colors else self.colors[0])
            for j in range(k)
        ]
        fillers[i - 1] = psi
        return self.compose(theta, fillers)


class ComOperad(DiscreteOperad):
    """One operation in every arity, including zero."""

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        return ("*",)

    def unit(self, color=MONO_COLOR):
        return "*"

    def act(self, elem, sigma):
        return "*"

    def compose(self, theta, fillers):
        return "*"


def ass_compose(theta: tuple, psis: list | tuple) -> tuple:
    """Closed form for composition of multiplication orders.

    Inputs of filler i keep their relative order and land after all the
    inputs of fillers that multiply earlier, i.e. whose index j has
    theta(j) < theta(i).
    """
    k = len(theta)
    if len(psis) != k:
        raise ValueError("arity mismatch")
    start = [0] * k
    acc = 0
    for j in sorted(range(k), key=theta.__getitem__):
        start[j] = acc
        acc += len(psis[j])
    out: list[int] = []
    for i in range(k):
        s = start[i]
        out.extend(s + v for v in psis[i])
    return tuple(out)


class AssOperad(DiscreteOperad):
    """Level n is the symmetric group on n letters (so one 0-ary op)."""

    def __init__(self):
        self._levels: dict[int, tuple] = {}

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        n = len(inputs)
        if n not in self._levels:
            self._levels[n] = tuple(perms(n))
        return self._levels[n]

    def unit(self, color=MONO_COLOR):
        return (1,)

    def act(self, elem, sigma):
        return compose_values(elem, sigma)

    def compose(self, theta, fillers):
        return ass_compose(theta, fillers)


class UnitOperad(DiscreteOperad):
    """Only identity operations, one per color."""

    def __init__(self, colors=(MONO_COLOR,)):
        self.colors = tuple(colors)

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        if len(inputs) == 1 and inputs[0] == output:
            return (UNIT_ELEM,)
        return ()

    def unit(self, color=MONO_COLOR):
        return UNIT_ELEM

    def act(self, elem, sigma):
        return elem

    def compose(self, theta, fillers):
        if len(fillers) != 1:
            raise ValueError("unit operad is concentrated in arity one")
        return UNIT_ELEM


class _PlanarFree:
    """Planar trees over generators of fixed arities >= 2.

    A tree is the leaf marker or ``(name, child, ..., child)``; the
    arity of a tree is its number of leaves.
    """

    def __init__(self, generators: tuple[tuple[str, int], ...]):
        for name, a in generators:
            if a < 2:
                raise ValueError(
                    "generator arities must be >= 2 to keep levels finite"
                )
        self.generators = tuple(generators)
        self._levels: dict[int, tuple] = {}

    def level(self, n: int) -> tuple:
        if n < 0:
            return ()
        if n not in self._levels:
            out = []
            if n == 1:
                out.append(LEAF)
            for name, a in self.generators:
                if a > n:
                    continue
                for parts in _compositions(n, a):
                    for kids in itertools.product(*[self.level(p) for p in parts]):
                        out.append((name,) + kids)
            self._levels[n] = tuple(out)
        return self._levels[n]

    @staticmethod
    def arity(tree) -> int:
        if tree == LEAF:
            return 1
        return sum(_PlanarFree.arity(c) for c in tree[1:])

    @staticmethod
    def graft(tree, subs: list | tuple):
        it = iter(subs)
        out = _PlanarFree._graft(tree, it)
        try:
            next(it)
        except StopIteration:
            return out
        raise ValueError("too many subtrees")

    @staticmethod
    def _graft(tree, it):
        if tree == LEAF:
            return next(it)
        return (tree[0],) + tuple(_PlanarFree._graft(c, it) for c in tree[1:])


def _compositions(n: int, k: int):
    """Ordered tuples of k positive integers summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


class FreeReducedOperad(DiscreteOperad):
    """Free symmetric operad on planar generators, as pairs (perm, tree).

    The pair ``(s, t)`` stands for the planar tree t with its inputs
    re-routed by s, i.e. the image of t under the planar inclusion acted
    on by s.  The action only touches the permutation part; composition
    grafts trees in planar slot order and books the induced shuffle.
    """

    def __init__(self, generators=(("m", 2),), truncation: int = 4):
        self.planar = _PlanarFree(tuple(generators))
        self.truncation = truncation
        self._levels: dict[int, tuple] = {}

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        n = len(inputs)
        if self.truncation is not None and n > self.truncation:
            raise ValueError(f"arity {n} above truncation {self.truncation}")
        if n not in self._levels:
            self._levels[n] = tuple(
                (sigma, tree)
                for tree in self.planar.level(n)
                for sigma in perms(n)
            )
        return self._levels[n]

    def unit(self, color=MONO_COLOR):
        return ((1,), LEAF)

    def act(self, elem, sigma):
        theta, tree = elem
        return (compose_values(theta, sigma), tree)

    def compose(self, theta, fillers):
        perm, tree = theta
        k = len(perm)
        if len(fillers) != k:
            raise ValueError("arity mismatch")
        arities = [len(f[0]) for f in fillers]
        n = sum(arities)
        if self.truncation is not None and n > self.truncation:
            raise ValueError(f"composite arity {n} above truncation")
        inv = invert_values(perm)
        by_slot = [fillers[inv[q] - 1] for q in range(k)]
        grafted = self.planar.graft(tree, [f[1] for f in by_slot])
        inner = direct_sum_permutation([f[0] for f in by_slot])
        # the block sizes feeding the outer shuffle are indexed the way
        # the planar tree sees them, not the way the caller listed them
        outer = block_permutation(perm, [len(f[0]) for f in by_slot])
        return (compose_values(inner, outer), grafted)


# -- axiom checking ----------------------------------------------------


def _splits(total_max: int, k: int, min_arity: int):
    """All arity tuples of length k with entries >= min_arity, sum <= total_max."""
    if k == 0:
        yield ()
        return
    for first in range(min_arity, total_max - min_arity * (k - 1) + 1):
        for rest in _splits(total_max - first, k - 1, min_arity):
            yield (first,) + rest


def _min_arity(P: DiscreteOperad) -> int:
    return 0 if P.level(0) else 1


# check_operad_axioms reports at most this many failures
_MAX_FAILURES = 20


def check_operad_axioms(P: DiscreteOperad, max_arity: int):
    """Exhaustively exercise unit, associativity, and equivariance laws.

    Every instance whose operations all have arity <= max_arity is
    checked; returns a list of human-readable failures (empty = pass).
    Single-colored operads only.

    The suites ask for the same composite many times over (the inner
    composites of the associativity law recur for every outer
    operation), so compositions go through a memo that lives only for
    this call.  It changes no comparison: composition is a function of
    its arguments, so a wrong composite is returned, and compared,
    every time it is asked for.  An exception is never stored.
    """
    if not P.single_colored:
        raise ValueError("axiom checker handles single-colored operads")
    fails: list[str] = []

    def report(msg):
        if len(fails) < _MAX_FAILURES:
            fails.append(msg)

    memo: dict = {}

    def compose(theta, fillers):
        key = (theta, tuple(fillers))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = P.compose(theta, fillers)
        return hit

    u = P.unit()

    def partial_compose(theta, i, psi, k):
        fillers = [u] * k
        fillers[i - 1] = psi
        return compose(theta, fillers)

    m0 = _min_arity(P)

    for k in range(m0, max_arity + 1):
        for x in P.level(k):
            if compose(u, [x]) != x:
                report(f"left unit fails on {x!r}")
            if k >= 1 and compose(x, [u] * k) != x:
                report(f"right unit fails on {x!r}")

    # full associativity: composing in two stages agrees with composing
    # the pre-assembled fillers
    for k in range(m0, max_arity + 1):
        for ns in _splits(max_arity, k, m0):
            n_total = sum(ns)
            for x in P.level(k):
                for ys in itertools.product(*[P.level(n) for n in ns]):
                    xy = compose(x, ys)
                    for ms in _splits(max_arity, n_total, m0):
                        for zs in itertools.product(*[P.level(m) for m in ms]):
                            lhs = compose(xy, zs)
                            inner = []
                            pos = 0
                            for i, n in enumerate(ns):
                                inner.append(
                                    compose(ys[i], zs[pos : pos + n])
                                )
                                pos += n
                            rhs = compose(x, inner)
                            if lhs != rhs:
                                report(
                                    f"associativity fails: x={x!r} ys={ys!r} zs={zs!r}"
                                )

    # partial-composition shapes, nested and disjoint
    for k in range(max(1, m0), max_arity + 1):
        for n in range(m0, max_arity - k + 1 + 1):
            for m in range(m0, max_arity - k - n + 2 + 1):
                if k + n - 1 > max_arity or k + n + m - 2 > max_arity:
                    continue
                for x in P.level(k):
                    for y in P.level(n):
                        if n >= 1:
                            for i in range(1, k + 1):
                                xi_y = partial_compose(x, i, y, k)
                                for z in P.level(m):
                                    for j in range(1, n + 1):
                                        lhs = partial_compose(
                                            xi_y, i + j - 1, z, k + n - 1
                                        )
                                        rhs = partial_compose(
                                            x, i, partial_compose(y, j, z, n), k
                                        )
                                        if lhs != rhs:
                                            report(
                                                f"nested shape fails at i={i} j={j}"
                                            )
                        for z in P.level(m):
                            for i in range(1, k + 1):
                                for j in range(i + 1, k + 1):
                                    a = partial_compose(x, i, y, k)
                                    lhs = partial_compose(a, j + n - 1, z, k + n - 1)
                                    b = partial_compose(x, j, z, k)
                                    rhs = partial_compose(b, i, y, k + m - 1)
                                    if lhs != rhs:
                                        report(
                                            f"disjoint shape fails at i={i} j={j}"
                                        )

    # equivariance, outer and inner
    for k in range(m0, max_arity + 1):
        for ns in _splits(max_arity, k, m0):
            for x in P.level(k):
                for ys in itertools.product(*[P.level(n) for n in ns]):
                    base = compose(x, ys)
                    for sigma in perms(k):
                        lhs = compose(
                            P.act(x, sigma), [ys[sigma[i] - 1] for i in range(k)]
                        )
                        rhs = P.act(base, block_permutation(sigma, ns))
                        if lhs != rhs:
                            report(f"outer equivariance fails: sigma={sigma}")
                    for taus in itertools.product(*[perms(n) for n in ns]):
                        lhs = compose(
                            x, [P.act(y, t) for y, t in zip(ys, taus)]
                        )
                        rhs = P.act(base, direct_sum_permutation(taus))
                        if lhs != rhs:
                            report(f"inner equivariance fails: taus={taus}")
    return fails


@lru_cache(maxsize=None)
def ass() -> AssOperad:
    return AssOperad()


@lru_cache(maxsize=None)
def com() -> ComOperad:
    return ComOperad()
