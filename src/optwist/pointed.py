"""Pointed finite sets, permutations, and the simplex category.

The three raw combinatorial currencies used everywhere else:

* ``PointedMap``: a basepoint-preserving map ``<n> -> <m>`` where
  ``<n> = {0, 1, ..., n}`` with basepoint 0.  Only the values on
  ``1..n`` are stored; ``f(0) = 0`` is implicit.
* ``Permutation``: an element of the symmetric group on ``{1..n}``,
  stored as the value tuple ``(s(1), ..., s(n))``.
* ``MonotoneMap``: a weakly increasing map ``[m] -> [n]`` between the
  finite ordinals ``[m] = {0 < 1 < ... < m}``.

``iota`` is the functor from the simplex category into the opposite of
pointed sets, sending a monotone map to the pointed map that groups
consecutive runs of fibers.  ``in_iota_image`` decides membership in its
image and reconstructs the unique monotone preimage of a non-constant
pointed map.

>>> f = PointedMap(2, 1, (1, 1))
>>> fiber_sequence(f)
((1, 2),)
>>> sigma_f(f)
Permutation((1, 2))
>>> iota(MonotoneMap(1, 2, (0, 2)))
PointedMap(2, 1, (1, 1))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb


# Sets a field of a frozen dataclass, as its generated __init__ does.
# Setting the fields one by one (not through ``__dict__.update``) keeps
# the instance dict as compact as one built by ``__init__``.
_set_field = object.__setattr__


@dataclass(frozen=True)
class PointedMap:
    """Basepoint-preserving map ``<n> -> <m>``, f(0) = 0 implicit.

    ``values[i-1]`` is ``f(i)`` for ``i = 1..n``; each value lies in
    ``0..m``.
    """

    n: int
    m: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ValueError("length of values must equal source arity n")
        if any(v < 0 or v > self.m for v in self.values):
            raise ValueError("values must lie in 0..m")

    def __call__(self, i: int) -> int:
        if i == 0:
            return 0
        return self.values[i - 1]

    def compose(self, other: "PointedMap") -> "PointedMap":
        """self after other: ``<k> -> <n> -> <m>``.

        The composite is built without re-running the checks of
        ``__post_init__``; it satisfies them by construction.  other has
        k values, each in ``0..n``, so the composite has k values, the
        source arity it claims.  Each value is ``self(v)`` for some v in
        ``0..n``, which is 0 or a value of self, so it lies in ``0..m``.
        Only the composability of the pair is checked here.
        """
        if other.m != self.n:
            raise ValueError("maps not composable")
        table = (0,) + self.values
        out = object.__new__(PointedMap)
        _set_field(out, "n", other.n)
        _set_field(out, "m", self.m)
        _set_field(out, "values", tuple(table[v] for v in other.values))
        return out

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """``fibers[i]`` is the sorted fiber of i, for ``i = 0..m``.

        Built in one pass over the values on first use and kept on the
        instance (outside the dataclass fields, so equality and hashing
        do not see it).
        """
        blocks: list[list[int]] = [[] for _ in range(self.m + 1)]
        for j, v in enumerate(self.values, start=1):
            blocks[v].append(j)
        return tuple(map(tuple, blocks))

    def fiber(self, i: int) -> tuple[int, ...]:
        """Elements of ``1..n`` sent to i (basepoint excluded for i = 0)."""
        return self.fibers[i]

    def is_bijective(self) -> bool:
        return self.n == self.m and sorted(self.values) == list(range(1, self.m + 1))

    def is_constant_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    @staticmethod
    def identity(n: int) -> "PointedMap":
        return PointedMap(n, n, tuple(range(1, n + 1)))

    @staticmethod
    def const_zero(n: int, m: int) -> "PointedMap":
        return PointedMap(n, m, (0,) * n)

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "values": list(self.values)}

    @staticmethod
    def from_json(data: dict) -> "PointedMap":
        return PointedMap(int(data["n"]), int(data["m"]), tuple(data["values"]))


@dataclass(frozen=True)
class Permutation:
    """Permutation of ``{1..n}`` as the value tuple ``(s(1), ..., s(n))``."""

    values: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.values) != list(range(1, len(self.values) + 1)):
            raise ValueError("not a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: i -> self(other(i))."""
        if other.n != self.n:
            raise ValueError("sizes differ")
        return Permutation(tuple(self.values[v - 1] for v in other.values))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    def to_pointed(self) -> PointedMap:
        return PointedMap(self.n, self.n, self.values)

    def to_json(self) -> dict:
        return {"values": list(self.values)}

    @staticmethod
    def from_json(data: dict) -> "Permutation":
        return Permutation(tuple(data["values"]))


@dataclass(frozen=True)
class MonotoneMap:
    """Weakly increasing map ``[m] -> [n]``; values has length m+1."""

    m: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.m + 1:
            raise ValueError("length of values must be m+1")
        if any(v < 0 or v > self.n for v in self.values):
            raise ValueError("values must lie in 0..n")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be weakly increasing")

    def __call__(self, i: int) -> int:
        return self.values[i]

    def compose(self, other: "MonotoneMap") -> "MonotoneMap":
        """self after other: ``[l] -> [m] -> [n]``.

        The composite is built without re-running the checks of
        ``__post_init__``; it satisfies them by construction.  other has
        l+1 values, each in ``0..m``, so the composite has l+1 values,
        each a value of self and so in ``0..n``.  If ``a <= b`` are
        consecutive values of other, then ``self(a) <= self(b)`` because
        self is weakly increasing, so the composite is weakly increasing
        too.  Only the composability of the pair is checked here.
        """
        if other.n != self.m:
            raise ValueError("maps not composable")
        values = self.values
        out = object.__new__(MonotoneMap)
        _set_field(out, "m", other.m)
        _set_field(out, "n", self.n)
        _set_field(out, "values", tuple(values[v] for v in other.values))
        return out

    def is_constant(self) -> bool:
        return self.values[0] == self.values[-1]

    @staticmethod
    def identity(n: int) -> "MonotoneMap":
        return MonotoneMap(n, n, tuple(range(n + 1)))

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "values": list(self.values)}

    @staticmethod
    def from_json(data: dict) -> "MonotoneMap":
        return MonotoneMap(int(data["m"]), int(data["n"]), tuple(data["values"]))


def enumerate_pointed_maps(n: int, m: int) -> list[PointedMap]:
    """All ``(m+1)^n`` pointed maps ``<n> -> <m>``, ordered by value tuple."""
    return [PointedMap(n, m, vals) for vals in itertools.product(range(m + 1), repeat=n)]


def enumerate_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def enumerate_monotone(m: int, n: int) -> list[MonotoneMap]:
    """All monotone maps ``[m] -> [n]``; there are C(m+n+1, m+1) of them."""
    out = [
        MonotoneMap(m, n, vals)
        for vals in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]
    assert len(out) == comb(m + n + 1, m + 1)
    return out


def fiber_sequence(f: PointedMap) -> tuple[tuple[int, ...], ...]:
    """Blocks ``f^{-1}(1), ..., f^{-1}(m), f^{-1}(0) - {0}``, each sorted.

    Concatenating the blocks reads off a permutation of ``1..n``.
    """
    return f.fibers[1:] + f.fibers[:1]


def sigma_f(f: PointedMap) -> Permutation:
    """The permutation spelled by the concatenated fiber blocks of f.

    The nonzero fibers come first in target order, then the non-basepoint
    part of the zero fiber; a constant-zero map therefore yields the
    identity.
    """
    flat: list[int] = []
    for block in fiber_sequence(f):
        flat.extend(block)
    return Permutation(tuple(flat))


@lru_cache(maxsize=None)
def sigma_inv_values(f: PointedMap) -> tuple[int, ...]:
    """Value tuple of ``sigma_f(f).inverse()``, computed once per map.

    Keyed by the map's value (a pure function of immutable data); the
    maps seen in one process are bounded by the arities it works at.
    """
    return sigma_f(f).inverse().values


def iota(g: MonotoneMap) -> PointedMap:
    """Pointed map ``<n> -> <m>`` attached to a monotone ``g: [m] -> [n]``.

    Write g's distinct values as ``j_1 < ... < j_k`` with fiber sizes
    ``p_1, ..., p_k``.  The elements ``j_r + 1 .. j_{r+1}`` of ``<n>`` are
    sent to ``p_1 + ... + p_r`` for ``r < k``; everything else goes to the
    basepoint.  Constant maps all land on the constant-zero pointed map;
    contravariantly this is functorial: ``iota(g2 . g1) =
    iota(g1) . iota(g2)``.
    """
    m, n = g.m, g.n
    dist: list[int] = []
    sizes: list[int] = []
    for v in g.values:
        if dist and dist[-1] == v:
            sizes[-1] += 1
        else:
            dist.append(v)
            sizes.append(1)
    values = [0] * n
    acc = 0
    for r in range(len(dist) - 1):
        acc += sizes[r]
        for j in range(dist[r] + 1, dist[r + 1] + 1):
            values[j - 1] = acc
    return PointedMap(n, m, tuple(values))


def in_iota_image(f: PointedMap) -> tuple[bool, MonotoneMap | None]:
    """Decide whether f lies in the image of ``iota``.

    Membership holds exactly when the concatenation of the nonzero fiber
    blocks is empty or a run of consecutive naturals.  For non-constant f
    the monotone preimage is unique and returned; for the constant-zero
    map (preimage any constant map) None is returned alongside True.
    """
    nonzero = [(v, f.fiber(v)) for v in range(1, f.m + 1) if f.fiber(v)]
    flat: list[int] = []
    for _, block in nonzero:
        flat.extend(block)
    if not flat:
        return f.is_constant_zero(), None
    if flat != list(range(flat[0], flat[0] + len(flat))):
        return False, None
    # reconstruct: fiber over value v_r has size v_r - v_{r-1}; the r'th
    # distinct value of the preimage is the right endpoint of block r-1
    values: list[int] = []
    prev_v = 0
    j = flat[0] - 1
    for v, block in nonzero:
        values.extend([j] * (v - prev_v))
        prev_v = v
        j = block[-1]
    values.extend([j] * (f.m + 1 - prev_v))
    return True, MonotoneMap(f.m, f.n, tuple(values))
