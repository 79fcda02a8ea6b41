"""Composite products of symmetric collections and operadic towers.

Elements of a composite product ``M o N`` over a colored sequence are
equivalence classes of an outer M-operation together with an ordered
list of (block, N-element) pairs, the blocks partitioning the input
positions; reordering the list while twisting the outer operation gives
the same class.  Classes are stored as the lexicographically least
serialization over all reorderings, so equality is plain ``==``.

The same node shape (operation, ordered labeled pairs) drives three
constructions here:

* ``ProductCollection``: the full composite product, with an optional
  ``k_bound`` because a non-reduced inner collection admits arbitrarily
  many empty blocks;
* ``InfinitesimalCollection``: exactly one inner factor, every other
  slot a unit over a singleton; always finite;
* iterated self-composites of a reduced operad, stored as towers of
  uniform height, with the simplicial face and degeneracy maps.

``compose_blocks`` is the one place where grafting meets relabeling:
composing an outer operation with fillers indexed by disjoint sorted
label blocks, then renumbering the result by the sorted union.
"""

from __future__ import annotations

import itertools

from .operads import DiscreteOperad, SymCollection, perms

NODE = "nd"


def canonical_node(act_fn, theta, pairs: tuple):
    """Lex-least representative of the reordering class of (theta, pairs).

    ``pairs`` entries must already be canonical; ``act_fn`` is the right
    action twisting the outer operation.
    """
    k = len(pairs)
    if k <= 1:
        return (theta, tuple(pairs))
    best = None
    best_key = None
    for sigma in perms(k):
        cand = (act_fn(theta, sigma), tuple(pairs[sigma[r] - 1] for r in range(k)))
        key = repr(cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def compose_blocks(P: DiscreteOperad, theta, labeled_fillers):
    """Compose theta with fillers whose inputs carry disjoint labels.

    ``labeled_fillers`` is a list of (sorted label tuple, element) in
    slot order.  The raw composite lists inputs block-major; the result
    is twisted so its q-th input is the q-th smallest label overall.

    Results are memoized in ``P.blocks_memo`` under ``(theta, labeled
    fillers)``.  That is safe because the function is pure: operad
    elements and labels are immutable hashable values, and the result
    depends on nothing else.  An exception (an arity above a
    truncation) leaves no entry, so the same call raises again.  The
    memo lives as long as the operad; ``ass()`` and ``com()`` are
    process singletons, and at a fixed arity cap the distinct inputs
    are finitely many.
    """
    key = (theta, tuple(labeled_fillers))
    memo = P.blocks_memo
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _compose_blocks(P, theta, labeled_fillers)
    return hit


def _compose_blocks(P: DiscreteOperad, theta, labeled_fillers):
    """``compose_blocks`` without the memo."""
    raw = P.compose(theta, [psi for _, psi in labeled_fillers])
    flat: list[tuple] = []
    pos = 1
    for labels, _ in labeled_fillers:
        for lab in labels:
            flat.append((lab, pos))
            pos += 1
    flat.sort()
    rho = tuple(p for _, p in flat)
    return P.act(raw, rho)


def _relabel_perm(old_block: tuple, new_block: tuple, tau: tuple) -> tuple:
    """Permutation lambda with new_child = old_child ^ lambda.

    Position a of the new block corresponds to the label
    ``tau(new_block[a])`` sitting at some index of the old block.
    """
    index = {lab: i for i, lab in enumerate(old_block, start=1)}
    return tuple(index[tau[lab - 1]] for lab in new_block)


def _blocks_under(tau_inv_img: dict, block: tuple) -> tuple:
    return tuple(sorted(tau_inv_img[lab] for lab in block))


def _ordered_partitions(n: int, k: int, allow_empty: bool):
    """Ordered partitions of {1..n} into k blocks as tuples of sorted tuples."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for assign in itertools.product(range(k), repeat=n):
        blocks: list[list[int]] = [[] for _ in range(k)]
        for lab, slot in zip(range(1, n + 1), assign):
            blocks[slot].append(lab)
        if not allow_empty and any(not b for b in blocks):
            continue
        yield tuple(tuple(b) for b in blocks)


def is_reduced(N: SymCollection) -> bool:
    return all(not N.level((), c) for c in N.colors)


class ProductCollection(SymCollection):
    """The composite product of two collections on the same colors."""

    def __init__(self, M: SymCollection, N: SymCollection, k_bound: int | None = None):
        if tuple(M.colors) != tuple(N.colors):
            raise ValueError("composite product needs a shared color set")
        self.colors = tuple(M.colors)
        self.M = M
        self.N = N
        self.reduced_inner = is_reduced(N)
        if k_bound is None and not self.reduced_inner:
            mk = getattr(M, "truncation", None)
            if mk is None:
                raise ValueError(
                    "inner collection has 0-ary elements; pass k_bound to "
                    "cap the number of blocks"
                )
            k_bound = mk
        self.k_bound = k_bound
        self._levels: dict = {}

    def _k_range(self, n: int):
        if self.reduced_inner:
            hi = n if self.k_bound is None else min(n, self.k_bound)
            lo = 0 if n == 0 else 1
            return range(lo, hi + 1)
        return range(0, self.k_bound + 1)

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        key = (inputs, output)
        if key in self._levels:
            return self._levels[key]
        n = len(inputs)
        found = set()
        for k in self._k_range(n):
            for blocks in _ordered_partitions(n, k, not self.reduced_inner):
                block_colors = [tuple(inputs[j - 1] for j in B) for B in blocks]
                for mids in itertools.product(self.colors, repeat=k):
                    inner_levels = [
                        self.N.level(bc, b) for bc, b in zip(block_colors, mids)
                    ]
                    if any(not lv for lv in inner_levels):
                        continue
                    outer = self.M.level(mids, output)
                    for theta in outer:
                        for psis in itertools.product(*inner_levels):
                            pairs = tuple(zip(blocks, psis))
                            found.add(canonical_node(self.M.act, theta, pairs))
        out = tuple(sorted(found, key=repr))
        self._levels[key] = out
        return out

    def act(self, elem, sigma: tuple):
        theta, pairs = elem
        inv_img = {sigma[q - 1]: q for q in range(1, len(sigma) + 1)}
        new_pairs = []
        for block, psi in pairs:
            nb = _blocks_under(inv_img, block)
            lam = _relabel_perm(block, nb, sigma)
            new_pairs.append((nb, self.N.act(psi, lam)))
        return canonical_node(self.M.act, theta, tuple(new_pairs))


class InfinitesimalCollection(SymCollection):
    """One inner factor plus identity strands; finite for any inputs.

    Pairs carry a tag: ``("f", psi)`` for the single inner element,
    ``("u",)`` for a unit strand over a singleton.
    """

    def __init__(self, M: SymCollection, N: SymCollection):
        if tuple(M.colors) != tuple(N.colors):
            raise ValueError("infinitesimal composite needs a shared color set")
        self.colors = tuple(M.colors)
        self.M = M
        self.N = N
        self._levels: dict = {}

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        key = (inputs, output)
        if key in self._levels:
            return self._levels[key]
        n = len(inputs)
        labels = range(1, n + 1)
        found = set()
        for j in range(n + 1):
            for special in itertools.combinations(labels, j):
                rest = [a for a in labels if a not in special]
                k = 1 + len(rest)
                spec_colors = tuple(inputs[a - 1] for a in special)
                for mid in self.colors:
                    inner = self.N.level(spec_colors, mid)
                    if not inner:
                        continue
                    outer_inputs = (mid,) + tuple(inputs[a - 1] for a in rest)
                    for theta in self.M.level(outer_inputs, output):
                        for psi in inner:
                            pairs = ((special, ("f", psi)),) + tuple(
                                ((a,), ("u",)) for a in rest
                            )
                            found.add(canonical_node(self.M.act, theta, pairs))
        out = tuple(sorted(found, key=repr))
        self._levels[key] = out
        return out

    def act(self, elem, sigma: tuple):
        theta, pairs = elem
        inv_img = {sigma[q - 1]: q for q in range(1, len(sigma) + 1)}
        new_pairs = []
        for block, payload in pairs:
            nb = _blocks_under(inv_img, block)
            if payload[0] == "f":
                lam = _relabel_perm(block, nb, sigma)
                new_pairs.append((nb, ("f", self.N.act(payload[1], lam))))
            else:
                new_pairs.append((nb, payload))
        return canonical_node(self.M.act, theta, tuple(new_pairs))


def free_infinitesimal_bimodule(
    P: DiscreteOperad, M: SymCollection, k_bound: int | None = None
) -> InfinitesimalCollection:
    """Underlying collection of the free two-sided infinitesimal module
    on M: one M-over-P layer spliced into P along a single slot."""
    return InfinitesimalCollection(P, ProductCollection(M, P, k_bound=k_bound))


class SymmetrizedCollection(SymCollection):
    """Free symmetric collection on arity-indexed planar levels."""

    def __init__(self, planar_level, colors=None):
        if colors is not None:
            self.colors = tuple(colors)
        self.planar_level = planar_level
        self._levels: dict[int, tuple] = {}

    def level(self, inputs, output=None):
        inputs, output = self.resolve_seq(inputs, output)
        n = len(inputs)
        if n not in self._levels:
            self._levels[n] = tuple(
                (sigma, x) for x in self.planar_level(n) for sigma in perms(n)
            )
        return self._levels[n]

    def act(self, elem, sigma: tuple):
        theta, x = elem
        return (tuple(theta[s - 1] for s in sigma), x)


# -- iterated self-composite towers -------------------------------------


def is_node(t) -> bool:
    return isinstance(t, tuple) and len(t) == 3 and t[0] == NODE


def tower_height(t) -> int:
    h = 1
    while is_node(t):
        h += 1
        t = t[2][0][1]
    return h


def _require_reduced(P: DiscreteOperad):
    if P.level(0):
        raise ValueError(
            "towers over a non-reduced operad have infinitely many "
            "elements per level"
        )


def tower_levels(P: DiscreteOperad, height: int, n: int) -> tuple:
    """All canonical towers of the given uniform height and arity."""
    _require_reduced(P)
    return _tower_levels(P, height, n, {})


def _tower_levels(P, height, n, cache):
    key = (height, n)
    if key in cache:
        return cache[key]
    if height == 1:
        out = tuple(P.level(n))
    else:
        found = set()
        for k in range(1, n + 1):
            for blocks in _ordered_partitions(n, k, allow_empty=False):
                subs = [_tower_levels(P, height - 1, len(B), cache) for B in blocks]
                for theta in P.level(k):
                    for kids in itertools.product(*subs):
                        pairs = tuple(zip(blocks, kids))
                        node = canonical_node(P.act, theta, pairs)
                        found.add((NODE, node[0], node[1]))
        out = tuple(sorted(found, key=repr))
    cache[key] = out
    return out


def tower_face(P: DiscreteOperad, t, i: int):
    """Merge layers i+1 and i+2 of a tower (0-based face index)."""
    if not is_node(t):
        raise ValueError("face of a height-one tower")
    theta, pairs = t[1], t[2]
    if i > 0:
        new_pairs = tuple((B, tower_face(P, c, i - 1)) for B, c in pairs)
        node = canonical_node(P.act, theta, new_pairs)
        return (NODE, node[0], node[1])
    if not is_node(pairs[0][1]):
        # children are bare: graft and renumber by global labels
        return compose_blocks(P, theta, [(B, c) for B, c in pairs])
    new_theta = P.compose(theta, [c[1] for _, c in pairs])
    new_pairs = []
    for B, child in pairs:
        for C, U in child[2]:
            new_pairs.append((tuple(B[a - 1] for a in C), U))
    node = canonical_node(P.act, new_theta, tuple(new_pairs))
    return (NODE, node[0], node[1])


def tower_degeneracy(P: DiscreteOperad, t, i: int):
    """Insert a layer of unit strands between layers i+1 and i+2."""
    if not is_node(t):
        raise ValueError("degeneracy of a height-one tower")
    theta, pairs = t[1], t[2]
    if i > 0:
        new_pairs = tuple((B, tower_degeneracy(P, c, i - 1)) for B, c in pairs)
    else:
        u = P.unit()
        new_pairs = tuple(
            (B, (NODE, u, ((tuple(range(1, len(B) + 1)), c),))) for B, c in pairs
        )
    node = canonical_node(P.act, theta, new_pairs)
    return (NODE, node[0], node[1])
