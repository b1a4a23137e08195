"""Commuting tuples of p-power-order elements and the class counts they predict.

For a finite group G, a prime p, and n >= 0, the basic object is the set of
n-tuples of pairwise commuting elements whose orders are powers of p, each a
plain tuple of Permutations.  The group acts by simultaneous conjugation; the
number of orbits is the rank prediction attached to (G, p, n).  The same
number is computed along several independent routes (explicit orbits, the
centralizer descent, and for symmetric groups a purely combinatorial count),
which the test suite plays against each other.  The descent also counts the
tuples, so a listing is refused by its size before it starts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import product as iter_product

from .errors import CapExceeded
from .groupcore import (
    FiniteGroup,
    Permutation,
    _p_power_class_indices,
    _unit_generators,
    centralizer,
    class_index,
    class_orders,
    conjugacy_classes,
    orbit_search,
)
from .primality import capped_power, p_part, rref_mod

__all__ = [
    "TupleClass",
    "is_p_power_order",
    "p_power_elements",
    "hom_tuples",
    "tuple_classes",
    "rank_prediction",
    "gl_matrices",
    "gl_mul",
    "evaluate",
    "apply_matrix",
    "gl_action_orbits",
    "zpn_set_count",
    "subgroup_count",
    "hnf_open_subgroup_count",
    "DEFAULT_WORK_CAP",
]

DEFAULT_WORK_CAP = 4_000_000  # tuple entries
DEFAULT_SUBGROUP_CAP = 1_000_000
DEFAULT_GL_CAP = 1_000_000
_RANK_CAP = 10**4300


def is_p_power_order(g: Permutation, p: int) -> bool:
    """True if the order of g is a power of p."""
    order = g.order()
    return p_part(order, p) == order


def p_power_elements(G: FiniteGroup, p: int) -> list[Permutation]:
    """Elements of p-power order, in the canonical element order."""
    key = ("ppow", p)
    got = G._cache.get(key)
    if got is None:
        if p_part(G.order, p) == G.order:
            # Lagrange: in a p-group every element order is a p-power.
            got = list(G.elements)
        elif G.is_abelian():  # the classes are the elements, in element order
            classes = conjugacy_classes(G)
            got = [classes[k].representative for k in _p_power_class_indices(G, p)]
        else:
            keep, loc = set(_p_power_class_indices(G, p)), class_index(G)
            got = [g for g in G.elements if loc[g.images] in keep]
        G._cache[key] = got
    return got


class TupleClass(namedtuple("TupleClass", "representative size")):
    """A simultaneous-conjugation class of commuting tuples."""

    __slots__ = ()


def _descend(G: FiniteGroup, p: int, n: int, tuples: bool, limit: int) -> int:
    """v_n(G) for n >= 1, where v_0 = 1 and v_j(H) sums w * v_{j-1}(C_H(g))
    over the p-power classes [g] of H: w = |[g]| counts tuples, w = 1 classes.

    G's centralizer descent at p is kept on G.  Its nodes are the distinct
    subgroups C_H(g), keyed by their element images; a node's edges map each
    node it reaches to [number of classes [g] leading there, sum of their
    sizes], and an abelian node is a leaf whose one edge is a loop.  Nodes
    within n - 1 steps of G are built breadth first.  Level j is taken at the
    nodes within n - j steps, where v_j is at most v_n(G), so the first value
    to reach limit is returned at once, as a lower bound.
    """
    if len(_p_power_class_indices(G, p)) == 1:
        return 1  # G_p is trivial: one tuple, one class, at every n
    descent = G._cache.get(("descent", p))
    if descent is None:
        descent = G._cache["descent", p] = ([G], {tuple(g.images for g in G.elements): 0}, [None])
    groups, index, edges = descent
    order, depth, values, w = [0], {0: 0}, {}, 1 if tuples else 0  # w: the weight's place in an edge
    for i in order:  # order grows as it is walked
        H = groups[i]
        classes, idx = conjugacy_classes(H), _p_power_class_indices(H, p)
        values[i] = sum(classes[k].size for k in idx) if tuples else len(idx)
        if depth[i] >= n - 1:
            continue
        if edges[i] is None:
            edges[i] = {i: [len(idx), len(idx)]} if H.is_abelian() else {}
            for k in () if edges[i] else idx:
                C = centralizer(H, [classes[k].representative])
                j = index.setdefault(tuple(g.images for g in C.elements), len(groups))
                if j == len(groups):
                    groups.append(C)
                    edges.append(None)
                edge = edges[i].setdefault(j, [0, 0])
                edge[0], edge[1] = edge[0] + 1, edge[1] + classes[k].size
        for j in edges[i]:
            if j not in depth:
                depth[j] = depth[i] + 1
                order.append(j)
    for level in range(2, n + 1):
        if max(values.values()) >= limit:
            return max(values.values())
        values = {i: sum(e[w] * values[j] for j, e in edges[i].items()) for i in order if depth[i] <= n - level}
    return values[0]


def hom_tuples(G: FiniteGroup, p: int, n: int) -> list[tuple]:
    """All commuting n-tuples of p-power-order elements, lexicographically ordered.

    Their number N_n is read off the centralizer descent first, and the call
    is refused when its N_n * n entries would pass the work cap.  The tuples then
    grow one entry per level; the pool for the next entry is the p-power part
    of the prefix's centralizer, and each distinct pool is narrowed by each
    of its members once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [()]
    if _descend(G, p, n, True, DEFAULT_WORK_CAP // n + 1) > DEFAULT_WORK_CAP // n:
        raise CapExceeded(f"commuting {n}-tuples hold more than {DEFAULT_WORK_CAP} entries, past the work cap")
    pool = tuple(p_power_elements(G, p))
    if len(pool) == 1:  # the one tuple, without n growing copies of its prefix
        return [pool * n]
    pools = {pool: pool}  # each distinct pool, once
    narrowed = {}  # (id of a pool, g) -> the pool after a prefix ending in g
    level = [((), pool)]
    for _ in range(n - 1):
        grown = []
        for prefix, pool in level:
            for g in pool:
                sub = narrowed.get((id(pool), g))
                if sub is None:
                    sub = tuple(h for h in pool if h * g == g * h)
                    sub = narrowed[id(pool), g] = pools.setdefault(sub, sub)
                grown.append((prefix + (g,), sub))
        level = grown
    return [prefix + (g,) for prefix, pool in level for g in pool]


def _conjugate_entries(entries: tuple, s: Permutation) -> tuple:
    return tuple(e.conjugate_by(s) for e in entries)


def _indexed_tuple_classes(G: FiniteGroup, p: int, n: int):
    """Tuple classes in canonical order, and a map from every member tuple to
    the position of its class."""
    tuples = hom_tuples(G, p, n)
    if G.is_abelian():
        orbits = [[t] for t in tuples]
    else:
        orbits = orbit_search(tuples, G.generators, _conjugate_entries)
    orbits.sort(key=lambda members: (len(members), [g.images for g in members[0]]))
    classes = []
    member_class = {}
    for idx, members in enumerate(orbits):
        classes.append(TupleClass(members[0], len(members)))
        for m in members:
            member_class[m] = idx
    return classes, member_class


def tuple_classes(G: FiniteGroup, p: int, n: int) -> list[TupleClass]:
    """Conjugation classes of commuting tuples, canonically ordered.

    Classes are ordered by (size, least member); the representative is the
    least member.
    """
    return _indexed_tuple_classes(G, p, n)[0]


def rank_prediction(G: FiniteGroup, p: int, n: int) -> int:
    """Number of conjugation classes of commuting p-power n-tuples.

    Computed by peeling one entry at a time: classes of n-tuples correspond to
    pairs (conjugacy class of a p-power element g, class of an (n-1)-tuple in
    the centralizer of g), which the centralizer descent iterates level by
    level.  This agrees with len(tuple_classes(G, p, n)) but stays cheap when
    the tuple set itself would be large.  An abelian G has |G_p|^n classes;
    every rank is refused before it reaches 10^4300, past which its digits
    would not print.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    if G.is_abelian():
        size = len(p_power_elements(G, p))
        rank = capped_power(size, n, _RANK_CAP)
        if rank >= _RANK_CAP:  # more digits than Python prints
            raise CapExceeded(f"rank {size}^{n} exceeds cap 10^4300")
        return rank
    if n == 1:
        return len(_p_power_class_indices(G, p))
    rank = _descend(G, p, n, False, _RANK_CAP)
    if rank >= _RANK_CAP:
        raise CapExceeded(f"rank at n = {n} exceeds cap 10^4300")
    return rank


def gl_matrices(p: int, n: int, k: int) -> list[tuple]:
    """All of GL_n(Z/p^k) as tuples of rows, lexicographic in the flattened
    entries; a matrix over Z/p^k is invertible when it is invertible mod p,
    and over Z/1 (k = 0) the one matrix, zero, is the identity.  Each matrix
    mod p is decided once, by its flat residues.  The (p^k)^(n^2) candidates
    are checked against DEFAULT_GL_CAP first; at n = 0 a level past the cap
    passes, only partly built, and lists the one empty matrix."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mod = capped_power(p, k, DEFAULT_GL_CAP)
    if capped_power(mod, n * n, DEFAULT_GL_CAP) > DEFAULT_GL_CAP:
        raise CapExceeded(f"GL enumeration size ({p}^{k})^{n * n} exceeds cap {DEFAULT_GL_CAP}")
    residue = [x % p for x in range(mod)].__getitem__
    invertible: dict[tuple[int, ...], bool] = {}
    out = []
    for flat in iter_product(range(mod), repeat=n * n):
        key = tuple(map(residue, flat))
        ok = invertible.get(key)
        if ok is None:
            rows = [key[i * n : (i + 1) * n] for i in range(n)]
            ok = invertible[key] = mod == 1 or len(rref_mod(rows, p)[1]) == n
        if ok:
            out.append(tuple(flat[i * n : (i + 1) * n] for i in range(n)))
    return out


def gl_mul(a: tuple, b: tuple, mod: int) -> tuple:
    """The product a b of two square matrices over Z/mod, as a tuple of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b)) for row in a)


def evaluate(entries: tuple, exponents, identity: Permutation) -> Permutation:
    """prod_j entries[j] ** exponents[j]; the entries commute, so the order
    of the factors does not matter."""
    acc = identity
    for g, e in zip(entries, exponents):
        if e:
            acc = acc * g**e
    return acc


def apply_matrix(t: tuple, sigma: tuple, identity: Permutation) -> tuple:
    """Precompose a tuple with a matrix given as a tuple of rows: entry i of
    the result is prod_j g_j ** sigma[j][i] (the column convention)."""
    if len(t) != len(sigma):
        raise ValueError("matrix size does not match tuple length")
    return tuple(evaluate(t, column, identity) for column in zip(*sigma))


def gl_action_orbits(G: FiniteGroup, p: int, n: int, k: int) -> list[list[TupleClass]]:
    """Orbits of GL_n(Z/p^k) on the conjugation classes of commuting tuples.

    Requires p^k to annihilate every tuple entry (the exponents live in Z/p^k).
    Every entry's order divides e, the largest order of a p-power element, so
    the action factors through GL_n(Z/e), onto which GL_n(Z/p^k) maps.  Over
    the local ring Z/e that group is generated by the entry permutations (the
    swap of t_0 and t_1, and the rotation), the transvection t_0 -> t_0 t_1,
    and t_0 -> t_0^u for generators u of the units mod e.  Each moves a tuple
    in O(n), with no matrix; orbit_search runs them over class indices, at
    most 3 + #units moves per class, so the tuple work cap bounds the call.
    Orbits are lists of TupleClass values; both layers are canonically ordered.
    """
    worst = max(map(class_orders(G).__getitem__, _p_power_class_indices(G, p)))
    mod = capped_power(p, k, worst)  # exact up to worst, a power of p
    if mod % worst != 0:
        raise ValueError(
            f"p^k = {mod} does not annihilate all p-power elements (max order {worst})"
        )
    units = _unit_generators((u for u in range(2, worst) if u % p), worst) if n >= 1 else []
    moves = [lambda t, u=u: (t[0] ** u, *t[1:]) for u in units]
    if n >= 2:
        moves += [lambda t: (t[1], t[0], *t[2:]), lambda t: (*t[1:], t[0]), lambda t: (t[0] * t[1], *t[1:])]
    classes, member_class = _indexed_tuple_classes(G, p, n)
    orbits = orbit_search(
        range(len(classes)), moves, lambda c, move: member_class[move(classes[c].representative)]
    )
    return [[classes[c] for c in orbit] for orbit in orbits]


def subgroup_count(p: int, n: int, k: int) -> int:
    """Number of subgroups of order p^k in (Z/p^k)^n, by exhaustive enumeration.

    Subgroups are grown one index-p layer at a time: every subgroup of order
    p^(j+1) arises from one of order p^j by adjoining an element x with
    p*x inside it.  Each extension is built once: an x inside an extension of
    H found earlier generates that same extension over H, because the index
    is the prime p.  Each scanned pair (H, x) is charged to a work budget of
    DEFAULT_SUBGROUP_CAP, which is checked before each subgroup's scan.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    if k == 0 or n == 0:
        return 1 if k == 0 else 0
    mod = capped_power(p, k, DEFAULT_SUBGROUP_CAP)
    if capped_power(mod, n, DEFAULT_SUBGROUP_CAP) > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"ambient group size ({p}^{k})^{n} exceeds cap {DEFAULT_SUBGROUP_CAP}")
    ambient = list(iter_product(range(mod), repeat=n))
    zero = (0,) * n
    level = {frozenset([zero])}
    budget = DEFAULT_SUBGROUP_CAP
    for _ in range(k):
        nxt = set()
        for H in level:
            budget -= len(ambient)
            if budget < 0:
                raise CapExceeded(f"subgroup enumeration exceeds work cap {DEFAULT_SUBGROUP_CAP}")
            covered = set(H)
            for x in ambient:
                if x in covered:
                    continue
                px = tuple((p * c) % mod for c in x)
                if px not in H:
                    continue
                members = set(H)
                step = x
                for _ in range(p - 1):
                    members.update(tuple((a + b) % mod for a, b in zip(h, step)) for h in H)
                    step = tuple((a + b) % mod for a, b in zip(step, x))
                covered |= members
                nxt.add(frozenset(members))
        level = nxt
    return len(level)


def hnf_open_subgroup_count(p: int, n: int, k: int) -> int:
    """Independent count of the same subgroups via Hermite normal form.

    Index-p^k open subgroups of the n-fold product of the p-adic integers
    correspond to upper-triangular Hermite forms with p-power diagonal
    (d_1, ..., d_n), prod d_i = p^k, and entries above the diagonal in row i
    taken mod d_i; the number of forms with a fixed diagonal is
    prod_i d_i^(i-1).
    """
    total = 0

    def walk(i, remaining, weight):
        nonlocal total
        if i == n - 1:
            total += weight * (p**remaining) ** (n - 1)
            return
        for a in range(remaining + 1):
            walk(i + 1, remaining - a, weight * (p**a) ** i)

    if n == 0:
        return 1 if k == 0 else 0
    walk(0, k, 1)
    return total


def zpn_set_count(p: int, n: int, k: int) -> int:
    """Number of isomorphism classes of p^k-element sets with an action of the
    n-fold product of the p-adic integers.

    Such a set is a multiset of transitive pieces of sizes p^d; transitive
    pieces of size p^d are counted by subgroup_count(p, n, d).  A multiset
    generating-function pass over the piece sizes does the rest.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    # the pass below takes (p^k + 2)/2 * sum_d (p^(k-d) + 1) steps
    size = capped_power(p, k, DEFAULT_SUBGROUP_CAP)
    if size > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"set size {p}^{k} exceeds cap {DEFAULT_SUBGROUP_CAP}")
    steps = (size + 2) * sum(size // p**d + 1 for d in range(k + 1)) // 2
    if steps > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(f"generating-function pass of {steps} steps exceeds cap {DEFAULT_SUBGROUP_CAP}")
    ways = [0] * (size + 1)
    ways[0] = 1
    for d in range(k + 1):
        part = p**d
        types = subgroup_count(p, n, d)
        nxt = [0] * (size + 1)
        for used in range(size // part + 1):
            cnt = math.comb(types + used - 1, used)
            base = used * part
            for s in range(size - base + 1):
                if ways[s]:
                    nxt[s + base] += cnt * ways[s]
        ways = nxt
    return ways[size]
