"""Commuting tuples of p-power-order elements and the class counts they predict.

For a finite group G, a prime p, and n >= 0, the basic object is the set of
n-tuples of pairwise commuting elements whose orders are powers of p, each a
plain tuple of Permutations.  The group acts by simultaneous conjugation; the
number of orbits is the rank prediction attached to (G, p, n).  The same
number is computed along several independent routes (explicit orbits,
centralizer recursion, and for symmetric groups a purely combinatorial count),
which the test suite plays against each other.
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

DEFAULT_WORK_CAP = 100_000_000
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


def _extend_tuples(prefix, candidates, n, out, budget):
    if len(prefix) == n:
        out.append(prefix)
        return
    last = len(prefix) + 1 == n
    for g in candidates:
        budget[0] -= len(candidates)
        if budget[0] < 0:
            raise CapExceeded(f"tuple enumeration exceeds work cap {budget[1]}")
        if last:
            # the final entry needs no further narrowing
            out.append(prefix + (g,))
        else:
            narrowed = [h for h in candidates if h * g == g * h]
            _extend_tuples(prefix + (g,), narrowed, n, out, budget)


def hom_tuples(G: FiniteGroup, p: int, n: int, *, work_cap=DEFAULT_WORK_CAP) -> list[tuple]:
    """All commuting n-tuples of p-power-order elements, lexicographically ordered.

    Tuples are grown one entry at a time; the candidate pool for the next entry
    is the p-power part of the centralizer of the prefix, so the work stays
    proportional to the answer for groups whose p-elements are sparse.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [()]
    out: list[tuple] = []
    budget = [work_cap, work_cap]
    _extend_tuples((), p_power_elements(G, p), n, out, budget)
    return out


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
    the centralizer of g).  This agrees with len(tuple_classes(G, p, n)) but
    stays cheap when the tuple set itself would be large.  An abelian G has
    |G_p|^n classes, refused before it reaches 10^4300, past which its
    digits would not print.
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
    idx = _p_power_class_indices(G, p)
    if n == 1:
        return len(idx)
    classes = conjugacy_classes(G)
    return sum(rank_prediction(centralizer(G, [classes[k].representative]), p, n - 1) for k in idx)


def _gl_level(p: int, n: int, k: int, cap: int) -> int:
    """p^k, after checking that the (p^k)^(n^2) n x n matrices over Z/p^k
    number at most cap.  At n = 0 a level past cap passes, and is returned
    only partly built."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mod = capped_power(p, k, cap)
    if capped_power(mod, n * n, cap) > cap:
        raise CapExceeded(f"GL enumeration size ({p}^{k})^{n * n} exceeds cap {cap}")
    return mod


def gl_matrices(p: int, n: int, k: int, *, cap=DEFAULT_GL_CAP) -> list[tuple]:
    """All of GL_n(Z/p^k) as tuples of rows, lexicographic in the flattened
    entries; a matrix over Z/p^k is invertible when it is invertible mod p,
    and over Z/1 (k = 0) the one matrix, zero, is the identity.  Each matrix
    mod p is decided once, by its flat residues."""
    mod = _gl_level(p, n, k, cap)
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
    An orbit of a group is an orbit of its generators, searched by
    orbit_search: the transvections I + E_ij, which generate SL_n over the
    local ring Z/p^k, and diag(u, 1, ..., 1) for generators u of the units mod
    p^k.  The GL cap, (p^k)^(n^2) matrices, runs before any tuple is built and
    bounds the units scanned.  Orbits are lists of TupleClass values; both
    layers are canonically ordered.
    """
    worst = max(map(class_orders(G).__getitem__, _p_power_class_indices(G, p)))
    mod = capped_power(p, k, worst)  # exact up to worst, a power of p
    if mod % worst != 0:
        raise ValueError(
            f"p^k = {mod} does not annihilate all p-power elements (max order {worst})"
        )
    mod = _gl_level(p, n, k, DEFAULT_GL_CAP)

    def elementary(i, j, a):  # the identity matrix with entry (i, j) set to a
        return tuple(tuple(a if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n))

    gens = [elementary(i, j, 1) for i in range(n) for j in range(n) if i != j]
    if n:
        gens += [elementary(0, 0, u) for u in _unit_generators((u for u in range(2, mod) if u % p), mod)]
    classes, member_class = _indexed_tuple_classes(G, p, n)
    ident = G.identity
    orbits = orbit_search(
        range(len(classes)), gens,
        lambda c, s: member_class[apply_matrix(classes[c].representative, s, ident)],
    )
    return [[classes[c] for c in orbit] for orbit in orbits]


def subgroup_count(p: int, n: int, k: int, *, cap=DEFAULT_SUBGROUP_CAP) -> int:
    """Number of subgroups of order p^k in (Z/p^k)^n, by exhaustive enumeration.

    Subgroups are grown one index-p layer at a time: every subgroup of order
    p^(j+1) arises from one of order p^j by adjoining an element x with
    p*x inside it.  Each extension is built once: an x inside an extension of
    H found earlier generates that same extension over H, because the index
    is the prime p.  Each scanned pair (H, x) is charged to a work budget of
    cap, which is checked before each subgroup's scan.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    if k == 0 or n == 0:
        return 1 if k == 0 else 0
    mod = capped_power(p, k, cap)
    if capped_power(mod, n, cap) > cap:
        raise CapExceeded(f"ambient group size ({p}^{k})^{n} exceeds cap {cap}")
    ambient = list(iter_product(range(mod), repeat=n))
    zero = (0,) * n
    level = {frozenset([zero])}
    budget = cap
    for _ in range(k):
        nxt = set()
        for H in level:
            budget -= len(ambient)
            if budget < 0:
                raise CapExceeded(f"subgroup enumeration exceeds work cap {cap}")
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


def zpn_set_count(p: int, n: int, k: int, *, cap=DEFAULT_SUBGROUP_CAP) -> int:
    """Number of isomorphism classes of p^k-element sets with an action of the
    n-fold product of the p-adic integers.

    Such a set is a multiset of transitive pieces of sizes p^d; transitive
    pieces of size p^d are counted by subgroup_count(p, n, d).  A multiset
    generating-function pass over the piece sizes does the rest.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    # the pass below takes (p^k + 2)/2 * sum_d (p^(k-d) + 1) steps
    size = capped_power(p, k, cap)
    if size > cap:
        raise CapExceeded(f"set size {p}^{k} exceeds cap {cap}")
    steps = (size + 2) * sum(size // p**d + 1 for d in range(k + 1)) // 2
    if steps > cap:
        raise CapExceeded(f"generating-function pass of {steps} steps exceeds cap {cap}")
    ways = [0] * (size + 1)
    ways[0] = 1
    for d in range(k + 1):
        part = p**d
        types = subgroup_count(p, n, d, cap=cap)
        nxt = [0] * (size + 1)
        for used in range(size // part + 1):
            cnt = math.comb(types + used - 1, used)
            base = used * part
            for s in range(size - base + 1):
                if ways[s]:
                    nxt[s + base] += cnt * ways[s]
        ways = nxt
    return ways[size]
