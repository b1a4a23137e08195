"""Exact character tables and the height-1 character-theoretic operations.

Tables are computed over cyclotomic fields with no floating point anywhere.
Abelian groups get their dual group directly (generator images validated
against the full multiplication structure); nonabelian groups go through the
class-algebra eigenvector method: simultaneous eigenvectors of the class
multiplication matrices over a prime field F_q with q = 1 mod exponent(G),
degrees recovered by modular square roots, and values lifted to sums of roots
of unity once per Galois orbit of characters and rational class: Newton's
identities turn the power sums chi(g^s), s <= degree, into the characteristic
polynomial of rho(g) over F_q, its roots among the powers of a root of unity
give the eigenvalue multiplicities, and all ord(g) power sums are re-checked
against them.  The class of g^u, u a unit, takes the multiplicities of g with
exponents times u, and so does the Galois conjugate chi^sigma_u: g -> chi(g^u),
found among the characters by its values mod q, which are chi's read through
the power map.  The orthogonality of the rows is certified by a Galois check
on the tallies, which covers every derived row, and the Gram matrix mod a
second prime.

Character values are stored as root-of-unity tallies {exponent mod m: count}
with m the group exponent, one dict object per distinct tally of a table (an
abelian table shares one per exponent; a Dixon table interns its lifts and
their Galois images), so the certificate, the canonical order and the lazy
conversion to CyclotomicNumber each handle a value once per object.

On top of the tables: restriction to prime-power classes (the height-1
character map), the rank of the restricted character matrix, Adams
operations, the total power operation, its level-structure composite, and
Galois-fixed-subspace dimensions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import sys
from array import array
from collections import Counter, namedtuple

from .errors import CapExceeded, HkrError
from .groupcore import (
    FiniteGroup,
    Permutation,
    _compose,
    _p_power_class_indices,
    _unit_generators,
    class_index,
    conjugacy_classes,
    named_group,
    power_map,
    power_walk,
)
from .primality import capped_power, is_prime, p_part, prime_factors, rref_mod
from .rings import CyclotomicNumber, RingElement, fixed_space_dim

__all__ = [
    "CharacterTable",
    "ClassFunction",
    "OrthogonalityReport",
    "character_table",
    "irreducible_characters",
    "orthogonality_report",
    "character_map",
    "char_matrix_rank",
    "adams_psi",
    "total_power",
    "psi_level",
    "galois_fixed_dim",
    "DEFAULT_TABLE_CAP",
    "MAX_POWER_OP_DEGREE",
    "GALOIS_DIM_CAP",
]

DEFAULT_TABLE_CAP = 2000
MAX_POWER_OP_DEGREE = 8
# phi(p^k)^2, the entries of one Galois constraint block in galois_fixed_dim
GALOIS_DIM_CAP = 1 << 15
_ABELIAN_WORK_CAP = 50_000_000


def _tally_coords(terms, m: int) -> tuple[int, ...]:
    """Power-basis coordinates of sum c * zeta_m^e over the (e, c) in terms,
    0 <= e < m, read from the field's table of powers."""
    field = CyclotomicNumber.field(m)
    return tuple(field.add_terms([0] * field.dimension, terms))


def _galois_units(m: int) -> list[int]:
    """Generators of (Z/m)^*, taken among the primes below m."""
    return _unit_generators((t for t in range(2, m) if m % t and is_prime(t)), m)


def _rational_classes(walks) -> list[tuple[int, list[tuple[int, int]]]]:
    """The classes grouped into orbits of g -> g^u over the units u mod ord(g):
    for the first class k of each orbit, each member j with the least unit u
    for which j is the class of g^u, given (k, power walk of class k) in class
    order for every class k of a set closed under g -> g^u."""
    out, seen = [], set()
    for k, walk in walks:
        if k in seen:
            continue
        o = len(walk)
        members = {}
        for u in range(1, o + 1):
            if math.gcd(u, o) == 1 and walk[u % o] not in members:
                members[walk[u % o]] = u
        seen.update(members)
        out.append((k, list(members.items())))
    return out


# ---------------------------------------------------------------------------
# abelian tables: the dual group by validated generator images


def _generator_columns(G: FiniteGroup) -> list[tuple[int, ...]]:
    """cols[i][x], the position in G.elements of G.elements[x] * g_i, for
    each generator g_i; built once per group, read by the abelian table and
    its orthogonality proof."""
    got = G._cache.get("generator_columns")
    if got is None:
        images = [x.images for x in G.elements]
        at = dict(zip(images, itertools.count())).__getitem__
        got = [tuple(map(at, [_compose(x, g.images) for x in images])) for g in G.generators]
        G._cache["generator_columns"] = got
    return got


def _abelian_rows(G: FiniteGroup, m: int):
    """The rows of Hom(G, Z/m) on G.elements, one per validated candidate
    image of the generators, in candidate order.

    Each exponent row is one int of 16-bit slots, one slot per element.  A
    sum of two rows reduced mod m has slots below 2m, and adding 2^15 - m to
    every slot sets bit 15 of exactly the slots at or above m, so one add,
    shift, mask and subtract reduce every slot at once.  That needs m <=
    2^15, which the work cap ensures: m <= |G| <= the candidate count, so
    m^2 <= candidates * |G| <= _ABELIAN_WORK_CAP < 2^30."""
    cols = _generator_columns(G)
    orders = [g.order() for g in G.generators]
    r, size = len(cols), G.order
    if math.prod(orders) * size * max(r, 1) > _ABELIAN_WORK_CAP:
        raise CapExceeded("abelian dual-group enumeration work cap exceeded")

    # uses[y]: how often each generator is taken on the breadth-first path
    # from the identity to y, so a candidate c sends y to sum_j c_j uses[y]_j
    ident = G.elements.index(G.identity)
    uses: list[tuple[int, ...] | None] = [None] * size
    uses[ident] = (0,) * r
    visit = [ident]
    for x in visit:  # the list grows while it is walked
        for gi, col in enumerate(cols):
            y = col[x]
            if uses[y] is None:
                uses[y] = tuple(u + (j == gi) for j, u in enumerate(uses[x]))
                visit.append(y)
    if len(visit) != size:
        raise HkrError("generators do not generate the group")
    # generator images are c_j = k_j * (m/o_j), k_j < o_j; the homomorphism
    # equations exp[x * g_i] == exp[x] + c_i, one per x and i, read sum_j k_j
    # (m/o_j) rel_j == 0 mod m for rel = uses[x * g_i] - uses[x] - e_i; each
    # distinct relation is checked once, the zero one always holds
    steps = [m // o for o in orders]
    relations = {
        tuple((a - b - (j == gi)) * s % m for j, (a, b, s) in enumerate(zip(uses[col[x]], uses[x], steps)))
        for gi, col in enumerate(cols)
        for x in range(size)
    }
    relations.discard((0,) * r)

    ones = int.from_bytes(array("H", [1]) * size, sys.byteorder)
    lift = ones * ((1 << 15) - m)

    def add(a: int, b: int) -> int:
        s = a + b
        return s - (((s + lift) >> 15) & ones) * m

    # partial[j][k], the row of k * (m/o_j) * uses_j mod m
    partial = []
    for s, used, o in zip(steps, zip(*uses), orders):
        base = int.from_bytes(array("H", [s * u % m for u in used]), sys.byteorder)
        part = [0]
        while len(part) < o:
            part.append(add(part[-1], base))
        partial.append(part)
    found: dict[int, None] = {}
    for ks in itertools.product(*map(range, orders)):
        if all(sum(map(operator.mul, ks, rel)) % m == 0 for rel in relations):
            found[functools.reduce(add, map(list.__getitem__, partial, ks))] = None
    if len(found) != size:
        raise HkrError(
            f"dual group has {len(found)} validated characters, expected {size}"
        )
    tallies = [{e: 1} for e in range(m)]  # shared by every entry; never mutated
    return [
        tuple(map(tallies.__getitem__, memoryview(v.to_bytes(2 * size, sys.byteorder)).cast("H")))
        for v in found
    ]


# ---------------------------------------------------------------------------
# nonabelian tables: class-algebra eigenvectors over F_q


def _find_modular_prime(m: int, order: int, *, above: int = 0) -> int:
    """The least prime q = 1 mod m above 2 * sqrt(order) + 1 and above `above`:
    there are infinitely many (Dirichlet), and is_prime decides each exactly.
    The search starts at the least q = 1 mod m past the bound, and past m."""
    bound = max(2 * math.isqrt(order) + 1, above)
    q = max(m + 1, bound + 1 + -bound % m)
    while not is_prime(q):
        q += m
    return q


def _roots_of_unity(q: int, m: int) -> list[int]:
    """z^t for t < m, where z has exact multiplicative order m in F_q (m
    divides q-1); the t-th entry stands for zeta_m^t."""
    primes = prime_factors(q - 1)
    g = 2
    while any(pow(g, (q - 1) // ell, q) == 1 for ell in primes):
        g += 1
    z = pow(g, (q - 1) // m, q)
    zp = [1] * m
    for t in range(1, m):
        zp[t] = zp[t - 1] * z % q
    return zp


def _pack(xs, bound: int) -> int:
    """Residues below 2^64 as one int, xs[0] lowest, in slots of the 64-bit words bound needs."""
    k = -(-bound.bit_length() // 64)
    return int.from_bytes(struct.pack("<" + f"Q{8 * k - 8}x" * len(xs), *xs), "little")


def _unpack(v: int, count: int, bound: int, q: int) -> list[int]:
    """The count slots of v, laid out as by _pack(..., bound), each mod q."""
    k = -(-bound.bit_length() // 64)
    words = struct.unpack(f"<{k * count}Q", v.to_bytes(8 * k * count, "little"))
    slots = words[k - 1::k]
    for i in reversed(range(k - 1)):
        slots = [s << 64 | w for s, w in zip(slots, words[i::k])]
    return [s % q for s in slots]


def _charpoly_mod(M: list[list[int]], q: int) -> list[int]:
    """Characteristic polynomial det(xI - M) mod q, lowest degree first.

    Reduces to upper Hessenberg form by similarity, then expands along the
    last column of each leading block.
    """
    n = len(M)
    H = [[v % q for v in row] for row in M]
    for col in range(n - 2):
        piv = None
        for r in range(col + 1, n):
            if H[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != col + 1:
            H[piv], H[col + 1] = H[col + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][col + 1] = H[r][col + 1], H[r][piv]
        inv = pow(H[col + 1][col], -1, q)
        for r in range(col + 2, n):
            f = H[r][col] * inv % q
            if f:
                hr, hc = H[r], H[col + 1]
                for c2 in range(col, n):
                    hr[c2] = (hr[c2] - f * hc[c2]) % q
                for r2 in range(n):
                    H[r2][col + 1] = (H[r2][col + 1] + f * H[r2][r]) % q
    polys = [[1]]
    for i in range(1, n + 1):
        hii = H[i - 1][i - 1]
        prev = polys[i - 1]
        cur = [(-hii * c) % q for c in prev] + [0]
        for t in range(len(prev)):
            cur[t + 1] = (cur[t + 1] + prev[t]) % q
        run = 1
        for k in range(1, i):
            run = run * H[i - k][i - k - 1] % q
            if run == 0:
                break
            coeff = H[i - 1 - k][i - 1] * run % q
            if coeff:
                lower = polys[i - 1 - k]
                for t in range(len(lower)):
                    cur[t] = (cur[t] - coeff * lower[t]) % q
        polys.append(cur)
    return polys[n]


def _divide_by_root(poly: list[int], x: int, q: int) -> list[int]:
    """poly // (X - x) over F_q by synthetic division, lowest degree first."""
    out = [0] * (len(poly) - 1)
    carry = 0
    for t in range(len(poly) - 1, 0, -1):
        carry = (poly[t] + carry * x) % q
        out[t - 1] = carry
    return out


def _poly_roots_mod(coeffs: list[int], q: int, candidates) -> list[tuple[int, int]]:
    """Roots among the candidates as (position in candidates, multiplicity),
    in candidate order; raises unless the polynomial splits into them."""
    poly = [c % q for c in coeffs]
    roots = []
    for pos, x in enumerate(candidates):
        if len(poly) <= 1:
            break
        mult = 0
        while len(poly) > 1:
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % q
            if acc:
                break
            poly = _divide_by_root(poly, x, q)
            mult += 1
        if mult:
            roots.append((pos, mult))
    if len(poly) > 1:
        raise HkrError("characteristic polynomial does not split over F_q")
    return roots


def _eigenvalue_multiplicities(f: list[int], deg: int, powers: list[int], q: int) -> list[int]:
    """Multiplicity of y^t, t < e, as an eigenvalue of rho(g), given the power
    sums f[s] = chi(g^s) mod q for s < e and powers[t] = y^t, y of order
    e = len(f) in F_q.

    Newton's identities divide by k <= deg, safe since deg^2 <= |G| < q.  The
    matrix (y^(s*t)) is invertible mod q, so once all e power sums are
    re-checked the multiplicities are exactly the inverse DFT of f.
    """
    e = len(f)
    # k * s_k = sum_{i=1..k} (-1)^(i-1) s_(k-i) p_i for the elementary s_k
    elem = [1]
    for k in range(1, deg + 1):
        acc = 0
        for i in range(1, k + 1):
            term = elem[k - i] * f[i % e]
            acc += term if i % 2 else -term
        elem.append(acc * pow(k, -1, q) % q)
    charpoly = [(-1) ** (deg - j) * elem[deg - j] for j in range(deg + 1)]
    mults = [0] * e
    for t, mult in _poly_roots_mod(charpoly, q, powers):
        mults[t] = mult
    sums = [0] * e
    for t, d in enumerate(mults):
        if d:
            # (powers * t)[::t][s] == powers[t * s % e]
            column = (powers * t)[::t] if t else [1] * e
            sums = [acc + d * x for acc, x in zip(sums, column)]
    if any((acc - v) % q for acc, v in zip(sums, f)):
        raise HkrError("root-of-unity multiplicities fail the power-sum check")
    return mults


def _nullspace_mod(M: list[list[int]], q: int) -> list[list[int]]:
    red, pivots = rref_mod(M, q)
    ncols = len(M[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-red[r][free]) % q
        basis.append(vec)
    return basis


def _eigenspaces_mod(M: list[list[int]], q: int) -> list[list[list[int]]]:
    """A basis of each eigenspace of M over F_q, one per distinct eigenvalue
    in increasing order; raises unless M is diagonalizable over F_q.

    With mu the product of X - lam over the distinct roots, u = (mu/(X -
    lam))(M) e_0 is read off the Krylov vectors M^j e_0, and (M - lam) u is
    mu(M) e_0, checked once to vanish: a simple root takes u as its
    eigenline unless u is zero.  Any other eigenspace is the nullspace.  M v,
    mu(M) e_0 and u are each one sum of packed vectors, d + 1 terms at most."""
    d = len(M)
    roots = _poly_roots_mod(_charpoly_mod(M, q), q, range(q))
    mu = [1]
    for lam, _ in roots:
        mu = [(a - lam * b) % q for a, b in zip([0] + mu, mu + [0])]
    bound = (d + 1) * q * q
    cols = [_pack(col, bound) for col in zip(*M)]
    krylov, v = [1], [1] + [0] * (d - 1)  # e_0 packs to 1
    while len(krylov) < len(mu):
        v = _unpack(sum(map(operator.mul, v, cols)), d, bound, q)
        krylov.append(_pack(v, bound))
    if any(_unpack(sum(map(operator.mul, mu, krylov)), d, bound, q)):
        raise HkrError("class matrix is not semisimple over F_q")
    spaces = []
    for lam, mult in roots:
        if mult == 1:
            u = _unpack(sum(map(operator.mul, _divide_by_root(mu, lam, q), krylov)), d, bound, q)
            if any(u):
                spaces.append([u])
                continue
        null = _nullspace_mod([[a - lam * (s == t) for t, a in enumerate(row)] for s, row in enumerate(M)], q)
        if len(null) != mult:
            raise HkrError("class matrix is not semisimple over F_q")
        spaces.append(null)
    if sum(map(len, spaces)) != len(M):
        raise HkrError("eigenspaces do not fill the subspace")
    return spaces


def _base_index(G: FiniteGroup) -> tuple[list[int], dict]:
    """(base, at): points whose images tell the elements of G apart, taken
    greedily, and each element's class position keyed by its images there."""
    images, base, told = [g.images for g in G.elements], [], 1
    for b in range(G.degree):
        if told < G.order and (n := len(set(map(operator.itemgetter(*base, b), images)))) > told:
            base, told = base + [b], n
    at = dict(zip(map(operator.itemgetter(*base), images), map(class_index(G).__getitem__, images)))
    if len(at) != G.order:
        raise HkrError("base images do not tell the elements apart")
    return base, at


def _dixon_rows(G: FiniteGroup, classes, m: int):
    r = len(classes)
    sizes = [len(cls.members) for cls in classes]
    reps = [cls.representative for cls in classes]
    loc = class_index(G)
    order = G.order
    q = _find_modular_prime(m, order)
    inv_class = [loc[rep.inverse().images] for rep in reps]
    base, at = _base_index(G)
    probes = [operator.itemgetter(*[z.images[b] for b in base]) for z in reps]

    def class_matrix(i: int) -> list[Counter]:
        """Column k of N_i as {j: a_ijk}, a_ijk the number of x in class i
        with x^-1 z_k in class j (z_k = reps[k]).  x^-1 runs over the class
        of inverses, and x^-1 z_k, an element of G, is known by its images
        on the base: z_k's images there (probes[k]) looked up in x^-1's."""
        inverses = [y.images for y in classes[inv_class[i]].members]
        return [Counter(map(at.__getitem__, map(probe, inverses))) for probe in probes]

    def span(B, piv):
        """A basis B in reduced row echelon form with pivot columns piv, and
        the columns of B off the pivots, as (column, entries) pairs."""
        pivots = set(piv)
        return B, piv, [(c, [b[c] for b in B]) for c in range(r) if c not in pivots]

    def combine(coeffs, space) -> list[int]:
        """sum_s coeffs[s] * B[s], not reduced: B is the identity at its
        pivot columns, so only the other columns take a dot product."""
        _, piv, free = space
        out = [0] * r
        for c, x in zip(piv, coeffs):
            out[c] = x
        for c, col in free:
            out[c] = sum(map(operator.mul, coeffs, col))
        return out

    # split into common eigenlines over F_q, the largest classes first: a
    # dihedral group's reflections split off its linear characters at once
    spaces = [span([[1 if t == s else 0 for t in range(r)] for s in range(r)], list(range(r)))]
    for i in sorted(range(1, r), key=lambda i: -sizes[i]):
        if all(len(B) == 1 for B, _, _ in spaces):
            break
        Ni = class_matrix(i)
        next_spaces = []
        for space in spaces:
            B, piv, free = space
            d = len(B)
            if d == 1:
                next_spaces.append(space)
                continue
            # restriction of Ni to span(B), in the basis B
            cols = []
            for b in B:
                w = [0] * r
                for bk, col in zip(b, Ni):
                    if bk:
                        for j, a in col.items():
                            w[j] += a * bk
                w = [x % q for x in w]
                coords = [w[pc] for pc in piv]
                # defensive reconstruction check, off the pivots: at a pivot
                # column the combination is the coordinate itself
                if any((sum(map(operator.mul, coords, col)) - w[c]) % q for c, col in free):
                    raise HkrError("subspace is not invariant; table build failed")
                cols.append(coords)
            M = [[cols[t][s] for t in range(d)] for s in range(d)]
            if all(M[s][t] == (M[0][0] if s == t else 0) for s in range(d) for t in range(d)):
                next_spaces.append(space)
                continue
            for null in _eigenspaces_mod(M, q):
                vecs = [combine(c, space) for c in null]  # an eigenline keeps its vector mod q
                next_spaces.append(span(*rref_mod(vecs, q)) if len(vecs) > 1 else ([[x % q for x in vecs[0]]], (), ()))
        spaces = next_spaces
    if any(len(B) != 1 for B, _, _ in spaces):
        raise HkrError("class algebra failed to split into eigenlines")

    vectors = []
    for (v,), _, _ in spaces:
        if v[0] == 0:
            raise HkrError("eigenvector vanishes on the identity class")
        inv = pow(v[0], -1, q)
        vectors.append([x * inv % q for x in v])

    inv_sizes = [pow(s, -1, q) for s in sizes]
    walks = power_map(G)
    lifts = _rational_classes(enumerate(walks))

    zp = _roots_of_unity(q, m)
    degrees, values = [], []  # values[i][j] = chi_i(g_j) mod q
    for v in vectors:
        s = sum(v[j] * v[inv_class[j]] * inv_sizes[j] for j in range(r)) % q
        if s == 0:
            raise HkrError("degenerate norm sum in degree recovery")
        dsq = order * pow(s, -1, q) % q
        deg = next((t for t in range(1, math.isqrt(order) + 1) if t * t % q == dsq), None)
        if deg is None:
            raise HkrError("degree recovery failed")
        degrees.append(deg)
        values.append(tuple([deg * v[j] * inv_sizes[j] % q for j in range(r)]))
    row_of = {w: i for i, w in enumerate(values)}
    interned: dict[frozenset, dict] = {}  # one object per distinct tally
    images: dict[tuple[int, int], dict] = {}  # (id of a tally, u) -> its image under e -> u * e
    # chi^sigma_u(g) = chi(g^u): the row mod q of a Galois conjugate is chi's
    # read through the power map, and its tallies are chi's with exponents
    # times u, so one lift serves each orbit of characters
    units = [(u, [walk[u % len(walk)] for walk in walks]) for u in _galois_units(m)]
    rows = [None] * len(values)
    for i, w in enumerate(values):
        if rows[i] is not None:
            continue
        tallies = [None] * r
        for k, members in lifts:
            o = len(walks[k])
            step = m // o
            dts = _eigenvalue_multiplicities([w[c] for c in walks[k]], degrees[i], zp[::step], q)
            nonzero = [(t, dt) for t, dt in enumerate(dts) if dt]
            # the eigenvalues of rho(g^u) are the u-th powers of those of rho(g)
            for j, u in members:
                tally = {t * u % o * step: dt for t, dt in nonzero}
                tallies[j] = interned.setdefault(frozenset(tally.items()), tally)
        rows[i] = tuple(tallies)
        orbit = [i]
        for a in orbit:  # the list grows while it is walked
            for u, pi in units:
                b = row_of.get(tuple([values[a][k] for k in pi]))
                if b is None:
                    raise HkrError("a Galois conjugate of a character is not a row")
                if rows[b] is None:
                    for t in rows[a]:
                        if (id(t), u) not in images:
                            s = {e * u % m: c for e, c in t.items()}
                            images[id(t), u] = interned.setdefault(frozenset(s.items()), s)
                    rows[b] = tuple([images[id(t), u] for t in rows[a]])
                    orbit.append(b)
    return rows


# ---------------------------------------------------------------------------
# the table object


class CharacterTable:
    """Exact irreducible character table with tally-encoded values.

    Rows are in canonical order: degree ascending, then value rows descending
    lexicographically by power-basis coordinates.
    """

    __slots__ = ("group", "classes", "conductor", "rows", "degrees", "_values", "_irr")

    def __init__(self, group, classes, conductor, rows):
        self.group = group
        self.classes = tuple(classes)
        self.conductor = conductor
        self.rows = tuple(rows)
        self.degrees = tuple(row[0].get(0, 0) for row in rows)
        self._values: dict = {}  # one per distinct tally object, by id
        self._irr: tuple[ClassFunction, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.rows)

    def value(self, i: int, j: int) -> CyclotomicNumber:
        tally = self.rows[i][j]
        got = self._values.get(id(tally))
        if got is None:
            got = self._values[id(tally)] = CyclotomicNumber.from_tally(self.conductor, tally)
        return got

    def irreducible(self, i: int) -> ClassFunction:
        return self._irreducibles()[i]

    def _irreducibles(self) -> tuple[ClassFunction, ...]:
        if self._irr is None:  # every row, built once per table
            cols = range(len(self.classes))
            self._irr = tuple(ClassFunction(self.group, self.classes, [self.value(i, j) for j in cols],
                                            self.conductor, f"chi{i}") for i in range(self.size))
        return self._irr

    def to_json(self) -> dict:
        name = self.group.name or f"degree-{self.group.degree}"
        coords: dict[int, list[str]] = {}  # by id of each distinct tally object

        def text(tally) -> list[str]:
            got = coords.get(id(tally))
            if got is None:
                got = coords[id(tally)] = [str(c) for c in _tally_coords(tally.items(), self.conductor)]
            return got

        return {
            "group": name,
            "classes": [
                {
                    "size": len(cls.members),
                    "rep_cycles": cls.representative.cycle_string(),
                    "order": cls.representative.order(),
                }
                for cls in self.classes
            ],
            "conductor": self.conductor,
            "irreducibles": [[text(t) for t in row] for row in self.rows],
        }

    def __repr__(self):
        name = self.group.name or f"degree {self.group.degree}"
        return f"CharacterTable[{name}, {self.size} rows]"


def character_table(G: FiniteGroup) -> CharacterTable:
    got = G._cache.get("character_table")
    if got is not None:
        return got
    if G.order > DEFAULT_TABLE_CAP:
        raise CapExceeded(f"group order {G.order} exceeds table cap {DEFAULT_TABLE_CAP}")
    classes = conjugacy_classes(G)
    m = G.exponent()
    if G.is_abelian():
        if [cls.representative for cls in classes] != list(G.elements):
            raise HkrError("abelian class order does not match element order")
        rows = _abelian_rows(G, m)
    else:
        rows = _dixon_rows(G, classes, m)

    rows = _canonical_order(rows, m)
    if sum(row[0].get(0, 0) ** 2 for row in rows) != G.order:
        raise HkrError("degrees fail the order sum rule")
    table = CharacterTable(G, classes, m, rows)
    G._cache["character_table"] = table
    return table


def _canonical_order(rows, m: int) -> list:
    """Rows by degree ascending, then value rows descending lexicographically
    by power-basis coordinates, computed once per tally object and only where
    the order needs them.  One tally object is one value and is skipped, but
    distinct tallies may be equal too ({0, 2, 4} and {1, 3, 5} at m = 6), so
    only coordinates decide.
    """
    coords: dict[int, tuple[int, ...]] = {}  # by id of the tally

    def value_coords(t: dict) -> tuple[int, ...]:  # a nonempty tuple, never falsy
        return coords.get(id(t)) or coords.setdefault(id(t), _tally_coords(t.items(), m))

    def compare(a: int, b: int) -> int:
        ra, rb = rows[a], rows[b]
        da, db = ra[0].get(0, 0), rb[0].get(0, 0)
        if da != db:
            return -1 if da < db else 1
        for ta, tb in zip(ra, rb):
            if ta is not tb:
                ca, cb = value_coords(ta), value_coords(tb)
                if ca != cb:
                    return -1 if ca > cb else 1
        return 0

    return [rows[i] for i in sorted(range(len(rows)), key=functools.cmp_to_key(compare))]


def irreducible_characters(G: FiniteGroup):
    return list(character_table(G)._irreducibles())


# ---------------------------------------------------------------------------
# orthogonality


class OrthogonalityReport(namedtuple("OrthogonalityReport", "rows_ok columns_ok failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.rows_ok and self.columns_ok


@functools.cache
def _certify_root_sum_zero(m: int, d: int) -> None:
    """Verify sum_{t<d} zeta_m^(t*m/d) == 0 exactly (d > 1 dividing m)."""
    step = m // d
    if any(_tally_coords(((t * step, 1) for t in range(d)), m)):
        raise HkrError(f"sum of {d}-th roots of unity is not zero at conductor {m}")


def _orthogonality_abelian(table: CharacterTable) -> OrthogonalityReport:
    """Both relations from the dual group Hom(G, Z/m).

    The classes must be conjugacy_classes(G), the elements in element order
    that the generator columns index, else a ("classes",) failure.  Each
    entry must be one root of unity {e: 1}, read as e mod m, else an
    ("entry", i, k) failure; each distinct tally object is read once, since
    the construction shares one per exponent.  Each row must be a
    homomorphism, row[x*g] == row[x] + row[g] mod m for every generator g
    and element x (at x = 1 this gives row[1] == 0), else a ("homomorphism",
    i) failure.  Rows with the same generator images are the same
    homomorphism, a ("row", j, i) failure.  Distinct homomorphisms are
    orthogonal: their difference is a nontrivial one, which takes each value
    of its image, the d-th roots of unity for some d > 1 dividing m, equally
    often, and the sum of the d-th roots is certified zero once per divisor
    d > 1 of m.  With r == |G| such rows the table is square, and the column
    relation follows as for the certificate.
    """
    m, rows, G = table.conductor, table.rows, table.group
    n = len(table.classes)
    if table.classes != tuple(conjugacy_classes(G)):
        return OrthogonalityReport(False, False, (("classes",),))
    cols = _generator_columns(G)
    ident = G.elements.index(G.identity)
    gen_cols = [col[ident] for col in cols]
    # steps[i](row): the entries at x * g_i for every x, in one C-level call
    # (a scalar, not a tuple, when there is one class, as on the other side)
    steps = [operator.itemgetter(*col) for col in cols]
    exponent = {}  # id of each distinct tally read so far -> its exponent mod m, or None
    rotate = list(range(m)) * 2  # rotate[a:a + m][e] == (e + a) % m

    failures = []
    first_with = {}  # generator images -> the first row with them
    for i, row in enumerate(rows):
        try:
            exps = list(map(exponent.__getitem__, map(id, row)))
        except KeyError:  # a tally not read yet
            for t in row:
                if id(t) not in exponent:
                    ((e, c),) = t.items() if len(t) == 1 else [(None, 0)]
                    exponent[id(t)] = e % m if c == 1 else None
            exps = list(map(exponent.__getitem__, map(id, row)))
        if None in exps:
            failures += [("entry", i, k) for k, e in enumerate(exps) if e is None]
            continue
        if any(
            step(exps) != operator.itemgetter(*exps)(rotate[a:a + m])
            for step, a in zip(steps, map(exps.__getitem__, gen_cols))
        ):
            failures.append(("homomorphism", i))
            continue
        j = first_with.setdefault(tuple(map(exps.__getitem__, gen_cols)), i)
        if j != i:
            failures.append(("row", j, i))
    if failures:
        return OrthogonalityReport(False, False, tuple(failures))
    for d in range(2, m + 1):
        if m % d == 0:
            _certify_root_sum_zero(m, d)
    if len(rows) != n:
        failures.append(("column", len(rows), n))
    return OrthogonalityReport(True, len(rows) == n, tuple(failures))


def _orthogonality_certificate(table: CharacterTable, walks) -> OrthogonalityReport:
    """Both relations from integers mod a prime, given the power map walks.

    For each generator l of (Z/m)^*, taken among the primes below m, the map
    k -> class of g_k^l must be a size-preserving bijection pi of the classes
    and every row must satisfy row[pi(k)] == l * row[k] as tallies.  Then each
    row Gram entry a_ij = sum_k |C_k| chi_i(g_k) conj(chi_j(g_k)) is fixed by
    the Galois group, hence a rational integer, with |a_ij| <= |G| * B^2 for
    B the largest count sum of a tally.  At a root of unity of order m mod a
    prime q = 1 mod m with q > 2|G|(B^2 + 1), other than the prime the table
    was lifted with, the Gram matrix mod q decides every a_ij exactly.  Each
    conj(chi_j(g_k)) is chi_j(g_k^-1), read off the values mod q at the
    class of g_k^-1: -1 is a product of the generators l, so the Galois check
    covers row[class of g^-1] == -1 * row[g] too.  For a square table the
    column relation follows: X D X* = |G| I gives X* X = |G| D^-1.
    """
    m, order, rows = table.conductor, table.group.order, table.rows
    sizes = [len(cls.members) for cls in table.classes]
    n = len(sizes)
    distinct = {id(t): t for row in rows for t in row}  # each tally object once
    failures = []
    for ell in _galois_units(m):
        pi = [walk[ell % len(walk)] for walk in walks]
        if sorted(pi) != list(range(n)) or any(sizes[pi[k]] != sizes[k] for k in range(n)):
            failures.append(("power-map", ell))
            continue
        scaled = {key: {e * ell % m: c for e, c in t.items()} for key, t in distinct.items()}
        for i, row in enumerate(rows):
            if list(map(row.__getitem__, pi)) != list(map(scaled.__getitem__, map(id, row))):
                failures.append(("galois", ell, i))
    if failures:
        return OrthogonalityReport(False, False, tuple(failures))

    bound = max(sum(map(abs, t.values())) for t in distinct.values())
    lifted_with = _find_modular_prime(m, order)
    q = _find_modular_prime(m, order, above=max(2 * order * (bound * bound + 1), lifted_with))
    zp = _roots_of_unity(q, m)
    at = {key: sum(c * zp[e % m] for e, c in t.items()) % q for key, t in distinct.items()}
    values = [list(map(at.__getitem__, map(id, row))) for row in rows]
    weighted = [[s * x % q for s, x in zip(sizes, row)] for row in values]
    # conj(chi(g)) = chi(g^-1), the Galois check's relation for l = -1, packed over rows
    inverse = [walk[-1 % len(walk)] for walk in walks]
    bound = n * q * q  # a Gram slot sums n products of residues
    conj = [_pack([row[c] for row in values], bound) for c in inverse]
    for i, wi in enumerate(weighted):
        gram = _unpack(sum(map(operator.mul, wi, conj)), len(rows), bound, q)
        gram[i] = (gram[i] - order) % q
        failures += [("row", i, j) for j in range(i, len(rows)) if gram[j]]
    rows_ok = not failures
    if rows_ok and len(rows) != n:
        failures.append(("column", len(rows), n))
    return OrthogonalityReport(rows_ok, rows_ok and len(rows) == n, tuple(failures))


def orthogonality_report(table: CharacterTable) -> OrthogonalityReport:
    """Exact verification of both orthogonality relations."""
    if table.group.is_abelian():
        return _orthogonality_abelian(table)
    return _orthogonality_certificate(table, power_map(table.group))


# ---------------------------------------------------------------------------
# class functions


class ClassFunction:
    """A function on a fixed ordered list of conjugacy classes, with exact
    cyclotomic values.

    The class list may be the full list for a group, the sublist of
    prime-power-order classes, or a list of (symmetric-group class, group
    class) pairs for power operations; pointwise ring structure only needs
    the lists to match.  _positions() places a group's classes, a full list
    or not, in conjugacy_classes(group) once, through class_index(group).
    """

    __slots__ = ("group", "classes", "values", "conductor", "label", "_pos")

    def __init__(self, group, classes, values, conductor, label=""):
        self.group = group
        self.classes = tuple(classes)
        self.values = tuple(values)
        self.conductor = conductor
        self.label = label
        self._pos = None
        if len(self.classes) != len(self.values):
            raise ValueError("one value per class expected")

    def _positions(self) -> tuple[list[int], dict[int, int]]:
        """(at, back): at[i] is the group position of classes[i], back[at[i]] = i."""
        if self._pos is None:
            loc = class_index(self.group)
            at = [loc[cls.representative.images] for cls in self.classes]
            self._pos = at, {c: i for i, c in enumerate(at)}
        return self._pos

    def value_at(self, g: Permutation) -> CyclotomicNumber:
        return self.values[self._positions()[1][class_index(self.group)[g.images]]]

    def _merge(self, other: ClassFunction):
        if self.classes != other.classes:
            raise ValueError("class functions live on different class lists")
        m = math.lcm(self.conductor, other.conductor)
        left = [v.promote(m) for v in self.values]
        right = [v.promote(m) for v in other.values]
        return m, left, right

    def __add__(self, other):
        m, left, right = self._merge(other)
        return ClassFunction(self.group, self.classes, [a + b for a, b in zip(left, right)], m)

    def __sub__(self, other):
        m, left, right = self._merge(other)
        return ClassFunction(self.group, self.classes, [a - b for a, b in zip(left, right)], m)

    def __neg__(self):
        return ClassFunction(self.group, self.classes, [-v for v in self.values], self.conductor)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            raise TypeError("class functions are scaled by rationals only")
        if not isinstance(other, ClassFunction):  # a scalar; the ring refuses a non-rational
            return ClassFunction(
                self.group, self.classes, [v * other for v in self.values], self.conductor
            )
        m, left, right = self._merge(other)
        return ClassFunction(self.group, self.classes, [a * b for a, b in zip(left, right)], m)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ClassFunction) or self.classes != other.classes:
            return False
        m = math.lcm(self.conductor, other.conductor)  # one field: its coordinates decide
        return [v.promote(m).coeffs for v in self.values] == [v.promote(m).coeffs for v in other.values]

    def __hash__(self):
        return hash(self.classes)  # equal class functions may differ in conductor

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "conductor": self.conductor,
            "values": [[str(c) for c in v.coords] for v in self.values],
        }

    def __repr__(self):
        vals = ", ".join(v.to_text() for v in self.values[:6])
        more = ", ..." if len(self.values) > 6 else ""
        return f"ClassFunction[{vals}{more}]"


# ---------------------------------------------------------------------------
# the character map and its companions


def character_map(G: FiniteGroup, p: int, chi: ClassFunction) -> ClassFunction:
    """Restrict a class function to the p-power-order classes.

    This is the height-1, one-variable character map: the target conductor is
    the p-part of the exponent of G, and restricted values always land there.
    """
    table = character_table(G)
    if chi.classes != table.classes:
        raise ValueError("class function is not defined on the full class list")
    target = p_part(G.exponent(), p)
    down = math.gcd(chi.conductor, target)
    idx = _p_power_class_indices(G, p)
    classes = [table.classes[k] for k in idx]
    values = [chi.values[k].descend(down).promote(target) for k in idx]
    return ClassFunction(G, classes, values, target, chi.label and f"{chi.label}|p={p}")


def char_matrix_rank(G: FiniteGroup, p: int) -> int:
    """Rank of the irreducible table restricted to p-power-order columns.

    Rows whose restricted entries are the same tally objects are the same row
    and are kept once (an abelian table shares one tally per exponent).  The
    rows are specialized to F_q at a root of unity of exact order m, which can
    only lower the rank; full column rank mod q therefore certifies full
    column rank over the cyclotomic field.  A correct table always has it:
    the p-power classes are closed under inversion, so column orthogonality
    gives Y_(S^-1)^T Y_S = diag(|C_G(g)|), a unit mod q since q = 1 mod m is
    prime to |G|.
    """
    table = character_table(G)
    m = table.conductor
    idx = _p_power_class_indices(G, p)  # never empty: the identity is there
    rows = {tuple(map(id, map(row.__getitem__, idx))): row for row in table.rows}.values()
    q = _find_modular_prime(m, G.order)
    zp = _roots_of_unity(q, m)
    mat_q = [[sum(cnt * zp[e % m] for e, cnt in row[k].items()) for k in idx] for row in rows]
    _, pivots = rref_mod(mat_q, q)
    if len(pivots) != len(idx):
        raise HkrError("restricted character matrix lost rank mod q")
    return len(idx)


def adams_psi(m: int, chi: ClassFunction) -> ClassFunction:
    """(psi^m chi)(g) = chi(g^m), by powering each representative once per
    (group, m): the group's cache keeps the class position of rep**m.  No power
    map or walk is read, so criterion 7 checks psi_level by an independent route."""
    (at, back), loc = chi._positions(), class_index(chi.group)
    to = chi.group._cache.setdefault(("adams_psi", m), {})
    for cls, c in zip(chi.classes, at):
        if c not in to:
            to[c] = loc[(cls.representative**m).images]
    values = [chi.values[back[to[c]]] for c in at]
    label = chi.label and f"psi{m}({chi.label})"
    return ClassFunction(chi.group, chi.classes, values, chi.conductor, label)


def _cycle_products(chi: ClassFunction, cycle_types) -> list[list[CyclotomicNumber]]:
    """For each cycle type (a list of cycle lengths), the values
    prod over ell in the type of chi(g^ell), one per class g of chi.

    The classes of the powers come from the group's power map, read at
    chi's class positions: no permutation is powered or hashed.
    """
    walks, (at, back) = power_map(chi.group), chi._positions()
    power_maps = {}
    for ell in {ell for lens in cycle_types for ell in lens}:
        try:
            power_maps[ell] = [back[walks[c][ell % len(walks[c])]] for c in at]
        except KeyError:
            raise ValueError("class list is not closed under powers") from None
    values = chi.values
    out = []
    for lens in cycle_types:
        first, rest = power_maps[lens[0]], [power_maps[ell] for ell in lens[1:]]
        row = []
        for gi, fi in enumerate(first):
            val = values[fi]
            for pm in rest:
                val = val * values[pm[gi]]
            row.append(val)
        out.append(row)
    return out


def _check_power_degree(k: int) -> None:
    if k > MAX_POWER_OP_DEGREE:
        raise CapExceeded(f"total power operation limited to k <= {MAX_POWER_OP_DEGREE}")


def total_power(k: int, chi: ClassFunction) -> ClassFunction:
    """P_k(chi)(sigma, g) = product over cycles c of sigma of chi(g^|c|).

    Defined on pairs (class of Sym(k), class of chi's group); returned as a
    class function whose class list is the list of pairs in row-major order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_power_degree(k)
    sclasses = conjugacy_classes(named_group(f"Sym({k})"))  # built once per process
    rows = _cycle_products(chi, [scls.representative.cycle_lengths() for scls in sclasses])
    pairs = [(scls, gcls) for scls in sclasses for gcls in chi.classes]
    values = [val for row in rows for val in row]
    label = chi.label and f"P{k}({chi.label})"
    return ClassFunction(None, pairs, values, chi.conductor, label)


def psi_level(p: int, k: int, chi: ClassFunction) -> ClassFunction:
    """Total power operation at p^k, restricted along the translation
    embedding of Z/p^k into Sym(p^k), evaluated at the image of 1.

    Only the row of P_{p^k}(chi) at the class of the translation x -> x + 1
    is needed, and that row depends only on its cycle type, one p^k-cycle,
    so neither Sym(p^k) nor the rest of P_{p^k}(chi) is built.
    The contract (checked by the acceptance suite, not assumed here) is that
    the composite equals adams_psi(p^k, chi).
    """
    size = capped_power(p, k, MAX_POWER_OP_DEGREE)
    _check_power_degree(size)
    (values,) = _cycle_products(chi, [[size]])
    label = chi.label and f"psi_level[{p}^{k}]({chi.label})"
    return ClassFunction(chi.group, chi.classes, values, chi.conductor, label)


def galois_fixed_dim(G: FiniteGroup, p: int, k: int) -> int:
    """Dimension over Q of functions f on p-power classes valued in the
    p^k-th cyclotomic field with f(g^u) = sigma_u(f(g)) for every unit u.

    A unit acts on g only through u mod ord(g), a divisor of the p-part of
    the exponent, so the classes fall into the orbits of the power map.  On
    each orbit f is set by its value at the first class, which must be fixed
    by the stabilizer of that class in (Z/p^k)^*; exact linear algebra on a
    generating set of the stabilizer gives the dimension, once per distinct
    stabilizer.  phi(p^k)^2, the size of one generator's block, is checked
    against GALOIS_DIM_CAP before any unit is listed.
    """
    if k < 0:
        raise ValueError(f"level k = {k} must be >= 0")
    pk = capped_power(p, k, GALOIS_DIM_CAP)  # a pk past the cap has phi(pk)^2 past it
    phi = pk - pk // p
    if phi**2 > GALOIS_DIM_CAP:
        raise CapExceeded(
            f"phi(p^k)^2 for p = {p}, k = {k} exceeds the Galois dimension cap {GALOIS_DIM_CAP}"
        )
    expo = G.exponent()
    if p_part(expo, p) > pk:
        raise HkrError(f"p^k = {pk} is below the p-part of the exponent {expo}")
    walks = {c: power_walk(G, c) for c in _p_power_class_indices(G, p)}
    dims: dict[tuple[int, ...], int] = {}  # by stabilizer, which many orbits share
    total = 0
    for c, _ in _rational_classes(walks.items()):
        walk = walks[c]
        stab = tuple(u for u in range(1, pk) if u % p and walk[u % len(walk)] == c)
        if stab not in dims:
            # sigma_u on the power basis, for each generator u of the stabilizer
            maps = [[CyclotomicNumber.root(pk, u * t).coords for t in range(phi)]
                    for u in _unit_generators(stab, pk)]
            dims[stab] = fixed_space_dim(maps, phi)
        total += dims[stab]
    return total
