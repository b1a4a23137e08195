"""Finite permutation groups: full enumeration, conjugacy classes, centralizers,
and a small expression language for the standard families.

Groups are always materialized as their complete element list, sorted
lexicographically by image tuple.  That order is the canonical element order
used everywhere else in the package, so that repeated runs produce identical
output byte for byte.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from itertools import takewhile

from .errors import CapExceeded, HkrError, ParseError
from .primality import euler_phi, p_part

__all__ = [
    "Permutation",
    "FiniteGroup",
    "ConjugacyClass",
    "make_group",
    "named_group",
    "conjugacy_classes",
    "class_index",
    "class_orders",
    "power_walk",
    "power_map",
    "orbit_search",
    "extend_to_group",
    "centralizer",
    "direct_product",
    "cyc_group",
    "dih_group",
    "sym_group",
    "q8_group",
    "DEFAULT_ORDER_CAP",
    "DEFAULT_CELL_CAP",
]

DEFAULT_ORDER_CAP = 100_000
# order * degree, the ints a closure holds: 2^24 (about 1.7 * 10^7) admits
# Cyc(4096) on 4096 points, the largest group the acceptance suite builds
DEFAULT_CELL_CAP = 1 << 24


def _compose(a: tuple, b: tuple) -> tuple:
    """The images of a∘b, a[b[i]] for each i: one C-level itemgetter call,
    except below two points, where itemgetter returns a scalar or raises."""
    return operator.itemgetter(*b)(a) if len(b) > 1 else tuple(a[i] for i in b)


class Permutation:
    """A bijection of {0, ..., degree-1}, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> Permutation:
        # Internal constructor that skips validation.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> Permutation:
        """Build from disjoint cycles of points, e.g. from_cycles(4, [(0, 1), (2, 3)])."""
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ValueError(f"cycles are not disjoint at point {pt}")
                seen.add(pt)
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls._raw(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        # (a * b)(i) = a(b(i)): apply b first.
        return Permutation._raw(_compose(self.images, other.images))

    def inverse(self) -> Permutation:
        img = self.images
        inv = [0] * len(img)
        for i, j in enumerate(img):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def conjugate_by(self, g: Permutation) -> Permutation:
        """g * self * g^(-1), computed in one pass."""
        gi = g.images
        si = self.images
        out = [0] * len(si)
        for i, j in enumerate(si):
            out[gi[i]] = gi[j]
        return Permutation._raw(tuple(out))

    def __pow__(self, k: int) -> Permutation:
        # square and multiply; reducing k mod the order first bounds the
        # squarings by the degree or by the order, whatever the size of k
        if k < 0 or k >= len(self.images):
            k %= self.order()
        acc, sq = None, self.images
        while k:
            if k & 1:
                acc = sq if acc is None else _compose(acc, sq)
            k >>= 1
            if k:
                sq = _compose(sq, sq)
        return Permutation._raw(acc or tuple(range(len(self.images))))

    def _all_cycles(self) -> list[list[int]]:
        img = self.images
        seen = [False] * len(img)
        cycles = []
        for start in range(len(img)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = img[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = img[j]
            cycles.append(cyc)
        return cycles

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        return [tuple(c) for c in self._all_cycles() if len(c) > 1]

    def cycle_lengths(self) -> list[int]:
        """Lengths of all cycles, fixed points included, sorted descending."""
        return sorted((len(c) for c in self._all_cycles()), reverse=True)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self._all_cycles()))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __le__(self, other: Permutation) -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


class FiniteGroup:
    """An immutable permutation group with a fully materialized element list.

    `elements` is sorted lexicographically by image tuple; `generators` is the
    generating set the group was built from.  Instances cache derived data
    (conjugacy classes, abelianness) since they are never mutated.
    """

    __slots__ = ("degree", "generators", "elements", "name", "_set", "_cache")

    def __init__(self, degree, generators, elements, name=None):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.name = name
        self._set = frozenset(self.elements)
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, g: Permutation) -> bool:
        return g in self._set

    def __iter__(self):
        return iter(self.elements)

    def is_abelian(self) -> bool:
        got = self._cache.get("abelian")
        if got is None:
            gens = self.generators
            got = all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])
            self._cache["abelian"] = got
        return got

    def exponent(self) -> int:
        """The lcm of the element orders: of the generators' when the group
        is abelian, of the class representatives' otherwise."""
        got = self._cache.get("exponent")
        if got is None:
            if self.is_abelian():
                reps = self.generators
            else:
                reps = [cls.representative for cls in conjugacy_classes(self)]
            got = math.lcm(*(g.order() for g in reps))
            self._cache["exponent"] = got
        return got

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"FiniteGroup[{label}, order {self.order}]"


class ConjugacyClass(namedtuple("ConjugacyClass", "representative members centralizer_order")):
    """One conjugacy class: sorted members, least member as representative."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


def make_group(degree, generators, *, order_cap=DEFAULT_ORDER_CAP, name=None) -> FiniteGroup:
    """Close a generating set under multiplication.

    Breadth-first closure; raises CapExceeded as soon as the element count
    passes order_cap (default 100000), or the element count times the degree
    would pass DEFAULT_CELL_CAP (2^24), before the element is stored.
    """
    gens = []
    for g in generators:
        if not isinstance(g, Permutation):
            g = Permutation(g)
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} does not match {degree}")
        if not g.is_identity():
            gens.append(g)
    elems = _closure(degree, gens, order_cap, DEFAULT_CELL_CAP)
    return FiniteGroup(degree, gens or [Permutation.identity(degree)], sorted(elems), name=name)


def _closure(
    degree: int, gens: list[Permutation], order_cap=math.inf, cell_cap=math.inf
) -> set[Permutation]:
    ident = Permutation.identity(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for a in frontier:
            for g in gens:
                b = g * a
                if b not in elems:
                    if len(elems) >= order_cap:
                        raise CapExceeded(f"group order exceeds order cap {order_cap}")
                    if (len(elems) + 1) * degree > cell_cap:
                        raise CapExceeded(
                            f"group order times degree {degree} exceeds cell cap {cell_cap}"
                        )
                    elems.add(b)
                    next_frontier.append(b)
        frontier = next_frontier
    return elems


def _refuse_oversized(degree: int, order: int):
    """Refuse, before its points exist, an atom that _closure would refuse,
    with its message; order is the atom's order or a lower bound on it.  The
    closure meets the order cap first when that many elements fit the cell cap."""
    if order > DEFAULT_ORDER_CAP and DEFAULT_ORDER_CAP * degree <= DEFAULT_CELL_CAP:
        raise CapExceeded(f"group order exceeds order cap {DEFAULT_ORDER_CAP}")
    if order * degree > DEFAULT_CELL_CAP:
        raise CapExceeded(f"group order times degree {degree} exceeds cell cap {DEFAULT_CELL_CAP}")


def _minimal_generators(degree: int, elements) -> list[Permutation]:
    """Greedy small generating set for a group given by its element list."""
    gens: list[Permutation] = []
    closed: set[Permutation] = {Permutation.identity(degree)}
    for g in elements:
        if g not in closed:
            gens.append(g)
            closed = _closure(degree, gens)
            if len(closed) == len(elements):
                break
    return gens or [Permutation.identity(degree)]


def _from_elements(degree, elements, name=None) -> FiniteGroup:
    """Wrap an element list that is already known to be closed (e.g. a centralizer)."""
    elements = sorted(elements)
    return FiniteGroup(degree, _minimal_generators(degree, elements), elements, name=name)


def orbit_search(items, gens, move) -> list[list]:
    """Partition items into orbits under a group given by its generators.

    move(x, s) is the image of x under the generator s.  Items are visited in
    the given order; each orbit is found by breadth-first search from the
    first of its items met, and orbits are returned in that order, each one
    sorted.  Items must be hashable and ordered, and the orbits must stay
    inside the item set.
    """
    seen = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:  # the list grows while it is walked
            for s in gens:
                z = move(y, s)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def _unit_generators(units, n: int) -> list[int]:
    """Units mod n taken greedily from the given ones, each outside the group
    the earlier ones generate: together they generate the same group.  A lazy
    iterable is drawn only until they generate all of (Z/n)^*, one unit past."""
    gens, span, full = [], {1 % n}, euler_phi(n)
    for u in takewhile(lambda _: len(span) < full, units):
        if u % n not in span:
            gens.append(u)
            (orbit,) = orbit_search([1 % n], gens, lambda x, s: x * s % n)
            span = set(orbit)
    return gens


def extend_to_group(G: FiniteGroup, gens, images, compose, one) -> dict:
    """{element: image} grown breadth first along the Cayley graph of gens:
    the identity maps to one, and g * s to compose(image of g, image of s).
    HkrError unless the walk covers G and every edge g -> g * s obeys that
    rule, which makes the map a homomorphism (for a G-set, a left action)."""
    edges = list(zip(gens, images))
    out = {G.identity: one}
    walk = [G.identity]
    for g in walk:  # the list grows while it is walked
        for s, image in edges:
            h = g * s
            if h not in out:
                out[h] = compose(out[g], image)
                walk.append(h)
    if len(out) != G.order:
        raise HkrError("action table does not cover the group")
    for g in G.elements:
        for s, image in edges:
            if out[g * s] != compose(out[g], image):
                raise HkrError("action is not compatible with multiplication")
    return out


def conjugacy_classes(G: FiniteGroup) -> list[ConjugacyClass]:
    """Conjugacy classes in canonical order: by size, then least representative.

    Each class is found as the orbit of one element under conjugation by the
    group's generators; centralizer orders come from the orbit-stabilizer count.
    An abelian group's classes are its elements, in element order.
    """
    got = G._cache.get("classes")
    if got is not None:
        return got
    if G.is_abelian():
        classes = [ConjugacyClass(g, (g,), G.order) for g in G.elements]
    else:
        classes = [
            ConjugacyClass(orbit[0], tuple(orbit), G.order // len(orbit))
            for orbit in orbit_search(G.elements, G.generators, Permutation.conjugate_by)
        ]
        classes.sort(key=lambda c: (c.size, c.representative.images))
    G._cache["classes"] = classes
    return classes


def class_index(G: FiniteGroup) -> dict[tuple[int, ...], int]:
    """Each element's position in conjugacy_classes(G), keyed by its image
    tuple: the one element-to-class map, built once per group."""
    got = G._cache.get("class_index")
    if got is None:
        got = {g.images: i for i, cls in enumerate(conjugacy_classes(G)) for g in cls.members}
        G._cache["class_index"] = got
    return got


def _power_roots(G: FiniteGroup) -> list[tuple[list[int], int]]:
    """(walk, d) per class: g^d is in the class, walk[e] the class of g^e for
    e < ord(g).  Built once per group, in class order: a class no earlier
    walk reached walks the powers of its representative g, with d = 1."""
    got = G._cache.get("power_roots")
    if got is None:
        classes = conjugacy_classes(G)
        loc = class_index(G)
        ident = G.identity
        got = [None] * len(classes)
        for k in range(len(classes)):
            if got[k] is not None:
                continue
            g = h = classes[k].representative
            walk = [loc[ident.images]]
            while h != ident:
                walk.append(loc[h.images])
                h = h * g
            for d, j in enumerate(walk):
                if got[j] is None:
                    got[j] = (walk, d)
        G._cache["power_roots"] = got
    return got


def class_orders(G: FiniteGroup) -> list[int]:
    """The order of each class's elements, read off its root walk."""
    return [len(walk) // math.gcd(d, len(walk)) for walk, d in _power_roots(G)]


def _p_power_class_indices(G: FiniteGroup, p: int) -> list[int]:
    """The classes of p-power order."""
    return [k for k, o in enumerate(class_orders(G)) if p_part(o, p) == o]


def power_walk(G: FiniteGroup, k: int) -> list[int]:
    """walk[e % len(walk)] is the class of h^e for h in class k, and
    len(walk) is the order of h: every d-th step of its root walk."""
    walk, d = _power_roots(G)[k]
    return [walk[d * e % len(walk)] for e in range(len(walk) // math.gcd(d, len(walk)))]


def power_map(G: FiniteGroup) -> list[list[int]]:
    """power_walk(G, k) for every class k, built once per group."""
    if "power_map" not in G._cache:
        G._cache["power_map"] = [power_walk(G, k) for k in range(len(conjugacy_classes(G)))]
    return G._cache["power_map"]


def centralizer(G: FiniteGroup, S) -> FiniteGroup:
    """Centralizer of a set of elements of G, as a group on the same points."""
    S = list(S)
    for s in S:
        if s not in G:
            raise ValueError(f"{s!r} is not an element of the group")
    elems = [g for g in G.elements if all(g * s == s * g for s in S)]
    return _from_elements(G.degree, elems)


def direct_product(A: FiniteGroup, B: FiniteGroup, name=None) -> FiniteGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    d = A.degree + B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation._raw(g.images + tuple(range(A.degree, d))))
    shift = A.degree
    for h in B.generators:
        gens.append(
            Permutation._raw(tuple(range(shift)) + tuple(i + shift for i in h.images))
        )
    if name is None:
        name = f"{A.name or '?'}*{B.name or '?'}"
    order_cap = max(DEFAULT_ORDER_CAP, A.order * B.order + 1)
    return make_group(d, gens, order_cap=order_cap, name=name)


def sym_group(m: int) -> FiniteGroup:
    if m < 0:
        raise ParseError("Sym(m) needs m >= 0")
    degree = max(m, 0)
    if m <= 1:
        return make_group(degree, [], name=f"Sym({m})")
    gens = [
        Permutation.from_cycles(m, [(0, 1)]),
        Permutation.from_cycles(m, [tuple(range(m))]),
    ]
    return make_group(m, gens, name=f"Sym({m})")


def cyc_group(m: int) -> FiniteGroup:
    if m < 1:
        raise ParseError("Cyc(m) needs m >= 1")
    if m == 1:
        return make_group(1, [], name="Cyc(1)")
    gen = Permutation.from_cycles(m, [tuple(range(m))])
    return make_group(m, [gen], name=f"Cyc({m})")


def dih_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m on the vertices of an m-gon.

    Dih(1) and Dih(2) are degenerate; they are realized faithfully on two and
    four points respectively.
    """
    if m < 1:
        raise ParseError("Dih(m) needs m >= 1")
    if m == 1:
        return make_group(2, [Permutation.from_cycles(2, [(0, 1)])], name="Dih(1)")
    if m == 2:
        gens = [
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(2, 3)]),
        ]
        return make_group(4, gens, name="Dih(2)")
    rot = Permutation.from_cycles(m, [tuple(range(m))])
    refl = Permutation._raw(tuple((m - i) % m for i in range(m)))
    return make_group(m, [rot, refl], name=f"Dih({m})")


def q8_group() -> FiniteGroup:
    """The quaternion group of order 8, in its regular representation.

    Points 0..7 stand for 1, i, -1, -i, j, k, -j, -k; the generators are left
    multiplication by i and by j.
    """
    a = Permutation.from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    b = Permutation.from_cycles(8, [(0, 4, 2, 6), (1, 7, 3, 5)])
    return make_group(8, [a, b], name="Q8")


_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[()*;,])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r} in group expression")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _SpecParser:
    """Recursive-descent parser for group expressions.

    Grammar (whitespace-insensitive between tokens):

        expr    := atom ("*" atom)*
        atom    := "Sym" "(" INT ")" | "Cyc" "(" INT ")" | "Dih" "(" INT ")"
                 | "Q8" | "Perm" "(" INT ";" gens ")" | "(" expr ")"
        gens    := gen ("," gen)*
        gen     := cycle+
        cycle   := "(" INT+ ")"
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of group expression {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r} in {self.text!r}")
        self.pos += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer but found {tok!r} in {self.text!r}")
        return int(tok)

    def parse(self) -> FiniteGroup:
        g = self.parse_expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens after group expression: {self.peek()!r}")
        return g

    def parse_expr(self) -> FiniteGroup:
        g = self.parse_atom()
        while self.peek() == "*":
            self.take("*")
            h = self.parse_atom()
            g = direct_product(g, h, name=f"{g.name}*{h.name}")
        return g

    def parse_atom(self) -> FiniteGroup:
        tok = self.peek()
        if tok == "(":
            self.take("(")
            g = self.parse_expr()
            self.take(")")
            return g
        if tok == "Q8":
            self.take()
            return q8_group()
        if tok in ("Sym", "Cyc", "Dih"):
            self.take()
            self.take("(")
            m = self.take_int()
            self.take(")")
            # 9! already passes the order cap; Dih(1) and Dih(2) act on 2 and 4 points
            order = {"Sym": math.factorial(min(m, 9)), "Cyc": m, "Dih": 2 * m}[tok]
            _refuse_oversized(2 * m if tok == "Dih" and m < 3 else m, order)
            return {"Sym": sym_group, "Cyc": cyc_group, "Dih": dih_group}[tok](m)
        if tok == "Perm":
            return self.parse_perm()
        raise ParseError(f"expected a group name but found {tok!r} in {self.text!r}")

    def parse_perm(self) -> FiniteGroup:
        self.take("Perm")
        self.take("(")
        degree = self.take_int()
        self.take(";")
        gens = [self.parse_generator(degree)]
        while self.peek() == ",":
            self.take(",")
            gens.append(self.parse_generator(degree))
        self.take(")")
        name = f"Perm({degree}; " + ", ".join(g.cycle_string() for g in gens) + ")"
        return make_group(degree, gens, name=name)

    def parse_generator(self, degree: int) -> Permutation:
        cycles = [self.parse_cycle()]
        while self.peek() == "(":
            cycles.append(self.parse_cycle())
        _refuse_oversized(degree, 1 + any(len(c) > 1 for c in cycles))  # nontrivial: 2+ elements
        try:
            return Permutation.from_cycles(degree, cycles)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def parse_cycle(self) -> tuple[int, ...]:
        self.take("(")
        pts = []
        while self.peek() != ")":
            pts.append(self.take_int())
        self.take(")")
        if not pts:
            raise ParseError("empty cycle in group expression")
        return tuple(pts)


_named_cache: dict[str, FiniteGroup] = {}


def named_group(spec: str) -> FiniteGroup:
    """Parse a group expression like "Sym(3)", "Cyc(2)*Cyc(4)", or
    "Perm(4; (0 1)(2 3), (0 2))" and build the group.

    Results are shared per spec string: groups are immutable, and sharing
    lets derived data (classes, tables) be computed once per process.
    """
    key = "".join(spec.split())
    got = _named_cache.get(key)
    if got is None:
        got = _SpecParser(spec).parse()
        _named_cache[key] = got
    return got
