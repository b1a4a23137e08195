"""Fixed-point constructions for finite G-sets.

The central object is fix_n(X, p, n): the G-set of pairs (alpha, x) where
alpha is a commuting n-tuple of p-power-order elements and x is a point fixed
by every entry, with the intertwined action g.(alpha, x) = (g alpha g^-1, g.x).
Around it: orbit/stabilizer censuses with the rank-prediction consistency
contract, the iterated-fix bijection Fix_1(Fix_{n-1}(X)) = Fix_n(X), the
GL_n(Z/p^k) action by precomposition, and the free-loop count identity for
p-groups.

Every GSet verifies its own action laws on construction, so each derived
G-set (fixed points, unions) re-proves equivariance of the construction that
produced it.
"""

from __future__ import annotations

from collections import namedtuple

from .commuting import _conjugate_entries, evaluate, hom_tuples, rank_prediction, tuple_classes
from .errors import HkrError
from .groupcore import FiniteGroup, Permutation, _compose, extend_to_group, make_group, named_group, orbit_search
from .primality import prime_factors

__all__ = [
    "GSet",
    "FixPoint",
    "OrbitCensus",
    "fix_n",
    "orbit_census",
    "iterate_fix_check",
    "IterateFixResult",
    "gl_on_fix",
    "loops_pgroup_check",
    "LoopsCheck",
    "trivial_gset",
    "regular_gset",
    "coset_gset",
    "disjoint_union",
    "gset_from_json",
]


class GSet:
    """A finite left G-set with the action table built and verified.

    The constructor receives the images of every point under every group
    generator; the full action is grown along the Cayley graph and then the
    identity and compatibility laws are checked for all elements, generators,
    and points, so an inconsistent action cannot produce a GSet.
    """

    __slots__ = ("group", "points", "index", "maps", "name")

    def __init__(self, group: FiniteGroup, points, gen_images, *, name: str = ""):
        self.group = group
        self.points = tuple(points)
        self.name = name
        self.index = {x: i for i, x in enumerate(self.points)}
        if len(self.index) != len(self.points):
            raise ValueError("point labels must be distinct")
        gens = list(group.generators)
        if len(gen_images) != len(gens):
            raise ValueError("one image list per group generator expected")
        gen_maps = []
        for imgs in gen_images:
            try:
                row = tuple(self.index[x] for x in imgs)
            except KeyError as missing:
                raise ValueError(f"generator image {missing} is not a point") from None
            if len(row) != len(self.points) or len(set(row)) != len(row):
                raise ValueError("generator image is not a permutation of the points")
            gen_maps.append(row)
        # left action: (g s).x = g.(s.x)
        self.maps = extend_to_group(
            group, gens, gen_maps, _compose, tuple(range(len(self.points)))
        )

    @property
    def size(self) -> int:
        return len(self.points)

    def act(self, g: Permutation, x):
        return self.points[self.maps[g][self.index[x]]]

    def orbit_indices(self) -> list[list[int]]:
        """Orbits as sorted index lists, ordered by least member."""
        gen_maps = [self.maps[s] for s in self.group.generators]
        return orbit_search(range(len(self.points)), gen_maps, lambda x, gm: gm[x])

    def stabilizer_order(self, x) -> int:
        i = self.index[x]
        return sum(1 for mp in self.maps.values() if mp[i] == i)

    def stabilizer(self, x) -> FiniteGroup:
        i = self.index[x]
        elems = [g for g, mp in self.maps.items() if mp[i] == i]
        return make_group(self.group.degree, elems, name=None)

    def to_json(self) -> dict:
        gens = list(self.group.generators)
        return {
            "group": self.group.name or f"degree-{self.group.degree}",
            "points": [str(x) for x in self.points],
            "action": {
                s.cycle_string(): [str(self.points[self.maps[s][i]]) for i in range(self.size)]
                for s in gens
            },
        }

    def __repr__(self):
        label = self.name or f"{self.size} points"
        return f"GSet[{label}]"


class FixPoint(namedtuple("FixPoint", "alpha point")):
    """A commuting tuple together with a point fixed by all of its entries."""

    __slots__ = ()

    def __repr__(self):
        inner = ", ".join(e.cycle_string() for e in self.alpha)
        return f"FixPoint[({inner}); {self.point!r}]"


def trivial_gset(G: FiniteGroup) -> GSet:
    pt = "pt"
    return GSet(G, (pt,), [[pt] for _ in G.generators], name="point")


def regular_gset(G: FiniteGroup) -> GSet:
    """G acting on itself by left translation; labels are the elements."""
    pts = list(G.elements)
    return GSet(G, pts, [[s * x for x in pts] for s in G.generators], name="regular")


def coset_gset(G: FiniteGroup, H: FiniteGroup, *, name: str = "") -> GSet:
    """Left cosets gH with the translation action.

    Cosets are labeled by the cycle string of their least element, which
    keeps point labels deterministic and JSON-friendly.
    """
    for h in H.elements:
        if h not in G:
            raise ValueError("H is not a subgroup of G")
    members = {}
    for g in G.elements:
        key = min(g * h for h in H.elements)
        members.setdefault(key, frozenset(g * h for h in H.elements))
    keys = sorted(members)
    label_of = {key: key.cycle_string() + "H" for key in keys}
    images = []
    for s in G.generators:
        images.append([label_of[min(s * x for x in members[key])] for key in keys])
    return GSet(G, [label_of[key] for key in keys], images, name=name or "cosets")


def disjoint_union(X: GSet, Y: GSet) -> GSet:
    if X.group is not Y.group and X.group.elements != Y.group.elements:
        raise ValueError("both G-sets must share the same group")
    pts = [(0, x) for x in X.points] + [(1, y) for y in Y.points]
    images = []
    for s in X.group.generators:
        mx, my = X.maps[s], Y.maps[s]
        images.append(
            [(0, X.points[mx[i]]) for i in range(X.size)]
            + [(1, Y.points[my[i]]) for i in range(Y.size)]
        )
    return GSet(X.group, pts, images, name=f"{X.name or 'X'}+{Y.name or 'Y'}")


def gset_from_json(doc) -> GSet:
    """Build a GSet from {group, points, action[, name]}, the shape that
    docs/schemas/gset.schema.json documents (any other is a ValueError); the
    action maps each generator's cycle string to the images of the points."""
    if not (isinstance(doc, dict) and {"group", "points", "action"} <= doc.keys() <= {"group", "points", "action", "name"}
            and isinstance(doc["group"], str) and isinstance(doc.get("name", ""), str) and isinstance(doc["action"], dict)
            and all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in [doc["points"], *doc["action"].values()])):
        raise ValueError("a G-set is {group, points, action[, name]}: group and name strings, points and images lists of strings")
    G = named_group(doc["group"])
    try:
        gen_images = [doc["action"][s.cycle_string()] for s in G.generators]
    except KeyError as missing:
        raise ValueError(f"action missing generator {missing}") from None
    return GSet(G, doc["points"], gen_images, name=doc.get("name", ""))


# ---------------------------------------------------------------------------
# Fix_n

_fix_cache: dict = {}
_entry_orders: dict = {}  # by Fix_n G-set: its entries' distinct orders, first met first


def fix_n(X: GSet, p: int, n: int) -> GSet:
    """The G-set of pairs (alpha, x): alpha a commuting n-tuple of p-power
    order, x a point of X fixed by every entry of alpha.

    Points are ordered by (alpha, point index); the action is
    g.(alpha, x) = (g alpha g^-1, g.x), re-verified by the GSet constructor.
    Results are memoized per GSet instance.
    """
    cache_key = (X, p, n)
    got = _fix_cache.get(cache_key)
    if got is not None:
        return got
    G = X.group
    tuples = hom_tuples(G, p, n)
    pts = []
    for t in tuples:
        entry_maps = [X.maps[e] for e in t]
        for i in range(X.size):
            if all(mp[i] == i for mp in entry_maps):
                pts.append(FixPoint(t, X.points[i]))
    images = []
    for s in G.generators:
        smap = X.maps[s]
        row = []
        for fp in pts:
            row.append(
                FixPoint(_conjugate_entries(fp.alpha, s), X.points[smap[X.index[fp.point]]])
            )
        images.append(row)
    label = X.name or "X"
    F = GSet(G, pts, images, name=f"Fix_{n}({label}; p={p})")
    _fix_cache[cache_key] = F
    return F


class OrbitCensus(namedtuple("OrbitCensus", "orbits total_points predicted consistent")):
    """Orbit census of fix_n(X, p, n) with the consistency contract evaluated.

    predicted is the sum of rank_prediction(H, p, n) over the orbits G/H of
    the underlying G-set X; consistent records whether the orbit count
    matches it.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.orbits)

    def to_json(self) -> dict:
        return {
            "orbits": [
                {
                    "size": size,
                    "stabilizer_order": stab,
                    "alpha_rep": list(alpha_rep),
                }
                for size, stab, alpha_rep in self.orbits
            ],
            "total_points": self.total_points,
            "predicted": self.predicted,
            "consistent": self.consistent,
        }


def orbit_census(X: GSet, p: int, n: int) -> OrbitCensus:
    """Census of G-orbits on fix_n(X, p, n).

    Each orbit contributes (size, stabilizer order of the least
    representative, alpha of that representative as cycle strings); the
    orbit-stabilizer product is asserted per orbit, and the census is
    compared with the subgroup rank-prediction sum over the orbits of X.
    """
    F = fix_n(X, p, n)
    G = X.group
    records = []
    for orb in F.orbit_indices():
        rep = F.points[orb[0]]
        stab = F.stabilizer_order(rep)
        if stab * len(orb) != G.order:
            raise HkrError("orbit-stabilizer product is off")
        alpha_rep = tuple(e.cycle_string() for e in rep.alpha)
        records.append((len(orb), stab, alpha_rep))
    predicted = 0
    for orb in X.orbit_indices():
        H = X.stabilizer(X.points[orb[0]])
        predicted += rank_prediction(H, p, n)
    return OrbitCensus(
        orbits=tuple(records),
        total_points=F.size,
        predicted=predicted,
        consistent=len(records) == predicted,
    )


IterateFixResult = namedtuple("IterateFixResult", ["ok", "forward"])


def iterate_fix_check(X: GSet, p: int, n: int) -> IterateFixResult:
    """Verify Fix_1(Fix_{n-1}(X)) = Fix_n(X) via the regrouping bijection
    ((a_n), ((a_1..a_{n-1}), x)) -> ((a_1..a_n), x), including equivariance.
    """
    if n < 2:
        raise ValueError("iterated fix needs n >= 2")
    G = X.group
    inner = fix_n(X, p, n - 1)
    outer = fix_n(inner, p, 1)
    direct = fix_n(X, p, n)

    forward = {q: FixPoint(q.point.alpha + q.alpha, q.point.point) for q in outer.points}

    ok = set(forward.values()) == set(direct.points) and len(
        set(forward.values())
    ) == len(forward)
    if ok:
        for s in G.generators:
            omap, dmap = outer.maps[s], direct.maps[s]
            for q in outer.points:
                moved = outer.points[omap[outer.index[q]]]
                if forward[moved] != direct.points[dmap[direct.index[forward[q]]]]:
                    ok = False
                    break
            if not ok:
                break
    return IterateFixResult(ok, forward)


def gl_on_fix(X: GSet, p: int, n: int, k: int, sigma: tuple) -> dict:
    """The automorphism (alpha, x) -> (alpha composed with sigma, x) of
    fix_n(X, p, n), as a point mapping; sigma is a tuple of n rows over Z/p^k.

    Precomposition alone composes contravariantly, so sigma acts through its
    rows: entry i of the new alpha is prod_j alpha_j ** sigma[i][j], and
    gl_on_fix(sigma) o gl_on_fix(tau) is gl_on_fix(gl_mul(sigma, tau, p^k)).
    Requires p^k to annihilate every tuple entry.
    """
    if len(sigma) != n or any(len(row) != n for row in sigma):
        raise ValueError(f"expected a {n} x {n} matrix")
    F = fix_n(X, p, n)
    orders = _entry_orders.get(F)
    if orders is None:
        entries = dict.fromkeys(e for fp in F.points for e in fp.alpha)
        orders = _entry_orders[F] = list(dict.fromkeys(e.order() for e in entries))
    mod = p**k
    for o in orders:
        if mod % o:
            raise HkrError(f"k too small: entry of order {o} at level p^{k}")
    ident = X.group.identity
    mapping = {fp: FixPoint(tuple(evaluate(fp.alpha, row, ident) for row in sigma), fp.point)
               for fp in F.points}
    if set(mapping.values()) != set(F.points):
        raise HkrError("matrix action is not a bijection on fixed points")
    for s in X.group.generators:
        fmap = F.maps[s]
        for fp in F.points:
            moved = F.points[fmap[F.index[fp]]]
            if mapping[moved] != FixPoint(
                _conjugate_entries(mapping[fp].alpha, s), X.act(s, mapping[fp].point)
            ):
                raise HkrError("matrix action does not commute with the group action")
    return mapping


LoopsCheck = namedtuple(
    "LoopsCheck", ["ok", "hom_count", "all_count", "hom_classes", "all_classes"]
)


def loops_pgroup_check(G: FiniteGroup, n: int) -> LoopsCheck:
    """For a p-group, commuting n-tuples with no order restriction are the
    p-power-order ones; two routes must agree on their count and on their
    number of conjugation classes.

    The hom side enumerates the tuples and searches their orbits.  The other
    side lists no tuple: rank_prediction's centralizer recursion counts the
    classes, and Burnside's lemma the tuples.  A commuting n-tuple (t, g) is
    an (n-1)-tuple t and an element g of its stabilizer under conjugation,
    so there are |G| times as many as there are (n-1)-tuple classes.
    The trivial group counts as a p-group at p = 2 (any prime works).
    """
    factors = prime_factors(G.order) or [2]
    if len(factors) != 1:
        raise HkrError(f"group of order {G.order} is not a p-group")
    (p,) = factors
    hom_count = len(hom_tuples(G, p, n))
    hom_classes = len(tuple_classes(G, p, n))
    all_count = G.order * rank_prediction(G, p, n - 1) if n >= 1 else 1
    all_classes = rank_prediction(G, p, n)
    ok = hom_count == all_count and hom_classes == all_classes
    return LoopsCheck(ok, hom_count, all_count, hom_classes, all_classes)
