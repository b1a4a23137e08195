"""Inertia construction on finite G-sets and its consistency contracts.

fix_n sizes are cross-checked against hom_tuples counts on the point and
against freeness on the regular action, so the two modules audit each other.
"""

import itertools

import pytest

from hkr.commuting import evaluate, gl_matrices, gl_mul, hom_tuples, rank_prediction
from hkr.errors import CapExceeded, HkrError
from hkr.groupcore import Permutation, make_group, named_group
from hkr.inertia import (
    GSet,
    coset_gset,
    disjoint_union,
    fix_n,
    gl_on_fix,
    gset_from_json,
    iterate_fix_check,
    loops_pgroup_check,
    orbit_census,
    regular_gset,
    trivial_gset,
)


EVAL_CHECK_WORK_CAP = 1_000_000


def product_gset(X, Y):
    """X x Y with the diagonal action; GSet re-proves the action laws."""
    pts = [(x, y) for x in X.points for y in Y.points]
    images = [
        [(X.points[X.maps[s][i]], Y.points[Y.maps[s][j]]) for i in range(X.size) for j in range(Y.size)]
        for s in X.group.generators
    ]
    return GSet(X.group, pts, images)


def evaluation_hom_check(G, p, alpha, k):
    """Exhaustively verify that (l, c) -> evaluate(alpha, l) * c is a
    homomorphism (Z/p^k)^n x C(im alpha) -> G, over all pairs of domain
    elements, whose number squared must stay under the work cap."""
    mod = p**k
    for e in alpha:
        if mod % e.order():
            raise HkrError(f"k too small: entry of order {e.order()} at level p^{k}")
    cent = [g for g in G.elements if all(g * e == e * g for e in alpha)]
    dom = mod ** len(alpha) * len(cent)
    if dom * dom > EVAL_CHECK_WORK_CAP:
        raise CapExceeded(f"evaluation check domain {dom}^2 exceeds cap")
    ident = G.identity
    domain = [(l, c) for l in itertools.product(range(mod), repeat=len(alpha)) for c in cent]
    value = {(l, c): evaluate(alpha, l, ident) * c for l, c in domain}
    for l1, c1 in domain:
        for l2, c2 in domain:
            summed = tuple((a + b) % mod for a, b in zip(l1, l2))
            if value[(summed, c1 * c2)] != value[(l1, c1)] * value[(l2, c2)]:
                return False
    return True


def c3_in_s3():
    return make_group(3, [Permutation((1, 2, 0))])


def test_gset_rejects_duplicate_points():
    G = named_group("Cyc(2)")
    with pytest.raises(ValueError):
        GSet(G, ["a", "a"], [["a", "a"]])


def test_gset_rejects_wrong_image_count():
    G = named_group("Sym(3)")
    with pytest.raises(ValueError):
        GSet(G, ["a"], [["a"]])


def test_gset_rejects_non_permutation_image():
    G = named_group("Cyc(2)")
    with pytest.raises(ValueError):
        GSet(G, ["a", "b"], [["a", "a"]])


def test_gset_rejects_incompatible_action():
    # (0 1) acting trivially while (0 1 2) rotates breaks the relations
    G = named_group("Sym(3)")
    with pytest.raises(HkrError):
        GSet(G, ["a", "b", "c"], [["a", "b", "c"], ["b", "c", "a"]])


def test_constructor_gsets_shapes():
    G = named_group("Sym(3)")
    pt = trivial_gset(G)
    assert pt.size == 1
    assert pt.stabilizer_order(pt.points[0]) == G.order

    reg = regular_gset(G)
    assert reg.size == G.order
    assert reg.orbit_indices() == [list(range(G.order))]
    assert reg.stabilizer_order(reg.points[0]) == 1
    assert reg.act(reg.points[2], reg.points[0]) == reg.points[2] * reg.points[0]

    both = disjoint_union(pt, reg)
    assert both.size == 1 + G.order
    assert len(both.orbit_indices()) == 2

    prod = product_gset(reg, pt)
    assert prod.size == G.order
    assert prod.points[0] == (reg.points[0], pt.points[0])


def test_coset_gset_translation():
    G = named_group("Sym(3)")
    H = c3_in_s3()
    X = coset_gset(G, H)
    assert X.size == G.order // H.order == 2
    assert X.orbit_indices() == [[0, 1]]
    for x in X.points:
        assert X.stabilizer_order(x) * X.size == G.order


def test_coset_gset_rejects_non_subgroup():
    G = named_group("Sym(3)")
    with pytest.raises(ValueError):
        coset_gset(G, named_group("Cyc(4)"))


def test_stabilizer_is_a_group_of_the_right_order():
    G = named_group("Sym(3)")
    X = coset_gset(G, c3_in_s3())
    S = X.stabilizer(X.points[0])
    assert S.order == X.stabilizer_order(X.points[0])
    for g in S.elements:
        assert X.act(g, X.points[0]) == X.points[0]


def test_fix_on_point_counts_hom_tuples():
    for spec, p, n in (("Sym(3)", 2, 1), ("Q8", 2, 2), ("Dih(4)", 2, 2), ("Cyc(6)", 3, 2)):
        G = named_group(spec)
        F = fix_n(trivial_gset(G), p, n)
        assert F.size == len(hom_tuples(G, p, n))


def test_fix_on_regular_action_sees_only_trivial_tuples():
    # left translation is free, so a fixed point forces every entry to be e
    for spec, p, n in (("Sym(3)", 2, 1), ("Q8", 2, 2)):
        G = named_group(spec)
        F = fix_n(regular_gset(G), p, n)
        assert F.size == G.order
        for fp in F.points:
            assert all(e.is_identity() for e in fp.alpha)


def test_fix_point_action_formula():
    G = named_group("Q8")
    X = regular_gset(G)
    F = fix_n(X, 2, 1)
    for s in G.generators:
        fmap = F.maps[s]
        for fp in F.points:
            moved = F.points[fmap[F.index[fp]]]
            assert moved.alpha == tuple(e.conjugate_by(s) for e in fp.alpha)
            assert moved.point == X.act(s, fp.point)


def test_fix_is_additive_over_disjoint_union():
    G = named_group("Dih(4)")
    X = trivial_gset(G)
    Y = regular_gset(G)
    both = fix_n(disjoint_union(X, Y), 2, 2)
    assert both.size == fix_n(X, 2, 2).size + fix_n(Y, 2, 2).size


def test_fix_results_are_memoized():
    G = named_group("Sym(3)")
    X = trivial_gset(G)
    assert fix_n(X, 2, 1) is fix_n(X, 2, 1)


def test_orbit_census_on_point_matches_rank():
    for spec, p in (("Q8", 2), ("Dih(4)", 2), ("Sym(3)", 3)):
        G = named_group(spec)
        c = orbit_census(trivial_gset(G), p, 2)
        assert c.consistent
        assert c.count == rank_prediction(G, p, 2)
        assert c.total_points == len(hom_tuples(G, p, 2))
        assert sum(size for size, _, _ in c.orbits) == c.total_points
        for size, stab, _ in c.orbits:
            assert size * stab == G.order


def test_orbit_census_on_cosets_predicts_from_stabilizer():
    G = named_group("Sym(3)")
    H = c3_in_s3()
    c = orbit_census(coset_gset(G, H), 3, 1)
    assert c.consistent
    assert c.predicted == rank_prediction(H, 3, 1) == 3
    assert c.count == 3 and c.total_points == 6


def test_orbit_census_json_shape():
    doc = orbit_census(trivial_gset(named_group("Cyc(2)")), 2, 1).to_json()
    assert set(doc) == {"orbits", "total_points", "predicted", "consistent"}
    assert all(set(o) == {"size", "stabilizer_order", "alpha_rep"} for o in doc["orbits"])


def test_iterate_fix_agrees_with_direct_fix():
    cases = [
        (trivial_gset(named_group("Q8")), 2, 2),
        (regular_gset(named_group("Sym(3)")), 2, 2),
        (coset_gset(named_group("Sym(3)"), c3_in_s3()), 3, 2),
        (trivial_gset(named_group("Cyc(1)")), 2, 2),
    ]
    for X, p, n in cases:
        res = iterate_fix_check(X, p, n)
        assert res.ok
        direct = fix_n(X, p, n)
        assert sorted(map(repr, res.forward.values())) == sorted(map(repr, direct.points))


def test_iterate_fix_needs_two_levels():
    with pytest.raises(ValueError):
        iterate_fix_check(trivial_gset(named_group("Cyc(2)")), 2, 1)


def test_gl_identity_acts_trivially():
    X = trivial_gset(named_group("Q8"))
    ident = ((1, 0), (0, 1))
    mapping = gl_on_fix(X, 2, 2, 2, ident)
    assert all(mapping[fp] == fp for fp in mapping)


def test_gl_action_composes():
    X = trivial_gset(named_group("Cyc(4)"))
    mats = gl_matrices(2, 2, 2)
    maps = {m: gl_on_fix(X, 2, 2, 2, m) for m in mats}
    for sigma in mats[:12]:
        for tau in mats[:12]:
            prod = maps[gl_mul(sigma, tau, 4)]
            for fp in maps[tau]:
                assert prod[fp] == maps[sigma][maps[tau][fp]]


def test_gl_on_fix_rejects_wrong_level():
    X = trivial_gset(named_group("Q8"))
    with pytest.raises(ValueError):  # a 1 x 1 matrix at n = 2
        gl_on_fix(X, 2, 2, 2, ((1,),))
    # p^1 does not annihilate the order-4 entries
    with pytest.raises(HkrError):
        gl_on_fix(X, 2, 1, 1, ((1,),))


def test_evaluation_hom_exhaustive():
    for spec in ("Q8", "Dih(4)"):
        G = named_group(spec)
        for alpha in hom_tuples(G, 2, 1):
            assert evaluation_hom_check(G, 2, alpha, 2)


def test_evaluation_hom_level_and_cap():
    G = named_group("Q8")
    bad = next(t for t in hom_tuples(G, 2, 1) if t[0].order() == 4)
    with pytest.raises(HkrError):
        evaluation_hom_check(G, 2, bad, 1)
    C = named_group("Cyc(2)")
    (triv,) = [t for t in hom_tuples(C, 2, 1) if t[0].is_identity()]
    with pytest.raises(CapExceeded):
        evaluation_hom_check(C, 2, triv, 10)


def test_loops_counts_on_p_groups():
    q8 = loops_pgroup_check(named_group("Q8"), 2)
    d4 = loops_pgroup_check(named_group("Dih(4)"), 2)
    for res in (q8, d4):
        assert res.ok
        assert (res.hom_count, res.all_count) == (40, 40)
        assert (res.hom_classes, res.all_classes) == (22, 22)
    triv = loops_pgroup_check(named_group("Cyc(1)"), 2)
    assert triv.ok and triv.all_count == 1


def loops_cases():
    """The p-groups among the named groups of order <= 32, n from 0 to 3,
    n <= 2 above order 16."""
    from hkr.acceptance import named_suite
    from hkr.rings import prime_factors

    return [
        (G, n)
        for G in named_suite(32)
        if len(prime_factors(G.order) or [2]) == 1
        for n in range(4)
        if n <= 2 or G.order <= 16
    ]


def test_loops_routes_agree_on_named_p_groups():
    cases = loops_cases()
    assert len(cases) == 127
    for G, n in cases:
        assert loops_pgroup_check(G, n).ok, (G.name, n)


@pytest.mark.parametrize("route", ["rank_prediction", "hom_tuples"])
def test_loops_check_fails_when_one_route_is_off(monkeypatch, route):
    import hkr.inertia as inertia

    good = getattr(inertia, route)
    if route == "rank_prediction":
        monkeypatch.setattr(inertia, route, lambda G, p, n: good(G, p, n) + 1)
    else:
        monkeypatch.setattr(inertia, route, lambda G, p, n: good(G, p, n)[1:])
    for spec in ("Cyc(1)", "Cyc(4)", "Q8", "Dih(4)"):
        for n in range(3):
            assert not loops_pgroup_check(named_group(spec), n).ok, (spec, n)


def test_loops_rejects_composite_order():
    for spec in ("Sym(3)", "Cyc(6)"):
        with pytest.raises(HkrError):
            loops_pgroup_check(named_group(spec), 1)


def test_gset_json_round_trip():
    G = named_group("Sym(3)")
    X = coset_gset(G, c3_in_s3(), name="cosets")
    doc = X.to_json()
    assert set(doc) == {"group", "points", "action"}
    assert set(doc["action"]) == {s.cycle_string() for s in G.generators}
    Y = gset_from_json({"group": "Sym(3)", **{k: doc[k] for k in ("points", "action")}})
    assert list(Y.points) == list(doc["points"])
    for s in G.generators:
        assert [Y.act(s, x) for x in Y.points] == [str(X.act(s, x)) for x in X.points]


def test_gset_json_rejects_bad_docs():
    G = named_group("Cyc(2)")
    doc = trivial_gset(G).to_json()
    with pytest.raises(ValueError):
        gset_from_json({"group": "Cyc(2)", "points": doc["points"], "action": {"(9 9)": ["pt"]}})
    with pytest.raises(ValueError):
        gset_from_json({"group": "Cyc(2)", "points": ["a", "b"], "action": {"(0 1)": ["a", "a"]}})
