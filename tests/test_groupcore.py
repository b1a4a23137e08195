"""Group construction, the spec grammar, and conjugacy structure."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hkr.acceptance import named_suite
from hkr.errors import CapExceeded, ParseError
from hkr.groupcore import (
    ConjugacyClass,
    Permutation,
    centralizer,
    class_index,
    class_orders,
    conjugacy_classes,
    cyc_group,
    dih_group,
    direct_product,
    make_group,
    named_group,
    orbit_search,
    power_map,
    power_walk,
    q8_group,
    sym_group,
)


def brute_classes(G):
    """Conjugation orbits by direct orbit expansion, no centralizer tricks."""
    seen = set()
    out = []
    for g in G.elements:
        if g in seen:
            continue
        orbit = {h * g * h.inverse() for h in G.elements}
        seen |= orbit
        out.append(frozenset(orbit))
    return set(out)


def test_permutation_composition_applies_right_factor_first():
    a = Permutation((1, 0, 2))
    b = Permutation((0, 2, 1))
    ab = a * b
    for i in range(3):
        assert ab.images[i] == a.images[b.images[i]]


def test_permutation_inverse_and_power():
    g = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert g * g.inverse() == Permutation.identity(5)
    assert g.order() == 6
    for k in range(-6, 7):
        acc = Permutation.identity(5)
        for _ in range(abs(k)):
            acc = acc * (g if k >= 0 else g.inverse())
        assert g**k == acc


# degrees 0 and 1 drawn on purpose: there the products leave itemgetter
perm_pairs = (st.sampled_from([0, 1]) | st.integers(0, 10)).flatmap(
    lambda n: st.tuples(*[st.permutations(range(n)).map(Permutation)] * 2)
)


@settings(max_examples=300, deadline=None)
@given(perm_pairs, st.integers(0, 10**6))
def test_permutation_kernels_against_their_definitions(pair, r):
    a, b = pair
    points = range(a.degree)
    assert (a * b).images == tuple(a.images[b.images[i]] for i in points)
    assert all(a.inverse().images[a.images[i]] == i for i in points)
    assert all(a.conjugate_by(b).images[b.images[i]] == b.images[a.images[i]] for i in points)
    # a^0, a^1, ... by repeated products, up to the first return to the identity
    walk = [tuple(points)]
    while len(walk) == 1 or walk[-1] != walk[0]:
        walk.append(tuple(a.images[i] for i in walk[-1]))
    order = len(walk) - 1
    for k in [*range(-3 * order, 3 * order + 1), 10**40 + r, -(10**40 + r)]:
        assert (a**k).images == walk[k % order], k


def test_cycle_string_round_trip():
    g = Permutation.from_cycles(6, [(0, 3), (1, 4, 5)])
    assert g.cycle_string() == "(0 3)(1 4 5)"
    assert Permutation.identity(4).cycle_string() == "()"


def test_conjugate_by_convention():
    g = Permutation.from_cycles(4, [(0, 1)])
    h = Permutation.from_cycles(4, [(0, 2)])
    assert g.conjugate_by(h) == h * g * h.inverse()


def test_make_group_closure_and_order():
    G = make_group(3, [Permutation((1, 0, 2)), Permutation((1, 2, 0))])
    assert G.order == 6
    for a in G.elements:
        for b in G.elements:
            assert a * b in G
            assert a.inverse() in G


def test_make_group_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        make_group(3, [Permutation((1, 0, 2, 3))])


def test_make_group_order_cap():
    gens = [Permutation.from_cycles(9, [(0, 1)]), Permutation.from_cycles(9, [tuple(range(9))])]
    with pytest.raises(CapExceeded):
        make_group(9, gens, order_cap=1000)


def test_named_constructors_orders():
    assert cyc_group(1).order == 1
    assert cyc_group(12).order == 12
    assert dih_group(1).order == 2
    assert dih_group(7).order == 14
    assert sym_group(4).order == 24
    assert q8_group().order == 8
    assert q8_group().exponent() == 4
    # Q8 has a unique involution, unlike Dih(4) of the same order
    assert sum(1 for g in q8_group() if g.order() == 2) == 1


def test_grammar_accepts_spec_forms():
    cases = {
        "Cyc(6)": 6,
        "Sym(3)": 6,
        "Dih(5)": 10,
        "Q8": 8,
        "Cyc(2)*Cyc(3)": 6,
        "(Cyc(2)*Cyc(2))*Sym(3)": 24,
        "Perm(4; (0 1)(2 3), (0 2))": 8,
        " Cyc( 4 ) * Q8 ": 32,
    }
    for spec, order in cases.items():
        assert named_group(spec).order == order


def test_grammar_rejections_name_the_problem():
    for bad in ("Sim(3)", "Cyc(3", "Cyc(3))", "Perm(3; ())", "Cyc(x)", ""):
        with pytest.raises(ParseError):
            named_group(bad)


def test_named_group_shares_instances():
    assert named_group("Sym(3)") is named_group("Sym( 3 )")


def test_direct_product_structure():
    G = direct_product(cyc_group(2), sym_group(3))
    assert G.order == 12
    assert not G.is_abelian()
    assert G.exponent() == 6
    assert len(conjugacy_classes(G)) == 6


def test_conjugacy_classes_match_brute_force():
    for spec in ("Sym(3)", "Sym(4)", "Dih(4)", "Q8", "Cyc(2)*Dih(4)"):
        G = named_group(spec)
        got = {frozenset(c.members) for c in conjugacy_classes(G)}
        assert got == brute_classes(G)


def test_abelian_classes_equal_the_conjugation_orbits():
    # abelian classes are read off the element list; the orbit search is the
    # reference they must reproduce, centralizer orders included
    for G in named_suite(64):
        if not G.is_abelian():
            continue
        orbits = orbit_search(G.elements, G.generators, Permutation.conjugate_by)
        want = sorted(
            (ConjugacyClass(o[0], tuple(o), G.order // len(o)) for o in orbits),
            key=lambda c: (c.size, c.representative.images),
        )
        assert conjugacy_classes(G) == want
        assert [c.representative for c in want] == list(G.elements)


def test_conjugacy_class_invariants():
    for spec in ("Sym(4)", "Q8", "Dih(6)"):
        G = named_group(spec)
        classes = conjugacy_classes(G)
        assert sum(c.size for c in classes) == G.order
        assert classes[0].representative.is_identity()
        for c in classes:
            assert c.representative == min(c.members)
            assert c.centralizer_order * c.size == G.order
        # canonical order: by size, then least representative
        keys = [(c.size, c.representative) for c in classes]
        assert keys == sorted(keys)


def test_power_map_matches_powers_of_every_member():
    for spec in ("Sym(4)", "Q8", "Dih(6)", "Cyc(2)*Sym(3)"):
        G = named_group(spec)
        loc = class_index(G)
        walks = power_map(G)
        assert power_map(G) is walks  # built once per group
        for k, cls in enumerate(conjugacy_classes(G)):
            assert len(walks[k]) == cls.representative.order()
            for g in cls.members:
                assert loc[g.images] == k
                for e in range(-3, 2 * g.order() + 1):
                    assert walks[k][e % len(walks[k])] == loc[(g**e).images]


def test_power_map_matches_powers_on_the_named_suite():
    # the walks fill each class from whichever walk reaches it first
    for G in named_suite(200):
        loc = class_index(G)
        for cls, walk in zip(conjugacy_classes(G), power_map(G)):
            g, o = cls.representative, len(walk)
            assert o == g.order()
            assert walk[2 % o] == loc[(g**2).images] and walk[o - 1] == loc[(g ** (o - 1)).images]


def test_class_orders_are_the_orders_of_the_representatives():
    for G in named_suite(200):
        assert class_orders(G) == [cls.representative.order() for cls in conjugacy_classes(G)], G.name


def test_power_walk_is_the_power_map_row():
    for G in named_suite(200):
        walks = [power_walk(G, k) for k in range(len(conjugacy_classes(G)))]
        assert walks == power_map(G), G.name


def test_centralizer_against_brute_force():
    G = named_group("Sym(4)")
    for g in list(G.elements)[::5]:
        C = centralizer(G, [g])
        brute = {h for h in G.elements if h * g == g * h}
        assert set(C.elements) == brute
    pair = [G.elements[1], G.elements[5]]
    C = centralizer(G, pair)
    assert set(C.elements) == {
        h for h in G.elements if all(h * g == g * h for g in pair)
    }


def test_exponent_is_lcm_of_orders():
    for spec in ("Sym(4)", "Q8", "Cyc(12)", "Dih(6)", "Cyc(8)*Cyc(6)", "Cyc(2)*Q8", "Cyc(1)"):
        G = named_group(spec)
        assert G.exponent() == math.lcm(*(g.order() for g in G.elements))


def test_abelian_detection():
    assert named_group("Cyc(8)*Cyc(6)").is_abelian()
    assert not named_group("Dih(3)").is_abelian()


def test_class_dataclass_is_hashable():
    c = conjugacy_classes(named_group("Sym(3)"))[0]
    assert isinstance(c, ConjugacyClass)
    assert hash(c) == hash(c)


def test_closure_refuses_past_the_cell_cap(monkeypatch):
    from hkr import groupcore

    gen = Permutation.from_cycles(10, [tuple(range(10))])
    monkeypatch.setattr(groupcore, "DEFAULT_CELL_CAP", 100)
    assert make_group(10, [gen]).order == 10  # 10 elements * degree 10
    monkeypatch.setattr(groupcore, "DEFAULT_CELL_CAP", 99)
    with pytest.raises(CapExceeded, match="cell cap"):
        make_group(10, [gen])


def test_parser_refuses_oversized_atoms_before_their_points_exist(monkeypatch):
    from hkr import groupcore

    monkeypatch.setattr(groupcore, "DEFAULT_CELL_CAP", 100)
    degrees = []
    from_cycles = Permutation.from_cycles.__func__
    monkeypatch.setattr(Permutation, "from_cycles", classmethod(
        lambda cls, degree, cycles: degrees.append(degree) or from_cycles(cls, degree, cycles)))
    # a named atom's order times its degree may reach the cap; a nontrivial
    # generator has two elements or more, so 2 * degree may reach it
    for spec, order in [("Cyc(10)", 10), ("Dih(7)", 14), ("Sym(4)", 24), ("Sym(1)", 1),
                        ("Perm(50; (0 1))", 2), ("Perm(100; (0))", 1)]:
        assert groupcore._SpecParser(spec).parse().order == order
    # refused with the closure's message; only what precedes the refused atom or generator is built
    for spec, degree, built in [
        ("Cyc(11)", 11, []), ("Cyc(51)", 51, []), ("Dih(8)", 8, []), ("Dih(51)", 51, []),
        ("Sym(5)", 5, []), ("Sym(51)", 51, []),
        ("Perm(51; (0 1))", 51, []), ("Perm(101; (0))", 101, []),
        ("Perm(60; (0), (1 2))", 60, [60]),
        ("Cyc(10)*Cyc(99999999999999999999)", 10**20 - 1, [10]),
    ]:
        degrees.clear()
        with pytest.raises(CapExceeded) as exc:
            groupcore._SpecParser(spec).parse()
        assert str(exc.value) == f"group order times degree {degree} exceeds cell cap 100"
        assert degrees == built


def test_parser_refuses_atoms_as_the_closure_would(monkeypatch):
    # with both caps small, the order cap is met first up to degree 10; the
    # parser's answer from the known order must be the closure's, message included
    from hkr import groupcore

    specs = [f"{name}({m})" for name in ("Cyc", "Dih") for m in range(1, 25)] + [f"Sym({m})" for m in range(7)]
    # each atom's generators, built before the caps shrink
    groups = {spec: {"C": cyc_group, "D": dih_group, "S": sym_group}[spec[0]](int(spec[4:-1])) for spec in specs}
    monkeypatch.setattr(groupcore, "DEFAULT_ORDER_CAP", 20)
    monkeypatch.setattr(groupcore, "DEFAULT_CELL_CAP", 200)
    for spec, G in groups.items():
        try:
            want = len(groupcore._closure(G.degree, G.generators, 20, 200))
        except CapExceeded as exc:
            want = str(exc)
        try:
            got = groupcore._SpecParser(spec).parse().order
        except CapExceeded as exc:
            got = str(exc)
        assert got == want, spec
