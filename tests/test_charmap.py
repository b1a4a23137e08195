"""Character tables, the character map, and the power operations.

The table builder has two independent engines (generator bookkeeping for
abelian groups, modular eigenspace splitting otherwise); several tests run
both on the same group and require identical value sets.
"""

import functools
import hashlib
import itertools
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from hkr.acceptance import named_suite
from hkr import charmap, commuting, groupcore
from hkr.charmap import (
    MAX_POWER_OP_DEGREE,
    CharacterTable,
    _abelian_rows,
    _base_index,
    _canonical_order,
    _charpoly_mod,
    _divide_by_root,
    _dixon_rows,
    _eigenspaces_mod,
    _eigenvalue_multiplicities,
    _find_modular_prime,
    _nullspace_mod,
    _orthogonality_certificate,
    _pack,
    _poly_roots_mod,
    _rational_classes,
    _roots_of_unity,
    _tally_coords,
    _unpack,
    adams_psi,
    char_matrix_rank,
    character_map,
    character_table,
    galois_fixed_dim,
    irreducible_characters,
    orthogonality_report,
    psi_level,
    total_power,
)
from hkr.cli import run
from hkr.commuting import is_p_power_order, rank_prediction
from hkr.errors import CapExceeded, HkrError
from hkr.groupcore import (
    Permutation,
    conjugacy_classes,
    make_group,
    named_group,
    power_map,
    sym_group,
)
from hkr.rings import CyclotomicNumber, is_prime, prime_factors, rref_mod, zeta


NAMED_SUITE_TALLY_SHA256 = "a8e5373f11a47d854a0c4c631a6469674bd9927491834fa3afa6b94deb37c10c"


def rational_value(v):
    assert not any(v.coords[1:])
    return Fraction(v.coords[0])


def int_values(chi):
    return tuple(map(rational_value, chi.values))


def test_cyclic_two_table():
    table = character_table(named_group("Cyc(2)"))
    assert table.size == 2
    rows = {tuple(table.value(i, j) for j in range(2)) for i in range(2)}
    one = CyclotomicNumber.from_rational(2, 1)
    assert rows == {(one, one), (one, -one)}


def test_trivial_group_table():
    """Cyc(1) is generated by the identity alone: one character, one class."""
    table = character_table(named_group("Cyc(1)"))
    assert table.rows == (({0: 1},),)
    report = orthogonality_report(table)
    assert report.rows_ok and report.columns_ok and report.failures == ()


def test_sym3_table_frozen():
    # classes in canonical order: identity, 3-cycles (size 2), transpositions (size 3)
    table = character_table(named_group("Sym(3)"))
    values = [
        [rational_value(table.value(i, j)) for j in range(3)] for i in range(3)
    ]
    assert values == [[1, 1, 1], [1, 1, -1], [2, -1, 0]]
    assert [c.size for c in table.classes] == [1, 2, 3]


def test_cyclic_three_values_are_cube_roots():
    table = character_table(named_group("Cyc(3)"))
    w = zeta(3)
    got = {tuple(table.value(i, j) for j in range(3)) for i in range(3)}
    one = CyclotomicNumber.from_rational(3, 1)
    assert got == {
        (one, one, one),
        (one, w, w * w),
        (one, w * w, w),
    }


def test_degree_multisets():
    for spec, degrees in (
        ("Sym(4)", [1, 1, 2, 3, 3]),
        ("Q8", [1, 1, 1, 1, 2]),
        ("Dih(4)", [1, 1, 1, 1, 2]),
        ("Sym(3)*Sym(3)", [1, 1, 1, 1, 2, 2, 2, 2, 4]),
    ):
        table = character_table(named_group(spec))
        assert sorted(table.degrees) == degrees


def test_degree_sum_rule_on_suite():
    for spec in ("Cyc(5)", "Dih(6)", "Sym(4)", "Q8", "Cyc(2)*Q8", "Dih(9)"):
        G = named_group(spec)
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order


def test_abelian_and_dixon_engines_agree():
    for spec in ("Cyc(6)", "Cyc(2)*Cyc(2)", "Cyc(8)", "Cyc(3)*Cyc(3)"):
        G = named_group(spec)
        classes = conjugacy_classes(G)
        m = G.exponent()
        rows_a = _abelian_rows(G, m)
        rows_d = _dixon_rows(G, classes, m)
        canon_a = {tuple(tuple(sorted(t.items())) for t in row) for row in rows_a}
        canon_d = {tuple(tuple(sorted(t.items())) for t in row) for row in rows_d}
        assert canon_a == canon_d


def entrywise_abelian_rows(G, m):
    """The dual group built one entry at a time: each exponent row summed
    generator by generator as a list and reduced mod m at the end, for the
    candidates that pass every homomorphism equation, in candidate order."""
    elements = list(G.elements)
    loc = {g: i for i, g in enumerate(elements)}
    gens = list(G.generators)
    r, size = len(gens), len(elements)
    cols = [[loc[x * g] for x in elements] for g in gens]
    uses = [None] * size
    uses[loc[G.identity]] = (0,) * r
    visit = [loc[G.identity]]
    for x in visit:
        for gi in range(r):
            y = cols[gi][x]
            if uses[y] is None:
                uses[y] = tuple(u + (j == gi) for j, u in enumerate(uses[x]))
                visit.append(y)
    relations = {
        tuple(a - b - (j == gi) for j, (a, b) in enumerate(zip(uses[cols[gi][x]], uses[x])))
        for gi in range(r)
        for x in range(size)
    }
    found = {}
    for cand in itertools.product(*[range(0, m, m // g.order()) for g in gens]):
        if all(sum(c * e for c, e in zip(cand, rel)) % m == 0 for rel in relations):
            exp = [0] * size
            for c, col in zip(cand, zip(*uses)):
                exp = [e + c * u for e, u in zip(exp, col)]
            found[tuple([e % m for e in exp])] = None
    return list(found)


def test_packed_abelian_rows_match_the_entrywise_construction():
    groups = [G for G in named_suite(200) if G.is_abelian()] + [named_group("Cyc(2000)")]
    for G in groups:
        m = G.exponent()
        rows = [tuple(next(iter(t)) for t in row) for row in _abelian_rows(G, m)]
        assert rows == entrywise_abelian_rows(G, m), G.name


def full_key_order(rows, m):
    """Degree ascending, then rows descending by all their coordinates."""
    keys = {id(row): tuple(CyclotomicNumber.from_tally(m, t).coords for t in row) for row in rows}
    rows = sorted(rows, key=lambda row: keys[id(row)], reverse=True)
    return sorted(rows, key=lambda row: row[0].get(0, 0))


def test_lazy_canonical_order_equals_the_full_key_sort():
    rng = random.Random(7)
    for G in named_suite(100):
        table = character_table(G)
        rows = list(table.rows)
        rng.shuffle(rows)
        assert _canonical_order(rows, table.conductor) == full_key_order(rows, table.conductor)
        assert _canonical_order(rows, table.conductor) == list(table.rows)


def test_lazy_canonical_order_does_not_trust_tally_differences():
    # at m = 6 the tallies {0, 2, 4} and {1, 3, 5} are both 0; only the last
    # class tells the rows apart, and there a's value 3 beats b's 3*zeta
    a = ({0: 3}, {0: 1, 2: 1, 4: 1}, {0: 3})
    b = ({0: 3}, {1: 1, 3: 1, 5: 1}, {1: 3})
    assert _canonical_order([b, a], 6) == full_key_order([b, a], 6) == [a, b]
    assert _canonical_order([a, b], 6) == [a, b]


def test_table_rows_are_orthogonal_on_suite():
    for spec in ("Cyc(12)", "Sym(4)", "Q8", "Dih(5)", "Cyc(2)*Sym(3)", "Dih(12)"):
        report = orthogonality_report(character_table(named_group(spec)))
        assert report.ok, report.failures


def with_entries(table, edits):
    """The table with the tallies at (row, class) replaced."""
    rows = [list(row) for row in table.rows]
    for (i, k), tally in edits.items():
        rows[i][k] = tally
    return CharacterTable(table.group, table.classes, table.conductor, [tuple(r) for r in rows])


def scaled(tally, u, m):
    return {e * u % m: c for e, c in tally.items()}


def test_certificate_rejects_one_corrupted_entry():
    # an entry at a class of order 2 negated: l * {0, 6} = {0, 6} at m = 12 for
    # every unit l, so the Galois check passes and the Gram matrix must fail
    table = character_table(named_group("Sym(4)"))
    m = table.conductor
    k = next(k for k, cls in enumerate(table.classes) if cls.representative.order() == 2)
    i = table.size - 1
    bad = with_entries(table, {(i, k): {(e + m // 2) % m: c for e, c in table.rows[i][k].items()}})
    report = orthogonality_report(bad)
    assert not report.rows_ok and not report.columns_ok
    assert report.failures and {f[0] for f in report.failures} == {"row"}
    assert ("row", i, i) not in report.failures  # the norm is unchanged


def test_certificate_rejects_a_broken_galois_tally():
    # Dih(5): the classes of r and r^2 are one rational class, r^3 ~ r^2; one
    # row keeps its value at r but copies it to r^2
    G = named_group("Dih(5)")
    table = character_table(G)
    m = table.conductor
    k, members = next((k, mem) for k, mem in _rational_classes(enumerate(power_map(G))) if len(mem) > 1)
    j = next(j for j, _ in members if j != k)
    i = next(i for i, row in enumerate(table.rows) if row[j] != row[k])
    report = orthogonality_report(with_entries(table, {(i, j): table.rows[i][k]}))
    assert not report.ok
    assert any(f[0] == "galois" and f[2] == i for f in report.failures)
    assert all(f[0] == "galois" for f in report.failures)


def test_certificate_rejects_a_consistently_corrupted_rational_class():
    # sigma_3 applied to one row on a whole rational class keeps every tally
    # check, so only the Gram matrix sees that the row became another one
    G = named_group("Dih(5)")
    table = character_table(G)
    m = table.conductor
    k, members = next((k, mem) for k, mem in _rational_classes(enumerate(power_map(G))) if len(mem) > 1)
    i = next(i for i, row in enumerate(table.rows) if row[k] != scaled(row[k], 3, m))
    bad = with_entries(table, {(i, j): scaled(table.rows[i][j], 3, m) for j, _ in members})
    assert bad.rows != table.rows
    report = orthogonality_report(bad)
    assert not report.ok
    assert report.failures and {f[0] for f in report.failures} == {"row"}


def test_certificate_rejects_a_power_map_that_moves_class_sizes():
    # Sym(3): classes of sizes 1, 2, 3; (Z/6)^* is generated by 5
    table = character_table(named_group("Sym(3)"))
    walks = [list(w) for w in power_map(table.group)]
    assert walks == [[0], [0, 1, 1], [0, 2]]
    assert _orthogonality_certificate(table, walks).ok
    not_onto = [[0], [0, 1, 1], [0, 1]]
    swapped = [[0], [0, 1, 2], [0, 1]]
    for bad in (not_onto, swapped):
        report = _orthogonality_certificate(table, bad)
        assert not report.rows_ok and not report.columns_ok
        assert report.failures == (("power-map", 5),)


def test_certificate_prime_is_not_the_lifting_prime(monkeypatch):
    table = character_table(named_group("Dih(97)"))
    m, order = table.conductor, table.group.order
    asked = []

    def spy(m, order, *, above=0):
        q = _find_modular_prime(m, order, above=above)
        asked.append(q)
        return q

    monkeypatch.setattr(charmap, "_find_modular_prime", spy)
    assert orthogonality_report(table).ok
    lifted_with, q = asked
    assert lifted_with == _find_modular_prime(m, order)
    assert q != lifted_with and q % m == 1 and q > 2 * order * (2 * 2 + 1)


def galois_orbit_count(rows, m):
    """The number of orbits of the rows under the tally maps e -> u * e."""
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    return len({
        frozenset(tuple(tuple(sorted(scaled(t, u, m).items())) for t in row) for u in units)
        for row in rows
    })


def test_one_lift_per_rational_class(monkeypatch):
    # Dih(97): 48 rotation classes form one rational class, and the 48
    # characters of degree 2 one Galois orbit, so 3 x 3 lifts, not 50 x 3
    G = named_group("Dih(97)")
    m = G.exponent()
    orbits = _rational_classes(enumerate(power_map(G)))
    assert len(orbits) == 3
    assert galois_orbit_count(character_table(G).rows, m) == 3
    calls = []

    def counted(f, deg, powers, q):
        calls.append(len(f))
        return _eigenvalue_multiplicities(f, deg, powers, q)

    monkeypatch.setattr(charmap, "_eigenvalue_multiplicities", counted)
    rows = _dixon_rows(G, conjugacy_classes(G), m)
    assert len(calls) == 3 * len(orbits)
    assert _canonical_order(rows, m) == list(character_table(G).rows)


# every nonabelian group of order <= 100, and dihedral groups of order 102 to 200
DIXON_GROUPS = [g.name for g in named_suite(100) if not g.is_abelian()] + [
    f"Dih({n})" for n in (51, 56, 63, 64, 72, 77, 81, 90, 97, 100)
]


def test_orbit_lift_equals_the_per_row_lift(monkeypatch):
    # with no units the Galois step finds no conjugates, so every row is its
    # own orbit and is lifted from its own values
    groups = [named_group(name) for name in DIXON_GROUPS]
    by_orbit = [_dixon_rows(G, conjugacy_classes(G), G.exponent()) for G in groups]
    calls = []

    def counted(f, deg, powers, q):
        calls.append(len(f))
        return _eigenvalue_multiplicities(f, deg, powers, q)

    monkeypatch.setattr(charmap, "_galois_units", lambda m: [])
    monkeypatch.setattr(charmap, "_eigenvalue_multiplicities", counted)
    for G, rows in zip(groups, by_orbit):
        del calls[:]
        assert _dixon_rows(G, conjugacy_classes(G), G.exponent()) == rows, G.name
        assert len(calls) == len(rows) * len(_rational_classes(enumerate(power_map(G))))


def test_abelian_tables_never_build_the_power_map():
    # the whole tables operation of the benchmark: the table, both relations,
    # the rank, the prediction and the Galois-fixed dimension read class
    # orders, and walks of the p-power classes only
    cyclic6 = make_group(6, [Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    mixed = groupcore.direct_product(groupcore.cyc_group(2), groupcore.cyc_group(12))
    for G in (cyclic6, groupcore.cyc_group(196), mixed):
        assert orthogonality_report(character_table(G)).ok
        for p in prime_factors(G.order):
            k = next(k for k in itertools.count() if G.exponent() % p ** (k + 1))
            ranks = {char_matrix_rank(G, p), rank_prediction(G, p, 1), galois_fixed_dim(G, p, k)}
            assert len(ranks) == 1, (G.name, p, ranks)
        assert "power_map" not in G._cache, G.name


def test_dixon_tables_hold_one_tally_object_per_distinct_tally():
    for G in named_suite(100):
        if not G.is_abelian():
            tallies = [t for row in character_table(G).rows for t in row]
            assert len({id(t) for t in tallies}) == len({frozenset(t.items()) for t in tallies}), G.name


def test_certificate_reads_a_fresh_tally_on_its_own():
    # the certificate works once per tally object: a fresh dict of another
    # content at one position is checked there, while the positions that
    # shared the replaced object keep it; a fresh copy of it changes nothing
    table = character_table(named_group("Sym(4)"))
    m = table.conductor
    uses = Counter(id(t) for row in table.rows for t in row)
    i, k = next((i, k) for i, row in enumerate(table.rows) for k, t in enumerate(row)
                if uses[id(t)] > 1 and any(table.value(i, k).coords))
    old = table.rows[i][k]
    negated = {(e + m // 2) % m: c for e, c in old.items()}
    assert negated != old
    bad = with_entries(table, {(i, k): negated})
    shared = [(a, b) for a, row in enumerate(table.rows) for b, t in enumerate(row) if t is old and (a, b) != (i, k)]
    assert shared and all(bad.rows[a][b] is old for a, b in shared)
    assert not orthogonality_report(bad).ok
    assert orthogonality_report(with_entries(table, {(i, k): dict(old)})).ok


def test_column_orthogonality_values():
    # Sym(3) values are rational, so sum chi_i(a)*chi_i(b) over rows directly:
    # it equals the centralizer order when a == b and zero otherwise.
    G = named_group("Sym(3)")
    table = character_table(G)
    centralizer_orders = [G.order // c.size for c in table.classes]
    assert centralizer_orders == [6, 3, 2]
    for a in range(3):
        for b in range(3):
            total = sum(
                rational_value(table.value(i, a)) * rational_value(table.value(i, b))
                for i in range(3)
            )
            expected = centralizer_orders[a] if a == b else 0
            assert total == expected


def tally_rows_digest(groups):
    h = hashlib.sha256()
    for G in groups:
        rows = character_table(G).rows
        h.update(repr((G.name, [[sorted(t.items()) for t in row] for row in rows])).encode())
    return h.hexdigest()


def test_tally_rows_of_the_named_suite_frozen():
    # sha256 over every row of every named group of order <= 100, each tally
    # as its sorted (exponent, count) pairs, taken before the table kernels
    # worked on sparse class matrices and shared tallies
    assert tally_rows_digest(named_suite(100)) == NAMED_SUITE_TALLY_SHA256


# sha256 of the tally rows of Dih(m), order 102 to 200, one group each,
# taken before the split walked the classes largest first and read simple
# eigenlines off Krylov vectors
DIHEDRAL_TALLY_SHA256 = {
    51: "4b52ab8424ac2da48b1f9570419060d1ae99382a297f6e7c21ed3d1e4864cb8f",
    60: "172ce795f60813b802b6541abc5d3325773cd037cbd60e43335a59f6e7233bd1",
    64: "61d343449be6dbc114f33e3612b788e79614c8f885184fe4c238087ed96d4486",
    75: "8ac083224e575d88775fd3e372a3bc54f27011599c5c11a29d3781b5006dff7e",
    81: "0ada3d92571adf1ea1b8c1ea8a7922641b59197962d55029ba8a863a75921199",
    90: "81596c9f33ba9e66d43655b5657ebae618b9b45754a52ed2e35d416c0cfd069c",
    97: "5e06da9fbe967812deba8bf46c6f7c750ecd214c34d6b3afbd6c147cac601e19",
    99: "f9bba1e036356fb5124e3d6525a1ad836ed1f9e805bbaafa5310f017085c5ef0",
    100: "d4d48f234264e241e7fb0fcf82008938924466ddb8d160c7cffb59d83c932f43",
}


@pytest.mark.parametrize("m", sorted(DIHEDRAL_TALLY_SHA256))
def test_tally_rows_of_large_dihedral_groups_frozen(m):
    assert tally_rows_digest([named_group(f"Dih({m})")]) == DIHEDRAL_TALLY_SHA256[m]


def swapped(table, edits):
    """The table with the entries of each row at the two given classes
    swapped, for each (row, a, b) in edits."""
    rows = [list(row) for row in table.rows]
    for i, a, b in edits:
        rows[i][a], rows[i][b] = rows[i][b], rows[i][a]
    return CharacterTable(table.group, table.classes, table.conductor, [tuple(r) for r in rows])


def test_orthogonality_failures_frozen():
    # Dixon: two entries of one Sym(4) row swapped
    sym4 = character_table(named_group("Sym(4)"))
    assert orthogonality_report(swapped(sym4, [(2, 3, 4)])).failures == (
        ("row", 0, 2), ("row", 1, 2), ("row", 2, 2), ("row", 2, 3), ("row", 2, 4),
    )
    # abelian: the identity entry swapped with another in every row, a table
    # whose columns are wrong; only the rows that vanish at that element
    # stay homomorphisms
    cyc12 = character_table(named_group("Cyc(12)"))
    report = orthogonality_report(swapped(cyc12, [(i, 0, 2) for i in range(12)]))
    assert (report.rows_ok, report.columns_ok) == (False, False)
    assert report.failures == tuple(("homomorphism", i) for i in range(1, 11))
    # two entries of one row swapped
    report = orthogonality_report(swapped(cyc12, [(2, 3, 5)]))
    assert report == (False, False, (("homomorphism", 2),))
    # uniform rows and columns that are not closed under division
    G = named_group("Cyc(2)*Cyc(2)")
    exps = [(0, 0, 0, 0), (1, 2, 3, 0), (2, 3, 1, 0), (3, 1, 2, 0)]
    fake = CharacterTable(G, conjugacy_classes(G), 4, [tuple({e: 1} for e in r) for r in exps])
    report = orthogonality_report(fake)
    assert report == (False, False, tuple(("homomorphism", i) for i in (1, 2, 3)))
    # uniform rows, none of them the trivial character
    G = named_group("Cyc(2)")
    fake = CharacterTable(G, conjugacy_classes(G), 2, [({0: 1}, {1: 1}), ({1: 1}, {0: 1})])
    assert orthogonality_report(fake) == (False, False, (("homomorphism", 1),))


def test_abelian_orthogonality_rejects_non_roots_and_non_homomorphisms():
    # each of these tables keeps the first exponent of every tally a
    # character's, or every row and column equidistributed over roots of
    # unity, and has a Gram matrix that is wrong
    cyc4 = character_table(named_group("Cyc(4)"))
    i, k = 1, 1
    e = next(iter(cyc4.rows[i][k]))
    for tally in ({e: 2}, {e: 1, (e + 1) % 4: 1}):
        report = orthogonality_report(with_entries(cyc4, {(i, k): tally}))
        assert report == (False, False, (("entry", i, k),))
    # rows 1 and 2 of Cyc(6) swapped at classes 2 and 4
    cyc6 = character_table(named_group("Cyc(6)"))
    bad = with_entries(cyc6, {(i, k): cyc6.rows[3 - i][k] for i in (1, 2) for k in (2, 4)})
    assert orthogonality_report(bad) == (False, False, (("homomorphism", 1), ("homomorphism", 2)))
    assert _orthogonality_certificate(bad, power_map(cyc6.group)).failures == (
        ("row", 1, 3), ("row", 1, 4), ("row", 2, 3), ("row", 2, 4),
    )


def test_abelian_orthogonality_reports_repeated_and_missing_characters():
    cyc6 = character_table(named_group("Cyc(6)"))
    rows = list(cyc6.rows)
    repeated = CharacterTable(cyc6.group, cyc6.classes, 6, rows[:5] + [rows[2]])
    assert orthogonality_report(repeated) == (False, False, (("row", 2, 5),))
    # distinct homomorphisms are orthogonal, but five rows cannot span six columns
    missing = CharacterTable(cyc6.group, cyc6.classes, 6, rows[1:])
    assert orthogonality_report(missing) == (True, False, (("column", 5, 6),))


def test_abelian_orthogonality_requires_the_element_order_class_list():
    table = character_table(named_group("Cyc(2)*Cyc(4)"))
    classes = list(table.classes)
    classes[1], classes[2] = classes[2], classes[1]
    moved = CharacterTable(table.group, classes, table.conductor, table.rows)
    assert orthogonality_report(moved) == (False, False, (("classes",),))
    # a correct table in another class order fails the same way: the
    # generator columns index the elements in element order
    swap = [tuple(row[k] for k in (0, 2, 1, *range(3, 8))) for row in table.rows]
    assert orthogonality_report(CharacterTable(table.group, classes, table.conductor, swap)) == (
        False, False, (("classes",),)
    )


def test_abelian_tables_of_the_suite_are_orthogonal_in_any_row_order():
    rng = random.Random(18)
    for G in named_suite(200):
        if G.is_abelian():
            table = character_table(G)
            assert orthogonality_report(table) == (True, True, ()), G.name
            rows = list(table.rows)
            rng.shuffle(rows)
            shuffled = CharacterTable(G, table.classes, table.conductor, rows)
            assert orthogonality_report(shuffled).ok, G.name


def exact_relations(table):
    """Both orthogonality relations decided exactly: each Gram entry is the
    power-basis coordinates of the multiset of exponent differences of its
    two rows (or columns), weighted by the entries' counts."""
    m, rows, order = table.conductor, table.rows, table.group.order
    sizes = [len(cls.members) for cls in table.classes]

    def holds(pairs, expected):
        terms = [((a - b) % m, ca * cb * w) for x, y, w in pairs
                 for a, ca in x.items() for b, cb in y.items()]
        return _tally_coords(terms, m) == _tally_coords([(0, expected)], m)

    rows_exact = all(
        holds(zip(rows[i], rows[j], sizes), order if i == j else 0)
        for i in range(len(rows)) for j in range(i, len(rows))
    )
    columns = list(zip(*rows))
    columns_exact = len(rows) == len(sizes) and all(
        holds(zip(columns[a], columns[b], [1] * len(rows)), order // sizes[a] if a == b else 0)
        for a in range(len(sizes)) for b in range(a, len(sizes))
    )
    return rows_exact, columns_exact


@st.composite
def fake_abelian_tables(draw):
    """Distinct exponent rows on Cyc(6) or Cyc(2)*Cyc(4): a subgroup of the
    dual group, any set of characters, or characters with some entries
    moved by m or replaced; the zero row kept or dropped.  Or the whole
    dual group with two entries swapped, within a row or between two rows,
    or with one entry made a tally that is not one root of unity."""
    G = named_group(draw(st.sampled_from(["Cyc(6)", "Cyc(2)*Cyc(4)"])))
    table = character_table(G)
    m, n = table.conductor, len(table.classes)
    chars = sorted(tuple(next(iter(t)) for t in row) for row in table.rows)
    kind = draw(st.sampled_from(["subgroup", "subset", "shifted", "noisy", "swapped", "tampered"]))
    if kind in ("swapped", "tampered"):
        rows = [[{e: 1} for e in row] for row in draw(st.permutations(chars))]
        i, a = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "swapped":
            j, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][a], rows[j][b] = rows[j][b], rows[i][a]
        else:
            e = next(iter(rows[i][a]))
            rows[i][a] = draw(st.sampled_from([{e: 2}, {e: 1, (e + 1) % m: 1}, {e: -1}, {}]))
        return CharacterTable(G, table.classes, m, [tuple(row) for row in rows])
    if kind == "subgroup":
        span = {(0,) * n}
        for g in draw(st.lists(st.sampled_from(chars), max_size=3)):
            while any(tuple((a + b) % m for a, b in zip(x, g)) not in span for x in span):
                span |= {tuple((a + b) % m for a, b in zip(x, g)) for x in span}
        rows = sorted(span)
    else:
        rows = draw(st.lists(st.sampled_from(chars), min_size=1, unique=True))
        if kind == "shifted":
            i, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
            rows[i] = tuple(e + m * (j == c) for j, e in enumerate(rows[i]))
        elif kind == "noisy":
            rows += draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * n), max_size=2))
    zero = (0,) * n
    if draw(st.booleans()):
        rows = [row for row in rows if row != zero]
    elif zero not in rows:
        rows.append(zero)
    rows = list(dict.fromkeys(rows))
    if not rows:
        rows = [zero]
    rows = draw(st.permutations(rows))
    return CharacterTable(G, table.classes, m, [tuple({e: 1} for e in row) for row in rows])


@settings(max_examples=400, deadline=None)
@given(fake_abelian_tables())
def test_abelian_orthogonality_matches_the_pairwise_reference(table):
    # sound: an ok report means both exact relations hold
    report = orthogonality_report(table)
    rows_exact, columns_exact = exact_relations(table)
    assert not report.rows_ok or rows_exact
    assert not report.columns_ok or columns_exact


def test_tallies_are_never_mutated():
    # abelian rows may share one tally per exponent, so no reader may write
    # to a tally it was given
    for spec, p in (("Cyc(12)", 2), ("Cyc(2)*Cyc(6)", 3), ("Sym(4)", 2), ("Dih(5)", 5)):
        G = named_group(spec)
        table = character_table(G)
        before = [[dict(t) for t in row] for row in table.rows]
        table.to_json()
        for i in range(table.size):
            table.irreducible(i)
            for j in range(len(table.classes)):
                table.value(i, j)
        char_matrix_rank(G, p)
        orthogonality_report(table)
        character_map(G, p, table.irreducible(1))
        assert [[dict(t) for t in row] for row in table.rows] == before


def naive_inverse_dft(f, y, q):
    """d_t = (1/e) sum_s f[s] * y^(-s*t) mod q."""
    e = len(f)
    yinv, einv = pow(y, -1, q), pow(e, -1, q)
    return [sum(f[s] * pow(yinv, s * t, q) for s in range(e)) * einv % q for t in range(e)]


def test_newton_multiplicities_match_a_naive_inverse_dft():
    rng = random.Random(20)
    m = 60
    q = _find_modular_prime(m, 3600)  # every degree below sqrt(3600) is < q
    zp = _roots_of_unity(q, m)
    for e in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        y = zp[m // e % m]
        powers = [pow(y, t, q) for t in range(e)]
        for _ in range(4):
            deg = rng.randint(1, 12)
            eigen = [rng.randrange(e) for _ in range(deg)]
            f = [sum(powers[t * s % e] for t in eigen) % q for s in range(e)]
            mults = _eigenvalue_multiplicities(f, deg, powers, q)
            assert mults == naive_inverse_dft(f, y, q)
            assert mults == [eigen.count(t) for t in range(e)]
            for s in range(e):
                bad = list(f)
                bad[s] = (bad[s] + 1) % q
                with pytest.raises(HkrError):
                    _eigenvalue_multiplicities(bad, deg, powers, q)


def test_charpoly_against_leibniz_expansion():
    def polymul(a, b, q):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
        return out

    def brute_charpoly(M, q):
        # det(xI - M) via permutation expansion over F_q[x], ascending coeffs
        n = len(M)
        poly = [0] * (n + 1)
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = [1]
            for i in range(n):
                if perm[i] == i:
                    term = polymul(term, [-M[i][i] % q, 1], q)
                else:
                    term = polymul(term, [-M[i][perm[i]] % q], q)
            for d, c in enumerate(term):
                poly[d] = (poly[d] + sign * c) % q
        return poly

    q = 101
    mats = [
        [[2]],
        [[1, 2], [3, 4]],
        [[0, 1, 0], [0, 0, 1], [1, 5, 2]],
        [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]],
    ]
    for M in mats:
        assert _charpoly_mod([row[:] for row in M], q) == brute_charpoly(M, q)


def conjugated_diagonal(columns, eigenvalues, q):
    """P diag(eigenvalues) P^-1 mod q, P with the given eigenvector columns."""
    d = len(columns)
    P = [list(row) for row in zip(*columns)]
    red, pivots = rref_mod([row + [int(s == t) for t in range(d)] for s, row in enumerate(P)], q)
    assert pivots == list(range(d))
    Pinv = [row[d:] for row in red]
    return [[sum(P[s][k] * eigenvalues[k] * Pinv[k][t] for k in range(d)) % q for t in range(d)]
            for s in range(d)]


def counting_nullspaces(monkeypatch):
    calls = []
    monkeypatch.setattr(charmap, "_nullspace_mod", lambda A, q: calls.append(A) or _nullspace_mod(A, q))
    return calls


def test_eigenspaces_fall_back_to_the_nullspace(monkeypatch):
    q = 101
    # e_0 = v1 + v3 + v5 has no component along v2, and 3 is a double root:
    # both take the nullspace, 1 and 5 are read off the Krylov vectors
    missing = [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), (0, -1, -1, -1, 0)]
    generic = [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)]
    for columns, eigenvalues, nullspaces in ((missing, [1, 2, 3, 3, 5], 2), (generic, [4, 1, 9, 7], 0)):
        M = conjugated_diagonal(columns, eigenvalues, q)
        calls = counting_nullspaces(monkeypatch)
        spaces = _eigenspaces_mod(M, q)
        assert len(calls) == nullspaces
        distinct = sorted(set(eigenvalues))
        assert [len(B) for B in spaces] == [eigenvalues.count(lam) for lam in distinct]
        for lam, B in zip(distinct, spaces):
            shifted = [[a - lam * (s == t) for t, a in enumerate(row)] for s, row in enumerate(M)]
            assert rref_mod(B, q) == rref_mod(_nullspace_mod(shifted, q), q)


def test_eigenspaces_reject_a_matrix_that_is_not_semisimple(monkeypatch):
    # a Jordan block at the double root 2: mu(M) e_0 != 0 when e_0 heads the
    # chain, before any nullspace; the nullspace of M - 2 when e_0 misses it
    calls = counting_nullspaces(monkeypatch)
    for M, nullspaces in (([[2, 0, 0], [1, 2, 0], [0, 0, 1]], 0), ([[1, 0, 0], [0, 2, 1], [0, 0, 2]], 1)):
        with pytest.raises(HkrError, match="not semisimple"):
            _eigenspaces_mod(M, 101)
        assert len(calls) == nullspaces


def test_find_modular_prime_properties():
    for m, order in ((6, 24), (12, 100), (4, 8)):
        q = _find_modular_prime(m, order)
        assert q % m == 1
        assert q > 2 * math.isqrt(order) + 1
        assert all(q % d for d in range(2, math.isqrt(q) + 1))


def stepping_modular_prime(m, order, *, above=0):
    """The search as it stepped q = m + 1, 2m + 1, ... from the start."""
    bound = max(2 * math.isqrt(order) + 1, above)
    q = m + 1
    while q <= bound or not is_prime(q):
        q += m
    return q


def test_modular_prime_search_starts_past_its_bound():
    # the lifting prime at orders m, 2m, 4m and the certificate prime above
    # 2 |G| (B^2 + 1) for tally sums B up to sqrt(|G|): the primes found by
    # stepping from m + 1 at every conductor m <= 200
    for m in range(1, 201):
        for order in (m, 2 * m, 4 * m):
            assert _find_modular_prime(m, order) == stepping_modular_prime(m, order), (m, order)
            for b in (1, 2, math.isqrt(order)):
                above = 2 * order * (b * b + 1)
                got = _find_modular_prime(m, order, above=above)
                assert got == stepping_modular_prime(m, order, above=above), (m, order, above)
    # stepping from m + 1 took about 44 million steps to pass 2^33 at m = 194
    start = time.perf_counter()
    bound = (1 << 33) - 3
    q = _find_modular_prime(194, 1, above=bound)
    assert time.perf_counter() - start < 1
    assert q > bound and q % 194 == 1 and is_prime(q)
    assert not any(map(is_prime, range(q - 194, bound, -194)))


def test_certificate_prime_search_has_no_ceiling(monkeypatch):
    # above the table cap the certificate needs q = 1 mod 420 (Sym(7)) and
    # mod 840 (Sym(8)) past 10^7, where the prime search used to give up
    monkeypatch.setattr(charmap, "DEFAULT_TABLE_CAP", 50_000)
    asked = []

    def spy(m, order, *, above=0):
        q = _find_modular_prime(m, order, above=above)
        asked.append(q)
        return q

    monkeypatch.setattr(charmap, "_find_modular_prime", spy)
    for spec in ("Sym(7)", "Sym(8)"):
        # a fresh group: a table cached on named_group's would pass the cap
        # in every later test
        H = named_group(spec)
        G = make_group(H.degree, H.generators)
        asked.clear()
        assert orthogonality_report(character_table(G)) == (True, True, ()), spec
        assert max(asked) > 10**7 and all(is_prime(q) for q in asked)


# the groups the packed and base-keyed kernels are pinned on: every
# nonabelian group of order <= 100, the dihedral groups of order 102 to 200,
# direct products, and Perm groups with fixed points
KERNEL_GROUPS = [g.name for g in named_suite(100) if not g.is_abelian()] + [
    f"Dih({n})" for n in range(51, 101)
] + ["Cyc(2)*Sym(3)*Q8", "Dih(12)*Sym(3)", "Perm(7; (0 1 2), (0 1)(3 4))", "Perm(9; (2 3 4 5), (2 3), (7 8))"]


def dixon_run(G, monkeypatch):
    """_dixon_rows on G, and every restricted class matrix it split."""
    split = []
    monkeypatch.setattr(charmap, "_eigenspaces_mod", lambda M, q: split.append((M, q)) or _eigenspaces_mod(M, q))
    rows = _dixon_rows(G, conjugacy_classes(G), G.exponent())
    monkeypatch.undo()
    return rows, split


@functools.cache
def kernel_runs():
    """(G, rows, split) per group of KERNEL_GROUPS, through the base-keyed
    class matrices."""
    with pytest.MonkeyPatch.context() as mp:
        return [(G, *dixon_run(G, mp)) for G in map(named_group, KERNEL_GROUPS)]


def test_base_keyed_class_matrices_match_the_image_keyed_ones(monkeypatch):
    # the image-keyed route: every point is a base point and the class index
    # keyed by full image tuples is the lookup
    for G, rows, split in kernel_runs():
        base, at = _base_index(G)
        loc, key = groupcore.class_index(G), operator.itemgetter(*base)
        assert len(base) < G.degree and len(at) == G.order, G.name
        assert all(at[key(g.images)] == loc[g.images] for g in G.elements), G.name
        monkeypatch.setattr(charmap, "_base_index", lambda H: (list(range(H.degree)), groupcore.class_index(H)))
        assert dixon_run(G, monkeypatch) == (rows, split), G.name


def test_base_points_are_taken_greedily_and_checked():
    # Q8 acts regularly, so one point tells its elements apart; a Perm group
    # never takes a fixed point; Cyc(2)*Sym(3)*Q8 needs a point in each factor
    assert _base_index(named_group("Q8"))[0] == [0]
    assert _base_index(named_group("Perm(9; (2 3 4 5), (2 3), (7 8))"))[0] == [2, 3, 4, 7]
    assert _base_index(named_group("Cyc(2)*Sym(3)*Q8"))[0] == [0, 2, 3, 5]
    # with the Cyc(2) factor's points out of reach, no base separates
    G = named_group("Sym(3)*Cyc(2)")
    with pytest.raises(HkrError, match="base images do not tell the elements apart"):
        _base_index(groupcore.FiniteGroup(3, G.generators, G.elements))


def list_eigenspaces(M, q):
    """_eigenspaces_mod with Krylov vectors, mu(M) e_0 and the eigenlines as
    lists, one dot product per coordinate."""
    roots = _poly_roots_mod(_charpoly_mod(M, q), q, range(q))
    mu = [1]
    for lam, _ in roots:
        mu = [(a - lam * b) % q for a, b in zip([0] + mu, mu + [0])]
    krylov = [[1] + [0] * (len(M) - 1)]
    while len(krylov) < len(mu):
        krylov.append([sum(map(operator.mul, row, krylov[-1])) % q for row in M])
    cols = list(zip(*krylov))
    if any(sum(map(operator.mul, mu, col)) % q for col in cols):
        raise HkrError("class matrix is not semisimple over F_q")
    spaces = []
    for lam, mult in roots:
        if mult == 1:
            coeffs = _divide_by_root(mu, lam, q)
            u = [sum(map(operator.mul, coeffs, col)) % q for col in cols]
            if any(u):
                spaces.append([u])
                continue
        null = _nullspace_mod([[a - lam * (s == t) for t, a in enumerate(row)] for s, row in enumerate(M)], q)
        if len(null) != mult:
            raise HkrError("class matrix is not semisimple over F_q")
        spaces.append(null)
    return spaces


def test_packed_krylov_eigenspaces_match_the_list_products():
    count = 0
    for G, _, split in kernel_runs():
        for M, q in split:
            assert _eigenspaces_mod(M, q) == list_eigenspaces(M, q), G.name
            count += 1
    assert count > 300


def test_slot_width_follows_the_bound():
    # sums of products of residues mod a 61-bit prime pass 2^64 at once
    q = (1 << 61) - 1
    rng = random.Random(29)
    for terms, count in ((1, 1), (2, 5), (7, 40)):
        bound = terms * q * q
        vectors = [[rng.randrange(q) for _ in range(count)] for _ in range(terms)]
        coeffs = [rng.randrange(q) for _ in range(terms)]
        packed = sum(c * _pack(v, bound) for c, v in zip(coeffs, vectors))
        want = [sum(c * v[s] for c, v in zip(coeffs, vectors)) % q for s in range(count)]
        assert _unpack(packed, count, bound, q) == want
        if terms > 1:  # one word per slot would carry into the next slot
            assert _unpack(packed % (1 << 64 * count), count, 1, q) != want
    for bound, words in ((1, 1), ((1 << 64) - 1, 1), (1 << 64, 2), (1 << 128, 3)):
        assert _pack([1, 1], bound) == 1 + (1 << 64 * words)
    # Krylov vectors at that prime: eigenvalues 1..4 in a 4 x 4 matrix
    M = conjugated_diagonal([(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)], [4, 1, 3, 2], q)
    assert _eigenspaces_mod(M, q) == list_eigenspaces(M, q)


def pairwise_gram_failures(table, walks):
    """The certificate's Gram decision with one sum per pair of rows, at the
    certificate's prime."""
    m, order, rows = table.conductor, table.group.order, table.rows
    sizes = [len(cls.members) for cls in table.classes]
    distinct = {id(t): t for row in rows for t in row}
    bound = max(sum(map(abs, t.values())) for t in distinct.values())
    lifted_with = charmap._find_modular_prime(m, order)
    q = charmap._find_modular_prime(m, order, above=max(2 * order * (bound * bound + 1), lifted_with))
    zp = _roots_of_unity(q, m)
    at = {key: sum(c * zp[e % m] for e, c in t.items()) % q for key, t in distinct.items()}
    values = [list(map(at.__getitem__, map(id, row))) for row in rows]
    weighted = [[s * x % q for s, x in zip(sizes, row)] for row in values]
    inverse = [walk[-1 % len(walk)] for walk in walks]
    conj = [list(map(row.__getitem__, inverse)) for row in values]
    return tuple(("row", i, j) for i, wi in enumerate(weighted) for j in range(i, len(rows))
                 if (sum(map(operator.mul, wi, conj[j])) - (order if i == j else 0)) % q)


def negated_at_order_two(table):
    """The table with one entry at a class of order 2 negated, which the
    Galois check passes; None without such a class."""
    m = table.conductor
    k = next((k for k, cls in enumerate(table.classes) if cls.representative.order() == 2), None)
    if k is None or m % 2:
        return None
    i = max(range(table.size), key=lambda i: (table.rows[i][k] != {(e + m // 2) % m: c for e, c in table.rows[i][k].items()}, i))
    return with_entries(table, {(i, k): {(e + m // 2) % m: c for e, c in table.rows[i][k].items()}})


def gram_cases(specs):
    for spec in specs:
        table = character_table(named_group(spec))
        walks = power_map(table.group)
        yield spec, table, walks
        bad = negated_at_order_two(table)
        if bad is not None:
            yield spec, bad, walks


def test_packed_gram_rows_match_the_pairwise_sums():
    failing = 0
    for spec, table, walks in gram_cases(KERNEL_GROUPS):
        report = _orthogonality_certificate(table, walks)
        assert report.failures == pairwise_gram_failures(table, walks), spec
        failing += bool(report.failures)
    assert failing > 100


def test_packed_gram_rows_take_wide_slots_at_a_large_prime(monkeypatch):
    # a certificate prime above 2^33 puts every Gram slot past 2^64
    asked = []

    def large(m, order, *, above=0):
        if not above:  # the lifting prime
            return _find_modular_prime(m, order)
        q = _find_modular_prime(m, order, above=max(above, 1 << 33))
        asked.append(q)
        return q

    monkeypatch.setattr(charmap, "_find_modular_prime", large)
    specs = ["Sym(4)", "Dih(5)", "Q8", "Cyc(2)*Sym(3)", "Perm(7; (0 1 2), (0 1)(3 4))", "Dih(97)"]
    for spec, table, walks in gram_cases(specs):
        asked.clear()
        report = _orthogonality_certificate(table, walks)
        assert report.failures == pairwise_gram_failures(table, walks), spec
        assert (len(table.classes) * asked[-1] ** 2).bit_length() > 64
        assert report.ok == (table is character_table(named_group(spec)))


def full_scan_unit_generators(units, n):
    """Generators of the group the units span mod n, scanning every unit."""
    gens, span = [], {1 % n}
    for u in units:
        if u % n not in span:
            gens.append(u)
            power, grown = u % n, set(span)
            while power not in span:  # the cosets of span in span * <u>
                grown |= {x * power % n for x in span}
                power = power * u % n
            span = grown
    return gens


def test_unit_search_stops_once_it_spans():
    primes = [t for t in range(2, 2001) if is_prime(t)]
    for n in range(1, 2001):
        units = [t for t in primes if t < n and n % t]
        drawn = []
        gens = commuting._unit_generators((drawn.append(u) or u for u in units), n)
        assert gens == full_scan_unit_generators(units, n), n
        # a lazy iterable is drawn one unit past the last generator at most
        assert len(drawn) <= (units.index(gens[-1]) + 2 if gens else 1), n


def test_class_function_algebra():
    G = named_group("Sym(3)")
    chis = irreducible_characters(G)
    a, b = chis[1], chis[2]
    assert int_values(a + b) == (3, 0, -1)
    assert int_values(a * b) == (2, -1, 0)
    assert int_values(-a) == (-1, -1, 1)
    assert (a - a).values[0].is_zero()


def test_class_function_scalars_must_be_rational():
    b = irreducible_characters(named_group("Sym(3)"))[2]
    assert int_values(3 * b) == int_values(b + b + b) == (6, -3, 0)
    assert int_values(b * Fraction(1, 2) + b * Fraction(1, 2)) == (2, -1, 0)
    for bad in (0.5, 1j, "2", None, CyclotomicNumber.root(3, 1), CyclotomicNumber.root(5, 1)):
        with pytest.raises(TypeError):
            b * bad
        with pytest.raises(TypeError):
            bad * b


def test_character_map_frozen_values():
    G = named_group("Sym(3)")
    deg2 = next(c for c in irreducible_characters(G) if c.values[0] == 2)
    at3 = character_map(G, 3, deg2)
    assert at3.conductor == 3
    assert int_values(at3) == (2, -1)
    at2 = character_map(G, 2, deg2)
    assert at2.conductor == 2
    assert int_values(at2) == (2, 0)


def test_character_map_is_a_ring_map():
    for spec, p in (("Sym(3)", 2), ("Q8", 2), ("Dih(6)", 3)):
        G = named_group(spec)
        chis = irreducible_characters(G)
        a, b = chis[0], chis[-1]
        fa, fb = character_map(G, p, a), character_map(G, p, b)
        assert character_map(G, p, a + b) == fa + fb
        assert character_map(G, p, a * b) == fa * fb


def test_character_map_restricts_to_p_power_classes():
    G = named_group("Dih(6)")
    chi = irreducible_characters(G)[-1]
    img = character_map(G, 2, chi)
    for cls in img.classes:
        assert is_p_power_order(cls.representative, 2)
    assert len(img.classes) == rank_prediction(G, 2, 1)


def test_character_map_classes_are_the_p_power_classes_on_the_suite():
    # the classes come from the power map; the cycle walk of each
    # representative is the independent route
    for G in named_suite(100):
        chi = character_table(G).irreducible(0)
        for p in (2, 3, 5, 7):
            want = [cls for cls in conjugacy_classes(G) if is_p_power_order(cls.representative, p)]
            assert list(character_map(G, p, chi).classes) == want, (G.name, p)


def test_adams_psi_is_power_evaluation():
    for spec in ("Sym(4)", "Q8", "Cyc(6)"):
        G = named_group(spec)
        for chi in irreducible_characters(G):
            for m in (1, 2, 3, 5):
                psi = adams_psi(m, chi)
                for cls in chi.classes:
                    g = cls.representative
                    assert psi.value_at(g) == chi.value_at(g**m)


def test_adams_psi_powers_representatives_without_the_power_map(monkeypatch):
    # adams_psi is the independent route psi_level is checked against
    specs = ("Sym(4)", "Q8", "Dih(6)", "Cyc(12)")
    before = [adams_psi(m, chi).values for spec in specs
              for chi in irreducible_characters(named_group(spec)) for m in range(2, 14)]
    # fresh groups, so adams_psi powers every class again rather than read
    # the classes it cached; the tables are built before the refusal
    monkeypatch.setattr(groupcore, "_named_cache", {})
    chis = [irreducible_characters(named_group(spec)) for spec in specs]
    assert all(not any(key[0] == "adams_psi" for key in chi[0].group._cache if type(key) is tuple)
               for chi in chis)

    def refuse(G):
        raise AssertionError("adams_psi read the power map")

    for module, names in ((groupcore, ("power_map", "power_walk", "class_orders")),
                          (charmap, ("power_map", "power_walk")), (commuting, ("class_orders",))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    assert [adams_psi(m, chi).values for row in chis for chi in row for m in range(2, 14)] == before


@pytest.mark.parametrize("spec", ["Sym(4)", "Dih(10)", "Cyc(12)", "Cyc(2)*Q8"])
def test_adams_psi_powers_each_class_once_per_group_and_m(monkeypatch, spec):
    monkeypatch.setattr(groupcore, "_named_cache", {})
    chis = irreducible_characters(named_group(spec))
    res = character_map(chis[0].group, 2, chis[-1])  # a partial class list
    calls = []
    power = Permutation.__pow__
    monkeypatch.setattr(Permutation, "__pow__", lambda g, k: calls.append(k) or power(g, k))
    for m in (2, 3, -3, 25):
        calls.clear()
        psis = [adams_psi(m, chi) for chi in chis]
        assert calls == [m] * len(chis), (spec, m)
        assert [adams_psi(m, chi) for chi in chis] == psis and len(calls) == len(chis)
    # the partial list reads the classes already powered for m = 2 and powers none
    calls.clear()
    want = [adams_psi(2, chis[-1]).value_at(cls.representative) for cls in res.classes]
    assert [v.promote(chis[-1].conductor) for v in adams_psi(2, res).values] == want
    assert calls == []
    # a fresh m powers the partial list's classes alone
    adams_psi(7, res)
    assert len(calls) == len(res.classes) <= len(chis)


def test_adams_operations_compose():
    G = named_group("Dih(4)")
    for chi in irreducible_characters(G):
        assert adams_psi(1, chi) == chi
        lhs = adams_psi(2, adams_psi(3, chi))
        assert lhs == adams_psi(6, chi)


def test_char_matrix_rank_frozen():
    assert char_matrix_rank(named_group("Q8"), 2) == 5
    assert char_matrix_rank(named_group("Sym(3)"), 2) == 2
    assert char_matrix_rank(named_group("Sym(3)"), 3) == 2
    assert char_matrix_rank(named_group("Cyc(12)"), 2) == 4


def test_char_matrix_rank_equals_p_power_class_count():
    for spec in ("Sym(4)", "Dih(6)", "Cyc(9)", "Cyc(2)*Q8"):
        G = named_group(spec)
        for p in (2, 3):
            classes = conjugacy_classes(G)
            want = sum(1 for c in classes if is_p_power_order(c.representative, p))
            assert char_matrix_rank(G, p) == want


def test_char_matrix_rank_refuses_a_table_that_lost_rank(monkeypatch):
    # every class of Cyc(4) is a 2-power class; with the last column copied
    # from the second the restricted matrix has rank 3, which no correct
    # table has mod q, so there is no exact elimination to fall back on
    G = named_group("Cyc(4)")
    table = character_table(G)
    rows = [row[:3] + row[1:2] for row in table.rows]
    tampered = CharacterTable(G, table.classes, table.conductor, rows)
    monkeypatch.setattr(charmap, "character_table", lambda _: tampered)
    with pytest.raises(HkrError, match="lost rank mod q"):
        char_matrix_rank(G, 2)


def test_total_power_p1_is_identity_pairing():
    G = named_group("Sym(3)")
    chi = irreducible_characters(G)[2]
    P = total_power(1, chi)
    # Sym(1) has one class; the row is chi itself
    assert [v for v in P.values] == list(chi.values)


def test_total_power_matches_cycle_formula():
    G = named_group("Sym(3)")
    chi = irreducible_characters(G)[2]
    k = 3
    P = total_power(k, chi)
    sclasses = conjugacy_classes(sym_group(k))
    n = len(chi.classes)
    assert len(P.classes) == len(sclasses) * n
    for si, scls in enumerate(sclasses):
        lens = scls.representative.cycle_lengths()
        for gi, gcls in enumerate(chi.classes):
            assert P.classes[si * n + gi] == (scls, gcls)
            g = gcls.representative
            want = CyclotomicNumber.from_rational(chi.conductor, 1)
            for ell in lens:
                want = want * chi.value_at(g**ell)
            assert P.values[si * n + gi] == want


def test_total_power_takes_sym_k_from_the_named_group_cache():
    sclasses = conjugacy_classes(named_group("Sym(8)"))
    for chi in irreducible_characters(named_group("Cyc(5)")):
        P = total_power(8, chi)
        n = len(chi.classes)
        assert len(P.classes) == len(sclasses) * n
        for si, scls in enumerate(sclasses):
            assert all(P.classes[si * n + gi][0] is scls for gi in range(n))


@pytest.mark.parametrize("spec", ["Cyc(12)", "Cyc(2)*Cyc(6)", "Q8", "Sym(4)", "Dih(7)"])
def test_table_values_are_one_object_per_distinct_tally(spec):
    table = character_table(named_group(spec))
    by_id, by_items = {}, {}
    for i, row in enumerate(table.rows):
        for j, tally in enumerate(row):
            value = table.value(i, j)
            want = CyclotomicNumber.from_tally(table.conductor, tally)
            assert value == want and value.coords == want.coords
            assert by_id.setdefault(id(tally), value) is value
            assert by_items.setdefault(tuple(sorted(tally.items())), value) is value
    if table.group.is_abelian():  # one tally object per exponent, shared across the table
        assert len(by_id) == len(by_items) < table.size**2


def test_total_power_degree_cap():
    chi = irreducible_characters(named_group("Cyc(2)"))[0]
    with pytest.raises(CapExceeded):
        total_power(MAX_POWER_OP_DEGREE + 1, chi)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            total_power(k, chi)


def test_psi_level_equals_adams_on_small_suite():
    for spec in ("Sym(3)", "Q8", "Cyc(6)", "Sym(4)"):
        G = named_group(spec)
        for chi in irreducible_characters(G):
            for p, k in ((2, 1), (2, 2), (3, 1)):
                assert psi_level(p, k, chi) == adams_psi(p**k, chi)


def test_psi_level_degree_cap():
    chi = irreducible_characters(named_group("Cyc(3)"))[1]
    assert 3**2 > MAX_POWER_OP_DEGREE
    with pytest.raises(CapExceeded):
        psi_level(3, 2, chi)


def test_partial_class_lists_take_the_one_path():
    # character_map's p-power classes are a partial class list; the power
    # operations place them in the group's classes as they do a full list
    for G in named_suite(48):
        chis = irreducible_characters(G)
        for p in prime_factors(G.order):
            for chi in chis:
                res = character_map(G, p, chi)
                psi = adams_psi(p, res)
                if p <= MAX_POWER_OP_DEGREE:
                    assert psi_level(p, 1, res) == psi, (G.name, p)
                for cls, value in zip(res.classes, psi.values):
                    g = cls.representative
                    assert psi.value_at(g) == value == res.value_at(g**p), (G.name, p)
                    assert value.promote(chi.conductor) == chi.value_at(g**p), (G.name, p)
            # drop the class of g^ell for a class g of the list; g^p has a
            # smaller order than g, and for p > 7 a Sylow p-subgroup of a
            # group of order at most 48 is cyclic of order p, whose
            # normalizer is too small to fuse g with g^2
            ell = p if p <= MAX_POWER_OP_DEGREE else 2
            g = res.classes[-1].representative
            gone = next(cls for cls in res.classes if g**ell in cls.members)
            assert g not in gone.members, (G.name, p)
            kept = [(cls, v) for cls, v in zip(res.classes, res.values) if cls is not gone]
            cut = charmap.ClassFunction(G, *zip(*kept), res.conductor)
            for power_op in (lambda f: psi_level(ell, 1, f), lambda f: total_power(ell, f)):
                with pytest.raises(ValueError, match="^class list is not closed under powers$"):
                    power_op(cut)
            for k in (2, 3):
                P = total_power(k, res)
                assert P.group is None
                sclasses = conjugacy_classes(sym_group(k))
                assert list(P.classes) == [(s, c) for s in sclasses for c in res.classes]
                want = []
                for scls in sclasses:
                    for cls in res.classes:
                        value = CyclotomicNumber.from_rational(res.conductor, 1)
                        for length in scls.representative.cycle_lengths():
                            value = value * res.value_at(cls.representative**length)
                        want.append(value)
                assert list(P.values) == want, (G.name, p, k)


def test_equal_class_functions_hash_alike_across_conductors():
    G = named_group("Cyc(4)")
    chi = character_table(G).irreducible(1)
    chi2 = charmap.ClassFunction(G, chi.classes, [v.promote(8) for v in chi.values], 8)
    assert chi == chi2 and chi.conductor != chi2.conductor
    assert hash(chi) == hash(chi2)
    assert chi2 in {chi: 1}


# sha256 of the JSON stdout of each command, taken from the implementation
# that built all of P_{p^k} and Sym(p^k) and multiplied Fraction coordinates
POWER_OP_STDOUT_SHA256 = {
    ("Dih(6)", "adams --k 2"): "8142cc0f4e259495a31130456f51d7fc41f6b4f6d83615164f3b45c6c5292690",
    ("Dih(6)", "power-op --k 3"): "a81ccac2036488153107e2a12cdfef0da060d82753d68e2b5c117cad1f0f7dc7",
    ("Dih(6)", "psi-level --p 2 --k 2"): "98d36210693fde1b3f4014354ac508576ca0656c5901f39bb83b26e0f8b44ff2",
    ("Q8", "adams --k 2"): "f91f36bd050b7b0b952a1a6c5d03fb089af46e5dce734397b399f98235bdc4f3",
    ("Q8", "power-op --k 3"): "2a12eaa46666c27d738f281ef12a2a0c003039b1f050c4ac7300cfb4beb5d33a",
    ("Q8", "psi-level --p 2 --k 2"): "9c26c501da3a7da435cc1c016a72cc6c955f035ed357875521dbddaf13583bc5",
}


@pytest.mark.parametrize("group,command", sorted(POWER_OP_STDOUT_SHA256))
def test_power_operation_json_frozen(capsys, group, command):
    code = run(command.split() + ["--group", group, "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == POWER_OP_STDOUT_SHA256[(group, command)]


# sha256 of the JSON stdout of `chartable`, taken from the implementation that
# lifted values by an inverse DFT and sorted rows by full power-basis keys
CHARTABLE_STDOUT_SHA256 = {
    "Dih(97)": "b244e934a6577ed3222de277ed7f42710cca2da5bc5811855827503a8f60574c",
    "Cyc(194)": "119d865154a2373d329cd4c3bd808038d2fbd39b75d71c5f4c17e2943a39beb4",
    "Cyc(165)": "b8defe9491b1a7aee1ff958b760dd8b84111ffff5eb1c04b694e8a5689b32e9f",
    "Sym(5)": "d1c65a47a04d1d8aace3d0c22a154b6b3d3e0860d79ff207b53be400a089b1f4",
    "Cyc(2)*Q8": "1e94ece04f6c2813b7e65266be6f9684bbeb9a44b683904e735746f9b1473c74",
    "Dih(50)": "9446a83de59f31719ee57b0ccfe77836e6f8d32c37d177c0ba38419ad82f9de3",
}


@pytest.mark.parametrize("group", sorted(CHARTABLE_STDOUT_SHA256))
def test_chartable_json_frozen(capsys, group):
    code = run(["chartable", "--group", group, "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CHARTABLE_STDOUT_SHA256[group]


# sha256 of the JSON stdout of `charmap` (values through descend and promote)
# and of `galois-dim`, taken from the implementation whose cyclotomic numbers
# had their own arithmetic beside the level rings' quotient ring
CHARMAP_STDOUT_SHA256 = {
    ("Sym(3)", 2): "f8d2041ea1958717653f5cc1db57926ce073cc33c73a6e302af51ac50a5e1cc1",
    ("Sym(4)", 2): "80f768432355fbc0e54456db7d9f1a79e940563085119b3030b39c0c80b003f7",
    ("Dih(5)", 5): "1b445db8c1e45397adcb29fb26ef1b24310a713228f72fbe322b0009a6a69bff",
    ("Q8", 2): "e1aaad310c912eeff1ed0f5ccb3e93843ec6bacd1dbbd988b094419d59e1142a",
    ("Cyc(12)", 3): "d89e66811e790c07511a660a636fd314f67081136772a043217a1b03ebcfa358",
    ("Cyc(3)*Sym(3)", 3): "cee83818cfd1b83a4b42d18df82f0cdff1de91bcdcb8ed5b988d928617314039",
}
GALOIS_DIM_STDOUT_SHA256 = {
    ("Cyc(8)", 2, 3): "fc4419131925d6e31b7e27ac8ca0304344602f5a7bdda73559d03285fffc65b2",
    ("Sym(4)", 2, 2): "23bcd51404b61e87663750cd22462a974863f0a331014fc64278bfc05c9144da",
    ("Dih(5)", 5, 1): "dc41cc89606a28a786149cf4ff2ba8873fb2b65397451ae829eacc85b3912d29",
    ("Q8", 2, 2): "605e35bc92fd50e98acad345c651edb9c047e23a209c465cf47fa651e4f7dc3c",
    ("Cyc(9)*Cyc(3)", 3, 2): "f9840151c3da3284606426369ef087d6ca9f452988b41784ea061cf1ca3af737",
    ("Sym(5)", 2, 2): "eeef07b056968708b2fa58d863289cfb90e4fc1bdcfccd575e30a0abafe4f6cf",
}


@pytest.mark.parametrize("group,p", sorted(CHARMAP_STDOUT_SHA256))
def test_charmap_json_frozen(capsys, group, p):
    code = run(["charmap", "--group", group, "--p", str(p), "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CHARMAP_STDOUT_SHA256[(group, p)]


@pytest.mark.parametrize("group,p,k", sorted(GALOIS_DIM_STDOUT_SHA256))
def test_galois_dim_json_frozen(capsys, group, p, k):
    code = run(["galois-dim", "--group", group, "--p", str(p), "--k", str(k), "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GALOIS_DIM_STDOUT_SHA256[(group, p, k)]


def test_galois_fixed_dim_equals_rank_prediction():
    for spec, p, k in (
        ("Cyc(4)", 2, 2),
        ("Sym(3)", 2, 1),
        ("Sym(3)", 3, 1),
        ("Q8", 2, 2),
        ("Dih(4)", 2, 2),
        ("Cyc(15)", 5, 1),
        ("Sym(7)", 2, 4),  # above the table cap, which it used to hit
    ):
        G = named_group(spec)
        assert galois_fixed_dim(G, p, k) == rank_prediction(G, p, 1)


def test_galois_fixed_dim_level_validation():
    with pytest.raises(HkrError):
        galois_fixed_dim(named_group("Cyc(8)"), 2, 1)  # 2-part of exponent is 8


def test_galois_fixed_dim_far_above_the_exponent():
    # units mod p^k beyond the p-part of the exponent only enlarge each
    # stabilizer by the units = 1 mod that p-part
    for spec, p, k in (("Sym(4)", 2, 7), ("Q8", 2, 6), ("Dih(9)", 3, 4), ("Cyc(2)*Q8", 2, 5), ("Cyc(5)", 5, 3)):
        G = named_group(spec)
        assert galois_fixed_dim(G, p, k) == rank_prediction(G, p, 1)


def test_galois_fixed_dim_checks_its_cap_before_listing_units(monkeypatch):
    G = named_group("Sym(4)")
    with pytest.raises(CapExceeded):
        galois_fixed_dim(G, 2, 40)
    with pytest.raises(CapExceeded):
        galois_fixed_dim(G, 2, 10**12)  # p^k is never formed
    with pytest.raises(ValueError):
        galois_fixed_dim(G, 2, -1)
    monkeypatch.setattr(charmap, "GALOIS_DIM_CAP", 64)  # phi(16)^2
    assert galois_fixed_dim(G, 2, 4) == 4
    with pytest.raises(CapExceeded):
        galois_fixed_dim(G, 2, 5)


def test_table_cap():
    with pytest.raises(CapExceeded):
        character_table(named_group("Dih(1024)"))


def test_to_json_shapes():
    table = character_table(named_group("Sym(3)"))
    doc = table.to_json()
    assert doc["conductor"] == 6
    assert len(doc["irreducibles"]) == 3
    assert [c["size"] for c in doc["classes"]] == [1, 2, 3]
    chi = table.irreducible(2)
    cdoc = chi.to_json()
    assert len(cdoc["values"]) == 3
