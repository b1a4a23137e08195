"""Character tables, the character map, and the power operations.

The table builder has two independent engines (generator bookkeeping for
abelian groups, modular eigenspace splitting otherwise); several tests run
both on the same group and require identical value sets.
"""

import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from hkr.acceptance import named_suite
from hkr import charmap, commuting, groupcore
from hkr.charmap import (
    MAX_POWER_OP_DEGREE,
    CharacterTable,
    _abelian_rows,
    _canonical_order,
    _charpoly_mod,
    _dixon_rows,
    _eigenspaces_mod,
    _eigenvalue_multiplicities,
    _find_modular_prime,
    _nullspace_mod,
    _orthogonality_certificate,
    _rational_classes,
    _roots_of_unity,
    _uniform_sum_is_zero,
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
from hkr.rings import CyclotomicNumber, rref_mod, zeta


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
        rows_a = _abelian_rows(G, classes, m)
        rows_d = _dixon_rows(G, classes, m)
        canon_a = {tuple(tuple(sorted(t.items())) for t in row) for row in rows_a}
        canon_d = {tuple(tuple(sorted(t.items())) for t in row) for row in rows_d}
        assert canon_a == canon_d


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
    k, members = next((k, mem) for k, mem in _rational_classes(power_map(G)) if len(mem) > 1)
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
    k, members = next((k, mem) for k, mem in _rational_classes(power_map(G)) if len(mem) > 1)
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


def test_one_lift_per_rational_class(monkeypatch):
    # Dih(97): 48 rotation classes form one rational class
    G = named_group("Dih(97)")
    orbits = _rational_classes(power_map(G))
    assert len(orbits) == 3
    calls = []

    def counted(f, deg, powers, q):
        calls.append(len(f))
        return _eigenvalue_multiplicities(f, deg, powers, q)

    monkeypatch.setattr(charmap, "_eigenvalue_multiplicities", counted)
    rows = _dixon_rows(G, conjugacy_classes(G), G.exponent())
    assert len(calls) == len(rows) * len(orbits)
    assert _canonical_order(rows, G.exponent()) == list(character_table(G).rows)


def test_abelian_tables_never_build_the_power_map():
    G = make_group(6, [Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    assert orthogonality_report(character_table(G)).ok
    assert "power_map" not in G._cache


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


def test_uniform_sum_certificate():
    assert _uniform_sum_is_zero([0, 0, 0], 6) is False  # all-zero list, not a root sum
    assert _uniform_sum_is_zero([0, 2, 4], 6) is True  # full set of cube roots
    assert _uniform_sum_is_zero([0, 3, 0, 3], 6) is True  # doubled pair of square roots
    assert _uniform_sum_is_zero([6, 8, -2], 6) is True  # exponents are read mod m
    for bad in ([0, 0, 2], [0, 2, 4, 4], [0, 2, 2, 4, 4, 0, 0], [1, 3, 5]):
        with pytest.raises(HkrError, match="not equidistributed"):
            _uniform_sum_is_zero(bad, 6)
    for single in ([3], [2, 2, 2], [1, 1]):  # one nonzero value, however often
        with pytest.raises(HkrError):
            _uniform_sum_is_zero(single, 6)


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
    # abelian: the identity entry swapped with another in every row
    cyc12 = character_table(named_group("Cyc(12)"))
    report = orthogonality_report(swapped(cyc12, [(i, 0, 2) for i in range(12)]))
    assert (report.rows_ok, report.columns_ok) == (True, False)
    assert report.failures == (("column", 0, 0), ("column", 2, 2))
    # two entries of one row swapped: a column stops being equidistributed
    with pytest.raises(HkrError, match="not equidistributed"):
        orthogonality_report(swapped(cyc12, [(2, 3, 5)]))
    # uniform rows and columns that are not closed under division
    G = named_group("Cyc(2)*Cyc(2)")
    exps = [(0, 0, 0, 0), (1, 2, 3, 0), (2, 3, 1, 0), (3, 1, 2, 0)]
    fake = CharacterTable(G, conjugacy_classes(G), 4, [tuple({e: 1} for e in r) for r in exps])
    report = orthogonality_report(fake)
    assert (report.rows_ok, report.columns_ok) == (False, False)
    assert report.failures == (
        ("row-closure", 0, 1), ("row-closure", 0, 2), ("row-closure", 0, 3),
        ("row-closure", 1, 2), ("row-closure", 1, 3), ("column", 0, 0), ("column", 3, 3),
    )


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


def test_class_function_algebra():
    G = named_group("Sym(3)")
    chis = irreducible_characters(G)
    a, b = chis[1], chis[2]
    assert int_values(a + b) == (3, 0, -1)
    assert int_values(a * b) == (2, -1, 0)
    assert int_values(-a) == (-1, -1, 1)
    assert (a - a).values[0].is_zero()


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
    cases = [(chi, m) for spec in ("Sym(4)", "Q8", "Dih(6)", "Cyc(12)")
             for chi in irreducible_characters(named_group(spec)) for m in range(2, 14)]
    before = [adams_psi(m, chi) for chi, m in cases]

    def refuse(G):
        raise AssertionError("adams_psi read the power map")

    for module in (groupcore, charmap, commuting):
        monkeypatch.setattr(module, "power_map", refuse)
    assert [adams_psi(m, chi) for chi, m in cases] == before


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


def test_total_power_degree_cap():
    chi = irreducible_characters(named_group("Cyc(2)"))[0]
    with pytest.raises(CapExceeded):
        total_power(MAX_POWER_OP_DEGREE + 1, chi)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            total_power(k, chi)


def test_psi_level_equals_adams_on_small_suite():
    for spec in ("Sym(3)", "Q8", "Cyc(6)"):
        G = named_group(spec)
        for chi in irreducible_characters(G):
            for p, k in ((2, 1), (2, 2), (3, 1)):
                assert psi_level(p, k, chi) == adams_psi(p**k, chi)


def test_psi_level_rejects_non_unit_evaluation():
    chi = irreducible_characters(named_group("Sym(3)"))[0]
    with pytest.raises(ValueError):
        psi_level(2, 1, chi, j=2)


def test_psi_level_degree_cap():
    chi = irreducible_characters(named_group("Cyc(3)"))[1]
    assert 3**2 > MAX_POWER_OP_DEGREE
    with pytest.raises(CapExceeded):
        psi_level(3, 2, chi)


def test_psi_level_at_another_unit_equals_adams():
    for spec in ("Q8", "Sym(4)"):
        for chi in irreducible_characters(named_group(spec)):
            assert psi_level(2, 2, chi, j=3) == adams_psi(4, chi)


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
