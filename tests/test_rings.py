"""Exact arithmetic: cyclotomic numbers, polynomials, linear algebra."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from hkr.levelrings import cpk_ring, drinfeld_dk
from hkr.rings import (
    PRIMALITY_BOUND,
    CyclotomicNumber,
    QuotientRing,
    RingElement,
    capped_power,
    cyclotomic_int_poly,
    euler_phi,
    fixed_space_dim,
    is_prime,
    mat_det,
    poly_add,
    poly_compose,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_to_text,
    poly_trim,
    poly_xgcd,
    rref_mod,
    zeta,
)
from hkr.rings import _int_echelon


def poly_eval(a, x):
    """a(x) by Horner, the oracle of poly_compose."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def test_integer_cyclotomic_polynomials_match_the_fraction_route():
    # the route they were computed by before: Fraction division of x^m - 1
    # by the cyclotomic polynomials of the proper divisors
    by_fractions = {}
    for m in range(1, 201):
        num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        for d in range(1, m):
            if m % d == 0:
                num, rem = poly_divmod(num, by_fractions[d])
                assert rem == []
        by_fractions[m] = num
        got = cyclotomic_int_poly(m)
        assert got == num
        assert all(type(c) is int for c in got)
        assert len(got) - 1 == euler_phi(m)


def cyclotomic_by_long_division(m, known):
    """Phi_m as x^m - 1 divided by Phi_d for each proper divisor d, in turn,
    by long division of monic integer polynomials: the route
    cyclotomic_int_poly took before it multiplied and divided binomials.
    known holds Phi_d for every d < m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = known[d]
            n = len(div) - 1
            quot = [0] * (len(num) - n)
            for i in reversed(range(len(quot))):
                c = quot[i] = num[i + n]
                if c:
                    for t, b in enumerate(div):
                        num[i + t] -= c * b
            assert not any(num[:n])
            num = quot
    return num


def test_cyclotomic_int_poly_matches_long_division():
    known = {}
    for m in range(1, 401):
        known[m] = cyclotomic_by_long_division(m, known)
        assert cyclotomic_int_poly(m) == known[m], m


def test_is_prime_agrees_with_trial_division_below_10_5():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for f in range(2, 317):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, 10**5, f)))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes_and_knows_large_primes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(10**24 + 7) and is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    assert not is_prime(PRIMALITY_BOUND - 1)
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PRIMALITY_BOUND)


def test_euler_phi_matches_gcd_count():
    for m in range(1, 80):
        assert euler_phi(m) == sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


def test_cyclotomic_int_poly_known_values():
    assert cyclotomic_int_poly(1) == [-1, 1]
    assert cyclotomic_int_poly(2) == [1, 1]
    assert cyclotomic_int_poly(4) == [1, 0, 1]
    assert cyclotomic_int_poly(6) == [1, -1, 1]
    assert cyclotomic_int_poly(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    for m in (1, 2, 3, 4, 6, 8, 12, 15, 20):
        prod = [Fraction(1)]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, [Fraction(c) for c in cyclotomic_int_poly(d)])
        want = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        assert prod == want


def test_root_of_unity_powers():
    for m in (1, 2, 3, 4, 6, 8, 9, 12):
        z = zeta(m)
        acc = CyclotomicNumber.from_rational(m, 1)
        for j in range(1, m + 1):
            acc = acc * z
            assert acc == CyclotomicNumber.root(m, j % m)
        assert acc == 1


def test_root_sums_vanish():
    # sum of all m-th roots of unity is zero for m > 1
    for m in (2, 3, 4, 6, 8, 12):
        total = CyclotomicNumber.zero(m)
        for j in range(m):
            total = total + zeta(m, j)
        assert total.is_zero()


def test_fourth_root_squares_to_minus_one():
    z = zeta(4)
    assert z * z == -1
    assert z * z * z * z == 1


def test_promote_descend_round_trip():
    for m, M in ((2, 4), (3, 6), (4, 12), (6, 12), (1, 5)):
        for j in range(m):
            x = zeta(m, j) + 2
            up = x.promote(M)
            assert up.conductor == M
            assert up.descend(m) == x


def test_promote_respects_arithmetic():
    a = zeta(6) + 1
    b = zeta(6, 5) * 3
    assert (a + b).promote(12) == a.promote(12) + b.promote(12)
    assert (a * b).promote(12) == a.promote(12) * b.promote(12)


def test_descend_rejects_values_outside_subfield():
    with pytest.raises(ValueError):
        zeta(4).descend(2)
    for m2 in (0, -4):  # a conductor below 1 is refused before any division by it
        with pytest.raises(ValueError):
            zeta(4).descend(m2)


def _rref(rows):
    """Reduced row echelon form in the entries' own arithmetic, which must be
    a field's (ints are divided as Fractions): (rows, pivot columns).  The
    oracle of the fraction-free elimination in hkr.rings."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        at = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        pivot = rows[rank] = [inv * x for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f != 0:
                rows[r] = [x - f * y for x, y in zip(row, pivot)]
        pivots.append(col)
    return rows, pivots


def mat_rank(rows):
    return len(_rref(rows)[1])


def mat_nullspace_dim(rows):
    return len(rows[0]) - mat_rank(rows) if rows else 0


def mat_solve(rows, rhs):
    """Solve A x = b by one exact elimination; returns one solution or None if
    inconsistent.  The oracle of CyclotomicNumber.descend."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = _rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x


def test_descend_matches_one_elimination_per_value():
    rng = random.Random(28)
    for m in range(1, 61):
        big = CyclotomicNumber.field(m)  # equal to the subfield when m = 2 * m2, m2 odd
        for m2 in (d for d in range(1, m + 1) if m % d == 0):
            small = CyclotomicNumber.field(m2)
            cols = [zeta(m2, j).promote(m).coords for j in range(small.dimension)]
            A = [list(row) for row in zip(*cols)]
            values = [small.element([rng.randint(-9, 9) for _ in range(small.dimension)]).promote(m),
                      small.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                     for _ in range(small.dimension)]).promote(m),
                      small.element([rng.randint(-9, 9)]).promote(m) + zeta(m)]
            for k, x in enumerate(values):
                sol = mat_solve(A, list(x.coords))
                if sol is None:
                    assert k == 2 and small.dimension < big.dimension, (m, m2)
                    with pytest.raises(ValueError, match="^value does not lie in the requested subfield$"):
                        x.descend(m2)
                    continue
                got = x.descend(m2)
                assert got.conductor == m2 and got == small.element(sol), (m, m2, k)
                assert [str(c) for c in got.coords] == [str(c) for c in small.element(sol).coords]
                assert got.promote(m) == x
            # zeta_m generates Q(zeta_m), so it is outside every proper subfield
            assert (mat_solve(A, list(values[2].coords)) is None) == (small.dimension < big.dimension)


def test_from_tally_is_sum_of_roots():
    tally = {0: 2, 3: 1, 5: 4}
    x = CyclotomicNumber.from_tally(12, tally)
    manual = CyclotomicNumber.zero(12)
    for e, mult in tally.items():
        for _ in range(mult):
            manual = manual + zeta(12, e)
    assert x == manual


def test_rational_detection():
    total = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert total.coords == (-1, 0, 0, 0) and total == -1
    assert any(zeta(5).coords[1:]) and zeta(5) != 0


def test_poly_divmod_identity():
    a = [Fraction(c) for c in (3, 0, -2, 5, 1)]
    b = [Fraction(c) for c in (1, 2, 1)]
    q, r = poly_divmod(a, b)
    assert poly_trim(poly_add(poly_mul(q, b), r)) == poly_trim(a)
    assert len(poly_trim(r)) < len(poly_trim(b))
    assert poly_mod(a, b) == poly_trim(r)


def test_poly_xgcd_bezout():
    a = [Fraction(c) for c in (-1, 0, 1)]  # x^2 - 1
    b = [Fraction(c) for c in (1, 2, 1)]  # (x + 1)^2
    g, u, v = poly_xgcd(a, b)
    lhs = poly_add(poly_mul(u, a), poly_mul(v, b))
    assert poly_trim(lhs) == poly_trim(g)
    assert poly_eval(g, Fraction(-1)) == 0  # x + 1 divides both


def test_poly_compose_matches_eval():
    f = [Fraction(c) for c in (1, -3, 0, 2)]
    g = [Fraction(c) for c in (2, 1)]
    comp = poly_compose(f, g)
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
        assert poly_eval(comp, x) == poly_eval(f, poly_eval(g, x))


def test_poly_to_text():
    assert poly_to_text([Fraction(0)]) == "0"
    assert poly_to_text([Fraction(2), Fraction(0), Fraction(-1)]) == "2 + -1*x^2"


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def test_mat_det_against_leibniz():
    mats = [
        [[2, 1], [7, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[0, 1, 0, 2], [1, 0, 3, 0], [2, 1, 1, 1], [0, 0, 1, 4]],
    ]
    for rows in mats:
        rows = [[Fraction(c) for c in row] for row in rows]
        assert mat_det(rows) == leibniz_det(rows)
    assert mat_det([]) == Fraction(1)
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[]]):
        with pytest.raises(ValueError):
            mat_det(rows)


def test_mat_rank_and_nullspace():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    assert mat_rank(rows) == 2
    assert mat_nullspace_dim(rows) == 1


def test_fixed_space_dim():
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # columns: e0 -> e1, e1 -> e0, e2 -> e2
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]  # e0 -> e1 -> e2 -> e0
    assert fixed_space_dim([], 3) == 3
    assert fixed_space_dim([swap], 3) == 2
    assert fixed_space_dim([cycle], 3) == 1
    assert fixed_space_dim([swap, cycle], 3) == 1
    assert fixed_space_dim([[[Fraction(-1)]]], 1) == 0
    half = Fraction(1, 2)
    assert fixed_space_dim([[[half]]], 1) == 0
    assert fixed_space_dim([[[half, half], [half, half]]], 2) == 1  # projection onto e0 + e1
    assert fixed_space_dim([[[half, Fraction(1, 3)], [half, Fraction(2, 3)]]], 2) == 1


@st.composite
def int_matrices(draw):
    ncols = draw(st.integers(1, 7))
    entries = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))
    if len(rows) > 1 and draw(st.booleans()):  # a dependent row
        c = draw(st.integers(-3, 3))
        rows.insert(draw(st.integers(0, len(rows))), [c * a + b for a, b in zip(rows[0], rows[-1])])
    return rows


@settings(max_examples=400, deadline=None)
@given(int_matrices())
def test_int_rank_matches_the_field_rank(rows):
    copy = [list(row) for row in rows]
    pivot_rows, cols = _int_echelon(rows)
    assert cols == _rref(rows)[1]
    for row, col in zip(pivot_rows, cols):
        assert row[col] and not any(row[:col])  # zero left of its pivot
    assert mat_rank(rows + pivot_rows) == len(cols)  # in the row space of the input
    assert rows == copy  # input left alone


def test_galois_fixed_spaces_rank_alike_in_ints_and_fractions():
    # fixed_space_dim ranks integer blocks by _int_echelon; the field route is the oracle
    for pk in (8, 9, 16, 25, 27, 49):
        phi = euler_phi(pk)
        for u in range(2, pk):
            if math.gcd(u, pk) == 1:
                maps = [[CyclotomicNumber.root(pk, u * t).coords for t in range(phi)]]
                stacked = [[col[s] - (s == t) for t, col in enumerate(maps[0])] for s in range(phi)]
                assert fixed_space_dim(maps, phi) == mat_nullspace_dim(stacked), (pk, u)


def test_scalars_must_be_rational():
    z, one = zeta(4), CyclotomicNumber.from_rational(4, 1)
    for bad in (0.5, 1.0, 1j, "1", None):
        for op in (lambda: z + bad, lambda: z - bad, lambda: bad - z, lambda: z * bad, lambda: bad * z):
            with pytest.raises(TypeError):
                op()
        assert one != bad and z != bad
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z and one == Fraction(2, 2)


def test_mat_rank_over_prime_field():
    rows = [[1, 2], [3, 6]]  # second row is 3x the first mod 5
    red, pivots = rref_mod(rows, 5)
    assert pivots == [0] and red == [[1, 2]]


def test_mat_solve():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    rhs = [Fraction(5), Fraction(10)]
    x = mat_solve(rows, rhs)
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


def test_cyclotomic_field_context_linear_algebra():
    z = zeta(4)
    one = CyclotomicNumber.from_rational(4, 1)
    rows = [[one, z], [z, -one]]
    # det = -1 - z^2 = 0, so the matrix is singular
    assert mat_rank(rows) == 1


def test_field_context_inverse():
    z = zeta(8)
    x = z + 1
    assert x * (1 / x) == 1
    with pytest.raises(ZeroDivisionError):
        1 / CyclotomicNumber.zero(8)


def test_integral_values_have_int_coordinates():
    values = [
        CyclotomicNumber.from_tally(12, {0: 2, 3: 1, 5: 4}),
        CyclotomicNumber.from_rational(7, 3),
        CyclotomicNumber.zero(9),
        zeta(5, 3),
        (zeta(12) + 2) * zeta(12, 7) * (zeta(12, 5) - 3),
        (zeta(4) + 1).promote(12).galois(5),
    ]
    for x in values:
        assert all(type(c) is int for c in x.coords), x


def test_integral_fraction_coordinates_normalise_to_int():
    for m in (3, 4, 6):
        a = CyclotomicNumber.field(m).element([Fraction(3), 0])
        b = CyclotomicNumber.field(m).element([3, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_text() == b.to_text() == "3"
        assert all(type(c) is int for c in a.coords)


def test_inverse_of_non_unit_keeps_fraction_coordinates():
    x = 1 + zeta(4)  # norm 2, not a unit in Z[i]
    inv = x.inverse()
    assert any(type(c) is Fraction for c in inv.coords)
    assert inv.coords == (Fraction(1, 2), Fraction(-1, 2))
    one = x * inv
    assert one == 1 and one == CyclotomicNumber.from_rational(4, 1)
    assert all(type(c) is int for c in one.coords)


def test_int_matrices_eliminate_in_fractions():
    # the pivot inverse is Fraction(1) / lead: 1 / lead on ints would be a float
    rows = [[2, 1], [1, 3]]
    x = mat_solve(rows, [5, 10])
    assert x == [Fraction(1), Fraction(3)]
    assert all(type(v) is Fraction for v in x)
    for square in ([[2, 1], [7, 4]], [[0, 3], [5, 7]], [[1, 2], [2, 4]], [[4]]):
        det = mat_det(square)
        assert type(det) is Fraction
        assert det == leibniz_det([[Fraction(c) for c in row] for row in square])


def test_mat_det_over_a_cyclotomic_field():
    z = zeta(3)
    rows = [[z, 1, 0], [2, z * z, z], [1, 0, 3]]
    # expansion along the first row
    want = z * (z * z * 3 - z * 0) - 1 * (2 * 3 - z * 1) + 0
    assert want == z - 3
    assert mat_det(rows) == want
    assert mat_det([[z, z * z], [1, z]]) == 0


def test_rref_mod_reduces_entries_as_it_copies():
    rows = [[7, 12, -3], [2, 4, 6], [9, 16, 3]]  # third row = first + second
    red, pivots = rref_mod(rows, 5)
    assert pivots == [0, 1]
    assert all(0 <= v < 5 for row in red for v in row)
    assert rows == [[7, 12, -3], [2, 4, 6], [9, 16, 3]]  # input left alone
    assert rref_mod([[5, 10], [15, 20]], 5) == ([], [])


@st.composite
def matrices_mod_q(draw):
    q = draw(st.sampled_from([2, 3, 5, 97]))
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-200, 200), min_size=ncols, max_size=ncols), max_size=6))
    return rows, q


@settings(max_examples=300, deadline=None)
@given(matrices_mod_q())
def test_rref_mod_returns_reduced_row_echelon_form(case):
    # the Dixon split reads a combination of a basis off its pivot columns
    rows, q = case
    red, pivots = rref_mod(rows, q)
    assert len(red) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert all(0 <= v < q for row in red for v in row)
    for s, (row, col) in enumerate(zip(red, pivots)):
        assert row[col] == 1 and not any(row[:col])
        assert [other[col] for other in red] == [int(t == s) for t in range(len(red))]
    # every input row is the combination of red given by its pivot entries
    for row in rows:
        combo = [sum(row[col] * r[c] for r, col in zip(red, pivots)) for c in range(len(row))]
        assert all((a - b) % q == 0 for a, b in zip(row, combo))


def _padded(coeffs, n):
    return list(coeffs) + [0] * (n - len(coeffs))


def test_cyclotomic_reduction_table_matches_long_division():
    # element() reads one table of x^e mod Phi_m; poly_mod divides in Fractions
    rng = random.Random(9)
    for m in range(1, 61):
        field = CyclotomicNumber.field(m)
        n = field.dimension
        assert field is CyclotomicNumber.field(m) and n == euler_phi(m)
        for _ in range(3):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3 * n + 1))]
            got = field.element(coeffs)
            assert type(got) is CyclotomicNumber and got.conductor == m
            assert list(got.coords) == _padded(poly_mod(coeffs, field.modulus), n)
            assert all(type(c) is int for c in got.coords)


def test_cyclotomic_numbers_are_ring_elements():
    rng = random.Random(11)
    for m in (1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 21, 30, 45, 60):
        field = CyclotomicNumber.field(m)
        a = CyclotomicNumber.from_tally(m, {rng.randrange(m): rng.randint(-3, 3) for _ in range(4)})
        b = CyclotomicNumber.from_tally(m, {rng.randrange(m): rng.randint(-3, 3) for _ in range(4)})
        assert isinstance(a, RingElement) and a.ring is field
        prod = a * b
        assert type(prod) is CyclotomicNumber
        schoolbook = poly_mul(list(a.coords), list(b.coords))
        assert list(prod.coords) == _padded(poly_mod(schoolbook, field.modulus), field.dimension)
        assert type(a**3) is type(a + 1) is type(-a) is type(2 - a) is CyclotomicNumber


def test_cyclotomic_numbers_inherit_all_their_arithmetic():
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse", "is_zero"):
        assert name not in vars(CyclotomicNumber), name
        assert getattr(CyclotomicNumber, name) is getattr(RingElement, name)


def test_quotient_ring_needs_a_monic_integer_modulus():
    for bad in ([1], [1, 2], [Fraction(1, 2), 1], []):
        with pytest.raises(ValueError):
            QuotientRing(bad)
    ring = QuotientRing([1, 0, 1])  # Q(i)
    i = ring.x
    assert i * i == -1 and (1 + i) ** -1 == ring.element([Fraction(1, 2), Fraction(-1, 2)])
    assert i == zeta(4) and i + zeta(4) == 2 * i  # rings compare by modulus
    with pytest.raises(ValueError):
        i + zeta(8)
    assert i != zeta(8)


def test_constants_hash_as_the_rationals_they_equal():
    for m in (1, 2, 3, 4, 12, 15):
        for q in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 1)):
            a = CyclotomicNumber.from_rational(m, q)
            assert a == q and hash(a) == hash(q)
            assert len({a, q}) == 1 and {a: "element"}[q] == "element"
    ring = QuotientRing([1, 0, 1])
    assert hash(ring.element([Fraction(1, 2)])) == hash(Fraction(1, 2))
    assert len({zeta(4), -1}) == 2 and zeta(4) ** 2 in {-1}


def test_capped_power_stops_past_the_bound():
    assert capped_power(3, 4, 100) == 81
    assert capped_power(3, 5, 100) == 243
    assert capped_power(3, 10**12, 100) == 243  # p^k is never formed
    assert capped_power(2, 0, 0) == 1
    assert capped_power(1, 10**12, 5) == 1 and capped_power(0, 10**12, 5) == 0


# ---------------------------------------------------------------------------
# the product kernel against the schoolbook product, and powers against
# repeated products


def schoolbook(x, y):
    """The dense product of the coordinate polynomials, reduced by element()."""
    a, b = x.coeffs, y.coeffs
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return x.ring.element(prod)


def same(got, want):
    """Equal coordinates of equal types: the bytes printed from them agree."""
    assert type(got) is type(want) and got.ring is want.ring
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


# mostly zeros and small values, as character values are, with a few large ones
SPARSE_INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2]) | st.integers(-10**12, 10**12)
FRACTIONS = st.sampled_from([0, 0, 1]) | st.fractions(-4, 4, max_denominator=6)
# Q(cbrt 2), a quartic with a non-unit constant term, and Q(i)
FRACTION_RINGS = [QuotientRing(f) for f in ([-2, 0, 0, 1], [3, -1, 0, 2, 1], [1, 0, 1])]
LEVEL_RINGS = [cpk_ring(2, 3), cpk_ring(3, 2), drinfeld_dk(5, 1), drinfeld_dk(2, 3)]


def elements(ring, coords=SPARSE_INTS):
    return st.lists(coords, min_size=ring.dimension, max_size=ring.dimension).map(ring.element)


def ring_and_elements(count, coords=SPARSE_INTS, rings=None):
    if rings is None:
        rings = st.integers(1, 60).map(CyclotomicNumber.field)
    return rings.flatmap(lambda ring: st.tuples(*[elements(ring, coords)] * count))


@settings(max_examples=300, deadline=None)
@given(ring_and_elements(2))
def test_cyclotomic_product_matches_the_schoolbook_product(pair):
    x, y = pair
    same(x * y, schoolbook(x, y))


@settings(max_examples=100, deadline=None)
@given(ring_and_elements(2, rings=st.sampled_from(LEVEL_RINGS)))
def test_level_ring_product_matches_the_schoolbook_product(pair):
    x, y = pair
    same(x * y, schoolbook(x, y))
    if x.ring.integral:  # integral factors give an integral product
        assert all(type(c) is int for c in (x * y).coeffs)


@settings(max_examples=200, deadline=None)
@given(ring_and_elements(2, FRACTIONS, st.sampled_from(FRACTION_RINGS)))
def test_fraction_product_matches_the_schoolbook_product(pair):
    x, y = pair
    same(x * y, schoolbook(x, y))
    same(x * 3, schoolbook(x, x.ring.element([3])))
    same(Fraction(1, 2) * x, schoolbook(x, x.ring.element([Fraction(1, 2)])))


def test_product_of_fractions_with_an_integral_sum_stores_ints():
    ring = QuotientRing([1, 0, 1])
    half = ring.element([Fraction(1, 2), Fraction(1, 2)])
    square = half * half  # (1 + i)^2 / 4 = i / 2
    assert [type(c) for c in square.coeffs] == [int, Fraction]
    assert [type(c) for c in (square * 2).coeffs] == [int, int] and square * 2 == ring.x


@settings(max_examples=200, deadline=None)
@given(ring_and_elements(1), st.integers(0, 9))
def test_power_is_the_repeated_product(single, k):
    (x,) = single
    want = x.ring.one
    for _ in range(k):
        want = want * x
    same(x**k, want)


@settings(max_examples=60, deadline=None)
@given(
    ring_and_elements(1, st.sampled_from([0, 0, 1, -1, 2]), st.integers(1, 20).map(CyclotomicNumber.field)),
    st.integers(1, 5),
)
def test_negative_power_of_a_unit_is_the_repeated_product_of_its_inverse(single, k):
    (x,) = single
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x ** -k
        return
    inv = x.inverse()
    want = x.ring.one
    for _ in range(k):
        want = want * inv
    same(x ** -k, want)
    assert x ** -k * x**k == 1


def test_power_makes_one_product_per_binary_digit_and_one_per_later_set_bit(monkeypatch):
    calls = []
    product = RingElement.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    x = zeta(15) + 2
    for k in range(1, 65):
        calls.clear()
        x**k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k
    calls.clear()
    assert x**0 == 1 and not calls
