"""Formal group laws: axioms, multiplication series, angle factors."""

import math
import time
from fractions import Fraction

import pytest

from hkr.fgl import (
    TruncatedSeries,
    angle_series,
    coprimality_check,
    fgl_inverse,
    fgl_sum,
    m_series,
    make_fgl,
    ps_compose,
    ps_reversion,
    reduce_series_mod,
    series_to_poly,
    weierstrass_degree,
)
from hkr.rings import QQ, ModularIntegers, poly_add, poly_mul, poly_trim


def x_series(D=12):
    return TruncatedSeries.variable(QQ, 1, D, 0)


def test_named_laws_have_expected_coefficients():
    add = make_fgl("additive", D=6)
    assert add.series.coeffs == {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    mult = make_fgl("multiplicative", D=6)
    assert mult.series.coeffs == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 1): Fraction(1),
    }


def test_unknown_law_and_bad_degree_are_rejected():
    with pytest.raises(ValueError):
        make_fgl("elliptic")
    with pytest.raises(ValueError):
        make_fgl("additive", D=0)
    with pytest.raises(ValueError):
        make_fgl("additive", D=65)
    with pytest.raises(ValueError):
        make_fgl("honda(2,0)")


def test_honda_ring_constraints():
    with pytest.raises(ValueError):
        make_fgl("honda(2,1)", ring=ModularIntegers(3, 1))
    law = make_fgl("honda(2,1)", ring=ModularIntegers(2, 2), D=8)
    assert law.ring.modulus == 4


def test_additive_m_series_is_mx():
    law = make_fgl("additive", D=10)
    for m in (-3, -1, 0, 1, 2, 7):
        s = m_series(law, m)
        expect = {} if m == 0 else {(1,): Fraction(m)}
        assert s.coeffs == expect


def test_multiplicative_m_series_is_binomial():
    # [m](x) = (1 + x)^m - 1
    D = 10
    law = make_fgl("multiplicative", D=D)
    for m in (1, 2, 3, 5, 8):
        s = m_series(law, m)
        want = {(i,): Fraction(math.comb(m, i)) for i in range(1, min(m, D) + 1)}
        assert s.coeffs == want
    # [-1](x) = (1 + x)^(-1) - 1 = -x + x^2 - x^3 + ...
    inv = m_series(law, -1)
    assert inv.coeffs == {(i,): Fraction((-1) ** i) for i in range(1, D + 1)}


def test_fgl_inverse_cancels():
    for name in ("additive", "multiplicative", "honda(2,2)", "honda(3,1)"):
        law = make_fgl(name, D=9)
        x = x_series(9)
        i = fgl_inverse(law, x)
        assert fgl_sum(law, x, i).is_zero()


def test_fgl_sum_is_commutative_on_samples():
    law = make_fgl("honda(2,1)", D=8)
    x = x_series(8)
    f = x * x + x
    g = x * x * x - x
    assert fgl_sum(law, f, g) == fgl_sum(law, g, f)


def test_ps_reversion_compose_identity():
    f = TruncatedSeries(
        QQ, 1, 10, {(1,): Fraction(1), (2,): Fraction(1), (3,): Fraction(3)}
    )
    rev = ps_reversion(f)
    assert ps_compose(f, rev) == x_series(10)
    assert ps_compose(rev, f) == x_series(10)


def test_honda_p_series_mod_p_is_a_pure_power():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = make_fgl(f"honda({p},{n})", D=16)
        reduced = reduce_series_mod(m_series(law, p), p, 1)
        assert reduced.coeffs == {(p**n,): 1}


def test_angle_factor_zero_is_x():
    law = make_fgl("multiplicative", D=8)
    assert angle_series(law, 2, 0) == x_series(8)


def test_angle_factors_multiply_to_p_series():
    for name, p, k in (
        ("multiplicative", 2, 3),
        ("multiplicative", 3, 2),
        ("honda(2,1)", 2, 2),
        ("honda(2,2)", 2, 1),
        ("honda(3,1)", 3, 1),
    ):
        law = make_fgl(name, D=16, check=False)
        prod = angle_series(law, p, 0)
        for i in range(1, k + 1):
            prod = prod * angle_series(law, p, i)
        assert prod == m_series(law, p**k)


def test_weierstrass_degrees():
    mult = make_fgl("multiplicative", D=16)
    assert weierstrass_degree(reduce_series_mod(m_series(mult, 2), 2, 1)) == 2
    assert weierstrass_degree(reduce_series_mod(m_series(mult, 4), 2, 1)) == 4
    h22 = make_fgl("honda(2,2)", D=16)
    assert weierstrass_degree(reduce_series_mod(m_series(h22, 2), 2, 1)) == 4
    add = make_fgl("additive", D=16)
    assert weierstrass_degree(reduce_series_mod(m_series(add, 2), 2, 1)) == math.inf
    with pytest.raises(ValueError):
        weierstrass_degree(m_series(mult, 2))  # not reduced


def test_reduce_series_mod():
    law = make_fgl("multiplicative", D=6)
    s = reduce_series_mod(m_series(law, 6), 3, 1)
    for (d,), c in s.coeffs.items():
        assert c == math.comb(6, d) % 3


def test_honda_coefficients_are_p_integral():
    for p, n in ((2, 1), (2, 2), (3, 1), (5, 1)):
        law = make_fgl(f"honda({p},{n})", D=16)
        for c in law.series.coeffs.values():
            assert c.denominator % p != 0


def test_coprimality_certificate_verifies_independently():
    for p in (2, 3):
        for i in range(3):
            for j in range(i + 1, 3):
                cert = coprimality_check(p, i, j)
                assert cert.coprime
                law = make_fgl("multiplicative", D=max(p**j, 2), check=False)
                fi = series_to_poly(angle_series(law, p, i))
                fj = series_to_poly(angle_series(law, p, j))
                combo = poly_add(
                    poly_mul(list(cert.cofactor_i), fi),
                    poly_mul(list(cert.cofactor_j), fj),
                )
                assert poly_trim(combo) == [Fraction(1)]


def test_coprimality_rejects_equal_levels():
    with pytest.raises(ValueError):
        coprimality_check(2, 1, 1)


def test_series_equality_and_truncation():
    law = make_fgl("multiplicative", D=8)
    a = m_series(law, 2)
    assert a.truncate(4).degree == 4
    assert a.truncate(4) != a
    assert series_to_poly(a) == [Fraction(0), Fraction(2), Fraction(1)]


def _sequential_m_series(law, m):
    # m substitutions F(x, [j]) and the formal inverse for m < 0
    x = TruncatedSeries.variable(law.ring, 1, law.degree, 0)
    cur = TruncatedSeries.zero(law.ring, 1, law.degree)
    for _ in range(abs(m)):
        cur = fgl_sum(law, x, cur)
    return fgl_inverse(law, cur) if m < 0 else cur


@pytest.mark.parametrize("name", ["additive", "multiplicative", "honda(2,1)"])
def test_m_series_double_and_add_matches_the_sequential_sum(name):
    law = make_fgl(name, D=10)
    for m in range(-5, 10):
        assert m_series(law, m) == _sequential_m_series(law, m), m


@pytest.mark.parametrize("name,D", [("additive", 16), ("multiplicative", 16), ("honda(2,1)", 8)])
def test_m_series_of_a_huge_index_is_quick(name, D):
    # |m| sequential substitutions never finished here
    law = make_fgl(name, D=D)
    start = time.perf_counter()
    series = m_series(law, 10**7)
    assert time.perf_counter() - start < 5
    assert series.coefficient(1) == 10**7
    if name == "multiplicative":
        assert series.coefficient(2) == math.comb(10**7, 2)
