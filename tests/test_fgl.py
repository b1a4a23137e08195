"""Formal group laws: axioms, multiplication series, angle factors."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from hkr.cli import run
from hkr.errors import CapExceeded
from hkr.fgl import (
    TruncatedSeries,
    _bivariate,
    _charge_m_series,
    _validate_law,
    angle_series,
    coprimality_check,
    fgl_sum,
    m_series,
    make_fgl,
    p_power_weierstrass_degree,
    series_to_poly,
    weierstrass_degree,
)
from hkr.rings import poly_add, poly_mul, poly_trim


NAMED_LAWS = ["additive", "multiplicative", "honda(2,1)", "honda(2,2)", "honda(2,3)",
              "honda(3,1)", "honda(3,2)", "honda(5,1)", "honda(7,1)", "honda(11,1)"]


def x_series(D=12):
    return TruncatedSeries.variable(1, D, 0)


# The routes that m_series and the Newton-built e replaced, kept as oracles.

def ps_compose(f, g):
    """f(g(x)) for 1-variable series; g must have zero constant term."""
    return f.substitute([g])


def ps_reversion(f):
    """The compositional inverse of f = c1 x + ... with c1 != 0, solving
    f(g(x)) = x degree by degree: each new coefficient of g is fixed by one
    division by c1."""
    inv_c1 = 1 / Fraction(f.coefficient((1,)))
    coeffs = {(1,): inv_c1}
    for d in range(2, f.degree + 1):
        err = ps_compose(f, TruncatedSeries(1, f.degree, coeffs)).coefficient((d,))
        if err != 0:
            coeffs[(d,)] = -(err * inv_c1)
    return TruncatedSeries(1, f.degree, coeffs)


def fgl_inverse(law, f):
    """The series i with F(f, i) = 0, by the iteration i <- i - F(f, i); each
    pass fixes one more degree because dF/dy = 1 + higher terms."""
    zero = TruncatedSeries.zero(1, f.degree)
    inv = zero - f
    for _ in range(f.degree + 1):
        err = law.series.substitute([f, inv])
        if err == zero:
            return inv
        inv = inv - err
    raise ArithmeticError("formal inverse iteration did not converge")


def _double_and_add(law, m):
    """[m](x) by double-and-add on |m| with [a + b](x) = F([a](x), [b](x));
    [-m] is the formal inverse of [m]."""
    F, D = law.series, law.degree
    out, power = TruncatedSeries.zero(1, D), x_series(D)  # power is [2^i](x)
    k = abs(m)
    while k:
        if k & 1:
            out = F.substitute([power, out])
        k >>= 1
        if k:
            power = F.substitute([power, power])
    return fgl_inverse(law, out) if m < 0 else out


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
    # honda(1,1) looped forever, honda(0,1) divided by zero, honda(4,1) answered
    for name in ("honda(2,0)", "honda(1,1)", "honda(0,1)", "honda(4,1)"):
        with pytest.raises(ValueError, match="prime p and n >= 1"):
            make_fgl(name, D=6)


def test_honda_law_of_a_huge_height_is_quick():
    # p^(n i) used to be computed before it was compared with D
    start = time.perf_counter()
    law = make_fgl("honda(2,99999999)", D=8)
    assert time.perf_counter() - start < 5
    assert law.series == make_fgl("additive", D=8).series


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
        assert fgl_sum(law, x, i) == TruncatedSeries.zero(1, 9)
        assert m_series(law, -1) == i


def test_fgl_sum_is_commutative_on_samples():
    law = make_fgl("honda(2,1)", D=8)
    x = x_series(8)
    f = x * x + x
    g = x * x * x - x
    assert fgl_sum(law, f, g) == fgl_sum(law, g, f)


def test_ps_reversion_compose_identity():
    f = TruncatedSeries(1, 10, {(1,): Fraction(1), (2,): Fraction(1), (3,): Fraction(3)})
    rev = ps_reversion(f)
    assert ps_compose(f, rev) == x_series(10)
    assert ps_compose(rev, f) == x_series(10)


def test_honda_p_series_mod_p_is_a_pure_power():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = make_fgl(f"honda({p},{n})", D=16)
        reduced = {e: c % p for e, c in m_series(law, p).coeffs.items() if c % p}
        assert reduced == {(p**n,): 1}


def test_angle_factor_zero_is_x():
    law = make_fgl("multiplicative", D=8)
    assert angle_series(law, 2, 0) == x_series(8)


@pytest.mark.parametrize("name", NAMED_LAWS)
def test_angle_factor_is_exact_at_its_top_degree(name):
    # [p](x) / x read from a [p](x) cut at D lost or misstated its x^D term
    for D in (4, 8, 16):
        law, wider = make_fgl(name, D=D), make_fgl(name, D=D + 8)
        for p in (2, 3, 5):
            for k in range(3):
                assert angle_series(law, p, k) == angle_series(wider, p, k).truncate(D), (D, p, k)


@pytest.mark.parametrize("name", ["additive", "multiplicative", "honda(2,1)", "honda(3,1)"])
def test_m_series_is_exact_to_one_degree_past_the_law(name):
    law = make_fgl(name, D=8)
    for m in (2, 3, -1):
        assert m_series(law, m, 9) == m_series(make_fgl(name, D=9), m), m
    for degree in (0, 10):
        with pytest.raises(ValueError):  # log and exp hold only D + 1 terms
            m_series(law, 2, degree)


def test_angle_factors_multiply_to_p_series():
    for name, p, k in (
        ("multiplicative", 2, 3),
        ("multiplicative", 3, 2),
        ("honda(2,1)", 2, 2),
        ("honda(2,2)", 2, 1),
        ("honda(3,1)", 3, 1),
    ):
        law = make_fgl(name, D=16)
        prod = angle_series(law, p, 0)
        for i in range(1, k + 1):
            prod = prod * angle_series(law, p, i)
        assert prod == m_series(law, p**k)


def test_weierstrass_degrees():
    mult = make_fgl("multiplicative", D=16)
    assert weierstrass_degree(m_series(mult, 2), 2) == 2
    assert weierstrass_degree(m_series(mult, 4), 2) == 4
    assert weierstrass_degree(m_series(mult, 6), 3) == 3
    h22 = make_fgl("honda(2,2)", D=16)
    assert weierstrass_degree(m_series(h22, 2), 2) == 4
    add = make_fgl("additive", D=16)
    assert weierstrass_degree(m_series(add, 2), 2) == math.inf
    with pytest.raises(ArithmeticError):
        weierstrass_degree(TruncatedSeries(1, 4, {(1,): Fraction(1, 2), (2,): 1}), 2)


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
                law = make_fgl("multiplicative", D=max(p**j, 2))
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
    x = TruncatedSeries.variable(1, law.degree, 0)
    cur = TruncatedSeries.zero(1, law.degree)
    for _ in range(abs(m)):
        cur = fgl_sum(law, x, cur)
    return fgl_inverse(law, cur) if m < 0 else cur


@pytest.mark.parametrize("name", ["additive", "multiplicative", "honda(2,1)"])
def test_m_series_double_and_add_matches_the_sequential_sum(name):
    law = make_fgl(name, D=10)
    for m in range(-5, 10):
        assert m_series(law, m) == _sequential_m_series(law, m), m
        assert _double_and_add(law, m) == _sequential_m_series(law, m), m


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


def _associative_in_three_variables(F):
    """F(F(x, y), z) == F(x, F(y, z)) by substitution into three variables,
    the reference for the logarithm certificate in _validate_law."""
    D = F.degree
    x, y, z = (TruncatedSeries.variable(3, D, i) for i in range(3))
    return F.substitute([F.substitute([x, y]), z]) == F.substitute([x, F.substitute([y, z])])


@pytest.mark.parametrize("name", NAMED_LAWS)
def test_logarithm_certificate_agrees_with_three_variable_associativity(name):
    law = make_fgl(name, D=12)
    assert _associative_in_three_variables(law.series)
    # a symmetric term that is no 2-cocycle breaks associativity at degree 4
    bent = law.series + TruncatedSeries(2, 12, {(2, 2): 1})
    assert not _associative_in_three_variables(bent)
    with pytest.raises(ValueError, match="associativity"):
        _validate_law(bent, name)


def _horner_substitute(series, args):
    """series(args) by nested Horner passes, one product per exponent from the
    top one down, recursing once per variable: the reference for
    TruncatedSeries.substitute, which builds memoized powers instead."""
    D = min(series.degree, args[0].degree)
    nt = args[0].nvars

    def horner(coeffs, var):
        if var == series.nvars:
            return TruncatedSeries.constant(nt, D, coeffs[()])
        by_exp = {}
        for exps, c in coeffs.items():
            by_exp.setdefault(exps[0], {})[exps[1:]] = c
        top = max(by_exp, default=0)
        acc = TruncatedSeries.zero(nt, D)
        for e in range(top, -1, -1):
            if e < top:
                acc = acc * args[var]
            inner = by_exp.get(e)
            if inner is not None:
                acc = acc + horner(inner, var + 1)
        return acc

    kept = {exps: c for exps, c in series.coeffs.items() if sum(exps) <= D}
    return horner(kept, 0).truncate(D)


def _monomials(nvars, D, low=0):
    return [e for e in itertools.product(range(D + 1), repeat=nvars) if low <= sum(e) <= D]


def _random_outer(rng, kind, nvars, D, coeff):
    if kind == "zero":
        return TruncatedSeries.zero(nvars, D)
    if kind == "constant":
        return TruncatedSeries.constant(nvars, D, coeff(rng))
    if kind == "sparse":  # every exponent 0 or a power of 2
        powers = [0] + [2**i for i in range(D.bit_length())]
        monos = [e for e in itertools.product(powers, repeat=nvars) if sum(e) <= D]
    else:
        monos = _monomials(nvars, D)
        if kind == "scattered":  # odd exponents without their predecessors
            monos = rng.sample(monos, max(1, len(monos) // 3))
    return TruncatedSeries(nvars, D, {e: coeff(rng) for e in monos})


def _int_coeff(rng):
    return rng.randint(-9, 9)


def _fraction_coeff(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("kind", ["dense", "sparse", "scattered", "zero", "constant"])
def test_substitute_matches_the_horner_reference(kind, nvars):
    rng = random.Random(f"{kind}-{nvars}")
    for nt in (1, 2, 3):
        D = 4 if nt == 3 or nvars == 3 else 6
        for arg_D in (D + 2, D, D - 2):  # arguments above, at and below the outer degree
            for coeff in (_int_coeff, _fraction_coeff):
                outer = _random_outer(rng, kind, nvars, D, coeff)
                args = [
                    TruncatedSeries(nt, arg_D, {e: coeff(rng) for e in _monomials(nt, arg_D, 1)})
                    for _ in range(nvars)
                ]
                got = outer.substitute(args)
                assert got == _horner_substitute(outer, args), (nt, arg_D, coeff.__name__)
                assert got.degree == min(D, arg_D)


def _count_products(monkeypatch, least_terms):
    """Count TruncatedSeries products whose operands both have at least
    least_terms terms; returns the list that grows by one per product."""
    counted = []
    mul = TruncatedSeries.__mul__

    def counting(a, b):
        if len(a.coeffs) >= least_terms and len(b.coeffs) >= least_terms:
            counted.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    return counted


def _dense(D):
    return TruncatedSeries(1, D, {(d,): d + 1 for d in range(1, D + 1)})


def test_sparse_outer_series_costs_a_chain_of_squarings(monkeypatch):
    # the Horner route took 63 products here, one per exponent below 64
    D = 64
    log = TruncatedSeries(1, D, {(2**i,): Fraction(1, 2**i) for i in range(7)})
    arg = _dense(D)
    counted = _count_products(monkeypatch, 2)
    got = log.substitute([arg])
    assert len(counted) <= 12
    monkeypatch.undo()
    assert got == _horner_substitute(log, [arg])


def test_law_substitution_builds_each_power_once(monkeypatch):
    # the Horner route took 496 products for honda(2,1) at D = 32
    D = 32
    F = make_fgl("honda(2,1)", D).series
    args = [_dense(D), TruncatedSeries(1, D, {(d,): (-1) ** d * d for d in range(1, D + 1)})]
    counted = _count_products(monkeypatch, 2)
    got = F.substitute(args)
    assert len(counted) <= 4 * D
    monkeypatch.undo()
    assert got == _horner_substitute(F, args)


@pytest.mark.parametrize("name", NAMED_LAWS)
def test_m_series_matches_the_double_and_add_oracle(name):
    for D in (1, 4, 8, 16):
        law = make_fgl(name, D=D)
        for m in (0, 1, -1, 2, 3, 5, -7, 2**20 + 1):
            assert m_series(law, m) == _double_and_add(law, m), (D, m)


@pytest.mark.parametrize("name", [law for law in NAMED_LAWS if law.startswith("honda")])
def test_newton_reversion_matches_the_degree_by_degree_oracle(name):
    for D in (1, 2, 7, 16, 32):
        law = make_fgl(name, D=D)
        assert law.exp == ps_reversion(law.log), D
        assert law.log.degree == law.exp.degree == D + 1


@pytest.mark.parametrize("name", NAMED_LAWS)
def test_cli_never_builds_the_two_variable_law(capsys, monkeypatch, name):
    def refuse(F, name):
        raise AssertionError("the two-variable law was built")

    _bivariate.cache_clear()
    monkeypatch.setattr("hkr.fgl._validate_law", refuse)
    for argv in (["series", name, "-3"], ["angle", name, "--p", "3", "--k", "2"],
                 ["wdeg", name, "--p", "2", "--k", "1"]):
        assert run(["fgl", *argv, "--no-cache"]) == 0, argv
    capsys.readouterr()
    with pytest.raises(AssertionError, match="two-variable"):
        make_fgl(name, D=4).series


@pytest.mark.parametrize("argv", [
    ["series", "honda(2,1)", "3", "--D", "64"],
    ["series", "honda(2,1)", "5", "--D", "32"],
    ["angle", "honda(2,1)", "--p", "2", "--k", "200"],
], ids=["honda-3-D64", "honda-5-D32", "honda-k200"])
def test_calls_the_product_model_refused_answer_quickly(capsys, argv):
    # each exited 1 on the angle caps' product model, the first after 10.6 s
    start = time.perf_counter()
    code, captured = run(["fgl", *argv, "--no-cache"]), capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert code == 0 and captured.err == "" and "x^" in captured.out


@pytest.mark.parametrize("coeffs", [
    {(1, 0): 1, (0, 1): 1, (2, 2): 1},
    {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1},
], ids=["x+y+x2y2", "x+y+xy+x2y+xy2"])
def test_certificate_rejects_symmetric_unital_non_associative_laws(coeffs):
    F = TruncatedSeries(2, 8, coeffs)
    assert not _associative_in_three_variables(F)
    with pytest.raises(ValueError, match="associativity"):
        _validate_law(F, "F")


def test_certificate_rejects_a_law_without_a_linear_term():
    with pytest.raises(ValueError, match="F\\(0, y\\) != y"):
        _validate_law(TruncatedSeries(2, 4, {}), "zero")


@pytest.mark.parametrize("name", NAMED_LAWS[:8])
def test_p_power_weierstrass_degree_matches_the_direct_route(name):
    for D in (4, 8, 16):
        law = make_fgl(name, D=D)
        for p in (2, 3, 5):
            for k in range(5):
                direct = weierstrass_degree(m_series(law, p**k), p)
                assert p_power_weierstrass_degree(law, p, k) == direct, (D, p, k)


@pytest.mark.parametrize("name,k", [("multiplicative", 3000), ("honda(2,1)", 30)])
def test_p_power_weierstrass_degree_of_a_huge_level_is_quick(name, k):
    # [2^k] itself took 38 s and 7.6 s
    law = make_fgl(name, D=16)
    start = time.perf_counter()
    assert p_power_weierstrass_degree(law, 2, k) == math.inf
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["multiplicative", "--p", "2", "--k", "3000", "--D", "16"],
    ["honda(2,1)", "--p", "2", "--k", "300"],
], ids=["mult-k3000", "honda-k300"])
def test_angle_refuses_a_huge_level_at_once(capsys, argv):
    # the first never finished; at D = 16 the level 2^299 is the first past
    # the bits cap, while 2^199 (k = 200) now answers
    start = time.perf_counter()
    code, captured = run(["fgl", "angle", *argv, "--no-cache"]), capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "angle caps" in captured.err


@pytest.mark.parametrize("name,D", [("honda(2,1)", 16), ("multiplicative", 16)])
def test_series_refuses_a_huge_index_at_once(capsys, name, D):
    # honda(2,1) ran past 60 s; multiplicative exited 2 after 1.6 s on a
    # coefficient past Python's 4300-digit limit for str
    start = time.perf_counter()
    code = run(["fgl", "series", name, str(10**300), "--D", str(D), "--no-cache"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "angle caps" in captured.err
    with pytest.raises(CapExceeded):
        m_series(make_fgl(name, D=D), -(10**300))


@pytest.mark.parametrize("name,p,D", [
    ("multiplicative", 2, 64), ("multiplicative", 7, 16), ("honda(2,1)", 2, 8),
    ("honda(2,1)", 2, 16), ("honda(3,1)", 3, 16), ("honda(2,1)", 7, 16),
])
def test_largest_admitted_angle_level_is_quick(name, p, D):
    law = make_fgl(name, D=D)
    k = 1
    while True:  # angle_series(law, p, k) charges [p^(k-1)]
        try:
            _charge_m_series(D, p**k)
        except CapExceeded:
            break
        k += 1
    start = time.perf_counter()
    factor = angle_series(law, p, k)
    assert time.perf_counter() - start < 5
    assert factor.coefficient(0) == p
    with pytest.raises(CapExceeded):
        angle_series(law, p, k + 1)


def _law_argvs(law, p):
    for D in ("4", "8"):
        for m in ("2", "3", "-1"):
            yield ["fgl", "series", law, m, "--D", D]
        for k in ("0", "1", "2"):
            yield ["fgl", "angle", law, "--p", str(p), "--k", k, "--D", D]
            yield ["fgl", "wdeg", law, "--p", str(p), "--k", k, "--D", D]


def _coprime_argvs(p):
    levels = [i for i in range(7) if p**i <= 64]
    for i in levels:
        for j in levels:
            if i != j:
                yield ["fgl", "coprime", "--p", str(p), str(i), str(j)]


def _stdout_digest(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        assert run(argv + ["--no-cache"]) == 0, argv
        digest.update(capsys.readouterr().out.encode("utf-8"))
    return digest.hexdigest()


# sha256 of the concatenated JSON stdout of the invocations above, taken from
# the implementation that validated laws by substituting into three variables
# and reduced series through coefficient-ring contexts.  The honda(2,1),
# honda(3,1), honda(3,2) and honda(5,1) digests were retaken when angle
# factors gained their x^D term, which a [p](x) cut at D had lost or misstated;
# no other byte of their output changed.
LAW_STDOUT_SHA256 = {
    ("additive", 2): "b2fe737f58bdb45bfa50309e1a9f7636c197d08b9971511a52ff215368bbee0a",
    ("multiplicative", 2): "8abc71eb3448db3790efcffabda78b4b11650c5f3fcf15184c6cb4a9c26f61a3",
    ("multiplicative", 3): "1fa8313e7c900a045045b5a1098d31451b464cc05bb745797285c1e379964e46",
    ("honda(2,1)", 2): "027fbde6b6c4e22fc76e089d3e19c9bee54e1c6f3380ece31675baaff148c76a",
    ("honda(2,2)", 2): "0ff8e849d8e16e8f1707e104364de36100329838a2821027f2a6fe50fefde975",
    ("honda(2,3)", 2): "2db3b8a0af669756d3aeebe73929724995497b4e22787660b910998bd879de16",
    ("honda(3,1)", 3): "6958204a8e9e5d08db7d8429ac71e52fa1c74fc9eea8e09ae327fa3057b91adf",
    ("honda(3,2)", 3): "696a2d1812b0a746e9923cfe6e07847c72a901fee911ed769689eb809bd13914",
    ("honda(5,1)", 5): "b3efbe52da46e7958bc8ee64fccce3251acc1031c97bf579c5ae110da29af08d",
    ("honda(7,1)", 7): "4eb56ee11f64df2ffff9a4757c4b0b9ce983c245e066bb480dc0d4101b4998fa",
}
COPRIME_STDOUT_SHA256 = {
    2: "b522baa3bb0e6ed5d463ee34e5b52a1c325010c1ff9322decde703c1428be86f",
    3: "a575132a9550c530e4b83d1053f9b81c5cfff2380ba20e64b12414e82794f7cd",
    5: "e7717a4e564c337ee5880e7fcbb3cd79745ac18dfcceb99c5f1cbc7cb3cb02d4",
    7: "b6d312b1cd057c3d71d492b810485355ec506a6434a7786ac87be68d0c2077c8",
}


@pytest.mark.parametrize("law,p", sorted(LAW_STDOUT_SHA256))
def test_fgl_json_frozen(capsys, law, p):
    assert _stdout_digest(capsys, _law_argvs(law, p)) == LAW_STDOUT_SHA256[(law, p)]


@pytest.mark.parametrize("p", sorted(COPRIME_STDOUT_SHA256))
def test_fgl_coprime_json_frozen(capsys, p):
    assert _stdout_digest(capsys, _coprime_argvs(p)) == COPRIME_STDOUT_SHA256[p]
