"""Formal group laws as exactly truncated power series.

Series live in 1 to 3 variables over an exact coefficient ring and are cut off
at a total degree D.  A law is a two-variable series F with F(x, 0) = x,
F(0, y) = y, F symmetric, and F(F(x, y), z) = F(x, F(y, z)) up to degree D;
the associativity check really substitutes into three variables.

Supported constructions: the additive law x + y, the multiplicative law
x + y + xy, and for each prime p and height n the p-typical law with logarithm
sum_i x^(p^(n*i)) / p^i over the rationals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .rings import QQ, ModularIntegers, Rationals, poly_trim

__all__ = [
    "TruncatedSeries",
    "FormalGroupLaw",
    "CoprimalityCertificate",
    "ps_compose",
    "ps_reversion",
    "make_fgl",
    "fgl_sum",
    "fgl_inverse",
    "m_series",
    "angle_series",
    "weierstrass_degree",
    "reduce_series_mod",
    "series_to_poly",
    "coprimality_check",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 16
MAX_TRUNCATION = 64


def _check_degree(D: int):
    if not 1 <= D <= MAX_TRUNCATION:
        raise ValueError(f"truncation degree must be in 1..{MAX_TRUNCATION}, got {D}")


class TruncatedSeries:
    """A power series in nvars variables, exact up to total degree D.

    Coefficients are stored sparsely as {exponent tuple: ring element}; zero
    coefficients are never stored.  Arithmetic between series of different
    degrees truncates to the smaller degree.
    """

    __slots__ = ("ring", "nvars", "degree", "coeffs")

    def __init__(self, ring, nvars: int, degree: int, coeffs: dict):
        if nvars not in (1, 2, 3):
            raise ValueError("series support 1 to 3 variables")
        _check_degree(degree)
        self.ring = ring
        self.nvars = nvars
        self.degree = degree
        clean = {}
        for exps, c in coeffs.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent {exps} does not have {nvars} entries")
            if sum(exps) > degree or ring.is_zero(c):
                continue
            clean[exps] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars: int, degree: int) -> TruncatedSeries:
        return cls(ring, nvars, degree, {})

    @classmethod
    def constant(cls, ring, nvars: int, degree: int, c) -> TruncatedSeries:
        return cls(ring, nvars, degree, {(0,) * nvars: c})

    @classmethod
    def variable(cls, ring, nvars: int, degree: int, index: int = 0) -> TruncatedSeries:
        exps = [0] * nvars
        exps[index] = 1
        return cls(ring, nvars, degree, {tuple(exps): ring.one})

    # -- ring operations ----------------------------------------------------

    def _common(self, other: TruncatedSeries) -> int:
        if self.ring != other.ring and repr(self.ring) != repr(other.ring):
            raise ValueError(f"coefficient rings differ: {self.ring!r} vs {other.ring!r}")
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return min(self.degree, other.degree)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        D = self._common(other)
        out = dict(self.coeffs)
        ring = self.ring
        for e, c in other.coeffs.items():
            got = out.get(e)
            out[e] = c if got is None else ring.add(got, c)
        return TruncatedSeries(ring, self.nvars, D, out)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        D = self._common(other)
        out = dict(self.coeffs)
        ring = self.ring
        for e, c in other.coeffs.items():
            got = out.get(e)
            out[e] = ring.neg(c) if got is None else ring.sub(got, c)
        return TruncatedSeries(ring, self.nvars, D, out)

    def __neg__(self) -> TruncatedSeries:
        ring = self.ring
        return TruncatedSeries(
            ring, self.nvars, self.degree, {e: ring.neg(c) for e, c in self.coeffs.items()}
        )

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        D = self._common(other)
        ring = self.ring
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            if d1 > D:
                continue
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > D:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = ring.mul(c1, c2)
                got = out.get(e)
                out[e] = c if got is None else ring.add(got, c)
        return TruncatedSeries(ring, self.nvars, D, out)

    def __pow__(self, k: int) -> TruncatedSeries:
        if k < 0:
            raise ValueError("negative series powers are not defined here")
        out = TruncatedSeries.constant(self.ring, self.nvars, self.degree, self.ring.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def coefficient(self, exps) -> object:
        exps = tuple(exps) if not isinstance(exps, int) else (exps,)
        return self.coeffs.get(exps, self.ring.zero)

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, self.ring.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, D: int) -> TruncatedSeries:
        _check_degree(D)
        return TruncatedSeries(
            self.ring, self.nvars, D, {e: c for e, c in self.coeffs.items() if sum(e) <= D}
        )

    def substitute(self, args: list[TruncatedSeries]) -> TruncatedSeries:
        """Substitute one series per variable.

        Every argument must have zero constant term (otherwise truncation
        would lose information), live over the same ring, and share a common
        variable count.  Evaluation is by nested Horner passes so the number
        of series multiplications stays linear in the degree.
        """
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution arguments")
        target = args[0]
        ring = self.ring
        for a in args:
            if a.nvars != target.nvars or a.degree != target.degree:
                raise ValueError("substitution arguments must match in shape")
            if not ring.is_zero(a.constant_term()):
                raise ValueError("substitution arguments must have zero constant term")
        D = min(self.degree, target.degree)
        nt = target.nvars

        def horner(coeffs: dict, var: int) -> TruncatedSeries:
            # coeffs: {exponents of variables var.. : coefficient}; Horner in
            # args[var] over the exponent of that variable, recursing on the rest
            if var == self.nvars:
                return TruncatedSeries.constant(ring, nt, D, coeffs[()])
            by_exp: dict[int, dict] = {}
            for exps, c in coeffs.items():
                by_exp.setdefault(exps[0], {})[exps[1:]] = c
            top = max(by_exp, default=0)
            acc = TruncatedSeries.zero(ring, nt, D)
            for e in range(top, -1, -1):
                if e < top:
                    acc = acc * args[var]
                inner = by_exp.get(e)
                if inner is not None:
                    acc = acc + horner(inner, var + 1)
            return acc

        kept = {exps: c for exps, c in self.coeffs.items() if sum(exps) <= D}
        return horner(kept, 0).truncate(D)

    def to_text(self, variables=("x", "y", "z")) -> str:
        """Canonical text form: terms by total degree, then lexicographic exponents."""
        if not self.coeffs:
            return "0"
        parts = []
        for exps in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            c = self.coeffs[exps]
            mono = "*".join(
                (variables[i] if e == 1 else f"{variables[i]}^{e}")
                for i, e in enumerate(exps)
                if e
            )
            ctext = self.ring.text(c)
            parts.append(f"{ctext}*{mono}" if mono else ctext)
        return " + ".join(parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"TruncatedSeries[{self.to_text()} + O(deg {self.degree + 1})]"


def ps_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(x)) for 1-variable series; g must have zero constant term."""
    if f.nvars != 1 or g.nvars != 1:
        raise ValueError("ps_compose works on 1-variable series")
    return f.substitute([g])


def ps_reversion(f: TruncatedSeries) -> TruncatedSeries:
    """The compositional inverse of f = c1 x + ... with c1 a unit.

    Solves f(g(x)) = x degree by degree: each new coefficient of g is fixed by
    one division by c1.
    """
    if f.nvars != 1:
        raise ValueError("reversion works on 1-variable series")
    ring = f.ring
    if not ring.is_zero(f.constant_term()):
        raise ValueError("reversion needs zero constant term")
    c1 = f.coefficient((1,))
    if not ring.is_unit(c1):
        raise ValueError("reversion needs an invertible linear coefficient")
    inv_c1 = ring.inv(c1)
    D = f.degree
    coeffs = {(1,): inv_c1}
    for d in range(2, D + 1):
        g = TruncatedSeries(ring, 1, D, coeffs)
        err = ps_compose(f, g).coefficient((d,))
        if not ring.is_zero(err):
            coeffs[(d,)] = ring.neg(ring.mul(err, inv_c1))
    return TruncatedSeries(ring, 1, D, coeffs)


@dataclass(frozen=True)
class FormalGroupLaw:
    """A validated two-variable law together with its name and ring."""

    name: str
    ring: object
    series: TruncatedSeries

    @property
    def degree(self) -> int:
        return self.series.degree

    def __repr__(self):
        return f"FormalGroupLaw[{self.name} over {self.ring!r} to degree {self.degree}]"


def _validate_law(F: TruncatedSeries, name: str):
    ring = F.ring
    D = F.degree
    for (i, j), c in F.coeffs.items():
        if j == 0 and not (i == 1 and c == ring.one) and not ring.is_zero(c):
            raise ValueError(f"{name}: F(x, 0) != x at exponent {(i, j)}")
        if i == 0 and not (j == 1 and c == ring.one) and not ring.is_zero(c):
            raise ValueError(f"{name}: F(0, y) != y at exponent {(i, j)}")
    for (i, j), c in F.coeffs.items():
        if F.coeffs.get((j, i), ring.zero) != c:
            raise ValueError(f"{name}: law is not symmetric at exponent {(i, j)}")
    x3 = TruncatedSeries.variable(ring, 3, D, 0)
    y3 = TruncatedSeries.variable(ring, 3, D, 1)
    z3 = TruncatedSeries.variable(ring, 3, D, 2)
    fxy = F.substitute([x3, y3])
    fyz = F.substitute([y3, z3])
    left = F.substitute([fxy, z3])
    right = F.substitute([x3, fyz])
    if left != right:
        raise ValueError(f"{name}: associativity fails up to degree {D}")


def _honda_law_rational(p: int, n: int, D: int) -> TruncatedSeries:
    # logarithm sum x^(p^(n i)) / p^i, then F = log^(-1)(log x + log y)
    log_coeffs = {}
    i = 0
    while p ** (n * i) <= D:
        log_coeffs[(p ** (n * i),)] = Fraction(1, p**i)
        i += 1
    log = TruncatedSeries(QQ, 1, D, log_coeffs)
    exp = ps_reversion(log)
    x2 = TruncatedSeries.variable(QQ, 2, D, 0)
    y2 = TruncatedSeries.variable(QQ, 2, D, 1)
    logsum = log.substitute([x2]) + log.substitute([y2])
    F = exp.substitute([logsum])
    for exps, c in F.coeffs.items():
        if c.denominator % p == 0:
            raise ArithmeticError(f"p-typical law coefficient at {exps} is not p-integral")
    return F

_HONDA_NAME = re.compile(r"honda\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def make_fgl(name: str, ring=QQ, D: int = DEFAULT_TRUNCATION, *, check: bool = True) -> FormalGroupLaw:
    """Build a named law: "additive", "multiplicative", or "honda(p,n)".

    The p-typical laws are built over the rationals from their logarithm and
    reduced into the requested ring afterwards; their coefficients are checked
    to be p-integral.  With check=True (the default) the law axioms, including
    three-variable associativity, are verified up to degree D.
    """
    _check_degree(D)
    key = name.replace(" ", "")
    if key == "additive":
        F = TruncatedSeries(ring, 2, D, {(1, 0): ring.one, (0, 1): ring.one})
    elif key == "multiplicative":
        F = TruncatedSeries(
            ring, 2, D, {(1, 0): ring.one, (0, 1): ring.one, (1, 1): ring.one}
        )
    else:
        m = _HONDA_NAME.fullmatch(key)
        if m is None:
            raise ValueError(f"unknown law {name!r}")
        p, n = int(m.group(1)), int(m.group(2))
        if n < 1:
            raise ValueError("honda(p, n) needs n >= 1")
        rational = _honda_law_rational(p, n, D)
        if isinstance(ring, Rationals):
            F = rational
        elif isinstance(ring, ModularIntegers):
            if ring.p != p:
                raise ValueError(f"ring modulus prime {ring.p} does not match p = {p}")
            F = _map_series(rational, ring)
        else:
            raise ValueError("honda laws live over QQ or over integers mod p^N")
    law = FormalGroupLaw(key, ring, F)
    if check:
        _validate_law(F, key)
    return law


def _map_series(s: TruncatedSeries, ring: ModularIntegers) -> TruncatedSeries:
    out = {}
    for e, c in s.coeffs.items():
        c = Fraction(c)
        if c.denominator % ring.p == 0:
            raise ArithmeticError(f"coefficient at {e} has denominator divisible by {ring.p}")
        out[e] = ring.mul(c.numerator % ring.modulus, ring.inv(c.denominator % ring.modulus))
    return TruncatedSeries(ring, s.nvars, s.degree, out)


def reduce_series_mod(s: TruncatedSeries, p: int, N: int = 1) -> TruncatedSeries:
    """Reduce a series over QQ into integers mod p^N (denominators must be
    prime to p)."""
    if isinstance(s.ring, Rationals):
        return _map_series(s, ModularIntegers(p, N))
    raise ValueError("reduction applies to series over QQ")


def fgl_sum(law: FormalGroupLaw, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """The formal sum F(f, g)."""
    return law.series.substitute([f, g])


def fgl_inverse(law: FormalGroupLaw, f: TruncatedSeries) -> TruncatedSeries:
    """The formal inverse: the series i with F(f, i) = 0.

    Newton-style iteration i <- i - F(f, i); each pass fixes one more degree
    because dF/dy = 1 + higher terms.
    """
    if not law.ring.is_zero(f.constant_term()):
        raise ValueError("formal inverse needs zero constant term")
    inv = -f
    for _ in range(f.degree):
        err = law.series.substitute([f, inv])
        if err.is_zero():
            return inv
        inv = inv - err
    err = law.series.substitute([f, inv])
    if not err.is_zero():
        raise ArithmeticError("formal inverse iteration did not converge")
    return inv


def m_series(law: FormalGroupLaw, m: int) -> TruncatedSeries:
    """The m-fold formal sum [m](x), for any integer m.

    Double-and-add on |m| with [a + b](x) = F([a](x), [b](x)), so the cost is
    O(log |m|) substitutions; [-m] is the formal inverse of [m].
    """
    D = law.degree
    out = TruncatedSeries.zero(law.ring, 1, D)
    power = TruncatedSeries.variable(law.ring, 1, D, 0)  # [2^i](x)
    k = abs(m)
    while k:
        if k & 1:
            out = law.series.substitute([power, out])
        k >>= 1
        if k:
            power = law.series.substitute([power, power])
    if m < 0:
        out = fgl_inverse(law, out)
    return out


def angle_series(law: FormalGroupLaw, p: int, k: int) -> TruncatedSeries:
    """The k-th angle factor of the p-series.

    Writing [p](x) = x * e(x), the factor is e([p^(k-1)](x)); for k = 0 it is
    x itself.  The factors multiply back to the p^k-series:
    [p^k](x) = product of the angle factors for 0 <= i <= k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    D = law.degree
    ring = law.ring
    if k == 0:
        return TruncatedSeries.variable(ring, 1, D, 0)
    pser = m_series(law, p)
    if not ring.is_zero(pser.constant_term()):
        raise ArithmeticError("p-series has a constant term")
    e = TruncatedSeries(ring, 1, D, {(d - 1,): c for (d,), c in pser.coeffs.items()})
    inner = m_series(law, p ** (k - 1))
    return e.substitute([inner]) if k > 1 else e


def weierstrass_degree(s: TruncatedSeries):
    """Index of the first coefficient that is a unit mod p, or math.inf.

    The series must live over integers mod p^N; reduce first if needed.
    """
    ring = s.ring
    if not isinstance(ring, ModularIntegers):
        raise ValueError("weierstrass_degree needs a series over integers mod p^N")
    best = None
    for (d,), c in s.coeffs.items():
        if c % ring.p != 0 and (best is None or d < best):
            best = d
    return math.inf if best is None else best


def series_to_poly(s: TruncatedSeries) -> list:
    """Dense coefficient list of a 1-variable series (exact only if the series
    really is a polynomial of degree <= its truncation)."""
    if s.nvars != 1:
        raise ValueError("series_to_poly works on 1-variable series")
    out = [s.ring.zero] * (s.degree + 1)
    for (d,), c in s.coeffs.items():
        out[d] = c
    return poly_trim(out)


@dataclass(frozen=True)
class CoprimalityCertificate:
    """Bezout data for a pair of angle factors of the multiplicative law."""

    p: int
    i: int
    j: int
    coprime: bool
    gcd: tuple
    cofactor_i: tuple
    cofactor_j: tuple


def coprimality_check(p: int, i: int, j: int) -> CoprimalityCertificate:
    """Angle factors of the multiplicative law at distinct levels are coprime
    over QQ; returns the certificate u*f_i + v*f_j = 1.

    The factors are honest polynomials (the multiplicative p^k-series is
    (1+x)^(p^k) - 1), so the extended Euclidean algorithm applies verbatim.
    """
    from .rings import poly_add as padd, poly_mul as pmul, poly_xgcd

    if i == j:
        raise ValueError("levels must be distinct for a coprimality certificate")
    D = min(max(p ** max(i, j), 2), MAX_TRUNCATION)
    if p ** max(i, j) > MAX_TRUNCATION:
        raise ValueError(
            f"angle factor degree p^{max(i, j)} exceeds the supported truncation {MAX_TRUNCATION}"
        )
    law = make_fgl("multiplicative", QQ, D, check=False)
    fi = series_to_poly(angle_series(law, p, i))
    fj = series_to_poly(angle_series(law, p, j))
    g, u, v = poly_xgcd(fi, fj)
    ok = g == [Fraction(1)]
    combo = padd(pmul(u, fi), pmul(v, fj))
    if ok and combo != [Fraction(1)]:
        raise ArithmeticError("Bezout certificate failed to verify")
    return CoprimalityCertificate(p, i, j, ok, tuple(g), tuple(u), tuple(v))
