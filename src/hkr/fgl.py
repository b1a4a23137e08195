"""Formal group laws over the rationals, held in logarithm coordinates.

Series live in 1 to 3 variables with exact rational coefficients (int or
Fraction) and are cut off at a total degree D.  A named law has a logarithm
l = x + ... over Q: x for the additive law, and sum_i x^(p^(n*i)) / p^i for
the p-typical law of a prime p and height n.  With e = l^-1, built by
Newton's iteration, the m-series is [m](x) = e(m l(x)) (Hazewinkel, Formal
Groups and Applications, 1978).  The multiplicative law x + y + xy, whose
logarithm log(1 + x) is dense, has [m](x) = (1 + x)^m - 1.

The two-variable law F = e(l(x) + l(y)) is built only when read, and then
validated on a route of its own: F(x, 0) = x, F(0, y) = y, F symmetric, and
its logarithm, the integral of 1 / (dF/dy)(x, 0), satisfies l(F(x, y)) =
l(x) + l(y) up to degree D, which makes F associative up to degree D (ibid.
§5).
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from fractions import Fraction

from .errors import CapExceeded
from .levelrings import _cyclo_in_one_plus_x
from .rings import capped_power, is_prime, poly_add, poly_mul, poly_trim, poly_xgcd

__all__ = [
    "TruncatedSeries",
    "FormalGroupLaw",
    "CoprimalityCertificate",
    "make_fgl",
    "fgl_sum",
    "m_series",
    "angle_series",
    "weierstrass_degree",
    "p_power_weierstrass_degree",
    "series_to_poly",
    "coprimality_check",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 16
MAX_TRUNCATION = 64
# cap on the coefficient size of [m](x) in m_series, see _charge_m_series
ANGLE_BITS_CAP = 4096


class TruncatedSeries:
    """A power series in nvars variables, exact up to total degree D.

    Coefficients are stored sparsely as {exponent tuple: int or Fraction},
    an integral Fraction as an int (which multiplies faster); zero
    coefficients are never stored.  Arithmetic between series of different
    degrees truncates to the smaller degree.
    """

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: dict):
        if nvars not in (1, 2, 3):
            raise ValueError("series support 1 to 3 variables")
        if degree < 1:
            raise ValueError(f"truncation degree must be >= 1, got {degree}")
        self.nvars = nvars
        self.degree = degree
        clean = {}
        for exps, c in coeffs.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent {exps} does not have {nvars} entries")
            if sum(exps) > degree or c == 0:
                continue
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            clean[exps] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int) -> TruncatedSeries:
        return cls(nvars, degree, {})

    @classmethod
    def constant(cls, nvars: int, degree: int, c) -> TruncatedSeries:
        return cls(nvars, degree, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, degree: int, index: int = 0) -> TruncatedSeries:
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, degree, {tuple(exps): 1})

    # -- ring operations ----------------------------------------------------

    def _common(self, other: TruncatedSeries) -> int:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return min(self.degree, other.degree)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        D = self._common(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            got = out.get(e)
            out[e] = c if got is None else got + c
        return TruncatedSeries(self.nvars, D, out)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        D = self._common(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            got = out.get(e)
            out[e] = -c if got is None else got - c
        return TruncatedSeries(self.nvars, D, out)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        D = self._common(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            if d1 > D:
                continue
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > D:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                got = out.get(e)
                out[e] = c if got is None else got + c
        return TruncatedSeries(self.nvars, D, out)

    # -- structure ----------------------------------------------------------

    def coefficient(self, exps) -> object:
        exps = tuple(exps) if not isinstance(exps, int) else (exps,)
        return self.coeffs.get(exps, 0)

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, 0)

    def truncate(self, D: int) -> TruncatedSeries:
        return TruncatedSeries(self.nvars, D, {e: c for e, c in self.coeffs.items() if sum(e) <= D})

    def substitute(self, args: list[TruncatedSeries]) -> TruncatedSeries:
        """Substitute one series per variable.

        Every argument must have zero constant term (otherwise truncation
        would lose information) and share a common variable count.  Each
        argument's needed powers are built once, power e as power e-1 times
        the argument when power e-1 is needed too, else as the product of its
        halves, so a sparse series costs a chain of squarings.  The terms
        sharing every exponent but the last sum the last argument's powers
        with scalar coefficients, then take one product per earlier variable.
        """
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution arguments")
        target = args[0]
        for a in args:
            if a.nvars != target.nvars or a.degree != target.degree:
                raise ValueError("substitution arguments must match in shape")
            if a.constant_term() != 0:
                raise ValueError("substitution arguments must have zero constant term")
        D = min(self.degree, target.degree)
        kept = [(exps, c) for exps, c in self.coeffs.items() if sum(exps) <= D]
        powers = []
        for var, arg in enumerate(args):
            need = {0, 1} | {exps[var] for exps, _ in kept}
            for e in range(max(need), 1, -1):  # top down: e - 1 is settled before e
                if e in need and e - 1 not in need:
                    need |= {e // 2, e - e // 2}
            memo = {0: TruncatedSeries.constant(target.nvars, D, 1), 1: arg.truncate(D)}
            for e in sorted(need)[2:]:
                h = e // 2
                memo[e] = memo[e - 1] * memo[1] if e - 1 in need else memo[h] * memo[e - h]
            powers.append(memo)
        groups: dict[tuple, dict] = {}
        for exps, c in kept:
            inner = groups.setdefault(exps[:-1], {})
            for mono, v in powers[-1][exps[-1]].coeffs.items():
                inner[mono] = inner.get(mono, 0) + c * v
        total = TruncatedSeries.zero(target.nvars, D)
        for head, inner in groups.items():
            factors = (powers[var][e] for var, e in enumerate(head) if e)
            total = total + math.prod(factors, start=TruncatedSeries(target.nvars, D, inner))
        return total

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
            parts.append(f"{c}*{mono}" if mono else str(c))
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


class FormalGroupLaw(namedtuple("FormalGroupLaw", "name degree prime log exp")):
    """A named law over Q to degree D, held in logarithm coordinates.

    log is its logarithm l and exp = l^-1, both held one degree past D so
    that angle_series can divide [p](x) by x; prime is p for honda(p, n),
    else None.  The multiplicative law, whose log(1 + x) is dense, holds
    neither.
    """

    __slots__ = ()

    @property
    def series(self) -> TruncatedSeries:
        """The two-variable law F(x, y), built and validated on first read."""
        return _bivariate(self)

    def __repr__(self):
        return f"FormalGroupLaw[{self.name} to degree {self.degree}]"


def _reciprocal(c: list) -> list:
    """The coefficients of 1 / sum_d c[d] x^d for c[0] = 1, as many as c."""
    inv = [1]
    for d in range(1, len(c)):
        inv.append(-sum(c[i] * inv[d - i] for i in range(1, d + 1)))
    return inv


def _reversion(log: TruncatedSeries) -> TruncatedSeries:
    """e = l^-1 for a logarithm l = x + ..., checked once by l(e(x)) = x.

    Newton's iteration g <- g - (l(g) - x) / l'(g) takes g from exact to
    degree n // 2 to exact to degree n (Brent and Kung, J. ACM 25, 1978), so
    the precision doubles on each pass; for a sparse l, l(g) and l'(g) are
    chains of squarings.
    """
    D = log.degree
    # l' is inexact at degree D, which no correction reads
    dlog = TruncatedSeries(1, D, {(d - 1,): d * c for (d,), c in log.coeffs.items()})
    g = {(1,): 1}
    for n in reversed([D >> i for i in range(D.bit_length() - 1)]):
        g = TruncatedSeries(1, n, g)
        err = log.truncate(n).substitute([g]) - TruncatedSeries.variable(1, n)
        # err starts past degree n // 2, so 1 / l'(g) is needed below n - n // 2
        slope = dlog.truncate(n).substitute([g])
        inv = _reciprocal([slope.coefficient(d) for d in range(n - n // 2)])
        g = (g - err * TruncatedSeries(1, n, {(d,): c for d, c in enumerate(inv)})).coeffs
    e = TruncatedSeries(1, D, g)
    if log.substitute([e]) != TruncatedSeries.variable(1, D):
        raise ArithmeticError("l(e(x)) != x after Newton reversion")
    return e


def _logarithm(F: TruncatedSeries) -> TruncatedSeries:
    """The integral of 1 / (dF/dy)(x, 0) = 1 / sum_i c_(i,1) x^i, for a law
    with c_(0,1) = 1."""
    inv = _reciprocal([F.coefficient((i, 1)) for i in range(F.degree)])
    return TruncatedSeries(1, F.degree, {(d + 1,): Fraction(c, d + 1) for d, c in enumerate(inv)})


def _validate_law(F: TruncatedSeries, name: str):
    D = F.degree
    if {e: c for e, c in F.coeffs.items() if 0 in e} != {(1, 0): 1, (0, 1): 1}:
        raise ValueError(f"{name}: F(x, 0) != x or F(0, y) != y")
    for (i, j), c in F.coeffs.items():
        if F.coeffs.get((j, i), 0) != c:
            raise ValueError(f"{name}: law is not symmetric at exponent {(i, j)}")
    # l(F) = l(x) + l(y), with l scaled to integer coefficients so that the
    # substitution multiplies ints when F is integral
    log = _logarithm(F)
    scale = math.lcm(*(c.denominator for c in log.coeffs.values()))
    log = TruncatedSeries(1, D, {e: c * scale for e, c in log.coeffs.items()})
    if log.substitute([F]) != _log_sum(log):
        raise ValueError(f"{name}: associativity fails up to degree {D}")


def _log_sum(log: TruncatedSeries) -> TruncatedSeries:
    """l(x) + l(y) as a two-variable series, for l with zero constant term."""
    split = {e: c for (d,), c in log.coeffs.items() for e in ((d, 0), (0, d))}
    return TruncatedSeries(2, log.degree, split)


@functools.cache
def _bivariate(law: FormalGroupLaw) -> TruncatedSeries:
    """F = e(l(x) + l(y)), or x + y + xy for the multiplicative law; a Honda
    law's F is checked to be p-integral, and every F is validated by unit,
    symmetry and its own logarithm, the route independent of l."""
    D = law.degree
    if law.log is None:
        F = TruncatedSeries(2, D, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    else:
        F = law.exp.truncate(D).substitute([_log_sum(law.log.truncate(D))])
    for exps, c in F.coeffs.items():
        if law.prime is not None and c.denominator % law.prime == 0:
            raise ArithmeticError(f"p-typical law coefficient at {exps} is not p-integral")
    _validate_law(F, law.name)
    return F


_HONDA_NAME = re.compile(r"honda\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def make_fgl(name: str, D: int = DEFAULT_TRUNCATION) -> FormalGroupLaw:
    """Build a named law over Q: "additive", "multiplicative", or "honda(p,n)"
    for a prime p and a height n >= 1.

    The additive law has logarithm x, and honda(p, n) the p-typical
    logarithm sum_i x^(p^(n i)) / p^i; its inverse is built by Newton's
    iteration and checked.  The two-variable law is built only when read.
    """
    if not 1 <= D <= MAX_TRUNCATION:
        raise ValueError(f"truncation degree must be in 1..{MAX_TRUNCATION}, got {D}")
    key = name.replace(" ", "")
    if key == "additive":
        x = TruncatedSeries.variable(1, D + 1)
        return FormalGroupLaw(key, D, None, x, x)
    if key == "multiplicative":
        return FormalGroupLaw(key, D, None, None, None)
    m = _HONDA_NAME.fullmatch(key)
    if m is None:
        raise ValueError(f"unknown law {name!r}")
    p, n = int(m.group(1)), int(m.group(2))
    if not is_prime(p) or n < 1:
        raise ValueError(f"honda(p, n) needs a prime p and n >= 1, got {key}")
    step = capped_power(p, n, D + 1)
    powers = [i for i in range((D + 1).bit_length()) if step**i <= D + 1]  # step >= 2
    log = TruncatedSeries(1, D + 1, {(step**i,): Fraction(1, p**i) for i in powers})
    return FormalGroupLaw(key, D, p, log, _reversion(log))


def fgl_sum(law: FormalGroupLaw, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """The formal sum F(f, g)."""
    return law.series.substitute([f, g])


def m_series(law: FormalGroupLaw, m: int, degree: int | None = None) -> TruncatedSeries:
    """The m-fold formal sum [m](x) = e(m l(x)), for any integer m, to the
    law's degree D, or to the given degree of at most D + 1.

    Charged before any work, and checked by l([m](x)) = m l(x) and, for a
    Honda law, by p-integrality at its own prime.  The multiplicative law
    gives (1 + x)^m - 1 directly.
    """
    D = law.degree if degree is None else degree
    if not 1 <= D <= law.degree + 1:
        raise ValueError(f"m_series degree must be in 1..{law.degree + 1}, got {D}")
    _charge_m_series(D, m)
    if law.log is None:
        coeffs, c = {}, 1
        for d in range(1, D + 1):
            c = c * (m - d + 1) // d
            coeffs[(d,)] = c
        return TruncatedSeries(1, D, coeffs)
    log = law.log.truncate(D)
    scaled = TruncatedSeries(1, D, {e: m * c for e, c in log.coeffs.items()})
    out = law.exp.truncate(D).substitute([scaled])
    if log.substitute([out]) != scaled:
        raise ArithmeticError("l([m](x)) != m l(x)")
    if law.prime is not None:
        weierstrass_degree(out, law.prime)  # raises unless out is p-integral
    return out


def _charge_m_series(D: int, m: int):
    """Raise CapExceeded, before any work, if [m](x) to degree D could have
    coefficients of more than about ANGLE_BITS_CAP bits: its degree-d
    coefficient is a polynomial of degree d in m.  The cap keeps every
    coefficient far below Python's 4300-digit limit for str."""
    bits = abs(m).bit_length()
    if D * bits > ANGLE_BITS_CAP:
        raise CapExceeded(f"[m](x) for an m of {bits} bits at D = {D} exceeds the angle caps "
                          f"of {ANGLE_BITS_CAP} bits")


def angle_series(law: FormalGroupLaw, p: int, k: int) -> TruncatedSeries:
    """The k-th angle factor of the p-series.

    Writing [p](x) = x * u(x), the factor is u([p^(k-1)](x)); for k = 0 it is
    x itself.  u is exact to degree D because [p](x) is built to D + 1.  The
    factors multiply back to the p^k-series:
    [p^k](x) = product of the angle factors for 0 <= i <= k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    D = law.degree
    if k == 0:
        return TruncatedSeries.variable(1, D, 0)
    # [p^(k-1)] first: m_series refuses a huge level before any work
    inner = m_series(law, capped_power(p, k - 1, 1 << ANGLE_BITS_CAP))
    pser = m_series(law, p, D + 1)
    u = TruncatedSeries(1, D, {(d - 1,): c for (d,), c in pser.coeffs.items()})
    return u.substitute([inner]) if k > 1 else u


def weierstrass_degree(s: TruncatedSeries, p: int):
    """Index of the first coefficient of a 1-variable series over Z_(p) whose
    numerator is prime to p, or math.inf if there is none up to the truncation.

    Raises ArithmeticError if a denominator is divisible by p.
    """
    best = math.inf
    for (d,), c in s.coeffs.items():
        if c.denominator % p == 0:
            raise ArithmeticError(f"coefficient at {(d,)} has denominator divisible by {p}")
        if c.numerator % p and d < best:
            best = d
    return best


def p_power_weierstrass_degree(law: FormalGroupLaw, p: int, k: int):
    """weierstrass_degree([p^k](x), p), read from [p](x) alone.

    Reduction mod p is a ring map and Weierstrass degrees multiply under
    composition over F_p, so the answer is w^k for w that of [p](x), or
    math.inf once w^k exceeds the truncation; [p^0](x) = x has degree 1.
    """
    if k == 0:
        return 1
    w = weierstrass_degree(m_series(law, p), p)
    if w == math.inf:
        return w
    wk = capped_power(w, k, law.degree)
    return wk if wk <= law.degree else math.inf


def series_to_poly(s: TruncatedSeries) -> list:
    """Dense coefficient list of a 1-variable series (exact only if the series
    really is a polynomial of degree <= its truncation)."""
    if s.nvars != 1:
        raise ValueError("series_to_poly works on 1-variable series")
    out = [0] * (s.degree + 1)
    for (d,), c in s.coeffs.items():
        out[d] = c
    return poly_trim(out)


class CoprimalityCertificate(
    namedtuple("CoprimalityCertificate", "p i j coprime gcd cofactor_i cofactor_j")
):
    """Bezout data for a pair of angle factors of the multiplicative law."""

    __slots__ = ()


def coprimality_check(p: int, i: int, j: int) -> CoprimalityCertificate:
    """Angle factors of the multiplicative law at distinct levels are coprime
    over QQ; returns the certificate u*f_i + v*f_j = 1.

    The multiplicative p^k-series is (1+x)^(p^k) - 1, so the level-k factor is
    the polynomial Phi_(p^k)(1+x) (x itself at level 0) and the extended
    Euclidean algorithm applies verbatim.
    """
    if i == j:
        raise ValueError("levels must be distinct for a coprimality certificate")
    if min(i, j) < 0:
        raise ValueError("levels must be >= 0")
    if capped_power(p, max(i, j), MAX_TRUNCATION) > MAX_TRUNCATION:
        raise ValueError(
            f"angle factor degree p^{max(i, j)} exceeds the supported truncation {MAX_TRUNCATION}"
        )
    fi = _cyclo_in_one_plus_x(p**i)
    fj = _cyclo_in_one_plus_x(p**j)
    g, u, v = poly_xgcd(fi, fj)
    ok = g == [Fraction(1)]
    combo = poly_add(poly_mul(u, fi), poly_mul(v, fj))
    if ok and combo != [Fraction(1)]:
        raise ArithmeticError("Bezout certificate failed to verify")
    return CoprimalityCertificate(p, i, j, ok, tuple(g), tuple(u), tuple(v))
