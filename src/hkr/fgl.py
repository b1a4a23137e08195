"""Formal group laws over the rationals as exactly truncated power series.

Series live in 1 to 3 variables with exact rational coefficients (int or
Fraction) and are cut off at a total degree D.  A law is a two-variable series
F with F(x, 0) = x, F(0, y) = y and F symmetric, whose logarithm l, the
integral of 1 / (dF/dy)(x, 0), satisfies l(F(x, y)) = l(x) + l(y) up to
degree D.  Since l = x + ... is invertible, F is then l^-1(l(x) + l(y)) and so
associative up to degree D (Hazewinkel, Formal Groups and Applications, §5).

Supported constructions: the additive law x + y, the multiplicative law
x + y + xy, and for each prime p and height n the p-typical law with logarithm
sum_i x^(p^(n*i)) / p^i over the rationals.
"""

from __future__ import annotations

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
    "ps_compose",
    "ps_reversion",
    "make_fgl",
    "fgl_sum",
    "fgl_inverse",
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
# caps on the passes of [m] in m_series, see _charge_m_series
ANGLE_BITS_CAP = 4096
ANGLE_WORK_CAP = 1_000_000


def _check_degree(D: int):
    if not 1 <= D <= MAX_TRUNCATION:
        raise ValueError(f"truncation degree must be in 1..{MAX_TRUNCATION}, got {D}")


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
        _check_degree(degree)
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

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.nvars, self.degree, {e: -c for e, c in self.coeffs.items()})

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, D: int) -> TruncatedSeries:
        _check_degree(D)
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


def ps_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(x)) for 1-variable series; g must have zero constant term."""
    if f.nvars != 1 or g.nvars != 1:
        raise ValueError("ps_compose works on 1-variable series")
    return f.substitute([g])


def ps_reversion(f: TruncatedSeries) -> TruncatedSeries:
    """The compositional inverse of f = c1 x + ... with c1 != 0.

    Solves f(g(x)) = x degree by degree: each new coefficient of g is fixed by
    one division by c1.
    """
    if f.nvars != 1:
        raise ValueError("reversion works on 1-variable series")
    if f.constant_term() != 0:
        raise ValueError("reversion needs zero constant term")
    c1 = f.coefficient((1,))
    if c1 == 0:
        raise ValueError("reversion needs an invertible linear coefficient")
    inv_c1 = 1 / Fraction(c1)
    D = f.degree
    coeffs = {(1,): inv_c1}
    for d in range(2, D + 1):
        g = TruncatedSeries(1, D, coeffs)
        err = ps_compose(f, g).coefficient((d,))
        if err != 0:
            coeffs[(d,)] = -(err * inv_c1)
    return TruncatedSeries(1, D, coeffs)


class FormalGroupLaw(namedtuple("FormalGroupLaw", "name series")):
    """A validated two-variable law together with its name."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.series.degree

    def __repr__(self):
        return f"FormalGroupLaw[{self.name} to degree {self.degree}]"


def _logarithm(F: TruncatedSeries) -> TruncatedSeries:
    """The integral of 1 / (dF/dy)(x, 0) = 1 / sum_i c_(i,1) x^i, for a law
    with c_(0,1) = 1."""
    D = F.degree
    g = [F.coefficient((i, 1)) for i in range(D)]
    inv = [1]
    for d in range(1, D):
        inv.append(-sum(g[i] * inv[d - i] for i in range(1, d + 1)))
    return TruncatedSeries(1, D, {(d + 1,): Fraction(c, d + 1) for d, c in enumerate(inv)})


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


def _honda_law(p: int, n: int, D: int) -> TruncatedSeries:
    # logarithm sum x^(p^(n i)) / p^i, then F = log^(-1)(log x + log y)
    step = capped_power(p, n, D)
    log_coeffs, q = {}, 1
    while q <= D:
        log_coeffs[(q,)] = Fraction(1, p ** len(log_coeffs))
        q *= step
    log = TruncatedSeries(1, D, log_coeffs)
    F = ps_reversion(log).substitute([_log_sum(log)])
    for exps, c in F.coeffs.items():
        if c.denominator % p == 0:
            raise ArithmeticError(f"p-typical law coefficient at {exps} is not p-integral")
    return F

_HONDA_NAME = re.compile(r"honda\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def make_fgl(name: str, D: int = DEFAULT_TRUNCATION) -> FormalGroupLaw:
    """Build a named law over Q: "additive", "multiplicative", or "honda(p,n)"
    for a prime p and a height n >= 1.

    The p-typical laws are built from their logarithm, and their coefficients
    are checked to be p-integral.  Every law is validated up to degree D:
    unit, symmetry, and associativity through its logarithm.
    """
    _check_degree(D)
    key = name.replace(" ", "")
    if key == "additive":
        F = TruncatedSeries(2, D, {(1, 0): 1, (0, 1): 1})
    elif key == "multiplicative":
        F = TruncatedSeries(2, D, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    else:
        m = _HONDA_NAME.fullmatch(key)
        if m is None:
            raise ValueError(f"unknown law {name!r}")
        p, n = int(m.group(1)), int(m.group(2))
        if not is_prime(p) or n < 1:
            raise ValueError(f"honda(p, n) needs a prime p and n >= 1, got {key}")
        F = _honda_law(p, n, D)
    _validate_law(F, key)
    return FormalGroupLaw(key, F)


def fgl_sum(law: FormalGroupLaw, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """The formal sum F(f, g)."""
    return law.series.substitute([f, g])


def fgl_inverse(law: FormalGroupLaw, f: TruncatedSeries) -> TruncatedSeries:
    """The formal inverse: the series i with F(f, i) = 0.

    Newton-style iteration i <- i - F(f, i); each pass fixes one more degree
    because dF/dy = 1 + higher terms.
    """
    if f.constant_term() != 0:
        raise ValueError("formal inverse needs zero constant term")
    inv = -f
    for _ in range(f.degree + 1):
        err = law.series.substitute([f, inv])
        if err.is_zero():
            return inv
        inv = inv - err
    raise ArithmeticError("formal inverse iteration did not converge")


def m_series(law: FormalGroupLaw, m: int) -> TruncatedSeries:
    """The m-fold formal sum [m](x), for any integer m.

    Double-and-add on |m| with [a + b](x) = F([a](x), [b](x)), so the cost is
    O(log |m|) substitutions, charged before any of them; [-m] is the formal
    inverse of [m].
    """
    _charge_m_series(law, abs(m))
    D = law.degree
    out = TruncatedSeries.zero(1, D)
    power = TruncatedSeries.variable(1, D, 0)  # [2^i](x)
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


def _charge_m_series(law: FormalGroupLaw, p: int, e: int = 1):
    """Raise CapExceeded, before any work, if m_series(law, p^e) would be slow.

    Double-and-add substitutes into the law once per doubling and per set
    bit of m = p^e.  A substitution builds the powers of both arguments and
    takes one product per exponent of x: series products of up to D^2
    coefficient pairs, at most P of them, P the slots below the law's top
    exponents.  The first doubling and the first addition work on x and on 0
    and cost little.  Each doubling adds about D bits to the top coefficients,
    so p^e is built only up to the first power past 2^ANGLE_BITS_CAP, which is
    refused.
    """
    D = law.degree
    tops: dict[int, int] = {}
    for i, j in law.series.coeffs:
        tops[i] = max(tops.get(i, 0), j)
    P = max(tops) + sum(tops.values())
    m = capped_power(p, e, 1 << ANGLE_BITS_CAP)
    passes = m.bit_length() - 1 + bin(m).count("1")
    if passes * D <= ANGLE_BITS_CAP and max(passes - 2, 0) * P * D * D <= ANGLE_WORK_CAP:
        return
    raise CapExceeded(
        f"[m](x) for an m of {m.bit_length()} bits at D = {D} exceeds the angle caps "
        f"of {ANGLE_BITS_CAP} bits and {ANGLE_WORK_CAP} coefficient products"
    )


def angle_series(law: FormalGroupLaw, p: int, k: int) -> TruncatedSeries:
    """The k-th angle factor of the p-series.

    Writing [p](x) = x * e(x), the factor is e([p^(k-1)](x)); for k = 0 it is
    x itself.  The factors multiply back to the p^k-series:
    [p^k](x) = product of the angle factors for 0 <= i <= k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    D = law.degree
    if k == 0:
        return TruncatedSeries.variable(1, D, 0)
    # [p^(k-1)] first: m_series refuses a huge level before any work
    inner = m_series(law, capped_power(p, k - 1, 1 << ANGLE_BITS_CAP))
    pser = m_series(law, p)
    if pser.constant_term() != 0:
        raise ArithmeticError("p-series has a constant term")
    e = TruncatedSeries(1, D, {(d - 1,): c for (d,), c in pser.coeffs.items()})
    return e.substitute([inner]) if k > 1 else e


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
