"""Exact arithmetic: dense rational polynomials, quotient rings Q[x]/(f) and
the cyclotomic numbers among them, and exact elimination; the integer
helpers of hkr.primality (row reduction over F_q among them) are re-exported.

Everything here is a small, self-contained building block used by the series,
level-ring, and character modules.  All arithmetic is exact; there is no
floating point anywhere in the package.  `fractions` is imported only where a
Fraction is made or met, so integer work (character tables, power operations,
Galois dimensions) never loads it.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from operator import mul

from .primality import PRIMALITY_BOUND, capped_power, euler_phi, is_prime, p_part, prime_factors, rref_mod

__all__ = [
    "QuotientRing",
    "RingElement",
    "CyclotomicNumber",
    "capped_power",
    "euler_phi",
    "is_prime",
    "PRIMALITY_BOUND",
    "prime_factors",
    "p_part",
    "cyclotomic_int_poly",
    "poly_trim",
    "poly_add",
    "poly_sub",
    "poly_scale",
    "poly_mul",
    "poly_divmod",
    "poly_mod",
    "poly_xgcd",
    "poly_compose",
    "poly_to_text",
    "fixed_space_dim",
    "mat_det",
    "rref_mod",
    "zeta",
]


def _is_rational(x) -> bool:
    """Whether x is an int or a Fraction; only a non-int loads fractions."""
    if isinstance(x, int):
        return True
    from fractions import Fraction
    return isinstance(x, Fraction)


# ---------------------------------------------------------------------------
# dense polynomials over Fraction (or int), lowest degree first


def poly_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return list(p[:i])


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_sub(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def poly_scale(a, s):
    if s == 0:
        return []
    return [c * s for c in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a, b):
    """Quotient and remainder; requires an invertible leading coefficient."""
    from fractions import Fraction
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = poly_trim(a)
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        c = Fraction(rem[-1]) / lead
        d = len(rem) - len(b)
        quot[d] = c
        for i, cb in enumerate(b):
            rem[d + i] -= c * cb
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), poly_trim(rem)


def poly_mod(a, b):
    return poly_divmod(a, b)[1]


def poly_xgcd(a, b):
    """Extended gcd: returns (g, u, v) monic with u*a + v*b = g."""
    from fractions import Fraction
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if not r0:
        return [], [], []
    lead = Fraction(r0[-1])
    inv = 1 / lead
    return poly_scale(r0, inv), poly_scale(s0, inv), poly_scale(t0, inv)


def poly_compose(a, b):
    """a(b(x)) by Horner."""
    out: list = []
    for c in reversed(poly_trim(a)):
        out = poly_add(poly_mul(out, b), [c])
    return out


def poly_to_text(p, var="x") -> str:
    """Canonical text form, lowest degree first, exact coefficients."""
    p = poly_trim(p)
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{i}")
    return " + ".join(parts)


_CYCLO_CACHE: dict[int, list[int]] = {}


def cyclotomic_int_poly(m: int) -> list[int]:
    """The m-th cyclotomic polynomial with integer coefficients, low degree
    first: the product of (x^(m/s) - 1)^mu(s) over the squarefree divisors s
    of m, multiplied out over the s with mu(s) = 1, then divided exactly by
    the others, each monic, so the coefficients stay ints."""
    got = _CYCLO_CACHE.get(m)
    if got is not None:
        return got
    mu = {m: 1}  # m/s -> mu(s) for the squarefree divisors s of m
    for q in prime_factors(m):
        mu.update({d // q: -sign for d, sign in mu.items()})
    poly = [1]
    for d in [d for d, sign in mu.items() if sign == 1]:  # times x^d - 1
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in [d for d, sign in mu.items() if sign == -1]:  # P = Q (x^d - 1): q_i = q_(i-d) - p_i
        quot = []
        for i, c in enumerate(poly[:len(poly) - d]):
            quot.append((quot[i - d] if i >= d else 0) - c)
        if ([0] * d + quot)[-d:] != poly[-d:]:
            raise ArithmeticError("cyclotomic division left a remainder")
        poly = quot
    _CYCLO_CACHE[m] = poly
    return poly


# ---------------------------------------------------------------------------
# quotient rings Q[x]/(f), and the cyclotomic fields among them


class QuotientRing:
    """Q[x]/(f) for a monic integer polynomial f (Z[x]/(f) when integral).

    Elements are reduced through one table per ring: the coordinates of x^e
    mod f, grown on demand, each row kept sparse as its (index, coefficient)
    pairs with a nonzero coefficient.  Coordinates are ints, except that a
    Fraction appears after a division (or in a non-integral input); an
    integral Fraction is stored as its int.
    """

    def __init__(self, modulus, *, integral=False, label=""):
        f = poly_trim(list(modulus))
        if len(f) < 2 or f[-1] != 1 or any(c != int(c) for c in f):
            raise ValueError(f"modulus {poly_to_text(f)} is not a monic integer polynomial")
        self.modulus = tuple(int(c) for c in f)
        self.dimension = d = len(f) - 1
        self.integral = integral
        self.label = label or f"Q[x]/({poly_to_text(self.modulus)})"
        self.element_type = RingElement
        self._rows = [((e, 1),) for e in range(d)]
        self._last = [0] * (d - 1) + [1]  # x^e for the last row, dense

    def _grow(self, e: int):
        """Extend the table to x^e: each row is x times the one before, with
        x^d replaced by x^d - f."""
        rows, cur = self._rows, self._last
        low = [(t, c) for t, c in enumerate(self.modulus[:-1]) if c]
        while len(rows) <= e:
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for t, c in low:
                    cur[t] -= top * c
            rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        self._last = cur

    def add_terms(self, coords: list, terms) -> list:
        """Add c * x^e to the coordinates for each (e, c) in terms, in place."""
        rows = self._rows
        for e, c in terms:
            if c:
                if e >= len(rows):
                    self._grow(e)
                for i, r in rows[e]:
                    coords[i] += c * r
        return coords

    def _make(self, coords) -> RingElement:
        out = object.__new__(self.element_type)
        out.ring = self
        try:
            gcd(*coords)  # one pass in C that takes ints alone: they need no normalizing
        except TypeError:
            try:  # ints and Fractions alone have a denominator here
                coords = [c.numerator if c.denominator == 1 else c for c in coords]
            except AttributeError:
                raise TypeError("coordinates must be rational numbers") from None
        out.coeffs = tuple(coords)
        return out

    def element(self, coeffs) -> RingElement:
        """The class of the polynomial with these coefficients, low degree first."""
        coeffs, d = list(coeffs), self.dimension
        head = coeffs[:d] + [0] * (d - len(coeffs))
        out = self._make(self.add_terms(head, enumerate(coeffs[d:], d)))
        if self.integral and type(sum(out.coeffs)) is not int:
            raise ValueError("element does not reduce integrally")
        return out

    def from_terms(self, terms) -> RingElement:
        """The sum of c * x^e over the (e, c) in terms."""
        return self._make(self.add_terms([0] * self.dimension, terms))

    @property
    def zero(self) -> RingElement:
        return self.element([])

    @property
    def one(self) -> RingElement:
        return self.element([1])

    @property
    def x(self) -> RingElement:
        return self.element([0, 1])

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.modulus == other.modulus
            and self.integral == other.integral
        )

    def __hash__(self):
        return hash((self.modulus, self.integral))

    def __repr__(self):
        return f"QuotientRing[{self.label}]"


class RingElement:
    """An element of a QuotientRing, as its coordinates in 1, x, ..., x^(d-1)."""

    __slots__ = ("ring", "coeffs")

    def _check(self, other):
        if not isinstance(other, RingElement):  # a scalar; _make refuses a non-rational
            return self.ring.element([other])
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"elements live in different rings: {self.ring!r} and {other.ring!r}")
        return other

    # sums of reduced elements are reduced: no table lookups

    def __add__(self, other):
        other = self._check(other)
        return self.ring._make([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return self.ring._make([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return self.ring._make([-c for c in self.coeffs])

    def __mul__(self, other):
        # nonzero coordinates only; exponents from the dimension up go through the table
        other = self._check(other)
        ring = self.ring
        d = ring.dimension
        out, high = [0] * d, {}
        right = [(j, y) for j, y in enumerate(other.coeffs) if y]
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in right:
                    e = i + j
                    if e < d:
                        out[e] += x * y
                    else:
                        high[e] = high.get(e, 0) + x * y
        return ring._make(ring.add_terms(out, high.items()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        # from the top binary digit of k down: a square per digit, a product per 1 after the first
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return self.ring.one
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def inverse(self) -> RingElement:
        """The multiplicative inverse; raises ZeroDivisionError on a non-unit."""
        g, u, _ = poly_xgcd(list(self.coeffs), list(self.ring.modulus))
        if g != [1]:
            raise ZeroDivisionError(f"{self.to_text()} is not a unit in {self.ring.label}")
        return self.ring.element(u)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_text(self) -> str:
        return poly_to_text(list(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return (self.ring is other.ring or self.ring == other.ring) and self.coeffs == other.coeffs
        return _is_rational(other) and self.coeffs[0] == other and not any(self.coeffs[1:])

    def __hash__(self):
        # a constant equals its rational (see __eq__), so it hashes as one
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.ring.modulus, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}[{self.to_text()}]"


_FIELDS: dict[int, QuotientRing] = {}


class CyclotomicNumber(RingElement):
    """An element of the m-th cyclotomic field Q[x]/(Phi_m), in the power basis
    of a fixed primitive m-th root of unity zeta = x.

    Every character value is an algebraic integer, so its coordinates are
    ints; a Fraction only appears after inverse() or descend().  An int and
    a Fraction with denominator 1 agree under str, == and hash, so the
    choice never shows in output.
    """

    __slots__ = ()

    @staticmethod
    def field(m: int) -> QuotientRing:
        """Q[x]/(Phi_m), built once per m, whose elements are CyclotomicNumbers."""
        got = _FIELDS.get(m)
        if got is None:
            if m < 1:
                raise ValueError("m must be >= 1")
            got = _FIELDS[m] = QuotientRing(cyclotomic_int_poly(m), label=f"Q(zeta_{m})")
            got.conductor, got.element_type = m, CyclotomicNumber
        return got

    @property
    def conductor(self) -> int:
        return self.ring.conductor

    @property
    def coords(self) -> tuple:
        return self.coeffs

    @classmethod
    def zero(cls, m: int) -> CyclotomicNumber:
        return cls.field(m).zero

    @classmethod
    def from_rational(cls, m: int, q) -> CyclotomicNumber:
        return cls.field(m).element([q])

    @classmethod
    def root(cls, m: int, j: int) -> CyclotomicNumber:
        """zeta_m^j."""
        return cls.field(m).from_terms([(j % m, 1)])

    @classmethod
    def from_tally(cls, m: int, tally) -> CyclotomicNumber:
        """Sum of roots of unity given as {exponent: multiplicity}."""
        return cls.field(m).from_terms((e % m, c) for e, c in tally.items())

    def galois(self, u: int) -> CyclotomicNumber:
        """Apply the field automorphism sending zeta to zeta^u (u coprime to m)."""
        m = self.conductor
        if gcd(u, m) != 1:
            raise ValueError(f"{u} is not a unit modulo {m}")
        return self.ring.from_terms((t * u % m, c) for t, c in enumerate(self.coeffs))

    def promote(self, M: int) -> CyclotomicNumber:
        """Embed into the conductor-M field (m must divide M)."""
        m = self.conductor
        if M % m != 0:
            raise ValueError(f"{m} does not divide {M}")
        if M == m:
            return self
        step = M // m
        return CyclotomicNumber.field(M).from_terms((t * step, c) for t, c in enumerate(self.coeffs))

    def descend(self, m2: int) -> CyclotomicNumber:
        """Rewrite in the conductor-m2 subfield, by integer dot products with
        _descent(m, m2); raises unless the lift back to conductor m is the value."""
        m = self.conductor
        if m2 < 1 or m % m2 != 0:
            raise ValueError(f"{m2} does not divide {m}")
        if m2 == m:
            return self
        rows, inv, den = _descent(m, m2)
        b = [self.coeffs[r] for r in rows]
        sums = [sum(map(mul, row, b)) for row in inv]
        if any(s % den for s in sums):
            from fractions import Fraction
            sums = [Fraction(s, den) for s in sums]
        else:
            sums = [s // den for s in sums]
        out = CyclotomicNumber.field(m2).element(sums)
        if out.promote(m) != self:
            raise ValueError("value does not lie in the requested subfield")
        return out

    def to_text(self) -> str:
        return poly_to_text(list(self.coeffs), var="z")

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {self.to_text()})"


def zeta(m: int, j: int = 1) -> CyclotomicNumber:
    return CyclotomicNumber.root(m, j)


@cache
def _descent(m: int, m2: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
    """(rows, inv, den): rows are phi(m2) coordinate positions at which the
    basis zeta_m2^j, promoted to conductor m, is invertible, and inv / den is
    the inverse of that square block B, over a common integer denominator.
    [B | I] is brought to upper triangular form; a second pass over its rows
    and left columns in reverse clears the entries above each pivot, leaving
    row i as d_i e_i | w_i, so that row i of the inverse is w_i / d_i."""
    n = CyclotomicNumber.field(m2).dimension
    cols = [CyclotomicNumber.root(m2, j).promote(m).coeffs for j in range(n)]
    rows = tuple(_int_echelon(cols)[1])
    upper = _int_echelon([[col[r] for col in cols] + [int(i == k) for k in range(n)] for i, r in enumerate(rows)])[0]
    diag = _int_echelon([row[n - 1::-1] + row[n:] for row in reversed(upper)])[0][::-1]
    den = lcm(*(row[n - 1 - i] for i, row in enumerate(diag)))
    return rows, tuple(tuple(w * (den // row[n - 1 - i]) for w in row[n:]) for i, row in enumerate(diag)), den


# ---------------------------------------------------------------------------
# exact elimination


def _int_echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of a matrix of ints by fraction-free elimination:
    below each pivot row p with pivot entry a, a row r with entry f in the
    pivot column becomes a*r - f*p, divided by the gcd of its entries, so no
    Fraction is made and the entries stay small.  Only the columns right of
    the pivot are rewritten, as the ones left of it are never read again;
    zero rows go.  Returns (pivot rows, pivot columns), each pivot row zeroed
    left of its pivot; the input is left alone."""
    rows = [list(r) for r in rows if any(r)]
    pivots, cols = [], []
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i, r in enumerate(rows) if r[col]), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        pivot[:col] = [0] * col
        pivots.append(pivot)
        cols.append(col)
        a, tail, keep = pivot[col], pivot[col + 1:], []
        for row in rows:
            f = row[col]
            if f:
                new = [a * x - f * y for x, y in zip(row[col + 1:], tail)]
                g = gcd(*new)
                if not g:
                    continue
                row[col + 1:] = new if g == 1 else [x // g for x in new]
            keep.append(row)
        rows = keep
    return pivots, cols


def fixed_space_dim(maps, dim: int) -> int:
    """Dimension of the subspace of a dim-dimensional space fixed by every
    linear map in maps, each given by its columns (the coordinates of the
    images of the basis vectors): the nullspace of the stacked blocks M - I,
    or dim when there are no maps.  Rational rows are scaled to ints by their
    denominators' lcm and ranked by _int_echelon."""
    stacked = [[col[s] - (s == t) for t, col in enumerate(cols)] for cols in maps for s in range(dim)]
    scaled = []
    for row in stacked:
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    return dim - len(_int_echelon(scaled)[1])


def mat_det(rows):
    """Determinant of a square matrix by elimination in the entries' own
    arithmetic, which must be a field's: ints, Fractions, CyclotomicNumbers
    or elements of a QuotientRing that is a field.  Pivots are inverted as
    Fraction(1) / lead, so int input yields a Fraction."""
    from fractions import Fraction
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"determinant of a non-square matrix with {n} rows")
    det = one = Fraction(1)
    for col in range(n):
        at = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if at is None:
            return det * 0  # a zero of det's type
        if at != col:
            rows[col], rows[at] = rows[at], rows[col]
            det = -det
        pivot = rows[col]
        det = det * pivot[col]
        inv = one / pivot[col]
        for row in rows[col + 1:]:
            f = row[col] * inv
            if f != 0:
                row[col:] = [x - f * y for x, y in zip(row[col:], pivot[col:])]
    return det
