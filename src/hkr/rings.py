"""Exact coefficient arithmetic: dense rational polynomials, modular integers,
cyclotomic numbers, and Gaussian elimination over any of these.

Everything here is a small, self-contained building block used by the series,
level-ring, and character modules.  All arithmetic is exact; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "Rationals",
    "Integers",
    "ModularIntegers",
    "CyclotomicField",
    "CyclotomicNumber",
    "PolyQuotientField",
    "QQ",
    "ZZ",
    "prime_field",
    "euler_phi",
    "is_prime",
    "prime_factors",
    "cyclotomic_int_poly",
    "poly_trim",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_scale",
    "poly_mul",
    "poly_divmod",
    "poly_mod",
    "poly_monic",
    "poly_gcd",
    "poly_xgcd",
    "poly_compose",
    "poly_eval",
    "poly_to_text",
    "mat_rank",
    "mat_nullspace",
    "mat_nullspace_dim",
    "mat_det",
    "mat_solve",
    "zeta",
]

ZERO = Fraction(0)
ONE = Fraction(1)


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


def poly_neg(a):
    return [-c for c in a]


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


def poly_monic(a):
    a = poly_trim(a)
    if not a:
        return a
    lead = a[-1]
    return [Fraction(c) / lead for c in a]


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b)
    return poly_monic(a)


def poly_xgcd(a, b):
    """Extended gcd: returns (g, u, v) monic with u*a + v*b = g."""
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


def poly_eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _coeff_text(c) -> str:
    return str(c)


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
            parts.append(_coeff_text(c))
        elif i == 1:
            parts.append(f"{_coeff_text(c)}*{var}")
        else:
            parts.append(f"{_coeff_text(c)}*{var}^{i}")
    return " + ".join(parts)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("m must be >= 1")
    out = m
    for q in prime_factors(m):
        out -= out // q
    return out


_CYCLO_CACHE: dict[int, list[int]] = {}


def cyclotomic_int_poly(m: int) -> list[int]:
    """The m-th cyclotomic polynomial with integer coefficients, low degree first."""
    got = _CYCLO_CACHE.get(m)
    if got is not None:
        return got
    # (x^m - 1) divided by the cyclotomic polynomials of the proper divisors.
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q, r = poly_divmod(num, cyclotomic_int_poly(d))
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
            num = q
    out = [int(c) for c in num]
    _CYCLO_CACHE[m] = out
    return out


# ---------------------------------------------------------------------------
# coefficient ring contexts


class Rationals:
    """The field of rational numbers (Fraction elements)."""

    name = "QQ"
    zero = ZERO
    one = ONE

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return 1 / Fraction(a)

    def text(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


class Integers:
    """The ring of integers."""

    name = "ZZ"
    zero = 0
    one = 1

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit in ZZ")

    def text(self, a):
        return str(a)

    def __repr__(self):
        return "ZZ"


class ModularIntegers:
    """Integers modulo p^N for a prime p; a field when N == 1."""

    def __init__(self, p: int, N: int = 1):
        if p < 2 or N < 1:
            raise ValueError("need a prime p >= 2 and N >= 1")
        self.p = p
        self.N = N
        self.modulus = p**N
        self.name = f"Z/{p}^{N}" if N > 1 else f"F{p}"
        self.zero = 0
        self.one = 1 % self.modulus

    def from_int(self, n):
        return n % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def is_zero(self, a):
        return a % self.modulus == 0

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"{a} is not a unit modulo {self.p}^{self.N}")
        return pow(a, -1, self.modulus)

    def text(self, a):
        return str(a % self.modulus)

    def __eq__(self, other):
        return isinstance(other, ModularIntegers) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self):
        return hash(("mod", self.p, self.N))

    def __repr__(self):
        return self.name


QQ = Rationals()
ZZ = Integers()


def prime_field(p: int) -> ModularIntegers:
    return ModularIntegers(p, 1)


# ---------------------------------------------------------------------------
# cyclotomic numbers

_POWER_COORDS: dict[int, list[tuple[int, ...]]] = {}


def _power_coords(m: int) -> list[tuple[int, ...]]:
    """Integer coordinates of x^e mod the m-th cyclotomic polynomial, e = 0..m-1."""
    got = _POWER_COORDS.get(m)
    if got is not None:
        return got
    poly = cyclotomic_int_poly(m)
    d = len(poly) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        # x * cur, with x^d replaced by -(lower part) since poly is monic
        top = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if top:
            for t in range(d):
                if poly[t]:
                    nxt[t] -= top * poly[t]
        cur = nxt
    _POWER_COORDS[m] = rows
    return rows


def _coordinate(c):
    """An exact coordinate: an int when the value is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class CyclotomicNumber:
    """An element of the m-th cyclotomic field, in the power basis of a fixed
    primitive m-th root of unity.

    Coordinates are plain ints whenever they are integral, which covers every
    character value (an algebraic integer); a Fraction only appears for a
    genuinely non-integral coordinate, in practice a result of inverse() or
    descend().  An int and a Fraction with denominator 1 agree under str, ==
    and hash, so the choice never shows in output.
    """

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords):
        self.conductor = conductor
        phi = euler_phi(conductor)
        coords = tuple(_coordinate(c) for c in coords)
        if len(coords) != phi:
            raise ValueError(f"expected {phi} coordinates for conductor {conductor}")
        self.coords = coords

    @classmethod
    def zero(cls, m: int) -> CyclotomicNumber:
        return cls(m, (0,) * euler_phi(m))

    @classmethod
    def from_rational(cls, m: int, q) -> CyclotomicNumber:
        coords = [0] * euler_phi(m)
        coords[0] = q
        return cls(m, coords)

    @classmethod
    def root(cls, m: int, j: int) -> CyclotomicNumber:
        """zeta_m^j."""
        return cls(m, _power_coords(m)[j % m])

    @classmethod
    def from_tally(cls, m: int, tally) -> CyclotomicNumber:
        """Sum of roots of unity given as {exponent: multiplicity}."""
        phi = euler_phi(m)
        coords = [0] * phi
        table = _power_coords(m)
        for e, cnt in tally.items():
            if cnt == 0:
                continue
            row = table[e % m]
            for i in range(phi):
                if row[i]:
                    coords[i] += cnt * row[i]
        return cls(m, coords)

    def _binop_check(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.conductor, other)
        if other.conductor != self.conductor:
            raise ValueError("conductor mismatch; promote explicitly first")
        return other

    def __add__(self, other):
        other = self._binop_check(other)
        return CyclotomicNumber(self.conductor, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._binop_check(other)
        return CyclotomicNumber(self.conductor, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coords])

    def __mul__(self, other):
        other = self._binop_check(other)
        phi = len(self.coords)
        if phi == 0:
            return self
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] += a * b
        m = self.conductor
        table = _power_coords(m)
        coords = prod[:phi]
        for e in range(phi, 2 * phi - 1):
            c = prod[e]
            if c == 0:
                continue
            row = table[e % m]
            for i in range(phi):
                if row[i]:
                    coords[i] += c * row[i]
        return CyclotomicNumber(self.conductor, coords)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicNumber.from_rational(self.conductor, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> CyclotomicNumber:
        modpoly = [Fraction(c) for c in cyclotomic_int_poly(self.conductor)]
        g, u, _ = poly_xgcd([Fraction(c) for c in self.coords], modpoly)
        if g != [ONE]:
            raise ZeroDivisionError("not invertible (zero element)")
        coords = poly_mod(u, modpoly)
        coords = coords + [0] * (len(self.coords) - len(coords))
        return CyclotomicNumber(self.conductor, coords)

    def galois(self, u: int) -> CyclotomicNumber:
        """Apply the field automorphism sending zeta to zeta^u (u coprime to m)."""
        m = self.conductor
        if gcd(u, m) != 1:
            raise ValueError(f"{u} is not a unit modulo {m}")
        table = _power_coords(m)
        phi = len(self.coords)
        coords = [0] * phi
        for t, c in enumerate(self.coords):
            if c == 0:
                continue
            row = table[(t * u) % m]
            for i in range(phi):
                if row[i]:
                    coords[i] += c * row[i]
        return CyclotomicNumber(m, coords)

    def conjugate(self) -> CyclotomicNumber:
        return self.galois(-1 % self.conductor) if self.conductor > 1 else self

    def promote(self, M: int) -> CyclotomicNumber:
        """Embed into the conductor-M field (m must divide M)."""
        m = self.conductor
        if M % m != 0:
            raise ValueError(f"{m} does not divide {M}")
        if M == m:
            return self
        step = M // m
        tableM = _power_coords(M)
        phiM = euler_phi(M)
        coords = [0] * phiM
        for t, c in enumerate(self.coords):
            if c == 0:
                continue
            row = tableM[(t * step) % M]
            for i in range(phiM):
                if row[i]:
                    coords[i] += c * row[i]
        return CyclotomicNumber(M, coords)

    def descend(self, m2: int) -> CyclotomicNumber:
        """Rewrite in the conductor-m2 subfield; raises if the value is not there."""
        m = self.conductor
        if m % m2 != 0:
            raise ValueError(f"{m2} does not divide {m}")
        if m2 == m:
            return self
        phi2 = euler_phi(m2)
        basis = [CyclotomicNumber.root(m2, j).promote(m) for j in range(phi2)]
        cols = [b.coords for b in basis]
        target = list(self.coords)
        sol = mat_solve([list(col) for col in zip(*cols)], target, QQ)
        if sol is None:
            raise ValueError("value does not lie in the requested subfield")
        return CyclotomicNumber(m2, sol)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.coords[0]) if self.coords else ZERO

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        return (
            isinstance(other, CyclotomicNumber)
            and self.conductor == other.conductor
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.conductor, self.coords))

    def sort_key(self) -> tuple:
        return self.coords

    def to_text(self) -> str:
        return poly_to_text(list(self.coords), var="z")

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {self.to_text()})"


def zeta(m: int, j: int = 1) -> CyclotomicNumber:
    return CyclotomicNumber.root(m, j)


class CyclotomicField:
    """Ring context for a fixed cyclotomic field."""

    def __init__(self, m: int):
        self.m = m
        self.name = f"Q(zeta_{m})"
        self.zero = CyclotomicNumber.zero(m)
        self.one = CyclotomicNumber.from_rational(m, 1)

    def from_int(self, n):
        return CyclotomicNumber.from_rational(self.m, n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return not a.is_zero()

    def inv(self, a):
        return a.inverse()

    def text(self, a):
        return a.to_text()

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and self.m == other.m

    def __hash__(self):
        return hash(("cyclo", self.m))

    def __repr__(self):
        return self.name


class PolyQuotientField:
    """Q[x]/(f) for a monic irreducible f over Q; elements are coefficient tuples."""

    def __init__(self, modulus, label=""):
        self.modulus = [Fraction(c) for c in poly_trim(modulus)]
        self.dim = len(self.modulus) - 1
        self.name = label or f"QQ[x]/({poly_to_text(self.modulus)})"
        self.zero = (ZERO,) * self.dim
        self.one = tuple([ONE] + [ZERO] * (self.dim - 1)) if self.dim else ()

    def element(self, coeffs):
        red = poly_mod([Fraction(c) for c in coeffs], self.modulus)
        return tuple(red) + (ZERO,) * (self.dim - len(red))

    def from_int(self, n):
        return self.element([n])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.element(poly_mul(list(a), list(b)))

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def is_unit(self, a):
        return not self.is_zero(a)

    def inv(self, a):
        g, u, _ = poly_xgcd(list(a), self.modulus)
        if g != [ONE]:
            raise ZeroDivisionError("element is not invertible in the quotient field")
        return self.element(u)

    def text(self, a):
        return poly_to_text(list(a))

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# exact Gaussian elimination over any field context


def _rref(rows, field):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if not field.is_zero(rows[r][col]):
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(nrows):
            if r != rank and not field.is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows, pivots


def mat_rank(rows, field=QQ) -> int:
    if not rows:
        return 0
    _, pivots = _rref(rows, field)
    return len(pivots)


def mat_nullspace_dim(rows, field=QQ) -> int:
    if not rows:
        return 0
    return len(rows[0]) - mat_rank(rows, field)


def mat_nullspace(rows, field=QQ):
    """Basis of the right nullspace, one vector per non-pivot column."""
    if not rows:
        return []
    red, pivots = _rref(rows, field)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, col in enumerate(pivots):
            vec[col] = field.neg(red[r][free])
        basis.append(vec)
    return basis


def mat_det(rows, field=QQ):
    n = len(rows)
    rows = [list(r) for r in rows]
    det = field.one
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not field.is_zero(rows[r][col]):
                piv = r
                break
        if piv is None:
            return field.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        det = field.mul(det, rows[col][col])
        inv = field.inv(rows[col][col])
        for r in range(col + 1, n):
            if not field.is_zero(rows[r][col]):
                f = field.mul(rows[r][col], inv)
                rows[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[r], rows[col])]
    if sign < 0:
        det = field.neg(det)
    return det


def mat_solve(rows, rhs, field=QQ):
    """Solve A x = b; returns one solution or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = _rref(aug, field)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x
