"""Exact arithmetic: dense rational polynomials, cyclotomic numbers, number
theory, and Gaussian elimination, exact or over a prime field F_q.

Everything here is a small, self-contained building block used by the series,
level-ring, and character modules.  All arithmetic is exact; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "CyclotomicNumber",
    "euler_phi",
    "is_prime",
    "PRIMALITY_BOUND",
    "prime_factors",
    "cyclotomic_int_poly",
    "poly_trim",
    "poly_add",
    "poly_sub",
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
    "rref_mod",
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


# The first 13 primes as Miller-Rabin bases decide primality below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= PRIMALITY_BOUND,
    where these bases prove nothing."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is only decided below {PRIMALITY_BOUND}, got {n}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    # (x^m - 1) divided by the cyclotomic polynomials of the proper divisors,
    # each monic, so the long division stays in ints
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_int_poly(d)
            n = len(div) - 1
            quot = [0] * (len(num) - n)
            for i in reversed(range(len(quot))):
                c = quot[i] = num[i + n]
                if c:
                    for t, b in enumerate(div):
                        num[i + t] -= c * b
            if any(num[:n]):
                raise ArithmeticError("cyclotomic division left a remainder")
            num = quot
    _CYCLO_CACHE[m] = num
    return num


# ---------------------------------------------------------------------------
# cyclotomic numbers

_POWER_COORDS: dict[int, list[tuple[tuple[int, int], ...]]] = {}


def _power_coords(m: int) -> list[tuple[tuple[int, int], ...]]:
    """Integer coordinates of x^e mod the m-th cyclotomic polynomial, e = 0..m-1,
    each row kept sparse as its (index, coefficient) pairs with a nonzero
    coefficient."""
    got = _POWER_COORDS.get(m)
    if got is not None:
        return got
    poly = cyclotomic_int_poly(m)
    d = len(poly) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(m):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
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


def _accumulate(coords: list, terms, m: int) -> list:
    """Add c * zeta_m^e to the power-basis coordinates for each (e, c) in terms."""
    table = _power_coords(m)
    for e, c in terms:
        if c:
            for i, r in table[e % m]:
                coords[i] += c * r
    return coords


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
        return cls.from_tally(m, {j: 1})

    @classmethod
    def from_tally(cls, m: int, tally) -> CyclotomicNumber:
        """Sum of roots of unity given as {exponent: multiplicity}."""
        return cls(m, _accumulate([0] * euler_phi(m), tally.items(), m))

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

    def __rsub__(self, other):
        return self._binop_check(other) - self

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
        coords = _accumulate(prod[:phi], enumerate(prod[phi:], phi), m)
        return CyclotomicNumber(m, coords)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._binop_check(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
        terms = ((t * u, c) for t, c in enumerate(self.coords))
        return CyclotomicNumber(m, _accumulate([0] * len(self.coords), terms, m))

    def promote(self, M: int) -> CyclotomicNumber:
        """Embed into the conductor-M field (m must divide M)."""
        m = self.conductor
        if M % m != 0:
            raise ValueError(f"{m} does not divide {M}")
        if M == m:
            return self
        step = M // m
        terms = ((t * step, c) for t, c in enumerate(self.coords))
        return CyclotomicNumber(M, _accumulate([0] * euler_phi(M), terms, M))

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
        sol = mat_solve([list(col) for col in zip(*cols)], target)
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

    def to_text(self) -> str:
        return poly_to_text(list(self.coords), var="z")

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {self.to_text()})"


def zeta(m: int, j: int = 1) -> CyclotomicNumber:
    return CyclotomicNumber.root(m, j)


# ---------------------------------------------------------------------------
# exact Gaussian elimination


def _rref(rows, *, upward=True):
    """Reduced row echelon form by the entries' own arithmetic.

    Entries may be ints, Fractions, CyclotomicNumbers, or elements of a
    quotient ring that is a field; pivots are inverted as ONE / lead, so int
    input yields Fractions.  Returns (rows, pivot columns, determinant); the
    determinant is the signed product of the pivots and means the
    determinant of a square input only when every column has a pivot.  A
    pivot row is zero left of its pivot, so only the columns from the pivot
    on are rewritten.  With upward=False the rows above each pivot are left
    alone (row echelon form), which is all the rank and determinant need.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    det = ONE
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        prow = rows[rank]
        lead = prow[col]
        det = det * lead
        inv = ONE / lead
        tail = prow[col:] = [inv * x for x in prow[col:]]
        for r in range(0 if upward else rank + 1, nrows):
            row = rows[r]
            f = row[col]
            if r != rank and f != 0:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows, pivots, det


def rref_mod(rows, q: int):
    """Reduced row echelon form over F_q (q prime) of an integer matrix,
    reducing entries mod q as they are copied; returns the nonzero reduced
    rows and the pivot columns."""
    rows = [[v % q for v in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rp = rows[rank]
        inv = pow(rp[col], -1, q)
        rp[col:] = [v * inv % q for v in rp[col:]]
        for r in range(nrows):
            rr = rows[r]
            f = rr[col]
            if r != rank and f:
                for c2 in range(col, ncols):
                    rr[c2] = (rr[c2] - f * rp[c2]) % q
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


def mat_rank(rows) -> int:
    return len(_rref(rows, upward=False)[1]) if rows else 0


def mat_nullspace_dim(rows) -> int:
    return len(rows[0]) - mat_rank(rows) if rows else 0


def mat_nullspace(rows):
    """Basis of the right nullspace, one vector per non-pivot column."""
    if not rows:
        return []
    red, pivots, _ = _rref(rows)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, col in enumerate(pivots):
            vec[col] = -red[r][free]
        basis.append(vec)
    return basis


def mat_det(rows):
    """Determinant of a square matrix, in the entries' own arithmetic."""
    _, pivots, det = _rref(rows, upward=False)
    return det if len(pivots) == len(rows) else det * 0  # a zero of det's type


def mat_solve(rows, rhs):
    """Solve A x = b; returns one solution or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots, _ = _rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x
