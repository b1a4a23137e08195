"""Level rings at height 1: cyclotomic quotient towers over the rationals.

The level-k coefficient ring is Q[x] / ((1+x)^(p^k) - 1).  Its modulus splits
into the cyclotomic factors Phi_(p^i)(1+x) for 0 <= i <= k, which drive a CRT
decomposition; the images of the level structure, the Vandermonde determinant
and its componentwise unit comparison, and the localization that kills all
but the top component are all computed exactly here.  Everything is done over
Q rather than the p-adics: the computations only touch finite levels, where
the two settings agree coefficientwise.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import CapExceeded
from .rings import (
    cyclotomic_int_poly,
    euler_phi,
    mat_det,
    mat_nullspace_dim,
    poly_add,
    poly_compose,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_sub,
    poly_to_text,
    poly_trim,
    poly_xgcd,
)

__all__ = [
    "QuotientRing",
    "RingElement",
    "LevelDescriptor",
    "VandermondeReport",
    "cpk_ring",
    "z_image",
    "vandermonde_det",
    "localize_c0k",
    "drinfeld_dk",
    "galois_action",
    "galois_fixed_dimension",
    "tower_map",
    "DEFAULT_LEVEL_CAP",
]

DEFAULT_LEVEL_CAP = 10_000
# in work units: each CRT component takes about (p^k)^3 field operations of
# cost deg(factor)^2; 10^7 units is about 30 s on a 2-vCPU machine
VANDERMONDE_CAP = 10_000_000


def _one_plus_x_power(e: int) -> list[Fraction]:
    """(1+x)^e as a dense polynomial."""
    out = [Fraction(1)]
    base = [Fraction(1), Fraction(1)]
    while e:
        if e & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base)
        e >>= 1
    return out


def _cyclo_in_one_plus_x(m: int) -> list[Fraction]:
    """Phi_m(1+x)."""
    return poly_compose([Fraction(c) for c in cyclotomic_int_poly(m)], [Fraction(1), Fraction(1)])


class QuotientRing:
    """Q[x]/(f) (or Z[x]/(f) when integral) with a fixed factorization of f.

    crt_factors lists the irreducible factors of the modulus (squarefree in
    every ring built here); they power the componentwise operations used by
    the determinant and localization routines.
    """

    def __init__(self, modulus, crt_factors, *, integral=False, label=""):
        cast = (lambda c: int(c)) if integral else (lambda c: Fraction(c))
        self.modulus = tuple(cast(c) for c in poly_trim(list(modulus)))
        self.crt_factors = tuple(tuple(cast(c) for c in poly_trim(list(f))) for f in crt_factors)
        self.integral = integral
        self.label = label or f"Q[x]/({poly_to_text(self.modulus)})"
        prod = [Fraction(1)]
        for f in self.crt_factors:
            prod = poly_mul(prod, [Fraction(c) for c in f])
        if poly_trim(poly_sub(prod, [Fraction(c) for c in self.modulus])):
            raise ValueError("crt factors do not multiply to the modulus")

    @property
    def dimension(self) -> int:
        return len(self.modulus) - 1

    def element(self, coeffs) -> RingElement:
        if self.integral:
            red = poly_mod([Fraction(c) for c in coeffs], [Fraction(c) for c in self.modulus])
            for c in red:
                if c.denominator != 1:
                    raise ValueError("element does not reduce integrally")
            red = [int(c) for c in red]
        else:
            red = poly_mod([Fraction(c) for c in coeffs], list(self.modulus))
        return RingElement(self, tuple(red) + (0,) * (self.dimension - len(red)))

    @property
    def zero(self) -> RingElement:
        return self.element([])

    @property
    def one(self) -> RingElement:
        return self.element([1])

    @property
    def x(self) -> RingElement:
        return self.element([0, 1])

    def crt_lift(self, residues) -> RingElement:
        """Reassemble an element from its list of component residues."""
        if len(residues) != len(self.crt_factors):
            raise ValueError("one residue per factor expected")
        modulus = [Fraction(c) for c in self.modulus]
        acc: list[Fraction] = []
        for f, res in zip(self.crt_factors, residues):
            f = [Fraction(c) for c in f]
            cof, _ = poly_divmod(modulus, f)
            g, u, _ = poly_xgcd(cof, f)
            if g != [Fraction(1)]:
                raise ArithmeticError("factors are not pairwise coprime")
            idem = poly_mod(poly_mul(u, cof), modulus)
            acc = poly_add(acc, poly_mod(poly_mul(list(res), idem), modulus))
        return self.element(acc)

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
    """An element of a QuotientRing, as coefficients of degree < dimension."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: QuotientRing, coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.element([other])
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("elements live in different rings")
        return other

    # sums of reduced elements are reduced: no division by the modulus

    def __add__(self, other):
        other = self._check(other)
        return RingElement(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return RingElement(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return RingElement(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        return self.ring.element(poly_mul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> RingElement:
        """The multiplicative inverse; raises ZeroDivisionError on a non-unit."""
        modulus = [Fraction(c) for c in self.ring.modulus]
        g, u, _ = poly_xgcd([Fraction(c) for c in self.coeffs], modulus)
        if g != [Fraction(1)]:
            raise ZeroDivisionError(f"{self.to_text()} is not a unit in {self.ring.label}")
        return self.ring.element(u)

    def __pow__(self, k: int):
        out = self.ring.one
        base = self
        if k < 0:
            raise ValueError("negative powers are not defined in a quotient ring")
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_text(self) -> str:
        return poly_to_text(list(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.element([other])
        return isinstance(other, RingElement) and self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.modulus, self.coeffs))

    def __repr__(self):
        return f"RingElement[{self.to_text()}]"


def cpk_ring(p: int, k: int, *, cap=DEFAULT_LEVEL_CAP) -> QuotientRing:
    """The level-k ring Q[x]/((1+x)^(p^k) - 1) with its cyclotomic factors."""
    if k < 0:
        raise ValueError("k must be >= 0")
    size = p**k
    if size > cap:
        raise CapExceeded(f"p^k = {size} exceeds level cap {cap}")
    modulus = poly_sub(_one_plus_x_power(size), [Fraction(1)])
    factors = [_cyclo_in_one_plus_x(p**i) for i in range(k + 1)]
    return QuotientRing(modulus, factors, label=f"C0'({p},{k})")


def z_image(p: int, k: int, *, cap=DEFAULT_LEVEL_CAP) -> list[RingElement]:
    """The images (1+x)^j - 1 of the nonzero level-k indices j = 1..p^k - 1."""
    ring = cpk_ring(p, k, cap=cap)
    out = []
    for j in range(1, p**k):
        out.append(ring.element(poly_sub(_one_plus_x_power(j), [Fraction(1)])))
    return out


class VandermondeReport(namedtuple("VandermondeReport", "p k components")):
    """Componentwise comparison of the Vandermonde determinant with the product of
    the nonzero index images: (factor text, det, product, status, unit or None)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c[3] in ("both_zero", "unit") for c in self.components)


def vandermonde_det(p: int, k: int, *, cap=VANDERMONDE_CAP):
    """Determinant of the matrix with rows (1, [j], [j]^2, ..., [j]^(p^k - 1)).

    Returns (determinant, report).  The determinant is computed per CRT
    component, where each factor generates a genuine field, and compared there
    with the product of all nonzero images raised to the p^k - 1 power; on
    components where both sides vanish nothing more is claimed, elsewhere the
    quotient must be a unit and is recorded.
    """
    size, degrees = 1, [1]  # p^j and the degrees of the CRT factors Phi_{p^j}(1+x)
    for _ in range(k):
        if size**3 > cap:
            break
        size *= p
        degrees.append(size - size // p)
    if size**3 * sum(d * d for d in degrees) > cap:
        raise CapExceeded(f"Vandermonde work at p^k = {p}^{k} exceeds the cap {cap}")
    ring = cpk_ring(p, k)
    images = [ring.zero] + z_image(p, k)
    prod = ring.one
    for a in images[1:]:
        prod = prod * a ** (size - 1)
    det_residues = []
    comps = []
    for factor in ring.crt_factors:
        field = QuotientRing(factor, [factor])
        rows = []
        for a in images:
            val = field.element(a.coeffs)
            row = [field.one]
            for _ in range(size - 1):
                row.append(row[-1] * val)
            rows.append(row)
        det_c = mat_det(rows)
        prod_c = field.element(prod.coeffs)
        det_residues.append(det_c.coeffs)
        dz, pz = det_c.is_zero(), prod_c.is_zero()
        if dz and pz:
            status, unit = "both_zero", None
        elif dz or pz:
            status, unit = "mismatch", None
        else:
            status, unit = "unit", (det_c / prod_c).coeffs
        comps.append((poly_to_text(factor), det_c.coeffs, prod_c.coeffs, status, unit))
    det = ring.crt_lift(det_residues)
    return det, VandermondeReport(p, k, tuple(comps))


class LevelDescriptor(
    namedtuple("LevelDescriptor", "p k dimension modulus surviving_factor root_description")
):
    """What survives after inverting the nonzero index images at level k."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "dimension": self.dimension,
            "modulus": poly_to_text(self.modulus),
            "surviving_factor": poly_to_text(self.surviving_factor),
        }


def localize_c0k(p: int, k: int, *, cap=DEFAULT_LEVEL_CAP) -> LevelDescriptor:
    """Invert every nonzero index image in the level-k ring.

    A CRT component survives exactly when no image projects to zero on it.
    The survivor is always the top cyclotomic factor, of dimension phi(p^k);
    this is asserted, not assumed.
    """
    ring = cpk_ring(p, k, cap=cap)
    images = z_image(p, k, cap=cap)
    survivors = []
    for fi, factor in enumerate(ring.crt_factors):
        f = [Fraction(c) for c in factor]
        if all(poly_trim(poly_mod([Fraction(c) for c in a.coeffs], f)) for a in images):
            survivors.append(fi)
    if survivors != [k]:
        raise ArithmeticError(
            f"expected only the top factor to survive localization, got {survivors}"
        )
    factor = ring.crt_factors[k]
    return LevelDescriptor(
        p,
        k,
        euler_phi(p**k),
        ring.modulus,
        factor,
        f"1 + x is a primitive {p**k}-th root of unity",
    )


def drinfeld_dk(p: int, k: int, *, cap=DEFAULT_LEVEL_CAP) -> QuotientRing:
    """The integral level ring Z[x]/(Phi_(p^k)(1+x)).

    Rationalizing its modulus must reproduce the surviving localization
    component, which is checked here.
    """
    size = p**k
    if size > cap:
        raise CapExceeded(f"p^k = {size} exceeds level cap {cap}")
    factor = _cyclo_in_one_plus_x(size)
    desc = localize_c0k(p, k, cap=cap)
    if tuple(Fraction(c) for c in desc.surviving_factor) != tuple(factor):
        raise ArithmeticError("integral modulus does not match the localization component")
    return QuotientRing(factor, [factor], integral=True, label=f"D({p},{k})")


def galois_action(p: int, k: int, u: int, a: RingElement) -> RingElement:
    """The automorphism x -> (1+x)^u - 1 applied to a (u a unit mod p^k)."""
    size = p**k
    if size > 1:
        if gcd(u, p) != 1:
            raise ValueError(f"{u} is not a unit modulo {p}^{k}")
        u = u % size
    else:
        u = 1
    sub = poly_sub(_one_plus_x_power(u), [Fraction(1)])
    image = poly_compose([Fraction(c) for c in a.coeffs], sub)
    return a.ring.element(image)


def galois_fixed_dimension(p: int, k: int, *, cap=DEFAULT_LEVEL_CAP) -> int:
    """Q-dimension of the subring of the level-k ring fixed by every unit."""
    ring = cpk_ring(p, k, cap=cap)
    n = ring.dimension
    stacked = []
    for u in range(1, p**k):
        if gcd(u, p) != 1:
            continue
        columns = []
        for t in range(n):
            basis = ring.element([0] * t + [1])
            columns.append(galois_action(p, k, u, basis).coeffs)
        # constraints (M_u - I) a = 0, one row per output coordinate
        for s in range(n):
            stacked.append([columns[t][s] - (1 if s == t else 0) for t in range(n)])
    if not stacked:
        return n
    return mat_nullspace_dim(stacked)


def tower_map(p: int, k: int, a: RingElement, *, cap=DEFAULT_LEVEL_CAP) -> RingElement:
    """Push a level-k element into level k+1 along x -> (1+x)^p - 1."""
    target = cpk_ring(p, k + 1, cap=cap)
    sub = poly_sub(_one_plus_x_power(p), [Fraction(1)])
    image = poly_compose([Fraction(c) for c in a.coeffs], sub)
    return target.element(image)
