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
from math import gcd

from .errors import CapExceeded
from .rings import (
    QuotientRing as _QuotientRing,
    RingElement,
    capped_power,
    cyclotomic_int_poly,
    fixed_space_dim,
    mat_det,
    poly_compose,
    poly_divmod,
    poly_mul,
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
    "DEFAULT_LEVEL_CAP",
]

DEFAULT_LEVEL_CAP = 10_000
# in work units: each CRT component takes about (p^k)^3 field operations of
# cost deg(factor)^2; 10^7 units is about 30 s on a 2-vCPU machine
VANDERMONDE_CAP = 10_000_000
# in work units: localization reduces the p^k - 1 index images, each of p^k
# coefficients, into the top CRT factor of degree phi(p^k); 2 * 10^8 units
# admits (5,4) (2.3 s) and (2,9) (5.4 s, the slowest admitted level) on a
# 2-vCPU machine and refuses (3,6) (10 s) and (2,10) (80 s)
LOCALIZE_CAP = 200_000_000


def _index_image(e: int) -> list[int]:
    """(1+x)^e - 1, the image of the index e, from the binomial coefficients."""
    out = [1]
    for i in range(e):
        out.append(out[-1] * (e - i) // (i + 1))
    out[0] -= 1
    return out


def _cyclo_in_one_plus_x(m: int) -> list[int]:
    """Phi_m(1+x)."""
    return poly_compose(cyclotomic_int_poly(m), [1, 1])


def _substitute(coeffs, s: RingElement) -> RingElement:
    """The polynomial with these coefficients evaluated at s, by Horner."""
    out = s.ring.zero
    for c in reversed(coeffs):
        out = out * s + c
    return out


class QuotientRing(_QuotientRing):
    """Q[x]/(f) (or Z[x]/(f) when integral) with a fixed factorization of f.

    crt_factors lists the irreducible factors of the modulus (squarefree in
    every ring built here); they power the componentwise operations used by
    the determinant and localization routines.  The arithmetic is that of
    hkr.rings.
    """

    def __init__(self, modulus, crt_factors, *, integral=False, label=""):
        super().__init__(modulus, integral=integral, label=label)
        self.crt_factors = tuple(tuple(int(c) for c in poly_trim(list(f))) for f in crt_factors)
        prod = [1]
        for f in self.crt_factors:
            prod = poly_mul(prod, list(f))
        if tuple(prod) != self.modulus:
            raise ValueError("crt factors do not multiply to the modulus")

    def crt_lift(self, residues) -> RingElement:
        """Reassemble an element from its list of component residues."""
        if len(residues) != len(self.crt_factors):
            raise ValueError("one residue per factor expected")
        acc = self.zero
        for f, res in zip(self.crt_factors, residues):
            cof, _ = poly_divmod(self.modulus, f)
            g, u, _ = poly_xgcd(cof, f)
            if g != [1]:
                raise ArithmeticError("factors are not pairwise coprime")
            # u * cof is the idempotent of this factor
            acc = acc + self.element(poly_mul(list(res), poly_mul(u, cof)))
        return acc


def cpk_ring(p: int, k: int) -> QuotientRing:
    """The level-k ring Q[x]/((1+x)^(p^k) - 1) with its cyclotomic factors."""
    if k < 0:
        raise ValueError("k must be >= 0")
    size = capped_power(p, k, DEFAULT_LEVEL_CAP)
    if size > DEFAULT_LEVEL_CAP:
        raise CapExceeded(f"p^k = {p}^{k} exceeds level cap {DEFAULT_LEVEL_CAP}")
    factors = [_cyclo_in_one_plus_x(p**i) for i in range(k + 1)]
    return QuotientRing(_index_image(size), factors, label=f"C0'({p},{k})")


def z_image(p: int, k: int) -> list[RingElement]:
    """The images (1+x)^j - 1 of the nonzero level-k indices j = 1..p^k - 1."""
    ring = cpk_ring(p, k)
    return [ring.element(_index_image(j)) for j in range(1, ring.dimension)]


class VandermondeReport(namedtuple("VandermondeReport", "p k components")):
    """Componentwise comparison of the Vandermonde determinant with the product of
    the nonzero index images: (factor text, det, product, status, unit or None)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c[3] in ("both_zero", "unit") for c in self.components)


def vandermonde_det(p: int, k: int):
    """Determinant of the matrix with rows (1, [j], [j]^2, ..., [j]^(p^k - 1)).

    Returns (determinant, report).  The determinant is computed per CRT
    component, where each factor generates a genuine field, and compared there
    with the product of all nonzero images raised to the p^k - 1 power; on
    components where both sides vanish nothing more is claimed, elsewhere the
    quotient must be a unit and is recorded.
    """
    size = capped_power(p, k, VANDERMONDE_CAP)
    # the CRT factors Phi_{p^i}(1+x) have degrees 1 and p^i - p^(i-1)
    if size > VANDERMONDE_CAP or size**3 * (1 + sum((p**i - p ** (i - 1)) ** 2 for i in range(1, k + 1))) > VANDERMONDE_CAP:
        raise CapExceeded(f"Vandermonde work at p^k = {p}^{k} exceeds the cap {VANDERMONDE_CAP}")
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


def localize_c0k(p: int, k: int) -> LevelDescriptor:
    """Invert every nonzero index image in the level-k ring.

    A CRT component survives exactly when no image projects to zero on it.
    The survivor is always the top cyclotomic factor, of dimension phi(p^k);
    this is asserted, not assumed.  Within the level cap, (p^k)^2 * phi(p^k)
    is checked against LOCALIZE_CAP before any arithmetic.
    """
    size = capped_power(p, k, DEFAULT_LEVEL_CAP)
    if size <= DEFAULT_LEVEL_CAP and size * size * (size - size // p) > LOCALIZE_CAP:
        raise CapExceeded(f"localization work at p^k = {p}^{k} exceeds the cap {LOCALIZE_CAP}")
    ring = cpk_ring(p, k)
    images = z_image(p, k)
    survivors = []
    for fi, factor in enumerate(ring.crt_factors):
        field = QuotientRing(factor, [factor])
        if not any(field.element(a.coeffs).is_zero() for a in images):
            survivors.append(fi)
    if survivors != [k]:
        raise ArithmeticError(
            f"expected only the top factor to survive localization, got {survivors}"
        )
    factor = ring.crt_factors[k]
    return LevelDescriptor(
        p,
        k,
        len(factor) - 1,
        ring.modulus,
        factor,
        f"1 + x is a primitive {ring.dimension}-th root of unity",
    )


def drinfeld_dk(p: int, k: int) -> QuotientRing:
    """The integral level ring Z[x]/(Phi_(p^k)(1+x)).

    Rationalizing its modulus must reproduce the surviving localization
    component, which is checked here.
    """
    desc = localize_c0k(p, k)  # bounds p^k first
    factor = _cyclo_in_one_plus_x(p**k)
    if desc.surviving_factor != tuple(factor):
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
    return _substitute(a.coeffs, a.ring.element(_index_image(u)))


def galois_fixed_dimension(p: int, k: int) -> int:
    """Q-dimension of the subring of the level-k ring fixed by every unit."""
    ring = cpk_ring(p, k)
    n = ring.dimension
    maps = [[galois_action(p, k, u, ring.element([0] * t + [1])).coeffs for t in range(n)]
            for u in range(1, n) if gcd(u, p) == 1]
    return fixed_space_dim(maps, n)
