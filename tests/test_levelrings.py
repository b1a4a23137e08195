"""Level rings, the Vandermonde comparison, localization, Galois fixed points."""

import hashlib
import math
from fractions import Fraction
from itertools import permutations

import pytest

from hkr.errors import CapExceeded
from hkr.levelrings import (
    QuotientRing,
    cpk_ring,
    drinfeld_dk,
    galois_action,
    galois_fixed_dimension,
    localize_c0k,
    tower_map,
    vandermonde_det,
    z_image,
)
from hkr.rings import euler_phi, poly_mul, poly_trim


def test_cpk_ring_modulus_is_binomial():
    for p, k in ((2, 1), (2, 2), (3, 1), (5, 1)):
        R = cpk_ring(p, k)
        size = p**k
        assert R.dimension == size
        # (1+x)^size - 1
        want = [Fraction(math.comb(size, i)) for i in range(size + 1)]
        want[0] -= 1
        assert list(R.modulus) == poly_trim(want)


def test_cpk_factors_multiply_to_modulus():
    for p, k in ((2, 2), (3, 1), (2, 3)):
        R = cpk_ring(p, k)
        prod = [Fraction(1)]
        for f in R.crt_factors:
            prod = poly_mul(prod, [Fraction(c) for c in f])
        assert poly_trim(prod) == list(R.modulus)
        assert len(R.crt_factors) == k + 1


def test_z_image_values():
    R = cpk_ring(2, 2)
    images = z_image(2, 2)
    assert len(images) == 3
    x = R.x
    one = R.one
    # [j] = (1+x)^j - 1
    assert images[0] == x
    assert images[1] == (x + one) * (x + one) - one
    assert images[2] == (x + one) ** 3 - one


def test_crt_round_trip():
    # residues read in each factor's own field, as vandermonde_det reads them
    R = cpk_ring(2, 2)
    fields = [QuotientRing(f, [f]) for f in R.crt_factors]
    for a in (R.x, R.x * R.x + 3, R.one, R.zero, (R.x + 1) ** 3):
        assert R.crt_lift([F.element(a.coeffs).coeffs for F in fields]) == a


def leibniz_det(rows, one):
    n = len(rows)
    total = one * 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term * sign
    return total


def test_vandermonde_det_against_leibniz():
    for p, k in ((2, 1), (3, 1), (2, 2)):
        R = cpk_ring(p, k)
        size = p**k
        points = [R.zero] + z_image(p, k)
        rows = [[pt**j for j in range(size)] for pt in points]
        det, report = vandermonde_det(p, k)
        assert det == leibniz_det(rows, R.one)
        assert report.ok


def test_vandermonde_det_is_difference_product():
    for p, k in ((2, 1), (3, 1), (2, 2)):
        R = cpk_ring(p, k)
        points = [R.zero] + z_image(p, k)
        prod = R.one
        for j in range(len(points)):
            for i in range(j):
                prod = prod * (points[j] - points[i])
        det, _ = vandermonde_det(p, k)
        assert det == prod


def test_vandermonde_report_statuses():
    _, report = vandermonde_det(2, 2)
    statuses = [c[3] for c in report.components]
    assert set(statuses) <= {"both_zero", "unit"}
    assert statuses[-1] == "unit"  # top cyclotomic component
    assert report.p == 2 and report.k == 2


def test_vandermonde_cap():
    with pytest.raises(CapExceeded):
        vandermonde_det(2, 7)  # 128 points > default cap


def test_vandermonde_cap_counts_work():
    # p^k = 4: 4^3 * (1 + 1 + 2^2) = 384 over the factors of degree 1, 1, 2
    det, _ = vandermonde_det(2, 2, cap=384)
    assert det == vandermonde_det(2, 2)[0]
    with pytest.raises(CapExceeded):
        vandermonde_det(2, 2, cap=383)
    with pytest.raises(CapExceeded):
        vandermonde_det(2, 5)  # 32^3 * 342, under the old cap on p^k alone


def test_localize_dimension_and_factor():
    for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        desc = localize_c0k(p, k)
        assert desc.dimension == euler_phi(p**k)
        # the surviving factor is the top CRT factor of the level ring
        R = cpk_ring(p, k)
        assert tuple(desc.surviving_factor) == R.crt_factors[-1]
        assert str(p**k) in desc.root_description


def test_drinfeld_ring_is_integral_form_of_survivor():
    for p, k in ((2, 2), (3, 1)):
        D = drinfeld_dk(p, k)
        desc = localize_c0k(p, k)
        assert D.integral
        assert D.dimension == desc.dimension
        assert [Fraction(c) for c in D.modulus] == list(desc.surviving_factor)


def test_galois_action_permutes_index_images():
    p, k = 3, 2
    size = p**k
    R = cpk_ring(p, k)
    images = {j: img for j, img in enumerate(z_image(p, k), start=1)}
    images[0] = R.zero
    for u in (1, 2, 4, 8):
        for j in (1, 2, 5):
            assert galois_action(p, k, u, images[j]) == images[(j * u) % size]


def test_galois_action_is_ring_homomorphism():
    p, k = 2, 2
    R = cpk_ring(p, k)
    a = R.x + 2
    b = R.x * R.x - R.one
    for u in (1, 3):
        act = lambda t: galois_action(p, k, u, t)
        assert act(a + b) == act(a) + act(b)
        assert act(a * b) == act(a) * act(b)
        assert act(R.one) == R.one


def test_galois_action_composes():
    p, k = 2, 3
    R = cpk_ring(p, k)
    a = R.x * R.x + R.x
    for u in (3, 5, 7):
        for v in (3, 5):
            left = galois_action(p, k, u, galois_action(p, k, v, a))
            right = galois_action(p, k, (u * v) % p**k, a)
            assert left == right


def test_galois_action_rejects_non_units():
    R = cpk_ring(2, 2)
    with pytest.raises(ValueError):
        galois_action(2, 2, 2, R.x)


def test_galois_fixed_dimension_counts_unit_orbits():
    # in the basis (1+x)^j the units permute indices, so the fixed dimension
    # is the number of multiplication orbits on Z/p^k
    def orbit_count(p, k):
        size = p**k
        units = [u for u in range(1, max(size, 2)) if math.gcd(u, p) == 1]
        seen = set()
        count = 0
        for j in range(size):
            if j in seen:
                continue
            count += 1
            seen |= {(j * u) % size for u in units}
        return count

    for p, k in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        assert galois_fixed_dimension(p, k) == orbit_count(p, k) == k + 1


def test_tower_map_sends_index_j_to_index_pj():
    for p, k in ((2, 1), (3, 1)):
        size = p**k
        lower = [cpk_ring(p, k).zero] + z_image(p, k)
        upper = [cpk_ring(p, k + 1).zero] + z_image(p, k + 1)
        for j in range(size):
            assert tower_map(p, k, lower[j]) == upper[p * j]


def test_tower_map_is_a_ring_homomorphism():
    R = cpk_ring(2, 2)
    a = R.x + 1
    b = R.x * R.x
    assert tower_map(2, 2, a * b) == tower_map(2, 2, a) * tower_map(2, 2, b)
    assert tower_map(2, 2, a + b) == tower_map(2, 2, a) + tower_map(2, 2, b)


def test_level_cap():
    with pytest.raises(CapExceeded):
        cpk_ring(2, 20)


# sha256 of the JSON stdout of `c0-demo vandermonde`, taken from the
# implementation that reduced each CRT component in a separate field type
VANDERMONDE_STDOUT_SHA256 = {
    (2, 1): "37891fce17a7c888acda2ff1095d0387f2192da88639c1db0e28abb301e8966d",
    (2, 2): "bd160afc144e9440fc34ab46f6979b5403c5b2f7f6b8e36c75c480b4a4a271d8",
    (3, 1): "a7f58c12dd46ba7bfe855c233f757c3bf2531018b4f51ca9b283b51d7e324fe6",
    (2, 3): "beda3a2b7c76ce8322e73362ec0ab6ed89d6500f523b5b9cd7cd86cec6dc3a8e",
    (3, 2): "7ba1596901982e15b154651a962720dc9a39445367213b865b35dc6ba12f1782",
}


@pytest.mark.parametrize("p,k", sorted(VANDERMONDE_STDOUT_SHA256))
def test_vandermonde_json_frozen(capsys, p, k):
    from hkr.cli import run

    code = run(["c0-demo", "vandermonde", "--p", str(p), "--k", str(k), "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == VANDERMONDE_STDOUT_SHA256[(p, k)]


def test_ring_element_division_round_trips_in_a_component_field():
    top = cpk_ring(3, 2).crt_factors[-1]  # Phi_9(1+x), degree 6
    field = QuotientRing(top, [top])
    a = field.element([1, 2, 0, -1])
    b = field.element([Fraction(1, 2), 0, 3, 0, 0, 1])
    assert (a / b) * b == a
    assert b * (1 / b) == 1
    assert a / 2 == a * Fraction(1, 2)
    assert b.inverse() * b == field.one
    with pytest.raises(ZeroDivisionError):
        1 / field.zero


def test_zero_divisor_has_no_inverse():
    ring = cpk_ring(2, 1)  # Q[x]/(x^2 + 2x) = Q[x]/(x(x + 2))
    x = ring.x
    assert x * (x + 2) == 0
    with pytest.raises(ZeroDivisionError):
        1 / x
    unit = x + 1  # (1 + x)^2 = 1 in this ring
    assert 1 / unit == unit
    assert 1 - unit == -x
