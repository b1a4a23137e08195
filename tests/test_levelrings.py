"""Level rings, the Vandermonde comparison, localization, Galois fixed points."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from hkr import rings
from hkr.errors import CapExceeded
from hkr.levelrings import (
    QuotientRing,
    RingElement,
    cpk_ring,
    drinfeld_dk,
    galois_action,
    galois_fixed_dimension,
    localize_c0k,
    vandermonde_det,
    z_image,
)
from hkr.rings import euler_phi, poly_mod, poly_mul, poly_trim


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


def test_localization_work_is_capped_before_any_arithmetic():
    assert localize_c0k(7, 3).dimension == 294  # 343^2 * 294 units
    for p, k in ((3, 6), (2, 10), (97, 2)):
        with pytest.raises(CapExceeded, match="localization work"):
            localize_c0k(p, k)
        with pytest.raises(CapExceeded, match="localization work"):
            drinfeld_dk(p, k)
    with pytest.raises(CapExceeded, match="level cap"):
        localize_c0k(2, 14)  # p^k past the level cap keeps its own message


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


def tower_map(p, k, a):
    """Push a level-k element into level k+1 along x -> (1+x)^p - 1."""
    target = cpk_ring(p, k + 1)
    image = (target.x + 1) ** p - 1
    out = target.zero
    for c in reversed(a.coeffs):
        out = out * image + c
    return out


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


# sha256 of the JSON stdout of `c0-demo ring`, `localize` and `drinfeld`,
# taken from the implementation that reduced level-ring products by Fraction
# long division
C0_DEMO_STDOUT_SHA256 = {
    ("ring", 2, 1): "2d0c3fa8a54843102853b0392acb3759df8f95b75109b317b80fac84fe211b65",
    ("ring", 2, 2): "86ca8a946e33ab5798736983605769918cdc718b8468c5e2ee80f93ee1138805",
    ("ring", 2, 3): "f48ebe293f4909ce2883a04e2414955206f19b309cfa0bfc9e1250d8a6c5d851",
    ("ring", 3, 1): "805455a6f689e0a3e788850adef44a632628fa6329726ee61096c8ee7cae54d1",
    ("ring", 3, 2): "b3b5f200d7aa0084dadf843168e761c184093a05b691bce3eb90752e4b05ea4c",
    ("ring", 5, 1): "fb8d90af92ea6bccbe80b9c83284b33f0b900edeb7914ced3322a2ab3eb3e76e",
    ("localize", 2, 1): "e6f5556f0d3d30d03eb4275100655d6c1c40c43ebc5abd9a68fa91ac8febab7f",
    ("localize", 2, 2): "851ac641c872f8230568ab5759f490c01852ff30a4b17cf96e14f3ca085e69ec",
    ("localize", 2, 3): "524a4bb3c036ec33a3a11c0854396cfff305f6c465b67fd0a131ecbb35d8e7ba",
    ("localize", 3, 1): "becbae7276f19696ad303c447a237ab5c3bb8438b8e4f373a40331e6c2baf3bd",
    ("localize", 3, 2): "77cb8e012243c6684cacf46afe71274ff7f6dd18af0003d882f63d333591e253",
    ("localize", 5, 1): "65299b05345741c371d089a6bfdb71371b4ea10af3d69e0dcfb222aeb0b79b8f",
    ("drinfeld", 2, 1): "e5357872972f75b4b1a95fdccd9223d6ad093b2e4f58583b4db7d27e9b5bfad3",
    ("drinfeld", 2, 2): "09fd278614081c825d324c5ef4074d87abd57ef09a2db9dbd0823e731f4047a2",
    ("drinfeld", 2, 3): "42981fcbd686de8e7e40b19052d16bed10b772f3a7086397cb2889c9db682156",
    ("drinfeld", 3, 1): "8b6fe76ae8ffa0dd56997f6319cf5921240e16fa3694b1d7ab8d870113d19be6",
    ("drinfeld", 3, 2): "5699c6d9da730ee03bafd2d092009f34c422629140f5ec1639525675fb01db6d",
    ("drinfeld", 5, 1): "09d04d3f4d150c3a82af2cc06f87951f82edd8fa8409ba7a7ea74c5b85089dea",
}


@pytest.mark.parametrize("action,p,k", sorted(C0_DEMO_STDOUT_SHA256))
def test_c0_demo_json_frozen(capsys, action, p, k):
    from hkr.cli import run

    code = run(["c0-demo", action, "--p", str(p), "--k", str(k), "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == C0_DEMO_STDOUT_SHA256[(action, p, k)]


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


def test_level_ring_reduction_table_matches_long_division():
    # every level-ring modulus and CRT factor with p^k <= 27, against the
    # Fraction remainder the level rings used to take after each product
    rng = random.Random(13)
    levels = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for k in range(4) if p**k <= 27]
    for p, k in levels:
        ring = cpk_ring(p, k)
        for f in (ring.modulus, *ring.crt_factors):
            field = ring if f == ring.modulus else QuotientRing(f, [f])
            n = field.dimension
            for _ in range(3):
                coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3 * n + 1))]
                want = poly_mod(coeffs, list(f))
                assert list(field.element(coeffs).coeffs) == want + [0] * (n - len(want))


def test_level_rings_share_the_one_quotient_ring():
    assert RingElement is rings.RingElement
    assert issubclass(QuotientRing, rings.QuotientRing)
    for name in ("element", "_make", "add_terms", "_grow", "__eq__", "__hash__"):
        assert name not in vars(QuotientRing), name
    R = cpk_ring(2, 2)
    assert type(R.x * R.x) is RingElement and type(R.x**3) is RingElement
