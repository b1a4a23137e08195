"""Commuting tuples, the rank prediction, and the level-k lattice counts."""

import functools
import math
from itertools import product

import pytest

from hkr.commuting import (
    apply_matrix,
    gl_action_orbits,
    gl_matrices,
    gl_mul,
    hnf_open_subgroup_count,
    hom_tuples,
    is_p_power_order,
    p_power_elements,
    rank_prediction,
    subgroup_count,
    tuple_classes,
    zpn_set_count,
)
from hkr.errors import CapExceeded
from hkr.groupcore import Permutation, make_group, named_group, sym_group
from hkr.rings import is_prime, rref_mod


def naive_p_power(g, p):
    o = g.order()
    while o % p == 0:
        o //= p
    return o == 1


def brute_hom_pairs(G, p):
    """Commuting pairs of p-power elements by direct filtering."""
    pool = [g for g in G.elements if naive_p_power(g, p)]
    return {(a, b) for a in pool for b in pool if a * b == b * a}


def test_is_p_power_order_matches_naive():
    for spec in ("Sym(4)", "Dih(6)", "Cyc(12)", "Q8"):
        G = named_group(spec)
        for p in (2, 3, 5):
            for g in G.elements:
                assert is_p_power_order(g, p) == naive_p_power(g, p)


def test_p_power_elements():
    G = named_group("Cyc(12)")
    assert len(p_power_elements(G, 2)) == 4
    assert len(p_power_elements(G, 3)) == 3
    assert len(p_power_elements(G, 5)) == 1


def test_hom_tuples_n1_is_element_filter():
    for spec in ("Sym(4)", "Q8"):
        G = named_group(spec)
        singles = {t[0] for t in hom_tuples(G, 2, 1)}
        assert singles == set(p_power_elements(G, 2))


def test_hom_tuples_n2_matches_brute_force():
    for spec in ("Sym(3)", "Dih(4)", "Q8", "Cyc(2)*Sym(3)"):
        G = named_group(spec)
        for p in (2, 3):
            got = set(hom_tuples(G, p, 2))
            assert got == brute_hom_pairs(G, p)


def test_tuple_classes_partition_matches_brute_force():
    for spec in ("Sym(3)", "Q8"):
        G = named_group(spec)
        classes = tuple_classes(G, 2, 2)
        assert sum(c.size for c in classes) == len(hom_tuples(G, 2, 2))
        # simultaneous-conjugation orbits, computed directly
        def orbit(a, b):
            return frozenset(
                (a.conjugate_by(h), b.conjugate_by(h)) for h in G.elements
            )

        brute = {orbit(a, b) for a, b in brute_hom_pairs(G, 2)}
        got = {orbit(*c.representative) for c in classes}
        assert got == brute


def test_rank_prediction_frozen_values():
    assert rank_prediction(named_group("Sym(3)"), 2, 1) == 2
    assert rank_prediction(named_group("Sym(3)"), 3, 1) == 2
    assert rank_prediction(named_group("Q8"), 2, 2) == 22
    assert rank_prediction(named_group("Dih(4)"), 2, 2) == 22
    assert rank_prediction(named_group("Cyc(1)"), 2, 1) == 1


def test_rank_prediction_counts_p_power_classes_at_n1():
    for spec in ("Sym(4)", "Dih(6)", "Q8", "Cyc(3)*Sym(3)"):
        G = named_group(spec)
        for p in (2, 3):
            assert rank_prediction(G, p, 1) == len(tuple_classes(G, p, 1))


def test_rank_prediction_multiplies_over_products():
    # Hom(A, G x H) factors, and conjugation acts factorwise
    for a, b in (("Cyc(4)", "Sym(3)"), ("Q8", "Cyc(3)")):
        G, H = named_group(a), named_group(b)
        P = named_group(f"{a}*{b}")
        for p, n in ((2, 1), (2, 2), (3, 1)):
            assert rank_prediction(P, p, n) == rank_prediction(
                G, p, n
            ) * rank_prediction(H, p, n)


def test_symmetric_group_rank_equals_set_count():
    # the large frozen case: both routes computed independently
    assert rank_prediction(sym_group(8), 2, 2) == 148
    assert zpn_set_count(2, 2, 3) == 148


def test_gl_matrices_counts():
    assert len(gl_matrices(2, 1, 2)) == 2  # units of Z/4
    assert len(gl_matrices(2, 2, 1)) == 6
    assert len(gl_matrices(3, 2, 1)) == 48
    assert len(gl_matrices(2, 2, 2)) == 96


@pytest.mark.parametrize(
    "p, n, k", [(2, 1, 2), (2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 2, 0), (3, 1, 0), (2, 0, 0)]
)
def test_gl_matrices_equal_one_rank_test_per_candidate(p, n, k):
    # the filter that runs rref_mod on every candidate, in the same order
    mod = p**k
    rows = [tuple(flat[i * n : (i + 1) * n] for i in range(n)) for flat in product(range(mod), repeat=n * n)]
    assert gl_matrices(p, n, k) == [s for s in rows if mod == 1 or len(rref_mod(s, p)[1]) == n]


def test_gl_matrices_closed_under_product():
    mats = gl_matrices(2, 2, 1)
    pool = set(mats)
    for a in mats:
        for b in mats:
            assert gl_mul(a, b, 2) in pool


def test_apply_matrix_is_an_action():
    G = named_group("Cyc(4)*Cyc(4)")
    tup = next(t for t in hom_tuples(G, 2, 2) if all(g.order() == 4 for g in t))
    mats = gl_matrices(2, 2, 2)[:10]
    ident = G.identity
    for sigma in mats:
        moved = apply_matrix(tup, sigma, ident)
        assert set(moved) <= set(G.elements)
        for tau in mats:
            left = apply_matrix(apply_matrix(tup, sigma, ident), tau, ident)
            right = apply_matrix(tup, gl_mul(sigma, tau, 4), ident)
            assert left == right


def test_gl_action_orbits_on_cyclic_group():
    G = named_group("Cyc(4)")
    orbits = gl_action_orbits(G, 2, 1, 2)
    # {e}, {g, g^3}, {g^2} under the units of Z/4
    assert sorted(len(o) for o in orbits) == [1, 1, 2]


def test_gl_matrices_at_level_zero_is_the_zero_ring_identity():
    # over Z/1 the zero matrix is the identity, so GL_n(Z/1) has one element
    assert gl_matrices(2, 2, 0) == [((0, 0), (0, 0))]
    assert gl_matrices(3, 1, 0) == [((0,),)]
    assert gl_matrices(2, 0, 0) == [()]


all_gl_matrices = functools.cache(gl_matrices)


@functools.cache
def gl_columns(p, n, k, e):
    """The columns of each matrix of GL_n(Z/p^k), entries reduced mod e: on
    tuples whose entries have orders dividing e that changes no image."""
    return {tuple(tuple(x % e for x in col) for col in zip(*s)) for s in all_gl_matrices(p, n, k)}


def whole_group_orbits(G, p, n, k, e):
    """The orbits of every matrix of GL_n(Z/p^k) on the tuple classes, each
    one found from its least class; a class holds every conjugate of its
    representative."""
    classes = tuple_classes(G, p, n)
    class_of = {tuple(x.conjugate_by(g) for x in c.representative): i
                for i, c in enumerate(classes) for g in G.elements}
    ident = G.identity
    orbits, seen = [], set()
    for i, c in enumerate(classes):
        if i in seen:
            continue
        # an image entry depends only on its column: apply each column once
        image = {v: apply_matrix(c.representative, tuple((x,) for x in v), ident)
                 for v in product(range(e), repeat=n)}
        orbit = {class_of[sum(map(image.__getitem__, cols), ())] for cols in gl_columns(p, n, k, e)}
        seen |= orbit
        orbits.append(sorted(orbit))
    return [[classes[i] for i in orbit] for orbit in orbits]


ORACLE_GROUPS = ("Cyc(1)", "Cyc(3)", "Cyc(4)", "Cyc(8)", "Cyc(9)", "Dih(4)", "Q8", "Sym(3)", "Sym(4)",
                 "Cyc(2)*Cyc(4)")


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_gl_action_orbits_match_the_whole_group(spec):
    G = named_group(spec)
    checked = 0
    for p in (2, 3):
        e = max(g.order() for g in p_power_elements(G, p))
        for n, k in product(range(4), range(4)):
            if p**k % e or (p**k) ** (n * n) > 1_000_000:  # not annihilated, or past the GL cap
                continue
            assert gl_action_orbits(G, p, n, k) == whole_group_orbits(G, p, n, k, e), (p, n, k)
            checked += 1
    assert checked >= 12


def test_gl_action_orbit_partition():
    for spec, p, n, k in (("Q8", 2, 1, 2), ("Sym(3)", 2, 1, 1), ("Dih(4)", 2, 2, 2)):
        G = named_group(spec)
        classes = tuple_classes(G, p, n)
        orbits = gl_action_orbits(G, p, n, k)
        assert sum(len(o) for o in orbits) == len(classes)


def test_subgroup_count_against_hnf_and_brute_force():
    assert subgroup_count(2, 2, 2) == 7
    assert hnf_open_subgroup_count(2, 2, 2) == 7
    for p, n, k in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 2), (5, 2, 1)):
        assert subgroup_count(p, n, k) == hnf_open_subgroup_count(p, n, k)


def test_subgroup_count_brute_force_in_z4_squared():
    # enumerate subgroups of (Z/4)^2 generated by at most two elements
    pts = [(a, b) for a in range(4) for b in range(4)]

    def close(gens):
        got = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = ((x[0] + g[0]) % 4, (x[1] + g[1]) % 4)
                if y not in got:
                    got.add(y)
                    frontier.append(y)
        return frozenset(got)

    subs = {close([a, b]) for a in pts for b in pts}
    assert sum(1 for s in subs if len(s) == 4) == subgroup_count(2, 2, 2)


def test_closed_form_for_index_p():
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            assert subgroup_count(p, n, 1) == (p**n - 1) // (p - 1)


def test_zpn_set_count_against_partition_oracle():
    # a Z_p^n-set of size p^k is a multiset of transitive sets, and the
    # transitive sets of size p^j correspond to open subgroups of index p^j;
    # count multisets by coin-change with one coin per subgroup
    def oracle(p, n, k):
        size = p**k
        ways = [1] + [0] * size
        for j in range(k + 1):
            piece = p**j
            for _ in range(hnf_open_subgroup_count(p, n, j)):
                for total in range(piece, size + 1):
                    ways[total] += ways[total - piece]
        return ways[size]

    for p, n, k in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1), (2, 3, 2)):
        assert zpn_set_count(p, n, k) == oracle(p, n, k)
    assert zpn_set_count(2, 2, 2) == 17


def test_work_caps_raise():
    G = named_group("Sym(4)")
    with pytest.raises(CapExceeded):
        hom_tuples(G, 2, 2, work_cap=10)
    with pytest.raises(CapExceeded):
        gl_matrices(2, 3, 3, cap=10)


def test_zpn_set_count_checks_its_work_before_allocating():
    with pytest.raises(CapExceeded):
        zpn_set_count(2, 1, 40)
    with pytest.raises(CapExceeded):
        zpn_set_count(2, 1, 6, cap=200)  # p^k = 64 fits, the 4 422-step pass does not
    assert zpn_set_count(2, 1, 6, cap=4422) == zpn_set_count(2, 1, 6)
    with pytest.raises(ValueError):
        zpn_set_count(2, 1, -1)


def test_subgroup_count_charges_every_scanned_pair():
    # (Z/8)^2: 1 + 3 + 7 subgroups of order 1, 2, 4 are each scanned against
    # all 64 elements, 704 pairs in all
    assert subgroup_count(2, 2, 3, cap=704) == hnf_open_subgroup_count(2, 2, 3)
    with pytest.raises(CapExceeded):
        subgroup_count(2, 2, 3, cap=703)


def test_subgroup_count_matches_hnf_for_small_primes():
    for p in filter(is_prime, range(60)):
        for n in (1, 2):
            k = 1
            while (p**k) ** n <= 5000:
                assert subgroup_count(p, n, k) == hnf_open_subgroup_count(p, n, k), (p, n, k)
                k += 1


def wreath(G, k):
    """G wr Sym(k) on k blocks of G's points: G's generators on the first
    block, a swap of the first two blocks and a k-cycle of the blocks."""
    m = G.degree

    def on_blocks(f):  # point b*m + i goes to f(b)*m + i
        return Permutation([f(b) * m + i for b in range(k) for i in range(m)])

    gens = [Permutation(g.images + tuple(range(m, k * m))) for g in G.generators]
    if k > 1:
        gens += [on_blocks(lambda b: {0: 1, 1: 0}.get(b, b)), on_blocks(lambda b: (b + 1) % k)]
    return make_group(k * m, gens)


def wreath_ranks(c, p, n, kmax):
    """The coefficients of t^k, k <= kmax, in prod_d (1 - t^(p^d))^(-a_d c),
    a_d the number of index-p^d open subgroups of Z_p^n."""
    coeffs = [1] + [0] * kmax
    d = 0
    while p**d <= kmax:
        for _ in range(hnf_open_subgroup_count(p, n, d) * c):  # times 1/(1 - t^(p^d))
            for i in range(p**d, kmax + 1):
                coeffs[i] += coeffs[i - p**d]
        d += 1
    return coeffs


def test_wreath_product_ranks_follow_the_generating_function():
    # a commuting p-power n-tuple of G wr Sym(k), up to conjugacy, is a
    # Z_p^n-set of size k whose transitive pieces Z_p^n/L each carry a class
    # of Hom(L, G)/G, and each open L is again Z_p^n: so c_n(G wr Sym(k)) is
    # the t^k coefficient of prod_d (1 - t^(p^d))^(-a_d c_n(G)); with G
    # trivial it is zpn_set_count
    assert wreath_ranks(1, 2, 2, 8)[8] == zpn_set_count(2, 2, 3)
    checked = listed = 0
    for spec in ("Cyc(2)", "Cyc(3)", "Cyc(4)", "Sym(3)", "Dih(4)", "Q8"):
        G = named_group(spec)
        for k in range(1, 7):
            if G.order**k * math.factorial(k) > 384:
                break
            W = wreath(G, k)
            assert W.order == G.order**k * math.factorial(k)
            for p, n in product((2, 3), (1, 2, 3)):
                if n == 3 and W.order > 200:  # 0.2-1.3 s each
                    continue
                want = wreath_ranks(rank_prediction(G, p, n), p, n, k)[k]
                assert rank_prediction(W, p, n) == want, (spec, k, p, n)
                checked += 1
                if n <= 2:
                    assert len(tuple_classes(W, p, n)) == want, (spec, k, p, n)
                    listed += 1
    assert (checked, listed) == (92, 64)
