"""The numbered acceptance checks, runnable from pytest or the CLI.

Each criterion function returns (ok, detail); run_all wraps them with
timing, applies the stated wall-clock bounds, and emits one line per
criterion.  The criteria only ever compare two independently computed
quantities (or a computed quantity against a closed form), so a PASS is a
statement about agreement, never about a single code path.
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections import namedtuple

from .charmap import (
    adams_psi,
    char_matrix_rank,
    character_table,
    galois_fixed_dim,
    irreducible_characters,
    orthogonality_report,
    psi_level,
    total_power,
)
from .commuting import (
    gl_matrices,
    gl_mul,
    hnf_open_subgroup_count,
    rank_prediction,
    subgroup_count,
    tuple_classes,
    zpn_set_count,
)
from .fgl import (
    angle_series,
    coprimality_check,
    m_series,
    make_fgl,
    series_to_poly,
    weierstrass_degree,
)
from .groupcore import (
    FiniteGroup,
    Permutation,
    conjugacy_classes,
    cyc_group,
    extend_to_group,
    make_group,
    named_group,
    sym_group,
)
from .inertia import (
    coset_gset,
    disjoint_union,
    gl_on_fix,
    iterate_fix_check,
    loops_pgroup_check,
    orbit_census,
    trivial_gset,
)
from .levelrings import (
    _cyclo_in_one_plus_x,
    galois_fixed_dimension,
    localize_c0k,
    vandermonde_det,
)
from .rings import CyclotomicNumber, euler_phi, is_prime, prime_factors

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "TIME_BOUNDS",
    "named_suite",
    "run_all",
    "run_criterion",
]

CriterionResult = namedtuple(
    "CriterionResult", ["number", "name", "ok", "detail", "seconds", "bound"]
)

# wall-clock bounds in seconds; criteria without one get None
TIME_BOUNDS = {1: 10.0, 2: 60.0, 3: 10.0, 4: 30.0, 7: 30.0, 9: 300.0, 10: 120.0}

# direct products included in the named-group suite, smallest first
PRODUCT_SPECS = (
    "Cyc(2)*Cyc(2)",
    "Cyc(2)*Cyc(4)",
    "Cyc(2)*Cyc(2)*Cyc(2)",
    "Cyc(3)*Cyc(3)",
    "Cyc(2)*Sym(3)",
    "Cyc(4)*Cyc(4)",
    "Cyc(2)*Dih(4)",
    "Cyc(2)*Q8",
    "Cyc(3)*Sym(3)",
    "Sym(3)*Sym(3)",
)


def named_suite(max_order: int) -> list[FiniteGroup]:
    """The named groups of order at most max_order: all cyclic and dihedral
    groups in range, the symmetric groups, the quaternion group, and a fixed
    list of direct products."""
    specs = [f"Cyc({m})" for m in range(1, max_order + 1)]
    specs += [f"Dih({m})" for m in range(1, max_order // 2 + 1)]
    m = 1
    while math.factorial(m) <= max_order:
        specs.append(f"Sym({m})")
        m += 1
    if max_order >= 8:
        specs.append("Q8")
    groups = [named_group(s) for s in specs]
    groups += [
        G for G in (named_group(s) for s in PRODUCT_SPECS) if G.order <= max_order
    ]
    return groups


# ---------------------------------------------------------------------------
# criteria


def criterion_1():
    """rank_prediction(Cyc(p^k), p, n) == p^(k n) for p^(k n) <= 4096."""
    cases = 0
    for p in (2, 3, 5):
        k = 1
        while p**k <= 4096:
            n = 1
            while p ** (k * n) <= 4096:
                # not named_group, whose cache would keep the large groups alive
                G = cyc_group(p**k)
                got = rank_prediction(G, p, n)
                if got != p ** (k * n):
                    return False, f"Cyc({p**k}) p={p} n={n}: {got} != {p**(k*n)}"
                cases += 1
                n += 1
            k += 1
    return True, f"{cases} cyclic cases"


def criterion_2():
    """rank_prediction(Sym(p^k), p, n) == zpn_set_count(p, n, k)."""
    checks = []
    for p, k in ((2, 1), (2, 2), (3, 1)):
        for n in (1, 2):
            got = rank_prediction(sym_group(p**k), p, n)
            want = zpn_set_count(p, n, k)
            checks.append(((p, k, n), got, want))
    if any(got != want for _, got, want in checks):
        bad = [c for c in checks if c[1] != c[2]]
        return False, f"mismatches: {bad}"
    seventeen = next(got for key, got, _ in checks if key == (2, 2, 2))
    if seventeen != 17:
        return False, f"(p,k,n)=(2,2,2) gave {seventeen}, expected 17"
    return True, f"{len(checks)} cases, (2,2,2) -> 17 on both routes"


def criterion_3():
    """subgroup_count agrees with the closed form and the HNF oracle."""
    if subgroup_count(2, 2, 2) != 7:
        return False, f"subgroup_count(2,2,2) = {subgroup_count(2, 2, 2)} != 7"
    cases = 0
    for p in filter(is_prime, range(626)):
        n = 1
        while p**n <= 625:
            got = subgroup_count(p, n, 1)
            closed = (p**n - 1) // (p - 1)
            hnf = hnf_open_subgroup_count(p, n, 1)
            if not got == closed == hnf:
                return False, f"p={p} n={n}: count {got}, closed {closed}, hnf {hnf}"
            cases += 1
            n += 1
    return True, f"(2,2,2) -> 7; {cases} order-p cases against two oracles"


def _prime_powers_upto(bound: int):
    for p in filter(is_prime, range(bound + 1)):
        k = 1
        while p**k <= bound:
            yield p, k
            k += 1


def criterion_4():
    """Formal-group suite: axioms, angle-factor product, coprimality,
    Weierstrass degrees, and p-integrality."""
    add = make_fgl("additive", D=16)
    mult = make_fgl("multiplicative", D=16)
    laws = len([law.series for law in (add, mult)])  # each read builds F and validates it

    # [p^k] = product of the angle factors, multiplicative law, p^k <= 27;
    # each factor within the truncation is Phi_(p^i)(1+x), the polynomial
    # coprimality_check works on
    prod_cases = 0
    for p, k in _prime_powers_upto(27):
        series = m_series(mult, p**k)
        prod = None
        for i in range(k + 1):
            factor = angle_series(mult, p, i)
            if p**i <= mult.degree and series_to_poly(factor) != _cyclo_in_one_plus_x(p**i):
                return False, f"angle factor ({p};{i}) != Phi_{p**i}(1+x)"
            prod = factor if prod is None else prod * factor
        if series != prod:
            return False, f"[{p}^{k}] != angle product for the multiplicative law"
        prod_cases += 1

    for p in (2, 3):
        for i in range(4):
            for j in range(i + 1, 4):
                cert = coprimality_check(p, i, j)
                if not cert.coprime:
                    return False, f"angle factors ({p};{i},{j}) not coprime"

    # honda laws: axioms + p-integrality on construction, then degrees
    wdeg_cases = 0
    honda_params = [
        (p, n) for p in filter(is_prime, range(17)) for n in (1, 2, 3, 4) if p**n <= 16
    ]
    for p, n in honda_params:
        law = make_fgl(f"honda({p},{n})", D=16)
        laws += 1
        for exps, c in law.series.coeffs.items():
            if c.denominator % p == 0:
                return False, f"honda({p},{n}) coefficient not {p}-integral at {exps}"
        k = 1
        while p ** (k * n) <= 16:
            wdeg = weierstrass_degree(m_series(law, p**k), p)
            if wdeg != p ** (k * n):
                return False, f"honda({p},{n}): wdeg([{p}^{k}]) = {wdeg} != {p**(k*n)}"
            wdeg_cases += 1
            k += 1
    return True, (
        f"{laws} laws validated at D=16, {prod_cases} angle products, "
        f"12 coprimality certificates, {wdeg_cases} Weierstrass degrees"
    )


def _eisenstein_at_p(coeffs: list[int], p: int) -> bool:
    return (
        coeffs[-1] == 1
        and all(c % p == 0 for c in coeffs[:-1])
        and coeffs[0] % (p * p) != 0
    )


def criterion_5():
    """Level-ring tower: Vandermonde units, localized dimensions with an
    irreducibility certificate, and Galois fixed dimensions."""
    for p, k in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        _, report = vandermonde_det(p, k)
        if not report.ok:
            return False, f"vandermonde comparison failed at ({p},{k})"

    loc_cases = 0
    for p, k in _prime_powers_upto(32):
        desc = localize_c0k(p, k)
        if desc.dimension != euler_phi(p**k):
            return False, f"localization dim at ({p},{k}) is {desc.dimension}"
        if not _eisenstein_at_p(_cyclo_in_one_plus_x(p**k), p):
            return False, f"surviving factor at ({p},{k}) has no Eisenstein certificate"
        loc_cases += 1

    gal_cases = 0
    checks = [(2, 0)] + [(p, k) for p, k in _prime_powers_upto(16)]
    for p, k in checks:
        if galois_fixed_dimension(p, k) != k + 1:
            return False, f"galois fixed dimension at ({p},{k}) != {k + 1}"
        gal_cases += 1
    return True, (
        f"5 vandermonde units, {loc_cases} localizations with Eisenstein "
        f"certificates, {gal_cases} fixed dimensions"
    )


def criterion_6():
    """char_matrix_rank == rank_prediction == orbits of p-power 1-tuples."""
    cases = 0
    for G in named_suite(100):
        for p in (2, 3, 5):
            a = char_matrix_rank(G, p)
            b = rank_prediction(G, p, 1)
            c = len(tuple_classes(G, p, 1))
            if not a == b == c:
                name = G.name or f"order-{G.order}"
                return False, f"{name} p={p}: rank {a}, prediction {b}, classes {c}"
            cases += 1
    return True, f"{cases} (group, prime) pairs, three-way agreement"


def _int_matrix_rep(G, gens, mats, field):
    """Extend generator matrices to the group and verify the whole
    multiplication table, returning {element: matrix}."""

    def mul(A, B):
        return tuple(
            tuple(
                sum((A[r][t] * B[t][c] for t in range(len(B))), field(0))
                for c in range(len(B))
            )
            for r in range(len(A))
        )

    dim = len(mats[0])
    ident = tuple(
        tuple(field(1) if r == c else field(0) for c in range(dim)) for r in range(dim)
    )
    rep = extend_to_group(G, gens, mats, mul, ident)
    for g in G.elements:
        for h in G.elements:
            if rep[g * h] != mul(rep[g], rep[h]):
                raise ValueError("matrix assignment is not a homomorphism")
    return rep, mul


def _swap_trace_case(G, gens, mats, field):
    """Check P_2(chi)(transposition, g) == tr(rho(g)^2) for the degree-2
    irreducible realized by the given explicit representation."""
    rep, mul = _int_matrix_rep(G, gens, mats, field)
    table = character_table(G)
    chi = next(
        table.irreducible(i) for i in range(table.size) if table.degrees[i] == 2
    )
    # confirm the representation affords chi
    for cls in table.classes:
        M = rep[cls.representative]
        if chi.value_at(cls.representative) != M[0][0] + M[1][1]:
            return False, "trace of the explicit representation is not chi"
    P = total_power(2, chi)
    sclasses = conjugacy_classes(sym_group(2))
    sidx = next(
        i for i, cls in enumerate(sclasses) if not cls.representative.is_identity()
    )
    nclasses = len(chi.classes)
    for j, cls in enumerate(chi.classes):
        M2 = mul(rep[cls.representative], rep[cls.representative])
        if P.values[sidx * nclasses + j] != M2[0][0] + M2[1][1]:
            return False, f"swap trace mismatch at class {j}"
    return True, ""


def criterion_7():
    """psi_level == adams_psi on every irreducible; swap-trace oracle."""
    cases = 0
    for G in named_suite(48):
        for chi in irreducible_characters(G):
            for p, k in ((2, 1), (2, 2), (3, 1)):
                if psi_level(p, k, chi) != adams_psi(p**k, chi):
                    name = G.name or f"order-{G.order}"
                    return False, f"{name}: psi_level != adams at (p,k)=({p},{k})"
                cases += 1

    S3 = named_group("Sym(3)")
    a, b = Permutation((1, 0, 2)), Permutation((1, 2, 0))
    ok, why = _swap_trace_case(
        S3, [a, b], [((-1, 1), (0, 1)), ((0, -1), (1, -1))], int
    )
    if not ok:
        return False, f"Sym(3) swap-trace oracle: {why}"

    Q8 = named_group("Q8")
    i_elt = next(g for g in Q8.elements if g.order() == 4)
    span = {i_elt**t for t in range(4)}
    j_elt = next(g for g in Q8.elements if g.order() == 4 and g not in span)
    z = CyclotomicNumber.root(4, 1)
    one = CyclotomicNumber.from_rational(4, 1)
    zero = CyclotomicNumber.zero(4)
    ok, why = _swap_trace_case(
        Q8,
        [i_elt, j_elt],
        [((z, zero), (zero, -z)), ((zero, -one), (one, zero))],
        lambda v: CyclotomicNumber.from_rational(4, v),
    )
    if not ok:
        return False, f"Q8 swap-trace oracle: {why}"
    return True, f"{cases} Adams comparisons; swap-trace oracles on Sym(3) and Q8"


def criterion_8():
    """galois_fixed_dim(G, p, k) == rank_prediction(G, p, 1)."""
    cases = 0
    for G in named_suite(48):
        expo = G.exponent()
        for p in (2, 3):
            k0 = 0
            e = expo
            while e % p == 0:
                e //= p
                k0 += 1
            for k in (k0, k0 + 1):
                got = galois_fixed_dim(G, p, k)
                want = rank_prediction(G, p, 1)
                if got != want:
                    name = G.name or f"order-{G.order}"
                    return False, f"{name} p={p} k={k}: {got} != {want}"
                cases += 1
    return True, f"{cases} (group, prime, level) cases"


def criterion_9():
    """Inertia suite over all p-groups of order <= 16 in the named families:
    census consistency, iterated Fix, GL functoriality, loop counts."""
    pgroups = []
    for G in named_suite(16):
        factors = prime_factors(G.order) or [2]  # the trivial group at p = 2
        if len(factors) == 1:
            pgroups.append((G, factors[0]))

    rnd = random.Random(1009)
    census_cases = iterate_cases = gl_cases = loop_cases = 0
    for G, p in pgroups:
        point = trivial_gset(G)
        xsets = [point]
        if G.order > 1:
            gen = next(g for g in G.elements if not g.is_identity())
            H = make_group(G.degree, [gen])
            cos = coset_gset(G, H)
            xsets += [cos, disjoint_union(point, cos)]
        for X in xsets:
            for n in (1, 2):
                census = orbit_census(X, p, n)
                if not census.consistent:
                    return False, f"census inconsistent: {X!r} p={p} n={n}"
                census_cases += 1
            if not iterate_fix_check(X, p, 2).ok:
                return False, f"iterated fix failed: {X!r} p={p}"
            iterate_cases += 1

        expo = G.exponent()
        k = 1
        while p**k < expo:
            k += 1
        for n in (1, 2):
            mats = gl_matrices(p, n, k)
            if len(mats) > 12:
                mats = rnd.sample(mats, 12)
            maps = {}
            for sigma in mats:
                maps[sigma] = gl_on_fix(point, p, n, k, sigma)
            for sigma in mats:
                for tau in mats:
                    prod = gl_mul(sigma, tau, p**k)
                    if prod not in maps:
                        maps[prod] = gl_on_fix(point, p, n, k, prod)
                    left = maps[sigma]
                    right = maps[tau]
                    if any(left[right[q]] != maps[prod][q] for q in right):
                        return False, f"GL functoriality failed: p={p} n={n} k={k}"
                    gl_cases += 1

        for n in (1, 2):
            if not loops_pgroup_check(G, n).ok:
                name = G.name or f"order-{G.order}"
                return False, f"loop count mismatch: {name} n={n}"
            loop_cases += 1
    return True, (
        f"{len(pgroups)} p-groups: {census_cases} censuses, {iterate_cases} "
        f"iterated-fix checks, {gl_cases} GL compositions, {loop_cases} loop checks"
    )


def criterion_10():
    """Both orthogonality relations, exactly, for every named group <= 200."""
    cases = 0
    for G in named_suite(200):
        report = orthogonality_report(character_table(G))
        if not report.ok:
            name = G.name or f"order-{G.order}"
            return False, f"orthogonality failed for {name}: {report.failures[:3]}"
        cases += 1
    return True, f"{cases} groups, rows and columns exact"


CRITERIA = (
    (1, "cyclic rank law", criterion_1),
    (2, "symmetric group tuple count", criterion_2),
    (3, "abelian subgroup count", criterion_3),
    (4, "formal group law suite", criterion_4),
    (5, "cyclotomic level tower", criterion_5),
    (6, "character matrix rank", criterion_6),
    (7, "power operation coherence", criterion_7),
    (8, "galois fixed dimension", criterion_8),
    (9, "fixed point suite", criterion_9),
    (10, "orthogonality relations", criterion_10),
)


def run_criterion(number: int) -> CriterionResult:
    name, fn = next((n, f) for num, n, f in CRITERIA if num == number)
    bound = TIME_BOUNDS.get(number)
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    if ok and bound is not None and elapsed > bound:
        ok = False
        detail = f"time bound exceeded: {elapsed:.1f}s > {bound:.0f}s ({detail})"
    return CriterionResult(number, name, ok, detail, elapsed, bound)


def run_all(numbers=None, stream=None) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default), one report line each."""
    stream = stream if stream is not None else sys.stdout
    results = []
    for number, name, _ in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        result = run_criterion(number)
        results.append(result)
        status = "PASS" if result.ok else "FAIL"
        boundtxt = f", bound {result.bound:.0f}s" if result.bound else ""
        print(
            f"criterion {number:2d} [{name}]: {status} - {result.detail} "
            f"({result.seconds:.1f}s{boundtxt})",
            file=stream,
            flush=True,
        )
    return results
