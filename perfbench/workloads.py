"""Seeded operation lists for the benchmark workloads.

Inputs come only from the seed: it picks groups, primes, laws and queries
inside fixed strata, so different seeds give comparable mixes.  Within a
stratum, candidates are sorted by the property that drives their cost (order,
conductor, prime) and split into as many equal consecutive bands as there are
picks; the seed draws one candidate from each band.

Every operation pairs the answer under test with the independent route its
acceptance criterion uses.  `Op.answer()` computes both and is the timed
part; `Op.check()` compares them and returns a problem string or None, and
`Op.render()` gives the canonical text that goes into the run's digest.  hkr
functions are looked up on their modules at call time, so a tracer installed
after import still sees every call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("tables", "power-ops", "cli")

# chunks of the operation list; each chunk runs in its own fresh interpreter
CHUNKS = {"tables": 8, "power-ops": 8, "cli": 4}


@dataclass
class Op:
    label: str
    answer: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    render: Callable[[Any], str]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def band_pick(rng: random.Random, items: list, picks: int) -> list:
    """One item from each of `picks` equal consecutive bands of `items`."""
    n = len(items)
    if not 0 < picks <= n:
        raise ValueError(f"cannot pick {picks} of {n} candidates")
    return [items[rng.randrange(i * n // picks, (i + 1) * n // picks)] for i in range(picks)]


def chunk(ops: list, index: int, count: int) -> list:
    n = len(ops)
    return ops[index * n // count:(index + 1) * n // count]


def deal(items: list, count: int, key, rng: random.Random) -> list:
    """Order items so that `chunk(result, i, count)` gives each chunk a like
    share of the dearest ones: items are dealt by descending key in snake
    order (0..count-1, then count-1..0, ...), each chunk is shuffled, and
    the chunks are laid end to end."""
    if len(items) % count:
        raise ValueError(f"{len(items)} items do not deal evenly to {count} chunks")
    hands: list[list] = [[] for _ in range(count)]
    for i, item in enumerate(sorted(items, key=key, reverse=True)):
        turn, seat = divmod(i, count)
        hands[seat if turn % 2 == 0 else count - 1 - seat].append(item)
    for hand in hands:
        rng.shuffle(hand)
    return [item for hand in hands for item in hand]


# ---------------------------------------------------------------------------
# named groups, described without calling hkr


@dataclass(frozen=True)
class GroupSpec:
    name: str
    order: int
    abelian: bool
    exponent: int
    classes: int


def _cyc(m):
    return GroupSpec(f"Cyc({m})", m, True, m, m)


def _dih(m):
    if m <= 2:
        return GroupSpec(f"Dih({m})", 2 * m, True, 2, 2 * m)
    return GroupSpec(f"Dih({m})", 2 * m, False, math.lcm(2, m), (m + 3) // 2 if m % 2 else m // 2 + 3)


def _partitions(m):
    counts = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            counts[total] += counts[total - part]
    return counts[m]


def _sym(m):
    return GroupSpec(f"Sym({m})", math.factorial(m), m <= 2,
                     math.lcm(*range(1, m + 1)) if m else 1, _partitions(m))


_Q8 = GroupSpec("Q8", 8, False, 4, 5)

_PRODUCTS = (
    ("Cyc(2)", "Cyc(2)"),
    ("Cyc(2)", "Cyc(4)"),
    ("Cyc(2)", "Cyc(2)", "Cyc(2)"),
    ("Cyc(3)", "Cyc(3)"),
    ("Cyc(2)", "Sym(3)"),
    ("Cyc(4)", "Cyc(4)"),
    ("Cyc(2)", "Dih(4)"),
    ("Cyc(2)", "Q8"),
    ("Cyc(3)", "Sym(3)"),
    ("Sym(3)", "Sym(3)"),
)


def group_spec(name: str) -> GroupSpec:
    atoms = name.split("*")
    return _parse_atom(name) if len(atoms) == 1 else _product(atoms)


def _parse_atom(atom: str) -> GroupSpec:
    if atom == "Q8":
        return _Q8
    kind, arg = atom[:3], int(atom[4:-1])
    return {"Cyc": _cyc, "Dih": _dih, "Sym": _sym}[kind](arg)


def _product(atoms) -> GroupSpec:
    parts = [_parse_atom(a) for a in atoms]
    return GroupSpec(
        "*".join(atoms),
        math.prod(p.order for p in parts),
        all(p.abelian for p in parts),
        math.lcm(*(p.exponent for p in parts)),
        math.prod(p.classes for p in parts),
    )


def named_suite(max_order: int) -> list[GroupSpec]:
    """The named groups of order <= max_order that the acceptance suite uses:
    cyclic, dihedral and symmetric groups, Q8 and ten direct products."""
    specs = [_cyc(m) for m in range(1, max_order + 1)]
    specs += [_dih(m) for m in range(1, max_order // 2 + 1)]
    m = 1
    while math.factorial(m) <= max_order:
        specs.append(_sym(m))
        m += 1
    if max_order >= 8:
        specs.append(_Q8)
    specs += [g for g in map(_product, _PRODUCTS) if g.order <= max_order]
    return specs


def primes_upto(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if all(q % f for f in range(2, math.isqrt(q) + 1))]


def valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _prime_factors(n: int) -> list[int]:
    return [q for q in primes_upto(n) if n % q == 0]


def _by_order(specs):
    return sorted(specs, key=lambda g: (g.order, g.exponent, g.name))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# tables: character tables and both orthogonality relations

def _table_cost(g: GroupSpec) -> float:
    # classes^2 values; fitted to measured times, its rank correlation with
    # them is 0.99 (nonabelian) and 0.96 (cyclic of order 101..200), against
    # 0.98 and 0.93 for the order
    return g.classes ** 2 * _phi(g.exponent) ** 0.5


def _by_table_cost(specs):
    return sorted(specs, key=lambda g: (_table_cost(g), g.name))


# (abelian, lowest order, highest order, picks, banding).  Nonabelian
# groups stop at order 100: one dihedral table of order 100..200 costs 0.2
# to 5 s, so a few picks there decide a run's time by themselves; the cli
# workload's heavy queries cover that tail.  The picks add up to a multiple
# of CHUNKS.  The
# nonabelian and the large cyclic groups are banded by _table_cost rather
# than by order: between neighbouring orders a table's cost swings twofold
# (prime against composite exponent), and these tables hold the run's 90th
# percentile.
TABLE_STRATA = (
    (True, 1, 100, 40, _by_order),
    (False, 1, 100, 56, _by_table_cost),
    (True, 101, 200, 8, _by_table_cost),
)


def _table_prime(rng, g: GroupSpec) -> int:
    # keep the Galois-fixed oracle at p^k <= 16, where it stays cheap
    small = [p for p in (2, 3, 5, 7) if g.order % p == 0 and p ** valuation(g.exponent, p) <= 16]
    if small:
        return rng.choice(small)
    return next(p for p in (2, 3, 5, 7) if g.order % p)


def tables_ops(seed: int) -> list[Op]:
    rng = rng_for("tables", seed)
    suite = named_suite(200)
    picked = []
    for abelian, lo, hi, picks, banded in TABLE_STRATA:
        pool = banded(g for g in suite if g.abelian == abelian and lo <= g.order <= hi)
        picked += band_pick(rng, pool, picks)
    # the tables a chunk keeps in hkr's caches set its peak RSS, so every
    # chunk gets a like share of the largest ones
    picked = deal(picked, CHUNKS["tables"], lambda g: (_table_cost(g), g.name), rng)
    return [_table_op(g, _table_prime(rng, g)) for g in picked]


def _table_op(g: GroupSpec, p: int) -> Op:
    from hkr import charmap, commuting, groupcore

    k = valuation(g.exponent, p)

    def answer():
        G = groupcore.named_group(g.name)
        table = charmap.character_table(G)
        report = charmap.orthogonality_report(table)
        ranks = (
            charmap.char_matrix_rank(G, p),
            commuting.rank_prediction(G, p, 1),
            charmap.galois_fixed_dim(G, p, k),
        )
        return table, report.ok, ranks

    def check(value):
        _, orthogonal, ranks = value
        if not orthogonal:
            return "orthogonality relations fail"
        if len(set(ranks)) != 1:
            return f"p={p}: rank, prediction, galois dimension = {ranks}"
        return None

    def render(value):
        # the tally rows, not to_json(): power-basis coordinates of a table of
        # order m cost m * m * phi(m) strings
        table, _, ranks = value
        return _dumps([ranks, [[sorted(t.items()) for t in row] for row in table.rows]])

    return Op(f"table {g.name} p={p}", answer, check, render)


# ---------------------------------------------------------------------------
# power-ops: psi_level against adams_psi, and total power operations

POWER_PK = ((2, 1), (2, 2), (3, 1))

# (lowest conductor, highest conductor, groups, characters per group); the
# conductor of a group's table is its exponent.  Every group of each band is
# taken and the seed picks characters: with 6-12 groups per band, the draw of
# a few prime-conductor groups moved a run's cost by 15%.
POWER_STRATA = (
    (1, 8, 28, 2),
    (9, 16, 15, 2),
    (17, 28, 19, 2),
    (29, 48, 25, 2),
)


def power_ops(seed: int) -> list[Op]:
    rng = rng_for("power-ops", seed)
    suite = named_suite(48)
    ops = []
    for lo, hi, groups, chars in POWER_STRATA:
        # a power operation makes about (classes) products of cyclotomic
        # numbers of degree phi(conductor), each costing about phi^2
        pool = sorted(
            (g for g in suite if lo <= g.exponent <= hi),
            key=lambda g: (g.classes * _phi(g.exponent) ** 2, g.name),
        )
        for g in band_pick(rng, pool, groups):
            picks = sorted(rng.sample(range(g.classes), min(chars, g.classes)))
            # the table is its own operation, so the power operations that
            # follow all cost alike
            group_ops = [_characters_op(g)]
            group_ops += [_psi_op(g, i, p, k) for i in picks for p, k in POWER_PK]
            group_ops.append(_total_power_op(g, rng.choice(picks), rng.choice((2, 3))))
            ops.append(group_ops)
    rng.shuffle(ops)
    return [op for group_ops in ops for op in group_ops]


def _characters_op(g: GroupSpec) -> Op:
    from hkr import charmap, groupcore

    def answer():
        chars = charmap.irreducible_characters(groupcore.named_group(g.name))
        return [chi.values[0] for chi in chars], g.order

    def check(value):
        degrees, order = value
        total = sum(d * d for d in degrees)
        return None if total == order else f"sum of squared degrees {total} != |G| = {order}"

    return Op(f"characters {g.name}", answer, check, lambda v: _dumps([str(d) for d in v[0]]))


def _psi_op(g: GroupSpec, i: int, p: int, k: int) -> Op:
    from hkr import charmap, groupcore

    def answer():
        chi = charmap.irreducible_characters(groupcore.named_group(g.name))[i]
        return charmap.psi_level(p, k, chi), charmap.adams_psi(p**k, chi)

    def check(value):
        level, adams = value
        return None if level == adams else "psi_level != adams_psi"

    return Op(f"psi_level {g.name} chi{i} ({p},{k})", answer, check, lambda v: _dumps(v[0].to_json()))


def _total_power_op(g: GroupSpec, i: int, k: int) -> Op:
    from hkr import charmap, groupcore

    def answer():
        chi = charmap.irreducible_characters(groupcore.named_group(g.name))[i]
        power = charmap.total_power(k, chi)
        # P_k(chi) at the identity of Sym(k) is chi^k, at a k-cycle psi^k(chi)
        n = len(chi.classes)
        rows = {tuple(power.classes[s * n][0].representative.cycle_lengths()): s
                for s in range(len(power.classes) // n)}
        at_identity = power.values[rows[(1,) * k] * n:][:n]
        at_cycle = power.values[rows[(k,)] * n:][:n]
        return power, at_identity, [v**k for v in chi.values], at_cycle, charmap.adams_psi(k, chi).values

    def check(value):
        _, at_identity, chi_power, at_cycle, adams = value
        if list(at_identity) != chi_power:
            return f"P_{k}(chi) at the identity differs from chi^{k}"
        if list(at_cycle) != list(adams):
            return f"P_{k}(chi) at a {k}-cycle differs from psi^{k}(chi)"
        return None

    return Op(f"total_power {g.name} chi{i} k={k}", answer, check, lambda v: _dumps(v[0].to_json()))


LIBRARY_OPS = {"tables": tables_ops, "power-ops": power_ops}


# ---------------------------------------------------------------------------
# cli: hkr invocations, one fresh interpreter each


def _pgroups(max_order: int) -> list[tuple[GroupSpec, int]]:
    out = []
    for g in named_suite(max_order):
        primes = _prime_factors(g.order)
        if len(primes) == 1:
            out.append((g, primes[0]))
    return sorted(out, key=lambda gp: (gp[0].order, gp[0].name))


CLI_LIGHT_GROUPS = tuple(g.name for g in _by_order(named_suite(12)) if g.order > 1)
CLI_PGROUPS = tuple((g.name, p) for g, p in _pgroups(8) if g.order > 1)

# per chunk: one light query per command, extra light queries, repeats of
# earlier light queries of the same chunk (which the cache must answer byte
# for byte), medium queries and one heavy query.  Medium is chartable of
# Dih(m) for every m in 20..43, dealt to the chunks by the seed; these about
# double a light query's time and hold the run's 90th percentile.  Heavy is
# chartable of Dih(m), m in 60..100, one from each of four bands by cost.
CLI_EXTRA_LIGHT = 5
CLI_REPEATS = 6
CLI_MEDIUM_M = (20, 43)
CLI_HEAVY_M = (60, 100)


def _light_query(rng: random.Random, command: str) -> list[str]:
    group = rng.choice(CLI_LIGHT_GROUPS)
    gspec = group_spec(group)
    p = rng.choice(_prime_factors(gspec.order))
    pg, pp = rng.choice(CLI_PGROUPS)
    pk = rng.choice(POWER_PK)
    if command == "rank":
        return ["rank", "--group", group, "--p", str(p), "--n", str(rng.choice((1, 2)))]
    if command == "tuples":
        return ["tuples", "--group", group, "--p", str(p), "--n", "1"]
    if command == "gl-orbits":
        k = max(1, valuation(group_spec(pg).exponent, pp))
        return ["gl-orbits", "--group", pg, "--p", str(pp), "--n", "1", "--k", str(k)]
    if command == "zpn-sets":
        return ["zpn-sets", "--p", str(pk[0]), "--n", str(rng.choice((1, 2))), "--k", str(pk[1])]
    if command == "subgroups":
        return ["subgroups", "--p", str(rng.choice(primes_upto(60))), "--n", "1", "--k", "1"]
    if command == "fgl":
        action = rng.choice(("series", "angle", "wdeg", "coprime"))
        if action == "series":
            return ["fgl", "series", rng.choice(("additive", "multiplicative")), str(rng.randint(2, 6)), "--D", "8"]
        if action == "angle":
            return ["fgl", "angle", "multiplicative", "--p", str(rng.choice((2, 3))), "--k", str(rng.randint(1, 2)), "--D", "8"]
        if action == "wdeg":
            return ["fgl", "wdeg", rng.choice(("honda(2,2)", "honda(3,1)", "multiplicative")), "--p", str(rng.choice((2, 3))), "--k", "1", "--D", "8"]
        # fgl.schema.json documents levels i, j >= 1
        i = rng.randint(1, 2)
        return ["fgl", "coprime", "--p", str(rng.choice((2, 3))), str(i), str(rng.randint(i + 1, 3))]
    if command == "c0-demo":
        action = rng.choice(("ring", "vandermonde", "localize", "drinfeld"))
        p0, k0 = rng.choice(((2, 1), (2, 2), (3, 1)))
        return ["c0-demo", action, "--p", str(p0), "--k", str(k0)]
    if command == "chartable":
        return ["chartable", "--group", group]
    if command == "charmap":
        return ["charmap", "--group", group, "--p", str(p)]
    if command == "adams":
        return ["adams", "--group", group, "--k", str(rng.randint(2, 4))]
    if command == "power-op":
        return ["power-op", "--group", group, "--k", str(rng.choice((2, 3)))]
    if command == "psi-level":
        return ["psi-level", "--group", group, "--p", str(pk[0]), "--k", str(pk[1])]
    if command == "galois-dim":
        # the fixed dimension grows steeply with p^k (84 s at 11^2)
        q = rng.choice([f for f in (2, 3) if gspec.order % f == 0] or [2])
        k = valuation(gspec.exponent, q) + rng.randint(0, 1)
        return ["galois-dim", "--group", group, "--p", str(q), "--k", str(k)]
    if command == "fix":
        action = rng.choice(("points", "census", "iterate-check", "loops-check"))
        if action == "loops-check":
            return ["fix", action, "--group", pg, "--n", str(rng.choice((1, 2)))]
        return ["fix", action, "--group", pg, "--p", str(pp), "--n", str(2 if action == "iterate-check" else rng.choice((1, 2)))]
    raise ValueError(command)


CLI_COMMANDS = ("rank", "tuples", "gl-orbits", "zpn-sets", "subgroups", "fgl", "c0-demo",
                "chartable", "charmap", "adams", "power-op", "psi-level", "galois-dim", "fix")


@dataclass(frozen=True)
class Query:
    argv: tuple
    repeat: bool  # True when an earlier query of the same chunk had this argv


def cli_chunks(seed: int) -> list[list[Query]]:
    """The query list of each chunk; every chunk runs against a fresh cache."""
    rng = rng_for("cli", seed)
    lo, hi = CLI_HEAVY_M
    # a table of Dih(m) holds about classes^2 values of degree phi(exponent)
    dihedral = sorted((_dih(m) for m in range(lo, hi + 1)),
                      key=lambda g: (g.classes ** 2 * _phi(g.exponent), g.name))
    heavy = [g.name for g in band_pick(rng, dihedral, CHUNKS["cli"])]
    rng.shuffle(heavy)
    lo, hi = CLI_MEDIUM_M
    medium = [f"Dih({m})" for m in range(lo, hi + 1)]
    rng.shuffle(medium)
    chunks = []
    for index in range(CHUNKS["cli"]):
        light = [tuple(_light_query(rng, c)) for c in CLI_COMMANDS]
        # only deliberate repeats may hit the cache
        while len(light) < len(CLI_COMMANDS) + CLI_EXTRA_LIGHT:
            argv = tuple(_light_query(rng, rng.choice(CLI_COMMANDS)))
            if argv not in light:
                light.append(argv)
        fresh = list(light)
        fresh += [("chartable", "--group", name) for name in medium[index::CHUNKS["cli"]] + [heavy[index]]]
        queries = [Query(a, False) for a in fresh]
        rng.shuffle(queries)
        for _ in range(CLI_REPEATS):
            argv = rng.choice(light)
            first = next(i for i, q in enumerate(queries) if q.argv == argv)
            queries.insert(rng.randint(first + 1, len(queries)), Query(argv, True))
        chunks.append(queries)
    return chunks
