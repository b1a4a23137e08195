"""Command line interface over the computational modules.

Every subcommand is a thin wrapper around one library operation: parse
arguments, call the operation, serialize the result.  Output is
deterministic (canonical orderings, no timestamps) so identical
invocations produce byte-identical reports, which is what makes the
result cache safe: entries are keyed by the canonical parameter string
and validated for byte-identity by the self test.

Exit codes: 0 success, 1 computational failure (a cap was exceeded or a
computation reported failure), 2 usage error.  `main()` freezes the heap
before it exits, so the shutdown collections skip it; `run()` does not.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import math
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

from .errors import HkrError, ParseError
from .primality import is_prime

try:  # the interpreter's own BLAKE2; hashlib would load OpenSSL to key the cache
    from _blake2 import blake2b as _hash
except ImportError:
    from hashlib import sha256 as _hash

try:  # json's C string encoder; the json package is loaded only to decode
    from _json import encode_basestring_ascii as _json_string
except ImportError:
    from json.encoder import encode_basestring_ascii as _json_string

__all__ = ["CacheEntry", "run", "main", "GROUP_GRAMMAR", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

GROUP_GRAMMAR = (
    "expr := atom ('*' atom)*; "
    "atom := Sym(m) | Cyc(m) | Dih(m) | Q8 | Perm(degree; gen, ...) | (expr); "
    "gen := cycle+; cycle := (i j ...) on points 0..degree-1"
)


class CacheEntry(namedtuple("CacheEntry", "key value version")):
    """One cached report: canonical key, rendered payload, schema version."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()

    @staticmethod
    def from_json(doc: dict) -> CacheEntry:
        return CacheEntry(doc["key"], doc["value"], doc["version"])


# ---------------------------------------------------------------------------
# cache


def _resolve_cache_path(args) -> str | None:
    if args.no_cache:
        return None
    if args.cache:
        return args.cache
    env = os.environ.get("HKR_CACHE")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return str(base / "hkr")


@functools.cache
def _code_digest() -> str:
    """A hash of the package's own sources, so that a change to the code
    never serves bytes cached by an earlier version."""
    digest = _hash()
    here = os.path.dirname(os.path.realpath(__file__))
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as source:
            digest.update(name.encode("utf-8") + b"\0" + source.read())
    return digest.hexdigest()


def _cache_key(args) -> str:
    parts = [SCHEMA_VERSION, _code_digest(), args.command]
    skip = {"command", "cache", "no_cache", "verbose"}
    for name in sorted(vars(args)):
        if name in skip:
            continue
        value = getattr(args, name)
        if name == "gset" and value:
            # key on content, not path, so edited files miss cleanly
            value = _hash(Path(value).read_bytes()).hexdigest()
        parts.append(f"{name}={value}")
    return "|".join(parts)


def _cache_file(cache_path: str, key: str) -> Path:
    digest = _hash(key.encode("utf-8")).hexdigest()
    return Path(cache_path) / f"{digest}.json"


def _cache_load(cache_path: str, key: str) -> str | None:
    """The cached report, or None for a miss: no file, or one that does not
    hold an entry for this key and schema with a string value."""
    path = _cache_file(cache_path, key)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError):
        return None
    import json  # only a file that exists is decoded
    try:
        entry = CacheEntry.from_json(json.loads(text))
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    if entry.key != key or entry.version != SCHEMA_VERSION or not isinstance(entry.value, str):
        return None
    return entry.value


def _cache_store(cache_path: str, key: str, value: str):
    """Write the entry as json.dumps(entry.to_json(), sort_keys=True) would."""
    path = _cache_file(cache_path, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = sorted(CacheEntry(key, value, SCHEMA_VERSION).to_json().items())
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text("{" + ", ".join(f"{_json_string(k)}: {_json_string(v)}" for k, v in fields) + "}",
                   encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# serialization helpers


def _frac_list(coeffs) -> list[str]:
    return [str(c) for c in coeffs]


def _tuple_entry_strings(t) -> list[str]:
    return [g.cycle_string() for g in t]


def _render_json(payload: dict) -> str:
    return _json_lines(payload, "\n", {}) + "\n"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_lines(value, newline: str, laid_out: dict) -> str:
    """json.dumps(value, indent=2, sort_keys=True), newline in place of each
    line break.  Lists, dicts with string keys, strings, ints, bools and None
    are laid out here, so that a list of strings is one join in C, not one
    pure-Python step per item, and a report loads no json; a list the payload
    shares (a table's coordinate lists) is laid out once per depth, keyed by
    (id, newline) in laid_out while the payload holds it."""
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        key = (id(value), newline)
        got = laid_out.get(key)
        if got is None:
            if all(isinstance(v, str) for v in value):
                items = map(_json_string, value)
            else:
                items = (_json_lines(v, inner, laid_out) for v in value)
            got = laid_out[key] = "[" + inner + ("," + inner).join(items) + newline + "]"
        return got
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            f"{_json_string(k)}: {_json_lines(value[k], inner, laid_out)}" for k in sorted(value)
        ) + newline + "}"
    if isinstance(value, str):
        return _json_string(value)
    if value is None or isinstance(value, bool):
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    import json  # floats and dicts with keys other than strings
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _class_descriptors(classes) -> list[dict]:
    return [
        {"representative": c.representative.cycle_string(), "size": c.size}
        for c in classes
    ]


def _echo(args, G=None, **fields) -> dict:
    """A payload echoing the group's name and whichever of p, n, k the
    command takes, then the given fields."""
    out = {} if G is None else {"group": G.name}
    out.update((name, getattr(args, name)) for name in ("p", "n", "k") if hasattr(args, name))
    out.update(fields)
    return out


def _class_functions_payload(args, G, functions) -> dict:
    """The functions, all on the class list of the first, with their classes."""
    return _echo(args, G, classes=_class_descriptors(functions[0].classes),
                 characters=[f.to_json() for f in functions])


def _class_functions_plain(functions):
    """What builds the plain text of the functions, one line each."""
    return lambda: "\n".join(
        f"{f.label or '?'}: " + "  ".join(v.to_text() for v in f.values) for f in functions
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, plain text or a function building
# it, csv rows or None) and imports its layer when it runs, so that a one-shot
# call loads only what its command needs and a cache hit loads none


def _group(args):
    from .groupcore import named_group
    return named_group(args.group)


def _cmd_rank(args):
    from .commuting import rank_prediction
    G = _group(args)
    value = rank_prediction(G, args.p, args.n)
    payload = _echo(args, G, rank=value)
    rows = [("group", "p", "n", "rank"), (G.name, args.p, args.n, value)]
    return payload, str(value), rows


def _cmd_tuples(args):
    from .commuting import hom_tuples, tuple_classes
    G = _group(args)
    homs = hom_tuples(G, args.p, args.n)
    classes = tuple_classes(G, args.p, args.n)
    payload = _echo(
        args, G, tuple_count=len(homs), class_count=len(classes),
        classes=[
            {"entries": _tuple_entry_strings(c.representative), "size": c.size}
            for c in classes
        ],
    )
    plain = f"{len(homs)} commuting tuples in {len(classes)} classes"
    return payload, plain, None


def _cmd_gl_orbits(args):
    from .commuting import gl_action_orbits
    G = _group(args)
    orbits = gl_action_orbits(G, args.p, args.n, args.k)
    payload = _echo(
        args, G, orbit_count=len(orbits),
        orbits=[
            {
                "class_count": len(orbit),
                "classes": [_tuple_entry_strings(c.representative) for c in orbit],
            }
            for orbit in orbits
        ],
    )
    return payload, str(len(orbits)), None


def _cmd_zpn_sets(args):
    from .commuting import zpn_set_count
    value = zpn_set_count(args.p, args.n, args.k)
    return _echo(args, count=value), str(value), None


def _cmd_subgroups(args):
    from .commuting import subgroup_count
    value = subgroup_count(args.p, args.n, args.k)
    return _echo(args, count=value), str(value), None


def _cmd_fgl(args):
    from .fgl import angle_series, coprimality_check, m_series, make_fgl, p_power_weierstrass_degree
    if args.action == "coprime":
        cert = coprimality_check(args.p, args.i, args.j)
        payload = {
            "p": cert.p,
            "i": cert.i,
            "j": cert.j,
            "coprime": cert.coprime,
            "gcd": _frac_list(cert.gcd),
            "cofactor_i": _frac_list(cert.cofactor_i),
            "cofactor_j": _frac_list(cert.cofactor_j),
        }
        return payload, "coprime" if cert.coprime else "not coprime", None
    law = make_fgl(args.name, D=args.D)
    if args.action == "wdeg":
        degree = p_power_weierstrass_degree(law, args.p, args.k)
        shown = "inf" if degree == math.inf else degree
        return _echo(args, law=law.name, D=law.degree, degree=shown), str(shown), None
    if args.action == "series":
        series = m_series(law, args.m)
        payload = _echo(args, law=law.name, D=law.degree, m=args.m, series=series.to_text())
    else:
        series = angle_series(law, args.p, args.k)
        payload = _echo(args, law=law.name, D=law.degree, series=series.to_text())
    return payload, series.to_text(), None


def _cmd_c0_demo(args):
    from .levelrings import cpk_ring, drinfeld_dk, localize_c0k, vandermonde_det
    p, k = args.p, args.k
    if args.action == "ring":
        R = cpk_ring(p, k)
        payload = _echo(
            args, label=R.label, dimension=R.dimension, modulus=_frac_list(R.modulus),
            factors=[_frac_list(f) for f in R.crt_factors],
        )
        return payload, f"{R.label}: dimension {R.dimension}", None
    if args.action == "vandermonde":
        det, report = vandermonde_det(p, k)
        payload = _echo(
            args, ok=report.ok, determinant=det.to_text(),
            components=[
                {
                    "factor": comp[0],
                    "status": comp[3],
                    "unit": None if comp[4] is None else _frac_list(comp[4]),
                }
                for comp in report.components
            ],
        )
        plain = "unit on every nontrivial component" if report.ok else "comparison failed"
        return payload, plain, None
    if args.action == "localize":
        desc = localize_c0k(p, k)
        payload = _echo(
            args, dimension=desc.dimension, surviving_factor=_frac_list(desc.surviving_factor),
            root_description=desc.root_description,
        )
        return payload, f"dimension {desc.dimension}; {desc.root_description}", None
    R = drinfeld_dk(p, k)
    payload = _echo(args, label=R.label, dimension=R.dimension, modulus=_frac_list(R.modulus))
    return payload, f"{R.label}: dimension {R.dimension}", None


def _cmd_chartable(args):
    from .charmap import character_table
    G = _group(args)
    table = character_table(G)

    def plain():
        lines = [f"{G.name}: {table.size} classes, conductor {table.conductor}"]
        text = functools.cache(lambda value: value.to_text())  # values repeat across the table
        for i in range(table.size):
            lines.append("  ".join(text(table.value(i, j)) for j in range(table.size)))
        return "\n".join(lines)
    return table.to_json(), plain, None


def _images(args, op):
    """The group, and op applied to each of its irreducible characters."""
    from .charmap import character_table
    G = _group(args)
    table = character_table(G)
    return G, [op(table.irreducible(i)) for i in range(table.size)]


def _cmd_charmap(args):
    from .charmap import character_map
    G, images = _images(args, lambda chi: character_map(chi.group, args.p, chi))
    payload = _class_functions_payload(args, G, images)
    payload["conductor"] = images[0].conductor
    return payload, _class_functions_plain(images), None


def _cmd_adams(args):
    from .charmap import adams_psi
    G, images = _images(args, lambda chi: adams_psi(args.k, chi))
    return _class_functions_payload(args, G, images), _class_functions_plain(images), None


def _cmd_power_op(args):
    from .charmap import total_power
    G, images = _images(args, lambda chi: total_power(args.k, chi))
    payload = _echo(
        args, G,
        classes=[
            {
                "sym": scls.representative.cycle_string(),
                "group": gcls.representative.cycle_string(),
            }
            for scls, gcls in images[0].classes
        ],
        characters=[f.to_json() for f in images],
    )
    return payload, _class_functions_plain(images), None


def _cmd_psi_level(args):
    from .charmap import psi_level
    G, images = _images(args, lambda chi: psi_level(args.p, args.k, chi))
    return _class_functions_payload(args, G, images), _class_functions_plain(images), None


def _cmd_galois_dim(args):
    from .charmap import galois_fixed_dim
    G = _group(args)
    value = galois_fixed_dim(G, args.p, args.k)
    return _echo(args, G, dimension=value), str(value), None


def _fix_gset(args):
    from .inertia import gset_from_json, trivial_gset
    if args.gset:
        if args.group is not None:
            raise ValueError(f"fix {args.action} takes --group or --gset, not both")
        import json
        doc = json.loads(Path(args.gset).read_text(encoding="utf-8"))
        return gset_from_json(doc)
    if not args.group:
        raise ValueError("fix requires --group or --gset")
    return trivial_gset(_group(args))


def _cmd_fix(args):
    from .inertia import fix_n, iterate_fix_check, loops_pgroup_check, orbit_census
    if args.action == "loops-check":
        G = _group(args)
        result = loops_pgroup_check(G, args.n)
        payload = _echo(
            args, G, ok=result.ok, hom_count=result.hom_count, all_count=result.all_count,
            hom_classes=result.hom_classes, all_classes=result.all_classes,
        )
        return payload, "ok" if result.ok else "mismatch", None
    X = _fix_gset(args)
    if args.action == "points":
        F = fix_n(X, args.p, args.n)
        payload = _echo(args, source=X.to_json(), fixed=F.to_json(), count=len(F.points))
        return payload, str(len(F.points)), None
    if args.action == "census":
        census = orbit_census(X, args.p, args.n)
        payload = _echo(args, X.group, **census.to_json())
        plain = (
            f"{census.count} orbits, {census.total_points} points, "
            f"predicted {census.predicted}, "
            + ("consistent" if census.consistent else "inconsistent")
        )
        return payload, plain, None
    result = iterate_fix_check(X, args.p, args.n)
    return _echo(args, X.group, ok=result.ok), "ok" if result.ok else "mismatch", None


HANDLERS = {
    "rank": _cmd_rank,
    "tuples": _cmd_tuples,
    "gl-orbits": _cmd_gl_orbits,
    "zpn-sets": _cmd_zpn_sets,
    "subgroups": _cmd_subgroups,
    "fgl": _cmd_fgl,
    "c0-demo": _cmd_c0_demo,
    "chartable": _cmd_chartable,
    "charmap": _cmd_charmap,
    "adams": _cmd_adams,
    "power-op": _cmd_power_op,
    "psi-level": _cmd_psi_level,
    "galois-dim": _cmd_galois_dim,
    "fix": _cmd_fix,
}


# ---------------------------------------------------------------------------
# self test


def _selftest_cache_check() -> bool:
    """Cache transparency: a cold run, a warm run, and an uncached run of the
    same invocation must produce byte-identical reports."""
    import tempfile
    from contextlib import redirect_stdout
    samples = [
        ["rank", "--group", "Cyc(4)", "--p", "2", "--n", "2"],
        ["chartable", "--group", "Sym(3)"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for argv in samples:
            outputs = []
            for extra in (["--cache", tmp], ["--cache", tmp], ["--no-cache"]):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = run(argv + extra)
                if code != 0:
                    return False
                outputs.append(buf.getvalue())
            if outputs[0] != outputs[1] or outputs[1] != outputs[2]:
                return False
    return True


def _cmd_selftest(args) -> int:
    from .acceptance import run_all
    only = set(args.only) if args.only else None
    results = run_all(only)
    ok = all(r.ok for r in results)
    if only is None:
        cache_ok = _selftest_cache_check()
        print(f"cache transparency: {'PASS' if cache_ok else 'FAIL'}", flush=True)
        ok = ok and cache_ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _prime(text: str) -> int:
    """Argument type of every --p: a prime number."""
    value = _int(text)
    try:
        prime = is_prime(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"{value} is not a prime")
    return value


def _level(text: str) -> int:
    """Argument type of every level exponent --k: an integer >= 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _subparsers(parser, dest, names, chosen):
    """parser's subparsers action, and chosen alone or all names to build under it."""
    sub = parser.add_subparsers(dest=dest, required=True)
    if chosen in names:  # usage lines still list every name, as the full parser's do
        sub.metavar, names = "{" + ",".join(names) + "}", (chosen,)
    return sub, names


def _build_parser(command=None, subcommand=None) -> argparse.ArgumentParser:
    """The full parser of hkr or, given a call's first two words, one with only
    the command and action they name, which parses that call alike."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default="json",
        help="output format (csv is available for rank only)",
    )
    common.add_argument("--cache", metavar="PATH", help="cache directory")
    common.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    common.add_argument(
        "--verbose", action="store_true", help="progress notes on stderr"
    )

    parser = argparse.ArgumentParser(
        prog="hkr",
        description="Exact computations with commuting tuples, formal group "
        "laws, and height-1 character theory.",
        epilog=f"group grammar: {GROUP_GRAMMAR}",
    )
    sub, commands = _subparsers(parser, "command", (*HANDLERS, "selftest"), command)

    def add(name, *, group=False, p=False, n=False, k=None, helptext=""):
        if name in commands:
            sp = sub.add_parser(name, parents=[common], help=helptext)
            if group:
                sp.add_argument("--group", required=True, help="group expression")
            if p:
                sp.add_argument("--p", type=_prime, required=True, help="prime")
            if n:
                sp.add_argument("--n", type=int, required=True, help="tuple length")
            if k:
                sp.add_argument("--k", type=k, required=True,
                                help="level exponent" if k is _level else "index")
            return sp

    def actions(name, names, helptext):
        if name in commands:
            action_sub, chosen = _subparsers(sub.add_parser(name, help=helptext),
                                             "action", names, subcommand)
            for action in chosen:
                sp = action_sub.add_parser(action, parents=[common])
                sp.set_defaults(command=name)
                yield action, sp

    add("rank", group=True, p=True, n=True,
        helptext="predicted free rank over the level ring")
    add("tuples", group=True, p=True, n=True,
        helptext="commuting p-power tuples and their conjugation classes")
    add("gl-orbits", group=True, p=True, n=True, k=_level,
        helptext="orbits of the level-k matrix action on tuple classes")
    add("zpn-sets", p=True, n=True, k=_level,
        helptext="transitive-set count for rank n at level k")
    add("subgroups", p=True, n=True, k=_level,
        helptext="open-subgroup count of index p^k in rank n")

    for action, sp in actions("fgl", ("series", "angle", "wdeg", "coprime"),
                              "formal group law computations"):
        if action != "coprime":
            sp.add_argument("name", help="additive | multiplicative | honda(p,n)")
            # fgl.DEFAULT_TRUNCATION, spelled out so that parsing loads no fgl
            sp.add_argument("--D", type=int, default=16,
                            help="truncation degree")
        if action == "series":
            sp.add_argument("m", type=int, help="multiplication index")
        if action in ("angle", "wdeg"):
            sp.add_argument("--p", type=_prime, required=True)
            sp.add_argument("--k", type=_level, required=True)
        if action == "coprime":
            sp.add_argument("--p", type=_prime, required=True)
            sp.add_argument("i", type=_level)
            sp.add_argument("j", type=_level)

    for _, sp in actions("c0-demo", ("ring", "vandermonde", "localize", "drinfeld"),
                         "level ring demonstrations"):
        sp.add_argument("--p", type=_prime, required=True)
        sp.add_argument("--k", type=_level, required=True)

    add("chartable", group=True, helptext="exact character table")
    add("charmap", group=True, p=True,
        helptext="image of each irreducible under the character map")
    add("adams", group=True, k=int, helptext="Adams operation on irreducibles")
    add("power-op", group=True, k=int,
        helptext="total power operation on irreducibles")
    add("psi-level", group=True, p=True, k=_level,
        helptext="power operation restricted along the translation embedding")
    add("galois-dim", group=True, p=True, k=_level,
        helptext="dimension of the Galois-fixed class functions")

    for action, sp in actions("fix", ("points", "census", "iterate-check", "loops-check"),
                              "fixed-point groupoids"):
        if action == "loops-check":
            # a group, no action, and p from the group order
            sp.add_argument("--group", required=True, help="group expression")
        else:
            sp.add_argument("--group", help="group expression (trivial action)")
            sp.add_argument("--gset", metavar="PATH", help="JSON description of the action")
            sp.add_argument("--p", type=_prime, required=True)
        sp.add_argument("--n", type=int, required=True)

    st = add("selftest", helptext="run the acceptance criteria")
    if st:
        st.add_argument("--only", type=int, nargs="+", metavar="N",
                        choices=range(1, 11),  # acceptance.CRITERIA
                        help="restrict to the given criterion numbers (1-10)")
    return parser


def _render(args, payload, plain, rows) -> str:
    if args.format == "csv":
        if rows is None:
            raise ValueError("csv output is only provided for rank")
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return buf.getvalue()
    if args.format == "plain":
        return (plain() if callable(plain) else plain) + "\n"
    return _render_json(payload)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(*argv[:2]).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "selftest":
        return _cmd_selftest(args)

    cache_path = _resolve_cache_path(args)
    start = time.perf_counter()
    try:
        if cache_path is not None:
            key = _cache_key(args)
            hit = _cache_load(cache_path, key)
            if hit is not None:
                if args.verbose:
                    print(f"# cache hit: {_cache_file(cache_path, key)}",
                          file=sys.stderr)
                sys.stdout.write(hit)
                return 0
        payload, plain, rows = HANDLERS[args.command](args)
        text = _render(args, payload, plain, rows)
        if cache_path is not None:
            try:
                _cache_store(cache_path, key, text)
            except OSError as exc:
                # a broken cache never fails the computation
                if args.verbose:
                    print(f"# cache write failed: {exc}", file=sys.stderr)
    except ParseError as exc:
        print(f"hkr: {exc}", file=sys.stderr)
        print(f"hkr: group grammar: {GROUP_GRAMMAR}", file=sys.stderr)
        return 2
    except (HkrError, ArithmeticError, RecursionError) as exc:
        # a RecursionError is a too-deep --n: rank and tuples recurse once per entry
        print(f"hkr: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("hkr: out of memory", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"hkr: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        print(f"# computed in {time.perf_counter() - start:.3f}s", file=sys.stderr)
    sys.stdout.write(text)
    return 0


def main():
    code = run()
    gc.freeze()  # the collections at interpreter shutdown skip frozen objects
    sys.exit(code)
