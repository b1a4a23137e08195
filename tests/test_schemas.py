"""Every documented schema is exercised against live command output."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

from hkr.cli import HANDLERS, CacheEntry, SCHEMA_VERSION, _build_parser, _render_json, run
from hkr.groupcore import named_group
from hkr.inertia import regular_gset

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"

CASES = [
    ("rank", ["rank", "--group", "Q8", "--p", "2", "--n", "2"]),
    ("tuples", ["tuples", "--group", "Sym(3)", "--p", "3", "--n", "1"]),
    ("gl-orbits", ["gl-orbits", "--group", "Cyc(4)", "--p", "2", "--n", "1", "--k", "2"]),
    ("zpn-sets", ["zpn-sets", "--p", "2", "--n", "2", "--k", "2"]),
    ("subgroups", ["subgroups", "--p", "3", "--n", "2", "--k", "1"]),
    ("fgl", ["fgl", "series", "multiplicative", "3", "--D", "8"]),
    ("fgl", ["fgl", "angle", "honda(2,1)", "--p", "2", "--k", "1", "--D", "8"]),
    ("fgl", ["fgl", "wdeg", "honda(2,2)", "--p", "2", "--k", "1", "--D", "8"]),
    ("fgl", ["fgl", "wdeg", "additive", "--p", "2", "--k", "1", "--D", "8"]),
    ("fgl", ["fgl", "wdeg", "multiplicative", "--p", "2", "--k", "0", "--D", "8"]),
    ("fgl", ["fgl", "coprime", "--p", "2", "1", "2"]),
    ("fgl", ["fgl", "coprime", "--p", "2", "0", "1"]),
    ("c0-demo", ["c0-demo", "ring", "--p", "2", "--k", "2"]),
    ("c0-demo", ["c0-demo", "vandermonde", "--p", "3", "--k", "1"]),
    ("c0-demo", ["c0-demo", "localize", "--p", "2", "--k", "2"]),
    ("c0-demo", ["c0-demo", "drinfeld", "--p", "2", "--k", "2"]),
    ("chartable", ["chartable", "--group", "Sym(3)"]),
    ("charmap", ["charmap", "--group", "Sym(3)", "--p", "2"]),
    ("adams", ["adams", "--group", "Cyc(6)", "--k", "2"]),
    ("power-op", ["power-op", "--group", "Cyc(2)", "--k", "2"]),
    ("psi-level", ["psi-level", "--group", "Cyc(3)", "--p", "3", "--k", "1"]),
    ("galois-dim", ["galois-dim", "--group", "Sym(3)", "--p", "2", "--k", "1"]),
    ("fix", ["fix", "points", "--group", "Cyc(2)", "--p", "2", "--n", "1"]),
    ("fix", ["fix", "census", "--group", "Q8", "--p", "2", "--n", "2"]),
    ("fix", ["fix", "iterate-check", "--group", "Cyc(4)", "--p", "2", "--n", "2"]),
    ("fix", ["fix", "loops-check", "--group", "Dih(4)", "--n", "2"]),
]


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text(encoding="utf-8"))


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv + ["--no-cache"]) == 0
    return json.loads(buf.getvalue())


def test_all_schemas_are_valid_json_schema():
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        schema = json.loads(path.read_text(encoding="utf-8"))
        jsonschema.Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize("name,argv", CASES, ids=lambda c: c if isinstance(c, str) else " ".join(c))
def test_payload_matches_schema(name, argv):
    jsonschema.validate(capture(argv), load_schema(name))


@pytest.mark.parametrize("argv", [argv for _, argv in CASES], ids=" ".join)
def test_rendered_json_is_json_dumps(argv):
    args = _build_parser().parse_args(argv)
    payload = HANDLERS[args.command](args)[0]
    assert _render_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


json_text = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "\u2028", "\ud800", "😀", "/"])
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | json_text,
    lambda children: st.lists(children) | st.lists(json_text, min_size=1)
    | st.dictionaries(json_text, children) | st.tuples(json_text, children),
    max_leaves=40,
)


@given(json_trees)
def test_rendered_json_is_json_dumps_on_any_tree(tree):
    assert _render_json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


def test_rendered_json_lays_out_a_shared_list_at_each_depth():
    # chartable payloads share each coordinate list by identity, and a list
    # laid out once is reused only at the same depth
    shared = ["0", "-1"]
    nested = [shared, ["x"]]
    tree = {"a": [shared, shared], "b": shared, "c": [[shared, nested], nested], "d": (shared,)}
    assert _render_json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


def test_gset_document_matches_schema():
    doc = regular_gset(named_group("Sym(3)")).to_json()
    jsonschema.validate(doc, load_schema("gset"))


def test_cache_entry_matches_schema():
    entry = CacheEntry(key="rank|group=Q8", value="{}\n", version=SCHEMA_VERSION)
    jsonschema.validate(entry.to_json(), load_schema("cache-entry"))


def test_every_schema_is_exercised():
    exercised = {name for name, _ in CASES} | {"gset", "cache-entry"}
    on_disk = {p.name.removesuffix(".schema.json") for p in SCHEMA_DIR.glob("*.schema.json")}
    assert on_disk == exercised
