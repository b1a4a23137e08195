"""Command line behavior: exit codes, formats, determinism, and the cache.

Everything drives hkr.cli.run(argv) directly; stdout is the interface under
test, so most assertions are on captured bytes.
"""

import argparse
import ast
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hkr import cli
from hkr.cli import CacheEntry, SCHEMA_VERSION, _build_parser, run
from hkr.rings import PRIMALITY_BOUND


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args, **popen):
    """A fresh interpreter with the package on its path; returns the finished
    process and its wall time in seconds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60,
                          **popen)
    return done, time.perf_counter() - start


def assert_one_line_failure(done, needle):
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1 and needle in done.stderr


def test_rank_json_frozen(capsys):
    code, out, _ = invoke(capsys, ["rank", "--group", "Cyc(4)", "--p", "2", "--n", "2", "--no-cache"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"group": "Cyc(4)", "p": 2, "n": 2, "rank": 16}


def test_rank_plain_is_bare_number(capsys):
    code, out, _ = invoke(
        capsys,
        ["rank", "--group", "Cyc(1)", "--p", "2", "--n", "1", "--no-cache", "--format", "plain"],
    )
    assert code == 0
    assert out == "1\n"


def test_subgroup_count_frozen(capsys):
    code, out, _ = invoke(capsys, ["subgroups", "--p", "2", "--n", "2", "--k", "2", "--no-cache"])
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_output_is_deterministic(capsys):
    argv = ["chartable", "--group", "Sym(3)", "--no-cache"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_csv_is_rank_only(capsys):
    code, out, _ = invoke(
        capsys,
        ["rank", "--group", "Cyc(2)", "--p", "2", "--n", "1", "--no-cache", "--format", "csv"],
    )
    assert code == 0
    assert out == "group,p,n,rank\nCyc(2),2,1,2\n"
    code, _, err = invoke(
        capsys, ["chartable", "--group", "Sym(3)", "--no-cache", "--format", "csv"]
    )
    assert code == 2
    assert "csv" in err


def test_plain_text_is_built_only_for_plain_output(capsys, monkeypatch):
    from hkr.charmap import CharacterTable
    calls = []
    value = CharacterTable.value
    monkeypatch.setattr(CharacterTable, "value", lambda *a: calls.append(a) or value(*a))
    argv = ["chartable", "--group", "Dih(7)", "--no-cache"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0 and json.loads(out)["group"] == "Dih(7)" and not calls
    code, out, _ = invoke(capsys, argv + ["--format", "plain"])
    assert code == 0 and out.startswith("Dih(7): 5 classes") and len(calls) == 25


def test_bad_group_reports_grammar(capsys):
    code, out, err = invoke(capsys, ["rank", "--group", "Sim(3)", "--p", "2", "--n", "1", "--no-cache"])
    assert code == 2
    assert out == ""
    assert "expr" in err and "atom" in err


def test_order_cap_is_a_computational_failure(capsys):
    code, _, err = invoke(capsys, ["rank", "--group", "Sym(9)", "--p", "2", "--n", "1", "--no-cache"])
    assert code == 1
    assert "cap" in err


PRIME_ARGVS = [
    ["rank", "--group", "Cyc(4)", "--n", "2"],
    ["subgroups", "--n", "1", "--k", "1"],
    ["fgl", "coprime", "1", "2"],
    ["c0-demo", "ring", "--k", "1"],
    ["fix", "points", "--group", "Cyc(2)", "--n", "1"],
]


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_non_prime_p_is_usage_error(capsys, p):
    # p = 4 used to print a rank, p = 0 failed mid-computation, p = 1 hung
    for argv in PRIME_ARGVS:
        code, out, err = invoke(capsys, argv + ["--p", p, "--no-cache"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(f"argument --p: {p} is not a prime")


def test_python_dash_m_runs_the_cli():
    argv = ["rank", "--group", "Cyc(4)", "--p", "2", "--n", "2", "--no-cache", "--format", "plain"]
    done, _ = run_python(["-m", "hkr", *argv])
    assert done.returncode == 0
    assert done.stdout == "16\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HKR_CACHE", raising=False)
    argv = ["rank", "--group", "Q8", "--p", "2", "--n", "2", "--cache", str(tmp_path)]
    code, cold, _ = invoke(capsys, argv)
    assert code == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    code, warm, _ = invoke(capsys, argv)
    assert code == 0
    assert warm == cold
    entry = CacheEntry.from_json(json.loads(files[0].read_text()))
    assert entry.version == SCHEMA_VERSION
    assert entry.value == cold


def test_corrupted_cache_recomputes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HKR_CACHE", raising=False)
    argv = ["rank", "--group", "Cyc(6)", "--p", "3", "--n", "1", "--cache", str(tmp_path)]
    _, cold, _ = invoke(capsys, argv)
    (cachefile,) = tmp_path.iterdir()
    cachefile.write_text("{not json")
    code, again, _ = invoke(capsys, argv)
    assert code == 0
    assert again == cold
    # valid JSON that is no entry, or an entry whose value is no string,
    # once made every later call with the key exit 1 with a traceback
    doc = json.loads(cachefile.read_text())
    for text in ["[]", "1", "null", '"x"', "{}", "[" * 100_000,
                 *(json.dumps(dict(doc, value=value)) for value in (5, None, ["x"], {"a": "b"}))]:
        cachefile.write_text(text)
        code, again, err = invoke(capsys, argv)
        assert (code, again, err) == (0, cold, ""), text[:40]
        assert json.loads(cachefile.read_text()) == doc


def test_no_cache_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HKR_CACHE", str(tmp_path))
    code, _, _ = invoke(capsys, ["rank", "--group", "Cyc(2)", "--p", "2", "--n", "1", "--no-cache"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var_and_flag_precedence(tmp_path, capsys, monkeypatch):
    envdir = tmp_path / "env"
    flagdir = tmp_path / "flag"
    envdir.mkdir()
    flagdir.mkdir()
    monkeypatch.setenv("HKR_CACHE", str(envdir))
    invoke(capsys, ["rank", "--group", "Cyc(3)", "--p", "3", "--n", "1"])
    assert len(list(envdir.iterdir())) == 1
    invoke(capsys, ["rank", "--group", "Cyc(3)", "--p", "3", "--n", "1", "--cache", str(flagdir)])
    assert len(list(envdir.iterdir())) == 1
    assert len(list(flagdir.iterdir())) == 1


def test_format_is_part_of_the_cache_key(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HKR_CACHE", raising=False)
    base = ["rank", "--group", "Cyc(2)", "--p", "2", "--n", "1", "--cache", str(tmp_path)]
    invoke(capsys, base)
    invoke(capsys, base + ["--format", "plain"])
    assert len(list(tmp_path.iterdir())) == 2


def test_verbose_goes_to_stderr_only(capsys):
    quiet = invoke(capsys, ["rank", "--group", "Sym(3)", "--p", "2", "--n", "1", "--no-cache"])
    loud = invoke(
        capsys, ["rank", "--group", "Sym(3)", "--p", "2", "--n", "1", "--no-cache", "--verbose"]
    )
    assert loud[1] == quiet[1]
    assert loud[2] != ""


def test_fgl_series_smoke(capsys):
    code, out, _ = invoke(capsys, ["fgl", "series", "multiplicative", "2", "--D", "6", "--no-cache"])
    assert code == 0
    assert json.loads(out)["series"] == "2*x + 1*x^2"


def test_fgl_coprime_smoke(capsys):
    code, out, _ = invoke(capsys, ["fgl", "coprime", "--p", "2", "1", "2", "--no-cache"])
    assert code == 0
    assert json.loads(out)["coprime"] is True


def test_c0_demo_smoke(capsys):
    for action in ("ring", "vandermonde", "localize", "drinfeld"):
        code, out, _ = invoke(capsys, ["c0-demo", action, "--p", "2", "--k", "2", "--no-cache"])
        assert code == 0
        assert json.loads(out)


def test_fix_census_smoke(capsys):
    code, out, _ = invoke(capsys, ["fix", "census", "--group", "Q8", "--p", "2", "--n", "2", "--no-cache"])
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is True
    assert len(doc["orbits"]) == 22


def test_fix_loops_smoke(capsys):
    code, out, _ = invoke(capsys, ["fix", "loops-check", "--group", "Dih(4)", "--n", "2", "--no-cache"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["hom_count"] == 40


def test_loops_check_takes_no_p(capsys):
    # p comes from the group order; an ignored --p used to split the cache, and
    # an ignored --gset naming no file answered ok when the cache was off
    argv = ["fix", "loops-check", "--group", "Dih(4)", "--n", "2", "--no-cache", "--format", "plain"]
    for extra in (["--p", "3"], ["--gset", "/nonexistent.json"]):
        code, out, err = invoke(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert extra[0] in err
    code, out, err = invoke(capsys, argv[:2] + argv[4:])
    assert code == 2 and out == "" and "--group" in err
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert out == "ok\n"


# sha256 of the JSON stdout of the commands over commuting tuples and fixed
# points, taken from the implementation that wrapped each tuple in a class and
# checked the loops identity by enumerating tuples with no order restriction;
# GSET stands for the regular action of Sym(3), read from a file
TUPLE_LAYER_STDOUT_SHA256 = {
    "tuples --group Sym(4) --p 2 --n 2": "560ff4808b311e5306aaec6fffd7addc93ef04bf3ba054e9e3c5c680b0e88ed9",
    "tuples --group Q8 --p 2 --n 2": "ede2f23884dbeabc57f905cd3d35ba59f444dded12ffdd368c88cc8e4fc24955",
    "tuples --group Dih(6) --p 3 --n 2": "f0ab7711d5171ac8784fd4b4d839350185448687ba42c7f72c2287f6e6cbc876",
    "tuples --group Cyc(3)*Sym(3) --p 3 --n 1": "1b301dc3c119a094bf6ab904997bbbeed70e9ab716e72f159ea09517606beee1",
    "gl-orbits --group Cyc(4)*Cyc(2) --p 2 --n 2 --k 2": "519f42846bb3767e2ea7af2486bcf9f599f5a083602fe7cba8d812aacf762572",
    "gl-orbits --group Q8 --p 2 --n 2 --k 2": "d5770cb7dd4519aebd4faa04f0c111f5b6855988a39ce8264f8de253831d9cb6",
    "gl-orbits --group Sym(3) --p 3 --n 2 --k 1": "0e159396e722a56404e036f8d1a70cff1deef032b71f8deb8cf134d4736b54cd",
    "fix points --group Dih(4) --p 2 --n 1": "068ef4b0974b1e4df817a48a5dcaf2b51ef1fd71d99a743ebceb22a0b5f432f6",
    "fix census --group Q8 --p 2 --n 2": "4ef8cb05e17b545e563a21bf3208c7c70c3802b52e4318a814bb41d8d3c90c75",
    "fix census --group Sym(4) --p 2 --n 1": "e06c4811f735e8370bb69cdd439757e76fe89b54ea2ad5db482fc6a0ff0b6b50",
    "fix iterate-check --group Dih(4) --p 2 --n 2": "364b8bc4e233fb983624e1c66091461addf38467b15ee0e688e7b02448d7bbbe",
    "fix points --gset GSET --p 2 --n 1": "785bc08391dc87bdfc7e99ad6dae55c98addd832d80a8e292a550af8a5dade27",
    "fix census --gset GSET --p 3 --n 2": "381b4b89ba1a29fa31d8533d1c2658779571db0143c8858ab3db8e609786ac78",
    "fix iterate-check --gset GSET --p 2 --n 2": "db64d9096f056f4e0523eda19a00d5832047875d7595e41238cc79c033f7e876",
    "fix loops-check --group Dih(4) --n 0": "350c033959c8dbb82179262ba4ee9d4bdefe5ac32807c868d3f2c6ba6884e284",
    "fix loops-check --group Dih(4) --n 1": "ed28496fcd568542957f7c63f138fd6754dd8fd9719599c32df81311f2a3ee55",
    "fix loops-check --group Dih(4) --n 2": "38d2dc704c79abc809adcd0abed00a268958de0ca3c783b187274df5d91c33f2",
    "fix loops-check --group Dih(4) --n 3": "6ba8e267c241e92fcccea6e942b543b22c7f6078b5f1e19f9047d944d369b91a",
    "fix loops-check --group Q8 --n 0": "e8e6718e7105c817b1cb132cdba478c942669a6b8336197ae462c5c658b66a85",
    "fix loops-check --group Q8 --n 1": "af086d2ccda6ec6056b672b42c2ec7fba74d7bdd5c47c204bcf912d4bc7ea07f",
    "fix loops-check --group Q8 --n 2": "64049f6915301e6079c4cab5dedd2d8aaf3353d1e4b0e8e7f671ede3c879b240",
    "fix loops-check --group Q8 --n 3": "c450065fb6f511433f3068e6b273d731b98dbf2e94e83bfb097b34a94f31ee48",
    "fix loops-check --group Cyc(9) --n 0": "194dfd354cbf685d26cdd84532cfa099c0ef248cc93926294c9ca0b458cdbcb1",
    "fix loops-check --group Cyc(9) --n 1": "2ec5ac8f9776027a15a6a6636f4af3d8fa128201e234d94ae65b965be3800a4f",
    "fix loops-check --group Cyc(9) --n 2": "9979509275a7f57fdbebadc625ad4ca36a5f9c0bb7d45e9bff526b1aeab62056",
    "fix loops-check --group Cyc(9) --n 3": "8f7f2336dc256f18a34745f565ddfdbb3d2c01851b50ebb5445b93b6107bcd49",
}


@pytest.mark.parametrize("call", sorted(TUPLE_LAYER_STDOUT_SHA256))
def test_tuple_layer_json_frozen(tmp_path, capsys, call):
    from hkr.groupcore import named_group
    from hkr.inertia import regular_gset

    path = tmp_path / "action.json"
    path.write_text(json.dumps(regular_gset(named_group("Sym(3)")).to_json()))
    argv = [str(path) if word == "GSET" else word for word in call.split()]
    code, out, _ = invoke(capsys, argv + ["--no-cache"])
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == TUPLE_LAYER_STDOUT_SHA256[call]


def test_zpn_sets_refuses_huge_level_quickly():
    # p^40 entries used to be allocated before any cap ran (MemoryError)
    argv = ["zpn-sets", "--p", "2", "--n", "1", "--k", "40", "--no-cache"]
    done, seconds = run_python(["-m", "hkr", *argv])
    assert seconds < 5
    assert_one_line_failure(done, "cap")


@pytest.mark.parametrize("argv, needle", [
    # a cap used to run only after every 30-tuple was built (SystemError);
    # the tuple work cap refuses them by their count
    (["gl-orbits", "--group", "Cyc(2)", "--p", "2", "--n", "30", "--k", "1"], "cap"),
    # 5,040 x 450,801 action cells of Fix_4 ran out of memory
    (["fix", "points", "--group", "Sym(7)", "--p", "3", "--n", "4"], "cell cap"),
    # tuples used to recurse once per entry (RecursionError); 3 * 2^3000 - 2
    # tuples are now refused by their count before any is listed
    (["tuples", "--group", "Sym(3)", "--p", "2", "--n", "3000"], "cap"),
    # an abelian rank |G_p|^n was computed whatever its size: 3^300000000 ran
    # past 120 s, and past 4300 digits the answer exited 2 on printing
    (["rank", "--group", "Cyc(3)", "--p", "3", "--n", "300000000"], "cap"),
    (["rank", "--group", "Cyc(2)", "--p", "2", "--n", "20000"], "cap"),
    (["rank", "--group", "Cyc(4)", "--p", "2", "--n", "8000"], "cap"),
    # a nonabelian rank is capped too: c_n(Sym(3), 2) = 2^n
    (["rank", "--group", "Sym(3)", "--p", "2", "--n", "20000"], "cap"),
    (["tuples", "--group", "Dih(6)", "--p", "2", "--n", "16"], "cap"),  # 12,884,770,816 tuples
    (["fix", "loops-check", "--group", "Q8*Q8", "--n", "8"], "cap"),  # 38,453,641,216 tuples
], ids=["gl-orbits-n30", "fix-sym7-n4", "tuples-n3000", "rank-3^300000000", "rank-2^20000", "rank-4^8000",
        "rank-sym3-n20000", "tuples-dih6-n16", "loops-q8q8-n8"])
def test_deep_n_fails_in_one_line_quickly(argv, needle):
    done, seconds = run_python(["-m", "hkr", *argv, "--no-cache"])
    assert seconds < 5
    assert_one_line_failure(done, needle)


@pytest.mark.parametrize("argv, out", [
    # these recursed once per entry and failed with Python's recursion message
    (["rank", "--group", "Sym(3)", "--p", "2", "--n", "2000"], f"{2**2000}\n"),
    (["rank", "--group", "Sym(3)", "--p", "5", "--n", "1000000000"], "1\n"),
    (["tuples", "--group", "Sym(3)", "--p", "5", "--n", "5000"], "1 commuting tuples in 1 classes\n"),
    # the recursion rebuilt the same centralizers on every path, past 20 s
    (["rank", "--group", "Q8*Q8", "--p", "2", "--n", "31"], "47852207833401690954265412375909761024\n"),
], ids=["rank-n2000", "rank-trivial-n1e9", "tuples-trivial-n5000", "rank-q8q8-n31"])
def test_deep_n_answers_quickly(argv, out):
    done, seconds = run_python(["-m", "hkr", *argv, "--no-cache", "--format", "plain"])
    assert seconds < 5
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_deeply_nested_group_expression_fails_in_one_line():
    # the group-expression parser is the one recursion left on a CLI path
    nested = "(" * 1500 + "Sym(3)" + ")" * 1500
    done, _ = run_python(["-m", "hkr", "rank", "--group", nested, "--p", "2", "--n", "2", "--no-cache"])
    assert_one_line_failure(done, "recursion")


def test_abelian_rank_below_the_cap_prints_in_full(capsys):
    argv = ["rank", "--group", "Cyc(2)", "--p", "2", "--n", "14000", "--no-cache", "--format", "plain"]
    code, out, err = invoke(capsys, argv)
    assert code == 0 and err == ""
    assert out == f"{2**14000}\n" and len(out) == 4215 + 1


def test_gl_orbits_from_generators_is_quick():
    # the whole of GL_2(Z/27), 314,928 matrices, used to be applied per orbit
    argv = ["gl-orbits", "--group", "Cyc(3)", "--p", "3", "--n", "2", "--k", "3", "--no-cache"]
    done, seconds = run_python(["-m", "hkr", *argv])
    assert done.returncode == 0 and done.stderr == ""
    assert seconds < 5


def test_gl_orbits_at_a_huge_level_are_those_of_the_least(capsys):
    # the action factors through GL_n(Z/e), e the largest p-power order, so
    # a level 3^30000000 answers as 3^1 does; it used to be refused by a cap
    argv = ["gl-orbits", "--group", "Cyc(3)", "--p", "3", "--n", "1", "--no-cache"]
    done, seconds = run_python(["-m", "hkr", *argv, "--k", "30000000"])
    assert seconds < 5
    assert done.returncode == 0 and done.stderr == ""
    code, out, _ = invoke(capsys, argv + ["--k", "1"])
    assert code == 0 and json.loads(done.stdout)["orbits"] == json.loads(out)["orbits"]


def test_gl_orbits_past_the_old_gl_cap_answer_quickly():
    # GL_160(Z/1) and GL_4(Z/4) were counted as matrices: the first call ran
    # out of memory, the second was refused with 256 tuples in 3 orbits
    for argv, out in ((["--group", "Cyc(1)", "--p", "2", "--n", "160", "--k", "0"], "1\n"),
                      (["--group", "Cyc(4)", "--p", "2", "--n", "4", "--k", "2"], "3\n")):
        done, seconds = run_python(["-m", "hkr", "gl-orbits", *argv, "--no-cache", "--format", "plain"])
        assert seconds < 5
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_gl_orbits_at_level_zero(capsys):
    # GL_1(Z/1) is one matrix; the 2-part of Cyc(3) is trivial, so one class
    argv = ["gl-orbits", "--group", "Cyc(3)", "--p", "2", "--n", "1", "--k", "0", "--no-cache"]
    assert invoke(capsys, argv + ["--format", "plain"]) == (0, "1\n", "")
    code, out, _ = invoke(capsys, argv)
    assert code == 0 and json.loads(out)["orbits"] == [{"class_count": 1, "classes": [["()"]]}]


def test_adams_with_a_huge_k_is_quick_and_reduces_mod_the_exponent():
    # a power by squaring that skipped the reduction mod the order would square
    # about 13,000 times per class representative here
    big = int("7" * 4000)
    runs = []
    for k in (big, big % 50):  # 50 is the exponent of Dih(50)
        done, seconds = run_python(["-m", "hkr", "adams", "--group", "Dih(50)", "--k", str(k), "--no-cache"])
        assert done.returncode == 0 and seconds < 5
        runs.append(json.loads(done.stdout)["characters"])
    assert [chi["values"] for chi in runs[0]] == [chi["values"] for chi in runs[1]]


def test_galois_dim_refuses_a_huge_level_quickly():
    # every unit mod 2^40 used to be listed first (MemoryError)
    argv = ["galois-dim", "--group", "Sym(4)", "--p", "2", "--k", "40", "--no-cache"]
    done, seconds = run_python(["-m", "hkr", *argv])
    assert seconds < 5
    assert_one_line_failure(done, "cap")


@pytest.mark.parametrize("argv", [
    ["fgl", "series", "honda(4,1)", "2"],
    ["fgl", "series", "honda(1,1)", "2"],
    ["fgl", "series", "honda(0,1)", "2"],
    ["fgl", "wdeg", "honda(9,2)", "--p", "3", "--k", "1"],
    ["fgl", "coprime", "--p", "2", "1", "100000000"],
], ids=["honda-4-1", "honda-1-1", "honda-0-1", "honda-9-2", "coprime-huge-level"])
def test_fgl_probes_are_quick_usage_errors(argv):
    # honda(1,1) looped forever, honda(0,1) exited 1 on Fraction(1, 0), the
    # others answered; coprime computed 2^100000000 before refusing
    done, seconds = run_python(["-m", "hkr", *argv, "--no-cache"])
    assert seconds < 5
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv,answer", [
    (["fgl", "series", "honda(2,99999999)", "2"], "2*x"),
    (["fgl", "wdeg", "multiplicative", "--p", "2", "--k", "3000"], "inf"),
    (["fgl", "wdeg", "honda(2,1)", "--p", "2", "--k", "30"], "inf"),
], ids=["honda-huge-height", "wdeg-mult-k3000", "wdeg-honda-k30"])
def test_fgl_probes_answer_quickly(argv, answer):
    done, seconds = run_python(["-m", "hkr", *argv, "--no-cache", "--format", "plain"])
    assert seconds < 5
    assert done.returncode == 0
    assert done.stdout == answer + "\n"


@pytest.mark.parametrize("argv,needle", [
    (["selftest", "--only", "11"], "error: argument --"),
    (["selftest", "--only", "2", "0"], "error: argument --"),
    (["psi-level", "--group", "Sym(3)", "--p", "2", "--k", "-1"], "error: argument --"),
    (["galois-dim", "--group", "Sym(3)", "--p", "2", "--k", "-1"], "error: argument --"),
    (["fgl", "wdeg", "additive", "--p", "2", "--k", "-1"], "error: argument --"),
    (["power-op", "--group", "Sym(3)", "--k", "0"], "hkr: k must be >= 1"),
    (["power-op", "--group", "Sym(3)", "--k", "-1"], "hkr: k must be >= 1"),
], ids=["only-11", "only-0", "psi-level-k-1", "galois-dim-k-1", "wdeg-k-1", "power-op-k0", "power-op-k-1"])
def test_out_of_range_arguments_are_usage_errors(argv, needle):
    # --only 11 used to exit 0 with no output, --only 2 0 ran criterion 2,
    # psi-level and galois-dim exited 1, fgl wdeg died with a TypeError,
    # power-op --k 0 exited 1 claiming a limit of k <= 8
    done, _ = run_python(["-m", "hkr", *argv, "--no-cache"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert needle in done.stderr.splitlines()[-1]


def test_memory_error_is_a_one_line_failure():
    script = (
        "import sys\n"
        "import hkr.cli as cli\n"
        "def exhaust(args):\n"
        "    raise MemoryError\n"
        "cli.HANDLERS['chartable'] = exhaust\n"
        "sys.exit(cli.run(['chartable', '--group', 'Sym(3)', '--no-cache']))\n"
    )
    done, _ = run_python(["-c", script])
    assert_one_line_failure(done, "out of memory")


def test_fix_accepts_gset_file(tmp_path, capsys):
    from hkr.groupcore import named_group
    from hkr.inertia import regular_gset

    doc = regular_gset(named_group("Sym(3)")).to_json()
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(
        capsys, ["fix", "census", "--gset", str(path), "--p", "2", "--n", "1", "--no-cache"]
    )
    assert code == 0
    assert json.loads(out)["total_points"] == 6


CYC2_ACTION = {"(0 1)": ["b", "a"]}


@pytest.mark.parametrize("doc", [
    {"points": ["a", "b"], "action": CYC2_ACTION},
    [{"group": "Cyc(2)", "points": ["a", "b"], "action": CYC2_ACTION}],
    {"group": "Cyc(2)", "points": ["a", "b"], "action": {"(0 1)": ["b", "c"]}},
    {"group": "Cyc(2)", "points": [["a"], ["b"]], "action": {"(0 1)": [["b"], ["a"]]}},
], ids=["no-group", "top-level-list", "image-not-a-point", "list-valued-points"])
def test_fix_rejects_a_malformed_gset_in_one_line(tmp_path, capsys, doc):
    # each used to end in a KeyError or TypeError traceback
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(
        capsys, ["fix", "points", "--gset", str(path), "--p", "2", "--n", "1", "--no-cache"]
    )
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("hkr: ")


@pytest.mark.parametrize("action", ["points", "census", "iterate-check"])
@pytest.mark.parametrize("group", ["Nonsense", "Cyc(2)"])
def test_fix_rejects_group_beside_gset_in_one_line(tmp_path, capsys, action, group):
    # the group used to be ignored, a bad one too, and still keyed the cache
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"group": "Cyc(2)", "points": ["a", "b"], "action": CYC2_ACTION}))
    argv = ["fix", action, "--gset", str(path), "--p", "2", "--n", "2"]
    code, out, err = invoke(capsys, argv + ["--group", group, "--cache", str(tmp_path / "c")])
    assert code == 2 and out == ""
    assert err == f"hkr: fix {action} takes --group or --gset, not both\n"
    assert not (tmp_path / "c").exists()
    assert invoke(capsys, argv + ["--no-cache"])[0] == 0


def test_selftest_single_criterion(capsys):
    code, out, _ = invoke(capsys, ["selftest", "--only", "2", "--no-cache"])
    assert code == 0
    assert "criterion  2" in out and "PASS" in out


def test_selftest_cache_transparency_check():
    from hkr.cli import _selftest_cache_check

    assert _selftest_cache_check() is True


def test_cache_entry_round_trip():
    entry = CacheEntry(key="k", value="v", version=SCHEMA_VERSION)
    assert CacheEntry.from_json(entry.to_json()) == entry
    with pytest.raises(KeyError):
        CacheEntry.from_json({"key": "k"})


def test_code_change_misses_the_cache(tmp_path, capsys, monkeypatch):
    import hkr.cli

    monkeypatch.delenv("HKR_CACHE", raising=False)
    argv = ["rank", "--group", "Q8", "--p", "2", "--n", "2", "--cache", str(tmp_path), "--verbose"]
    _, cold, _ = invoke(capsys, argv)
    code, warm, err = invoke(capsys, argv)
    assert code == 0 and warm == cold
    assert "# cache hit" in err
    monkeypatch.setattr(hkr.cli, "_code_digest", lambda: "0" * 64)
    code, fresh, err = invoke(capsys, argv)
    assert code == 0
    assert fresh == cold
    assert "# cache hit" not in err
    assert len(list(tmp_path.iterdir())) == 2


def test_no_cache_reads_no_sources(capsys, monkeypatch):
    import hkr.cli

    def unread():
        raise AssertionError("the code digest is only for cache keys")

    monkeypatch.setattr(hkr.cli, "_code_digest", unread)
    code, out, _ = invoke(capsys, ["rank", "--group", "Cyc(4)", "--p", "2", "--n", "1", "--no-cache"])
    assert code == 0 and json.loads(out)["rank"] == 4


@pytest.mark.parametrize("p,n,k", [(2, 2, 8), (2, 3, 6)])
def test_subgroups_refuses_large_enumerations_quickly(p, n, k):
    # the ambient group passes its size cap; the scan work does not
    argv = ["subgroups", "--p", str(p), "--n", str(n), "--k", str(k), "--no-cache"]
    done, seconds = run_python(["-m", "hkr", *argv])
    assert seconds < 5
    assert_one_line_failure(done, "cap")


@pytest.mark.parametrize("argv,needle", [
    (["psi-level", "--group", "Cyc(3)", "--p", "3", "--k", "300000000"], "limited to k <= 8"),
    (["c0-demo", "ring", "--p", "3", "--k", "30000000"], "3^30000000 exceeds level cap"),
    (["c0-demo", "localize", "--p", "3", "--k", "30000000"], "3^30000000 exceeds level cap"),
    (["c0-demo", "drinfeld", "--p", "3", "--k", "30000000"], "3^30000000 exceeds level cap"),
    (["c0-demo", "ring", "--p", "3", "--k", "2000"], "p^k = 3^2000 exceeds level cap"),
    (["subgroups", "--p", "3", "--n", "1", "--k", "30000000"], "cap"),
    (["c0-demo", "localize", "--p", "2", "--k", "10"], "localization work at p^k = 2^10 exceeds the cap"),
    (["c0-demo", "drinfeld", "--p", "97", "--k", "2"], "localization work at p^k = 97^2 exceeds the cap"),
], ids=[
    "psi-level", "c0-ring", "c0-localize", "c0-drinfeld", "c0-ring-3^2000", "subgroups",
    "c0-localize-2^10", "c0-drinfeld-97^2",
])
def test_huge_levels_are_refused_before_they_are_built(argv, needle):
    # psi-level ran past 60 s; the others built p^k and then exited 2 after
    # 12.8-25 s, when their cap message printed its digits past Python's
    # 4300-digit limit
    done, seconds = run_python(["-m", "hkr", *argv, "--no-cache"])
    assert seconds < 5
    assert_one_line_failure(done, needle)
    assert len(done.stderr) < 200


# what a one-shot call must not load unless its command needs it
LAZY_MODULES = {"hkr.charmap", "hkr.acceptance", "hkr.fgl", "hkr.inertia", "hkr.levelrings",
                "dataclasses", "inspect"}
# what parsing no call loads, a --p included: its primality test needs only ints
ARGUMENT_MODULES = {"_hashlib", "fractions", "decimal", "hkr.rings"}


def loaded_modules(script):
    """Modules a fresh interpreter loads for script beyond its own start-up,
    reported by repr, which loads nothing (json would hide itself)."""
    report = "\nimport sys\nsys.stderr.write(repr(sorted(sys.modules)))"
    names = []
    for code in ("pass", script):
        done, _ = run_python(["-c", code + report])
        assert done.returncode == 0, done.stderr
        names.append(set(ast.literal_eval(done.stderr)))
    return names[1] - names[0]


def test_import_loads_no_layer_module():
    loaded = loaded_modules("import hkr.cli")
    assert "hkr.cli" in loaded
    assert not loaded & (LAZY_MODULES | ARGUMENT_MODULES)


def test_cache_hit_loads_no_layer_module(tmp_path):
    argv = ["rank", "--group", "Cyc(4)", "--p", "2", "--n", "2", "--cache", str(tmp_path)]
    script = f"import hkr.cli\nassert hkr.cli.run({argv!r}) == 0"
    loaded = loaded_modules(script)  # the miss runs commuting and groupcore
    assert {"hkr.commuting", "hkr.groupcore"} <= loaded
    assert not loaded & LAZY_MODULES
    loaded = loaded_modules(script)
    assert not loaded & (LAZY_MODULES | ARGUMENT_MODULES | {"hkr.commuting", "hkr.groupcore"})
    argv = ["chartable", "--group", "Cyc(4)", "--cache", str(tmp_path)]
    script = f"import hkr.cli\nassert hkr.cli.run({argv!r}) == 0"
    assert "hkr.charmap" in loaded_modules(script)
    loaded = loaded_modules(script)
    assert not loaded & (LAZY_MODULES | ARGUMENT_MODULES | {"hkr.commuting", "hkr.groupcore"})


def test_tuple_and_fixed_point_commands_load_no_rational_arithmetic():
    # commuting and inertia take their integer helpers from hkr.primality
    calls = [["rank", "--group", "Sym(4)", "--p", "2", "--n", "2"],
             ["tuples", "--group", "Sym(3)", "--p", "3", "--n", "1"],
             ["gl-orbits", "--group", "Cyc(4)", "--p", "2", "--n", "1", "--k", "2"],
             ["zpn-sets", "--p", "2", "--n", "2", "--k", "2"],
             ["subgroups", "--p", "3", "--n", "2", "--k", "1"],
             ["fix", "points", "--group", "Cyc(2)", "--p", "2", "--n", "1"],
             ["fix", "loops-check", "--group", "Dih(4)", "--n", "2"]]
    script = "import contextlib, io, hkr.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n" + "".join(
        f"    assert hkr.cli.run({argv + ['--no-cache']!r}) == 0\n" for argv in calls)
    loaded = loaded_modules(script)
    assert {"hkr.commuting", "hkr.inertia"} <= loaded
    assert not loaded & ARGUMENT_MODULES


# what a table command's miss must not load: json only decodes, a Fraction
# is made only by division, and charmap's helpers live in groupcore
TABLE_MISS_MODULES = {"fractions", "decimal", "numbers", "json", "hkr.commuting"}


def test_table_miss_loads_no_json_fractions_or_commuting(tmp_path):
    from hkr.groupcore import named_group
    from hkr.inertia import regular_gset
    gset = tmp_path / "gset.json"
    gset.write_text(json.dumps(regular_gset(named_group("Cyc(2)")).to_json()))
    cache = str(tmp_path / "cache")
    calls = [["chartable", "--group", "Dih(23)", "--cache", cache],
             ["chartable", "--group", "Sym(4)", "--format", "plain", "--cache", cache],
             ["psi-level", "--group", "Dih(6)", "--p", "2", "--k", "1", "--no-cache"],
             ["galois-dim", "--group", "Sym(4)", "--p", "2", "--k", "2", "--no-cache"],
             ["charmap", "--group", "Sym(4)", "--p", "2", "--no-cache"],  # values descend from conductor 12
             ["charmap", "--group", "Dih(12)", "--p", "3", "--no-cache"]]
    script = "import contextlib, io, hkr.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n" + "".join(
        f"    assert hkr.cli.run({argv!r}) == 0\n" for argv in calls)
    loaded = loaded_modules(script)
    assert "hkr.charmap" in loaded
    assert not loaded & TABLE_MISS_MODULES
    # the hit decodes its file, and a --gset file is decoded: both still answer
    hit, _ = run_python(["-m", "hkr", *calls[0], "--verbose"])
    fresh, _ = run_python(["-m", "hkr", *calls[0][:-2], "--no-cache"])
    assert "# cache hit" in hit.stderr and hit.stdout == fresh.stdout and hit.returncode == 0
    fix = ["fix", "points", "--gset", str(gset), "--p", "2", "--n", "1", "--no-cache"]
    done, _ = run_python(["-m", "hkr", *fix])
    assert done.returncode == 0 and json.loads(done.stdout)["count"] == 2, done.stderr


def test_library_table_and_power_operations_make_no_fraction():
    script = (
        "from hkr.charmap import *\nfrom hkr.groupcore import named_group\n"
        "for spec, p, k in (('Sym(4)', 2, 3), ('Dih(12)', 3, 1), ('Cyc(2)', 11, 2), ('Cyc(3)*Q8', 2, 3)):\n"
        "    G = named_group(spec)\n"
        "    assert orthogonality_report(character_table(G)).ok\n"
        "    char_matrix_rank(G, p), galois_fixed_dim(G, p, k)\n"
        "    for chi in irreducible_characters(G)[:4]:\n"
        "        assert psi_level(2, 2, chi) == adams_psi(4, chi)\n"
        "        total_power(3, chi), 2 * chi - chi\n"
    )
    assert not loaded_modules(script) & {"fractions", "decimal", "numbers"}


def test_cache_store_writes_the_json_dumps_bytes(tmp_path):
    texts = ['plain', 'quote " and \\ backslash', "\n\t\x00\x1f\x7f", "é ü 𝔽 😀", "\u2028\ud800", "/</", ""]
    for text in texts:
        if "\ud800" in text:  # keys come from argv, encoded to UTF-8 for the file name
            continue
        key = "rank|" + text
        for value in texts:
            cli._cache_store(str(tmp_path), key, value)
            path = cli._cache_file(str(tmp_path), key)
            want = json.dumps(CacheEntry(key, value, SCHEMA_VERSION).to_json(), sort_keys=True)
            assert path.read_bytes() == want.encode("ascii")
            assert cli._cache_load(str(tmp_path), key) == value
            path.write_text(want, encoding="utf-8")  # a file json.dumps wrote is a hit too
            assert cli._cache_load(str(tmp_path), key) == value
            assert cli._cache_load(str(tmp_path), key + "|other") is None


# one valid call of every command and action, the command and action first
VALID_CALLS = [
    ["rank", "--group", "Q8", "--p", "2", "--n", "2"],
    ["tuples", "--group", "Sym(3)", "--p", "3", "--n", "1"],
    ["gl-orbits", "--group", "Cyc(4)", "--p", "2", "--n", "1", "--k", "2"],
    ["zpn-sets", "--p", "2", "--n", "2", "--k", "2"],
    ["subgroups", "--p", "3", "--n", "2", "--k", "1"],
    ["fgl", "series", "multiplicative", "3", "--D", "8"],
    ["fgl", "angle", "honda(2,1)", "--p", "2", "--k", "1"],
    ["fgl", "wdeg", "additive", "--p", "2", "--k", "1"],
    ["fgl", "coprime", "--p", "2", "1", "2"],
    ["c0-demo", "ring", "--p", "2", "--k", "2"],
    ["c0-demo", "vandermonde", "--p", "3", "--k", "1"],
    ["c0-demo", "localize", "--p", "2", "--k", "2"],
    ["c0-demo", "drinfeld", "--p", "2", "--k", "2"],
    ["chartable", "--group", "Sym(3)"],
    ["charmap", "--group", "Sym(3)", "--p", "2"],
    ["adams", "--group", "Cyc(6)", "--k", "2"],
    ["power-op", "--group", "Cyc(2)", "--k", "2"],
    ["psi-level", "--group", "Cyc(3)", "--p", "3", "--k", "1"],
    ["galois-dim", "--group", "Sym(3)", "--p", "2", "--k", "1"],
    ["fix", "points", "--group", "Cyc(2)", "--p", "2", "--n", "1"],
    ["fix", "census", "--gset", "x.json", "--p", "2", "--n", "2"],
    ["fix", "iterate-check", "--group", "Cyc(4)", "--p", "2", "--n", "2"],
    ["fix", "loops-check", "--group", "Dih(4)", "--n", "2"],
    ["selftest", "--only", "1", "2"],
]


def _variants(call):
    """call, and calls around it that print help or fail to parse."""
    head = call[:2] if call[0] in ("fgl", "c0-demo", "fix") else call[:1]
    variants = [call, head, head + ["-h"], call + ["--help"], call[:-1], call + ["extra"],
                call + ["--bogus"], call + ["--format", "xml"],
                call + ["--format", "plain", "--no-cache", "--cache", "c", "--verbose"],
                ["--format", "json"] + call]
    for option, bad in (("--p", "4"), ("--n", "x"), ("--k", "-1"), ("--D", "1.5"), ("--only", "11")):
        if option in call:
            at = call.index(option) + 1
            variants.append(call[:at] + [bad] + call[at + 1:])
    return variants


PARSE_CASES = [argv for call in VALID_CALLS for argv in _variants(call)] + [
    [], ["-h"], ["frobnicate"], ["frobnicate", "-h"], ["--format", "json", "rank"],
    ["fgl", "bogus"], ["c0-demo", "--p", "2"], ["fix", "-h", "points"],
    ["rank", "--group", "Q8", "--p", str(PRIMALITY_BOUND), "--n", "1"],
]


def _parse(parser, argv, capsys):
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_parses_as_the_full_parser(argv, capsys):
    full = _parse(_build_parser(), argv, capsys)
    assert _parse(_build_parser(*argv[:1]), argv, capsys) == full
    assert _parse(_build_parser(*argv[:2]), argv, capsys) == full


def _choices(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _subparser(parser, *names):
    for name in names:
        parser = _choices(parser)[name]
    return parser


def test_a_call_builds_only_its_own_command():
    assert list(_choices(_build_parser("rank", "--group"))) == ["rank"]
    assert list(_choices(_subparser(_build_parser("fgl", "wdeg"), "fgl"))) == ["wdeg"]
    assert len(_choices(_subparser(_build_parser("fgl", "-h"), "fgl"))) == 4
    assert len(_choices(_build_parser("-h"))) == 15


def test_parser_literals_match_the_library():
    from hkr.acceptance import CRITERIA
    from hkr.fgl import DEFAULT_TRUNCATION

    parser = _build_parser()
    only = next(a for a in _subparser(parser, "selftest")._actions if a.dest == "only")
    assert list(only.choices) == [num for num, _, _ in CRITERIA]
    for action in ("series", "angle", "wdeg"):
        assert _subparser(parser, "fgl", action).get_default("D") == DEFAULT_TRUNCATION


@pytest.mark.parametrize("argv,answer", [
    (["rank", "--group", "Cyc(2)", "--p", "1000000000000000000000007", "--n", "1"], "1"),
    (["fgl", "series", "honda(1000000000000000000000007,1)", "2", "--D", "8"], "2*x"),
], ids=["rank", "honda"])
def test_a_large_prime_answers_quickly(argv, answer):
    # trial division never finished on p = 10^24 + 7
    done, seconds = run_python(["-m", "hkr", *argv, "--no-cache", "--format", "plain"])
    assert seconds < 2
    assert done.returncode == 0 and done.stdout == answer + "\n"


def test_primality_past_its_proven_bound_is_a_usage_error():
    from hkr.rings import PRIMALITY_BOUND

    argv = ["rank", "--group", "Cyc(2)", "--p", str(PRIMALITY_BOUND + 2), "--n", "1", "--no-cache"]
    done, _ = run_python(["-m", "hkr", *argv])
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "only decided below" in done.stderr.splitlines()[-1]


def test_run_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    for argv in (["chartable", "--group", "Dih(30)", "--no-cache"],
                 ["rank", "--group", "Sym(9)", "--p", "2", "--n", "1", "--no-cache"]):
        run(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("code", [0, 1, 2])
def test_main_freezes_once_after_run_and_exits_with_its_code(monkeypatch, code):
    events = []
    monkeypatch.setattr(cli, "run", lambda: events.append("run") or code)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert events == ["run", "freeze"]
    assert exc.value.code == code


@pytest.mark.parametrize("argv, code", [
    (["chartable", "--group", "Dih(30)"], 0),
    (["rank", "--group", "Sym(9)", "--p", "2", "--n", "1"], 1),
    (["chartable", "--group", "Dih(30)", "--format", "csv"], 2),
], ids=["answer", "cap", "usage"])
def test_python_dash_m_matches_run_in_process(capsys, argv, code):
    argv = [*argv, "--no-cache"]
    done, _ = run_python(["-m", "hkr", *argv])
    assert invoke(capsys, argv) == (code, done.stdout, done.stderr)
    assert done.returncode == code
    assert code == 0 or done.stdout == "" and len(done.stderr.splitlines()) == 1


def _limit_address_space():
    # without the early refusal the child would try to build 10^8 points
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("group, degree", [
    ("Cyc(100000000)", 10**8), ("Dih(100000000)", 10**8), ("Sym(100000000)", 10**8),
    ("Perm(100000000; (0 1))", 10**8), ("Perm(100000000; (0))", 10**8),
    ("Cyc(9000000)", 9 * 10**6), ("Cyc(99999999999999999999)", 10**20 - 1),
])
def test_oversized_atoms_are_refused_before_their_points_exist(group, degree):
    # under 2 GB these ran out of memory, took 2 s, or overflowed a C ssize_t
    done, seconds = run_python(["-m", "hkr", "chartable", "--group", group, "--no-cache"],
                               preexec_fn=_limit_address_space)
    assert seconds < 1
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"hkr: group order times degree {degree} exceeds cell cap {1 << 24}\n"


@pytest.mark.parametrize("group, message", [
    ("Cyc(8388608)", "group order times degree 8388608 exceeds cell cap 16777216"),
    ("Cyc(100001)", "group order times degree 100001 exceeds cell cap 16777216"),
    ("Dih(50001)", "group order times degree 50001 exceeds cell cap 16777216"),
    ("Sym(9)", "group order exceeds order cap 100000"),
])
def test_atoms_of_known_order_are_refused_at_once(capsys, group, message):
    # the closure built points until a cap stopped it, 0.5 to 3.5 s; the
    # message is the closure's
    argv = ["rank", "--group", group, "--p", "2", "--n", "1", "--no-cache"]
    start = time.perf_counter()
    got = invoke(capsys, argv)
    assert time.perf_counter() - start < 0.2
    assert got == (1, "", f"hkr: {message}\n")
