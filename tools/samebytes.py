"""Same-bytes harness: run a fixed corpus of hkr calls on a source tree, and
compare two such runs call by call.

    python3 tools/samebytes.py run TREE [--out FILE] [--limit N] [--probes]
    python3 tools/samebytes.py compare A.jsonl B.jsonl

`run` imports hkr from TREE/src and runs every call of the corpus in this
process through hkr.cli.run: once with --no-cache, then twice with --cache in
a fresh temporary directory (a miss, then a hit).  It writes one JSON line per
run: argv (without the cache flags), mode, exit code, the sha256 of stdout,
stderr and seconds.  --limit N keeps N calls spread evenly over the corpus.
--probes adds the slow calls, each in a child process under PROBE_TIMEOUT
seconds; a timeout is recorded as the exit "timeout".  The probes stay opt-in
because several of them run out their timeout at some tree, so they take
minutes, where the corpus takes seconds.  Every run, in this process or a
child, is held to a 2 GiB address space.

`compare` lists the runs whose exit code, stdout or stderr differ, then prints
one digest per command for each side.  It exits 1 if anything differs.

The corpus is deterministic.  A G-set file that a call reads is written into
the temporary directory, and argv records it as GSET.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

# (group, primes): some primes divide the order, one does not
GROUPS = (
    ("Cyc(1)", (2,)),
    ("Cyc(2)", (2, 3)),
    ("Cyc(4)", (2, 3)),
    ("Cyc(6)", (2, 3, 5)),
    ("Cyc(2)*Cyc(2)", (2,)),
    ("Sym(3)", (2, 3, 5)),
    ("Dih(4)", (2, 3)),
    ("Q8", (2,)),
    ("Dih(5)", (2, 5)),
    ("Dih(6)", (2, 3)),
    ("Cyc(3)*Sym(3)", (2, 3)),
    ("Sym(4)", (2, 3)),
)
P_GROUPS = ("Cyc(1)", "Cyc(2)", "Cyc(4)", "Cyc(8)", "Cyc(2)*Cyc(2)", "Dih(4)", "Q8", "Cyc(9)", "Cyc(2)*Q8")

# usage errors (exit 2) and refusals by a cap (exit 1)
EDGE_CALLS = (
    "rank --group Sym(3) --p 2 --n -1",
    "rank --group Sym(3) --p 4 --n 2",
    "rank --group Sym(3) --p 2",
    "rank --group Foo(3) --p 2 --n 2",
    "rank --group Sym(3) --p 2 --n 2 --format csv",
    "rank --group Cyc(3) --p 3 --n 300000000",
    "rank --group Cyc(2) --p 2 --n 20000",
    "tuples --group Sym(3) --p 2 --n -1",
    "tuples --group Sym(3) --p 2 --n 3000",
    "gl-orbits --group Cyc(2) --p 2 --n 30 --k 1",
    "gl-orbits --group Cyc(4) --p 2 --n 2 --k 1",
    "gl-orbits --group Sym(3) --p 2 --n 2 --k -1",
    "fix points --group Sym(3) --p 2",
    "fix points --p 2 --n 1",
    "fix points --group Sym(3) --gset GSET --p 2 --n 1",
    "fix iterate-check --group Sym(3) --p 2 --n 1",
    "fix loops-check --group Sym(3) --n 2",
    "fix loops-check --group Cyc(6) --n 1",
)

# slow or huge calls, each in a child process under PROBE_TIMEOUT seconds
PROBE_TIMEOUT = 20
PROBES = (
    "rank --group Sym(3) --p 2 --n 2000",
    "rank --group Sym(3) --p 5 --n 1000000000",
    "rank --group Q8*Q8 --p 2 --n 31",
    "rank --group Sym(8) --p 2 --n 3",
    "tuples --group Sym(3) --p 5 --n 5000",
    "tuples --group Sym(3) --p 2 --n 20",
    "tuples --group Dih(6) --p 2 --n 16",
    "tuples --group Cyc(2) --p 2 --n 17",
    "fix loops-check --group Q8*Q8 --n 8",
    "fix census --group Cyc(4) --p 2 --n 9",
    "fix points --group Sym(7) --p 3 --n 4",
    "fix points --group Sym(7) --p 7 --n 9",
    "fix loops-check --group Cyc(4) --n 31",
    "fix census --group Dih(200) --p 5 --n 31",
    "tuples --group Cyc(2) --p 2 --n 30",
    "fix census --group Cyc(2) --p 2 --n 40",
    "gl-orbits --group Cyc(1) --p 2 --n 160 --k 0",
    "fix points --group Sym(5) --p 2 --n 4",
    "fix points --group Sym(6) --p 2 --n 3",
    "fix census --group Sym(6) --p 2 --n 3",
    "fix points --group Sym(7) --p 2 --n 2",
)


def corpus() -> list[list[str]]:
    calls = []
    for group, primes in GROUPS:
        for p in primes:
            for n in range(5):
                base = ["--group", group, "--p", str(p), "--n", str(n)]
                calls += [["rank", *base], ["tuples", *base], ["fix", "points", *base], ["fix", "census", *base]]
                calls += [["fix", "iterate-check", *base]] if n >= 2 else []
                calls += [["gl-orbits", *base, "--k", str(k)] for k in range(4)]
            calls += [["rank", "--group", group, "--p", str(p), "--n", str(n)] for n in (6, 9, 12)]
            calls.append(["rank", "--group", group, "--p", str(p), "--n", "2", "--format", "plain"])
            calls.append(["tuples", "--group", group, "--p", str(p), "--n", "2", "--format", "plain"])
    for group in P_GROUPS:
        calls += [["fix", "loops-check", "--group", group, "--n", str(n)] for n in range(4)]
    for p, n in ((2, 1), (2, 2), (3, 1)):
        calls.append(["fix", "census", "--gset", "GSET", "--p", str(p), "--n", str(n)])
        calls.append(["fix", "points", "--gset", "GSET", "--p", str(p), "--n", str(n), "--format", "plain"])
    calls += [line.split() for line in EDGE_CALLS]
    return calls


def _spread(calls: list, limit: int | None) -> list:
    if limit is None or limit >= len(calls):
        return calls
    return [calls[i * len(calls) // limit] for i in range(limit)]


def _record(argv, mode, code, out, err, seconds) -> dict:
    return {"argv": argv, "mode": mode, "exit": code,
            "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "stderr": err, "seconds": round(seconds, 4)}


def _in_process(run, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _probe(src: str, argv: list[str]) -> dict:
    code = "import sys; from hkr.cli import run; sys.exit(run(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", code, *argv, "--no-cache"], env=env, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return _record(argv, "probe", "timeout", "", "", time.perf_counter() - start)
    return _record(argv, "probe", done.returncode, done.stdout, done.stderr, time.perf_counter() - start)


def cmd_run(args) -> int:
    _limit_memory()
    src = os.path.join(os.path.abspath(args.tree), "src")
    sys.path.insert(0, src)
    import hkr.cli
    from hkr.groupcore import named_group
    from hkr.inertia import regular_gset

    if not os.path.abspath(hkr.cli.__file__).startswith(src + os.sep):
        sys.exit(f"hkr was imported from {hkr.cli.__file__}, not from {src}")
    sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with tempfile.TemporaryDirectory() as tmp, sink as sink:
        gset = os.path.join(tmp, "gset.json")
        with open(gset, "w", encoding="utf-8") as fh:
            json.dump(regular_gset(named_group("Sym(3)")).to_json(), fh)
        for i, argv in enumerate(_spread(corpus(), args.limit)):
            real = [gset if word == "GSET" else word for word in argv]
            cache = os.path.join(tmp, f"cache{i}")
            for mode, extra in (("no-cache", ["--no-cache"]), ("cache-miss", ["--cache", cache]),
                                ("cache-hit", ["--cache", cache])):
                line = _record(argv, mode, *_in_process(hkr.cli.run, real + extra))
                sink.write(json.dumps(line, sort_keys=True) + "\n")
        if args.probes:
            for argv in PROBES:
                sink.write(json.dumps(_probe(src, argv.split()), sort_keys=True) + "\n")
    return 0


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {(" ".join(r["argv"]), r["mode"]): (r["exit"], r["stdout_sha256"], r["stderr"]) for r in rows}


def _command(call: str) -> str:
    words = call.split()
    return " ".join(words[:2]) if words[0] == "fix" else words[0]


def cmd_compare(args) -> int:
    a, b = _load(args.a), _load(args.b)
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            differ += 1
            print(f"differs: {key[0]} [{key[1]}]\n  A: {a.get(key)}\n  B: {b.get(key)}")
    for command in sorted({_command(call) for call, _ in a.keys() | b.keys()}):
        digests = []
        for side in (a, b):
            h = hashlib.sha256()
            for key in sorted(k for k in side if _command(k[0]) == command):
                h.update(json.dumps([key, side[key]]).encode("utf-8"))
            digests.append(h.hexdigest()[:16])
        print(f"{command:18} {digests[0]} {digests[1]} {'same' if digests[0] == digests[1] else 'DIFFERS'}")
    print(f"{len(a)} and {len(b)} runs, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="samebytes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run the corpus on a source tree")
    run.add_argument("tree")
    run.add_argument("--out", help="JSON lines file (default: stdout)")
    run.add_argument("--limit", type=int, help="keep this many calls, spread over the corpus")
    run.add_argument("--probes", action="store_true", help="add the slow calls, each in a child process")
    compare = sub.add_parser("compare", help="compare two runs")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
