"""The same-bytes harness in tools/ runs a slice of its corpus and compares runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from hkr.cli import run

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "samebytes.py"


def test_samebytes_runs_a_slice_of_its_corpus(tmp_path):
    out = tmp_path / "run.jsonl"
    done = subprocess.run([sys.executable, str(TOOL), "run", str(ROOT), "--limit", "30", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    calls = {" ".join(r["argv"]) for r in rows}
    assert len(rows) == 90 and len(calls) == 30
    assert {r["argv"][0] for r in rows} == {"rank", "tuples", "gl-orbits", "fix"}
    assert {r["exit"] for r in rows} <= {0, 1, 2}
    # the cache is transparent: a miss and a hit replay the uncached run
    outcome = {}
    for r in rows:
        outcome.setdefault(" ".join(r["argv"]), set()).add((r["exit"], r["stdout_sha256"], r["stderr"]))
    assert all(len(seen) == 1 for seen in outcome.values())

    done = subprocess.run([sys.executable, str(TOOL), "compare", str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.endswith("90 and 90 runs, 0 differ\n")


def test_samebytes_probe_runs_in_a_child_process():
    spec = importlib.util.spec_from_file_location("samebytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = "rank --group Sym(3) --p 5 --n 1000000000"
    assert argv in tool.PROBES
    row = tool._probe(str(ROOT / "src"), argv.split())
    assert row["mode"] == "probe" and row["exit"] == 0 and row["stderr"] == ""
    assert row["seconds"] < tool.PROBE_TIMEOUT
    # the child prints what the same call prints in this process
    code, out, err, _ = tool._in_process(run, [*argv.split(), "--no-cache"])
    assert row == {**tool._record(argv.split(), "probe", code, out, err, 0), "seconds": row["seconds"]}
