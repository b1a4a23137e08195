"""Run one chunk of a workload's operation list in a fresh interpreter.

Started by run.py once per chunk, so hkr's module-level caches start empty,
as they do for a user's one-shot call.  One client issues one operation at a
time.  Prints one JSON report as the last line of standard output.

    python3 perfbench/worker.py --workload tables --seed 1 --chunk 0 --trace 0
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from reference import time_reference

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "cli_child.py"
SCHEMAS = ROOT / "docs" / "schemas"

# seconds of operations between two timings of the reference computation
REFERENCE_EVERY_S = 0.25

def run_ops(ops, tracer=None, op_records=None, reference_every_s=None):
    """Run ops in order, one at a time.

    Returns (latencies, failures, digest, reference times).  Only op.answer()
    is timed, after garbage is collected and the survivors frozen, so that
    its collections scan only what it allocates.  An op fails when it
    raises, when its independent route disagrees, or when its result cannot
    be rendered; the loop always goes on to the next op.  With reference_every_s, the reference computation is
    timed after every that many seconds of operations and after the last one.
    """
    latencies, failures, references = [], [], []
    digest = hashlib.sha256()
    since_reference = 0.0
    for op in ops:
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        try:
            if tracer is None:
                value = op.answer()
                duration = time.perf_counter() - start
            else:
                value, duration, layers = tracer.op(op.answer)
                if op_records is not None:
                    op_records.append({"op": op.label, "duration_s": duration, "self_s": layers})
        except Exception as exc:  # a failing op is counted, never fatal
            duration = time.perf_counter() - start
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            # comparing the routes and rendering are the benchmark's own work
            try:
                problem = op.check(value)
                if problem is None:
                    digest.update(op.render(value).encode())
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append((op.label, problem))
            digest.update(f"FAILED {op.label}".encode())
        digest.update(b"\n")
        latencies.append(duration)
        since_reference += duration
        if reference_every_s is not None and since_reference >= reference_every_s:
            references.append(time_reference())
            since_reference = 0.0
    if reference_every_s is not None and (since_reference or not references):
        references.append(time_reference())
    return latencies, failures, digest.hexdigest(), references


def trace_residual(op_records) -> float:
    """Largest |sum of self times (layers + benchmark) - duration| over ops."""
    return max((abs(sum(r["self_s"].values()) - r["duration_s"]) for r in op_records), default=0.0)


# ---------------------------------------------------------------------------
# cli client


class CliOp:
    """One hkr invocation in a fresh interpreter against the chunk's cache."""

    def __init__(self, query, cache_dir, trace_dir, first_outputs):
        self.query = query
        self.label = " ".join(query.argv)
        self.cache_dir = cache_dir
        self.trace_dir = trace_dir
        self.first_outputs = first_outputs
        self.hit = False
        self.stdout_bytes = 0
        self.maxrss_mb = 0.0
        self.child_report = None

    def answer(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        report = None
        if self.trace_dir is not None:
            fd, report = tempfile.mkstemp(dir=self.trace_dir, suffix=".json")
            os.close(fd)
            env["PERFBENCH_CHILD_REPORT"] = report
        before = _entry_count(self.cache_dir)
        launched = time.monotonic()
        proc = _run_measured([sys.executable, str(CHILD), *self.query.argv, "--cache", str(self.cache_dir)],
                             env, self.cache_dir.parent)
        self.hit = proc.returncode == 0 and _entry_count(self.cache_dir) == before
        self.stdout_bytes = len(proc.stdout)
        self.maxrss_mb = proc.maxrss_mb
        if report is not None:
            self.child_report = json.loads(Path(report).read_text() or "null")
            if self.child_report is not None:
                self.child_report["startup_s"] = self.child_report["imported_at"] - launched
        return proc

    def check(self, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[:200]}"
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return "stdout is not JSON"
        errors = sorted(_validator(self.query.argv[0]).iter_errors(doc), key=str)
        if errors:
            return f"schema: {errors[0].message[:200]}"
        argv = self.query.argv
        if self.query.repeat:
            if proc.stdout != self.first_outputs[argv]:
                return "repeated query is not byte-identical to its first computation"
        else:
            self.first_outputs[argv] = proc.stdout
        if self.hit != self.query.repeat:
            return "cache hit" if self.hit else "repeated query missed the cache"
        return None

    def render(self, proc):
        return proc.stdout.decode()


def _run_measured(cmd, env, scratch: Path, timeout: float = 120):
    """Run cmd to completion; return a CompletedProcess that also carries the
    child's own peak RSS, read with wait4 before anything else reaps it."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read())
    done.maxrss_mb = usage.ru_maxrss / 1024
    return done


def _entry_count(cache_dir: Path) -> int:
    return sum(1 for p in cache_dir.rglob("*") if p.is_file()) if cache_dir.exists() else 0


@functools.cache
def _validator(command):
    # loaded on first use, after the first operation, so not part of set-up
    import jsonschema

    schema = json.loads((SCHEMAS / f"{command}.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def run_cli_chunk(queries, scratch: Path, trace: bool, spans_out: Path | None) -> dict:
    cache_dir = scratch / "cache"
    trace_dir = scratch / "child-reports" if trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    first_outputs = {}
    ops = [CliOp(q, cache_dir, trace_dir, first_outputs) for q in queries]
    first_op_at = time.monotonic()
    latencies, failures, digest, references = run_ops(ops, reference_every_s=REFERENCE_EVERY_S)
    report = {
        "first_op_at": first_op_at,
        "latencies": latencies,
        "failures": failures,
        "digest": digest,
        "references": references,
        # peak RSS of each hkr child; run.py reports the median
        "maxrss_mb": [op.maxrss_mb for op in ops],
        "hits": [op.hit for op in ops],
        "repeats": [q.repeat for q in queries],
        "stdout_bytes": sum(op.stdout_bytes for op in ops),
    }
    if trace:
        children = [op.child_report for op in ops if op.child_report is not None]
        layers: dict = {}
        for child in children:
            for name, value in child["layers"].items():
                layers[name] = layers.get(name, 0) + value
        report["layers"] = layers
        report["startup_s"] = [child["startup_s"] for child in children]
        report["op_records"] = [
            {"op": op.label, "duration_s": lat, "child_duration_s": op.child_report["duration_s"],
             "self_s": op.child_report["self_s"]}
            for op, lat in zip(ops, latencies) if op.child_report is not None
        ]
        report["trace_residual_s"] = trace_residual(
            [{"duration_s": r["child_duration_s"], "self_s": r["self_s"]} for r in report["op_records"]])
        if spans_out is not None:
            _write_spans(spans_out, [{"op": op.label, "spans": op.child_report["spans"]}
                                     for op in ops if op.child_report is not None], 0)
    return report


def _write_spans(path: Path, spans, dropped: int) -> None:
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                "spans": spans, "dropped_spans": dropped}))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunk", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace and args.workload != "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    if args.workload == "cli":
        queries = workloads.cli_chunks(args.seed)[args.chunk]
        report = run_cli_chunk(queries, args.scratch, bool(args.trace), args.spans_out)
    else:
        every = workloads.LIBRARY_OPS[args.workload](args.seed)
        ops = workloads.chunk(every, args.chunk, workloads.CHUNKS[args.workload])
        op_records = [] if tracer is not None else None
        first_op_at = time.monotonic()
        latencies, failures, digest, references = run_ops(
            ops, tracer, op_records, reference_every_s=REFERENCE_EVERY_S)
        report = {
            "first_op_at": first_op_at,
            "latencies": latencies,
            "failures": failures,
            "digest": digest,
            "references": references,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            report["layers"] = tracer.layer_metrics()
            report["op_records"] = op_records
            report["trace_residual_s"] = trace_residual(op_records)
            if args.spans_out is not None:
                _write_spans(args.spans_out, tracer.spans, tracer.dropped_spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
