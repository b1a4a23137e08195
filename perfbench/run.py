"""hkr benchmark: one seeded workload, every answer checked, metrics as JSON.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/hkr` and `docs/schemas`.
The workload's operation list comes from the seed and is split into chunks;
each chunk runs in a fresh interpreter (perfbench/worker.py), so hkr's
caches start empty.  With --trace 0 the chunks are run in turn, each at
least once, until --seconds have passed; each chunk's figures are the median
of its runs.  With --trace 1 every chunk runs once untraced and once with the
span tracer installed, and the per-layer metrics come from the traced run.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CHUNKS, WORKLOADS  # noqa: E402

DEADLINE_S = 170  # a run ends within three minutes even if a chunk hangs
TRACE_TOLERANCE_S = 1e-6  # allowed |sum of self times - duration| per traced op

E2E_UNITS = {
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "charmap.table_dixon_s": "s",
    "charmap.tables.dixon": "count",
    "charmap.table_abelian_s": "s",
    "charmap.tables.abelian": "count",
    "charmap.orthogonality_s": "s",
    "charmap.power_op_s": "s",
    "charmap.self_s": "s",
    "rings.self_s": "s",
    "rings.cyclo_mul.calls": "count",
    "rings.cyclo_mul_s": "s",
    "rings.linalg_s": "s",
    "groupcore.self_s": "s",
    "groupcore.classes_s": "s",
    "groupcore.make_group.calls": "count",
    "groupcore.closure_elements": "count",
    "commuting.self_s": "s",
    "commuting.subgroup_count_s": "s",
    "commuting.tuple_classes_s": "s",
    "commuting.hom_tuples.tuples": "count",
    "inertia.self_s": "s",
    "inertia.gl_on_fix_s": "s",
    "inertia.fix_n.points": "count",
    "fgl.self_s": "s",
    "fgl.make_fgl_s": "s",
    "fgl.substitute.calls": "count",
    "fgl.substitute_s": "s",
    "fgl.series_mul.calls": "count",
    "levelrings.self_s": "s",
    "levelrings.galois_fixed_dimension_s": "s",
    "cli.self_s": "s",
    "cli.startup_ms": "ms",
    "cli.miss_p50_ms": "ms",
    "cli.hit_p50_ms": "ms",
    "cli.cache_hit_frac": "ratio",
    "cli.stdout_bytes": "bytes",
    "bench.self_s": "s",
    "trace_overhead": "ratio",
}


class ChunkFailed(Exception):
    pass


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def run_chunk(args, index: int, trace: bool, scratch: Path, out_dir: Path, started: float) -> dict:
    """Run one chunk in a fresh worker process and return its report."""
    work = scratch / f"chunk{index}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--chunk", str(index), "--trace", str(int(trace)),
           "--scratch", str(work)]
    if trace:
        cmd += ["--spans-out", str(out_dir / f"chunk{index}.spans.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChunkFailed(f"chunk {index} did not finish within {timeout:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise ChunkFailed(f"chunk {index} exited {proc.returncode}: {' | '.join(tail)}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["first_op_at"] - launched
    return report


def summarize(runs: dict[int, list[dict]]) -> dict:
    """End-to-end metrics from the untraced chunk runs.

    An operation's cost in ref units is its time divided by the median time
    of the reference computation in the same chunk run (see reference.py).
    Each operation counts at its cheapest cold run: the work is
    deterministic, and a dearer run measures the machine's other tenants.
    Set-up time is the median over all chunk runs.  Peak RSS is, for cli,
    the median over all hkr child processes; for a library workload, the
    mean over chunks of each chunk worker's median peak RSS: a chunk's peak
    is set by the largest tables it holds, and the mean over all chunks
    weighs each of them, where a median would rest on one or two chunks.
    """
    cost, seconds, setups, children, chunk_rss = [], [], [], [], []
    for index in sorted(runs):
        reports = runs[index]
        scaled = [[lat / statistics.median(r["references"]) for lat in r["latencies"]] for r in reports]
        cost += [min(samples) for samples in zip(*scaled)]
        seconds += [min(samples) for samples in zip(*(r["latencies"] for r in reports))]
        setups += [r["setup_s"] for r in reports]
        if isinstance(reports[0]["maxrss_mb"], list):
            children += [mb for r in reports for mb in r["maxrss_mb"]]
        else:
            chunk_rss.append(statistics.median(r["maxrss_mb"] for r in reports))
    return {
        "wall_ref": sum(cost),
        "op_p50_ref": statistics.median(cost),
        "op_p90_ref": p90(cost),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(children) if children else statistics.fmean(chunk_rss),
        "_ops": len(cost),
        "_runs": len(setups),
        "_max_rss": max(children or chunk_rss),
        "_seconds": (sum(seconds), statistics.median(seconds) * 1000, p90(seconds) * 1000),
        "_reference_ms": statistics.median(t for reports in runs.values() for r in reports
                                           for t in r["references"]) * 1000,
    }


def layer_metrics(untraced: dict[int, list[dict]], traced: dict[int, dict]) -> dict:
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in LAYER_UNITS.items()}
    for report in traced.values():
        for name, value in report["layers"].items():
            if name in metrics:
                metrics[name] += value
    plain = sum(sum(runs[0]["latencies"]) for runs in untraced.values())
    metrics["trace_overhead"] = sum(sum(r["latencies"]) for r in traced.values()) / plain
    if "hits" in next(iter(traced.values())):
        hits, misses, total, stdout_bytes = [], [], 0, 0
        for runs in untraced.values():
            r = runs[0]
            total += len(r["hits"])
            stdout_bytes += r["stdout_bytes"]
            for hit, lat in zip(r["hits"], r["latencies"]):
                (hits if hit else misses).append(lat)
        startup = [s for r in traced.values() for s in r["startup_s"]]
        metrics["cli.startup_ms"] = statistics.median(startup) * 1000
        metrics["cli.miss_p50_ms"] = statistics.median(misses) * 1000
        metrics["cli.hit_p50_ms"] = statistics.median(hits) * 1000 if hits else 0.0
        metrics["cli.cache_hit_frac"] = len(hits) / total
        metrics["cli.stdout_bytes"] = stdout_bytes
    return metrics


def verify(runs: dict[int, list[dict]], problems: list[str]) -> None:
    """Cross-run checks: repeated chunks render identically, and in the cli
    workload the cache answers exactly the generated repeats."""
    for index, reports in sorted(runs.items()):
        if len({r["digest"] for r in reports}) != 1:
            problems.append(f"chunk {index}: repeated runs rendered different results")
        for r in reports:
            if "hits" in r and r["hits"] != r["repeats"]:
                problems.append(f"chunk {index}: cache hits differ from the generated repeats")
            if r.get("trace_residual_s", 0.0) > TRACE_TOLERANCE_S:
                problems.append(f"chunk {index}: layer self times do not add up to op durations "
                                f"(off by {r['trace_residual_s']:.3g} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "hkr" / "cli.py").is_file() or not (ROOT / "docs" / "schemas").is_dir():
        print(f"error: {ROOT} does not hold the hkr sources (src/hkr, docs/schemas)", file=sys.stderr)
        return 2
    # compile once up front so that no chunk pays for byte-compiling hkr
    compileall.compile_dir(ROOT / "src", quiet=1)
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        out_dir.mkdir(parents=True, exist_ok=True)
    chunks = CHUNKS[args.workload]
    untraced: dict[int, list[dict]] = {i: [] for i in range(chunks)}
    traced: dict[int, dict] = {}
    problems: list[str] = []
    attempted = failed = 0

    def account(report):
        nonlocal attempted, failed
        attempted += len(report["latencies"])
        failed += len(report["failures"])
        problems.extend(f"{label}: {why}" for label, why in report["failures"])

    try:
        schedule = [(i, False) for i in range(chunks)]
        if args.trace:
            schedule += [(i, True) for i in range(chunks)]
        step = 0
        while True:
            if step < len(schedule):
                index, trace = schedule[step]
            elif not args.trace and time.monotonic() - started < args.seconds:
                index, trace = step % chunks, False
            else:
                break
            step += 1
            report = run_chunk(args, index, trace, scratch, out_dir, started)
            account(report)
            if trace:
                traced[index] = report
            else:
                untraced[index].append(report)
    except ChunkFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    verify(untraced, problems)
    verify({i: [r] for i, r in traced.items()}, problems)
    e2e = summarize(untraced)
    digest = hashlib.sha256("".join(untraced[i][0]["digest"] for i in range(chunks)).encode()).hexdigest()

    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed}: {e2e['_ops']} operations in {chunks} chunks, "
          f"{e2e['_runs']} chunk runs, python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"largest process peak RSS {e2e['_max_rss']:.1f} MB")
    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} attempted)")
    print(f"digest {digest}")
    wall, p50, p90_ms = e2e["_seconds"]
    print(f"in seconds: wall_s {wall:.4f} s, op_p50_ms {p50:.4f} ms, op_p90_ms {p90_ms:.4f} ms; "
          f"one ref (median reference time) {e2e['_reference_ms']:.3f} ms")
    print(f"op_p50 and op_p90 are percentiles of {e2e['_ops']} operations, each at its cheapest cold run")

    if args.trace:
        metrics = layer_metrics(untraced, traced)
        units = LAYER_UNITS
        (out_dir / "ops.json").write_text(json.dumps(
            [rec for i in sorted(traced) for rec in traced[i]["op_records"]]))
        print("per-layer self time counts unwrapped helpers (such as Permutation.__mul__) "
              "as the calling layer's time; bench.self_s is the benchmark's own time")
        print(f"spans and per-operation self times: {out_dir.relative_to(ROOT)}")
    else:
        metrics = {k: v for k, v in e2e.items() if not k.startswith("_")}
        units = E2E_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
