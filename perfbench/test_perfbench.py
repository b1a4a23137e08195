"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_ops  # noqa: E402

SEED = 7


def _first_ops(workload, kinds, count):
    ops = workloads.LIBRARY_OPS[workload](SEED)
    return [op for op in ops if op.label.split()[0] in kinds][:count]


def test_injected_wrong_answer_is_counted_and_the_run_goes_on():
    ops = _first_ops("power-ops", ("characters", "psi_level"), 4)
    assert len(ops) == 4
    victim = ops[2]
    right = victim.answer

    def wrong():
        # the route under test answers chi for psi^(p^k)(chi)
        level, adams = right()
        return level, adams + level

    victim.answer = wrong
    latencies, failures, _, _ = run_ops(ops)
    assert len(latencies) == 4
    assert [label for label, _ in failures] == [victim.label]


def test_raising_operation_is_counted_and_the_run_goes_on():
    ops = _first_ops("power-ops", ("characters", "psi_level"), 3)

    def boom():
        raise ArithmeticError("injected")

    ops[0].answer = boom
    latencies, failures, _, _ = run_ops(ops)
    assert len(latencies) == 3
    assert failures == [(ops[0].label, "raised ArithmeticError: injected")]


def test_seed_fixes_the_inputs():
    for workload in workloads.LIBRARY_OPS:
        first = [op.label for op in workloads.LIBRARY_OPS[workload](SEED)]
        again = [op.label for op in workloads.LIBRARY_OPS[workload](SEED)]
        other = [op.label for op in workloads.LIBRARY_OPS[workload](SEED + 1)]
        assert first == again and first != other
        assert len(first) >= 100
    assert workloads.cli_chunks(SEED) == workloads.cli_chunks(SEED)


def test_deal_gives_every_chunk_a_like_share_of_the_largest():
    items = list(range(32))
    dealt = workloads.deal(items, 8, lambda x: x, random.Random(0))
    hands = [workloads.chunk(dealt, i, 8) for i in range(8)]
    assert sorted(dealt) == items
    assert {max(hand) for hand in hands} == set(range(24, 32))
    assert {sum(hand) for hand in hands} == {62}
    with pytest.raises(ValueError):
        workloads.deal(items[:30], 8, lambda x: x, random.Random(0))


def test_cli_repeat_share_is_fixed():
    for seed in range(5):
        queries = [q for chunk in workloads.cli_chunks(seed) for q in chunk]
        assert len(queries) >= 100
        assert sum(q.repeat for q in queries) == workloads.CLI_REPEATS * workloads.CHUNKS["cli"]
        assert {q.argv[0] for q in queries} >= set(workloads.CLI_COMMANDS)


def test_group_descriptions_match_hkr():
    from hkr import groupcore

    for g in workloads.named_suite(60):
        G = groupcore.named_group(g.name)
        assert (G.order, G.is_abelian(), G.exponent()) == (g.order, g.abelian, g.exponent)
        assert len(groupcore.conjugacy_classes(G)) == g.classes


def test_traced_self_times_add_up_to_each_duration():
    tracer = Tracer()
    tracer.install()
    ops = _first_ops("power-ops", ("characters", "psi_level", "total_power"), 6)
    ops += _first_ops("tables", ("table",), 2)
    records = []
    _, failures, _, _ = run_ops(ops, tracer, records)
    assert failures == []
    for record in records:
        assert sum(record["self_s"].values()) == pytest.approx(record["duration_s"], abs=1e-6)
        assert record["self_s"]["bench"] >= 0
    metrics = tracer.layer_metrics()
    assert metrics["charmap.power_op_s"] > 0
    assert metrics["rings.cyclo_mul.calls"] > 0
    assert metrics["charmap.tables.dixon"] + metrics["charmap.tables.abelian"] > 0
    assert metrics["groupcore.make_group.calls"] > 0


def test_run_without_sources_fails_cleanly(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_benchmark_file_matches_the_metrics_run_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
