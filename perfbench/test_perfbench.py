"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q

Reduced sizes only (``small=True``); the full workloads run through
``run.py``.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_small_run_of_every_workload_prints_every_metric_with_its_unit():
    done = run_bench("--workload", "all", "--small", "--seconds", "0", "--no-history")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for workload in bench.WORKLOADS:
        start = lines.index(
            next(line for line in lines if line.startswith(f"== {workload}:"))
        )
        block = lines[start + 1 : start + 1 + 40]
        for metric, (unit, _simulated) in bench.END_TO_END.items():
            assert any(
                line.split()[:1] == [metric] and line.split()[2] == unit
                for line in block
            ), f"{workload} does not print {metric} in {unit}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for workload in bench.WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    done = run_bench(
        "--workload", "flash_crowd", "--small", "--seconds", "0", "--trace", "1",
        "--no-history",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0


def test_benchmark_json_matches_the_benchmark():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == list(bench.RESULT_METRICS)
    for metric in BENCHMARK["end_to_end"]:
        assert bench.END_TO_END[metric["name"]][0] == metric["unit"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(bench.WORKLOADS)
    predictions = json.loads((HERE / "predictions.json").read_text())
    predicted = {
        metric for layer in predictions["layers"].values() for metric in layer["metrics"]
    }
    assert {m["name"] for m in BENCHMARK["per_layer"]} == predicted
    assert set(predictions["workloads"]) == set(bench.WORKLOADS)


def test_corrupted_count_is_caught():
    clean = workloads.drain_wide_keys(3, small=True)
    assert clean.checks_failed == 0
    assert clean.checks_attempted > 1000

    def corrupt(counts):
        key = next(iter(counts))
        counts[key] += 1

    run = workloads.drain_wide_keys(3, small=True, corrupt=corrupt)
    assert run.checks_failed == 1
    assert run.checks_attempted == clean.checks_attempted


def test_layer_self_times_sum_within_traced_wall_and_wrappers_restore():
    from repro.engine import instance, partitioning
    from repro.sim.kernel import Simulator

    step = Simulator.__dict__["step"]
    key_group_of = partitioning.key_group_of
    tracer = layers.LayerTracer(raw_span_limit=1000)
    with tracer:
        run = workloads.drain_wide_keys(5, small=True, pause=tracer.paused)
        assert instance.key_group_of is not key_group_of  # every binding
    assert Simulator.__dict__["step"] is step
    assert partitioning.key_group_of is key_group_of
    assert instance.key_group_of is key_group_of
    self_s = tracer.self_seconds()
    assert 0 < sum(self_s.values()) <= tracer.wall
    assert tracer.truncated and len(tracer.spans) == 1000
    metrics = layers.layer_metrics(tracer, run.objects, run.records, None, None)
    assert metrics["other.self_s"] >= 0
    assert metrics["engine.partitioning.key_groups_per_record"] == 3.0
    assert metrics["engine.operators.records_in"] == 2 * run.records


def test_missing_counter_attribute_reads_na(monkeypatch):
    from repro.common import rng

    class Bare:
        pass

    tracer = layers.LayerTracer()
    tracer.wall = 1.0
    tracer.missing.add("storage.kvs.owns")
    objects = {
        "sims": [Bare()],
        "fabrics": [Bare()],
        "generators": [Bare()],
        "replicators": [Bare()],
        "reports": [Bare()],
    }
    metrics = layers.layer_metrics(tracer, objects, 10, None, None)
    for name in (
        "sim.kernel.events",
        "engine.channels.dropped",
        "nexmark.records",
        "core.replication.bytes",
        "core.handover.precopy_bytes",
        "storage.kvs.owns_per_record",
        "common.hash_cache_hit_ratio",
    ):
        assert metrics[name] is None, name
    assert bench.format_value(None) == "n/a"
    monkeypatch.delattr(rng, "_stable_hash_cached")
    assert layers.hash_cache_info() is None


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "history.jsonl", "traces"
    ))
    done = run_bench("--workload", "drain_wide_keys", "--seed", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
