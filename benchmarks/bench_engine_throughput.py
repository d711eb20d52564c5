"""Engine data-plane throughput: records drained per wall second.

Drives the smoke topology (2 sources -> stateful counter (p=2) -> sink)
over a preloaded log and measures wall-clock to drain it.  The run must
reproduce a reference computed from the input: every record processed
once, each key's final count equal to its number of input records, and
one sink row per record.

``events_per_record`` -- simulation-kernel events per drained record --
is deterministic and host-independent: the data plane moves
:class:`RecordBatch` elements, so it stays well below one, while one
fabric element per record would cost ~13 events per record.  CI's
perf-smoke step gates on it with ``--max-events-per-record``.

Run standalone (CI perf-smoke uses ``--ci`` with an events ceiling):

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--ci]

Results land in ``BENCH_engine.json`` at the repo root:
``{records, wall_seconds, records_per_sec, events, events_per_record}``.
"""

import argparse
import collections
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":  # allow running without PYTHONPATH set
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import Cluster  # noqa: E402
from repro.engine.graph import StreamGraph  # noqa: E402
from repro.engine.job import Job, JobConfig  # noqa: E402
from repro.engine.operators import StatefulCounterLogic  # noqa: E402
from repro.engine.records import Record  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.storage.log import DurableLog  # noqa: E402

#: Distinct keys per source partition (disjoint ranges across partitions).
KEYS_PER_PARTITION = 64


def run_drain(records_per_partition):
    """Drain the smoke topology; returns measured facts and the reference."""
    sim = Simulator()
    cluster = Cluster(sim)
    machines = cluster.add_machines(
        2,
        prefix="w",
        cores=8,
        nic_bandwidth=1e9,
        disks=2,
        disk_read_bandwidth=400e6,
        disk_write_bandwidth=280e6,
        disk_capacity=512 * 1024**3,
        network_latency=0.0005,
    )
    log = DurableLog(sim, scheduler=cluster.scheduler)
    log.create_topic("events", 2)
    expected_counts = collections.Counter()
    for partition in range(2):
        batch = [
            Record((partition, i % KEYS_PER_PARTITION), i * 1e-4, value=i, nbytes=32)
            for i in range(records_per_partition)
        ]
        expected_counts.update(record.key for record in batch)
        log.append_batch("events", partition, batch)

    graph = StreamGraph("engine-throughput")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, 2, inputs=[("src", "hash")], stateful=True
    )
    graph.sink("out", inputs=[("count", "forward")], keep=100)
    config = JobConfig(
        num_key_groups=64,
        checkpoint_interval=None,
        exchange_interval=0.05,
        watermark_interval=0.5,
        source_idle_timeout=0.1,
    )
    job = Job(sim, cluster, graph, log, machines, config=config).start()

    total = 2 * records_per_partition
    start = time.perf_counter()
    deadline = records_per_partition  # simulated-seconds safety net
    while sum(s.cursor.offset for s in job.source_instances()) < total:
        sim.run(until=sim.now + 5.0)
        if sim.now > deadline:
            raise AssertionError(f"log not drained by t={sim.now}")
    # Let in-flight batches settle so the run does the complete work.
    while job.fabric.pending_elements > 0 or (
        sum(i.records_processed for i in job.stateful_instances("count")) < total
    ):
        sim.run(until=sim.now + 1.0)
        if sim.now > 2 * deadline:
            raise AssertionError("pipeline not drained")
    wall = time.perf_counter() - start

    counts = {}
    for instance in job.stateful_instances("count"):
        for _group, key, value in instance.state.store.extract_groups(0, 64):
            counts[key] = value
    processed = sum(i.records_processed for i in job.stateful_instances("count"))
    return {
        "wall_seconds": wall,
        "records": processed,
        "events": sim.events_processed,
        "counts": counts,
        "sink_total": sum(
            i.logic.result_count for i in job.operator_instances("out")
        ),
        "expected_counts": dict(expected_counts),
        "expected_total": total,
    }


def run_bench(records_per_partition, max_events_per_record=None):
    drained = run_drain(records_per_partition)
    total = drained["expected_total"]
    # The counter emits one row per record it counts.
    for key, expected in (
        ("records", total),
        ("sink_total", total),
        ("counts", drained["expected_counts"]),
    ):
        if drained[key] != expected:
            raise AssertionError(
                f"{key} differs from the input reference: "
                f"got {drained[key]!r}, expected {expected!r}"
            )
    result = {
        "records": drained["records"],
        "wall_seconds": round(drained["wall_seconds"], 3),
        "records_per_sec": round(drained["records"] / drained["wall_seconds"]),
        "events": drained["events"],
        "events_per_record": round(drained["events"] / drained["records"], 3),
    }
    if (
        max_events_per_record is not None
        and result["events_per_record"] > max_events_per_record
    ):
        raise AssertionError(
            f"{result['events_per_record']} kernel events per record exceeds "
            f"the {max_events_per_record} ceiling"
        )
    return result


def test_engine_throughput(benchmark):
    """pytest entry: reduced-scale run, reference-count assertions only.

    Nothing wall-clock is asserted here -- shared test runners are too
    noisy; the perf-smoke CI job owns the events and wall ceilings.
    """
    from benchmarks.conftest import emit_report, run_once

    result = run_once(benchmark, run_bench, 5_000)
    emit_report(
        "engine_throughput",
        "\n".join(
            f"{key}: {value}"
            for key, value in sorted(result.items())
        ),
    )
    assert result["records"] == 10_000


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records-per-partition", type=int, default=100_000)
    parser.add_argument(
        "--ci",
        action="store_true",
        help="reduced scale for the perf-smoke job (20k records/partition)",
    )
    parser.add_argument(
        "--max-events-per-record",
        type=float,
        default=None,
        help="fail if simulation events per drained record exceed this",
    )
    parser.add_argument(
        "--max-wall",
        type=float,
        default=None,
        help="fail if the drain exceeds this many wall seconds",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="write the JSON result here (default: BENCH_engine.json, full scale only)",
    )
    args = parser.parse_args(argv)
    if args.ci:
        args.records_per_partition = 20_000
    result = run_bench(
        args.records_per_partition,
        max_events_per_record=args.max_events_per_record,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    output = args.output
    if output is None and not args.ci:
        output = REPO_ROOT / "BENCH_engine.json"
    if output is not None:
        output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"[written to {output}]")
    if args.max_wall is not None and result["wall_seconds"] > args.max_wall:
        print(
            f"FAIL: drain wall {result['wall_seconds']}s "
            f"exceeds ceiling {args.max_wall}s"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
