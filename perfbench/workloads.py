"""The benchmark's workloads, run through the program's public API.

Each workload function takes the workload seed and a ``small`` flag (the
reduced size the self-tests use) and returns a :class:`Run`: wall and CPU
time of the timed phase, time spent in the public set-up calls, the
simulated latency figures, the correctness checks attempted and failed,
and the objects the traced run reads its per-layer counters from.

Path-selecting options (``data_plane``, ``pipelined_handover``,
``control_replicas``, failover/control-group switches,
``handover_chunk_bytes``) are never set here: every workload measures
whichever path is the program's default.  Scenario dicts live in this
file, not in ``examples/``, so an edit to an example cannot change what
the benchmark measures.
"""

import collections
import contextlib
import random
import time

from repro.cluster import Cluster
from repro.engine.graph import StreamGraph
from repro.engine.job import Job, JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.records import Record
from repro.experiments.harness import SutHandle, Testbed
from repro.experiments.runner import run_scenario
from repro.sim import Simulator
from repro.storage.log import DurableLog

#: Latency samples after a reconfiguration completes that still count
#: towards its stall window (seconds).
STALL_TAIL = 5.0

#: Fewest latency samples the pooled stall windows of a workload with
#: reconfigurations must hold.
MIN_STALL_SAMPLES = 1000


class Run:
    """Measured facts of one workload run."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.setup_s = 0.0
        self.records = 0
        self.latency_p50_s = None
        self.latency_p99_s = None
        self.stall_p99_s = None
        self.stall_samples = 0
        #: kind -> slowest trigger-to-done seconds of that kind.
        self.reconfig_s = {}
        #: Repeats the workload's set-up; returns its seconds.
        self.setup_again = None
        #: check name -> None (passed) or failure message.
        self.checks = {}
        #: Objects the per-layer counters read.
        self.objects = {
            "sims": [],
            "fabrics": [],
            "generators": [],
            "replicators": [],
            "reports": [],
        }

    def check(self, name, ok, message=""):
        self.checks[name] = None if ok else (message or "failed")

    @property
    def checks_attempted(self):
        return len(self.checks)

    @property
    def checks_failed(self):
        return sum(1 for message in self.checks.values() if message is not None)


class SetupClock:
    """Accumulates wall and CPU time spent inside the public set-up calls."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self._depth = 0
        self._patches = []

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its time counted as set-up (nested calls
        are counted once)."""
        if self._depth:
            return fn(*args, **kwargs)
        self._depth += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu
            self._depth -= 1

    def patch(self, owner, attribute, on_result=None):
        """Time every call of ``owner.attribute`` until :meth:`restore`."""
        original = owner.__dict__[attribute]
        clock = self

        def timed(*args, **kwargs):
            result = clock.call(original, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, timed)

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def setup_seconds(setup, *args):
    """Seconds ``setup(clock, *args)`` spends in the public set-up calls
    (a further sample of a workload's set-up time)."""
    clock = SetupClock()
    setup(clock, *args)
    return clock.wall


# -- drain_wide_keys ----------------------------------------------------------

#: Hot keys drawn with probability HOT_FRACTION; the rest are uniform over
#: a key space far larger than the ``stable_hash`` LRU (65,536 entries).
HOT_KEYS = 1024
HOT_FRACTION = 0.3
COLD_KEY_SPACE = 4_000_000


def wide_key_inputs(seed, records_per_partition, partitions=2):
    """Skewed keys, per partition; timestamps are all ~0 (a batch job)."""
    rng = random.Random(seed)
    inputs = []
    for _partition in range(partitions):
        records = []
        for i in range(records_per_partition):
            if rng.random() < HOT_FRACTION:
                key = rng.randrange(HOT_KEYS)
            else:
                key = HOT_KEYS + rng.randrange(COLD_KEY_SPACE)
            records.append(Record(key, i * 1e-9, value=1, nbytes=32))
        inputs.append(records)
    return inputs


def drain_counts(job, num_key_groups):
    """key -> count, read from the counter instances' LSM stores."""
    counts = {}
    for instance in job.stateful_instances("count"):
        for _group, key, value in instance.state.store.extract_groups(
            0, num_key_groups
        ):
            counts[key] = value
    return counts


def check_counts(run, counts, reference, sink_total, expected_total):
    """One check per reference key, one per unexpected key, one for the
    sink total."""
    for key, expected in reference.items():
        actual = counts.get(key)
        run.check(
            f"count[{key}]", actual == expected, f"key {key}: {actual} != {expected}"
        )
    for key in counts.keys() - reference.keys():
        run.check(f"count[{key}]", False, f"unexpected key {key}")
    run.check(
        "sink-total",
        sink_total == expected_total,
        f"sink saw {sink_total} records, expected {expected_total}",
    )


def drain_setup(clock, inputs):
    """The public set-up calls of ``drain_wide_keys``, timed by ``clock``:
    simulator, cluster, the log with the input appended, and the job."""
    sim = clock.call(Simulator)
    cluster = clock.call(Cluster, sim)
    machines = clock.call(
        cluster.add_machines,
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
    log = clock.call(DurableLog, sim, scheduler=cluster.scheduler)
    clock.call(log.create_topic, "events", len(inputs))
    for partition, records in enumerate(inputs):
        clock.call(log.append_batch, "events", partition, records)
    graph = StreamGraph("drain-wide-keys")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        2,
        inputs=[("src", "hash")],
        stateful=True,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("count", "forward")], keep=100)
    config = JobConfig(
        checkpoint_interval=0.5, memtable_limit=1024 * 1024, exchange_interval=0.05
    )
    job = clock.call(
        lambda: Job(sim, cluster, graph, log, machines, config=config).start()
    )
    return sim, job, config


def drain_wide_keys(seed, small=False, pause=contextlib.nullcontext, corrupt=None):
    """Batch: drain a preloaded log through source -> hash -> counter (p=2)
    -> sink, with periodic checkpoints and a 1 MB memtable.  Exchange
    rounds are 50 ms apart, so the latency percentiles resolve finer than
    one round.

    ``pause`` is entered around the benchmark's own input generation and
    read-back of the counts, so a traced run does not count them; ``corrupt`` (self-tests
    only) edits the counts read back before they are checked.
    """
    per_partition = 5_000 if small else 100_000
    with pause():
        inputs = wide_key_inputs(seed, per_partition)
        reference = collections.Counter(r.key for part in inputs for r in part)
    total = sum(len(part) for part in inputs)
    run = Run()
    clock = SetupClock()
    sim, job, config = drain_setup(clock, inputs)

    wall, cpu = time.perf_counter(), time.process_time()
    while sum(s.cursor.offset for s in job.source_instances()) < total:
        sim.run(until=sim.now + 5.0)
    while job.fabric.pending_elements > 0 or (
        sum(i.records_processed for i in job.stateful_instances("count")) < total
    ):
        sim.run(until=sim.now + 1.0)
    run.wall_s = time.perf_counter() - wall
    run.cpu_s = time.process_time() - cpu
    run.setup_s = clock.wall
    run.setup_again = lambda: setup_seconds(drain_setup, inputs)

    run.records = sum(i.records_processed for i in job.stateful_instances("count"))
    latency = job.metrics.latency
    run.latency_p50_s = latency.percentile(0.5)
    run.latency_p99_s = latency.percentile(0.99)
    with pause():
        counts = drain_counts(job, config.num_key_groups)
    if corrupt is not None:
        corrupt(counts)
    sink_total = sum(i.logic.result_count for i in job.operator_instances("out"))
    check_counts(run, counts, reference, sink_total, total)
    run.objects["sims"].append(sim)
    run.objects["fabrics"].append(job.fabric)
    return run


# -- scenario workloads -------------------------------------------------------


def flash_crowd_scenario(seed, small=False):
    """The million-user shape (NBQ8 join, Zipf and hot-set keys, 3x flash
    crowds with a drain mid-burst), lengthened to two bursts and two
    drains so one run is long enough to time."""
    if small:
        duration, bursts, drains = 40.0, [[20.0, 10.0, 3.0]], [(15.0, -1)]
    else:
        duration = 240.0
        bursts = [[40.0, 20.0, 3.0], [160.0, 20.0, 3.0]]
        drains = [(35.0, -1), (155.0, -2)]
    rate = {"kind": "flash-crowd", "base": 2_500_000.0, "bursts": bursts}
    return {
        "name": "flash_crowd",
        "sut": "rhino",
        "query": "nbq8",
        "duration": duration,
        "warmup": 10.0,
        "cooldown": 30.0,
        "seed": seed,
        "checkpoint_interval": 20.0,
        "replication_factor": 1,
        "streams": {
            "persons": {
                "rate": rate,
                "keys": {"kind": "zipf", "key_space": 1_000_000, "exponent": 1.05},
            },
            "auctions": {
                "rate": rate,
                "keys": {
                    "kind": "hot-set",
                    "base": {"kind": "zipf", "key_space": 1_000_000, "exponent": 1.1},
                    "hot_count": 64,
                    "hot_fraction": 0.5,
                    "churn_interval": 15.0,
                },
            },
        },
        "actions": [
            {"at": at, "kind": "drain", "params": {"machine": machine}}
            for at, machine in drains
        ],
    }


def large_state_scenario(seed, small=False):
    """Paper-scale state (250 GB preloaded, Figure 1's smallest point), an
    NBQ8 stream, a rebalance, then -- after it completes -- the failure of
    the last worker, with a long cooldown.  The reconfigurations do not
    overlap, so each kind's time is measured in isolation."""
    if small:
        preload, duration, cooldown, rebalance_at, failure_at = 8, 60.0, 60.0, 5.0, 30.0
    else:
        preload, duration, cooldown, rebalance_at, failure_at = 250, 200.0, 600.0, 10.0, 150.0
    return {
        "name": "large_state_reconfig",
        "sut": "rhino",
        "query": "nbq8",
        "duration": duration,
        "warmup": 10.0,
        "cooldown": cooldown,
        "seed": seed,
        "checkpoint_interval": 20.0,
        "replication_factor": 3,
        "preload_bytes": preload * 1024**3,
        "actions": [
            {"at": rebalance_at, "kind": "rebalance", "params": {}},
            {"at": failure_at, "kind": "failure", "params": {"machine": -1}},
        ],
    }


def weighted_percentile(pairs, q):
    """Weighted nearest-rank percentile of (value, weight) pairs (the
    program's own ``LatencySeries`` definition)."""
    pairs = sorted(pairs)
    if not pairs:
        return None
    threshold = q * sum(weight for _value, weight in pairs)
    cumulative = 0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= threshold:
            return value
    return pairs[-1][0]


def match_reports(actions, warmup, reports):
    """action index -> the report it triggered, matched by trigger time
    (a drain reports its reason as "rescale", so reasons do not match)."""
    matched = {}
    taken = set()
    for index, action in enumerate(actions):
        due = warmup + action["at"]
        best = None
        for position, report in enumerate(reports):
            triggered = getattr(report, "triggered_at", None)
            if position in taken or triggered is None or triggered < due - 1e-9:
                continue
            if best is None or triggered < reports[best].triggered_at:
                best = position
        if best is not None:
            taken.add(best)
            matched[index] = reports[best]
    return matched


def scenario_setup(clock, scenario):
    """The set-up calls ``run_scenario`` makes -- a probe and a sized
    ``Testbed``, ``deploy`` and the state preload -- timed by ``clock``."""
    clock.call(Testbed, seed=scenario["seed"])
    testbed = clock.call(Testbed, seed=scenario["seed"])
    handle = clock.call(
        testbed.deploy,
        scenario["sut"],
        scenario["query"],
        checkpoint_interval=scenario["checkpoint_interval"],
        replication_factor=scenario["replication_factor"],
    )
    if scenario.get("preload_bytes"):
        clock.call(handle.preload, scenario["preload_bytes"])


def scenario_workload(scenario):
    """Run one scenario dict through ``run_scenario``; set-up is the time
    inside ``Testbed(...)``, ``Testbed.deploy`` and the state preload."""
    run = Run()
    clock = SetupClock()
    testbeds, handles = [], []
    clock.patch(Testbed, "__init__", lambda args, _result: testbeds.append(args[0]))
    clock.patch(Testbed, "deploy", lambda _args, handle: handles.append(handle))
    clock.patch(SutHandle, "preload")
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        result = run_scenario(scenario)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        clock.restore()
    run.setup_s = clock.wall
    run.setup_again = lambda: setup_seconds(scenario_setup, scenario)
    run.wall_s = wall - clock.wall
    run.cpu_s = cpu - clock.cpu
    run.records = result.records_emitted
    run.latency_p50_s = result.latency_p50
    run.latency_p99_s = result.latency_p99

    for invariant, verdict in result.invariants.items():
        if verdict.startswith("n/a"):
            continue
        run.check(f"invariant:{invariant}", verdict == "ok", verdict)

    handle = handles[-1]
    reports = list(handle.reports)
    actions = scenario.get("actions", [])
    matched = match_reports(actions, scenario.get("warmup", 10.0), reports)
    series = handle.metrics.latency
    pooled = []
    for index, action in enumerate(actions):
        report = matched.get(index)
        seconds = getattr(report, "total_seconds", None)
        run.check(
            f"reconfiguration:{action['kind']}@{action['at']}",
            seconds is not None,
            f"{action['kind']} at {action['at']} did not complete",
        )
        if seconds is None:
            continue
        kind = action["kind"]
        run.reconfig_s[kind] = max(run.reconfig_s.get(kind, 0.0), seconds)
        pooled.extend(
            series.weighted_values(
                report.triggered_at, report.completed_at + STALL_TAIL
            )
        )
    if actions:
        run.stall_samples = len(pooled)
        run.stall_p99_s = weighted_percentile(pooled, 0.99)
        run.check(
            "stall-samples",
            len(pooled) >= MIN_STALL_SAMPLES,
            f"{len(pooled)} latency samples in reconfiguration windows, "
            f"fewer than {MIN_STALL_SAMPLES}",
        )

    testbed = testbeds[-1]
    run.objects["sims"].extend(tb.sim for tb in testbeds)
    run.objects["fabrics"].append(handle.job.fabric)
    generator = getattr(testbed, "generator", None)
    if generator is not None:
        run.objects["generators"].append(generator)
    replicator = getattr(getattr(handle, "rhino", None), "replicator", None)
    if replicator is not None:
        run.objects["replicators"].append(replicator)
    run.objects["reports"].extend(reports)
    return run


def flash_crowd(seed, small=False, pause=contextlib.nullcontext):
    """Open loop in simulated time, bound by the simulation kernel."""
    return scenario_workload(flash_crowd_scenario(seed, small))


def large_state_reconfig(seed, small=False, pause=contextlib.nullcontext):
    """Open loop in simulated time, bound by the control plane and flows."""
    return scenario_workload(large_state_scenario(seed, small))


WORKLOADS = {
    "drain_wide_keys": drain_wide_keys,
    "flash_crowd": flash_crowd,
    "large_state_reconfig": large_state_reconfig,
}
