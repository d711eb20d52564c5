"""The per-batch key-group column and the batch drain that reads it.

A record's key group is computed once: the router that splits a batch
hands every sub-batch its rows' groups, and the consuming instance's
ownership check, keyed logic and state store read that column.  These
tests pin the column's alignment with the rows and show that the batch
drain still processes exactly the rows the per-record drain does when a
replay filter drops rows and when rows arrive for groups the instance no
longer owns (mid-handover); the per-record drain's outcomes are pinned as
golden constants recorded before that drain was removed.
"""

import hashlib

import pytest

import repro.engine.records as records_module
from repro.engine.channels import Edge, ExchangeFabric, Router
from repro.engine.graph import StreamGraph
from repro.engine.instance import ReplayFilter
from repro.engine.operators import OperatorLogic
from repro.engine.partitioning import KeyGroupAssignment, key_group_of
from repro.engine.records import Record, RecordBatch
from repro.sim import Simulator
from repro.cluster import Cluster

from tests.engine_fixtures import EngineEnv

NUM_GROUPS = 16


class FakeInstance:
    def __init__(self, instance_id, index, machine):
        self.instance_id = instance_id
        self.index = index
        self.machine = machine

    def attach_input(self, channel):
        pass


def mixed_records(count=60):
    keys = list(range(20)) + [f"user-{i}" for i in range(20)] + [
        (i, "t") for i in range(20)
    ]
    return [Record(keys[i % len(keys)], float(i)) for i in range(count)]


class TestColumn:
    def test_lazy_column_matches_key_group_of(self):
        batch = RecordBatch(mixed_records())
        groups = batch.key_groups(NUM_GROUPS)
        assert groups == [key_group_of(r.key, NUM_GROUPS) for r in batch.records]
        assert batch.key_groups(NUM_GROUPS) is groups  # memoized
        assert batch.key_groups(8) == [key_group_of(r.key, 8) for r in batch.records]

    def test_subset_keeps_column_aligned(self):
        batch = RecordBatch(mixed_records())
        batch.key_groups(NUM_GROUPS)
        keep = [i % 3 != 0 for i in range(len(batch))]
        sub = batch.subset(keep)
        assert [r.timestamp for r in sub.records] == [
            r.timestamp for r, k in zip(batch.records, keep) if k
        ]
        assert sub.key_groups(NUM_GROUPS) == [
            key_group_of(r.key, NUM_GROUPS) for r in sub.records
        ]
        assert sub.nbytes == sum(r.nbytes for r in sub.records)

    @pytest.mark.parametrize("parallelism", [2, 3, 5])
    def test_router_fills_aligned_column_on_every_sub_batch(
        self, parallelism, monkeypatch
    ):
        sim = Simulator()
        cluster = Cluster(sim)
        machine = cluster.add_machines(1, prefix="m", network_latency=0.0)[0]
        fabric = ExchangeFabric(sim, cluster, interval=0.1)
        assignment = KeyGroupAssignment(NUM_GROUPS, parallelism)
        edge = Edge("s->d", "s", "d", "hash", assignment=assignment)
        router = Router(sim, fabric, edge, FakeInstance("s[0]", 0, machine))
        for index in range(parallelism):
            router.connect(FakeInstance(f"d[{index}]", index, machine))
        router.emit_batch(RecordBatch(mixed_records()))

        def no_rehash(*_args):
            raise AssertionError("sub-batch recomputed its key groups")

        # Reading a sub-batch's column must not hash any key again.
        monkeypatch.setattr(records_module, "key_group_of", no_rehash)
        shipped = 0
        for index, channel in router.channels.items():
            for batch in channel.store.items:
                groups = batch.key_groups(NUM_GROUPS)
                assert len(groups) == len(batch.records)
                for record, group in zip(batch.records, groups):
                    assert group == key_group_of(record.key, NUM_GROUPS)
                    assert assignment.owner_of(group) == index
                shipped += len(batch)
        assert shipped == len(mixed_records())


class RecordingLogic(OperatorLogic):
    """Remembers every row it is handed."""

    def open(self, ctx):
        super().open(ctx)
        self.seen = []

    def process_batch(self, batch, side=0):
        groups = batch.key_groups(self.ctx.num_key_groups)
        for record, group in zip(batch.records, groups):
            assert group == key_group_of(record.key, self.ctx.num_key_groups)
            self.seen.append((record.key, record.timestamp))
        return ()


def drain(replay_cutoff=None, dropped=None, reroute=False):
    """Feed mixed_records() to one stateful instance; report what it did."""
    env = EngineEnv()
    env.topic("in", 1)
    graph = StreamGraph("column")
    graph.source("src", topic="in", parallelism=1)
    graph.operator(
        "op", RecordingLogic, 1, inputs=[("src", "hash")], stateful=True
    )
    job = env.job(graph)
    job.start()
    env.run(until=0.1)
    instance = job.operator_instances("op")[0]
    rerouted = []
    if reroute:
        job.misroute_handler = lambda _inst, record: rerouted.append(record.timestamp)
    if replay_cutoff is not None:
        instance.replay_filter = ReplayFilter(NUM_GROUPS, default_cutoff=replay_cutoff)
    if dropped is not None:
        instance.state.drop_groups(*dropped)  # migrated away mid-handover
    instance._queue.put(("batch", None, RecordBatch(mixed_records())))
    env.run(until=1.0)
    return {
        "seen": instance.logic.seen,
        "processed": instance.records_processed,
        "skipped": instance.records_skipped,
        "misrouted": instance.records_misrouted,
        "rerouted": rerouted,
    }


DRAIN_OPTIONS = [
    {},
    {"replay_cutoff": 20.0},
    {"dropped": (4, 9)},
    {"dropped": (4, 9), "reroute": True},
    {"replay_cutoff": 20.0, "dropped": (0, 3), "reroute": True},
    {"replay_cutoff": 100.0},
    {"dropped": (0, NUM_GROUPS)},
]

#: What the per-record drain did under each of DRAIN_OPTIONS: (sha256 of
#: the rows the logic saw, processed, skipped, misrouted, rerouted).
RECORD_DRAIN_OUTCOMES = [
    # {}
    ("47438e7c4bc173bcfa45ff9a6b6398674d8a4d287c3d2235bf5d65d535998299", 60, 0, 0, 0),
    # {"replay_cutoff": 20.0}
    ("7dcf5d3837964f04e3dec560e0c789ec2ea710f92563476712be6bffe904161f", 39, 21, 0, 0),
    # {"dropped": (4, 9)}
    ("078fd2a01121983a36b324c9eb34f8ced225e20fd3527bfc29129fc67761ef77", 41, 0, 19, 0),
    # {"dropped": (4, 9), "reroute": True}
    ("078fd2a01121983a36b324c9eb34f8ced225e20fd3527bfc29129fc67761ef77", 41, 0, 0, 19),
    # {"replay_cutoff": 20.0, "dropped": (0, 3), "reroute": True}
    ("0749a0435a97ad71d474da8201bc7af8e7fd7b7d231e2eac58224a6014506ec0", 32, 21, 0, 7),
    # {"replay_cutoff": 100.0}
    ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0, 60, 0, 0),
    # {"dropped": (0, NUM_GROUPS)}
    ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0, 0, 60, 0),
]


class TestBatchDrainRows:
    @pytest.mark.parametrize("options", DRAIN_OPTIONS)
    def test_batch_drain_matches_record_drain(self, options):
        batch = drain(**options)
        outcome = (
            hashlib.sha256(repr(batch["seen"]).encode()).hexdigest(),
            batch["processed"],
            batch["skipped"],
            batch["misrouted"],
            len(batch["rerouted"]),
        )
        assert outcome == RECORD_DRAIN_OUTCOMES[DRAIN_OPTIONS.index(options)]
        total = len(mixed_records())
        accounted = (
            batch["processed"]
            + batch["skipped"]
            + batch["misrouted"]
            + len(batch["rerouted"])
        )
        assert accounted == total

    def test_drops_and_misroutes_are_exercised(self):
        outcome = drain(replay_cutoff=20.0, dropped=(4, 9))
        assert outcome["skipped"] == 21  # timestamps 0..20
        assert outcome["misrouted"] > 0
        assert outcome["processed"] > 0
