"""Per-layer spans and counters for the traced benchmark run.

The program is not modified: :class:`LayerTracer` wraps the public entry
points of each layer (a module of ``repro``) from the outside, records a
span per call -- name, start, end, parent -- and counts the work passed
across the boundary.  A layer's *self time* is the time of its spans minus
the time of the spans nested inside them; process-body code that no
wrapped function covers runs inside ``Simulator.step`` and so lands in
``sim.kernel``.

Counters that read program attributes go through :func:`read_attr`, which
yields ``None`` (printed ``n/a``) when the attribute is gone, so a change
that deletes an attribute does not break the benchmark.
"""

import contextlib
import importlib
import inspect
import json
import sys
import time

#: Spans kept verbatim; past this, spans are only aggregated per
#: (name, parent) so memory stays bounded on long runs.
RAW_SPAN_LIMIT = 50_000

_MISSING = object()


def read_attr(obj, *path):
    """``obj.a.b...`` or ``None`` when any attribute on the path is gone."""
    for name in path:
        obj = getattr(obj, name, _MISSING)
        if obj is _MISSING:
            return None
    return obj


def _len(value):
    try:
        return len(value)
    except TypeError:
        return 0


def _nbytes_arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else 0


# Counter hooks: (args, kwargs, result) -> {counter: increment}.


def _flow_bytes(args, kwargs, _result):
    return {"sim.flows.bytes": _nbytes_arg(args, kwargs, 1, "nbytes")}


def _cluster_bytes(args, kwargs, _result):
    return {"cluster.bytes": _nbytes_arg(args, kwargs, 3, "nbytes")}


def _cluster_chunk_bytes(args, kwargs, _result):
    return {"cluster.bytes": sum(_nbytes_arg(args, kwargs, 3, "chunk_sizes"))}


def _emitted_records(args, _kwargs, _result):
    return {"engine.channels.records": _len(args[1]) if len(args) > 1 else 0}


def _operator_records(args, kwargs, _result):
    batch = args[1] if len(args) > 1 else kwargs.get("batch")
    return {"engine.operators.records_in": _len(batch)}


def _polled_records(_args, _kwargs, result):
    return {"storage.log.records": _len(result)}


def _compaction_bytes(_args, _kwargs, result):
    read_bytes = read_attr(result, "read_bytes") if result is not None else 0
    return {"storage.kvs.compaction_bytes": read_bytes or 0}


def _extracted_pairs(_args, _kwargs, result):
    return {"storage.kvs.extracted_pairs": _len(result)}


def _ingested_bytes(args, kwargs, _result):
    tables = args[1] if len(args) > 1 else kwargs.get("tables", ())
    return {
        "storage.kvs.ingested_bytes": sum(
            read_attr(table, "size_bytes") or 0 for table in tables
        )
    }


_HOOK_COUNTERS = {
    _flow_bytes: ("sim.flows.bytes",),
    _cluster_bytes: ("cluster.bytes",),
    _cluster_chunk_bytes: ("cluster.bytes",),
    _emitted_records: ("engine.channels.records",),
    _operator_records: ("engine.operators.records_in",),
    _polled_records: ("storage.log.records",),
    _compaction_bytes: ("storage.kvs.compaction_bytes",),
    _extracted_pairs: ("storage.kvs.extracted_pairs",),
    _ingested_bytes: ("storage.kvs.ingested_bytes",),
}

#: (layer, module, class or None, function, counter name, hook).  The
#: counter counts calls; the hook adds counts read at the same boundary.
ENTRY_POINTS = [
    ("sim.kernel", "repro.sim.kernel", "Simulator", "step", None, None),
    ("sim.resources", "repro.sim.resources", "Store", "put", "sim.resources.calls", None),
    ("sim.resources", "repro.sim.resources", "Store", "get", "sim.resources.calls", None),
    ("sim.flows", "repro.sim.flows", "FlowScheduler", "transfer", "sim.flows.transfers", _flow_bytes),
    ("sim.flows", "repro.sim.flows", "FlowScheduler", "reallocate", "sim.flows.reallocations", None),
    # The incremental solver runs from kernel callbacks, not from a public
    # call: its end-of-instant re-solve and its completion wake-up.
    ("sim.flows", "repro.sim.flows", "FlowScheduler", "_end_of_instant", "sim.flows.solves", None),
    ("sim.flows", "repro.sim.flows", "FlowScheduler", "_on_wakeup", None, None),
    ("cluster", "repro.cluster.cluster", "Cluster", "transfer", "cluster.transfers", _cluster_bytes),
    ("cluster", "repro.cluster.cluster", "Cluster", "chunked_transfer", "cluster.transfers", _cluster_chunk_bytes),
    ("engine.channels", "repro.engine.channels", "Router", "emit_batch", "engine.channels.batches", _emitted_records),
    ("engine.channels", "repro.engine.channels", "ExchangeFabric", "send", "engine.channels.sends", None),
    ("engine.partitioning", "repro.engine.partitioning", None, "key_group_of", "engine.partitioning.key_group_calls", None),
    ("engine.partitioning", "repro.engine.operators", "InstanceContext", "key_group", None, None),
    ("common", "repro.common.rng", None, "stable_hash", "common.hash_calls", None),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "get", "storage.kvs.gets", None),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "put_batch", "storage.kvs.put_batches", None),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "owns", "storage.kvs.owns", None),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "flush", "storage.kvs.flushes", None),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "compact", "storage.kvs.compactions", _compaction_bytes),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "checkpoint", "storage.kvs.checkpoints", None),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "extract_groups", None, _extracted_pairs),
    ("storage.kvs", "repro.storage.kvs.lsm", "LSMStore", "ingest_tables", None, _ingested_bytes),
    ("storage.kvs", "repro.storage.kvs.sstable", "SSTable", "get", "storage.kvs.table_probes", None),
    ("storage.log", "repro.storage.log.broker", "DurableLog", "append_batch", None, None),
    ("storage.log", "repro.storage.log.broker", "LogCursor", "poll", "storage.log.polls", None),
    ("storage.log", "repro.storage.log.broker", "LogCursor", "try_poll", "storage.log.polls", _polled_records),
    ("nexmark", "repro.nexmark.generator", "ZipfKeys", "sample", None, None),
    ("nexmark", "repro.nexmark.generator", "HotKeys", "sample", None, None),
    ("engine.coordinator", "repro.engine.coordinator", "Coordinator", "trigger_checkpoint", "engine.coordinator.checkpoints", None),
    ("engine.coordinator", "repro.engine.coordinator", "Coordinator", "ack_checkpoint", None, None),
    ("core.journal", "repro.core.journal", "ControlJournal", "append", "core.journal.records", None),
]

#: Layers whose self time is reported (every layer with wrapped spans;
#: ``engine.operators`` wraps each ``OperatorLogic.process_batch``).
SPAN_LAYERS = sorted({entry[0] for entry in ENTRY_POINTS} | {"engine.operators"})


class LayerTracer:
    """Installs the wrappers, keeps spans and counters, restores on exit.

    Use as a context manager around one workload run.  Spans nest through
    a stack: the program is single-threaded, and a simulated process body
    only runs inside ``Simulator.step``, so call nesting is span nesting.
    """

    def __init__(self, raw_span_limit=RAW_SPAN_LIMIT):
        self.raw_span_limit = raw_span_limit
        #: Verbatim spans: (name, start, end, parent index or -1).
        self.spans = []
        #: (name, parent name) -> [calls, total seconds, self seconds].
        self.aggregate = {}
        self.counters = {}
        #: Counters whose entry point no longer exists in the program.
        self.missing = set()
        self.truncated = False
        #: False while paused: wrappers then call straight through.
        self.enabled = True
        self.paused_s = 0.0
        self._stack = []  # [name, start, child seconds, span index]
        self._patches = []  # (owner, attribute, original)
        self.started = None
        self.wall = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer, qualname, fn, counter, hook):
        name = f"{layer}:{qualname}"
        stack = self._stack
        spans = self.spans
        aggregate = self.aggregate
        counters = self.counters
        perf_counter = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = -1
            if len(spans) < tracer.raw_span_limit:
                index = len(spans)
                spans.append(None)
            else:
                tracer.truncated = True
            frame = [name, perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counters[counter] = counters.get(counter, 0) + 1
                if hook is not None:
                    for key, value in hook(args, kwargs, result).items():
                        counters[key] = counters.get(key, 0) + value
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent_name = parent[0] if parent is not None else None
                if parent is not None:
                    parent[2] += duration
                if index >= 0:
                    spans[index] = (
                        name,
                        frame[1],
                        end,
                        parent[3] if parent is not None else -1,
                    )
                row = aggregate.get((name, parent_name))
                if row is None:
                    row = aggregate[(name, parent_name)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every entry point, and every module binding of a wrapped
        module-level function (``from x import f`` copies the binding)."""
        for layer, module_name, class_name, function, counter, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = module.__dict__.get(function)
                if original is None:
                    self.missing.update(_counters_of(counter, hook))
                    continue
                wrapper = self._wrap(layer, function, original, counter, hook)
                for mod in list(sys.modules.values()):
                    if (
                        getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, "__dict__", {}).get(function) is original
                    ):
                        self._patch(mod, function, wrapper)
                continue
            cls = getattr(module, class_name, None)
            if cls is None or function not in cls.__dict__:
                self.missing.update(_counters_of(counter, hook))
                continue
            self._install_method(layer, cls, function, counter, hook)
        # process_batch of every OperatorLogic subclass that defines one.
        operators = importlib.import_module("repro.engine.operators")
        base = getattr(operators, "OperatorLogic", None)
        if base is not None:
            for cls in [base] + _subclasses(base):
                if "process_batch" in cls.__dict__:
                    self._install_method(
                        "engine.operators",
                        cls,
                        "process_batch",
                        "engine.operators.batches",
                        _operator_records,
                    )
        return self

    def _install_method(self, layer, cls, function, counter, hook):
        original = cls.__dict__[function]
        if inspect.isgeneratorfunction(original):
            # A process body runs later under Simulator.step; the wrapper
            # can only count the call, not time the body.
            hook = None
        self._patch(
            cls,
            function,
            self._wrap(layer, f"{cls.__name__}.{function}", original, counter, hook),
        )

    def restore(self):
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall = time.perf_counter() - self.started - self.paused_s
        self.restore()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Neither time nor count the calls made inside the block (the
        benchmark's own input generation and correctness checks)."""
        self.enabled = False
        started = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - started
            self.enabled = True

    # -- reduction ---------------------------------------------------------

    def self_seconds(self):
        """layer -> summed self time of its spans."""
        totals = dict.fromkeys(SPAN_LAYERS, 0.0)
        for (name, _parent), (_calls, _total, self_s) in self.aggregate.items():
            layer = name.split(":", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self_s
        return totals

    def dump(self, path):
        """Write spans and the per-(name, parent) aggregate as JSON."""
        data = {
            "raw_span_limit": self.raw_span_limit,
            "truncated": self.truncated,
            "wall_s": self.wall,
            "spans": [list(span) for span in self.spans if span is not None],
            "aggregate": [
                {
                    "name": name,
                    "parent": parent,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                }
                for (name, parent), (calls, total, self_s) in sorted(
                    self.aggregate.items(), key=lambda item: -item[1][2]
                )
            ],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))


def _counters_of(counter, hook):
    names = [counter] if counter is not None else []
    return names + list(_HOOK_COUNTERS.get(hook, ()))


def _subclasses(cls):
    seen = []
    pending = [cls]
    while pending:
        current = pending.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def _sum_attr(objects, *path):
    values = [read_attr(obj, *path) for obj in objects]
    if not objects or any(value is None for value in values):
        return None
    return sum(values)


def hash_cache_info():
    """The ``stable_hash`` LRU's (hits, misses), or None when it is gone."""
    rng = importlib.import_module("repro.common.rng")
    cached = read_attr(rng, "_stable_hash_cached", "cache_info")
    if cached is None:
        return None
    info = cached()
    return info.hits, info.misses


def layer_metrics(tracer, objects, records, hash_before, hash_after):
    """The per-layer metric values (None = n/a) of one traced run.

    ``objects`` holds what the workload built (``sims``, ``fabrics``,
    ``generators``, ``replicators``, ``reports``); ``records`` is the
    records the stateful operators processed.
    """
    def c(name, default=0):
        if name in tracer.missing:
            return None
        return tracer.counters.get(name, default)

    self_s = tracer.self_seconds()
    events = _sum_attr(objects["sims"], "events_processed")
    if hash_before is None or hash_after is None:
        hit_ratio = None
    else:
        hits = hash_after[0] - hash_before[0]
        misses = hash_after[1] - hash_before[1]
        hit_ratio = _ratio(hits, hits + misses) if hits + misses else 0.0
    reports = objects["reports"]

    def report_sum(field):
        return _sum_attr(reports, field) if reports else 0

    metrics = {
        "sim.kernel.events": events,
        "sim.kernel.events_per_record": _ratio(events, records),
        "sim.resources.calls": c("sim.resources.calls", 0),
        "sim.flows.transfers": c("sim.flows.transfers", 0),
        "sim.flows.reallocations": c("sim.flows.reallocations", 0),
        "sim.flows.solves": c("sim.flows.solves", 0),
        "sim.flows.bytes": c("sim.flows.bytes", 0),
        "cluster.transfers": c("cluster.transfers", 0),
        "cluster.bytes": c("cluster.bytes", 0),
        "engine.channels.batches": c("engine.channels.batches", 0),
        "engine.channels.records_per_batch": _ratio(
            c("engine.channels.records", 0), c("engine.channels.batches", 0)
        ),
        "engine.channels.dropped": _sum_attr(objects["fabrics"], "dropped_elements"),
        "engine.operators.batches": c("engine.operators.batches", 0),
        "engine.operators.records_in": c("engine.operators.records_in", 0),
        "engine.partitioning.key_groups_per_record": _ratio(
            c("engine.partitioning.key_group_calls", 0), records
        ),
        "common.hash_cache_hit_ratio": hit_ratio,
        "storage.kvs.gets": c("storage.kvs.gets", 0),
        "storage.kvs.owns_per_record": _ratio(c("storage.kvs.owns", 0), records),
        "storage.kvs.table_probes_per_get": _ratio(
            c("storage.kvs.table_probes", 0), c("storage.kvs.gets", 0)
        ),
        "storage.kvs.flushes": c("storage.kvs.flushes", 0),
        "storage.kvs.compaction_bytes": c("storage.kvs.compaction_bytes", 0),
        "storage.kvs.extracted_pairs": c("storage.kvs.extracted_pairs", 0),
        "storage.kvs.ingested_bytes": c("storage.kvs.ingested_bytes", 0),
        "storage.log.polls": c("storage.log.polls", 0),
        "storage.log.records_per_poll": _ratio(
            c("storage.log.records", 0), c("storage.log.polls", 0)
        ),
        "nexmark.records": _sum_attr(objects["generators"], "records_emitted")
        if objects["generators"]
        else 0,
        "engine.coordinator.checkpoints": c("engine.coordinator.checkpoints", 0),
        "core.handover.migrated_bytes": report_sum("migrated_bytes"),
        "core.handover.scheduling_s": report_sum("scheduling_seconds"),
        "core.handover.fetching_s": report_sum("fetching_seconds"),
        "core.handover.loading_s": report_sum("loading_seconds"),
        "core.handover.precopy_bytes": report_sum("precopy_bytes"),
        "core.handover.delta_rounds": report_sum("delta_rounds"),
        "core.replication.bytes": _sum_attr(
            objects["replicators"], "stats", "bytes_replicated"
        )
        if objects["replicators"]
        else 0,
        "core.replication.checkpoints": _sum_attr(
            objects["replicators"], "stats", "checkpoints_replicated"
        )
        if objects["replicators"]
        else 0,
        "core.replication.failures": _sum_attr(
            objects["replicators"], "stats", "failures"
        )
        if objects["replicators"]
        else 0,
        "core.journal.records": c("core.journal.records", 0),
    }
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics["other.self_s"] = tracer.wall - sum(self_s.values())
    return metrics


def layer_unit(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio") or "_per_" in name:
        return "ratio"
    return "count"
