"""The keyed state backend: an LSM store wired to a machine's disks.

Wraps :class:`repro.storage.kvs.LSMStore` so that flushes, compactions,
and checkpoints charge simulated disk I/O on the instance's machine --
state maintenance competes with DFS traffic and replication for the same
disks, as in the real system.
"""

from repro.common.ranges import RangeSet
from repro.storage.kvs import LSMStore


class KeyedStateBackend:
    """Per-instance mutable keyed state (R3 of §3.4)."""

    def __init__(
        self,
        sim,
        machine,
        name,
        owned_ranges=None,
        memtable_limit=64 * 1024 * 1024,
        compaction_trigger=8,
    ):
        self.sim = sim
        self.machine = machine
        owned = RangeSet(owned_ranges) if owned_ranges is not None else None
        self.store = LSMStore(
            name,
            memtable_limit=memtable_limit,
            compaction_trigger=compaction_trigger,
            owned=owned,
        )
        #: Bytes written to disk on behalf of this backend (for reports).
        self.disk_write_bytes = 0
        self._compacting = False

    # -- reads/writes (pass-through) -------------------------------------

    def get(self, group, key):
        """Resolved value for the key, or None."""
        return self.store.get(group, key)

    def get_many(self, groups, keys):
        """Resolved values for the rows ``(groups[i], keys[i])``."""
        return self.store.get_many(groups, keys)

    def put(self, group, key, value, nbytes=None):
        """Write a key-value pair."""
        self.store.put(group, key, value, nbytes=nbytes)

    def put_batch(self, items):
        """Write a batch of ``(group, key, value, nbytes)`` rows at once."""
        self.store.put_batch(items)

    def append(self, group, key, element, nbytes=None):
        """Merge-append an element onto the key's value."""
        self.store.append(group, key, element, nbytes=nbytes)

    def delete(self, group, key):
        """Delete a key (tombstone until compaction)."""
        self.store.delete(group, key)

    @property
    def total_bytes(self):
        """Total modeled bytes held."""
        return self.store.total_bytes

    def bytes_in_groups(self, lo, hi):
        """Modeled bytes held for key groups [lo, hi)."""
        return self.store.bytes_in_groups(lo, hi)

    # -- maintenance (charges disk I/O) ------------------------------------

    def maintenance(self):
        """Process generator: flush and compact when thresholds are hit.

        The flush is synchronous (a RocksDB write stall); compaction I/O
        runs in a background process like RocksDB's compaction threads --
        a multi-gigabyte merge must not stall record processing.
        """
        if self.store.needs_flush:
            table = self.store.flush()
            if table is not None:
                self.disk_write_bytes += table.size_bytes
                yield self.machine.disk_write(table.size_bytes, tag="state-flush")
        if self.store.needs_compaction and not self._compacting:
            result = self.store.compact()
            if result is not None:
                self._compacting = True
                io_process = self.sim.process(
                    self._compaction_io(result),
                    name=f"compaction:{self.store.name}",
                )
                # Dies silently with its machine.
                io_process.defused = True
                self.machine.register_process(io_process)

    def _compaction_io(self, result):
        try:
            yield self.machine.disk_read(result.read_bytes, tag="compaction")
            self.disk_write_bytes += result.write_bytes
            yield self.machine.disk_write(result.write_bytes, tag="compaction")
        finally:
            self._compacting = False

    def checkpoint(self, checkpoint_id):
        """Process generator: synchronous phase of an incremental checkpoint.

        Flushes the memtable (this is the pause that produces the paper's
        checkpoint-time latency spikes) and returns the Checkpoint whose
        ``delta_tables`` the storage layer persists asynchronously.
        """
        checkpoint, flushed = self.store.checkpoint(checkpoint_id, now=self.sim.now)
        if flushed is not None:
            self.disk_write_bytes += flushed.size_bytes
            yield self.machine.disk_write(flushed.size_bytes, tag="ckpt-flush")
        return checkpoint

    # -- migration ------------------------------------------------------------

    def adopt_groups(self, lo, hi):
        """Take ownership of key groups [lo, hi)."""
        self.store.adopt_groups(lo, hi)

    def drop_groups(self, lo, hi):
        """Release key groups [lo, hi); returns modeled bytes released."""
        return self.store.drop_groups(lo, hi)

    def restore(self, tables, owned_ranges=None):
        """Install tables as the live set with the given ownership."""
        owned = RangeSet(owned_ranges) if owned_ranges is not None else None
        self.store.restore(tables, owned=owned)

    def owned_ranges(self):
        """Owned key-group ranges, or None when unrestricted."""
        return self.store.owned_ranges()
