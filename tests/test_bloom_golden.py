"""Golden fingerprints of SSTable bloom filters.

SSTables hash each composite ``(group, key)`` from the key's serialization
computed once per row, instead of pushing the composite tuple through
``stable_hash`` and ``repr`` on every insert and probe.  The bit arrays
must stay byte-identical to the generic construction: the digests below
were recorded from filters built by ``BloomFilter.add`` on every composite.
"""

import hashlib

import pytest

from repro.common.rng import _stable_hash_cached
from repro.storage.kvs.bloom import BloomFilter, composite_hashes
from repro.storage.kvs.memtable import MERGE, PUT, Entry, MemTable
from repro.storage.kvs.sstable import SSTable

INT_KEYS = [0, 1, 7, 42, 2**31 - 1, 2**40 + 3, 10**20]
NEGATIVE_INT_KEYS = [-1, -7, -42, -(2**31), -(10**18)]
STR_KEYS = ["", "a", "alice", "bid:17", "ünïcödé", "with space", "'quoted'"]
FLOAT_KEYS = [0.0, -0.5, 1.25, 3.141592653589793, 1e-9, 2.5e300]
TUPLE_KEYS = [(1, 2), ("a", 3), (-4, "b", 5.5), ((1, 2), "nested"), ()]

KEY_SETS = {
    "int": INT_KEYS,
    "negative-int": NEGATIVE_INT_KEYS,
    "str": STR_KEYS,
    "float": FLOAT_KEYS,
    "tuple": TUPLE_KEYS,
    "mixed": INT_KEYS + NEGATIVE_INT_KEYS + STR_KEYS + FLOAT_KEYS + TUPLE_KEYS,
}

#: sha256 of each table's bloom bit array, recorded from the generic
#: ``BloomFilter.add`` construction, one fresh process per key set (see
#: ``fresh_hash_cache``).
GOLDEN = {
    "int": (
        "c857e9c4dc0d905cc98576bc24f53b9e839a9c676e3f49f42ccd58110ea18f8c"
    ),
    "negative-int": (
        "d470b6ffc7417f96125c787b1e570b2d52847e4c17400842a2bd9afb0e58c7d3"
    ),
    "str": (
        "b378c33b26a75e3ac4c2d931ad16dbb368aa107c2fff2d1a253d426854e78fe4"
    ),
    "float": (
        "4b864608c5a1008d17706fb7a89d2380846cf0d2737288b8bab5b376cb3408ff"
    ),
    "tuple": (
        "67b39c65bf9336f35a493747de34480e3cbf4cd7268492eabb1493dfcab115e0"
    ),
    "mixed": (
        "3c23ec11e0c62177e8b2c124a273bfa69bafb81a09c34b883e17d86ade390e64"
    ),
}


@pytest.fixture
def fresh_hash_cache():
    """Empty the ``stable_hash`` LRU.

    The LRU treats equal keys of different types as one entry: once
    ``(0, 0.0)`` is cached, ``stable_hash((0, 0))`` returns the hash of
    ``"(0, 0.0)"``.  The generic ``BloomFilter.add`` path goes through that
    cache, so comparing it with the serialization-based path needs a cache
    no other key set has touched.
    """
    _stable_hash_cached.cache_clear()
    yield
    _stable_hash_cached.cache_clear()


def composites(keys):
    """Spread the keys over a few key groups, as a store would."""
    return [(index % 5 * 3277, key) for index, key in enumerate(keys)]


def memtable_table(keys):
    """A table flushed from a memtable (order keys cached at write time)."""
    memtable = MemTable()
    for seq, (group, key) in enumerate(composites(keys), start=1):
        memtable.put(group, key, seq, seq, nbytes=16)
    return SSTable(memtable.sorted_items())


def bulk_table(keys):
    """A table over bulk-built entries (no cached order keys)."""
    items = sorted(
        (
            (composite, Entry(MERGE if seq % 2 else PUT, [seq], seq, 16))
            for seq, composite in enumerate(composites(keys), start=1)
        ),
        key=lambda item: (item[0][0], repr(item[0][1])),
    )
    return SSTable(items)


def digest(bloom):
    return hashlib.sha256(bytes(bloom._bits)).hexdigest()


@pytest.mark.parametrize("name", sorted(KEY_SETS))
@pytest.mark.parametrize("build", [memtable_table, bulk_table])
def test_bloom_bits_match_golden(name, build):
    table = build(KEY_SETS[name])
    assert digest(table.bloom) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(KEY_SETS))
def test_generic_and_hashed_paths_agree(name, fresh_hash_cache):
    pairs = composites(KEY_SETS[name])
    generic = BloomFilter(len(pairs))
    hashed = BloomFilter(len(pairs))
    for group, key in pairs:
        generic.add((group, key))
        hashed.add_hashes(*composite_hashes(group, repr(key)))
    assert bytes(generic._bits) == bytes(hashed._bits)
    assert generic.count == hashed.count == len(pairs)
    table = memtable_table(KEY_SETS[name])
    for group, key in pairs:
        assert (group, key) in table.bloom
        assert table.bloom.contains_hashes(*composite_hashes(group, repr(key)))
        assert table.get(group, key) is not None
    # Absent composites: both paths answer alike (false positives included).
    for group, key in pairs:
        probe = (group + 1, key)
        assert (probe in generic) == generic.contains_hashes(
            *composite_hashes(group + 1, repr(key))
        )
