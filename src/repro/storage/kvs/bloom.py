"""A bloom filter for SSTable point lookups.

The paper configures RocksDB with bloom filters for point lookups
(§5.1.3); SSTables here do the same so negative lookups rarely touch the
sorted data.  Standard construction: a bit array of ``m`` bits and ``k``
hash functions derived by double hashing (Kirsch & Mitzenmacher).
"""

import math
import zlib

from repro.common.rng import stable_hash


def _hashes(key):
    """The double-hashing pair of an arbitrary key."""
    return stable_hash(key), zlib.adler32(repr(key).encode("utf-8")) or 1


def composite_hashes(group, key_repr):
    """The hash pair of the composite ``(group, key)`` given ``repr(key)``.

    Byte-identical to ``_hashes((group, key))``: ``stable_hash`` of a
    tuple is the crc32 of its ``repr``, and the repr of a pair is
    ``"(<group>, <key>)"``.  LSM lookups serialize each key once and hand
    the result to every table they probe; building from ``repr(key)``
    also keeps composite tuples out of the ``stable_hash`` LRU that key
    partitioning relies on.
    """
    data = ("(%r, %s)" % (group, key_repr)).encode("utf-8")
    return zlib.crc32(data), zlib.adler32(data) or 1


class BloomFilter:
    """A fixed-size bloom filter.

    ``expected_items`` and ``false_positive_rate`` size the bit array with
    the textbook formulas m = -n ln p / (ln 2)^2 and k = (m/n) ln 2.
    Guarantees no false negatives.
    """

    def __init__(self, expected_items, false_positive_rate=0.01):
        expected_items = max(1, expected_items)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        nbits = int(
            math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))
        )
        self.nbits = max(8, nbits)
        self.nhashes = max(1, int(round((self.nbits / expected_items) * math.log(2))))
        self._bits = bytearray((self.nbits + 7) // 8)
        self.count = 0

    def add(self, key):
        """Insert a key."""
        self.add_hashes(*_hashes(key))

    def __contains__(self, key):
        return self.contains_hashes(*_hashes(key))

    def add_hashes(self, h1, h2):
        """Insert a key given its precomputed ``(h1, h2)`` hash pair."""
        bits = self._bits
        nbits = self.nbits
        for i in range(self.nhashes):
            pos = (h1 + i * h2) % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def contains_hashes(self, h1, h2):
        """Membership test given a precomputed ``(h1, h2)`` hash pair."""
        bits = self._bits
        nbits = self.nbits
        for i in range(self.nhashes):
            pos = (h1 + i * h2) % nbits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    @property
    def size_bytes(self):
        """Size of the bit array in bytes."""
        return len(self._bits)

    def __repr__(self):
        return f"<BloomFilter bits={self.nbits} k={self.nhashes} n={self.count}>"
