"""Deterministic random-number utilities.

Every stochastic component of the reproduction (workload generators, block
placement, key assignment) takes an explicit seed so experiments and tests
are reproducible bit-for-bit.  This module centralises seed derivation so
two components never accidentally share a stream.
"""

import functools
import random
import zlib


def derive_seed(root_seed, *labels):
    """Derive a child seed from ``root_seed`` and a sequence of labels.

    The derivation is stable across runs and Python versions (it avoids
    ``hash()``, which is salted).

    >>> derive_seed(42, "generator", 3) == derive_seed(42, "generator", 3)
    True
    >>> derive_seed(42, "a") != derive_seed(42, "b")
    True
    """
    text = repr((root_seed,) + labels).encode("utf-8")
    return zlib.crc32(text) ^ (root_seed & 0xFFFFFFFF)


def make_rng(root_seed, *labels):
    """Create an independent :class:`random.Random` for a named component."""
    return random.Random(derive_seed(root_seed, *labels))


def _stable_hash_uncached(value):
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, str):
        data = value.encode("utf-8")
    elif isinstance(value, int):
        data = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
    else:
        data = repr(value).encode("utf-8")
    return zlib.crc32(data)


_stable_hash_cached = functools.lru_cache(maxsize=1 << 16)(_stable_hash_uncached)

#: Types memoized by :func:`stable_hash`.  The LRU matches arguments by
#: equality, so a float or a tuple would be served the entry of an equal
#: value of another type (``1 == 1.0``, ``(0, 0) == (0, 0.0)``); equal
#: values of these exact types always hash alike.
_CACHED_TYPES = frozenset((int, str, bytes))


def stable_hash(value):
    """A deterministic 32-bit hash for arbitrary repr-able values.

    Used for key partitioning where Python's salted ``hash()`` would make
    key-group assignment differ between runs.  Int, str and bytes values
    (the common partitioning keys) are memoized: the data plane hashes the
    same keys on every batch, so the LRU turns the hot path into a dict
    hit.  Every other value is hashed directly.
    """
    if type(value) in _CACHED_TYPES:
        return _stable_hash_cached(value)
    return _stable_hash_uncached(value)
