"""Content-addressed result caching with incremental recomputation.

Campaign sweeps, model fits and service queries are pure functions of
their (hardware spec, workload, calibration, codec config, seed)
inputs — which makes their results content-addressable. This package
keys every result on a canonical SHA-256 fingerprint of those inputs
plus the library :data:`~repro.core.persistence.SCHEMA_VERSION`, stores
it in an in-memory LRU tier with an optional on-disk JSON store, and
verifies a digest on every read so a hit is byte-identical to a cold
run or an error — never silently stale. See ``docs/CACHING.md``.
"""

from repro.cache.core import (
    CacheCorruptionError,
    ResultCache,
    configure_cache,
    get_cache,
    set_cache,
    use_cache,
)
from repro.cache.fingerprint import (
    CanonicalForm,
    canonical_json,
    canonicalize,
    describe_node,
    fingerprint,
)
from repro.cache.serialization import decode_value, encode_value
from repro.cache.store import DiskStore, MemoryLRU, text_digest

__all__ = [
    "ResultCache",
    "CacheCorruptionError",
    "get_cache",
    "set_cache",
    "configure_cache",
    "use_cache",
    "fingerprint",
    "CanonicalForm",
    "canonicalize",
    "canonical_json",
    "describe_node",
    "encode_value",
    "decode_value",
    "MemoryLRU",
    "DiskStore",
    "text_digest",
]
