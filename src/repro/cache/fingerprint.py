"""Canonical content fingerprints for cache keys.

A cache key must change whenever anything that can change the result
changes — and *only* then. :func:`fingerprint` hashes a canonical JSON
form of its keyword parts (sorted keys, compact separators, the same
convention :meth:`ModelBundle.fingerprint` uses) with SHA-256, and
always folds in the library's :data:`~repro.core.persistence.SCHEMA_VERSION`
so a schema bump invalidates every previously cached entry at once.

Canonicalization is *strict*: an object the rules below don't cover
raises :class:`TypeError` instead of falling back to ``repr``/``id``
(which would silently vary across processes and poison cross-executor
stability). Covered forms:

* JSON scalars pass through; NumPy scalars demote to Python scalars.
* ``bytes`` and ``ndarray`` values contribute a digest of their
  contents (plus dtype/shape), not the raw bytes.
* Enums become ``(class, value)`` pairs; dataclasses become
  ``(class, declared fields)`` maps.
* Mappings become sorted pair lists (insertion order never leaks into
  the key); sets are sorted; lists/tuples keep order.
* ``np.random.Generator`` contributes its bit-generator state, so a
  key over a live :class:`~repro.hardware.node.SimulatedNode` pins the
  exact point of its noise stream.
* A :class:`CanonicalForm` contributes the form it was built from, so
  a value hashed under many keys (a sweep's sample field) is reduced
  once and every key still equals ``fingerprint`` of the value itself.
* Other objects contribute ``(class, vars(obj))`` — enough for the
  stateless :class:`~repro.hardware.powercurves.PowerCurve` family.
  Functions, classes and modules raise: their behavior is not content
  this rule could see, so admitting them would alias distinct keys.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import types
from typing import Any, Dict

import numpy as np

from repro.core.persistence import SCHEMA_VERSION

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_json",
    "fingerprint",
    "describe_node",
]


class CanonicalForm:
    """*value* reduced by :func:`canonicalize` once, at construction.

    ``fingerprint(field=CanonicalForm(x), ...)`` equals
    ``fingerprint(field=x, ...)``; build one per value and reuse it
    across keys. It captures the value's content when built, so a value
    changed afterwards needs a new one.
    """

    __slots__ = ("form",)

    def __init__(self, value: Any) -> None:
        self.form = canonicalize(value)


def canonicalize(obj: Any) -> Any:
    """Reduce *obj* to a deterministic JSON-serializable form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(obj)).hexdigest()}
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": {
                "dtype": str(data.dtype),
                "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            }
        }
    if isinstance(obj, np.dtype):
        return {"__dtype__": str(obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": [type(obj).__name__, canonicalize(obj.value)]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, dict):
        pairs = [[canonicalize(k), canonicalize(v)] for k, v in obj.items()]
        pairs.sort(key=lambda kv: _dumps(kv[0]))
        return {"__map__": pairs}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonicalize(x) for x in obj]
        return {"__set__": sorted(items, key=_dumps)}
    if isinstance(obj, np.random.Generator):
        state = obj.bit_generator.state
        return {"__rng__": canonicalize(state)}
    if isinstance(obj, CanonicalForm):
        return obj.form
    if not isinstance(
        obj, (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType, types.LambdaType)
    ) and hasattr(obj, "__dict__"):
        return {
            "__object__": type(obj).__name__,
            "vars": canonicalize(dict(vars(obj))),
        }
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r} objects; "
        "add a canonicalization rule or pass a digestible form"
    )


def _dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def canonical_json(obj: Any) -> str:
    """Canonical JSON text of *obj* (sorted keys, compact separators)."""
    return _dumps(canonicalize(obj))


def fingerprint(**parts: Any) -> str:
    """SHA-256 content address over keyword *parts* + the schema version."""
    doc = {"schema_version": SCHEMA_VERSION, "parts": canonicalize(parts)}
    return hashlib.sha256(_dumps(doc).encode("utf-8")).hexdigest()


def describe_node(node) -> Dict[str, Any]:
    """Everything about a :class:`SimulatedNode` that shapes its output.

    Covers the CPU spec, the ground-truth power curve, the noise
    magnitudes and the *current* RNG state — so the same node yields a
    different key after its noise stream has advanced. The RAPL counter
    is deliberately excluded: its wrap-aware deltas make accumulated
    counter state provably output-neutral.
    """
    return {
        "cpu": canonicalize(node.cpu),
        "power_curve": canonicalize(node.power_curve),
        "power_noise": node.power_noise,
        "runtime_noise": node.runtime_noise,
        "rng": canonicalize(node._rng),
    }
