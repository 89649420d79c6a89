"""Typed JSON round-trips for cacheable result values.

The cache stores every value as canonical JSON *text* (sorted keys,
compact separators) plus a digest of that text. Text is what both
tiers hold — hits decode a fresh object, so no caller can mutate a
cached value in place, and "byte-identical" has a literal meaning: two
results are equal iff their encoded texts are equal (which also makes
``NaN`` compare equal, unlike object equality).

Encoding is typed: tuples, NumPy arrays, enums and the library's
result dataclasses (reports, models, samples) are tagged so decoding
reconstructs the exact Python shape. Unknown types raise
:class:`TypeError` — a cache that silently stringified objects would
return subtly different values on a hit than on a miss.

The dataclass registry is populated lazily on first use: the modules
defining the result types import :mod:`repro.cache` themselves, so
importing them eagerly here would cycle.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Type

import numpy as np

__all__ = ["encode_value", "decode_value", "canonical_dumps"]

_DATACLASSES: Dict[str, Type] = {}
_ENUMS: Dict[str, Type] = {}
_REGISTERED = False


def _ensure_registered() -> None:
    global _REGISTERED
    if _REGISTERED:
        return
    from repro.core.power_model import PowerModel
    from repro.core.runtime_model import RuntimeModel
    from repro.core.tuning import TuningRecommendation
    from repro.governor import GovernorReport, GovernorSpec
    from repro.hardware.cpu import CpuSpec
    from repro.hardware.node import Measurement
    from repro.hardware.perf import PowerSample
    from repro.hardware.workload import Workload, WorkloadKind
    from repro.iosim.cluster import ClusterDumpReport
    from repro.iosim.dumper import DumpReport
    from repro.iosim.stage import StageReport
    from repro.iosim.nfs import NfsTarget
    from repro.powercap.controller import PowercapReport
    from repro.parallel.instrumentation import ParallelStats, TaskStat
    from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
    from repro.resilience.report import AttemptRecord, SnapshotResilience
    from repro.utils.stats import GoodnessOfFit
    from repro.workflow.campaign import (
        CampaignPoint,
        CampaignReport,
        CheckpointCampaign,
    )
    from repro.workflow.sweep import SweepConfig

    for cls in (
        GoodnessOfFit, PowerModel, RuntimeModel, TuningRecommendation,
        CpuSpec, Measurement, PowerSample, Workload, NfsTarget,
        StageReport, DumpReport, ClusterDumpReport, PowercapReport,
        TaskStat, ParallelStats,
        AttemptRecord, SnapshotResilience, FaultSpec, FaultPlan,
        CampaignPoint, CampaignReport, CheckpointCampaign, SweepConfig,
        GovernorReport, GovernorSpec,
    ):
        _DATACLASSES[cls.__name__] = cls
    for cls in (WorkloadKind, FaultKind):
        _ENUMS[cls.__name__] = cls
    _REGISTERED = True


def _encode(obj: Any) -> Any:
    from repro.core.samples import SampleSet

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, list):
        return [_encode(x) for x in obj]
    if isinstance(obj, tuple):
        return {"__t__": "tuple", "v": [_encode(x) for x in obj]}
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and "__t__" not in obj:
            return {k: _encode(v) for k, v in obj.items()}
        pairs = [[_encode(k), _encode(v)] for k, v in obj.items()]
        pairs.sort(key=lambda kv: canonical_dumps(kv[0]))
        return {"__t__": "dict", "v": pairs}
    if isinstance(obj, (bytes, bytearray)):
        return {"__t__": "bytes", "hex": bytes(obj).hex()}
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__t__": "ndarray",
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "hex": data.tobytes().hex(),
        }
    if isinstance(obj, np.dtype):
        return {"__t__": "dtype", "v": str(obj)}
    if isinstance(obj, SampleSet):
        return {"__t__": "sampleset", "v": [_encode(dict(r)) for r in obj]}
    _ensure_registered()
    cls_name = type(obj).__name__
    if cls_name in _ENUMS and isinstance(obj, _ENUMS[cls_name]):
        return {"__t__": "enum", "cls": cls_name, "v": _encode(obj.value)}
    if cls_name in _DATACLASSES and isinstance(obj, _DATACLASSES[cls_name]):
        fields = {
            f.name: _encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__t__": "dc", "cls": cls_name, "f": fields}
    raise TypeError(
        f"cannot cache values of type {type(obj).__name__!r}; "
        "register the dataclass in repro.cache.serialization"
    )


def _decode(doc: Any) -> Any:
    from repro.core.samples import SampleSet

    if isinstance(doc, list):
        return [_decode(x) for x in doc]
    if not isinstance(doc, dict):
        return doc
    tag = doc.get("__t__")
    if tag is None:
        return {k: _decode(v) for k, v in doc.items()}
    if tag == "tuple":
        return tuple(_decode(x) for x in doc["v"])
    if tag == "dict":
        return {_decode(k): _decode(v) for k, v in doc["v"]}
    if tag == "bytes":
        return bytes.fromhex(doc["hex"])
    if tag == "ndarray":
        data = np.frombuffer(
            bytes.fromhex(doc["hex"]), dtype=np.dtype(doc["dtype"])
        )
        return data.reshape(tuple(doc["shape"])).copy()
    if tag == "dtype":
        return np.dtype(doc["v"])
    if tag == "sampleset":
        return SampleSet(_decode(r) for r in doc["v"])
    _ensure_registered()
    if tag == "enum":
        try:
            return _ENUMS[doc["cls"]](_decode(doc["v"]))
        except KeyError as exc:
            raise ValueError(f"unknown cached enum class {exc}") from exc
    if tag == "dc":
        try:
            cls = _DATACLASSES[doc["cls"]]
        except KeyError as exc:
            raise ValueError(f"unknown cached dataclass {exc}") from exc
        return cls(**{k: _decode(v) for k, v in doc["f"].items()})
    raise ValueError(f"unknown cache value tag {tag!r}")


def canonical_dumps(doc: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators, NaN kept."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def encode_value(obj: Any) -> str:
    """Serialize a result value to canonical JSON text."""
    return canonical_dumps(_encode(obj))


def decode_value(text: str) -> Any:
    """Reconstruct the value from :func:`encode_value` text."""
    return _decode(json.loads(text))
