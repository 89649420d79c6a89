"""Shared pieces of the four workloads: the base class and small helpers."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

from tracing import NullRecorder

ROOT = Path(__file__).resolve().parent.parent
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: Seed whose output digests are pinned in ``pinned.json``. Any other
#: seed derives its references after the timed region instead.
DEFAULT_SEED = 0


def sibling_script(name: str):
    """Import one of the repository's ``benchmarks/`` scripts as a module.

    The benchmark reuses helpers those scripts already define (the
    calibration loop, the demo model bundle, the fixed request set)
    rather than keeping second copies of them.
    """
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned(workload: str, seed: int):
    """The pinned digests of *workload*, or ``None`` off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(PINNED_PATH) as fh:
        return json.load(fh).get(workload)


class Workload:
    """One named flow through the program's public API.

    ``setup`` builds everything a user pays for before the first
    result and may run several times (each call replaces the previous
    state). ``cycle`` performs one fixed block of operations, timing
    each one into :attr:`latencies` (wall) and :attr:`op_cpu` (CPU). ``verify`` derives the references
    a check needs outside the timed region and set-up; ``close`` stops
    every process and thread the workload started.
    """

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.scratch = scratch
        self.rec = NullRecorder()
        self.latencies = []
        #: CPU seconds of each operation (see :meth:`cpu_seconds`).
        self.op_cpu = []
        self.attempted = 0
        self.failed = 0
        #: Measurements the traced run reports beside the spans.
        self.extra = {}

    def cpu_seconds(self) -> float:
        """CPU time this process and its live helper processes have used."""
        return time.process_time()

    def fail(self, message: str, count: int = 1) -> None:
        """Count *count* operations as failed and say why on stderr."""
        self.failed += count
        print(f"FAIL {self.name}: {message}", file=sys.stderr)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Check against references; default: the in-cycle checks suffice."""

    def close(self) -> None:
        """Release processes, threads and sockets; default: nothing held."""

    def named_metrics(self, elapsed_s: float):
        """The workload's own figures, printed by name beside the result."""
        return {}
