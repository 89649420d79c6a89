"""Executor abstraction for slab-sharded parallel work.

Chunked compression, dump pipelines and campaign sweeps all reduce to
the same shape of work: map a pure function over N independent items
and collect the results *in submission order*. An :class:`Executor`
owns that mapping; three backends cover the practical space:

``serial``
    Plain loop. Zero overhead, always correct; the baseline every
    parallel backend must match byte-for-byte.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``. Wins when the work
    releases the GIL (zlib, large NumPy kernels) or is I/O bound.
``process``
    ``concurrent.futures.ProcessPoolExecutor`` (fork start method where
    available). The only backend that scales pure-Python codec loops
    such as SZ's Huffman stage; pays pickling + pool start-up, so it
    needs enough work per task to amortize.

:func:`choose_backend` encodes the selection rules; callers that pass
``"auto"`` get them applied to their slab count and codec cost.
Failures propagate eagerly: the first task exception cancels all
not-yet-started work and is re-raised to the caller.
"""

from __future__ import annotations

import abc
import importlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_EXCEPTION
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from concurrent.futures import wait as _wait
from typing import Any, Callable, List, Sequence, Tuple

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "CODEC_COST",
    "available_executors",
    "choose_backend",
    "default_workers",
    "get_executor",
    "resolve_executor",
]

#: Relative CPU cost per input byte of each codec's encode loop, used by
#: the auto-selection rules. gzip is zlib-bound (releases the GIL, cheap);
#: SZ and ZFP are pure-Python/NumPy and only scale across processes.
CODEC_COST = {"gzip": 1.0, "sz": 4.0, "zfp": 8.0}

#: Minimum estimated work (input bytes × codec cost) per worker before a
#: pool pays for itself; below this a serial loop is faster.
_MIN_WORK_PER_WORKER = 1 << 22

#: Process pools need this many tasks to amortize fork/pickle overhead.
_PROCESS_MIN_TASKS = 4


def default_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return max(1, os.cpu_count() or 1)


class _Timed:
    """Picklable wrapper measuring in-worker wall time of each call."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Tuple[Any, float]:
        t0 = time.perf_counter()
        out = self.fn(item)
        return out, time.perf_counter() - t0


class _Failure:
    """Picklable per-task failure marker used by retrying maps."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _Shielded:
    """Picklable wrapper converting task exceptions into :class:`_Failure`.

    Retrying maps need per-item isolation — one bad slab must not
    cancel its siblings the way a plain fail-fast map does — so the
    exception travels back as a value and the retry loop decides.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        try:
            return self.fn(item)
        except Exception as exc:
            return _Failure(exc)


def _bump_attempt(fn: Callable) -> None:
    """Advance the ``attempt`` counter of a (possibly wrapped) task fn.

    Fault-injection callables carry an ``attempt`` attribute so a crash
    planned for attempt 1 clears on the retry. The wrapper chain
    (:class:`_Shielded`/:class:`_Timed`) is walked via ``.fn``; process
    pools pickle the callable at submit time, so the bumped value
    reaches the workers.
    """
    inner: Any = fn
    while inner is not None:
        if hasattr(inner, "attempt"):
            inner.attempt += 1
            return
        inner = getattr(inner, "fn", None)


class Executor(abc.ABC):
    """Maps a function over independent items, preserving order."""

    #: Registered backend name (``serial`` / ``thread`` / ``process``).
    name: str = ""

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    @abc.abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply *fn* to every item; results come back in input order.

        The first exception raised by any task cancels all outstanding
        (not yet started) tasks and propagates to the caller.
        """

    def map_timed(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Tuple[List[Any], Tuple[float, ...]]:
        """Like :meth:`map`, also returning per-task in-worker seconds."""
        pairs = self.map(_Timed(fn), list(items))
        return [r for r, _ in pairs], tuple(t for _, t in pairs)

    def map_retry(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        retries: int = 1,
        on_retry: "Callable[[int, BaseException], None] | None" = None,
    ) -> Tuple[List[Any], Tuple[int, ...]]:
        """Map with per-item isolation and up to *retries* re-runs.

        Where :meth:`map` is fail-fast (first exception cancels the
        rest), this runs every item to completion, then re-submits just
        the failed ones — the recovery mode a crashed slab worker needs.
        *on_retry* is called with ``(index, exception)`` before each
        re-run. When an item still fails with its budget exhausted, the
        earliest-index failure is raised, matching the serial backend's
        first-failure semantics.

        Returns ``(results, retried_indices)``.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        shielded = _Shielded(fn)
        items = list(items)
        results = self.map(shielded, items)
        retried: List[int] = []
        for _ in range(retries):
            failed = [i for i, r in enumerate(results) if isinstance(r, _Failure)]
            if not failed:
                break
            for i in failed:
                if on_retry is not None:
                    on_retry(i, results[i].exc)
            retried.extend(i for i in failed if i not in retried)
            _bump_attempt(shielded)
            redone = self.map(shielded, [items[i] for i in failed])
            for i, r in zip(failed, redone):
                results[i] = r
        for r in results:
            if isinstance(r, _Failure):
                raise r.exc
        return results, tuple(retried)

    def map_timed_retry(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        retries: int = 1,
        on_retry: "Callable[[int, BaseException], None] | None" = None,
    ) -> Tuple[List[Any], Tuple[float, ...], Tuple[int, ...]]:
        """:meth:`map_retry` + per-task in-worker seconds.

        Retried tasks report the timing of their successful run.
        Returns ``(results, times, retried_indices)``.
        """
        pairs, retried = self.map_retry(
            _Timed(fn), items, retries=retries, on_retry=on_retry
        )
        return (
            [r for r, _ in pairs],
            tuple(t for _, t in pairs),
            retried,
        )

    def close(self) -> None:
        """Release pool resources (no-op for serial)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-process loop; the reference every pool must match exactly."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    def map(self, fn, items):
        return [fn(item) for item in items]


class _PoolExecutor(Executor):
    """Shared submit/collect logic for the two pool backends."""

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers if workers is not None else default_workers())
        self._pool = None
        self._close_lock = threading.Lock()

    @abc.abstractmethod
    def _make_pool(self):
        """Construct the underlying concurrent.futures pool."""

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def map(self, fn, items):
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        done, _ = _wait(futures, return_when=FIRST_EXCEPTION)
        if any(f.exception() is not None for f in done if not f.cancelled()):
            # Something failed. Cancel whatever has not started, then
            # wait for the in-flight tasks so the *earliest-submitted*
            # failure wins — a pool must report the same exception a
            # serial loop over the same items would, not whichever
            # task happened to crash first on the wall clock.
            for fut in futures:
                fut.cancel()
            _wait(futures)
            for fut in futures:
                if not fut.cancelled() and fut.exception() is not None:
                    raise fut.exception()
        results = []
        for index, fut in enumerate(futures):
            if fut.cancelled():  # pragma: no cover - defensive
                raise RuntimeError(
                    f"task {index} was cancelled before completion; "
                    "its result (and any worker error) is unavailable"
                )
            results.append(fut.result())
        return results

    def close(self) -> None:
        """Shut the pool down; idempotent and safe from ``__del__``.

        Interpreter shutdown can run ``__del__`` on a thread that is
        concurrently inside an explicit ``close()`` (or a second
        ``close()`` from a ``with`` block after a manual one), so the
        pool handle is claimed under a lock and shut down exactly once.
        """
        with self._close_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            # Finalizers must never raise; a half-torn-down interpreter
            # can legitimately fail the shutdown call.
            pass


class ThreadExecutor(_PoolExecutor):
    """Thread pool: best for GIL-releasing or I/O-bound task bodies."""

    name = "thread"

    def _make_pool(self):
        return _ThreadPool(max_workers=self.workers)


class ProcessExecutor(_PoolExecutor):
    """Process pool: scales pure-Python codec loops across cores.

    Task functions and items must be picklable (module-level functions
    plus plain dataclasses/arrays — everything in this library is).
    """

    name = "process"

    def _make_pool(self):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        return _ProcessPool(max_workers=self.workers, mp_context=ctx)


_BACKENDS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}

#: Backends resolved on first use. ``repro.distributed`` imports this
#: module for the :class:`Executor` base, so its executor registers by
#: dotted path instead of by import — the parallel layer stays free of
#: socket/subprocess machinery until someone actually asks for a fleet.
_LAZY_BACKENDS = {
    "distributed": ("repro.distributed.coordinator", "DistributedExecutor"),
}


def available_executors() -> Tuple[str, ...]:
    """Names of the registered backends (plus the ``auto`` selector)."""
    return tuple(sorted((*_BACKENDS, *_LAZY_BACKENDS))) + ("auto",)


def choose_backend(
    n_tasks: int,
    task_nbytes: int = 0,
    codec_cost: float = 4.0,
    workers: int | None = None,
) -> str:
    """Pick a backend name for *n_tasks* independent tasks.

    Rules, in order:

    1. Fewer than 2 tasks or 2 usable workers → ``serial``.
    2. Estimated work (``task_nbytes × n_tasks × codec_cost``) under
       4 MiB-equivalents per worker → ``serial`` (pool overhead wins).
    3. CPU-heavy codecs (cost ≥ 2) with enough tasks to amortize a
       fork → ``process``; the GIL makes threads useless for them.
    4. Otherwise → ``thread``.
    """
    if n_tasks < 1:
        return "serial"
    usable = min(n_tasks, workers if workers is not None else default_workers())
    if n_tasks < 2 or usable < 2:
        return "serial"
    if task_nbytes * n_tasks * codec_cost < _MIN_WORK_PER_WORKER * usable:
        return "serial"
    if codec_cost >= 2.0 and n_tasks >= _PROCESS_MIN_TASKS:
        return "process"
    return "thread"


def get_executor(kind: str, workers: int | None = None) -> Executor:
    """Instantiate a backend by name.

    ``serial``/``thread``/``process`` construct directly;
    ``distributed`` imports its module on first use (see
    ``_LAZY_BACKENDS``). ``choose_backend`` never auto-selects the
    distributed backend — a fleet is something callers opt into.
    """
    key = kind.lower()
    if key in _LAZY_BACKENDS and key not in _BACKENDS:
        module_name, attr = _LAZY_BACKENDS[key]
        _BACKENDS[key] = getattr(importlib.import_module(module_name), attr)
    if key not in _BACKENDS:
        raise KeyError(
            f"unknown executor {kind!r}; available: {available_executors()}"
        )
    if key == SerialExecutor.name:
        return SerialExecutor()
    return _BACKENDS[key](workers)


def resolve_executor(
    spec: "Executor | str" = "auto",
    workers: int | None = None,
    *,
    n_tasks: int = 0,
    task_nbytes: int = 0,
    codec_cost: float = 4.0,
) -> Tuple[Executor, bool]:
    """Resolve an executor spec to ``(executor, owned)``.

    *spec* may be an :class:`Executor` instance (returned as-is,
    ``owned=False`` — the caller must not close it), a backend name, or
    ``"auto"`` to apply :func:`choose_backend` to the task profile.
    Worker counts are capped at the task count so short maps never spin
    up idle workers.
    """
    if isinstance(spec, Executor):
        return spec, False
    kind = spec.lower()
    if kind == "auto":
        kind = choose_backend(n_tasks, task_nbytes, codec_cost, workers)
    if kind != SerialExecutor.name and n_tasks > 0:
        workers = min(workers if workers is not None else default_workers(), n_tasks)
    return get_executor(kind, workers), True
