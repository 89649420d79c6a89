"""Parallel execution layer: executor contract + round-trip properties.

Two families of guarantees:

1. **Executor contract** — ordered results, first-error propagation with
   cancellation of queued work, auto-selection rules.
2. **Round-trip properties** — seeded random arrays over dtype / shape /
   error bound / memory layout (Fortran-ordered and non-contiguous
   included) must reconstruct within ``max|x - x̂| ≤ eb`` for SZ, ZFP
   and ChunkedCompressor under every executor backend, with the chunked
   container byte-identical across backends.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import ChunkedCompressor, SZCompressor, ZFPCompressor
from repro.compressors.base import CompressionError
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    choose_backend,
    default_workers,
    get_executor,
    resolve_executor,
)


# Module-level so the process pool can pickle them.
def _square(x):
    return x * x


def _fail_on_negative(x):
    if x < 0:
        raise ValueError(f"negative task {x}")
    return x


@pytest.fixture(scope="module")
def thread_pool():
    with ThreadExecutor(2) as ex:
        yield ex


@pytest.fixture(scope="module")
def process_pool():
    with ProcessExecutor(2) as ex:
        yield ex


class TestExecutorContract:
    def test_results_keep_submission_order(self, thread_pool, process_pool):
        items = list(range(50))
        expected = [x * x for x in items]
        assert SerialExecutor().map(_square, items) == expected
        assert thread_pool.map(_square, items) == expected
        assert process_pool.map(_square, items) == expected

    def test_map_timed_returns_per_task_seconds(self, thread_pool):
        results, times = thread_pool.map_timed(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        assert len(times) == 3
        assert all(t >= 0.0 for t in times)

    def test_empty_and_single_item_maps(self, thread_pool):
        assert thread_pool.map(_square, []) == []
        assert thread_pool.map(_square, [7]) == [49]

    @pytest.mark.parametrize("make", [
        SerialExecutor,
        lambda: ThreadExecutor(2),
        lambda: ProcessExecutor(2),
    ], ids=["serial", "thread", "process"])
    def test_task_error_propagates(self, make):
        with make() as ex:
            with pytest.raises(ValueError, match="negative task"):
                ex.map(_fail_on_negative, [1, -2, 3, 4])

    def test_failure_cancels_queued_tasks(self):
        # One worker: the first task fails while the rest are still
        # queued, so cancellation must prevent (most of) them running.
        ran = []
        lock = threading.Lock()

        def task(i):
            with lock:
                ran.append(i)
            if i == 0:
                raise RuntimeError("boom")
            return i

        with ThreadExecutor(1) as ex:
            with pytest.raises(RuntimeError, match="boom"):
                ex.map(task, list(range(16)))
        assert len(ran) <= 2  # the failing task + at most one in flight

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(KeyError):
            get_executor("gpu")

    def test_registry(self):
        names = available_executors()
        assert {"serial", "thread", "process", "auto"} <= set(names)


class TestAutoSelection:
    BIG = 64 << 20  # per-task bytes that dwarf any pool overhead

    def test_few_tasks_stay_serial(self):
        assert choose_backend(1, self.BIG, codec_cost=8.0) == "serial"
        assert choose_backend(0) == "serial"

    def test_single_worker_stays_serial(self):
        assert choose_backend(64, self.BIG, codec_cost=8.0, workers=1) == "serial"

    def test_tiny_work_stays_serial(self):
        assert choose_backend(64, task_nbytes=128, codec_cost=8.0, workers=4) == "serial"

    def test_heavy_codec_goes_process(self):
        assert choose_backend(64, self.BIG, codec_cost=8.0, workers=4) == "process"

    def test_gil_releasing_codec_goes_thread(self):
        assert choose_backend(64, self.BIG, codec_cost=1.0, workers=4) == "thread"

    def test_resolve_passes_instances_through_unowned(self):
        mine = SerialExecutor()
        ex, owned = resolve_executor(mine, n_tasks=100)
        assert ex is mine and not owned

    def test_resolve_caps_workers_at_task_count(self):
        ex, owned = resolve_executor("thread", workers=64, n_tasks=3)
        try:
            assert ex.workers == 3 and owned
        finally:
            ex.close()

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestCloseIdempotency:
    """Regression: close() must survive double-close and __del__ races.

    Interpreter shutdown can run ``__del__`` while (or after) an
    explicit ``close()`` ran — historically the second shutdown call
    reached a dead pool. ``close`` now claims the pool handle under a
    lock, so any interleaving of closes shuts the pool down exactly
    once and every later call is a no-op.
    """

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_double_close_after_use(self, cls):
        ex = cls(2)
        assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
        ex.close()
        ex.close()
        ex.close()

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_close_without_use(self, cls):
        ex = cls(2)
        ex.close()
        ex.close()

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_del_interleaved_with_close(self, cls):
        ex = cls(2)
        ex.map(_square, [1, 2, 3])
        ex.close()
        ex.__del__()  # what GC would run; must be silent
        ex.close()

    def test_concurrent_closes_shut_down_once(self):
        # Many threads racing close() on a used pool: no exception, and
        # the pool handle ends cleared.
        ex = ThreadExecutor(2)
        ex.map(_square, list(range(8)))
        errors = []

        def _close():
            try:
                ex.close()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=_close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert ex._pool is None

    def test_context_manager_then_explicit_close(self):
        with ThreadExecutor(2) as ex:
            ex.map(_square, [1, 2])
            ex.close()  # early close inside the with-block
        ex.close()  # and once more after __exit__ already closed


def _random_array(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(3, 10)) for _ in range(ndim))
    seed = draw(st.integers(0, 2**31))
    scale = draw(st.sampled_from([1e-2, 1.0]))
    arr = np.random.default_rng(seed).normal(scale=scale, size=shape).astype(dtype)
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and arr.shape[0] >= 6:
        arr = arr[::2]  # non-contiguous view along the slab axis
    return arr


arrays = st.composite(_random_array)()
bounds = st.sampled_from([1e-1, 1e-2, 1e-3])


class TestCodecRoundTripProperties:
    @pytest.mark.parametrize("codec", [SZCompressor(), ZFPCompressor()],
                             ids=lambda c: c.name)
    @given(arr=arrays, eb=bounds)
    @settings(max_examples=25, deadline=None)
    def test_bound_holds(self, codec, arr, eb):
        buf, rec = codec.roundtrip(arr, eb)
        assert rec.shape == buf.shape
        assert np.max(np.abs(arr.astype(np.float64) - rec.astype(np.float64))) <= eb


class TestChunkedRoundTripAllBackends:
    @pytest.mark.parametrize("codec", ["sz", "zfp"])
    @given(arr=arrays, eb=bounds)
    @settings(max_examples=15, deadline=None)
    def test_backends_agree_and_hold_bound(self, thread_pool, process_pool,
                                           codec, arr, eb):
        blobs = {}
        for ex in (SerialExecutor(), thread_pool, process_pool):
            cc = ChunkedCompressor(codec, max_chunk_bytes=256, executor=ex)
            container = cc.compress(arr, eb)
            rec = cc.decompress(container)
            assert rec.shape == np.ascontiguousarray(arr).shape
            assert np.max(
                np.abs(arr.astype(np.float64) - rec.astype(np.float64))
            ) <= eb
            blobs[ex.name] = container.to_bytes()
        assert blobs["serial"] == blobs["thread"] == blobs["process"]

    @pytest.mark.parametrize("codec", ["sz", "zfp"])
    def test_64_slab_pool_output_byte_identical_to_serial(
        self, thread_pool, process_pool, codec
    ):
        # Acceptance case: >= 64 slabs, pool output == serial output.
        arr = np.random.default_rng(7).normal(size=(64, 128)).astype(np.float32)
        reference = None
        for ex in (SerialExecutor(), thread_pool, process_pool):
            cc = ChunkedCompressor(codec, max_chunk_bytes=512, executor=ex)
            container = cc.compress(arr, 1e-2)
            assert len(container.chunks) == 64
            blob = container.to_bytes()
            if reference is None:
                reference = blob
            assert blob == reference
            assert cc.last_stats is not None
            assert cc.last_stats.n_tasks == 64
            assert cc.last_stats.bytes_in == arr.nbytes
            rec = cc.decompress(container)
            assert np.max(np.abs(arr - rec)) <= 1e-2

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_slab_error_propagates_from_every_backend(self, executor):
        arr = np.ones((16, 64), dtype=np.float32)
        arr[-1, 0] = np.nan  # poisons only the last slab
        cc = ChunkedCompressor("sz", max_chunk_bytes=256,
                               executor=executor, workers=2)
        with pytest.raises(CompressionError, match="finite"):
            cc.compress(arr, 1e-2)

    def test_instrumentation_records_per_slab_stats(self):
        arr = np.random.default_rng(1).normal(size=(8, 32)).astype(np.float32)
        cc = ChunkedCompressor("sz", max_chunk_bytes=128, executor="serial")
        container = cc.compress(arr, 1e-2)
        stats = cc.last_stats
        assert stats.executor == "serial" and stats.workers == 1
        assert stats.n_tasks == len(container.chunks)
        assert stats.bytes_in == arr.nbytes
        assert stats.bytes_out == sum(c.nbytes for c in container.chunks)
        assert stats.wall_s > 0 and stats.task_seconds > 0
        assert stats.concurrency == pytest.approx(
            stats.task_seconds / stats.wall_s, rel=1e-6
        )
        row = stats.as_row()
        assert row["tasks"] == stats.n_tasks
        assert "concurrency" in stats.summary()
