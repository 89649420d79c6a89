"""Unit + concurrency tests for the service model registry."""

import threading

import pytest

from repro.core.persistence import ModelBundle
from repro.observability.metrics import get_registry as get_metrics_registry
from repro.service.errors import BadRequestError, NotFoundError
from repro.service.registry import ModelRegistry
from tests.service_helpers import make_bundle


@pytest.fixture(autouse=True)
def fresh_metrics():
    get_metrics_registry().reset()
    yield
    get_metrics_registry().reset()


class TestPutGet:
    def test_put_returns_versioned_entry(self):
        reg = ModelRegistry()
        entry = reg.put("prod", make_bundle())
        assert (entry.name, entry.version) == ("prod", 1)
        assert entry.fingerprint == make_bundle().fingerprint()
        assert entry.architectures == ("broadwell",)

    def test_get_latest_and_explicit_version(self):
        reg = ModelRegistry()
        reg.put("prod", make_bundle(a=0.001))
        reg.put("prod", make_bundle(a=0.002))
        assert reg.get("prod").compression_power["Broadwell"].a == 0.002
        assert reg.get("prod", 1).compression_power["Broadwell"].a == 0.001
        assert reg.entry("prod").version == 2

    def test_content_addressed_put_is_idempotent(self):
        reg = ModelRegistry()
        first = reg.put("prod", make_bundle())
        again = reg.put("prod", make_bundle())
        assert again == first
        assert len(reg) == 1

    def test_same_content_under_two_names_is_two_entries(self):
        reg = ModelRegistry()
        reg.put("a", make_bundle())
        reg.put("b", make_bundle())
        assert reg.names() == ("a", "b")
        assert len(reg) == 2

    def test_unknown_name_and_version(self):
        reg = ModelRegistry()
        with pytest.raises(NotFoundError, match="unknown model"):
            reg.get("nope")
        reg.put("prod", make_bundle())
        with pytest.raises(NotFoundError, match="no version 5"):
            reg.get("prod", 5)

    def test_invalid_names_rejected(self):
        reg = ModelRegistry()
        for bad in ("", "-lead", "a b", "x" * 129, "a/../b"):
            with pytest.raises(BadRequestError, match="invalid model name"):
                reg.put(bad, make_bundle())

    def test_put_json_validates(self):
        reg = ModelRegistry()
        with pytest.raises(BadRequestError, match="not a valid"):
            reg.put_json("prod", "{broken")
        entry = reg.put_json("prod", make_bundle().to_json())
        assert entry.version == 1

    def test_json_text_is_canonical_roundtrip(self):
        reg = ModelRegistry()
        reg.put("prod", make_bundle())
        restored = ModelBundle.from_json(reg.json_text("prod"))
        assert restored.fingerprint() == make_bundle().fingerprint()


class TestLruCache:
    def test_hit_and_miss_counters(self):
        reg = ModelRegistry(cache_size=1)
        reg.put("a", make_bundle(a=0.001))
        reg.put("b", make_bundle(a=0.002))
        metrics = get_metrics_registry()
        hits = metrics.counter("repro_service_registry_hits_total")
        misses = metrics.counter("repro_service_registry_misses_total")
        h0, m0 = hits.value, misses.value
        reg.get("b")  # cached by put
        assert (hits.value, misses.value) == (h0 + 1, m0)
        reg.get("a")  # evicted by b's put: re-parse
        assert (hits.value, misses.value) == (h0 + 1, m0 + 1)
        reg.get("a")  # hot again
        assert (hits.value, misses.value) == (h0 + 2, m0 + 1)

    def test_eviction_still_serves_correct_content(self):
        reg = ModelRegistry(cache_size=2)
        for i in range(5):
            reg.put(f"m{i}", make_bundle(a=0.001 * (i + 1)))
        for i in range(5):
            assert reg.get(f"m{i}").compression_power["Broadwell"].a == (
                pytest.approx(0.001 * (i + 1))
            )

    def test_cache_size_validated(self):
        with pytest.raises(ValueError, match="cache_size"):
            ModelRegistry(cache_size=0)


class TestWarmStart:
    def test_load_dir_registers_by_stem(self, tmp_path):
        make_bundle(a=0.001).save(tmp_path / "alpha.json")
        make_bundle(a=0.002).save(tmp_path / "beta.json")
        (tmp_path / "notes.txt").write_text("ignored")
        reg = ModelRegistry()
        entries = reg.load_dir(str(tmp_path))
        assert [e.name for e in entries] == ["alpha", "beta"]
        assert reg.get("beta").compression_power["Broadwell"].a == 0.002

    def test_corrupt_file_stops_boot(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(ValueError, match="bad.json"):
            ModelRegistry().load_dir(str(tmp_path))


class TestConcurrency:
    def test_parallel_get_put_never_serves_torn_bundle(self):
        """Satellite: hammer one name with writers + readers.

        Every read must observe a complete bundle whose fingerprint is
        one of the fingerprints some writer registered — never a blend.
        """
        reg = ModelRegistry(cache_size=2)
        n_writers, n_readers, rounds = 4, 8, 25
        valid = {make_bundle(a=0.001 * (w + 1)).fingerprint()
                 for w in range(n_writers)}
        reg.put("shared", make_bundle(a=0.001))
        errors = []
        seen = []
        start = threading.Barrier(n_writers + n_readers)

        def writer(w):
            start.wait()
            bundle = make_bundle(a=0.001 * (w + 1))
            for _ in range(rounds):
                try:
                    reg.put("shared", bundle)
                    reg.put(f"own-{w}", bundle)
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)

        def reader():
            start.wait()
            for _ in range(rounds * 2):
                try:
                    bundle, entry = reg.get_with_entry("shared")
                    fp = bundle.fingerprint()
                    seen.append((fp, entry.fingerprint))
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(n_writers)]
        threads += [threading.Thread(target=reader) for _ in range(n_readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        assert len(seen) == n_readers * rounds * 2
        for bundle_fp, entry_fp in seen:
            # The parsed bundle matches its entry exactly (no tearing),
            # and both are something a writer actually registered.
            assert bundle_fp == entry_fp
            assert bundle_fp in valid

    def test_parallel_versioning_is_dense(self):
        """Concurrent distinct puts produce versions 1..n exactly once."""
        reg = ModelRegistry()
        results = []
        start = threading.Barrier(8)

        def put(w):
            start.wait()
            results.append(reg.put("m", make_bundle(a=0.01 * (w + 1))).version)

        threads = [threading.Thread(target=put, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert sorted(results) == list(range(1, 9))
