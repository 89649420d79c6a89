"""Differential cached-vs-cold harness for the result cache.

Every cached entry point runs cold, then warm, and the two results are
compared *byte-for-byte* (via the cache's own canonical encoding, so
NaN-bearing payloads compare cleanly). A warm run must also recompute
nothing — asserted against the ``repro_cache_{hits,misses}_total``
counters, not wall time. Poisoned entries must raise
:class:`~repro.cache.CacheCorruptionError` (or the schema
``ValueError``); silently serving stale bytes is the one failure mode
this file exists to make impossible.

CI runs this file under the 3-backend ``REPRO_TEST_EXECUTOR`` matrix;
cache keys never include the executor, so the same disk cache must
serve all of them identically.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheCorruptionError,
    ResultCache,
    canonical_json,
    encode_value,
    fingerprint,
    set_cache,
)
from repro.core.persistence import SCHEMA_VERSION
from repro.core.pipeline import TunedIOPipeline
from repro.core.tuning import PAPER_POLICY, recommend_from_models
from repro.data import load_field
from repro.hardware.cpu import SKYLAKE_4114
from repro.observability.metrics import get_registry as get_metrics_registry
from repro.workflow.campaign import (
    CheckpointCampaign,
    RunConfig,
    run_campaign_sweep,
)
from repro.workflow.sweep import SweepConfig, default_nodes

#: CI matrix knob; keys exclude the backend, so results must not vary.
EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "serial")

CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=int(8e9), n_snapshots=2, compute_interval_s=600.0
)
POINTS = (
    RunConfig(error_bound=1e-1),
    RunConfig(error_bound=1e-2),
    RunConfig(error_bound=1e-2, compress_freq_ghz=1.925,
              write_freq_ghz=1.85),
)

#: Deliberately tiny sweep; the harness compares, it does not fit-check.
SWEEP = SweepConfig(
    datasets=(("nyx", "velocity_x"),),
    error_bounds=(1e-1,),
    transit_sizes_gb=(1.0,),
    repeats=2,
    data_scale=64,
    frequency_stride=6,
)


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=64)


@pytest.fixture(autouse=True)
def fresh_state(tmp_path):
    """A scratch disk-backed cache as the process cache, fresh metrics."""
    get_metrics_registry().reset()
    cache = ResultCache(disk_dir=tmp_path / "cache")
    previous = set_cache(cache)
    yield cache
    set_cache(previous if previous is not None else ResultCache())
    get_metrics_registry().reset()


def sweep_kwargs(**overrides):
    kw = dict(repeats=1, seed=0, executor=EXECUTOR)
    kw.update(overrides)
    return kw


def run_sweep(sample, **overrides):
    return run_campaign_sweep(
        SKYLAKE_4114, "sz", sample, POINTS, CAMPAIGN, **sweep_kwargs(**overrides)
    )


class TestCampaignSweepDifferential:
    def test_warm_is_byte_identical_and_recomputes_nothing(
        self, fresh_state, sample
    ):
        cold = run_sweep(sample)
        after_cold = fresh_state.stats()
        assert after_cold["misses"] == len(POINTS)

        warm = run_sweep(sample)
        after_warm = fresh_state.stats()
        # Zero recomputation: not one new miss, one hit per point.
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] == after_cold["hits"] + len(POINTS)
        hits_metric = get_metrics_registry().counter(
            "repro_cache_hits_total", labels={"context": "campaign.point"}
        )
        assert hits_metric.value == len(POINTS)
        for a, b in zip(cold, warm):
            assert encode_value(a) == encode_value(b)

    @pytest.mark.parametrize("warm_executor", ["thread", "process",
                                               "distributed"])
    def test_serial_cold_serves_pool_warm(
        self, fresh_state, sample, warm_executor
    ):
        # Keys are computed in the parent and never mention the backend:
        # a serial cold run must fully warm every other executor.
        cold = run_sweep(sample, executor="serial")
        misses = fresh_state.stats()["misses"]
        warm = run_sweep(sample, executor=warm_executor, workers=2)
        assert fresh_state.stats()["misses"] == misses
        for a, b in zip(cold, warm):
            assert encode_value(a) == encode_value(b)

    def test_disk_tier_alone_reproduces_cold(self, tmp_path, sample):
        # A new process sees an empty memory tier; model that by
        # pointing a fresh cache at the same directory.
        disk_dir = tmp_path / "cache"
        cold_cache = ResultCache(disk_dir=disk_dir)
        previous = set_cache(cold_cache)
        try:
            cold = run_sweep(sample)
            warm_cache = ResultCache(disk_dir=disk_dir)
            set_cache(warm_cache)
            warm = run_sweep(sample)
            stats = warm_cache.stats()
            assert stats["misses"] == 0 and stats["hits"] == len(POINTS)
            for a, b in zip(cold, warm):
                assert encode_value(a) == encode_value(b)
        finally:
            set_cache(previous if previous is not None else ResultCache())

    def test_perturbed_inputs_recompute(self, fresh_state, sample):
        run_sweep(sample)
        misses = fresh_state.stats()["misses"]
        run_sweep(sample, seed=1)  # same points, different node seed
        assert fresh_state.stats()["misses"] == misses + len(POINTS)

    def test_disabled_cache_stores_nothing(self, sample, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "off", enabled=False)
        previous = set_cache(cache)
        try:
            run_sweep(sample)
            stats = cache.stats()
            assert stats["hits"] == stats["misses"] == 0
            assert stats["disk_entries"] == 0
        finally:
            set_cache(previous if previous is not None else ResultCache())


class TestCharacterizeDifferential:
    def test_warm_characterize_refits_nothing(self, fresh_state):
        cold = TunedIOPipeline(default_nodes()).characterize(SWEEP)
        after_cold = fresh_state.stats()
        assert after_cold["misses"] > 0

        warm = TunedIOPipeline(default_nodes()).characterize(SWEEP)
        after_warm = fresh_state.stats()
        assert after_warm["misses"] == after_cold["misses"]
        fit_misses = get_metrics_registry().counter(
            "repro_cache_misses_total", labels={"context": "pipeline.fit"}
        )
        fit_hits = get_metrics_registry().counter(
            "repro_cache_hits_total", labels={"context": "pipeline.fit"}
        )
        assert fit_hits.value == fit_misses.value  # every fit reused once

        for attr in ("compression_samples", "transit_samples",
                     "compression_models", "transit_models",
                     "compression_runtime", "transit_runtime"):
            assert encode_value(getattr(warm, attr)) == \
                encode_value(getattr(cold, attr)), attr

    def test_warm_recommendations_identical(self, fresh_state):
        pipe = TunedIOPipeline(default_nodes())
        out = pipe.characterize(SWEEP)
        cold = pipe.recommend(out, PAPER_POLICY).recommendations
        misses = fresh_state.stats()["misses"]
        warm = pipe.recommend(out, PAPER_POLICY).recommendations
        assert fresh_state.stats()["misses"] == misses
        assert encode_value(warm) == encode_value(cold)


class TestTuningDifferential:
    def test_recommend_from_models_memoizes(self, fresh_state):
        out = TunedIOPipeline(default_nodes()).characterize(SWEEP)
        arch = "Skylake"
        args = (SKYLAKE_4114, "compress", out.compression_models[arch],
                out.compression_runtime["skylake"], PAPER_POLICY)
        cold = recommend_from_models(*args)
        ctx = {"context": "tuning.recommend"}
        reg = get_metrics_registry()
        assert reg.counter("repro_cache_misses_total", labels=ctx).value == 1
        warm = recommend_from_models(*args)
        assert reg.counter("repro_cache_misses_total", labels=ctx).value == 1
        assert reg.counter("repro_cache_hits_total", labels=ctx).value == 1
        assert encode_value(warm) == encode_value(cold)
        assert warm == cold  # no NaN fields; object equality must agree


class TestPoisonedEntries:
    """Tampered entries fail hard; staleness is never silent."""

    def _single_key(self, cache):
        keys = cache._disk.keys()
        assert len(keys) >= 1
        return keys[0]

    def _poison(self, tmp_path, rewrite):
        """Cold-run one point, mutate its disk doc, return a fresh cache."""
        disk_dir = tmp_path / "cache"
        cache = ResultCache(disk_dir=disk_dir)
        previous = set_cache(cache)
        try:
            run_campaign_sweep(
                SKYLAKE_4114, "sz",
                load_field("nyx", "velocity_x", scale=64),
                (RunConfig(error_bound=1e-1),), CAMPAIGN,
                **sweep_kwargs(),
            )
            key = self._single_key(cache)
            path = os.path.join(str(disk_dir), key + ".json")
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            body = rewrite(doc)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body if isinstance(body, str) else json.dumps(body))
            fresh = ResultCache(disk_dir=disk_dir)
            set_cache(fresh)
            return fresh
        finally:
            set_cache(previous if previous is not None else ResultCache())

    def _warm_run(self):
        return run_campaign_sweep(
            SKYLAKE_4114, "sz", load_field("nyx", "velocity_x", scale=64),
            (RunConfig(error_bound=1e-1),), CAMPAIGN, **sweep_kwargs(),
        )

    def test_tampered_value_raises(self, tmp_path):
        def rewrite(doc):
            doc["value"] = doc["value"].replace("1", "2", 1)
            return doc  # digest now disagrees with the value text

        cache = self._poison(tmp_path, rewrite)
        previous = set_cache(cache)
        try:
            with pytest.raises(CacheCorruptionError, match="digest"):
                self._warm_run()
        finally:
            set_cache(previous if previous is not None else ResultCache())

    def test_torn_write_raises(self, tmp_path):
        cache = self._poison(
            tmp_path, lambda doc: json.dumps(doc)[: len(json.dumps(doc)) // 2]
        )
        previous = set_cache(cache)
        try:
            with pytest.raises(CacheCorruptionError, match="torn"):
                self._warm_run()
        finally:
            set_cache(previous if previous is not None else ResultCache())

    def test_newer_schema_raises_with_upgrade_hint(self, tmp_path):
        def rewrite(doc):
            doc["schema_version"] = SCHEMA_VERSION + 1
            return doc

        cache = self._poison(tmp_path, rewrite)
        previous = set_cache(cache)
        try:
            with pytest.raises(ValueError, match="newer build"):
                self._warm_run()
        finally:
            set_cache(previous if previous is not None else ResultCache())

    def test_memory_tier_tampering_raises(self, fresh_state):
        key = fingerprint(kind="poison-test", value=1)
        fresh_state.store(key, {"x": 1})
        text, digest = fresh_state._memory.get(key)
        fresh_state._memory.put(key, text + " ", digest)
        with pytest.raises(CacheCorruptionError, match="digest"):
            fresh_state.lookup(key)


# ----------------------------------------------------------------------
# Fingerprint properties
# ----------------------------------------------------------------------

campaign_st = st.builds(
    CheckpointCampaign,
    snapshot_bytes=st.integers(1, int(1e12)),
    n_snapshots=st.integers(1, 64),
    compute_interval_s=st.floats(0.0, 1e5, allow_nan=False),
    compute_power_w=st.floats(1.0, 500.0, allow_nan=False),
)
point_st = st.builds(
    RunConfig,
    error_bound=st.floats(1e-6, 1.0, allow_nan=False, exclude_min=False),
    compress_freq_ghz=st.one_of(st.none(), st.floats(0.8, 3.0)),
    write_freq_ghz=st.one_of(st.none(), st.floats(0.8, 3.0)),
)


class TestFingerprintProperties:
    @given(campaign_st, campaign_st, point_st, point_st)
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_injective_over_perturbed_configs(self, c1, c2, p1, p2):
        f1 = fingerprint(kind="t", campaign=c1, point=p1)
        f2 = fingerprint(kind="t", campaign=c2, point=p2)
        same_inputs = canonical_json({"c": c1, "p": p1}) == \
            canonical_json({"c": c2, "p": p2})
        assert (f1 == f2) == same_inputs

    @given(st.permutations(["alpha", "beta", "gamma", "delta"]),
           st.integers(0, 9))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dict_insertion_order_never_leaks(self, order, value):
        base = {k: {"v": value, "k": k} for k in ["alpha", "beta", "gamma",
                                                 "delta"]}
        shuffled = {k: base[k] for k in order}
        assert fingerprint(kind="t", payload=shuffled) == \
            fingerprint(kind="t", payload=base)

    def test_stable_across_processes(self):
        # The disk tier is shared between runs of different processes;
        # a fingerprint must not embed ids, hash seeds or repr addresses.
        prog = (
            "from repro.cache import fingerprint\n"
            "from repro.hardware.cpu import SKYLAKE_4114\n"
            "from repro.workflow.campaign import CheckpointCampaign\n"
            "c = CheckpointCampaign(snapshot_bytes=10**9, n_snapshots=3,"
            " compute_interval_s=60.0)\n"
            "print(fingerprint(kind='t', cpu=SKYLAKE_4114, campaign=c,"
            " eb=1e-3))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "src")) if p
        )
        env["PYTHONHASHSEED"] = "31337"  # prove hash seeds don't leak
        out = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            env=env, check=True,
        ).stdout.strip()
        c = CheckpointCampaign(
            snapshot_bytes=10**9, n_snapshots=3, compute_interval_s=60.0
        )
        assert out == fingerprint(
            kind="t", cpu=SKYLAKE_4114, campaign=c, eb=1e-3
        )
