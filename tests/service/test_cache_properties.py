"""Cache-key soundness and hit byte-identity (ISSUE 6 satellite).

Two properties the service's correctness rests on:

1. **soundness** -- any input that can change what the pipeline emits
   (source text, machine, or *any* output-affecting PipelineConfig
   field) changes the cache key, so two different compiles can never
   alias one artifact.  The fingerprint iterates the dataclass fields,
   so a config knob added in a future PR joins the key automatically --
   the test iterates the same fields, so it starts covering the new
   knob on the same day.
2. **hit byte-identity** -- an artifact served from the cache (memory or
   disk) is byte-identical to the compile that seeded it.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiler
from repro.obs.metrics import MetricsCollector
from repro.resilience.ladder import ResilienceConfig
from repro.sched.candidates import ScheduleLevel
from repro.sched.profiling import BranchProfile
from repro.service import Daemon, ServeConfig, worker
from repro.service.cache import (
    NON_OUTPUT_FIELDS,
    Artifact,
    ArtifactCache,
    cache_key,
    config_fingerprint,
)
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program
from repro.xform.pipeline import PipelineConfig

SOURCE = "int f(int x) { return x + 1; }"


def _variant(name: str, value):
    """A legal value for field ``name`` that differs from ``value``."""
    if isinstance(value, ScheduleLevel):
        others = [lv for lv in ScheduleLevel if lv is not value]
        return others[0]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return {
            "profile": BranchProfile(block_counts={"entry.0": 3}, runs=1),
            "resilience": ResilienceConfig(),
        }.get(name, 1)
    raise AssertionError(
        f"no variant rule for PipelineConfig field {name!r} "
        f"(type {type(value).__name__}); teach the soundness test "
        f"about it")


class TestKeySoundness:
    def test_every_output_affecting_field_changes_the_key(self):
        """Flipping any non-excluded PipelineConfig field flips the key."""
        base = PipelineConfig()
        base_key = cache_key(SOURCE, "rs6k", base)
        flipped = []
        for f in dataclasses.fields(PipelineConfig):
            if f.name in NON_OUTPUT_FIELDS:
                continue
            value = getattr(base, f.name)
            variant = dataclasses.replace(
                base, **{f.name: _variant(f.name, value)})
            assert cache_key(SOURCE, "rs6k", variant) != base_key, \
                f"field {f.name!r} did not change the cache key"
            flipped.append(f.name)
        # the fingerprint (and so this test) must track the dataclass
        assert set(flipped) == {
            f.name for f in dataclasses.fields(PipelineConfig)
        } - NON_OUTPUT_FIELDS

    def test_source_machine_level_each_change_the_key(self):
        base = cache_key(SOURCE, "rs6k", PipelineConfig())
        assert cache_key(SOURCE + " ", "rs6k", PipelineConfig()) != base
        assert cache_key(SOURCE, "scalar", PipelineConfig()) != base
        assert cache_key(SOURCE, "rs6k", PipelineConfig(
            level=ScheduleLevel.USEFUL)) != base

    def test_observability_sinks_do_not_change_the_key(self):
        """trace/metrics are proven noninterfering; keying on them would
        make every traced compile a guaranteed miss."""
        from repro.obs.tracer import CollectingTracer

        plain = cache_key(SOURCE, "rs6k", PipelineConfig())
        traced = cache_key(SOURCE, "rs6k", PipelineConfig(
            trace=CollectingTracer(), metrics=MetricsCollector()))
        assert traced == plain

    def test_fingerprint_is_json_stable(self):
        """The fingerprint serializes deterministically -- the property
        the SHA-256 address depends on."""
        config = PipelineConfig(resilience=ResilienceConfig(),
                                profile=BranchProfile(runs=2))
        one = json.dumps(config_fingerprint(config), sort_keys=True)
        two = json.dumps(config_fingerprint(config), sort_keys=True)
        assert one == two

    @given(st.text(max_size=80), st.text(max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_distinct_sources_never_collide(self, a, b):
        config = PipelineConfig()
        key_a = cache_key(a, "rs6k", config)
        key_b = cache_key(b, "rs6k", config)
        assert (key_a == key_b) == (a == b)


class TestHitByteIdentity:
    def _compile(self, source=SOURCE):
        return worker.compile_request({
            "source": source, "machine": "rs6k", "level": "speculative",
            "config": {}, "resilient": False})

    def test_recompile_is_byte_identical(self):
        """The invariant caching rests on: compiling one payload twice
        yields the same bytes (no wall-clock state in the artifact)."""
        first, second = self._compile(), self._compile()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_warm_batch_runs_no_compile(self, monkeypatch):
        """A batch served twice is answered the second time from the
        cache alone: with the scheduler made to raise, every answer is
        still a ``cache-hit``, byte-equal to the compile that seeded it."""
        lines = [json.dumps({"id": index, "source": generate_program(
            derive_seed(1991, index)).source}) for index in range(4)]

        def no_compile(*args, **kwargs):
            raise AssertionError("a warm batch compiled")

        def body(response):
            return json.dumps({k: v for k, v in response.items()
                               if k != "status"}, sort_keys=True)

        with Daemon(ServeConfig(jobs=1)) as daemon:
            cold = daemon.serve_batch_lines(lines)
            monkeypatch.setattr(repro.compiler, "schedule_lowered",
                                no_compile)
            warm = daemon.serve_batch_lines(lines)
        assert [r["status"] for r in cold] == ["ok"] * len(lines)
        assert [r["status"] for r in warm] == ["cache-hit"] * len(lines)
        assert [body(r) for r in warm] == [body(r) for r in cold]

    def test_memory_hit_returns_the_seeded_artifact(self):
        cache = ArtifactCache(max_entries=4)
        artifact = Artifact.from_json(self._compile())
        key = cache_key(SOURCE, "rs6k", PipelineConfig())
        assert cache.get(key) is None  # cold
        cache.put(key, artifact)
        hit = cache.get(key)
        assert hit.to_json() == artifact.to_json()
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_hit_round_trips_byte_identically(self, tmp_path):
        """A fresh cache over the same disk store serves the same bytes
        the seeding compile produced -- warm artifacts survive restarts."""
        artifact = Artifact.from_json(self._compile())
        key = cache_key(SOURCE, "rs6k", PipelineConfig())
        seeder = ArtifactCache(max_entries=4, disk_dir=str(tmp_path))
        seeder.put(key, artifact)

        restarted = ArtifactCache(max_entries=4, disk_dir=str(tmp_path))
        hit = restarted.get(key)
        assert hit is not None
        assert json.dumps(hit.to_json(), sort_keys=True) == \
            json.dumps(artifact.to_json(), sort_keys=True)
        assert restarted.hits == 1

    def test_corrupt_disk_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ArtifactCache(max_entries=4, disk_dir=str(tmp_path))
        key = cache_key(SOURCE, "rs6k", PipelineConfig())
        (tmp_path / f"{key}.json").write_text("{ truncated")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_lru_evicts_the_coldest_entry(self):
        cache = ArtifactCache(max_entries=2)
        a, b, c = (Artifact(assembly={"f": name}) for name in "abc")
        cache.put("ka", a)
        cache.put("kb", b)
        assert cache.get("ka") is a  # touch: "kb" is now coldest
        cache.put("kc", c)
        assert len(cache) == 2
        assert cache.get("kb") is None  # evicted
        assert cache.get("ka") is a
        assert cache.get("kc") is c

    def test_metrics_counters_track_hits_and_misses(self):
        metrics = MetricsCollector()
        cache = ArtifactCache(max_entries=2, metrics=metrics)
        cache.get("missing")
        cache.put("k", Artifact())
        cache.get("k")
        assert metrics.counters["service.cache.miss"] == 1
        assert metrics.counters["service.cache.hit"] == 1
        assert cache.hit_rate == pytest.approx(0.5)
