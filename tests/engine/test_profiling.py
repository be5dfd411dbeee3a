"""Tests for the ``REPRO_PROFILE`` per-job profiling knob."""

import pstats

import pytest

from repro import obs
from repro.engine import Engine
from repro.engine.executor import _run_job, profile_dir
from repro.engine.job import ReplayJob, WorkloadSpec
from repro.service import ServiceParams, generate_service_trace, \
    shard_by_worker


def _job():
    spec = WorkloadSpec.micro("rbt", 2, initial_nodes=8, operations=20)
    trace, _ws = spec.generate()
    return ReplayJob(trace=trace, scheme="baseline", label=spec.label)


class TestKnobParsing:
    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "no"])
    def test_off_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert profile_dir() is None

    @pytest.mark.parametrize("raw", ["1", "true", "on", "yes"])
    def test_truthy_uses_default_dir(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert profile_dir().name == "profiles"

    def test_path_value_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path / "pp"))
        assert profile_dir() == tmp_path / "pp"


class TestProfileDump:
    def test_job_dumps_readable_pstats(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path))
        stats = _run_job(_job())
        assert stats.instructions > 0
        dumps = list(tmp_path.glob("micro-rbt-2-baseline-*.pstats"))
        assert len(dumps) == 1
        assert len(pstats.Stats(str(dumps[0])).stats) > 0

    def test_profile_path_announced_via_event(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path))
        monkeypatch.setenv("REPRO_EVENTS", "ring")
        obs.reset()
        try:
            _run_job(_job())
            records = [r for r in obs.active_events().records()
                       if r["kind"] == "job.profile"]
        finally:
            monkeypatch.delenv("REPRO_EVENTS")
            obs.reset()
        assert len(records) == 1
        record = records[0]
        assert record["label"] == "micro-rbt-2"
        assert record["scheme"] == "baseline"
        assert (tmp_path / record["path"].rsplit("/", 1)[-1]).exists()

    def test_results_unchanged_by_profiling(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        plain = _run_job(_job())
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path))
        profiled = _run_job(_job())
        assert repr(plain.cycles) == repr(profiled.cycles)
        assert plain.buckets == profiled.buckets


class TestShardProfiling:
    def test_one_dump_per_scheme_shard_job(self, monkeypatch, tmp_path):
        trace, _ws = generate_service_trace(
            ServiceParams(n_clients=4, n_requests=40, workers=2))
        shards = shard_by_worker(trace)
        assert len(shards) == 2
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path))
        Engine(jobs=1).replay_shards(shards, ["domain_virt"])
        dumps = sorted(path.name for path in tmp_path.glob("*.pstats"))
        assert len(dumps) == 4  # (baseline, domain_virt) x 2 shards
        for shard in shards:
            label = shard.trace.label.rsplit("/", 1)[-1]
            for scheme in ("baseline", "domain_virt"):
                assert sum(f"{label}-{scheme}-" in name
                           for name in dumps) == 1
