"""Self-tests of the benchmark: ``PYTHONPATH=src python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stages  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra)
    return env


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
         *args], cwd=cwd, env=env or _clean_env(), capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    # Seed 11 checks the invariants on a seed the digests do not pin.
    seed = "7" if trace == "1" else "11"
    done = _run("--workload", workload, "--seed", seed, "--seconds", "0.1",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["replay.fast_fallbacks"] == 0
        assert values["replay.baseline.events_per_s"] > 0


def test_perturbed_output_trips_digest():
    workload = wl.WORKLOADS["service_slo_closed"]
    specs = workload.specs(7, True)
    outputs = workload.run(wl.make_runner(), specs)
    good = wl.digest(workload, outputs)
    recorded = {workload.name: good}
    assert wl.digest_error(workload.name, good, recorded) is None
    outputs["mpk_virt"].stats.cycles += 1.0
    bad = wl.digest(workload, outputs)
    assert bad != good
    assert wl.digest_error(workload.name, bad, recorded)


@pytest.mark.parametrize("knob", ["REPRO_FAST=0", "REPRO_EVENTS=ring",
                                  "REPRO_TRACE_CACHE=/tmp/cache",
                                  "REPRO_SMOKE=1", "REPRO_OPS=2",
                                  "REPRO_PROFILE=1", "REPRO_METRICS=1"])
def test_environment_guard_refuses(knob):
    name, value = knob.split("=")
    done = _run("--workload", "paper_micro", "--size", "tiny",
                env=_clean_env(**{name: value}))
    assert done.returncode == 2
    assert name in done.stderr
    assert not done.stdout.strip()


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "paper_micro", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_declared_metrics_match_the_code_and_the_doc():
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": stages.unit_of(n), "better": stages.better_of(n)}
        for n in stages.per_layer_names()]
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()]
    doc = (HERE / "README.md").read_text()
    for metric in BENCHMARK["end_to_end"]:
        assert f"`{metric['name']}`" in doc
    for name in stages.per_layer_names():
        stem = name.split(".", 1)[0]
        if stem in ("model", "replay"):
            field = name.rsplit(".", 1)[-1]
            assert f".{field}" in doc or f"`{name}`" in doc, name
        else:
            assert f"`{name}`" in doc, name
