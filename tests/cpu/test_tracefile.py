"""Tests for trace serialization (.npz round trips)."""

import pytest

from repro.cpu.tracefile import load_trace, save_trace
from repro.errors import TraceError
from repro.sim.simulator import replay_trace
from repro.workloads.micro import MicroParams, generate_micro_trace


@pytest.fixture(scope="module")
def generated():
    return generate_micro_trace(MicroParams(
        benchmark="ll", n_pools=4, initial_nodes=8, operations=25))


class TestRoundTrip:
    def test_events_identical(self, generated, tmp_path):
        trace, _ws = generated
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.events == trace.events

    def test_metadata_preserved(self, generated, tmp_path):
        trace, _ws = generated
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.label == trace.label
        assert loaded.total_instructions == trace.total_instructions
        assert set(loaded.attach_info) == set(trace.attach_info)

    def test_attach_vmas_reconstructed(self, generated, tmp_path):
        trace, _ws = generated
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        for domain, (vma, intent) in trace.attach_info.items():
            got_vma, got_intent = loaded.attach_info[domain]
            assert (got_vma.base, got_vma.reserved, got_vma.size,
                    got_vma.pmo_id, got_vma.granule, got_vma.is_nvm) == \
                (vma.base, vma.reserved, vma.size, vma.pmo_id,
                 vma.granule, vma.is_nvm)
            assert got_intent == intent

    def test_loaded_trace_replays_identically(self, generated, tmp_path):
        trace, ws = generated
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        original = replay_trace(trace, ("domain_virt",))
        reloaded = replay_trace(loaded, ("domain_virt",))
        assert reloaded["domain_virt"].cycles == \
            original["domain_virt"].cycles

    def test_bad_version_rejected(self, generated, tmp_path):
        import json

        import numpy as np
        trace, _ws = generated
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"].tobytes()).decode())
        header["version"] = 999
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(TraceError):
            load_trace(path)

    def test_compression_is_effective(self, generated, tmp_path):
        trace, _ws = generated
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        raw_size = len(trace.events) * 5 * 8
        assert path.stat().st_size < raw_size
