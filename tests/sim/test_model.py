"""Tests validating the analytic model against the simulator."""

import pytest

from repro.sim.config import DEFAULT_CONFIG
from repro.sim.model import (estimate_remap_rate, predict, relative_error)
from repro.sim.simulator import (MULTI_PMO_SCHEMES, replay_trace,
                                 viable_schemes)
from repro.workloads.micro import MicroParams, generate_micro_trace


@pytest.fixture(scope="module")
def measured():
    trace, ws = generate_micro_trace(MicroParams(
        benchmark="rbt", n_pools=128, initial_nodes=48, operations=500))
    return replay_trace(trace, viable_schemes(MULTI_PMO_SCHEMES, 128))


class TestPredictionsMatchSimulation:
    """Given measured event counts, the model must reproduce the charged
    overhead closely — any drift means charging arithmetic changed."""

    def test_lowerbound_exact(self, measured):
        stats = measured["lowerbound"]
        predicted = predict("lowerbound", stats, DEFAULT_CONFIG)
        assert predicted.total == pytest.approx(stats.overhead_cycles)

    def test_mpk_virt_within_15_percent(self, measured):
        stats = measured["mpk_virt"]
        predicted = predict("mpk_virt", stats, DEFAULT_CONFIG)
        overhead = stats.cycles - stats.baseline_cycles
        assert relative_error(predicted.total, overhead) < 0.15

    def test_domain_virt_within_10_percent(self, measured):
        stats = measured["domain_virt"]
        predicted = predict("domain_virt", stats, DEFAULT_CONFIG)
        overhead = stats.cycles - stats.baseline_cycles
        assert relative_error(predicted.total, overhead) < 0.10

    def test_libmpk_within_25_percent(self, measured):
        stats = measured["libmpk"]
        predicted = predict("libmpk", stats, DEFAULT_CONFIG)
        overhead = stats.cycles - stats.baseline_cycles
        assert relative_error(predicted.total, overhead) < 0.25

    def test_unknown_scheme_rejected(self, measured):
        with pytest.raises(KeyError):
            predict("bogus", measured["lowerbound"], DEFAULT_CONFIG)


class TestModelStructure:
    def test_dv_has_no_shootdown_component(self, measured):
        predicted = predict("domain_virt", measured["domain_virt"],
                            DEFAULT_CONFIG)
        assert predicted.shootdowns == 0
        assert predicted.access_latency > 0

    def test_mpkv_shootdowns_dominate(self, measured):
        predicted = predict("mpk_virt", measured["mpk_virt"],
                            DEFAULT_CONFIG)
        assert predicted.shootdowns + predicted.refills > \
            predicted.perm_change

    def test_libmpk_software_component_largest(self, measured):
        predicted = predict("libmpk", measured["libmpk"], DEFAULT_CONFIG)
        assert predicted.software > predicted.shootdowns


class TestRelativeError:
    def test_zero_measured_zero_predicted(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_zero_measured_nonzero_predicted(self):
        assert relative_error(5.0, 0.0) == float("inf")

    def test_symmetric_magnitude(self):
        assert relative_error(90, 100) == pytest.approx(0.1)


class TestRemapRateEstimator:
    def test_fits_in_keys_means_zero(self):
        assert estimate_remap_rate(16, 16, touches_per_op=2.0) == 0.0

    def test_uniform_rate_approaches_miss_probability(self):
        # 64 domains, 16 keys, uniform: miss rate ~ (64-16)/64 = 0.75.
        rate = estimate_remap_rate(64, 16, touches_per_op=1.0,
                                   samples=20_000)
        assert 0.6 < rate < 0.9

    def test_skew_reduces_remaps(self):
        uniform = estimate_remap_rate(256, 16, 1.0, zipf_exponent=0.0,
                                      samples=20_000)
        skewed = estimate_remap_rate(256, 16, 1.0, zipf_exponent=1.2,
                                     samples=20_000)
        assert skewed < uniform

    def test_scales_with_touches(self):
        one = estimate_remap_rate(64, 16, 1.0, samples=10_000)
        three = estimate_remap_rate(64, 16, 3.0, samples=10_000)
        assert three == pytest.approx(3 * one)
