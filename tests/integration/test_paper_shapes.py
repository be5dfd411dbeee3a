"""End-to-end shape assertions: tiny versions of the paper's headline claims.

These run scaled-down experiments (small op counts, few sweep points) and
assert the *qualitative* results the paper reports — who wins, crossover
behaviour, relative factors — not absolute numbers.
"""

import pytest

from repro.sim.simulator import (MULTI_PMO_SCHEMES, SINGLE_PMO_SCHEMES,
                                 overhead_over_lowerbound, replay_trace,
                                 viable_schemes)
from repro.workloads.micro import MicroParams, generate_micro_trace
from repro.workloads.whisper import WhisperParams, generate_whisper_trace

MICRO = dict(initial_nodes=48, operations=400)


def micro_results(benchmark, n_pools):
    trace, ws = generate_micro_trace(
        MicroParams(benchmark=benchmark, n_pools=n_pools, **MICRO))
    return replay_trace(trace, viable_schemes(MULTI_PMO_SCHEMES, n_pools))


@pytest.fixture(scope="module")
def avl_16():
    return micro_results("avl", 16)


@pytest.fixture(scope="module")
def avl_256():
    return micro_results("avl", 256)


class TestFigure6Shape:
    def test_libmpk_worst_at_high_pmo_count(self, avl_256):
        lib = overhead_over_lowerbound(avl_256, "libmpk")
        mpkv = overhead_over_lowerbound(avl_256, "mpk_virt")
        dv = overhead_over_lowerbound(avl_256, "domain_virt")
        assert lib > mpkv > dv > 0

    def test_hardware_mpk_virt_wins_at_16_pmos(self, avl_16):
        """The crossover: at 16 PMOs all domains hold keys, so MPK
        virtualization is near-free while DV still pays the PTLB."""
        mpkv = overhead_over_lowerbound(avl_16, "mpk_virt")
        dv = overhead_over_lowerbound(avl_16, "domain_virt")
        assert mpkv < dv

    def test_no_key_evictions_at_16_pmos(self, avl_16):
        assert avl_16["mpk_virt"].evictions == 0

    def test_overhead_grows_with_pmo_count(self, avl_16, avl_256):
        for scheme in ("libmpk", "mpk_virt"):
            assert overhead_over_lowerbound(avl_256, scheme) > \
                overhead_over_lowerbound(avl_16, scheme)

    def test_dv_never_invalidates_tlb(self, avl_256):
        assert avl_256["domain_virt"].tlb_entries_invalidated == 0

    def test_libmpk_and_mpkv_eviction_counts_similar(self, avl_256):
        """Section VI-B: "almost the same number of evictions"."""
        lib = avl_256["libmpk"].evictions
        mpkv = avl_256["mpk_virt"].evictions
        assert lib > 0
        assert abs(lib - mpkv) / lib < 0.2


class TestFigure7Shape:
    def test_order_of_magnitude_speedups(self, avl_256):
        lib = overhead_over_lowerbound(avl_256, "libmpk")
        mpkv = overhead_over_lowerbound(avl_256, "mpk_virt")
        dv = overhead_over_lowerbound(avl_256, "domain_virt")
        assert lib / mpkv > 4       # paper: ~10x
        assert lib / dv > 15        # paper: ~25-52x
        assert lib / dv > lib / mpkv


class TestTableVIIShape:
    def test_invalidations_dominate_mpkv_breakdown(self, avl_256):
        stats = avl_256["mpk_virt"]
        residual = (stats.cycles - stats.baseline_cycles
                    - stats.overhead_cycles)
        invalidations = stats.buckets["tlb_invalidations"] + max(residual, 0)
        others = (stats.buckets["perm_change"]
                  + stats.buckets["entry_changes"]
                  + stats.buckets["dtt_misses"])
        assert invalidations > others

    def test_dv_breakdown_has_no_invalidations(self, avl_256):
        stats = avl_256["domain_virt"]
        assert stats.buckets["tlb_invalidations"] == 0
        assert stats.buckets["ptlb_misses"] > 0
        assert stats.buckets["access_latency"] > 0

    def test_perm_change_identical_across_schemes(self, avl_256):
        """Both proposed schemes execute the same SETPERMs (Table VII's
        identical first rows)."""
        assert avl_256["mpk_virt"].buckets["perm_change"] == \
            avl_256["domain_virt"].buckets["perm_change"]


class TestTableVShape:
    @pytest.fixture(scope="class")
    def whisper(self):
        trace, ws = generate_whisper_trace(
            WhisperParams(benchmark="hashmap", transactions=200))
        return replay_trace(trace, SINGLE_PMO_SCHEMES)

    def test_single_pmo_mpk_equals_mpk_virt(self, whisper):
        """Table V: one PMO never evicts, so the virtualization adds ~0."""
        mpk = whisper["mpk"].overhead_percent()
        mpkv = whisper["mpk_virt"].overhead_percent()
        assert mpkv == pytest.approx(mpk, rel=0.02)

    def test_domain_virt_slightly_higher(self, whisper):
        mpk = whisper["mpk"].overhead_percent()
        dv = whisper["domain_virt"].overhead_percent()
        assert mpk < dv < mpk * 1.5

    def test_overheads_in_low_single_digits(self, whisper):
        for scheme in SINGLE_PMO_SCHEMES:
            assert 0 < whisper[scheme].overhead_percent() < 10

    def test_no_evictions_with_single_pmo(self, whisper):
        assert whisper["mpk_virt"].evictions == 0


class TestBenchmarkLocalityShapes:
    def test_bt_flatter_than_avl(self):
        """B+ tree's page-local nodes give it a flatter curve (VI-B)."""
        avl = micro_results("avl", 256)
        bt = micro_results("bt", 256)
        assert overhead_over_lowerbound(bt, "mpk_virt") < \
            overhead_over_lowerbound(avl, "mpk_virt")

    def test_ll_has_lowest_switch_rate(self):
        """Table VI: LL's long traversals dilute its switch rate."""
        rates = {}
        for benchmark in ("ll", "ss"):
            trace, ws = generate_micro_trace(MicroParams(
                benchmark=benchmark, n_pools=64, **MICRO))
            results = replay_trace(trace, ("lowerbound",))
            rates[benchmark] = results["lowerbound"].switches_per_second(
                2.2e9, results["baseline"].cycles)
        assert rates["ll"] < rates["ss"]
