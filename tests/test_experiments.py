"""Integration tests: the paper's experiments must reproduce their shapes.

These run the same code the benchmarks use, at reduced scale where the
full paper parameters would be slow, and assert the qualitative findings.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig2, limitations, sec31, sec51, sec52, table1


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        # Reduced scale; the bench runs the paper's 50x100.
        return fig2.run(n=8, num=12, probe_i=4)

    def test_single_task_is_program_order(self, result):
        assert result.single_task.classification == "program-order"

    def test_ndrange_is_interleaved(self, result):
        assert result.ndrange.classification == "interleaved"

    def test_access_patterns_differ_as_described(self, result):
        num = 12
        assert result.single_task.access_order[:3] == [0, 1, 2]
        assert result.ndrange.access_order[:3] == [0, num, 2 * num]

    def test_both_compute_correct_results(self, result):
        assert result.single_task.result_correct
        assert result.ndrange.result_correct

    def test_execution_times_differ(self, result):
        assert result.runtimes_differ

    def test_render_contains_paper_row_format(self, result):
        assert "info_seq[" in result.render()


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(depth=256)   # smaller DEPTH; bench uses 2048

    def test_all_rows_present(self, result):
        assert set(result.reports) == {"base", "sm", "wp", "sm+wp"}

    def test_sm_frequency_drop_near_paper(self, result):
        # Paper: 20.5%. Depth does not affect fmax in the model, so the
        # reduced-scale run must match the bench here.
        assert 15.0 <= result.freq_drop_pct("sm") <= 26.0

    def test_wp_behaves_similarly(self, result):
        assert 15.0 <= result.freq_drop_pct("wp") <= 26.0

    def test_instrumented_designs_add_memory(self, result):
        for name in ("sm", "wp", "sm+wp"):
            assert result.memory_bits_delta(name) > 0

    def test_sm_logic_at_most_marginally_above_base(self, result):
        # Paper: SM logic slightly BELOW base (baseline-only retiming).
        assert result.logic_delta_pct("sm") < 2.0

    def test_combined_uses_most_memory(self, result):
        assert (result.reports["sm+wp"].total.memory_bits
                >= result.reports["sm"].total.memory_bits)
        assert (result.reports["sm+wp"].total.memory_bits
                >= result.reports["wp"].total.memory_bits)


class TestSec31:
    @pytest.fixture(scope="class")
    def result(self):
        return sec31.run(chain_size=32, steps=12)

    def test_base_frequency_near_paper(self, result):
        assert result.base.fmax_mhz == pytest.approx(233.3, abs=3.0)

    def test_opencl_counter_frequency_near_paper(self, result):
        assert result.opencl.fmax_mhz == pytest.approx(227.8, abs=3.0)

    def test_hdl_drop_below_three_percent(self, result):
        assert result.freq_drop_pct(result.hdl) < 3.0

    def test_hdl_cheaper_than_opencl_in_logic(self, result):
        assert (result.logic_overhead_pct(result.hdl)
                < result.logic_overhead_pct(result.opencl))

    def test_overheads_are_small(self, result):
        assert result.logic_overhead_pct(result.opencl) < 2.0

    def test_both_patterns_report_step_latencies(self, result):
        assert len(result.step_latencies(result.opencl)) == 11
        assert len(result.step_latencies(result.hdl)) == 11
        # Pointer chasing serializes: every step takes the memory latency.
        assert all(gap > 10 for gap in result.step_latencies(result.hdl))


class TestSec51:
    @pytest.fixture(scope="class")
    def result(self):
        return sec51.run(rows_a=4, col_a=8, col_b=4, depth=256)

    def test_kernel_result_unperturbed(self, result):
        assert result.result_correct

    def test_monitor_matches_lsu_ground_truth(self, result):
        assert result.matches_ground_truth

    def test_stalls_are_visible(self, result):
        assert result.observed_stalls

    def test_latency_distribution_sane(self, result):
        assert result.stats.minimum >= result.unloaded_latency
        assert result.stats.maximum >= result.stats.p95 >= result.stats.p50


class TestSec52:
    @pytest.fixture(scope="class")
    def result(self):
        return sec52.run(n=16, offset=3, src_size=16, depth=128)

    def test_bound_checking_exact(self, result):
        assert result.bound_check_correct
        assert result.expected_bound_violations == 3

    def test_invariance_checking_exact(self, result):
        assert result.invariance_check_correct

    def test_watch_history_collected(self, result):
        assert len(result.watch_hits) > 0


class TestLimitations:
    @pytest.fixture(scope="class")
    def result(self):
        return limitations.run(gap_cycles=30, compiled_depth=8,
                               launch_skew=12)

    def test_healthy_persistent_measures_truth(self, result):
        assert abs(result.healthy_measured - 30) <= 1

    def test_compiled_depth_makes_stale_timestamps(self, result):
        assert result.stale_measured < result.gap_cycles  # badly wrong

    def test_launch_skew_biases_measurement(self, result):
        assert result.skew_error == pytest.approx(-12, abs=1)

    def test_hdl_immune(self, result):
        assert result.hdl_measured == 30


class TestScalability:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import scalability
        return scalability.run(counts=(1, 4), depths=(256, 1024, 4096))

    def test_bits_scale_with_depth(self, result):
        assert result.bits_linear_in_depth(1)
        assert result.bits_linear_in_depth(4)

    def test_fmax_flat_in_depth(self, result):
        assert result.fmax_flat_in_depth(1)

    def test_logic_flat_in_depth(self, result):
        alms = {result.grid[(1, depth)].total.alms
                for depth in (256, 1024, 4096)}
        assert len(alms) == 1

    def test_render(self, result):
        text = result.render()
        assert "scalability" in text
        assert "DEPTH" in text


class TestRegistryParams:
    """``run_experiment`` takes exactly the params each runner reads."""

    def test_table_matches_every_runner(self):
        import inspect
        from repro.experiments import registry
        assert set(registry.PARAMS) == set(registry.EXPERIMENTS)
        for name, runner in registry.EXPERIMENTS.items():
            taken = list(inspect.signature(runner).parameters)
            assert taken == ["hub", *registry.PARAMS[name]], name

    def test_unknown_param_raises(self):
        from repro.experiments import registry
        with pytest.raises(registry.ExperimentParamError) as excinfo:
            registry.run_experiment("fig2", n=4, nmu=6)
        assert excinfo.value.param == "nmu"
        assert "accepted: n, num" in str(excinfo.value)
        with pytest.raises(registry.ExperimentParamError) as excinfo:
            registry.run_experiment("sec31", n=4)
        assert "accepted: none" in str(excinfo.value)

    def test_unknown_name_still_key_error(self):
        from repro.experiments import registry
        with pytest.raises(KeyError):
            registry.run_experiment("fig99", nmu=6)

    def test_accepted_params_reach_the_runner(self):
        from repro.experiments import registry
        assert registry.run_experiment("table1", depth=3) == \
            table1.run(depth=3).render()
        assert registry.run_experiment("fig2", n=4, num=6) == \
            fig2.run(n=4, num=6).render()
