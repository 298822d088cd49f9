"""Tests for the diff tooling and the downstream testing helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.diff import (
    assert_traces_equal,
    diff_latencies,
    diff_traces,
)
from repro.core.stall_monitor import LatencySample
from repro.errors import TraceDecodeError
from repro.memory.global_memory import GlobalMemoryConfig
from repro.testing import MonitoredRun, make_fabric, run_monitored_matmul


def _samples(values):
    return [LatencySample(start_cycle=0, end_cycle=value,
                          start_value=0, end_value=0) for value in values]


class TestLatencyDiff:
    def test_regression_detected(self):
        diff = diff_latencies(_samples([100] * 10), _samples([150] * 10))
        assert diff.regressed
        assert diff.mean_delta_pct == pytest.approx(50.0)
        assert "REGRESSED" in diff.render()

    def test_improvement_reported(self):
        diff = diff_latencies(_samples([100] * 10), _samples([80] * 10))
        assert not diff.regressed
        assert "improved" in diff.render()

    def test_noise_band_is_unchanged(self):
        diff = diff_latencies(_samples([100] * 10), _samples([101] * 10))
        assert not diff.regressed
        assert "unchanged" in diff.render()


class TestTraceDiff:
    def test_identical_up_to_timestamps(self):
        before = [{"timestamp": 1, "value": 5}, {"timestamp": 2, "value": 6}]
        after = [{"timestamp": 9, "value": 5}, {"timestamp": 11, "value": 6}]
        assert diff_traces(before, after) == []
        assert_traces_equal(before, after)   # must not raise

    def test_content_change_reported(self):
        before = [{"timestamp": 1, "value": 5}]
        after = [{"timestamp": 1, "value": 7}]
        differences = diff_traces(before, after)
        assert len(differences) == 1
        with pytest.raises(TraceDecodeError, match="traces differ"):
            assert_traces_equal(before, after)

    def test_count_change_reported(self):
        differences = diff_traces([{"timestamp": 1, "value": 1}], [])
        assert "entry count changed" in differences[0]

    def test_diff_truncation(self):
        before = [{"timestamp": 0, "value": i} for i in range(40)]
        after = [{"timestamp": 0, "value": i + 1} for i in range(40)]
        differences = diff_traces(before, after)
        assert differences[-1].startswith("...")


class TestTestingHelpers:
    def test_make_fabric_fills_buffers(self):
        fabric = make_fabric(src=np.arange(8), dst=8)
        assert list(fabric.memory.buffer("src").snapshot()) == list(range(8))
        assert fabric.memory.buffer("dst").size == 8

    def test_run_monitored_matmul_bundle(self):
        run = run_monitored_matmul(rows_a=2, col_a=4, col_b=2, depth=64)
        assert isinstance(run, MonitoredRun)
        assert run.cycles > 0
        assert len(run.latencies) == 2 * 4 * 2

    def test_regression_workflow_end_to_end(self):
        """The intended CI pattern: same design, slower memory -> flagged."""
        fast = run_monitored_matmul(memory_config=GlobalMemoryConfig())
        slow = run_monitored_matmul(memory_config=GlobalMemoryConfig(
            pipe_latency=120))
        diff = diff_latencies(fast.latencies, slow.latencies)
        assert diff.regressed

    def test_determinism_workflow(self):
        """Same config twice -> traces identical including timestamps."""
        first = run_monitored_matmul(rows_a=2, col_a=4, col_b=2, depth=64)
        second = run_monitored_matmul(rows_a=2, col_a=4, col_b=2, depth=64)
        assert_traces_equal(first.monitor.read_site(0),
                            second.monitor.read_site(0),
                            ignore_fields=())
