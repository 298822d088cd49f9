"""Tests for processing logic blocks (filter / histogram / summary)."""

from __future__ import annotations

import pytest

from repro.core.host_interface import HostController
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.processing import (
    HistogramLogic,
    SummaryLogic,
    ThresholdFilterLogic,
)
from repro.errors import IBufferError
from repro.pipeline.kernel import SingleTaskKernel


class TestThresholdFilterUnit:
    def test_passes_only_at_or_above_threshold(self):
        logic = ThresholdFilterLogic(threshold=100)
        assert list(logic.on_data(1, 99)) == []
        assert list(logic.on_data(2, 100)) == [{"timestamp": 2, "value": 100}]
        assert logic.seen == 2
        assert logic.passed == 1

    def test_reset_clears_counters(self):
        logic = ThresholdFilterLogic(threshold=5)
        list(logic.on_data(0, 9))
        logic.on_reset()
        assert logic.seen == logic.passed == 0


class TestHistogramUnit:
    def test_binning_and_clamp(self):
        logic = HistogramLogic(bin_width=10, bins=4)
        for value in (0, 9, 10, 35, 1000):
            list(logic.on_data(0, value))
        assert logic.counts == [2, 1, 0, 2]   # 1000 clamps into last bin

    def test_negative_clamps_to_zero_bin(self):
        logic = HistogramLogic(bin_width=10, bins=4)
        list(logic.on_data(0, -5))
        assert logic.counts[0] == 1

    def test_per_event_recording_is_empty(self):
        logic = HistogramLogic(bin_width=4)
        assert list(logic.on_data(0, 7)) == []

    def test_flush_emits_nonempty_bins_only(self):
        logic = HistogramLogic(bin_width=10, bins=4)
        list(logic.on_data(0, 15))
        entries = list(logic.on_flush(99))
        assert entries == [{"bin_low": 10, "count": 1}]

    def test_validation(self):
        with pytest.raises(IBufferError):
            HistogramLogic(bin_width=0)
        with pytest.raises(IBufferError):
            HistogramLogic(bin_width=1, bins=0)


class TestSummaryUnit:
    def test_running_statistics(self):
        logic = SummaryLogic()
        for value in (5, 2, 9):
            list(logic.on_data(0, value))
        entries = list(logic.on_flush(0))
        assert entries == [{"count": 3, "minimum": 2, "maximum": 9,
                            "total": 16}]
        assert logic.mean == pytest.approx(16 / 3)

    def test_empty_flushes_nothing(self):
        assert list(SummaryLogic().on_flush(0)) == []


class _Feeder(SingleTaskKernel):
    """Feeds a fixed value sequence into an ibuffer data channel."""

    def __init__(self, ibuffer, values, **kw):
        super().__init__(**kw)
        self.ibuffer = ibuffer
        self.values = values

    def iteration_space(self, args):
        return range(len(self.values))

    def body(self, ctx):
        ctx.write_channel_nb(self.ibuffer.data_c[0], self.values[ctx.iteration])
        yield ctx.compute(1)


class TestEndToEndProcessing:
    def test_filter_catches_rare_events_in_tiny_buffer(self, fabric):
        """100 values, 3 outliers, trace depth 4: all outliers captured."""
        values = [10] * 100
        for index in (17, 43, 91):
            values[index] = 500 + index
        ibuffer = IBuffer(fabric, "flt",
                          logic_factory=lambda cu: ThresholdFilterLogic(100),
                          config=IBufferConfig(count=1, depth=4))
        controller = HostController(fabric, ibuffer)
        fabric.run_kernel(_Feeder(ibuffer, values, name="feed"), {})
        controller.stop()
        entries = controller.read_trace()
        assert sorted(e["value"] for e in entries) == [517, 543, 591]

    def test_histogram_flushed_through_readout_protocol(self, fabric):
        values = [3, 7, 12, 13, 25]
        ibuffer = IBuffer(fabric, "hist",
                          logic_factory=lambda cu: HistogramLogic(10, bins=4),
                          config=IBufferConfig(count=1, depth=8))
        controller = HostController(fabric, ibuffer)
        fabric.run_kernel(_Feeder(ibuffer, values, name="feed"), {})
        controller.stop()   # SAMPLE -> STOP flushes the histogram
        entries = controller.read_trace()
        as_map = {e["bin_low"]: e["count"] for e in entries}
        assert as_map == {0: 2, 10: 2, 20: 1}

    def test_summary_single_entry_unbounded_window(self, fabric):
        """500 observations, one trace slot needed."""
        values = list(range(500))
        ibuffer = IBuffer(fabric, "summ",
                          logic_factory=lambda cu: SummaryLogic(),
                          config=IBufferConfig(count=1, depth=1))
        controller = HostController(fabric, ibuffer)
        fabric.run_kernel(_Feeder(ibuffer, values, name="feed"), {})
        controller.stop()
        entries = controller.read_trace()
        assert entries == [{"count": 500, "minimum": 0, "maximum": 499,
                            "total": sum(values)}]

    def test_flush_happens_once_not_on_read_drain(self, fabric):
        """The READ->STOP event transition must not re-flush."""
        ibuffer = IBuffer(fabric, "once",
                          logic_factory=lambda cu: SummaryLogic(),
                          config=IBufferConfig(count=1, depth=4))
        controller = HostController(fabric, ibuffer)
        fabric.run_kernel(_Feeder(ibuffer, [1, 2], name="feed"), {})
        controller.stop()
        first = controller.read_trace()
        # READ drained to STOP; another read must see the same single entry.
        second = controller.read_trace()
        assert len(first) == len(second) == 1
