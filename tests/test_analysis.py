"""Unit tests for trace post-processing (order, latency, violations)."""

from __future__ import annotations

import pytest

from repro.analysis.latency import (
    histogram,
    latency_values,
    render_latency_table,
    stall_attribution,
    summarize,
)
from repro.analysis.order import (
    OrderRecord,
    access_pattern,
    classify_order,
    order_records,
    render_figure2,
    timestamps_monotonic,
)
from repro.analysis.violations import (
    count_by_kind,
    decode_events,
    render_watch_report,
    value_history,
)
from repro.core.logic_blocks import KIND_BOUND_VIOLATION, KIND_MATCH
from repro.core.stall_monitor import LatencySample
from repro.errors import TraceDecodeError


def _records(pairs):
    return [OrderRecord(seq=index + 1, timestamp=index * 10,
                        outer=k, inner=i)
            for index, (k, i) in enumerate(pairs)]


class TestOrderRecords:
    def test_decoding_from_info_buffers(self):
        info1 = [0, 100, 110]
        info2 = [0, 0, 0]
        info3 = [0, 0, 1]
        records = order_records(info1, info2, info3)
        assert records[0] == OrderRecord(seq=1, timestamp=100, outer=0, inner=0)
        assert len(records) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceDecodeError):
            order_records([0, 1], [0], [0, 1])

    def test_count_limits_decoding(self):
        records = order_records([0] * 10, [0] * 10, [0] * 10, count=3)
        assert len(records) == 3


class TestClassification:
    def test_program_order(self):
        records = _records([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert classify_order(records) == "program-order"

    def test_interleaved(self):
        records = _records([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert classify_order(records) == "interleaved"

    def test_other(self):
        records = _records([(0, 1), (1, 0), (0, 0), (1, 1)])
        assert classify_order(records) == "other"

    def test_empty_is_other(self):
        assert classify_order([]) == "other"


class TestAccessPattern:
    def test_unit_stride_for_program_order(self):
        records = _records([(0, 0), (0, 1), (0, 2)])
        assert access_pattern(records, num=100) == [0, 1, 2]

    def test_num_stride_for_interleaved(self):
        records = _records([(0, 0), (1, 0), (2, 0)])
        assert access_pattern(records, num=100) == [0, 100, 200]


class TestMonotonicity:
    def test_monotone_true(self):
        assert timestamps_monotonic(_records([(0, 0), (0, 1)]))

    def test_violation_detected(self):
        records = [OrderRecord(1, 50, 0, 0), OrderRecord(2, 40, 0, 1)]
        assert not timestamps_monotonic(records)


class TestFigure2Rendering:
    def test_window_rows(self):
        records = _records([(k, i) for k in range(20) for i in range(5)])
        text = render_figure2(records, start_seq=51, count=4)
        assert "info_seq[ 51]" in text
        assert "Timestamp" in text


class TestLatencyAnalysis:
    def _samples(self, values):
        return [LatencySample(start_cycle=0, end_cycle=value,
                              start_value=0, end_value=0)
                for value in values]

    def test_summary_statistics(self):
        stats = summarize(self._samples([10, 20, 30, 40]))
        assert stats.minimum == 10
        assert stats.maximum == 40
        assert stats.mean == 25
        assert stats.p50 == 25

    def test_single_sample_percentiles(self):
        stats = summarize(self._samples([5]))
        assert stats.p50 == 5
        assert stats.p95 == 5

    def test_empty_rejected(self):
        with pytest.raises(TraceDecodeError):
            summarize([])

    def test_negative_latency_rejected(self):
        bad = [LatencySample(start_cycle=10, end_cycle=5,
                             start_value=0, end_value=0)]
        with pytest.raises(TraceDecodeError):
            latency_values(bad)

    def test_histogram_binning(self):
        bins = histogram(self._samples([1, 2, 17, 18, 40]), bin_width=16)
        assert bins == {0: 2, 16: 2, 32: 1}

    def test_histogram_bad_width(self):
        with pytest.raises(TraceDecodeError):
            histogram(self._samples([1]), bin_width=0)

    def test_stall_attribution(self):
        stall, fraction = stall_attribution(self._samples([50, 50, 100]),
                                            unloaded_latency=50)
        assert stall == 50
        assert fraction == pytest.approx(1 / 3)

    def test_render_table(self):
        text = render_latency_table(summarize(self._samples([10, 20])))
        assert "samples : 2" in text


class TestViolationAnalysis:
    def _entries(self):
        return [
            {"timestamp": 1, "address": 0x10, "tag": 5, "kind": KIND_MATCH},
            {"timestamp": 2, "address": 0x99, "tag": 0,
             "kind": KIND_BOUND_VIOLATION},
            {"timestamp": 3, "address": 0x10, "tag": 6, "kind": KIND_MATCH},
        ]

    def test_decode_events(self):
        events = decode_events(self._entries())
        assert events[0].kind_name == "watch-hit"
        assert events[1].kind_name == "bound-violation"

    def test_value_history_filters_matches(self):
        events = decode_events(self._entries())
        assert value_history(events, address=0x10) == [(1, 5), (3, 6)]

    def test_count_by_kind(self):
        counts = count_by_kind(decode_events(self._entries()))
        assert counts == {"watch-hit": 2, "bound-violation": 1}

    def test_render_report_with_limit(self):
        events = decode_events(self._entries() * 10)
        text = render_watch_report(events, limit=5)
        assert "more events" in text
        assert "summary:" in text

    def test_render_empty(self):
        assert "no events" in render_watch_report([])
