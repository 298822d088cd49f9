"""End-to-end tests: CLI trace capture -> .ctb -> exporters.

Covers the issue's acceptance pipeline: ``run fig2 --trace-out`` followed
by ``trace export --format chrome`` must produce JSON that validates
against the Chrome trace-event schema.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.trace import ColumnarStore, TraceHub
from repro.trace.export import (
    chrome_trace_events,
    store_to_csv,
    store_to_entries,
    store_to_json,
    to_chrome_json,
    validate_chrome_events,
)
from tests import trace_oracle
from tests.trace_oracle import ReferenceQuery


@pytest.fixture(scope="module")
def fig2_bundle(tmp_path_factory):
    """A fig2 trace bundle captured through the real CLI path."""
    path = str(tmp_path_factory.mktemp("trace") / "fig2.ctb")
    code = main(["run", "fig2", "--n", "4", "--num", "6",
                 "--trace-out", path])
    assert code == 0
    return path


class TestCliPipeline:
    def test_capture_reports_bundle(self, fig2_bundle, capsys):
        store = ColumnarStore.load(fig2_bundle)
        assert store.total_rows() > 0
        assert "order.record" in store.schemas()
        assert "run.span" in store.schemas()

    def test_capture_appends_across_runs(self, fig2_bundle):
        before = ColumnarStore.load(fig2_bundle).total_rows()
        assert main(["run", "fig2", "--n", "4", "--num", "6",
                     "--trace-out", fig2_bundle]) == 0
        after = ColumnarStore.load(fig2_bundle).total_rows()
        assert after == 2 * before

    def test_trace_info(self, fig2_bundle, capsys):
        assert main(["trace", "info", fig2_bundle]) == 0
        out = capsys.readouterr().out
        assert "order.record" in out and "segment(s)" in out

    def test_trace_query_rows(self, fig2_bundle, capsys):
        assert main(["trace", "query", fig2_bundle,
                     "--schema", "run.span"]) == 0
        out = capsys.readouterr().out
        assert "single-task" in out and "row(s)" in out

    def test_trace_query_aggregate(self, fig2_bundle, capsys):
        assert main(["trace", "query", fig2_bundle,
                     "--schema", "order.record",
                     "--agg", "inner", "--by", "kernel"]) == 0
        out = capsys.readouterr().out
        assert "ndrange" in out and "mean" in out

    def test_trace_export_chrome_validates(self, fig2_bundle, tmp_path,
                                           capsys):
        out_path = tmp_path / "fig2.trace.json"
        assert main(["trace", "export", fig2_bundle,
                     "--format", "chrome", "-o", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]
        assert validate_chrome_events(document["traceEvents"]) == []

    def test_trace_export_csv(self, fig2_bundle, capsys):
        assert main(["trace", "export", fig2_bundle, "--format", "csv",
                     "--schema", "order.record"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "ts,cu,seq,outer,inner"

    def test_trace_export_csv_needs_schema(self, fig2_bundle, capsys):
        assert main(["trace", "export", fig2_bundle,
                     "--format", "csv"]) == 2

    def test_trace_export_json(self, fig2_bundle, capsys):
        assert main(["trace", "export", fig2_bundle, "--format", "json",
                     "--schema", "run.span"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["kernel"] for row in rows} == {"single-task", "ndrange"}

    def test_trace_tool_on_missing_file(self, tmp_path, capsys):
        assert main(["trace", "info", str(tmp_path / "absent.ctb")]) == 2

    @pytest.mark.parametrize("param, value", [
        ("since", "5"), ("limit", "x"), ("cu", [0, "1"]), ("agg", 3)])
    def test_wrong_typed_query_param_names_it(self, fig2_bundle, param,
                                              value):
        from repro.cli import format_trace_query
        from repro.trace.query import QueryParamError

        store = ColumnarStore.load(fig2_bundle)
        with pytest.raises(QueryParamError) as excinfo:
            format_trace_query(store, {"schema": "order.record",
                                       param: value})
        assert excinfo.value.param == param
        assert repr(value) in str(excinfo.value)


class TestCliEngineParity:
    """CLI ``trace query``/``trace export`` output is byte-identical to the
    row-at-a-time oracles in ``tests/trace_oracle.py``."""

    def _stdout(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def _oracle_stdout(self, capsys, monkeypatch, argv):
        """The same command line with the query engine swapped for the
        row-at-a-time oracle."""
        with monkeypatch.context() as patched:
            patched.setattr("repro.trace.query.TraceQuery", ReferenceQuery)
            return self._stdout(capsys, argv)

    def test_query_rows_stdout_identical(self, fig2_bundle, capsys,
                                         monkeypatch):
        argv = ["trace", "query", fig2_bundle, "--schema", "order.record",
                "--limit", "7"]
        assert self._stdout(capsys, argv) == \
            self._oracle_stdout(capsys, monkeypatch, argv)

    def test_query_aggregate_stdout_identical(self, fig2_bundle, capsys,
                                              monkeypatch):
        argv = ["trace", "query", fig2_bundle, "--schema", "order.record",
                "--agg", "inner", "--by", "kernel"]
        assert self._stdout(capsys, argv) == \
            self._oracle_stdout(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("fmt,extra", [
        ("chrome", []),
        ("csv", ["--schema", "order.record"]),
        ("json", []),
    ])
    def test_export_bytes_identical(self, fig2_bundle, tmp_path, capsys,
                                    fmt, extra):
        out = tmp_path / "export.out"
        argv = ["trace", "export", fig2_bundle, "--format", fmt] + extra
        assert main(argv + ["-o", str(out)]) == 0
        store = ColumnarStore.load(fig2_bundle)
        expected = {
            "chrome": lambda: trace_oracle.to_chrome_json(store),
            "csv": lambda: trace_oracle.store_to_csv(store, "order.record"),
            "json": lambda: trace_oracle.store_to_json(store),
        }[fmt]()
        if not expected.endswith("\n"):
            expected += "\n"     # the CLI ends every file with a newline
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("command", ["query", "export"])
    def test_engine_flag_rejected(self, fig2_bundle, capsys, command):
        """The query tier is no longer selectable: argparse exits 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", command, fig2_bundle, "--engine", "vector"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine vector" in \
            capsys.readouterr().err


class TestChromeExporter:
    def _store(self):
        hub = TraceHub()
        hub.emit("latency.sample", 10, kernel="mon", cu=0, site="load",
                 start_cycle=10, end_cycle=25, latency=15,
                 start_value=1, end_value=2)
        hub.emit("watch.event", 30, kernel="wp", cu=1, site="wp[1]",
                 address=64, tag=3, kind=0)
        hub.emit("counter.lsu", 40, kernel="prof", cu=0, site="lsu0",
                 accesses=9, total_latency=120, max_latency=31)
        hub.emit("run.span", 0, kernel="mon", start=0, end=100)
        hub.emit("host.command", 0, kernel="mon", site="cmd",
                 queued=0, start=5, end=90)
        return ColumnarStore.from_records(hub.records, hub.registry)

    def test_all_phases_valid(self):
        events = chrome_trace_events(self._store())
        assert validate_chrome_events(events) == []
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "i", "C"}

    def test_latency_becomes_span(self):
        events = chrome_trace_events(self._store())
        span = next(e for e in events if e.get("cat") == "latency.sample")
        assert (span["ph"], span["ts"], span["dur"]) == ("X", 10, 15)

    def test_process_metadata_per_kernel(self):
        events = chrome_trace_events(self._store())
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"mon", "wp", "prof"}

    def test_counter_event_carries_fields(self):
        events = chrome_trace_events(self._store())
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"accesses": 9, "total_latency": 120,
                                   "max_latency": 31}

    def test_document_shape(self):
        document = json.loads(to_chrome_json(self._store()))
        assert set(document) == {"traceEvents", "displayTimeUnit",
                                 "otherData"}

    def test_validator_flags_bad_events(self):
        assert validate_chrome_events([{"ph": "Z"}])
        assert validate_chrome_events([{"ph": "X", "name": "x", "pid": 1,
                                        "tid": 0, "ts": -1, "dur": 5}])
        assert validate_chrome_events([{"ph": "i", "name": "x", "pid": 1,
                                        "tid": 0, "ts": 0, "s": "q"}])
        assert validate_chrome_events([{"ph": "X", "name": "x", "pid": 1,
                                        "tid": 0, "ts": 0}])  # missing dur

    def test_flat_adapters(self):
        store = self._store()
        entries = store_to_entries(store, "watch.event")
        assert entries == [{"ts": 30, "cu": 1, "address": 64, "tag": 3,
                            "kind": 0}]
        assert store_to_csv(store, "watch.event").splitlines()[1] == \
            "30,1,64,3,0"
        rows = json.loads(store_to_json(store, schema="watch.event"))
        assert rows[0]["site"] == "wp[1]"
