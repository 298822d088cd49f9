"""Tests for the emulation daemon: protocol, sessions, jobs, round trips.

The determinism contract is pinned here: a kernel or experiment run
through the server (buffers, sim.now, engine/LSU/memory stats, trace
records, rendered reports, streamed ``.ctb`` bundles) must be
byte-identical to the same work done in-process.
"""

from __future__ import annotations

import io
import contextlib
import os

import pytest

from repro.server import protocol
from repro.server.client import Client
from repro.server.daemon import ReproServer, ServerConfig, start_server_thread
from repro.server.jobs import execute_experiment_job, execute_kernel_job
from repro.server.protocol import ServerError
from repro.server.session import Session, SessionQuota

SCALE = """
__kernel void scale(__global int* data, int n, int factor) {
    for (int i = 0; i < n; i++) {
        data[i] = data[i] * factor;
    }
}
"""

BROKEN = """
__kernel void broken(__global int* data) {
    data[0] = data[0] +
}
"""


@pytest.fixture(scope="module")
def server():
    handle = start_server_thread(ServerConfig(workers=0))
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with Client(server.address) as c:
        c.open_session()
        yield c


class TestProtocol:
    def test_parse_address_tcp(self):
        assert protocol.parse_address("127.0.0.1:7711") == \
            ("tcp", ("127.0.0.1", 7711))

    def test_parse_address_unix(self):
        assert protocol.parse_address("unix:/tmp/s.sock") == \
            ("unix", "/tmp/s.sock")

    @pytest.mark.parametrize("bad", ["", "nohost", "host:notaport", "unix:"])
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ServerError):
            protocol.parse_address(bad)

    def test_request_response_round_trip(self):
        line = protocol.encode_request(7, "server.ping", {"a": 1})
        message = protocol.decode_line(line)
        assert message == {"id": 7, "method": "server.ping",
                           "params": {"a": 1}}
        response = protocol.decode_line(protocol.encode_response(7, {"ok": 1}))
        assert response == {"id": 7, "result": {"ok": 1}}

    def test_error_round_trip_keeps_code_and_data(self):
        error = ServerError(protocol.E_BUSY, "full", {"queue_depth": 3})
        message = protocol.decode_line(protocol.encode_error(9, error))
        assert message["error"]["code"] == "busy"
        assert message["error"]["data"] == {"queue_depth": 3}

    def test_decode_rejects_non_json(self):
        with pytest.raises(ServerError) as excinfo:
            protocol.decode_line(b"not json\n")
        assert excinfo.value.code == protocol.E_PARSE

    def test_segment_wire_round_trip(self):
        from repro.trace.columnar import Segment
        from repro.trace.schema import SchemaRegistry, TraceRecord

        registry = SchemaRegistry()
        schema = registry.ensure("t.wire", ("alpha", "beta"))
        records = [TraceRecord(schema="t.wire", ts=i, kernel="k", cu=0,
                               site=f"s{i}", values=(i, i * 10))
                   for i in range(5)]
        segment = Segment.from_records(schema, records)
        payload = segment.payload_bytes()
        rebuilt = protocol.segment_from_header(
            protocol.segment_header(segment, len(payload)), payload)
        assert rebuilt.payload_bytes() == payload
        assert [rebuilt.record(i) for i in range(5)] == records


class TestSession:
    def test_buffer_quota_enforced(self):
        session = Session("s1", SessionQuota(max_buffer_elems=10))
        session.create_buffer("a", 6)
        with pytest.raises(ServerError) as excinfo:
            session.create_buffer("b", 5)
        assert excinfo.value.code == protocol.E_QUOTA
        session.create_buffer("b", 4)                # exactly at the quota
        session.free_buffer("a")
        session.create_buffer("c", 6)                # freed space reusable

    def test_unknown_buffer_and_program(self):
        session = Session("s1")
        with pytest.raises(ServerError) as excinfo:
            session.read_buffer("nope")
        assert excinfo.value.code == protocol.E_NOT_FOUND
        with pytest.raises(ServerError):
            session.get_program("p9")

    def test_trace_retention_drops_oldest(self):
        from repro.trace.schema import TraceRecord

        session = Session("s1", SessionQuota(max_trace_records=4))
        schemas = (("t.r", ("v",), ""),)
        records = [TraceRecord(schema="t.r", ts=i, kernel="k", cu=0,
                               site="s", values=(i,)) for i in range(6)]
        session.add_records(schemas, records)
        assert [r.ts for r in session.records] == [2, 3, 4, 5]
        assert session.stats.trace_rows == 6
        assert session.stats.trace_rows_dropped == 2


class TestJobs:
    def test_kernel_job_matches_in_process_run(self):
        from repro.frontend.compiler import compile_source
        from repro.pipeline.fabric import Fabric

        result = execute_kernel_job(
            SCALE, "scale", args={"n": 8, "factor": 3},
            buffers={"data": {"size": 8, "fill": list(range(8))}})

        fabric = Fabric(keep_lsu_samples=True)
        program = compile_source(fabric, SCALE)
        fabric.memory.allocate("data", 8).fill(list(range(8)))
        engine = fabric.run_kernel(program.kernel("scale"),
                                   {"data": "data", "n": 8, "factor": 3})
        assert result["sim_now"] == fabric.sim.now
        assert result["buffers"]["data"] == [
            int(v) for v in fabric.memory.buffer("data").snapshot()]
        assert result["engine"]["iterations_retired"] == \
            engine.stats.iterations_retired
        assert set(result["lsu"]) == {
            f"{site}|{kind}" for site, kind in engine.lsus}

    def test_compile_error_is_structured_not_raised(self):
        result = execute_kernel_job(BROKEN, "broken",
                                    buffers={"data": {"size": 1}})
        error = result["error"]
        assert error["code"] == protocol.E_COMPILE
        assert error["data"]["line"] == 4
        assert error["data"]["column"] >= 1

    def test_bad_launch_is_structured_run_error(self):
        result = execute_kernel_job(SCALE, "scale", args={"n": 1})
        assert result["error"]["code"] == "run_error"
        assert "data" in result["error"]["message"]

    def test_experiment_job_renders_like_registry(self):
        from repro.experiments import registry

        result = execute_experiment_job("fig2", params={"n": 4, "num": 6})
        assert result["rendered"] == registry.run_experiment("fig2", n=4,
                                                             num=6)

    def test_experiment_job_unknown_name(self):
        result = execute_experiment_job("fig99")
        assert result["error"]["code"] == protocol.E_NOT_FOUND


class TestServerRoundTrip:
    def test_ping_and_stats(self, client):
        assert client.ping() == {"pong": True}
        stats = client.stats()
        assert stats["sessions"]["open"] >= 1
        assert {"hits", "misses", "evictions"} <= set(stats["cache"])
        assert stats["jobs"]["mode"] == "inline"

    def test_compile_reports_cache_and_kernels(self, client):
        source = SCALE + "// cache-probe"
        first = client.compile(source)
        again = client.compile(source)
        assert first["cache"] == "miss"
        assert again["cache"] == "hit"
        assert first["kernels"] == {"scale": "single-task"}
        assert first["program"] != again["program"]

    def test_compile_error_has_position(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.compile(BROKEN)
        assert excinfo.value.code == protocol.E_COMPILE
        assert excinfo.value.data["line"] == 4

    def test_kernel_run_returns_buffers_and_stats(self, client):
        program = client.compile(SCALE)["program"]
        result = client.run_kernel(
            program=program, kernel="scale", args={"n": 8, "factor": 3},
            buffers={"data": {"size": 8, "fill": [1, 2, 3, 4, 5, 6, 7, 8]}})
        assert result["buffers"]["data"] == [3, 6, 9, 12, 15, 18, 21, 24]
        assert result["sim_now"] > 0
        assert result["engine"]["iterations_retired"] == 1
        assert result["memory"]["loads"] == 8
        assert result["memory"]["stores"] == 8

    def test_kernel_run_matches_in_process(self, client):
        """The server determinism contract, end to end."""
        remote = client.run_kernel(
            source=SCALE, kernel="scale", args={"n": 6, "factor": 5},
            buffers={"data": {"size": 6, "fill": [9, 8, 7, 6, 5, 4]}})
        local = execute_kernel_job(
            SCALE, "scale", args={"n": 6, "factor": 5},
            buffers={"data": {"size": 6, "fill": [9, 8, 7, 6, 5, 4]}})
        local["trace"] = {"records": 0}
        assert remote == local

    def test_session_buffers_persist_and_write_back(self, client):
        program = client.compile(SCALE)["program"]
        client.call("buffer.create",
                    {"name": "x", "size": 4, "fill": [5, 6, 7, 8]})
        client.run_kernel(program=program, kernel="scale",
                          args={"n": 4, "factor": 10},
                          buffers={"data": {"session": "x"}})
        values = client.call("buffer.read", {"name": "x"})["values"]
        assert values == [50, 60, 70, 80]
        client.call("buffer.free", {"name": "x"})
        with pytest.raises(ServerError) as excinfo:
            client.call("buffer.read", {"name": "x"})
        assert excinfo.value.code == protocol.E_NOT_FOUND

    def test_enqueue_wait_and_completion_notification(self, client):
        program = client.compile(SCALE)["program"]
        job = client.enqueue(program=program, kernel="scale",
                             args={"n": 4, "factor": 2},
                             buffers={"data": {"size": 4, "fill": [1] * 4}})
        result = client.wait(job["job"])
        assert result["buffers"]["data"] == [2, 2, 2, 2]
        # The push notification for the same job is stashed by the client.
        client.ping()       # drain anything still in flight
        done = client.completions.get(job["job"])
        assert done is not None and done["ok"]

    def test_trace_streams_and_saves_byte_identical(self, client, tmp_path):
        """Streamed segments == a local ColumnarSink capture, byte for byte."""
        from repro.trace.columnar import ColumnarSink
        from repro.trace.hub import TraceHub

        client.subscribe()
        client.run_experiment("fig2", params={"n": 5, "num": 7}, trace=True)
        streamed = tmp_path / "streamed.ctb"
        rows = client.save_trace(str(streamed))
        assert rows > 0

        local = tmp_path / "local.ctb"
        hub = TraceHub()
        hub.attach(ColumnarSink(str(local), hub.registry))
        from repro.experiments import registry
        registry.run_experiment("fig2", hub=hub, n=5, num=7)
        hub.close()
        assert streamed.read_bytes() == local.read_bytes()

    def test_trace_query_filters_server_side(self, client):
        client.run_experiment("fig2", params={"n": 4, "num": 6}, trace=True)
        result = client.query(schema="run.span")
        assert result["rows"]
        assert all(row["schema"] == "run.span" for row in result["rows"])
        aggregate = client.query(schema="order.record", agg="seq",
                                 by="kernel")
        assert aggregate["aggregate"]
        for entry in aggregate["aggregate"].values():
            assert {"count", "min", "max", "total", "mean"} == set(entry)

    def test_trace_query_bad_field_is_bad_request(self, client):
        client.run_experiment("fig2", params={"n": 4, "num": 6}, trace=True)
        with pytest.raises(ServerError) as excinfo:
            client.query(schema="run.span", agg="nope")
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_store_rendering_matches_cli(self, client, tmp_path):
        from repro.cli import format_trace_info, format_trace_query
        from repro.trace.columnar import ColumnarStore

        client.subscribe()
        client.run_experiment("fig2", params={"n": 4, "num": 6}, trace=True)
        path = str(tmp_path / "t.ctb")
        client.save_trace(path)
        store = ColumnarStore.load(path)
        assert client.call("trace.store_info", {"path": path})["lines"] == \
            format_trace_info(store, path)
        opts = {"schema": "order.record", "limit": 5}
        assert client.call("trace.store_query",
                           {"path": path, **opts})["lines"] == \
            format_trace_query(store, opts)

    def test_store_info_missing_path(self, client, tmp_path):
        with pytest.raises(ServerError) as excinfo:
            client.call("trace.store_info",
                        {"path": str(tmp_path / "absent.ctb")})
        assert excinfo.value.code == protocol.E_NOT_FOUND

    def test_unknown_method_lists_known(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.call("kernel.teleport")
        assert excinfo.value.code == protocol.E_UNKNOWN_METHOD
        assert "kernel.run" in excinfo.value.data["known"]

    def test_methods_require_session(self, server):
        with Client(server.address) as bare:
            with pytest.raises(ServerError) as excinfo:
                bare.run_kernel(source=SCALE, kernel="scale")
            assert excinfo.value.code == protocol.E_NO_SESSION

    def test_one_session_per_connection(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.call("session.open")
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_close_returns_session_stats(self, server):
        with Client(server.address) as c:
            c.open_session()
            c.run_kernel(source=SCALE, kernel="scale",
                         args={"n": 2, "factor": 2},
                         buffers={"data": {"size": 2}})
            summary = c.close_session()
            assert summary["stats"]["jobs_completed"] == 1
            assert summary["stats"]["cycles_total"] > 0


class TestBackpressure:
    SLOW = """
    __kernel void slow(__global int* out, int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = acc + i;
            out[0] = acc;
        }
    }
    """

    def test_busy_error_is_structured_and_deterministic(self):
        handle = start_server_thread(
            ServerConfig(workers=0, session_queue_limit=1))
        try:
            with Client(handle.address) as c:
                c.open_session()
                program = c.compile(self.SLOW)["program"]
                job = c.enqueue(program=program, kernel="slow",
                                args={"n": 40000},
                                buffers={"out": {"size": 1}})
                with pytest.raises(ServerError) as excinfo:
                    c.run_kernel(program=program, kernel="slow",
                                 args={"n": 2},
                                 buffers={"out": {"size": 1}})
                assert excinfo.value.code == protocol.E_BUSY
                assert excinfo.value.data == {
                    "scope": "session", "queue_depth": 1, "queue_limit": 1}
                # The in-flight job still completes correctly.
                assert c.wait(job["job"])["buffers"]["out"] == [799980000]
                stats = c.stats()
                assert stats["jobs"]["busy_rejections"] == 1
        finally:
            handle.stop()

    def test_session_limit(self):
        handle = start_server_thread(ServerConfig(workers=0, max_sessions=1))
        try:
            with Client(handle.address) as first:
                first.open_session()
                with Client(handle.address) as second:
                    with pytest.raises(ServerError) as excinfo:
                        second.open_session()
                    assert excinfo.value.code == protocol.E_SESSION_LIMIT
        finally:
            handle.stop()


class TestServeCli:
    def test_serve_parser_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "7711", "--workers", "2",
             "--session-queue-limit", "4"])
        assert args.command == "serve"
        assert args.port == 7711
        assert args.workers == 2
        assert args.session_queue_limit == 4

    def test_run_server_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig2", "--server", "127.0.0.1:7711"])
        assert args.server == "127.0.0.1:7711"
        assert build_parser().parse_args(["run", "fig2"]).server is None

    def test_trace_info_server_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["trace", "info", "x.ctb", "--server", "unix:/tmp/s"])
        assert args.server == "unix:/tmp/s"

    def test_run_remote_stdout_and_bundle_byte_identical(self, server,
                                                         tmp_path):
        from repro import cli

        local_path = tmp_path / "local.ctb"
        remote_path = tmp_path / "remote.ctb"
        argv = ["run", "fig2", "--n", "5", "--num", "7"]

        local_out = io.StringIO()
        with contextlib.redirect_stdout(local_out):
            assert cli.main(argv + ["--trace-out", str(local_path)]) == 0
        remote_out = io.StringIO()
        with contextlib.redirect_stdout(remote_out):
            assert cli.main(argv + ["--trace-out", str(remote_path),
                                    "--server", server.address]) == 0
        assert (remote_out.getvalue()
                .replace(str(remote_path), str(local_path))
                == local_out.getvalue())
        assert local_path.read_bytes() == remote_path.read_bytes()

    def test_trace_tools_remote_byte_identical(self, server, tmp_path):
        from repro import cli

        path = tmp_path / "probe.ctb"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "fig2", "--n", "4", "--num", "6",
                             "--trace-out", str(path)]) == 0
        for argv in (["trace", "info", str(path)],
                     ["trace", "query", str(path),
                      "--schema", "order.record", "--limit", "3"],
                     ["trace", "query", str(path), "--schema",
                      "order.record", "--agg", "seq", "--by", "kernel"]):
            local_out = io.StringIO()
            with contextlib.redirect_stdout(local_out):
                assert cli.main(argv) == 0
            remote_out = io.StringIO()
            with contextlib.redirect_stdout(remote_out):
                assert cli.main(argv + ["--server", server.address]) == 0
            assert remote_out.getvalue() == local_out.getvalue()

    def test_run_remote_bad_address_fails_cleanly(self, capsys):
        from repro import cli

        assert cli.main(["run", "fig2", "--server",
                         "127.0.0.1:1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestWorkerPoolMode:
    def test_pool_run_matches_inline_run(self, tmp_path):
        """Worker-process execution is byte-identical to inline execution."""
        handle = start_server_thread(ServerConfig(workers=2))
        try:
            with Client(handle.address) as c:
                c.open_session()
                c.subscribe()
                remote = c.run_kernel(
                    source=SCALE, kernel="scale", args={"n": 8, "factor": 3},
                    buffers={"data": {"size": 8,
                                      "fill": [1, 2, 3, 4, 5, 6, 7, 8]}},
                    trace=True)
                pool_path = tmp_path / "pool.ctb"
                c.save_trace(str(pool_path))
            local = execute_kernel_job(
                SCALE, "scale", args={"n": 8, "factor": 3},
                buffers={"data": {"size": 8,
                                  "fill": [1, 2, 3, 4, 5, 6, 7, 8]}},
                trace=True)
            records = local.pop("trace_records")
            schemas = local.pop("trace_schemas")
            local["trace"] = {"records": len(records)}
            assert remote == local

            from repro.trace.columnar import ColumnarStore
            from repro.trace.schema import SchemaRegistry

            registry = SchemaRegistry()
            for name, fields, doc in schemas:
                registry.ensure(name, tuple(fields), doc=doc)
            local_path = tmp_path / "inline.ctb"
            ColumnarStore.from_records(records, registry).save(
                str(local_path))
            assert pool_path.read_bytes() == local_path.read_bytes()
        finally:
            handle.stop()


class TestBinarySegmentStreaming:
    def _run_traced(self, client):
        client.subscribe()
        client.run_experiment("fig2", params={"n": 4, "num": 6}, trace=True)

    def test_negotiation_acked_and_default_on(self, server):
        with Client(server.address) as c:
            ack = c.open_session()
            assert ack["server"]["binary_segments"] is True
            assert ack["server"]["trace_flush_rows"] == 0
        with Client(server.address) as c:
            ack = c.open_session(binary_segments=True)
            assert ack["server"]["binary_segments"] is True

    def test_base64_request_rejected_and_connection_survives(self, server,
                                                             tmp_path):
        with Client(server.address) as c:
            with pytest.raises(ServerError) as excinfo:
                c.open_session(binary_segments=False)
            assert excinfo.value.code == protocol.E_BAD_REQUEST
            assert "base64" in str(excinfo.value)
            assert excinfo.value.data == {"param": "binary_segments"}
            assert c.session_id is None
            # The refused open left no session behind: the same
            # connection opens one and streams binary frames.
            ack = c.open_session()
            assert ack["server"]["binary_segments"] is True
            self._run_traced(c)
            assert c.save_trace(str(tmp_path / "after.ctb")) > 0

    def test_trace_flush_rows_splits_streamed_segments(self, server,
                                                       tmp_path):
        with Client(server.address) as whole:
            whole.open_session()
            self._run_traced(whole)
            whole_path = tmp_path / "whole.ctb"
            whole_rows = whole.save_trace(str(whole_path))
            whole_count = len(whole.segments)
        with Client(server.address) as split:
            ack = split.open_session(trace_flush_rows=2)
            assert ack["server"]["trace_flush_rows"] == 2
            self._run_traced(split)
            assert all(s.rows <= 2 for s in split.segments)
            assert len(split.segments) > whole_count
            split_path = tmp_path / "split.ctb"
            split_rows = split.save_trace(str(split_path))
        # merge_segments stitches the fine-grained stream back into the
        # exact bundle an unsplit session (or a local capture) produces.
        assert split_rows == whole_rows
        assert split_path.read_bytes() == whole_path.read_bytes()


class TestParamValidation:
    """Every method accepts exactly the params its handler reads."""

    def _assert_bad_param(self, client, method, params, name):
        with pytest.raises(ServerError) as excinfo:
            client.call(method, params)
        assert excinfo.value.code == protocol.E_BAD_REQUEST
        assert excinfo.value.data == {"param": name}

    def _assert_session_runs(self, client):
        result = client.run_kernel(
            source=SCALE, kernel="scale", args={"n": 2, "factor": 4},
            buffers={"data": {"size": 2, "fill": [1, 2]}})
        assert result["buffers"]["data"] == [4, 8]

    def test_table_covers_every_method(self):
        from repro.server.daemon import _PARAMS

        assert set(_PARAMS) == set(ReproServer._HANDLERS)

    def test_misspelt_query_filter_rejected(self, client):
        client.run_experiment("fig2", params={"n": 4, "num": 6}, trace=True)
        self._assert_bad_param(client, "trace.query",
                               {"scheam": "run.span"}, "scheam")
        self._assert_session_runs(client)
        rows = client.query(schema="run.span")["rows"]
        assert rows and all(row["schema"] == "run.span" for row in rows)

    def test_frontend_param_rejected(self, client):
        self._assert_bad_param(client, "program.compile",
                               {"source": SCALE, "frontend": "reference"},
                               "frontend")
        self._assert_bad_param(client, "kernel.run", {
            "source": SCALE, "kernel": "scale", "frontend": "codegen",
            "args": {"n": 2, "factor": 4},
            "buffers": {"data": {"size": 2}}}, "frontend")
        self._assert_session_runs(client)

    def test_reference_executor_rejected_at_the_wire(self, client):
        for method in ("kernel.run", "kernel.enqueue"):
            self._assert_bad_param(client, method, {
                "source": SCALE, "kernel": "scale", "executor": "reference",
                "args": {"n": 2, "factor": 4},
                "buffers": {"data": {"size": 2}}}, "executor")
        assert client.stats()["per_session"][client.session_id][
            "jobs_completed"] == 0
        self._assert_session_runs(client)

    def test_rejected_open_leaves_no_session(self, server):
        with Client(server.address) as c:
            with pytest.raises(ServerError) as excinfo:
                c.open_session(engine="fast")
            assert excinfo.value.data == {"param": "engine"}
            c.open_session()
            self._assert_session_runs(c)
