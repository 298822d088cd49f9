"""The asyncio emulation daemon: sessions, scheduling, trace streaming.

``repro-fpga serve`` builds a :class:`ReproServer` and runs it until a
client sends ``server.shutdown`` (or the process receives SIGINT). One
asyncio task per connection reads newline-delimited JSON-RPC requests
and answers them in order; job execution happens off the event loop —
on the warm :class:`~repro.sweep.runner.WorkerPool` (``--workers N``)
or the default thread executor (``--workers 0``) — so the loop stays
responsive to every other client while a kernel simulates.

Protocol methods (see ``docs/SERVER.md`` for the full reference)::

    server.ping / server.stats / server.shutdown
    session.open / session.close
    program.compile
    buffer.create / buffer.read / buffer.free
    kernel.run / kernel.enqueue / job.wait
    experiment.run
    trace.subscribe / trace.unsubscribe / trace.query
    trace.store_info / trace.store_query

Subscribed sessions receive their trace rows as ``trace.segment`` binary
frames: the notification line, then the raw ``.ctb`` column bytes of
each segment (see :mod:`repro.server.protocol`).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.server import protocol
from repro.server.protocol import ServerError
from repro.server.scheduler import JobScheduler
from repro.server.session import Session, SessionQuota, Subscription


@dataclass
class ServerConfig:
    """Everything ``repro-fpga serve`` lets you tune."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (reported by ``address``).
    port: int = 0
    #: Unix-domain socket path; overrides host/port when set.
    socket_path: Optional[str] = None
    #: Worker processes for job execution. ``None`` = one per CPU;
    #: ``0`` = inline (thread-executor) execution, no process pool.
    workers: Optional[int] = None
    #: Per-session job-queue bound (the ``busy`` backpressure limit).
    session_queue_limit: int = 8
    #: Server-wide in-flight job bound; ``None`` derives it from the
    #: worker count (``max(8, 4 * workers)``).
    max_inflight: Optional[int] = None
    max_sessions: int = 64
    #: Element quota across one session's named buffers.
    max_buffer_elems: int = 1 << 20
    #: Retained trace records per session (older rows age out).
    max_trace_records: int = 1 << 20
    #: Default streamed-segment split: at most N rows per streamed
    #: segment (0 = one segment per schema per batch). Sessions may
    #: override via the ``session.open`` ``trace_flush_rows`` param.
    trace_flush_rows: int = 0


class _Connection:
    """Per-connection transport state (writer + ordered write lock)."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.session: Optional[Session] = None

    async def send(self, data: bytes) -> None:
        async with self.lock:
            self.writer.write(data)
            await self.writer.drain()

    async def notify(self, method: str, params: Dict[str, Any]) -> None:
        await self.send(protocol.encode_notification(method, params))


class ReproServer:
    """The emulation-as-a-service daemon."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        workers = self.config.workers
        if workers == 0:
            self.pool = None
        else:
            from repro.sweep.runner import WorkerPool
            self.pool = WorkerPool(workers)
        pool_workers = self.pool.workers if self.pool is not None else 1
        max_inflight = self.config.max_inflight
        if max_inflight is None:
            max_inflight = max(8, 4 * pool_workers)
        self.scheduler = JobScheduler(self.pool, max_inflight)
        self.sessions: Dict[str, Session] = {}
        self._session_conns: Dict[str, _Connection] = {}
        self._session_seq = 0
        self._sessions_opened = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.address: Optional[str] = None
        self._job_tasks: List[asyncio.Task] = []
        self._conn_tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ---------------------------------------------------------

    def warm(self) -> None:
        """Pre-fork the worker pool (call before serving traffic)."""
        if self.pool is not None:
            self.pool.warm_start()

    async def start(self) -> str:
        """Bind the listening socket; returns the bound address."""
        self._stop_event = asyncio.Event()
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.socket_path)
            self.address = f"unix:{self.config.socket_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port)
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Start (if needed) and serve until ``server.shutdown`` arrives."""
        if self._server is None:
            await self.start()
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener, sessions, job tasks, and the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = ([task for task in self._job_tasks if not task.done()]
                   + [task for task in self._conn_tasks if not task.done()])
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._job_tasks = []
        self._conn_tasks.clear()
        for session in list(self.sessions.values()):
            session.closed = True
        self.sessions.clear()
        self._session_conns.clear()
        if self.pool is not None:
            self.pool.close()

    def request_shutdown(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    # -- connection handling -----------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                await self._handle_line(conn, line)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._close_connection_session(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _close_connection_session(self, conn: _Connection) -> None:
        session = conn.session
        if session is not None:
            session.closed = True
            session.subscriptions.clear()
            self.sessions.pop(session.session_id, None)
            self._session_conns.pop(session.session_id, None)
            conn.session = None

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        request_id: Optional[int] = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            method = message.get("method")
            if not isinstance(method, str):
                raise ServerError(protocol.E_BAD_REQUEST,
                                  "request needs a string 'method'")
            params = message.get("params") or {}
            if not isinstance(params, dict):
                raise ServerError(protocol.E_BAD_REQUEST,
                                  "'params' must be an object")
            handler = self._HANDLERS.get(method)
            if handler is None:
                raise ServerError(
                    protocol.E_UNKNOWN_METHOD,
                    f"unknown method {method!r}",
                    {"known": sorted(self._HANDLERS)})
            accepted = _PARAMS[method]
            for name in params:
                if name not in accepted:
                    raise ServerError(
                        protocol.E_BAD_REQUEST,
                        f"{method} takes no param {name!r} "
                        f"(accepted: {', '.join(sorted(accepted)) or 'none'})",
                        {"param": name})
            result = await handler(self, conn, params)
            await conn.send(protocol.encode_response(request_id, result))
        except ServerError as exc:
            await conn.send(protocol.encode_error(request_id, exc))
        except Exception as exc:  # noqa: BLE001 - a request never kills the daemon
            error = ServerError(protocol.E_INTERNAL,
                                f"{type(exc).__name__}: {exc}")
            await conn.send(protocol.encode_error(request_id, error))

    # -- helpers -----------------------------------------------------------

    def _require_session(self, conn: _Connection) -> Session:
        if conn.session is None:
            raise ServerError(protocol.E_NO_SESSION,
                              "open a session first (session.open)")
        return conn.session

    async def _send_segments(self, conn: _Connection, session: Session,
                             subscription: Subscription,
                             segments: List[Any],
                             replay: bool = False) -> None:
        """Deliver one ``trace.segment`` batch as a binary frame.

        The notification line is followed by the raw column bytes of
        each segment, written atomically under the connection lock, so
        no other message interleaves.
        """
        rows = sum(segment.rows for segment in segments)
        subscription.batches_sent += 1
        subscription.rows_sent += rows
        params: Dict[str, Any] = {
            "session": session.session_id,
            "subscription": subscription.subscription_id,
            "batch": subscription.batches_sent,
            "rows": rows,
        }
        if replay:
            params["replay"] = True
        payloads = [segment.payload_bytes() for segment in segments]
        params["encoding"] = "binary"
        params["segments"] = [
            protocol.segment_header(segment, len(payload))
            for segment, payload in zip(segments, payloads)]
        await conn.send(protocol.encode_binary_notification(
            "trace.segment", params, payloads))

    async def _publish_records(self, conn: _Connection, session: Session,
                               result: Dict[str, Any]) -> int:
        """Retain a finished job's trace records and stream to subscribers.

        Pops the records off the result (the response carries counts,
        not rows — subscribers stream them, ``trace.query`` filters
        them). Returns the number of new records.
        """
        records = result.pop("trace_records", None)
        schemas = result.pop("trace_schemas", ())
        if not records:
            return 0
        added = session.add_records(schemas, records)
        for subscription in list(session.subscriptions.values()):
            segments = session.batch_segments(added, subscription)
            if not segments:
                continue
            await self._send_segments(conn, session, subscription, segments)
        return len(added)

    def _kernel_payload(self, session: Session,
                        params: Dict[str, Any]) -> Dict[str, Any]:
        """Build the ``execute_kernel_job`` kwargs from request params."""
        if "program" in params:
            compiled = session.get_program(str(params["program"]))
            source = compiled["source"]
            defines = compiled["defines"]
        else:
            source = params.get("source")
            if not isinstance(source, str):
                raise ServerError(protocol.E_BAD_REQUEST,
                                  "kernel.run needs 'program' or 'source'")
            defines = params.get("defines")
        kernel = params.get("kernel")
        if not isinstance(kernel, str):
            raise ServerError(protocol.E_BAD_REQUEST,
                              "kernel.run needs a 'kernel' name")
        from repro.pipeline.fabric import EXECUTORS

        executor = params.get("executor", "fast")
        if executor not in EXECUTORS:
            raise ServerError(
                protocol.E_BAD_REQUEST,
                f"unknown executor {executor!r} (use 'fast' or 'batch')",
                {"param": "executor"})
        buffers: Dict[str, Dict[str, Any]] = {}
        writebacks: Dict[str, str] = {}
        for name, spec in dict(params.get("buffers") or {}).items():
            if isinstance(spec, dict) and "session" in spec:
                ref = str(spec["session"])
                contents = session.read_buffer(ref)
                buffers[name] = {"size": len(contents), "fill": contents}
                writebacks[name] = ref
            elif isinstance(spec, dict) and "size" in spec:
                buffers[name] = {"size": int(spec["size"]),
                                 "fill": spec.get("fill")}
            else:
                raise ServerError(
                    protocol.E_BAD_REQUEST,
                    f"buffer {name!r}: spec must be {{'size': N[, 'fill']}} "
                    "or {'session': 'NAME'}")
        payload = {
            "source": source,
            "kernel": kernel,
            "args": dict(params.get("args") or {}),
            "buffers": buffers,
            "defines": defines,
            "executor": executor,
            "autorun_args": params.get("autorun_args"),
            "trace": bool(params.get("trace", False)),
        }
        if "max_cycles" in params:
            payload["max_cycles"] = int(params["max_cycles"])
        payload["__writebacks"] = writebacks
        return payload

    async def _run_kernel_job(self, conn: _Connection, session: Session,
                              payload: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one admitted kernel job; stream traces; write back."""
        writebacks = payload.pop("__writebacks", {})
        result = await self.scheduler.execute(session, "kernel", payload)
        session.stats.cycles_total += int(result.get("sim_now", 0))
        streamed = await self._publish_records(conn, session, result)
        result["trace"] = {"records": streamed}
        for kernel_buffer, session_buffer in writebacks.items():
            if kernel_buffer in result["buffers"] and not session.closed:
                session.buffers[session_buffer] = list(
                    result["buffers"][kernel_buffer])
        return result

    # -- method handlers ----------------------------------------------------

    async def _m_ping(self, conn, params):
        return {"pong": True}

    async def _m_stats(self, conn, params):
        from repro.frontend.compiler import program_cache_info

        return {
            "sessions": {
                "open": len(self.sessions),
                "opened_total": self._sessions_opened,
                "limit": self.config.max_sessions,
            },
            "cache": program_cache_info(),
            "jobs": self.scheduler.describe(),
            "per_session": {session_id: session.describe()
                            for session_id, session
                            in sorted(self.sessions.items())},
        }

    async def _m_shutdown(self, conn, params):
        self.request_shutdown()
        return {"stopping": True}

    async def _m_session_open(self, conn, params):
        if conn.session is not None:
            raise ServerError(protocol.E_BAD_REQUEST,
                              "connection already has an open session")
        if not params.get("binary_segments", True):
            raise ServerError(
                protocol.E_BAD_REQUEST,
                "binary_segments: false asks for the base64 segment "
                "encoding, which was removed; trace.segment payloads "
                "always travel as binary frames",
                {"param": "binary_segments"})
        if len(self.sessions) >= self.config.max_sessions:
            raise ServerError(
                protocol.E_SESSION_LIMIT,
                f"server is at its session limit "
                f"({self.config.max_sessions})",
                {"limit": self.config.max_sessions})
        self._session_seq += 1
        self._sessions_opened += 1
        session_id = f"s{self._session_seq}"
        queue_limit = self.config.session_queue_limit
        requested = params.get("queue_limit")
        if requested is not None:
            queue_limit = max(1, min(int(requested), queue_limit))
        trace_flush_rows = self.config.trace_flush_rows
        requested_flush = params.get("trace_flush_rows")
        if requested_flush is not None:
            trace_flush_rows = max(0, int(requested_flush))
        quota = SessionQuota(
            queue_limit=queue_limit,
            max_buffer_elems=self.config.max_buffer_elems,
            max_trace_records=self.config.max_trace_records,
            trace_flush_rows=trace_flush_rows)
        session = Session(session_id, quota=quota)
        self.sessions[session_id] = session
        self._session_conns[session_id] = conn
        conn.session = session
        import repro

        return {
            "session": session_id,
            "server": {
                "version": repro.__version__,
                "mode": "inline" if self.pool is None else "pool",
                "workers": 0 if self.pool is None else self.pool.workers,
                "queue_limit": queue_limit,
                "binary_segments": True,
                "trace_flush_rows": trace_flush_rows,
            },
        }

    async def _m_session_close(self, conn, params):
        session = self._require_session(conn)
        summary = session.describe()
        self._close_connection_session(conn)
        return {"closed": session.session_id, "stats": summary}

    async def _m_program_compile(self, conn, params):
        session = self._require_session(conn)
        source = params.get("source")
        if not isinstance(source, str):
            raise ServerError(protocol.E_BAD_REQUEST,
                              "program.compile needs 'source' text")
        defines = params.get("defines")
        from repro.frontend.compiler import (compile_source,
                                             program_cache_info)
        from repro.frontend.lexer import FrontendError
        from repro.pipeline.fabric import Fabric

        before = program_cache_info()
        try:
            compiled = compile_source(Fabric(), source, defines=defines,
                                      start_autorun=False)
        except FrontendError as exc:
            data: Dict[str, Any] = {}
            if getattr(exc, "line", None):
                data = {"line": exc.line, "column": exc.column}
            raise ServerError(protocol.E_COMPILE, str(exc), data) from None
        after = program_cache_info()
        program_id = session.next_id("p")
        session.programs[program_id] = {
            "source": source,
            "defines": dict(defines) if defines else None,
        }
        return {
            "program": program_id,
            "cache": "hit" if after["hits"] > before["hits"] else "miss",
            "kernels": {name: kernel.kind
                        for name, kernel in sorted(compiled.kernels.items())},
        }

    async def _m_buffer_create(self, conn, params):
        session = self._require_session(conn)
        name = str(params.get("name", ""))
        session.create_buffer(name, int(params.get("size", -1)),
                              params.get("fill"))
        return {"buffer": name, "size": len(session.buffers[name])}

    async def _m_buffer_read(self, conn, params):
        session = self._require_session(conn)
        name = str(params.get("name", ""))
        return {"buffer": name, "values": list(session.read_buffer(name))}

    async def _m_buffer_free(self, conn, params):
        session = self._require_session(conn)
        name = str(params.get("name", ""))
        session.free_buffer(name)
        return {"freed": name}

    async def _m_kernel_run(self, conn, params):
        session = self._require_session(conn)
        payload = self._kernel_payload(session, params)
        self.scheduler.admit(session)
        return await self._run_kernel_job(conn, session, payload)

    async def _m_kernel_enqueue(self, conn, params):
        session = self._require_session(conn)
        payload = self._kernel_payload(session, params)
        self.scheduler.admit(session)       # synchronous: busy is immediate
        job_id = session.next_id("j")
        entry: Dict[str, Any] = {"status": "running",
                                 "event": asyncio.Event()}
        session.job_results[job_id] = entry

        async def _run() -> None:
            try:
                result = await self._run_kernel_job(conn, session, payload)
                entry.update(status="ok", result=result)
            except ServerError as exc:
                entry.update(status="error", error=exc)
            except asyncio.CancelledError:
                entry.update(status="error", error=ServerError(
                    protocol.E_INTERNAL, "server shut down mid-job"))
                raise
            finally:
                entry["event"].set()
            if session.closed:
                return
            params_out: Dict[str, Any] = {"session": session.session_id,
                                          "job": job_id,
                                          "ok": entry["status"] == "ok"}
            if entry["status"] == "ok":
                params_out["result"] = entry["result"]
            else:
                params_out["error"] = entry["error"].to_wire()
            await conn.notify("kernel.complete", params_out)

        task = asyncio.create_task(_run())
        self._job_tasks.append(task)
        self._job_tasks = [t for t in self._job_tasks if not t.done()]
        return {"job": job_id, "queue_depth": session.active_jobs}

    async def _m_job_wait(self, conn, params):
        session = self._require_session(conn)
        job_id = str(params.get("job", ""))
        entry = session.job_results.get(job_id)
        if entry is None:
            raise ServerError(protocol.E_NOT_FOUND,
                              f"session has no job {job_id!r}")
        await entry["event"].wait()
        if entry["status"] == "error":
            raise entry["error"]
        return entry["result"]

    async def _m_experiment_run(self, conn, params):
        session = self._require_session(conn)
        name = params.get("name")
        if not isinstance(name, str):
            raise ServerError(protocol.E_BAD_REQUEST,
                              "experiment.run needs a 'name'")
        payload = {
            "name": name,
            "params": dict(params.get("params") or {}),
            "trace": bool(params.get("trace", False)),
        }
        self.scheduler.admit(session)
        result = await self.scheduler.execute(session, "experiment", payload)
        streamed = await self._publish_records(conn, session, result)
        result["trace"] = {"records": streamed}
        return result

    async def _m_trace_subscribe(self, conn, params):
        session = self._require_session(conn)
        schemas = params.get("schemas")
        subscription = Subscription(
            subscription_id=session.next_id("sub"),
            schemas=set(schemas) if schemas else None)
        session.subscriptions[subscription.subscription_id] = subscription
        if params.get("replay") and session.records:
            segments = session.batch_segments(session.records, subscription)
            if segments:
                await self._send_segments(conn, session, subscription,
                                          segments, replay=True)
        return {"subscription": subscription.subscription_id}

    async def _m_trace_unsubscribe(self, conn, params):
        session = self._require_session(conn)
        subscription_id = str(params.get("subscription", ""))
        subscription = session.subscriptions.pop(subscription_id, None)
        if subscription is None:
            raise ServerError(protocol.E_NOT_FOUND,
                              f"no subscription {subscription_id!r}")
        return {"unsubscribed": subscription_id,
                "batches": subscription.batches_sent,
                "rows": subscription.rows_sent}

    async def _m_trace_query(self, conn, params):
        session = self._require_session(conn)
        from repro.errors import ReproError
        from repro.trace.query import TraceQuery

        store = session.make_store()
        try:
            query = TraceQuery(store)
            if params.get("schema"):
                query.schema(params["schema"])
            if params.get("kernel"):
                query.kernel(*_as_list(params["kernel"]))
            if params.get("cu"):
                query.cu(*[int(value) for value in _as_list(params["cu"])])
            if params.get("site"):
                query.site(*_as_list(params["site"]))
            if (params.get("since") is not None
                    or params.get("until") is not None):
                query.between(params.get("since"), params.get("until"))
            if params.get("agg"):
                result = query.aggregate(params["agg"], by=params.get("by"))
                if not isinstance(result, dict):
                    result = {"(all)": result}
                return {"aggregate": {
                    str(key): {"count": agg.count, "min": agg.minimum,
                               "max": agg.maximum, "total": agg.total,
                               "mean": agg.mean}
                    for key, agg in result.items()}}
            limit = params.get("limit")
            if limit:
                query.limit(int(limit))
            return {"rows": query.rows(), "total_rows": store.total_rows()}
        except ReproError as exc:
            raise ServerError(protocol.E_BAD_REQUEST, str(exc)) from None

    async def _m_trace_store_info(self, conn, params):
        store = _load_store(params)
        from repro.cli import format_trace_info

        return {"lines": format_trace_info(store, str(params.get("path")))}

    async def _m_trace_store_query(self, conn, params):
        store = _load_store(params)
        from repro.cli import format_trace_query
        from repro.errors import ReproError

        try:
            return {"lines": format_trace_query(store, params)}
        except ReproError as exc:
            raise ServerError(protocol.E_BAD_REQUEST, str(exc)) from None

    _HANDLERS = {
        "server.ping": _m_ping,
        "server.stats": _m_stats,
        "server.shutdown": _m_shutdown,
        "session.open": _m_session_open,
        "session.close": _m_session_close,
        "program.compile": _m_program_compile,
        "buffer.create": _m_buffer_create,
        "buffer.read": _m_buffer_read,
        "buffer.free": _m_buffer_free,
        "kernel.run": _m_kernel_run,
        "kernel.enqueue": _m_kernel_enqueue,
        "job.wait": _m_job_wait,
        "experiment.run": _m_experiment_run,
        "trace.subscribe": _m_trace_subscribe,
        "trace.unsubscribe": _m_trace_unsubscribe,
        "trace.query": _m_trace_query,
        "trace.store_info": _m_trace_store_info,
        "trace.store_query": _m_trace_store_query,
    }


_KERNEL_PARAMS = frozenset({
    "program", "source", "defines", "kernel", "args", "buffers",
    "executor", "autorun_args", "trace", "max_cycles"})
_QUERY_PARAMS = frozenset({
    "schema", "kernel", "cu", "site", "since", "until", "agg", "by",
    "limit"})

#: The params each method reads. The dispatcher answers any other
#: top-level key with ``bad_request`` (``data: {"param": name}``) before
#: the handler runs, so a misspelt filter or a removed option fails
#: loudly instead of being ignored.
_PARAMS: Dict[str, frozenset] = {
    "server.ping": frozenset(),
    "server.stats": frozenset(),
    "server.shutdown": frozenset(),
    "session.open": frozenset({"binary_segments", "queue_limit",
                               "trace_flush_rows"}),
    "session.close": frozenset(),
    "program.compile": frozenset({"source", "defines"}),
    "buffer.create": frozenset({"name", "size", "fill"}),
    "buffer.read": frozenset({"name"}),
    "buffer.free": frozenset({"name"}),
    "kernel.run": _KERNEL_PARAMS,
    "kernel.enqueue": _KERNEL_PARAMS,
    "job.wait": frozenset({"job"}),
    "experiment.run": frozenset({"name", "params", "trace"}),
    "trace.subscribe": frozenset({"schemas", "replay"}),
    "trace.unsubscribe": frozenset({"subscription"}),
    "trace.query": _QUERY_PARAMS,
    "trace.store_info": frozenset({"path"}),
    "trace.store_query": _QUERY_PARAMS | {"path"},
}


def _as_list(value: Any) -> List[Any]:
    return value if isinstance(value, list) else [value]


def _load_store(params: Dict[str, Any]):
    from repro.errors import ReproError
    from repro.trace.columnar import ColumnarStore

    path = params.get("path")
    if not isinstance(path, str):
        raise ServerError(protocol.E_BAD_REQUEST, "needs a store 'path'")
    try:
        return ColumnarStore.load(path)
    except ReproError as exc:
        raise ServerError(protocol.E_NOT_FOUND, str(exc)) from None


# -- embedding helpers --------------------------------------------------------

class ServerHandle:
    """A daemon running on a private thread (tests, benchmarks, tools)."""

    def __init__(self, server: ReproServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop, address: str) -> None:
        self.server = server
        self.thread = thread
        self.loop = loop
        self.address = address

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown and join the server thread (idempotent)."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_server_thread(config: Optional[ServerConfig] = None,
                        warm: bool = True) -> ServerHandle:
    """Run a :class:`ReproServer` on a background thread; returns a handle.

    The pool (if any) is pre-forked before the listener accepts traffic.
    The handle's ``address`` is ready to hand to a
    :class:`repro.server.client.Client`.
    """
    server = ReproServer(config)
    if warm:
        server.warm()
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _serve() -> None:
            await server.start()
            started.set()
            await server.serve_until_shutdown()

        try:
            loop.run_until_complete(_serve())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise ServerError(protocol.E_INTERNAL,
                          "server thread failed to start within 30s")
    return ServerHandle(server, thread, box["loop"], server.address)
