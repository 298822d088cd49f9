"""Synchronous client for the emulation daemon.

:class:`Client` speaks the newline-delimited JSON-RPC protocol over a
plain blocking socket — no asyncio on the client side, so the thin CLI
wrappers (``repro-fpga run --server``, ``repro-fpga trace --server``)
and tests stay simple. Server-push notifications that arrive while a
call waits for its response are stashed:

* ``trace.segment`` payloads are decoded back into
  :class:`~repro.trace.columnar.Segment` objects (``client.segments``),
  ready for :meth:`Client.save_trace`;
* ``kernel.complete`` results land in ``client.completions`` keyed by
  job id (:meth:`Client.wait` prefers the stash, falling back to the
  server-side ``job.wait``);
* everything else accumulates in ``client.notifications``.

The server follows each ``trace.segment`` line with the raw column
bytes of its segments (binary frames, the only segment encoding), which
the client wraps zero-copy — no per-record rebuild.

:meth:`Client.save_trace` writes the streamed segments to a ``.ctb``
bundle byte-identical to what a local in-process run with
``--trace-out`` would have produced (segments merged per schema in
first-appearance order — exactly one ``ColumnarSink`` flush at hub
close).
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional

from repro.server import protocol
from repro.server.protocol import ServerError


class Client:
    """One connection (and therefore one session) to a daemon."""

    def __init__(self, address: str, timeout: float = 300.0) -> None:
        kind, target = protocol.parse_address(address)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(target)
        except OSError as exc:
            self._sock.close()
            raise ServerError(
                protocol.E_INTERNAL,
                f"cannot connect to server at {address!r}: {exc}") from exc
        self.address = address
        self._reader = self._sock.makefile("rb")
        self._next_id = 0
        self.session_id: Optional[str] = None
        #: decoded streamed segments, in arrival order.
        self.segments: List[Any] = []
        #: ``trace.segment`` batch metadata (rows, batch number, replay).
        self.segment_batches: List[Dict[str, Any]] = []
        #: async job completions by job id (from ``kernel.complete``).
        self.completions: Dict[str, Dict[str, Any]] = {}
        #: every other notification, in arrival order.
        self.notifications: List[Dict[str, Any]] = []

    # -- transport ---------------------------------------------------------

    def call(self, method: str, params: Optional[Dict[str, Any]] = None) -> Any:
        """Send one request; block until its response; return the result.

        Notifications arriving before the response are stashed (see the
        module docstring). Error responses raise :class:`ServerError`
        with the server's structured code/message/data.
        """
        self._next_id += 1
        request_id = self._next_id
        self._sock.sendall(protocol.encode_request(request_id, method, params))
        while True:
            line = self._reader.readline()
            if not line:
                raise ServerError(protocol.E_INTERNAL,
                                  "server closed the connection")
            message = protocol.decode_line(line)
            if "id" not in message:
                self._on_notification(message)
                continue
            if message["id"] != request_id:
                raise ServerError(
                    protocol.E_INTERNAL,
                    f"out-of-order response: expected id {request_id}, "
                    f"got {message['id']}")
            error = message.get("error")
            if error is not None:
                raise ServerError(error.get("code", protocol.E_INTERNAL),
                                  error.get("message", "server error"),
                                  error.get("data"))
            return message.get("result")

    def _on_notification(self, message: Dict[str, Any]) -> None:
        method = message.get("method")
        params = message.get("params") or {}
        if method == "trace.segment":
            self.segment_batches.append(
                {key: params[key] for key in ("batch", "rows")
                 if key in params} | {"replay": bool(params.get("replay"))})
            # Binary frame: each header's payload follows the
            # notification line, in listing order.
            for header in params.get("segments", ()):
                data = self._read_exact(int(header["length"]))
                self.segments.append(
                    protocol.segment_from_header(header, data))
        elif method == "kernel.complete":
            self.completions[params.get("job")] = params
        else:
            self.notifications.append(message)

    def _read_exact(self, length: int) -> bytes:
        data = self._reader.read(length)
        if len(data) != length:
            raise ServerError(
                protocol.E_INTERNAL,
                f"server closed mid-frame: expected {length} payload "
                f"bytes, got {len(data)}")
        return data

    def close(self) -> None:
        """Close the connection (the server reaps the session)."""
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience wrappers ----------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.call("server.ping")

    def stats(self) -> Dict[str, Any]:
        return self.call("server.stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.call("server.shutdown")

    def open_session(self, **params: Any) -> Dict[str, Any]:
        result = self.call("session.open", params)
        self.session_id = result["session"]
        return result

    def close_session(self) -> Dict[str, Any]:
        result = self.call("session.close")
        self.session_id = None
        return result

    def compile(self, source: str, **params: Any) -> Dict[str, Any]:
        return self.call("program.compile", {"source": source, **params})

    def run_kernel(self, **params: Any) -> Dict[str, Any]:
        return self.call("kernel.run", params)

    def enqueue(self, **params: Any) -> Dict[str, Any]:
        return self.call("kernel.enqueue", params)

    def wait(self, job_id: str) -> Dict[str, Any]:
        """Result of an enqueued job (stashed completion or server wait)."""
        done = self.completions.get(job_id)
        if done is not None:
            if not done.get("ok"):
                error = done.get("error") or {}
                raise ServerError(error.get("code", protocol.E_INTERNAL),
                                  error.get("message", "job failed"),
                                  error.get("data"))
            return done["result"]
        return self.call("job.wait", {"job": job_id})

    def run_experiment(self, name: str, **params: Any) -> Dict[str, Any]:
        return self.call("experiment.run", {"name": name, **params})

    def subscribe(self, **params: Any) -> Dict[str, Any]:
        return self.call("trace.subscribe", params or None)

    def query(self, **params: Any) -> Dict[str, Any]:
        return self.call("trace.query", params or None)

    # -- streamed-trace persistence -----------------------------------------

    def save_trace(self, path: str) -> int:
        """Write every streamed segment to ``path`` as a ``.ctb`` bundle.

        Segments are merged per schema in first-appearance order across
        the whole stream — the grouping a local ``ColumnarSink`` uses
        for its single flush at hub close — so the file is
        byte-identical to an in-process ``--trace-out`` capture of the
        same work. Single-batch streams pass through zero-copy (the
        received column bytes are written verbatim). Returns rows
        written; with zero streamed rows no file is created (matching
        the local sink).
        """
        if not self.segments:
            return 0
        from repro.trace.columnar import ColumnarStore, merge_segments

        merged = merge_segments(self.segments)
        ColumnarStore(list(merged)).save(path)
        return sum(segment.rows for segment in merged)
