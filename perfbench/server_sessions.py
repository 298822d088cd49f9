"""``server_sessions``: one client in a closed loop against the daemon.

The daemon is a ``repro-fpga serve --workers 0`` subprocess on a unix
socket. An item is one whole session: open, compile (mostly program
cache hits), create buffers, run a small kernel, read the output back,
on three sessions in thirteen a traced ``experiment.run`` of a seeded
size plus a ``trace.query``, and close. Whole-session items average out the wakeup
jitter of single requests. Outputs are checked against the same jobs
run in-process through ``repro.server.jobs``.

Buffer sizes come from the menu ``opencl_kernels`` uses for ``saxpy``;
values have four digits. A vector over about 13k elements does not fit
the daemon's 64 KiB request line, so its 16384-element sessions fail
and the client reconnects; the same seed fails the same sessions.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List

import numpy as np

from perfbench.common import (FIRST_ROUND_ORDER, NullTracer, add_counts,
                              model_metrics, p50_ms)
from perfbench.opencl_kernels import SAXPY, SIZES

#: Per-round session sizes: the ``saxpy`` sizes of ``opencl_kernels``.
SESSION_SIZES = SIZES + (96, 128, 160, 192, 320, 384, 448, 512)
TINY_SESSION_SIZES = (64, 16384)
#: Sessions per round that also run a traced experiment: the largest
#: ones that fit a request line, so the median session is the same size
#: for every seed.
TRACED_SIZES = (512, 1024, 4096)
#: Daemon-side programs: (SCALE, VARIANT) defines sessions compile.
PROGRAMS = ((2, 0), (3, 0), (5, 0))
#: Fig. 2 sizes a traced session draws from; both run 54 iterations.
EXPERIMENTS = ({"n": 6, "num": 9}, {"n": 9, "num": 6})

METHODS = ("session_open", "program_compile", "buffer_create", "kernel_run",
           "buffer_read", "trace_query", "session_close")


def _json(value: Any) -> Any:
    """The value as it looks after a JSON round trip."""
    return json.loads(json.dumps(value))


class Workload:
    name = "server_sessions"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.rng = random.Random(seed)
        gen = np.random.default_rng(self.rng.getrandbits(63))
        sizes = TINY_SESSION_SIZES if tiny else SESSION_SIZES
        self.sessions: List[Dict[str, Any]] = []
        for number, size in enumerate(sizes):
            scale, variant = self.rng.choice(PROGRAMS)
            self.sessions.append({
                "number": number,
                "size": size,
                "defines": {"SCALE": scale, "VARIANT": variant},
                "a": [int(v) for v in gen.integers(1000, 10000, size)],
                "b": [int(v) for v in gen.integers(1000, 10000, size)],
                "experiment": (self.rng.choice(EXPERIMENTS)
                               if size in TRACED_SIZES or tiny else None),
            })
        self.workdir = workdir
        self.socket = os.path.join(workdir, "daemon.sock")
        self.daemon = None
        self.client = None
        self.extra_pids: List[int] = []
        self.requests = 0
        self.expected: Dict[Any, Any] = {}
        self.kernel_run_s: Dict[int, List[float]] = {}

    def round_items(self, round_index: int) -> List[Dict[str, Any]]:
        items = list(self.sessions)
        (self.rng if round_index else
         random.Random(FIRST_ROUND_ORDER)).shuffle(items)
        return items

    def setup(self) -> None:
        from repro.server.client import Client
        from repro.server.protocol import ServerError

        self.Client = Client
        self.ServerError = ServerError
        self._stderr = open(os.path.join(self.workdir, "daemon.log"), "w")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", "0"],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        self.extra_pids = [self.daemon.pid]
        banner = self.daemon.stdout.readline()
        if "listening" not in banner:
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.client = Client(f"unix:{self.socket}")
        # Warm-up: compile every program the sessions use, then run the
        # smallest session once.
        tracer = NullTracer()
        self._call(tracer, "session.open", {"binary_segments": True})
        for scale, variant in PROGRAMS:
            self._call(tracer, "program.compile", {
                "source": SAXPY,
                "defines": {"SCALE": scale, "VARIANT": variant}})
        self._call(tracer, "session.close", {})
        smallest = min(self.sessions, key=lambda s: s["size"])
        self.run_item(smallest, tracer, {})

    def prepare_expected(self) -> None:
        """Run every session's jobs in-process: the reference outputs.

        They run in a forked child, so neither their imports nor their
        memory count towards this process's set-up time or peak RSS;
        only a digest of each result comes back.
        """
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            self.expected = pool.submit(_references, self.sessions).result()

    def _call(self, tracer, method: str, params: Dict[str, Any]) -> Any:
        self.requests += 1
        with tracer.span("server." + method.replace(".", "_")):
            return self.client.call(method, params)

    def run_item(self, item, tracer, counts: Dict[str, Any]) -> Dict[str, Any]:
        requests = self.requests
        try:
            return self._session(item, tracer, counts)
        except (self.ServerError, OSError):
            counts["server.failed_requests"] = counts.get(
                "server.failed_requests", 0) + 1
            # The daemon drops a connection whose request line is too
            # long; open a new one for the next session.
            self.client.close()
            self.client = self.Client(f"unix:{self.socket}")
            counts["server.reconnects"] = counts.get(
                "server.reconnects", 0) + 1
            raise
        finally:
            counts["server.requests"] = counts.get(
                "server.requests", 0) + self.requests - requests

    def _session(self, item, tracer, counts: Dict[str, Any]) -> Dict[str, Any]:
        size = item["size"]
        self._call(tracer, "session.open", {"binary_segments": True})
        compiled = self._call(tracer, "program.compile",
                              {"source": SAXPY, "defines": item["defines"]})
        for name, fill in (("A", item["a"]), ("B", item["b"]), ("C", None)):
            self._call(tracer, "buffer.create",
                       {"name": name, "size": size, "fill": fill})
        result = self._call(tracer, "kernel.run", {
            "program": compiled["program"], "kernel": "saxpy",
            "executor": "batch", "args": {"__global_size": size},
            "buffers": {"a": {"session": "A"}, "b": {"session": "B"},
                        "c": {"session": "C"}}})
        if tracer.enabled:
            _, start, end, _, _ = tracer.spans[-1]
            self.kernel_run_s.setdefault(item["number"], []).append(
                end - start)
        values = self._call(tracer, "buffer.read", {"name": "C"})["values"]
        output: Dict[str, Any] = {"result": result, "values": values}
        if item["experiment"] is not None:
            run = self._call(tracer, "experiment.run", {
                "name": "fig2", "params": item["experiment"], "trace": True})
            query = self._call(tracer, "trace.query",
                               {"schema": "order.record", "agg": "seq"})
            output["experiment"] = (run["rendered"],
                                    query["aggregate"]["(all)"]["count"])
        self._call(tracer, "session.close", {})
        add_counts(counts, {
            "sim.cycles": result["sim_now"],
            "pipeline.iterations_retired":
                result["engine"]["iterations_retired"],
            "pipeline.issue_stall_cycles":
                result["engine"]["issue_stall_cycles"],
            "memory.loads": result["memory"]["loads"],
            "memory.stores": result["memory"]["stores"],
            "memory.row_hits": result["memory"]["row_hits"],
            "memory.row_misses": result["memory"]["row_misses"],
            "memory.total_load_latency":
                result["memory"]["total_load_latency"],
        })
        return output

    def check(self, item, output: Dict[str, Any]) -> bool:
        result = dict(output["result"])
        result.pop("trace", None)
        result_digest, values_digest = self.expected[item["number"]]
        if (digest(result) != result_digest
                or digest(output["values"]) != values_digest):
            return False
        if item["experiment"] is not None:
            key = json.dumps(item["experiment"], sort_keys=True)
            return digest(list(output["experiment"])) == self.expected[key]
        return True

    def layer_metrics(self, tracer, counts: Dict[str, Any],
                      tally: Dict[str, Any]) -> Dict[str, Any]:
        metrics = model_metrics(counts)
        for name in ("frontend.compiles", "frontend.cache_hit_ratio",
                     "pipeline.batch_table_ratio", "pipeline.batch_fallbacks"):
            del metrics[name]
        for method in METHODS:
            metrics[f"server.{method}.p50_ms"] = (
                p50_ms(tracer.durations(f"server.{method}")), "ms")
        from repro.server.jobs import execute_kernel_job

        # In-process time of each session's job, best of three with the
        # program cache warm, against the client-observed kernel.run.
        overheads = []
        for session in self.sessions:
            samples = self.kernel_run_s.get(session["number"])
            if not samples:
                continue
            job = _job(session)
            best = min(_timed(execute_kernel_job, job)
                       for _ in range(3))
            overheads.extend(sample - best for sample in samples)
        metrics["server.kernel_run_overhead_ms"] = (p50_ms(overheads), "ms")
        metrics["server.failed_requests"] = (
            counts.get("server.failed_requests", 0), "count")
        metrics["server.reconnects"] = (
            counts.get("server.reconnects", 0), "count")
        requests = counts.get("server.requests", 0) * tally["rounds"]
        metrics["server.daemon_cpu_ms_per_request"] = (
            tally["extra_cpu"] * 1e3 / requests if requests else 0.0, "ms")
        return metrics

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.call("server.shutdown")
            except (self.ServerError, OSError):
                pass
            self.client.close()
        if self.daemon is not None:
            try:
                self.daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
            self.daemon.stdout.close()
            self._stderr.close()


def _job(session: Dict[str, Any]) -> Dict[str, Any]:
    """The in-process ``execute_kernel_job`` call a session's kernel.run
    makes through the daemon."""
    size = session["size"]
    return {"source": SAXPY, "kernel": "saxpy",
            "args": {"__global_size": size},
            "defines": session["defines"], "executor": "batch",
            "buffers": {"a": {"size": size, "fill": session["a"]},
                        "b": {"size": size, "fill": session["b"]},
                        "c": {"size": size, "fill": None}}}


def digest(value: Any) -> str:
    """SHA-256 of the value's canonical JSON."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()


def _references(sessions: List[Dict[str, Any]]) -> Dict[Any, Any]:
    """Digests of every session's expected results, computed in-process."""
    from repro.server.jobs import execute_experiment_job, execute_kernel_job

    expected: Dict[Any, Any] = {}
    for session in sessions:
        result = _json(execute_kernel_job(**_job(session)))
        expected[session["number"]] = (digest(result),
                                       digest(result["buffers"]["c"]))
        experiment = session["experiment"]
        if experiment is not None:
            key = json.dumps(experiment, sort_keys=True)
            if key not in expected:
                job = execute_experiment_job("fig2", experiment, trace=True)
                records = sum(1 for record in job["trace_records"]
                              if record.schema == "order.record")
                expected[key] = digest([job["rendered"], records])
    return expected


def _timed(function, kwargs: Dict[str, Any]) -> float:
    start = time.perf_counter()
    function(**kwargs)
    return time.perf_counter() - start
