"""Job bodies: the pure functions the server schedules onto workers.

A job is a pure function of its keyword arguments that builds a private
:class:`~repro.pipeline.fabric.Fabric`, does the work, and returns one
picklable dict — the same function runs unchanged in the event loop's
thread executor (``--workers 0``), in a warm
:class:`~repro.sweep.runner.WorkerPool` process, or directly in a test.
That single codepath is the server's determinism contract: a kernel run
through the daemon is byte-identical (buffers, ``sim.now``,
engine/LSU/memory stats, trace records) to the same run in-process.

Failures a *user* can cause (compile diagnostics, bad launch args,
simulated deadlocks) are returned as structured ``{"error": ...}`` dicts
rather than raised, so a worker never poisons the pool over a typo in a
kernel source.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.server import protocol


def _structured_error(code: str, message: str,
                      data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if data:
        error["data"] = data
    return {"error": error}


def _frontend_error_payload(exc) -> Dict[str, Any]:
    """Map a FrontendError to the wire diagnostic (line:column kept)."""
    data: Dict[str, Any] = {}
    line = getattr(exc, "line", 0)
    column = getattr(exc, "column", 0)
    if line:
        data["line"] = line
        data["column"] = column
    return _structured_error(protocol.E_COMPILE, str(exc), data)


def _hub_schemas(hub) -> Tuple[Tuple[str, Tuple[str, ...], str], ...]:
    """Layouts of every schema the hub actually saw (sweep-runner idiom)."""
    return tuple((schema.name, schema.fields, schema.doc)
                 for schema in (hub.registry.get(name)
                                for name in sorted(hub.counts)))


def _json_tag(tag: Any) -> Any:
    return list(tag) if isinstance(tag, tuple) else tag


def _engine_stats(engine) -> Dict[str, Any]:
    stats = engine.stats
    return {
        "iterations_issued": stats.iterations_issued,
        "iterations_retired": stats.iterations_retired,
        "start_cycle": stats.start_cycle,
        "finish_cycle": stats.finish_cycle,
        "issue_stall_cycles": stats.issue_stall_cycles,
        "iteration_trace": [[_json_tag(tag), issue, retire]
                            for tag, issue, retire in stats.iteration_trace],
    }


def _lsu_snapshot(engine) -> Dict[str, Any]:
    """Per-(site, kind) LSU timing stats, keyed ``"site|kind"``.

    Site labels are deterministic across processes (node ids restart per
    parse), so this snapshot — samples included — must match between a
    worker-pool run and an in-process run of the same launch.
    """
    out: Dict[str, Any] = {}
    for (site, kind), lsu in engine.lsus.items():
        stats = lsu.stats
        out[f"{site}|{kind}"] = {
            "issued": stats.issued,
            "completed": stats.completed,
            "total_latency": stats.total_latency,
            "max_latency": stats.max_latency,
            "ordering_stall_cycles": stats.ordering_stall_cycles,
            "samples": list(stats.samples),
        }
    return out


def execute_kernel_job(source: str, kernel: str,
                       args: Optional[Dict[str, Any]] = None,
                       buffers: Optional[Dict[str, Dict[str, Any]]] = None,
                       defines: Optional[Dict[str, int]] = None,
                       executor: str = "fast",
                       autorun_args: Optional[Dict[str, Dict[str, Any]]] = None,
                       trace: bool = False,
                       max_cycles: int = 10_000_000) -> Dict[str, Any]:
    """Compile ``source`` and run one kernel launch on a private fabric.

    ``buffers`` maps global-buffer names to ``{"size": N}`` with an
    optional ``"fill": [ints]``; every buffer's final contents come back
    in the result. With ``trace=True`` the fabric publishes into a fresh
    hub and the result carries the records + schema layouts (the caller
    streams/stores them). Compilation hits the process-wide program
    cache, so a warm worker skips the frontend entirely.
    """
    from repro.frontend.compiler import compile_source
    from repro.frontend.lexer import FrontendError
    from repro.pipeline.fabric import Fabric

    hub = None
    if trace:
        from repro.trace.hub import TraceHub
        hub = TraceHub()
    fabric = Fabric(keep_lsu_samples=True, trace=hub)
    try:
        program = compile_source(fabric, source, defines=defines,
                                 autorun_args=autorun_args)
    except FrontendError as exc:
        return _frontend_error_payload(exc)
    try:
        launch_args = dict(args or {})
        for name, spec in (buffers or {}).items():
            # Pointer args bind by buffer name; default each declared
            # buffer to itself so clients only spell scalar args.
            launch_args.setdefault(name, name)
            size = int(spec["size"])
            store = fabric.memory.allocate(name, size)
            fill = spec.get("fill")
            if fill is not None:
                values = [0] * size
                values[:len(fill)] = [int(value) for value in fill]
                store.fill(values)
        profiler = None
        if hub is not None:
            from repro.core.vendor_profiler import VendorProfiler
            profiler = VendorProfiler(fabric)
        engine = fabric.run_kernel(program.kernel(kernel), launch_args,
                                   max_cycles=max_cycles, executor=executor)
        if hub is not None:
            from repro.trace.capture import publish_run_span
            publish_run_span(hub, kernel, engine.stats.start_cycle,
                             engine.stats.finish_cycle)
            # Publishes counter.lsu / counter.channel records into the hub.
            profiler.report(engine)
        result: Dict[str, Any] = {
            "kernel": kernel,
            "sim_now": fabric.sim.now,
            "buffers": {
                name: [int(value) for value in
                       fabric.memory.buffer(name).snapshot()]
                for name in sorted(buffers or {})},
            "engine": _engine_stats(engine),
            "lsu": _lsu_snapshot(engine),
            "memory": asdict(fabric.memory.stats),
            "traffic": {name: asdict(traffic) for name, traffic
                        in sorted(fabric.memory.traffic.items())},
        }
    except FrontendError as exc:
        return _frontend_error_payload(exc)
    except ReproError as exc:
        return _structured_error(
            "run_error", str(exc), {"type": type(exc).__name__})
    except Exception as exc:  # noqa: BLE001 - never poison the worker pool
        return _structured_error(
            protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}",
            {"traceback": traceback.format_exc()})
    finally:
        fabric.stop_autorun()
    if hub is not None:
        result["trace_records"] = list(hub.records)
        result["trace_schemas"] = _hub_schemas(hub)
    return result


def execute_experiment_job(name: str,
                           params: Optional[Dict[str, Any]] = None,
                           trace: bool = False) -> Dict[str, Any]:
    """Run one paper experiment; returns its rendered report text.

    Dispatches through :mod:`repro.experiments.registry` — the exact
    codepath the in-process CLI uses — so the rendered text matches the
    local ``repro-fpga run`` output byte for byte.
    """
    from repro.experiments import registry

    hub = None
    if trace and name in registry.TRACEABLE:
        from repro.trace.hub import TraceHub
        hub = TraceHub()
    try:
        rendered = registry.run_experiment(name, hub=hub,
                                           **dict(params or {}))
    except KeyError as exc:
        return _structured_error(protocol.E_NOT_FOUND, str(exc.args[0]))
    except ReproError as exc:
        return _structured_error(
            "run_error", str(exc), {"type": type(exc).__name__})
    except Exception as exc:  # noqa: BLE001 - never poison the worker pool
        return _structured_error(
            protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}",
            {"traceback": traceback.format_exc()})
    result: Dict[str, Any] = {"experiment": name, "rendered": rendered,
                              "traceable": name in registry.TRACEABLE}
    if hub is not None:
        result["trace_records"] = list(hub.records)
        result["trace_schemas"] = _hub_schemas(hub)
    return result


#: Job kinds the scheduler accepts -> worker function import paths.
JOB_FUNCTIONS: Dict[str, str] = {
    "kernel": "repro.server.jobs:execute_kernel_job",
    "experiment": "repro.server.jobs:execute_experiment_job",
}


def run_job(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one job in the current process (inline-executor path)."""
    if kind == "kernel":
        return execute_kernel_job(**payload)
    if kind == "experiment":
        return execute_experiment_job(**payload)
    raise ValueError(f"unknown job kind {kind!r}")
